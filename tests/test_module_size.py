"""No module of the package reaches 4,800 tokens.

Every ``equiloday`` command is a short run in a fresh interpreter, and it
compiles each module it imports.  The memory CPython 3.11 takes to compile
a module grows linearly with its token count, about 0.35 MiB per 1,000
tokens (peak traced memory of ``compile`` under ``tracemalloc``: 1.05 MiB
for a 2,934-token prefix of ``fingroup.py``, 1.77 MiB for all 4,678 tokens
of it, 2.64 MiB for the 7,994-token ``gring.py`` before it was split).  That
scratch memory is freed after each module, so the largest module a command
imports sets how far its max-RSS rises above the live data, and a
module grown past the bound is split along the layers it holds.  Tokens
are counted as ``tokenize`` yields them, leaving out comments, blank lines
and the encoding marker.
"""

import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "equiloday"
BOUND = 4800
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def token_count(source: bytes) -> int:
    return sum(1 for tok in tokenize.tokenize(io.BytesIO(source).readline)
               if tok.type not in UNCOUNTED)


def test_every_module_stays_under_the_bound():
    counts = {p.name: token_count(p.read_bytes()) for p in sorted(SRC.glob("*.py"))}
    over = {name: n for name, n in counts.items() if n >= BOUND}
    assert not over, f"modules at or above {BOUND} tokens: {over}"


def test_comments_and_blank_lines_are_not_counted():
    assert token_count(b"x = 1\n") == token_count(b"# note\n\nx = 1  # one\n\n")
    # NAME OP NUMBER NEWLINE ENDMARKER
    assert token_count(b"x = 1\n") == 5
