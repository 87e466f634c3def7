"""No module of the package reaches 8,192 tokens.

Every ``equiloday`` command is a short run in a fresh interpreter, and it
compiles each module it imports.  CPython 3.11's parser grows its token
array by doubling and allocates a token struct for every new slot at once,
so a module of more than 8,192 tokens costs about 0.45 MiB more to compile
than one just under the step, and that peak lands in the max-RSS of every
command that imports it (measured on ``gring.py`` padded to 8,192 and to
8,194 tokens).  Tokens are counted as ``tokenize`` yields them, leaving out
comments, blank lines and the encoding marker.  A module that grows past
the bound is split.
"""

import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "equiloday"
BOUND = 8192
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def token_count(source: bytes) -> int:
    return sum(1 for tok in tokenize.tokenize(io.BytesIO(source).readline)
               if tok.type not in UNCOUNTED)


def test_every_module_stays_under_the_parser_step():
    counts = {p.name: token_count(p.read_bytes()) for p in sorted(SRC.glob("*.py"))}
    over = {name: n for name, n in counts.items() if n >= BOUND}
    assert not over, f"modules at or above {BOUND} tokens: {over}"


def test_comments_and_blank_lines_are_not_counted():
    assert token_count(b"x = 1\n") == token_count(b"# note\n\nx = 1  # one\n\n")
    # NAME OP NUMBER NEWLINE ENDMARKER
    assert token_count(b"x = 1\n") == 5
