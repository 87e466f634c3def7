"""Byte-for-byte CLI stdout against golden files under ``tests/golden``.

The golden files pin the subgroup conjugacy-class numbering of ``group
info`` and the carved bases behind ``loday run --emit-complex``.  Every
timed operation of the benchmark roster (``perfbench/roster.json``) is also
held to its reference output under ``perfbench/reference``.  To
regenerate them after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import hashlib
import io
import json
import os
import sys

import pytest

from equiloday.cli import main
from equiloday.exactalg import ChainComplex

from oracles import dense_homology_data

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

GROUPS = ["c2", "c3", "c4", "c6", "c12", "klein", "d4", "d6", "d8", "d12",
          "s3", "s4", "q8", "a4"]

CASES = {f"group-info-{g}.{fmt}": ["group", "info", g, "--format", fmt]
         for g in GROUPS for fmt in ("json", "csv")}
CASES["loday-polygon-m1-gaussian-classes.json"] = [
    "loday", "run", "--kind", "polygon", "--m", "1", "--coeff", "gaussian",
    "--truncation", "3", "--subgroups", "classes", "--emit-complex"]
CASES["loday-polygon-m2-zmod4-classes.json"] = [
    "loday", "run", "--kind", "polygon", "--m", "2", "--coeff", "zmod4",
    "--truncation", "3", "--subgroups", "classes", "--emit-complex"]
CASES["loday-polygon-m1-c2mod2-classes.json"] = [
    "loday", "run", "--kind", "polygon", "--m", "1", "--coeff",
    "group_ring_c2_mod2", "--truncation", "3", "--max-degree", "1",
    "--subgroups", "classes", "--emit-complex"]


def _assert_same_text(got: str, want: str, what: str) -> None:
    """Exact equality.  A mismatch fails at once, naming the first
    differing line and showing both versions of it around the first
    differing column, instead of diffing the whole texts (which takes
    minutes on a large golden)."""
    if got == want:
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    x, y = (lines[i] if i < len(lines) else "" for lines in (a, b))
    c = next((c for c, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    lo = max(0, c - 80)
    pytest.fail(f"{what}: first difference at line {i + 1}, column {c + 1} "
                f"(got {len(a)} lines, want {len(b)})\n"
                f"  got:  {x[lo:c + 80]!r}\n  want: {y[lo:c + 80]!r}", pytrace=False)


def test_mismatch_names_the_first_differing_line():
    want = "head\n" + "x" * 200_000 + "\n" + "row 3\n" * 50_000
    got = want.replace("row 3\nrow 3\n", "row 3\nrow 4\n", 1)
    _assert_same_text(want, want, "same")
    with pytest.raises(pytest.fail.Exception, match=r"line 4, column 5 .*\n.*'row 4\\n'"):
        _assert_same_text(got, want, "golden")
    with pytest.raises(pytest.fail.Exception, match="line 2, column 1"):
        _assert_same_text("head\n", want, "golden")


def _stdout(argv) -> tuple[int, str]:
    buf = io.StringIO()
    old, sys.stdout = sys.stdout, buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    code, out = _stdout(CASES[name])
    assert code == 0
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        want = fh.read()
    _assert_same_text(out, want, name)


# the homology rows of every loday golden and pinned output, committed
# here as they stood before the Smith engine and the subgroup generating
# sets changed carved bases: a regeneration may move basis fields
# (``moore_boundaries``), never a table.  A row is (subgroup, degree,
# free rank, torsion), or (subgroup, degree, status) for a skip.
HOMOLOGY_ROWS = {
    "loday-polygon-m1-gaussian-classes.json": [
        ((0,), 0, 2, ()), ((0,), 1, 0, (2, 2)), ((0,), 2, 0, ()), ((0, 1), 0, 1, (2,)),
        ((0, 1), 1, 0, (2, 2, 2)), ((0, 1), 2, 0, (2, 2, 2)),
    ],
    "loday-polygon-m2-zmod4-classes.json": [
        ((0,), 0, 0, (4,)), ((0,), 1, 0, ()), ((0,), 2, 0, ()), ((0, 1), 0, 0, (4,)),
        ((0, 1), 1, 0, ()), ((0, 1), 2, 0, ()), ((0, 2), 0, 0, (4,)),
        ((0, 2), 1, 0, ()), ((0, 2), 2, 0, ()), ((0, 3), 0, 0, (4,)),
        ((0, 3), 1, 0, ()), ((0, 3), 2, 0, ()), ((0, 1, 2, 3), 0, 0, (4,)),
        ((0, 1, 2, 3), 1, 0, ()), ((0, 1, 2, 3), 2, 0, ()),
    ],
    "loday-polygon-m1-c2mod2-classes.json": [
        ((0,), 0, 0, (2, 2)), ((0,), 1, 0, (2, 2)), ((0, 1), 0, 0, (2, 2, 2, 2)),
        ((0, 1), 1, 0, (2, 2, 2, 2, 2, 2)),
    ],
    "coset-cayley-s3-gaussian": [
        ((0,), 0, 2, ()), ((0,), 1, "skipped"), ((0, 1), 0, 1, ()),
        ((0, 1), 1, "skipped"), ((0, 2), 0, 1, ()), ((0, 2), 1, "skipped"),
        ((0, 5), 0, 1, ()), ((0, 5), 1, "skipped"), ((0, 3, 4), 0, 2, ()),
        ((0, 3, 4), 1, "skipped"), ((0, 1, 2, 3, 4, 5), 0, 1, ()),
        ((0, 1, 2, 3, 4, 5), 1, "skipped"),
    ],
    "rot3-rotation_z3-diagonal": [
        ((0,), 0, 3, ()), ((0,), 1, "skipped"), ((0,), 2, "skipped"),
        ((0, 1, 2), 0, 3, ()), ((0, 1, 2), 1, "skipped"), ((0, 1, 2), 2, "skipped"),
    ],
}


def _homology_rows(out: str) -> list[tuple]:
    return [(tuple(h["subgroup"]), h["degree"], h["free_rank"], tuple(h["torsion"]))
            if h["status"] == "ok" else (tuple(h["subgroup"]), h["degree"], h["status"])
            for h in json.loads(out)["homology"]]


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("loday-")))
def test_golden_homology_rows_are_the_committed_ones(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert _homology_rows(fh.read()) == HOMOLOGY_ROWS[name]


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("loday-")))
def test_golden_complexes_match_dense_oracle(name, monkeypatch):
    # every normalized complex behind a golden, through the sparse path and
    # through the dense one it replaced
    made = []
    init = ChainComplex.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ChainComplex, "__init__", record)
    assert _stdout(CASES[name])[0] == 0
    assert made
    for cx in made:
        bounds = [b.to_dense() for b in cx.boundaries]
        for k in range(cx.top() + 1):
            got, want = cx.homology_data(k), dense_homology_data(cx.levels, bounds, k)
            assert got.lift.data == want.lift.data
            assert got.pres.relations == want.pres.relations
            assert got.pres.canonical() == want.pres.canonical()


@pytest.mark.slow
def test_largest_carving_output_is_pinned():
    # the m = 2 Gaussian polygon carves complexes far larger than the three
    # goldens above reach; its 20 MB of stdout is pinned by hash
    code, out = _stdout(["loday", "run", "--kind", "polygon", "--m", "2",
                         "--coeff", "gaussian", "--truncation", "3",
                         "--subgroups", "classes", "--emit-complex"])
    assert code == 0
    data = out.encode("utf-8")
    assert len(data) == 20_725_074
    assert hashlib.sha256(data).hexdigest() == (
        "5936ced06ae3ac157f0a0e91c1d8c038678f1f1c95cf02fb8a710924eb885167")


# carved complexes no golden covers, pinned by length and hash: the S3
# coset-Cayley space drops degenerate orbits under non-abelian stabilizers;
# rotation_z3's unit is not a basis vector, so its free levels divide out
# the degenerate images instead
PINNED = {
    "coset-cayley-s3-gaussian": (
        ["--kind", "coset-cayley", "--group", "s3", "--sub", "0,2", "--gens", "3",
         "--coeff", "gaussian", "--action", "involution", "--truncation", "2"],
        122_606, "164e285c1840049d56b6e1dee3a658206ae6f62c7506090164e21d68c2a74dbe"),
    "rot3-rotation_z3-diagonal": (
        ["--kind", "rot", "--n", "3", "--coeff", "rotation_z3", "--action", "cyclic",
         "--inner", "diagonal", "--truncation", "3"],
        326_624, "98144c412ec99385470c00e65cf2f9b5d5cd353788c7b919797368afab92416e"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_carved_complex_output_is_pinned(name):
    argv, size, digest = PINNED[name]
    code, out = _stdout(["loday", "run", *argv, "--subgroups", "all", "--emit-complex"])
    assert code == 0
    assert _homology_rows(out) == HOMOLOGY_ROWS[name]
    data = out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _roster_ops():
    """Every timed operation of the benchmark roster (read only), with the
    workload that times it; the realhh workload's ops are marked slow."""
    with open(os.path.join(PERFBENCH, "roster.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    return [pytest.param(op["id"], op["argv"], id=op["id"],
                         marks=[pytest.mark.slow] if name == "realhh-free" else [])
            for name, wl in workloads.items() for op in wl["ops"]]


@pytest.mark.parametrize("op_id,argv", _roster_ops())
def test_roster_stdout_matches_benchmark_reference(op_id, argv):
    # the references the benchmark judges its operations by
    ref = os.path.join(PERFBENCH, "reference", f"{op_id}.out")
    code, out = _stdout(argv)
    assert code == 0
    with open(ref, encoding="utf-8", newline="") as fh:
        _assert_same_text(out, fh.read(), ref)


def test_group_list_is_covered():
    code, out = _stdout(["group", "list", "--format", "csv"])
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == GROUPS


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        code, out = _stdout(argv)
        assert code == 0, (name, code)
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(out)
