"""Byte-for-byte CLI stdout against golden files under ``tests/golden``.

The golden files pin the subgroup conjugacy-class numbering of ``group
info`` and the carved bases behind ``loday run --emit-complex``.  To
regenerate them after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import io
import os
import sys

import pytest

from equiloday.cli import main

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
    assert out == want


@pytest.mark.slow
def test_realhh_stdout_matches_benchmark_reference():
    # the reference the benchmark judges its realhh workload by (read only)
    ref = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "reference", "realhh-m1-gaussian.out")
    code, out = _stdout(["verify", "--suite", "realhh", "--m", "1",
                         "--coeff", "gaussian"])
    assert code == 0
    with open(ref, encoding="utf-8", newline="") as fh:
        assert out == fh.read()


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
