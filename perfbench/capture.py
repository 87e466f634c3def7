"""Capture the reference stdout of every roster operation.

    python3 perfbench/capture.py

Run from the root of a source checkout.  Each operation that exits 0 with
``"passed": true`` gets its stdout written to ``perfbench/reference/<id>.out``;
the benchmark then judges every later run against those bytes.  An
operation that fails (a known failure such as ``weyl``) gets no reference.

The realhh references are also cross-checked by a second route: for every
subgroup in their tables, the homology of the *unnormalized* fixed-point
complex of both the polygon side and the bar side is computed in process and
compared with the normalized tables in the report.  The outcome is written
to ``perfbench/reference/crosscheck.json``.
"""

from __future__ import annotations

import json
import re
import sys

import run


def capture() -> list[dict]:
    run.WORK.mkdir(exist_ok=True)
    run.REFERENCE.mkdir(exist_ok=True)
    ops = [op for w in run.ROSTER["workloads"].values() for op in w["ops"]]
    captured = []
    for op in ops + run.ROSTER["known_failures"]:
        res = run.run_op(op)
        why = run.judge(res, res.stdout)
        path = run.REFERENCE / f"{op['id']}.out"
        if why is None:
            path.write_bytes(res.stdout)
            captured.append(op)
        elif path.exists():
            path.unlink()
        print(f"{op['id']}: {res.wall_s:.2f} s, "
              + ("captured" if why is None else f"no reference ({why})"))
    return captured


_TABLE_CHECK = re.compile(r"/H=\[([\d, ]*)\]/tables-agree-through-degree-(\d+)$")


def crosscheck(op: dict) -> dict:
    """Unnormalized homology of both sides against the reference tables."""
    sys.path.insert(0, str(run.SRC))
    from equiloday.cli import make_parser, resolve_coefficient
    from equiloday.gring import DENSE_BUDGET
    from equiloday.homology import LevelComplex
    from equiloday.loday import real_hochschild

    args = make_parser().parse_args(op["argv"])
    truncation = 4 if args.truncation is None else args.truncation
    budget = DENSE_BUDGET if args.budget is None else args.budget
    rh = real_hochschild(args.m, resolve_coefficient(args.coeff), truncation)
    report = json.loads((run.REFERENCE / f"{op['id']}.out").read_bytes())
    rows = []
    for check in report["checks"]:
        found = _TABLE_CHECK.search(check["name"])
        if not found:
            continue
        sub = [int(x) for x in found.group(1).split(",")]
        kmax = int(found.group(2))
        got = {}
        for side, s in (("polygon", rh.loday_side), ("bar", rh.bar_side)):
            lc = LevelComplex(s, sub, max_level=kmax + 1, budget=budget)
            got[side] = [[h.free_rank, list(h.torsion)]
                         for h in (lc.unnormalized_homology(k)
                                   for k in range(kmax + 1))]
        agree = (got["polygon"] == check["witness"]["polygon"]
                 and got["bar"] == check["witness"]["bar"])
        rows.append({"subgroup": sub, "degrees": kmax + 1,
                     "unnormalized": got, "agrees": agree})
        print(f"{op['id']} H={sub}: unnormalized "
              + ("agrees" if agree else "DISAGREES"))
    return {"argv": op["argv"], "subgroups": rows,
            "agrees": bool(rows) and all(r["agrees"] for r in rows)}


def main() -> int:
    captured = capture()
    checks = {op["id"]: crosscheck(op) for op in captured
              if "realhh" in op["argv"]}
    (run.REFERENCE / "crosscheck.json").write_text(
        json.dumps(checks, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(c["agrees"] for c in checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
