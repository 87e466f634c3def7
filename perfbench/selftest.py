"""Self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It runs the first operation of
every workload once, untraced, and the first ``suites`` operation once
traced; checks that each end-to-end and per-layer metric in BENCHMARK.json
is reported with its unit; checks that the correctness check rejects a
tampered stdout, a nonzero exit and a failing report; and checks that the
tracer puts back every callable it wrapped.  Exits 1 on any problem.
"""

from __future__ import annotations

import importlib
import json
import sys

import run
from tracer import LAYERS, Tracer


def metric_problems(result: dict, wanted: list[dict]) -> list[str]:
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"metric names are {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"want {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: value {got.get('value')!r}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"not correct: {result['failed']} of "
                        f"{result['attempted']} operations failed")
    return problems


def judge_problems() -> list[str]:
    op = run.ROSTER["workloads"]["suites"]["ops"][0]
    ref = run.reference(op["id"])
    report = json.loads(ref)
    failing = dict(report, passed=False)
    cases = {
        "reference itself": (0, ref, True),
        "one check renamed": (0, ref.replace(b'"name": "', b'"name": "x', 1),
                              False),
        "one byte appended": (0, ref + b" ", False),
        "nonzero exit": (1, ref, False),
        "report not passed": (0, (json.dumps(failing, indent=2, sort_keys=True)
                                  + "\n").encode(), False),
    }
    problems = []
    for label, (code, out, accept) in cases.items():
        res = run.OpResult(op["id"], 0.0, 0.0, 0, code, out, b"")
        if (run.judge(res, ref) is None) != accept:
            problems.append(f"judge {'rejected' if accept else 'accepted'} "
                            f"{label}")
    return problems


def uninstall_problems() -> list[str]:
    sys.path.insert(0, str(run.SRC))
    owners = []
    for name in ("exactalg", "fingroup", "gring", "simpgset", "loday",
                 "homology", "verify", "cli"):
        mod = importlib.import_module("equiloday." + name)
        owners.append(mod)
        owners.extend(v for v in vars(mod).values()
                      if isinstance(v, type) and v.__module__ == mod.__name__)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    tracer.install()
    wrapped = sum(1 for o, b in zip(owners, before)
                  for k, v in vars(o).items() if b.get(k) is not v)
    tracer.uninstall()
    changed = [f"{o.__name__}.{k}" for o, b in zip(owners, before)
               for k, v in vars(o).items() if b.get(k) is not v]
    problems = [f"not restored: {c}" for c in changed]
    if wrapped < len(LAYERS):
        problems.append(f"only {wrapped} callables were wrapped")
    return problems


def main() -> int:
    if not (run.SRC / "equiloday" / "cli.py").is_file():
        print(f"error: no equiloday sources under {run.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = judge_problems() + uninstall_problems()
    quiet = lambda line: None  # noqa: E731
    for name, workload in run.ROSTER["workloads"].items():
        ops = workload["ops"][:1]
        result = run.measure(name, ops, 0, 0, False, log=quiet)
        problems += [f"{name}: {p}"
                     for p in metric_problems(result, spec["end_to_end"])]
        print(f"{name}: {ops[0]['id']} checked "
              f"({result['metrics']['verdict_s']['value']:.2f} s)")
    ops = run.ROSTER["workloads"]["suites"]["ops"][:1]
    result = run.measure("suites", ops, 0, 0, True, log=quiet)
    problems += [f"suites traced: {p}"
                 for p in metric_problems(result, spec["per_layer"])]
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
