"""Time-to-verdict benchmark for the equiloday command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one
``equiloday verify ...`` invocation in a fresh interpreter; the next starts
only after the previous one has exited (a closed loop with one client and at
most one child process).  The workloads and their operations are listed in
``perfbench/roster.json``; the seed only permutes the order of the
operations inside a pass.  Passes repeat while another one still fits in the
``--seconds`` window (there is always at least one).  The window includes
the set-up samples taken before each pass.

Every operation is checked: it fails if it exits nonzero, if its report says
``"passed": false``, or if its stdout differs from the reference in
``perfbench/reference``.

With ``--trace 0`` the end-to-end metrics are the medians over passes of the
pass's summed wall time (``verdict_s``), summed child CPU time (``cpu_s``)
and largest child max-RSS (``peak_rss_mb``), plus ``setup_s``, the median
time a fresh interpreter takes to import ``equiloday.cli``.  With
``--trace 1`` passes alternate between untraced children and children run
through ``perfbench/traced_cli.py``, and the per-layer metrics of the traced
passes are reported together with the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the run
conditions and each operation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference"
ROSTER = json.loads((HERE / "roster.json").read_text(encoding="utf-8"))
SETUP_IMPORTS = 3  # before every pass, so the samples span the whole window


@dataclass
class OpResult:
    op_id: str
    wall_s: float
    cpu_s: float
    rss_kib: int
    code: int
    stdout: bytes
    stderr: bytes
    trace: Optional[dict] = None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str]) -> tuple[float, float, int, int, bytes, bytes]:
    """Run one child to completion: wall, CPU, max-RSS (KiB), exit code and
    its stdout and stderr."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(),
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            proc.returncode, out_path.read_bytes(), err_path.read_bytes())


def run_op(op: dict, traced: bool = False) -> OpResult:
    if traced:
        trace_path = WORK / "trace.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path)]
    else:
        cmd = [sys.executable, "-m", "equiloday.cli"]
    wall, cpu, rss, code, out, err = run_child(cmd + op["argv"])
    res = OpResult(op["id"], wall, cpu, rss, code, out, err)
    if traced and trace_path.exists():
        res.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        trace_path.unlink()
    return res


def reference(op_id: str) -> Optional[bytes]:
    path = REFERENCE / f"{op_id}.out"
    return path.read_bytes() if path.exists() else None


def judge(res: OpResult, ref: Optional[bytes]) -> Optional[str]:
    """Why the operation failed, or None when it passed."""
    if res.code != 0:
        return f"exit status {res.code}"
    try:
        report = json.loads(res.stdout)
    except ValueError:
        return "stdout is not a JSON report"
    if report.get("passed") is not True:
        return 'report says "passed": false'
    if ref is None:
        return "no reference output"
    if res.stdout != ref:
        return "stdout differs from the reference"
    return None


def explain(res: OpResult, ref: Optional[bytes]) -> Optional[str]:
    """``judge`` with the last line the child wrote to stderr appended."""
    why = judge(res, ref)
    tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
    return why + f" ({tail[0]})" if why is not None and tail else why


def conditions(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": [round(x, 2) for x in os.getloadavg()]}


def measure_setup(count: int) -> list[float]:
    """Wall seconds of ``count`` fresh interpreters importing equiloday.cli."""
    times = []
    for _ in range(count):
        wall, _, _, code, _, err = run_child(
            [sys.executable, "-c", "import equiloday.cli"])
        if code != 0:
            raise RuntimeError(f"import equiloday.cli failed:\n{err.decode()}")
        times.append(wall)
    return times


class Tally:
    """Operations attempted and failed, with a log line for each."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def record(self, res: OpResult, label: str) -> OpResult:
        self.attempted += 1
        why = explain(res, reference(res.op_id))
        if why is not None:
            self.failed += 1
        self.log(f"{label} {res.op_id}: wall {res.wall_s:.4f} s, "
                 f"cpu {res.cpu_s:.4f} s, max-rss {res.rss_kib} KiB, "
                 + ("ok" if why is None else "FAILED: " + why))
        return res


def run_passes(ops: list[dict], seed: int, seconds: float, modes: list[bool],
               tally: Tally, setup: Optional[list[float]] = None
               ) -> dict[bool, list[list[OpResult]]]:
    """Cycles of one pass per mode (False untraced, True traced), repeated
    while another cycle is expected to fit in the window.  When ``setup`` is
    given, set-up samples are appended to it before every cycle."""
    rng = random.Random(seed)
    passes: dict[bool, list[list[OpResult]]] = {m: [] for m in modes}
    start = time.perf_counter()
    cycles = 0
    while True:
        if setup is not None:
            setup += measure_setup(SETUP_IMPORTS)
        for traced in modes:
            label = f"pass {cycles + 1}{' traced' if traced else ''}"
            passes[traced].append(
                [tally.record(run_op(op, traced), label)
                 for op in rng.sample(ops, len(ops))])
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > seconds:
            return passes


def end_to_end(ops, seed, seconds, tally) -> dict[str, float]:
    measure_setup(1)  # compiles the bytecode; users do not pay this per call
    setup: list[float] = []
    passes = run_passes(ops, seed, seconds, [False], tally, setup)[False]
    med = statistics.median
    out = {
        "verdict_s": med(sum(r.wall_s for r in p) for p in passes),
        "cpu_s": med(sum(r.cpu_s for r in p) for p in passes),
        "peak_rss_mb": med(max(r.rss_kib for r in p) / 1024 for p in passes),
        "setup_s": med(setup),
    }
    tally.log(f"samples: {len(passes)} passes of {len(ops)} operations, "
              f"{len(setup)} set-up imports (medians reported; too few passes "
              "for a higher percentile)")
    return out


def per_layer(ops, seed, seconds, tally) -> dict[str, float]:
    passes = run_passes(ops, seed, seconds, [False, True], tally)
    layers = []
    for p in passes[True]:
        total: dict[str, float] = {}
        for res in p:
            if res.trace is None:
                continue
            for k, v in summarize(res.trace, res.wall_s).items():
                if ".max_" in k:
                    total[k] = max(total.get(k, 0), v)
                else:
                    total[k] = total.get(k, 0) + v
        entries = total.get("gring.dense.entries", 0)
        total["gring.dense.fill"] = (total.get("gring.dense.nnz", 0) / entries
                                     if entries else 0.0)
        wall = sum(r.wall_s for r in p)
        total["trace.attributed_frac"] = total.get("trace.named_s", 0) / wall
        total["trace.verdict_s"] = wall
        layers.append(total)
    untraced = statistics.median(sum(r.wall_s for r in p)
                                 for p in passes[False])
    keys = set().union(*layers)
    out = {k: statistics.median(t.get(k, 0) for t in layers) for k in keys}
    out["trace.overhead"] = out["trace.verdict_s"] / untraced
    tally.log(f"tracing overhead: traced verdict {out['trace.verdict_s']:.4f} s"
              f" / untraced {untraced:.4f} s = {out['trace.overhead']:.4f}")
    return out


def probe_known_failures(workload: str, log) -> None:
    for op in ROSTER["known_failures"]:
        if op["workload"] != workload:
            continue
        res = run_op(op)
        why = explain(res, res.stdout)  # no reference exists: status only
        log(f"known defect {op['id']} (not timed): "
            + ("now passes; move it into the workload" if why is None
               else f"still fails: {why}"))


def measure(workload: str, ops: list[dict], seed: int, seconds: float,
            trace: bool, log=print) -> dict:
    """Run one benchmark measurement and return the result object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    log("conditions " + json.dumps(conditions(workload, seed, seconds, trace)))
    tally = Tally(log)
    if trace:
        values = per_layer(ops, seed, seconds, tally)
    else:
        probe_known_failures(workload, log)
        values = end_to_end(ops, seed, seconds, tally)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        log(f"{name}: {m['value']:.6g} {m['unit']}")
    log(f"fail_frac: {tally.failed}/{tally.attempted} = "
        f"{tally.failed / tally.attempted:.4f}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(ROSTER["workloads"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "equiloday" / "cli.py").is_file():
        print(f"error: no equiloday sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    ops = ROSTER["workloads"][args.workload]["ops"]
    result = measure(args.workload, ops, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
