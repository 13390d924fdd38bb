"""Benchmark of odgrammar's parse, generate and validate paths.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fragment-parse, genitive-parse, generate, validate (see
BENCHMARK.json and bench/README.md for why each is there).  Each run starts
the workload in a fresh process (``worker.py``) and, with ``--trace 0``,
first times the worker's set-up in separate probe processes; ``setup_s`` is
the median over all of them.  Times are in reference seconds: wall-clock
time divided by the slow-down a fixed reference loop measures
(``calibrate.py``); wall-clock values are printed beside them.  The program under test is the checkout's
``src/`` tree; nothing is installed.  Output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The exit code is 0 only when every output matched its frozen answer.
``--smoke`` keeps only each workload's smallest inputs (for the self-test).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import Calibrator, chunk

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

# An untraced run times at least MIN_SETUPS set-ups (the worker's among
# them), and more, up to MAX_SETUPS, while they add up to less than
# SETUP_BUDGET_S, so that a cheap set-up gets a steadier median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 9, 17, 3.0
SETUP_CALIBRATION_SHARE = 1 / 3  # reference loop run between set-ups
DEADLINE_S = 170  # a run that takes longer is killed and fails


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def start_worker(args, probe: bool, deadline: float):
    """Start a worker; return (process, seconds from start to ``ready``)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if probe:
        cmd.append("--probe")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not set up (exit code {proc.returncode})")
    return proc, ready


def finish(proc, deadline: float) -> str:
    """Wait for a worker until the deadline; return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker passed the deadline and was killed") from None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (REPO_ROOT / "src" / "odgrammar" / "__init__.py").is_file():
        print(f"no odgrammar source tree under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    try:
        # the reference loop runs here, between the probes, so that its
        # slow-down factor is measured at the time the set-ups ran
        setups = []
        calibrator = Calibrator()
        for _ in range(20):
            chunk()  # warm this process up before timing the loop
        while not args.trace and len(setups) + 1 < MAX_SETUPS and (
            len(setups) + 1 < MIN_SETUPS or sum(setups) < SETUP_BUDGET_S
        ):
            proc, ready = start_worker(args, True, deadline)
            finish(proc, deadline)
            setups.append(ready)
            calibrator.keep_up(sum(setups), SETUP_CALIBRATION_SHARE)
        proc, ready = start_worker(args, False, deadline)
        setups.append(ready)
        out = finish(proc, deadline)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    values = dict(res["metrics"])
    wall = dict(res["wall"])
    if not args.trace:
        wall["setup_s"] = statistics.median(setups)
        wall["setup_slowdown_factor"] = calibrator.factor()
        values["setup_s"] = wall["setup_s"] / calibrator.factor()
    units = declared_metrics(args.trace)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} calls in {res['passes']} passes of {res['calls_per_pass']}"
          + ("" if args.trace else f", set-up timed {len(setups)} times"))
    if wall:
        print(f"  {'':34s} {'reference':>14s}      {'wall clock':>14s}")
    for name, unit in units.items():
        measured = f"{wall[name]:>14.6g} {unit}" if name in wall else ""
        print(f"  {name:34s} {values[name]:>14.6g} {unit:5s}{measured}")
    if wall:
        print(f"  {'slow-down factor, set-up / loop':34s} "
              f"{wall['setup_slowdown_factor']:>14.6g} {wall['slowdown_factor']:.6g}")
    print(f"  {'failed_ratio':34s} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted})")
    print("meta " + json.dumps(res["meta"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
