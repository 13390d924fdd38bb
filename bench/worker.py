"""One workload process of the benchmark: set up, then measure.

``run.py`` starts this script in a fresh process.  It sets up (imports,
lexicon load, input generation, one warm-up pass), prints ``ready``, and
then runs a single-client closed loop: one thread, each call issued after
the previous one returned, over whole passes of the workload's requests in
a seeded order, until ``--seconds`` have passed and at least two passes
are done.  Every output is compared with its frozen answer outside the
timed region.  The last line of output
is one JSON object with the measurements.  With ``--probe`` it exits right
after ``ready``; ``run.py`` uses that to time set-up several times.

With ``--trace 1`` the loop runs twice for half the time each, untraced and
then with the span wrappers of ``tracing.py`` installed, and reports the
per-layer metrics of the traced half.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import random
import re
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = REPO_ROOT / ".bench_out"

# The program under test is always the checkout's own source tree.
sys.path.insert(0, str(SRC_DIR))

import odgrammar  # noqa: E402

if Path(odgrammar.__file__).resolve().parent != SRC_DIR / "odgrammar":
    sys.exit(f"imported odgrammar from {odgrammar.__file__}, not from {SRC_DIR}")

from odgrammar import generate, parse, parse_structure_text, validate_structure  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402

LEXICON_LOADS = 5
CALIBRATION_SHARE = 0.1  # of a run's time spent in the reference loop
MIN_PASSES = 2  # so that every input has more than one call in a run

# diagnostics label -> engine count metric
ENGINE_COUNTS = {
    "entry assignments tried": "engine.entries",
    "labeled head maps enumerated": "engine.maps",
    "head maps forming valency-checked trees": "engine.trees",
    "realized structures validated": "engine.realized",
    "positional and slot assignments tried": "engine.placements",
    "domain arrangements laid out": "engine.orders",
}
_DIAG = re.compile(r"^(.+): (\d+)$")

# First failing conditions reported by name; any other lands in "other".
REJECT_CONDITIONS = ("ods.contiguity", "ds.cond4", "prec.pair", "prec.self")

STAGES = ("tree", "domains", "conditions", "index", "lexical")


def run_meta(seed: int) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC_DIR / "odgrammar").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(path.relative_to(SRC_DIR).as_posix().encode())
            src_hash.update(path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": src_hash.hexdigest(),
    }


def _git_commit() -> str:
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def traced_call(tracer, req, lexica):
    lex = lexica[req.lexicon]
    if req.op == "parse":
        return tracer.call("engine.parse", parse, req.payload, lex)
    if req.op == "generate":
        return tracer.call("engine.generate", generate, req.payload, lex)
    ds = tracer.call("serialize.parse_structure", parse_structure_text, req.payload, lex)
    return tracer.call("validate.structure", validate_structure, ds, lex)


class Loop:
    """Closed-loop client over whole passes; checks every answer."""

    def __init__(self, requests, answers, lexica, seed):
        self.requests = requests
        self.answers = answers
        self.lexica = lexica
        self.order_rng = random.Random(f"order-{seed}")
        self.latencies: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.keys: list[str] = []
        self.calibrator = Calibrator()
        self.failed = 0
        self.passes = 0
        self.work_s = 0.0
        self.counts = {name: 0 for name in ENGINE_COUNTS.values()}
        self.results = 0
        self.log: list[dict] = []

    def check(self, req) -> bool:
        """One untimed call, as in the warm-up; True when the answer matches."""
        try:
            result = workloads.run_request(req, self.lexica)
        except Exception:  # reported, and counted as failed by the caller
            traceback.print_exc()
            return False
        return workloads.answer_of(req, result, self.lexica) == self.answers[req.key]

    def run(self, seconds: float, call, tracer=None, sample=True) -> None:
        """Whole passes, at least MIN_PASSES, until ``seconds`` have passed;
        with ``sample`` the reference loop of calibrate.py runs throughout."""
        gc.collect()
        if sample:
            self.calibrator.start(CALIBRATION_SHARE)
        try:
            self._run(seconds, call, tracer)
        finally:
            self.calibrator.stop()

    def _run(self, seconds, call, tracer) -> None:
        start = perf_counter()
        while True:
            order = list(self.requests)
            self.order_rng.shuffle(order)
            for req in order:
                if tracer is not None:
                    tracer.request = len(self.latencies)
                t0 = perf_counter()
                try:
                    result = call(req)
                except Exception:  # a failed call is counted, not fatal
                    traceback.print_exc()
                    result = None
                t1 = perf_counter()
                latency = t1 - t0 - self.calibrator.time_between(t0, t1)
                self.latencies.append(latency)
                self.intervals.append((t0, t1))
                self.keys.append(req.key)
                self.work_s += latency
                if result is None:
                    self.failed += 1
                    continue
                if workloads.answer_of(req, result, self.lexica) != self.answers[req.key]:
                    print(f"wrong answer for {req.key}", file=sys.stderr)
                    self.failed += 1
                if tracer is not None:
                    self._count(req, result)
                    self.log.append({"request": tracer.request, "key": req.key,
                                     "latency_s": latency})
            self.passes += 1
            if self.passes >= MIN_PASSES and perf_counter() - start >= seconds:
                break

    def _count(self, req, result) -> None:
        if req.op == "validate":
            return
        for line in result.diagnostics:
            m = _DIAG.match(line.strip())
            if m and m.group(1) in ENGINE_COUNTS:
                self.counts[ENGINE_COUNTS[m.group(1)]] += int(m.group(2))
        self.results += len(result.structures if req.op == "parse" else result.pairs)

    def ops_per_s(self) -> float:
        return len(self.latencies) / self.work_s


def _p50_p90_ms(latencies: list[float]) -> tuple[float, float]:
    ms = sorted(x * 1000.0 for x in latencies)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


def _trimmed_ratio(pairs: list[tuple[float, float]]) -> float:
    """Sum of latencies over sum of slow-down factors, without the calls
    of the lowest and highest tenth of latency."""
    cut = len(pairs) // 10
    kept = sorted(pairs)[cut:len(pairs) - cut]
    return sum(lat for lat, _ in kept) / sum(f for _, f in kept)


def end_to_end(loop: Loop) -> tuple[dict, dict]:
    """Metrics in reference time, and the same as measured on the wall clock.

    Each call's slow-down factor is measured around it (calibrate.py).  A
    factor from a few chunks is noisy, so times are divided by mean
    factors, never call by call: the throughput by the mean factor
    weighted by time in calls, and each input's latency, its trimmed mean
    over its calls in the run, by the mean factor of those calls.  For the
    latency percentiles each call counts with its input's latency; every
    input occurs a fixed number of times a pass, so the percentiles weigh
    inputs as the workload does.
    """
    cal = loop.calibrator
    factors = [cal.local_factor(t0, t1) for t0, t1 in loop.intervals]
    by_key: dict[str, list[tuple[float, float]]] = {}
    for key, latency, f in zip(loop.keys, loop.latencies, factors):
        by_key.setdefault(key, []).append((latency, f))
    typical = {key: _trimmed_ratio(pairs) for key, pairs in by_key.items()}
    p50, p90 = _p50_p90_ms([typical[key] for key in loop.keys])
    factor = sum(lat * f for lat, f in zip(loop.latencies, factors)) / loop.work_s
    wall_p50, wall_p90 = _p50_p90_ms(loop.latencies)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "ops_per_s": loop.ops_per_s() * factor,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mb": rss,
    }
    wall = {
        "ops_per_s": loop.ops_per_s(),
        "latency_p50_ms": wall_p50,
        "latency_p90_ms": wall_p90,
        "slowdown_factor": factor,
    }
    return metrics, wall


def per_layer(loop: Loop, tracer: tracing.Tracer, untraced_ops: float, load_s: float) -> dict:
    ops = len(loop.latencies)
    total, self_s, calls = tracer.total_s, tracer.self_s, tracer.calls
    m = {"lexicon.load_s": load_s}
    m["engine.self_s"] = (self_s["engine.parse"] + self_s["engine.generate"]) / ops
    for name, value in loop.counts.items():
        m[name] = value / ops
    realized = loop.counts["engine.realized"]
    m["engine.useful_ratio"] = loop.results / realized if realized else 0.0
    for fn in ("realize_structure", "validate_tree"):
        m[f"core.{fn}_s"] = total[f"core.{fn}"] / ops
        m[f"core.{fn}_calls"] = calls[f"core.{fn}"] / ops
    m["constraints.check_valency_s"] = total["constraints.check_valency"] / ops
    m["validate.first_violation_s"] = total["validate.first_violation"] / ops
    other = sum(n for c, n in tracer.rejects.items() if c not in REJECT_CONDITIONS)
    for cond in REJECT_CONDITIONS:
        m[f"validate.reject.{cond}"] = tracer.rejects[cond] / ops
    m["validate.reject.other"] = other / ops
    for stage in STAGES:
        m[f"validate.{stage}_s"] = self_s[f"validate.{stage}"] / ops
    # what the validator's top-level span does itself: the linking stage
    m["validate.linking_self_s"] = (
        self_s["validate.first_violation"] + self_s["validate.structure"]
    ) / ops
    m["serialize.canonical_s"] = total["serialize.canonical"] / ops
    m["serialize.canonical_calls"] = calls["serialize.canonical"] / ops
    m["serialize.parse_structure_s"] = total["serialize.parse_structure"] / ops
    m["trace.untraced_ops_per_s"] = untraced_ops
    m["trace.traced_ops_per_s"] = loop.ops_per_s()
    return m


def lexicon_load_s() -> float:
    times = []
    for _ in range(LEXICON_LOADS):
        t0 = perf_counter()
        workloads.load_lexica()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    load_s = lexicon_load_s() if args.trace else None
    lexica = workloads.load_lexica()
    answers = workloads.load_answers()
    requests = workloads.requests_for(args.workload, lexica, args.seed, args.smoke)
    missing = [r.key for r in requests if r.key not in answers]
    if missing:
        print(f"no frozen answer for {missing[:5]}", file=sys.stderr)
        return 1
    loop = Loop(requests, answers, lexica, args.seed)
    warm_failed = sum(
        not loop.check(r) for r in workloads.warmup_requests(args.workload, requests)
    )
    print("ready", flush=True)
    if args.probe:
        return 0

    meta = run_meta(args.seed)
    plain = functools.partial(workloads.run_request, lexica=lexica)
    if not args.trace:
        loop.run(args.seconds, plain)
        loops = [loop]
        metrics, wall = end_to_end(loop)
    else:
        # per-layer times are wall-clock times, so neither half samples
        loop.run(args.seconds / 2, plain, sample=False)
        traced = Loop(requests, answers, lexica, args.seed)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.run(args.seconds / 2, lambda req: traced_call(tracer, req, lexica),
                       tracer, sample=False)
        finally:
            tracer.uninstall()
        loops = [loop, traced]
        wall = {}
        metrics = per_layer(traced, tracer, loop.ops_per_s(), load_s)
        out = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        tracer.write(out, meta | {"workload": args.workload}, traced.log)
    print(json.dumps({
        "attempted": sum(len(x.latencies) for x in loops),
        "failed": warm_failed + sum(x.failed for x in loops),
        "calls_per_pass": len(requests),
        "passes": sum(x.passes for x in loops),
        "metrics": metrics,
        "wall": wall,
        "meta": meta,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
