"""Closed-loop benchmark of the repro library: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

One client in one process issues ops back to back (closed loop) for
``--seconds`` and at least ``MIN_OPS`` ops.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it runs the same op
prefix untraced and then traced, and prints the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
NATIVE_DIR = HERE / "_build" / "native"

#: The timed metrics rest on at least this many ops, so p90 has ten beyond it.
MIN_OPS = 100
#: Fresh processes whose set-up time is measured per run (median reported).
#: They are spread evenly over the timed loop, between epochs, so they
#: sample the same stretch of host load as the ops do.
SETUP_REPEATS = 7
READY = "perfbench-setup-ready"

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_clock = time.perf_counter


def pin_environment() -> None:
    """Re-execute under a pinned environment unless already pinned.

    No warm start from a persistent cache, the native lane in a directory
    the benchmark owns, and one string-hash seed for every process.
    """
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env.update(
        {"PYTHONHASHSEED": "0", "REPRO_NATIVE": "1", "REPRO_NATIVE_DIR": str(NATIVE_DIR)}
    )
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="run exactly this many ops instead of the time-bounded loop (self-tests)",
    )
    parser.add_argument(
        "--setup-repeats", type=int, default=SETUP_REPEATS,
        help="fresh processes timed for setup_s",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Pass:
    """The ops of one loop: latencies, records, digests and counts."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.records = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.counts: dict[str, int] = {}
        self.totals: dict[str, int] = {}
        self.first = None

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def rate(self) -> float:
        """Records completed per second of op wall time."""
        busy = sum(self.latencies)
        return self.records / busy if busy else 0.0


def run_ops(workload, *, seconds=None, min_ops=0, ops=None, tracer=None, between=None) -> Pass:
    """Drive ``workload`` closed-loop: each op starts when the last returned.

    Stops after ``ops`` ops when given, else at the first epoch boundary
    after ``seconds`` of loop time have passed and at least ``min_ops``
    ops ran.  Output checks run between ops, outside the op's timing.
    ``between(loop_seconds)``, if given, is called at every epoch
    boundary; the wall time it takes is not loop time.
    """
    result = Pass()
    workload.begin_pass()
    started = _clock()
    paused = 0.0
    index = 0
    while True:
        if index % workload.epoch == 0 and between is not None:
            mark = _clock()
            between(mark - started - paused)
            paused += _clock() - mark
        if ops is not None:
            if index >= ops:
                break
        elif (
            index >= min_ops
            and index % workload.epoch == 0
            and _clock() - started - paused >= seconds
        ):
            break
        op = workload.op(index)
        error = None
        if tracer is not None:
            tracer.begin_op(index)
        begin = _clock()
        try:
            value = workload.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"op {index} raised {type(exc).__name__}: {exc}"
        latency = _clock() - begin
        if tracer is not None:
            latency = tracer.end_op()
        result.latencies.append(latency)
        if error is None:
            outcome = workload.summarize(op, value)
            if tracer is not None:
                workload.observe(tracer, op, value, outcome)
            else:
                workload.account(outcome)
            result.digests.append(outcome.digest)
            if index == 0:
                result.first = outcome
            if index < MIN_OPS:
                for key, count in outcome.counts.items():
                    result.counts[key] = result.counts.get(key, 0) + count
            for key, count in outcome.counts.items():
                result.totals[key] = result.totals.get(key, 0) + count
            if outcome.failures:
                error = f"op {index}: " + "; ".join(outcome.failures)
            else:
                result.records += outcome.records
        else:
            result.digests.append("")
        if error is not None:
            result.failed += 1
            result.failures.append(error)
        index += 1
    result.failures.extend(workload.end_pass())
    return result


def replay_first(workload, timed: Pass) -> list[str]:
    """Re-run op 0 untimed: its output and work counts must repeat exactly."""
    if timed.first is None:
        return []
    workload.begin_pass()
    again = workload.summarize(workload.op(0), workload.run(workload.op(0)))
    failures = workload.end_pass()
    if (again.digest, again.counts) != (timed.first.digest, timed.first.counts):
        failures.append("op 0 replayed with different output or work counts")
    return failures


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process to its first op being ready."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--probe-setup",
    ]
    started = _clock()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        ready = None
        for line in proc.stdout:
            if line.strip() == READY:
                ready = _clock() - started
                break
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if ready is None or code != 0:
        raise RuntimeError(f"setup probe exited with {code} before it was ready")
    return ready


class SetupProbes:
    """``repeats`` set-up probes, one each time loop time passes the next
    of ``repeats`` even steps through ``seconds`` (the first at the start)."""

    def __init__(self, args, repeats: int, seconds: float) -> None:
        self.args = args
        self.repeats = repeats
        self.step = seconds / repeats
        self.samples: list[float] = []

    def __call__(self, loop_seconds: float) -> None:
        if len(self.samples) < self.repeats and loop_seconds >= len(self.samples) * self.step:
            self.samples.append(probe_setup(self.args))

    def finish(self) -> list[float]:
        """Probes the loop ended too early for (``--ops`` runs) run now."""
        while len(self.samples) < self.repeats:
            self.samples.append(probe_setup(self.args))
        return self.samples


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set size in MB (ru_maxrss is in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def percentile(sorted_values: list[float], share: float) -> float:
    """The ``share`` quantile (inclusive method) of sorted values."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    cuts = statistics.quantiles(sorted_values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def timed_run(args, workload) -> dict:
    probes = SetupProbes(args, args.setup_repeats, args.seconds)
    timed = run_ops(
        workload, seconds=args.seconds, min_ops=MIN_OPS, ops=args.ops, between=probes
    )
    failures = timed.failures + workload.finish() + replay_first(workload, timed)
    rss = peak_rss_mb(include_children=workload.pool_workers > 0)
    setup = probes.finish()
    latencies_ms = sorted(latency * 1000.0 for latency in timed.latencies)
    metrics = {
        "runs_per_s": timed.rate,
        "p90_ms": percentile(latencies_ms, 0.9),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    print(
        f"{args.workload}: {timed.ops} ops, {timed.records} records, "
        f"{timed.failed} failed ops (fail_ratio={timed.failed / timed.ops:.4f} ratio)"
    )
    for name, value in metrics.items():
        note = ""
        if name in ("runs_per_s", "p90_ms"):
            note = f"  (over all {timed.ops} ops)"
        elif name == "setup_s":
            note = f"  (median of {len(setup)} fresh processes)"
        print(f"  {name:<12} {value:12.4f} {END_TO_END_UNITS[name]}{note}")
    # Printed, not reported: across runs the median op moves about twice
    # as much as the mean with host load (perfbench/README.md).
    print(f"  {'p50_ms':<12} {percentile(latencies_ms, 0.5):12.4f} ms  "
          f"(over all {timed.ops} ops; not a BENCHMARK.json metric)")
    print(f"  counts over the first {min(timed.ops, MIN_OPS)} ops: "
          + json.dumps(timed.counts, sort_keys=True))
    print(f"  counts over all {timed.ops} ops: " + json.dumps(timed.totals, sort_keys=True))
    return report(timed.ops, timed.failed, failures, metrics, END_TO_END_UNITS)


def traced_run(args, workload) -> dict:
    """Untraced, then traced over the same ops; per-layer metrics of the latter."""
    from layers import PER_LAYER_UNITS, install, layer_metrics
    from repro.core.solvability import solvability_cache_stats
    from spans import Tracer

    half = args.seconds / 2
    plain = run_ops(workload, seconds=half, min_ops=1, ops=args.ops)
    tracer = Tracer()
    before = solvability_cache_stats()
    try:
        install(tracer)
        traced = run_ops(workload, ops=plain.ops, tracer=tracer)
    finally:
        tracer.uninstall()
    workload.observe_pass(tracer)
    after = solvability_cache_stats()
    failures = plain.failures + traced.failures
    if traced.digests != plain.digests:
        failures.append("records differ between the traced and untraced passes")
    overhead = traced.rate / plain.rate if plain.rate else 0.0
    metrics = layer_metrics(
        tracer,
        solvability=(before, after),
        pool_workers=workload.pool_workers,
        overhead=overhead,
    )
    if workload.name == "ensemble" and metrics["kernel.native"] != 1.0:
        failures.append("the native kernel lane did not run")
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "ops": traced.ops})
    print(f"{args.workload}: traced {traced.ops} ops; spans written to {path}")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:14.4f} {PER_LAYER_UNITS[name]}")
    attempted = plain.ops + traced.ops
    failed = plain.failed + traced.failed
    return report(attempted, failed, failures, metrics, PER_LAYER_UNITS)


def report(attempted, failed, failures, metrics, units) -> dict:
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    args = parse_args(sys.argv[1:])
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    from repro.matching import _native

    # Build (first run in a checkout) or load the native lane before any
    # timing; every workload expects it.
    if _native.load() is None:
        print("perfbench: the native kernel lane is unavailable (no C compiler?)",
              file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    workload.setup()
    if args.probe_setup:
        print(READY, flush=True)
        return 0
    workload.prepare()
    result = traced_run(args, workload) if args.trace else timed_run(args, workload)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
