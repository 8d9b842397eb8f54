"""Which ``repro`` entry points each layer's spans wrap, and the metrics.

:func:`install` puts a :class:`~spans.Tracer` shim on the public entry
points of every layer the benchmark reports.  Names are patched where
the caller looks them up (``repro.experiment.engine.prepare_bsm`` is
the engine's binding of the runner's function), so each shim sees
exactly the calls the workloads make.  :func:`layer_metrics` turns one
traced pass into the per-layer metrics, each per op except ratios and
peaks.
"""

from __future__ import annotations

from importlib import import_module

from spans import Tracer

__all__ = ["install", "layer_metrics", "PER_LAYER_UNITS"]

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = {
    "spec.expand_ms": "ms",
    "spec.specs": "count",
    "solvability.calls": "count",
    "solvability.hit_ratio": "ratio",
    "solvability.ms": "ms",
    "profile.builds": "count",
    "profile.ms": "ms",
    "runner.prepare_ms": "ms",
    "runner.finish_ms": "ms",
    "runtime.self_ms": "ms",
    "runtime.rounds": "count",
    "runtime.messages": "count",
    "runtime.bytes": "bytes",
    "runtime.batch_ms": "ms",
    "crypto.sign_calls": "count",
    "crypto.sign_hit_ratio": "ratio",
    "crypto.sign_ms": "ms",
    "crypto.verify_calls": "count",
    "crypto.verify_hit_ratio": "ratio",
    "crypto.verify_ms": "ms",
    "encoding.size_calls": "count",
    "encoding.size_ms": "ms",
    "records.count": "count",
    "records.serialize_ms": "ms",
    "sinks.write_ms": "ms",
    "sinks.records": "count",
    "sinks.spill_bytes": "bytes",
    "sinks.peak_resident": "count",
    "kernel.gs_calls": "count",
    "kernel.gs_ms": "ms",
    "kernel.instance_ms": "ms",
    "kernel.proposals": "count",
    "kernel.native": "flag",
    "rotations.count_ms": "ms",
    "rotations.instances": "count",
    "engine.shards": "count",
    "engine.worker_cpu_s": "s",
    "engine.parent_cpu_s": "s",
    "engine.worker_util": "ratio",
    "engine.gather_ms": "ms",
    "trace.overhead": "ratio",
}


def _count_specs(tracer, result, args, outer):
    if outer:
        tracer.add("spec.specs", len(result))


def _count_runs(tracer, results, args, outer):
    for result in results:
        tracer.add("runtime.rounds", result.rounds)
        tracer.add("runtime.messages", result.message_count)
        tracer.add("runtime.bytes", result.byte_count)


def _count_sink_records(tracer, result, args, outer):
    if outer:
        tracer.add("sinks.records", len(tuple(args[1])))


def _count_proposals(tracer, result, args, outer):
    tracer.add("kernel.proposals", result[1])


def _track_cache(tracer, result, args, outer):
    tracer.track_cache(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (undo with ``tracer.uninstall()``)."""
    # import_module, not ``import a.b as c``: some packages re-export a
    # function under their submodule's name (repro.matching.gale_shapley).
    engine = import_module("repro.experiment.engine")
    spec = import_module("repro.experiment.spec")
    ndjson = import_module("repro.io.ndjson")
    gale_shapley = import_module("repro.matching.gale_shapley")
    kernel = import_module("repro.matching.kernel")
    rotations = import_module("repro.rotations")
    from repro.crypto.encoding import SizeMemo
    from repro.crypto.signatures import SigningHandle
    from repro.experiment.records import RunRecord
    from repro.experiment.sinks import RecordSink
    from repro.matching._native import NativeKernel
    from repro.rotations.poset import RotationPoset
    from repro.runtime import BatchRuntime, ExecutionCache

    wrap = tracer.wrap
    # repro.experiment.spec: scenario expansion.
    wrap(spec.Sweep, "grid", "spec.expand", observe=_count_specs)
    # repro.core.solvability: the memoized oracle and the batched grid pass.
    wrap(engine, "cached_verdict", "solvability.verdict")
    wrap(spec, "solvable_pairs", "solvability.pairs")
    # Profile building.
    wrap(spec.ProfileSpec, "build", "profile.build")
    # repro.core.runner, through the engine's bindings.
    wrap(engine, "prepare_bsm", "runner.prepare")
    wrap(engine, "finish_bsm", "runner.finish")
    # repro.runtime: the batched round loop.
    wrap(BatchRuntime, "run_many", "runtime.batch", observe=_count_runs)
    wrap(ExecutionCache, "__init__", None, observe=_track_cache)
    # repro.crypto: signing and verification, cached and direct.
    wrap(ExecutionCache, "sign", "crypto.sign", fold=True)
    wrap(ExecutionCache, "verify", "crypto.verify", fold=True)
    wrap(SigningHandle, "sign", "crypto.sign", fold=True)
    wrap(SigningHandle, "verify", "crypto.verify", fold=True)
    wrap(SizeMemo, "size", "encoding.size", fold=True)
    # repro.experiment.records and sinks.
    wrap(RunRecord, "to_dict", "records.to_dict")
    wrap(RunRecord, "from_dict", "records.from_dict")
    wrap(ndjson, "record_ndjson_line", "records.ndjson_line")
    wrap(RecordSink, "write_many", "sinks.write", observe=_count_sink_records)
    # repro.matching.kernel and the native lane.
    wrap(kernel, "random_instance_stats", "kernel.instance")
    wrap(kernel, "gs_rank_arrays", "kernel.gs", observe=_count_proposals)
    wrap(gale_shapley, "gs_rank_arrays", "kernel.gs", observe=_count_proposals)
    wrap(NativeKernel, "fy_fill", "kernel.shuffle", fold=True)
    # repro.rotations: poset construction and closed-subset counting.
    wrap(rotations, "build_poset", "rotations.build")
    wrap(RotationPoset, "count_stable_matchings", "rotations.count")


def _ratio(hits: float, calls: float) -> float:
    return hits / calls if calls else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    solvability: tuple[dict, dict],
    pool_workers: int,
    overhead: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (per op unless a ratio or peak).

    ``solvability`` holds the process-global verdict-memo counters before
    and after the pass; ``pool_workers`` is the workload's pool size (0
    in-process), for worker utilization; ``overhead`` is traced over
    untraced throughput.
    """
    from repro.runtime import merge_cache_stats

    ops = max(tracer.ops, 1)
    total = tracer.total
    count = tracer.counters.get

    def per_op(value: float) -> float:
        return value / ops

    def ms(seconds: float) -> float:
        return seconds * 1000.0 / ops

    before, after = solvability
    verdict_hits = after["hits"] - before["hits"]
    verdict_calls = verdict_hits + after["misses"] - before["misses"]
    caches = merge_cache_stats(tracer.cache_stats)
    signatures, verifications = caches["signatures"], caches["verifications"]
    worker_cpu = count("engine.worker_cpu_s", 0.0)
    metrics = {
        "spec.expand_ms": ms(tracer.layer_total("spec", 3)),
        "spec.specs": per_op(count("spec.specs", 0)),
        "solvability.calls": per_op(verdict_calls),
        "solvability.hit_ratio": _ratio(verdict_hits, verdict_calls),
        "solvability.ms": ms(tracer.layer_total("solvability", 3)),
        "profile.builds": per_op(total("profile.build", 0)),
        "profile.ms": ms(total("profile.build")),
        "runner.prepare_ms": ms(total("runner.prepare")),
        "runner.finish_ms": ms(total("runner.finish")),
        "runtime.self_ms": ms(tracer.layer_total("runtime", 2)),
        "runtime.rounds": per_op(count("runtime.rounds", 0)),
        "runtime.messages": per_op(count("runtime.messages", 0)),
        "runtime.bytes": per_op(count("runtime.bytes", 0)),
        "runtime.batch_ms": ms(total("runtime.batch")),
        "crypto.sign_calls": per_op(total("crypto.sign", 0)),
        "crypto.sign_hit_ratio": _ratio(
            signatures["hits"], signatures["hits"] + signatures["misses"]
        ),
        "crypto.sign_ms": ms(total("crypto.sign")),
        "crypto.verify_calls": per_op(total("crypto.verify", 0)),
        "crypto.verify_hit_ratio": _ratio(
            verifications["hits"], verifications["hits"] + verifications["misses"]
        ),
        "crypto.verify_ms": ms(total("crypto.verify")),
        "encoding.size_calls": per_op(total("encoding.size", 0)),
        "encoding.size_ms": ms(total("encoding.size")),
        "records.count": per_op(count("records.count", 0)),
        "records.serialize_ms": ms(tracer.layer_total("records", 3)),
        "sinks.write_ms": ms(tracer.layer_total("sinks", 3)),
        "sinks.records": per_op(count("sinks.records", 0)),
        "sinks.spill_bytes": per_op(count("sinks.spill_bytes", 0)),
        "sinks.peak_resident": tracer.peaks.get("sinks.peak_resident", 0),
        "kernel.gs_calls": per_op(total("kernel.gs", 0)),
        "kernel.gs_ms": ms(total("kernel.gs")),
        "kernel.instance_ms": ms(total("kernel.instance")),
        "kernel.proposals": per_op(count("kernel.proposals", 0)),
        "kernel.native": 1.0 if total("kernel.shuffle", 0) else 0.0,
        "rotations.count_ms": ms(tracer.layer_total("rotations", 3)),
        "rotations.instances": per_op(total("rotations.build", 0)),
        "engine.shards": per_op(count("engine.shards", 0)),
        "engine.worker_cpu_s": per_op(worker_cpu),
        "engine.parent_cpu_s": per_op(count("engine.parent_cpu_s", 0.0)),
        "engine.worker_util": (
            worker_cpu / (pool_workers * tracer.op_seconds)
            if pool_workers and tracer.op_seconds
            else 0.0
        ),
        "engine.gather_ms": ms(total("records.from_dict")) if pool_workers else 0.0,
        "trace.overhead": overhead,
    }
    assert list(metrics) == list(PER_LAYER_UNITS)
    return metrics
