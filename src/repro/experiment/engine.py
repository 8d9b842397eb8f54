"""The batch engine: execute one spec, or thousands, on any executor.

Layering:

* :func:`execute_spec` — the pure function from a
  :class:`~repro.experiment.spec.ScenarioSpec` to its
  :class:`~repro.experiment.records.RunRecord` rows.  Deterministic:
  every source of randomness is seeded by the spec, and process-level
  caches only memoize pure values (solvability verdicts, keyrings);
* executors — ``"serial"`` runs in-process one spec at a time,
  ``"batch"`` schedules every bsm run of the sweep through one
  :class:`~repro.runtime.BatchRuntime` round loop over a shared
  :class:`~repro.runtime.ExecutionCache` (the single-worker fast
  path), ``"process"`` fans the specs over a ``concurrent.futures``
  process pool (specs travel as JSON dictionaries, so workers share
  nothing with the parent), and ``"parallel"`` composes the two:
  deterministic contiguous shards of the sweep, each executed in a
  worker through its own batched round loop over a per-worker cache
  (optionally warm-started from a pickled seed of the parent's
  encode-memo tables).  All return records in spec order, and a
  sweep's output is byte-identical whichever executor ran it;
* :class:`Engine` — batch execution plus adaptive sweeps (run, refine,
  repeat);
* :class:`Session` — the user-facing façade: presets, single runs with
  full reports, sweeps, structured traces, and the memoized oracle.
  Every CLI command, benchmark, and example routes through a session.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import time
from typing import Callable, Iterable, Sequence

from repro.core.problem import BSMInstance, Setting
from repro.core.runner import (
    BSMReport,
    finish_bsm,
    make_adversary,
    prepare_bsm,
    run_bsm,
)
from repro.core.solvability import SolvabilityVerdict, cached_is_solvable
from repro.crypto.signatures import KeyRing
from repro.errors import SolvabilityError
from repro.experiment.records import RunRecord, RunRecordSet
from repro.experiment.spec import EXECUTOR_NAMES, ExecutorSpec, ScenarioSpec, Sweep
from repro.ids import all_parties
from repro.runtime import (
    NO_CACHE,
    BatchRuntime,
    ExecutionCache,
    TraceRecorder,
    merge_cache_stats,
    runtime_for,
)

__all__ = [
    "EXECUTORS",
    "POOLED_EXECUTORS",
    "OUT_OF_PROCESS_EXECUTORS",
    "execute_spec",
    "stream_sweep",
    "effective_workers",
    "cached_verdict",
    "cached_keyring",
    "Engine",
    "Session",
]

#: The executor axis (re-exported from the spec layer, where the
#: declarative :class:`~repro.experiment.spec.ExecutorSpec` lives).
EXECUTORS = EXECUTOR_NAMES

#: Executors that fan work over a process pool: they honor ``workers``
#: and cannot stream structured trace events back to the parent.  The
#: CLI and the bench runner key their pool-specific handling off this
#: tuple, so a future pool-backed executor changes it in one place.
POOLED_EXECUTORS = ("process", "parallel")

#: Executors whose runs leave this process entirely (pools plus the
#: cross-host plane) — none of them can stream trace events back.
OUT_OF_PROCESS_EXECUTORS = POOLED_EXECUTORS + ("hosts",)


def _implied_executor(executor: str | None, workers: int | None) -> str:
    """An unspecified executor defaults to serial — unless the caller
    asked for workers, which implies a pool (``process``, the historical
    default; pass ``executor="parallel"`` explicitly for sharded
    batching)."""
    if executor is not None:
        return executor
    return "process" if workers is not None else "serial"


# -- memoized pure values (per process; workers build their own) ---------------


#: The solvability oracle, memoized across runs — one shared memo with
#: sweep-grid expansion and the frontier preset (see
#: :data:`repro.core.solvability.cached_is_solvable`).
cached_verdict = cached_is_solvable


@functools.lru_cache(maxsize=64)
def cached_keyring(k: int) -> KeyRing:
    """One PKI per side size, shared by every authenticated run.

    A :class:`KeyRing` is immutable after construction, so reusing it
    across runs is safe and skips ``2k`` key derivations per run.
    """
    return KeyRing(all_parties(k))


# -- spec execution ------------------------------------------------------------


def _cached_profile(spec: ScenarioSpec, cache) -> object:
    """The spec's materialized profile, memoized through ``cache``.

    Generated profiles are pure functions of ``(kind, knobs, seed, k)``
    and immutable once built, so a batch can share one object across
    every budget point that reuses a seed.  Explicit-list profiles skip
    the cache (their spec is unhashable and they are built trivially).
    """
    profile_spec = spec.profile
    if profile_spec.lists is not None:
        return profile_spec.build(spec.k)
    key = (
        "profile",
        profile_spec.kind,
        profile_spec.seed,
        profile_spec.similarity,
        profile_spec.acceptance,
        spec.k,
    )
    return cache.memo(key, lambda: profile_spec.build(spec.k))


def _build_bsm_run(spec: ScenarioSpec, cache=NO_CACHE):
    """Materialize one bsm spec: ``(setting, verdict, instance, adversary,
    adversary_kind, corrupted, drop_rule)`` — shared by the record and
    report paths."""
    setting = spec.setting()
    verdict = cached_verdict(setting)
    instance = BSMInstance(setting, _cached_profile(spec, cache))
    adversary = None
    adversary_kind = "none"
    corrupted: tuple = ()
    drop_rule = None
    if spec.adversary is not None:
        if spec.adversary.link is not None:
            drop_rule = spec.adversary.link.drop_rule(setting)
        corrupted = spec.adversary.corrupted_parties(setting)
        if corrupted:
            adversary_kind = spec.adversary.kind
            adversary = make_adversary(
                instance,
                corrupted,
                kind=spec.adversary.kind,
                # Resolve the recipe here so make_adversary does not hit
                # the uncached oracle once per run.
                recipe=spec.recipe or verdict.recipe or "bb_direct",
                seed=spec.adversary.seed,
                crash_round=spec.adversary.crash_round,
                mutator=spec.adversary.mutator,
            )
    return setting, verdict, instance, adversary, adversary_kind, corrupted, drop_rule


def _bsm_not_run_record(spec: ScenarioSpec, verdict: SolvabilityVerdict) -> RunRecord:
    """The record for an unsolvable, recipe-less grid point.

    Emitted instead of aborting the whole sweep, so grid sweeps over
    ``budgets="all"`` characterize rather than crash.
    """
    return RunRecord(
        scenario=spec.label(),
        family="bsm",
        topology=spec.topology,
        authenticated=spec.authenticated,
        k=spec.k,
        tL=spec.tL,
        tR=spec.tR,
        seed=spec.profile.seed,
        solvable=False,
        theorem=verdict.theorem,
        adversary=spec.adversary.kind if spec.adversary else "none",
        link=(
            spec.adversary.link.describe()
            if spec.adversary and spec.adversary.link
            else ""
        ),
        violations=(f"not run: {verdict.reason}",),
        tags=spec.tags,
    )


def _bsm_record(
    spec: ScenarioSpec,
    verdict: SolvabilityVerdict,
    adversary_kind: str,
    corrupted: tuple,
    report: BSMReport,
) -> RunRecord:
    """Flatten one executed bsm run into its record row."""
    outputs = tuple(
        (str(party), str(report.result.outputs.get(party)))
        for party in sorted(report.honest)
    )
    matched = sum(1 for _, partner in outputs if partner != "None")
    return RunRecord(
        scenario=spec.label(),
        family="bsm",
        topology=spec.topology,
        authenticated=spec.authenticated,
        k=spec.k,
        tL=spec.tL,
        tR=spec.tR,
        seed=spec.profile.seed,
        recipe=spec.recipe or (verdict.recipe or ""),
        solvable=verdict.solvable,
        theorem=verdict.theorem,
        adversary=adversary_kind,
        link=(
            spec.adversary.link.describe()
            if spec.adversary and spec.adversary.link
            else ""
        ),
        corrupted=len(corrupted),
        ok=report.ok,
        termination=report.report.termination,
        symmetry=report.report.symmetry,
        stability=report.report.stability,
        non_competition=report.report.non_competition,
        violations=tuple(report.report.violations),
        rounds=report.result.rounds,
        messages=report.result.message_count,
        bytes=report.result.byte_count,
        dropped=report.result.dropped,
        matched=matched,
        outputs=outputs,
        tags=spec.tags,
    )


def _compile_bsm(spec: ScenarioSpec, cache=NO_CACHE, trace=None):
    """Compile one bsm spec: ``(records, compiled)``.

    Exactly one of the two is set: ``records`` for points that produce
    rows without running (unsolvable, recipe-less), ``compiled`` as
    ``(prepared, adversary_kind, corrupted)`` ready for any runtime.
    Both the serial and batched executors assemble through here, so
    they cannot drift apart.
    """
    verdict = cached_verdict(spec.setting())
    if spec.recipe is None and verdict.recipe is None:
        return (_bsm_not_run_record(spec, verdict),), None
    setting, verdict, instance, adversary, adversary_kind, corrupted, drop_rule = (
        _build_bsm_run(spec, cache)
    )
    prepared = prepare_bsm(
        instance,
        adversary,
        recipe=spec.recipe,
        max_rounds=spec.max_rounds,
        record_trace=spec.record_trace,
        keyring=cached_keyring(spec.k) if setting.authenticated else None,
        verdict=verdict,
        drop_rule=drop_rule,
        trace=trace,
        label=spec.label(),
    )
    return None, (prepared, adversary_kind, corrupted)


def _bsm_records(spec: ScenarioSpec, cache=NO_CACHE, trace=None) -> tuple[RunRecord, ...]:
    records, compiled = _compile_bsm(spec, cache, trace)
    if records is not None:
        return records
    prepared, adversary_kind, corrupted = compiled
    report = finish_bsm(prepared, runtime_for(spec.runtime).run(prepared.plan))
    return (_bsm_record(spec, prepared.verdict, adversary_kind, corrupted, report),)


def _attack_records(spec: ScenarioSpec) -> tuple[RunRecord, ...]:
    from repro.adversary.attacks import run_attack

    twisted = attack_spec(spec.attack)
    report = run_attack(twisted)
    setting = twisted.setting
    verdict = cached_verdict(setting)
    records = []
    for scenario_name, outcome in report.outcomes.items():
        outputs = tuple(
            (str(party), str(value)) for party, value in sorted(outcome.outputs.items())
        )
        records.append(
            RunRecord(
                scenario=f"{spec.label()}/{scenario_name}",
                family="attack",
                topology=setting.topology_name,
                authenticated=setting.authenticated,
                k=setting.k,
                tL=setting.tL,
                tR=setting.tR,
                recipe=twisted.recipe,
                solvable=verdict.solvable,
                theorem=verdict.theorem,
                adversary="twisted",
                corrupted=len(outcome.corrupted),
                ok=outcome.report.all_ok,
                termination=outcome.report.termination,
                symmetry=outcome.report.symmetry,
                stability=outcome.report.stability,
                non_competition=outcome.report.non_competition,
                violations=tuple(outcome.report.violations),
                rounds=outcome.result.rounds,
                messages=outcome.result.message_count,
                bytes=outcome.result.byte_count,
                matched=sum(1 for _, v in outputs if v != "None"),
                outputs=outputs,
                tags=spec.tags,
            )
        )
    return tuple(records)


def _run_roommates_spec(spec: ScenarioSpec):
    """Execute one roommates spec; returns ``(report, adversary_kind, corrupted)``."""
    from repro.adversary.adversary import BehaviorAdversary, SilentBehavior
    from repro.core.roommates_bsm import RoommatesInstance, RoommatesSetting, run_roommates

    setting = RoommatesSetting(n=spec.n, t=spec.t, authenticated=spec.authenticated)
    parties = setting.parties()
    instance = RoommatesInstance(setting, spec.profile.build_roommates(parties))
    adversary = None
    corrupted: tuple = ()
    adversary_kind = "none"
    if spec.adversary is not None and spec.t > 0:
        if spec.adversary.kind != "silent":
            raise SolvabilityError(
                "roommates specs currently support only the silent adversary"
            )
        adversary_kind = spec.adversary.kind
        if spec.adversary.corrupt == "budget":
            corrupted = tuple(parties[-spec.t:])
        else:
            corrupted = spec.adversary.corrupted_parties(
                Setting("fully_connected", spec.authenticated, setting.k, 0, 0)
            )
        adversary = BehaviorAdversary({p: SilentBehavior() for p in corrupted})
    report = run_roommates(
        instance,
        adversary,
        max_rounds=spec.max_rounds or 400,
        reference_solvable=False if adversary is not None else None,
    )
    return report, adversary_kind, corrupted


def _roommates_records(spec: ScenarioSpec) -> tuple[RunRecord, ...]:
    report, adversary_kind, corrupted = _run_roommates_spec(spec)
    setting = report.setting
    outputs = tuple(
        (str(party), str(report.result.outputs.get(party)))
        for party in sorted(report.honest)
    )
    return (
        RunRecord(
            scenario=spec.label(),
            family="roommates",
            topology="fully_connected",
            authenticated=spec.authenticated,
            k=setting.k,
            tL=spec.t,
            tR=0,
            seed=spec.profile.seed,
            recipe="roommates_bb",
            adversary=adversary_kind,
            corrupted=len(corrupted),
            ok=report.ok,
            termination=report.verdict.termination,
            symmetry=report.verdict.symmetry,
            stability=report.verdict.conditional_stability,
            non_competition=report.verdict.non_competition,
            violations=tuple(report.verdict.violations),
            rounds=report.result.rounds,
            messages=report.result.message_count,
            bytes=report.result.byte_count,
            matched=sum(1 for _, v in outputs if v != "None"),
            outputs=outputs,
            tags=spec.tags,
        ),
    )


def _offline_records(spec: ScenarioSpec) -> tuple[RunRecord, ...]:
    from repro.ids import left_side, right_side
    from repro.matching.gale_shapley import gale_shapley
    from repro.matching.incomplete import IncompleteProfile, gale_shapley_incomplete
    from repro.matching.kernel import random_instance_stats

    if spec.algorithm == "gale_shapley" and spec.profile.kind == "random":
        # Kernel fast path for the random-ensemble workload: the record
        # carries only (matched, proposals, receiver_rank), all of which
        # the kernel computes PartyId-free from the same seed stream —
        # byte-identical to building the profile (tests/test_kernel.py).
        proposals, receiver_rank = random_instance_stats(spec.k, spec.profile.seed)
        return (
            RunRecord(
                scenario=spec.label(),
                family="offline",
                k=spec.k,
                seed=spec.profile.seed,
                recipe=spec.algorithm,
                ok=True,
                termination=True,
                symmetry=True,
                stability=True,
                non_competition=True,
                matched=spec.k,
                proposals=proposals,
                receiver_rank=receiver_rank,
                tags=spec.tags,
            ),
        )

    profile = spec.profile.build(spec.k)
    receiver_rank = 0
    if spec.algorithm == "incomplete":
        if not isinstance(profile, IncompleteProfile):
            # A complete profile is the everyone-acceptable special case
            # (conformance ensembles mix profile kinds freely).
            profile = IncompleteProfile(k=profile.k, lists=profile.lists)
        matching = gale_shapley_incomplete(profile)
        proposals = 0
    else:
        result = gale_shapley(profile)
        matching = result.matching
        proposals = result.proposals
        # 1-indexed partner ranks on the receiving side; the proposer
        # analogue is `proposals` itself (each proposal walks one rank).
        for party in right_side(spec.k):
            partner = matching.partner(party)
            if partner is not None:
                receiver_rank += profile.rank(party, partner) + 1
    matched = sum(
        1 for party in left_side(spec.k) if matching.partner(party) is not None
    )
    return (
        RunRecord(
            scenario=spec.label(),
            family="offline",
            k=spec.k,
            seed=spec.profile.seed,
            recipe=spec.algorithm,
            ok=True,
            termination=True,
            symmetry=True,
            stability=True,
            non_competition=True,
            matched=matched,
            proposals=proposals,
            receiver_rank=receiver_rank,
            tags=spec.tags,
        ),
    )


def attack_spec(lemma: str):
    """The twisted-system construction for a lemma name."""
    from repro.adversary.attacks import lemma5_spec, lemma7_spec, lemma13_spec

    constructors = {
        "lemma5": lemma5_spec,
        "lemma7": lemma7_spec,
        "lemma13": lemma13_spec,
    }
    try:
        return constructors[lemma]()
    except KeyError as exc:
        raise SolvabilityError(
            f"unknown attack {lemma!r}; known: {sorted(constructors)}"
        ) from exc


_FAMILY_RUNNERS: dict[str, Callable[[ScenarioSpec], tuple[RunRecord, ...]]] = {
    "bsm": _bsm_records,
    "attack": _attack_records,
    "roommates": _roommates_records,
    "offline": _offline_records,
}


def execute_spec(spec: ScenarioSpec, *, cache=NO_CACHE, trace=None) -> tuple[RunRecord, ...]:
    """Run one scenario and return its record rows (pure, deterministic).

    ``cache`` (an :class:`~repro.runtime.ExecutionCache`) and ``trace``
    (a structured sink) only apply to network-backed families; both are
    semantically transparent.
    """
    if spec.family == "bsm":
        return _bsm_records(spec, cache, trace)
    return _FAMILY_RUNNERS[spec.family](spec)


def _execute_batched(
    specs: Sequence[ScenarioSpec], trace=None, cache: ExecutionCache | None = None
) -> tuple[tuple[RunRecord, ...], ExecutionCache]:
    """The single-worker fast path: one shared-cache batched round loop.

    Every runnable bsm spec is compiled to a plan and scheduled through
    one :class:`~repro.runtime.BatchRuntime`; other families (and specs
    pinned to the event runtime) execute in place.  Records come back
    in spec order and are byte-identical to the serial executor's; the
    batch's :class:`~repro.runtime.ExecutionCache` is returned alongside
    so callers (the bench runner) can read its hit statistics.
    ``cache`` lets a parallel worker pass its (possibly warm-started)
    per-shard cache in.
    """
    cache = cache if cache is not None else ExecutionCache()
    runtime = BatchRuntime(cache)
    rows: list[tuple[RunRecord, ...] | None] = [None] * len(specs)
    batched: list[tuple[int, ScenarioSpec, object, str, tuple]] = []
    for i, spec in enumerate(specs):
        if spec.family != "bsm" or spec.runtime == "event":
            rows[i] = execute_spec(spec, cache=cache, trace=trace)
            continue
        records, compiled = _compile_bsm(spec, cache, trace)
        if records is not None:
            rows[i] = records
            continue
        prepared, adversary_kind, corrupted = compiled
        batched.append((i, spec, prepared, adversary_kind, corrupted))
    results = runtime.run_many([prepared.plan for (_, _, prepared, _, _) in batched])
    for (i, spec, prepared, adversary_kind, corrupted), result in zip(batched, results):
        report = finish_bsm(prepared, result)
        rows[i] = (
            _bsm_record(spec, prepared.verdict, adversary_kind, corrupted, report),
        )
    return tuple(record for row in rows for record in row), cache


def _pool_worker(payload: dict) -> list[dict]:
    """Process-pool entry point: dict in, dicts out (picklable both ways)."""
    spec = ScenarioSpec.from_dict(payload)
    return [record.to_dict() for record in execute_spec(spec)]


# -- the parallel plane: sharded batched execution -----------------------------


def effective_workers(executor: str, workers: int | None, sweep_size: int) -> int:
    """The worker count ``executor`` actually uses for a sweep.

    One source of truth for the pool sizing rule — the engine's pool
    paths and the bench runner's recorded ``workers_<executor>``
    metadata both resolve through here, so trajectory files can never
    drift from what ran.  In-process executors always report 1;
    pool-backed ones default to the CPU count and never exceed the
    sweep (one spec cannot occupy two workers).
    """
    if executor not in POOLED_EXECUTORS:
        return 1
    requested = workers or (os.cpu_count() or 2)
    return max(1, min(requested, sweep_size))


def _chunk_bounds(count: int, shards: int) -> list[tuple[int, int]]:
    """Deterministic contiguous chunking: ``shards`` near-equal slices.

    Earlier shards take the remainder, so the split is a pure function
    of ``(count, shards)`` — re-running a sweep shards identically, and
    record order is reassembled by plain concatenation.
    """
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _warm_seed(specs: Sequence[ScenarioSpec]) -> tuple[object, ...]:
    """A pickled-shippable encode-memo seed for the sweep's workers.

    Materializes every generated bsm profile once in the parent and
    encodes its preference rankings — the heaviest payload substructures
    every protocol run re-sends — through a scratch cache, then
    snapshots the leaf/struct tables.  Workers restore the snapshot into
    their per-shard cache before executing, so cross-shard-identical
    structures encode once in the parent instead of once per worker.
    Purely an amortization: restored entries re-encode through the
    normal path, so records are unchanged.
    """
    scratch = ExecutionCache()
    for spec in specs:
        if spec.family != "bsm":
            continue
        profile = _cached_profile(spec, scratch)
        lists = getattr(profile, "lists", None)
        if not lists:
            continue
        for ranking in lists.values():
            scratch.encode(tuple(ranking))
    return scratch.encode_memo().snapshot()


def _sweep_rings(specs: Sequence[ScenarioSpec]) -> dict[int, KeyRing]:
    """The key rings (labeled by ``k``) a sweep's authenticated runs use.

    Ring key material is a deterministic function of ``k``, so the label
    is stable across processes and hosts — which is what lets signature
    memo entries persist (see :mod:`repro.runtime.diskcache`).
    """
    ks = sorted(
        {
            spec.k
            for spec in specs
            if spec.family == "bsm" and spec.setting().authenticated
        }
    )
    return {k: cached_keyring(k) for k in ks}


def _warm_seed_cached(specs: Sequence[ScenarioSpec]) -> tuple[object, ...]:
    """:func:`_warm_seed` through the persistent disk layer, when enabled.

    With ``REPRO_CACHE_DIR`` set, the seed for a given workload is
    computed once and re-read (content-addressed, fingerprint-versioned)
    by every later run of the same sweep; without it this is exactly
    ``_warm_seed``.
    """
    from repro.runtime.diskcache import DiskCache, sweep_key

    disk = DiskCache()
    if not disk.enabled:
        return _warm_seed(specs)
    key = sweep_key(specs)
    seed = disk.get_object("warm-seed", key)
    if isinstance(seed, tuple):
        return seed
    seed = _warm_seed(specs)
    disk.put_object("warm-seed", key, seed)
    return seed


def _disk_warm_start(cache: ExecutionCache, specs: Sequence[ScenarioSpec]):
    """Prime ``cache`` for ``specs`` from the disk layer, if possible.

    Returns ``(disk, miss_key, rings)``: ``disk`` is None when the layer
    is disabled; ``miss_key`` is the content key to store a fresh state
    under after the sweep (None on a hit — identical bytes would be
    rewritten for nothing).
    """
    from repro.runtime.diskcache import DiskCache, restore_warm_state, sweep_key

    disk = DiskCache()
    if not disk.enabled:
        return None, None, {}
    rings = _sweep_rings(specs)
    key = sweep_key(specs)
    state = disk.get_object("warm-state", key)
    if isinstance(state, dict):
        restore_warm_state(cache, rings, state)
        return disk, None, rings
    return disk, key, rings


def _disk_warm_store(
    disk, key: str | None, cache: ExecutionCache, rings: dict[int, KeyRing]
) -> None:
    """Persist the batch's warm state after a disk-layer miss."""
    if disk is None or key is None:
        return
    from repro.runtime.diskcache import capture_warm_state

    disk.put_object("warm-state", key, capture_warm_state(cache, rings))


def _parallel_worker(payload: dict) -> dict:
    """Parallel-shard entry point: one batched round loop per worker.

    ``payload`` carries the shard's specs as JSON dictionaries plus an
    optional encode-memo seed (pickled by the pool).  Returns the
    shard's records as dictionaries together with the per-worker
    cache statistics, which the parent merges via
    :func:`repro.runtime.merge_cache_stats`.
    """
    specs = [ScenarioSpec.from_dict(data) for data in payload["specs"]]
    cache = ExecutionCache()
    seed = payload.get("seed")
    if seed:
        cache.warm_values(seed)
    records, cache = _execute_batched(specs, cache=cache)
    return {
        "records": [record.to_dict() for record in records],
        "cache_stats": cache.stats(),
    }


def _execute_parallel(
    specs: Sequence[ScenarioSpec], workers: int, warm_cache: bool = False
) -> tuple[tuple[RunRecord, ...], dict]:
    """The multicore fast path: batched shards over a process pool.

    Shards the sweep into deterministic contiguous chunks, runs each in
    a worker through :func:`_execute_batched` (per-worker
    :class:`~repro.runtime.ExecutionCache`, optionally warm-started),
    and reassembles records in spec order.  A single effective shard
    short-circuits to the in-process batched path — no pool, no pickling
    — so ``parallel`` on one core degrades to ``batch`` plus nothing.
    """
    bounds = _chunk_bounds(len(specs), effective_workers("parallel", workers, len(specs)))
    seed = _warm_seed_cached(specs) if warm_cache and len(bounds) > 1 else None
    if len(bounds) <= 1:
        cache = ExecutionCache()
        disk, miss_key, rings = (
            _disk_warm_start(cache, specs) if warm_cache else (None, None, {})
        )
        records, cache = _execute_batched(specs, cache=cache)
        _disk_warm_store(disk, miss_key, cache, rings)
        return records, merge_cache_stats([cache.stats()])
    payloads = [
        {
            "specs": [spec.to_dict() for spec in specs[start:stop]],
            "seed": seed,
        }
        for start, stop in bounds
    ]
    with concurrent.futures.ProcessPoolExecutor(max_workers=len(payloads)) as pool:
        shards = list(pool.map(_parallel_worker, payloads))
    records = tuple(
        RunRecord.from_dict(data) for shard in shards for data in shard["records"]
    )
    return records, merge_cache_stats([shard["cache_stats"] for shard in shards])


def stream_sweep(
    specs: Sequence[ScenarioSpec] | Sweep,
    *,
    workers: int | None = None,
    warm_cache: bool = False,
    stats: dict | None = None,
    sink=None,
) -> Iterable[tuple[RunRecord, ...]]:
    """Execute a sweep and *yield* record chunks in spec order.

    The streaming complement of the ``parallel`` executor: the sweep is
    sharded exactly like :func:`_execute_parallel` (same bounds, same
    per-worker batched round loops, byte-identical records), but each
    shard's records are yielded as soon as that shard — and every shard
    before it — has completed, instead of materializing the whole
    :class:`~repro.experiment.records.RunRecordSet` first.  Memory
    stays flat in the number of shards, not the number of runs, which
    is what the ``repro.serve`` NDJSON streaming path and long-running
    ensemble writers need.

    A single effective shard degrades to the in-process batched path
    and yields once.  ``stats`` (optional dict) is updated in place
    with the merged per-worker cache statistics after the last chunk —
    a generator cannot return a value to a ``for`` loop, so the stats
    argument keeps :data:`~repro.experiment.records.RunRecordSet.cache_stats`
    available to streaming callers too.

    ``sink`` (an optional
    :class:`~repro.experiment.sinks.RecordSink`) receives each chunk
    via ``write_many`` *before* it is yielded, so a caller that only
    wants the sink's running view can drain the generator without
    touching the chunks (the service plane streams this way).  The sink
    is not closed here — lifecycle stays with the caller.
    """
    specs = tuple(specs)
    if not specs:
        if stats is not None:
            stats.update(merge_cache_stats([]))
        return
    bounds = _chunk_bounds(len(specs), effective_workers("parallel", workers, len(specs)))
    if len(bounds) <= 1:
        cache = ExecutionCache()
        disk, miss_key, rings = (
            _disk_warm_start(cache, specs) if warm_cache else (None, None, {})
        )
        records, cache = _execute_batched(specs, cache=cache)
        _disk_warm_store(disk, miss_key, cache, rings)
        if stats is not None:
            stats.update(merge_cache_stats([cache.stats()]))
        if sink is not None:
            sink.write_many(records)
        yield records
        return
    seed = _warm_seed_cached(specs) if warm_cache else None
    payloads = [
        {
            "specs": [spec.to_dict() for spec in specs[start:stop]],
            "seed": seed,
        }
        for start, stop in bounds
    ]
    shard_stats: list[dict] = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=len(payloads)) as pool:
        # Submit every shard up front, then drain in spec order: shard
        # i+1 finishing early just makes its yield instantaneous once
        # shard i lands, so streaming never reorders records.
        futures = [pool.submit(_parallel_worker, payload) for payload in payloads]
        for future in futures:
            shard = future.result()
            shard_stats.append(shard["cache_stats"])
            chunk = tuple(RunRecord.from_dict(data) for data in shard["records"])
            if sink is not None:
                sink.write_many(chunk)
            yield chunk
    if stats is not None:
        stats.update(merge_cache_stats(shard_stats))


def _flush_sink(sink) -> None:
    """Push a sink's buffered records to stable storage, when it can."""
    flush = getattr(sink, "flush", None)
    if callable(flush):
        flush()


def _sink_position(sink) -> int | None:
    """The sink's archive byte offset, when it can report one."""
    tell = getattr(sink, "tell", None)
    return tell() if callable(tell) else None


def _sink_rollback(sink, ckpt) -> None:
    """Align a resumable archive with what the checkpoint acknowledged.

    A kill can land between a flush and the checkpoint update; the
    archive then holds records the checkpoint never acknowledged, which
    a naive append would duplicate.  Truncating back to the recorded
    offset (0 when nothing was ever acknowledged) restores the exact
    acknowledged prefix — resumed archives stay byte-identical to an
    uninterrupted run.  Sinks without ``rollback`` (aggregates, tees)
    are left alone.
    """
    rollback = getattr(sink, "rollback", None)
    if not callable(rollback):
        return
    offset = ckpt.archive_bytes
    if ckpt.completed == 0 and offset is None:
        offset = 0
    if offset is not None:
        rollback(offset)


def sweep_into(
    specs: Sequence[ScenarioSpec] | Sweep,
    sink,
    *,
    workers: int | None = None,
    warm_cache: bool = False,
    batch_size: int = 256,
    stats: dict | None = None,
    checkpoint: str | None = None,
) -> int:
    """Execute a sweep writing every record into ``sink``; returns the count.

    The memory-bounded execution plane: records are *never* gathered
    into a :class:`~repro.experiment.records.RunRecordSet`.  With
    multiple effective shards this drains :func:`stream_sweep` (each
    shard written in ``batch_size`` slices, byte-identical records,
    spec order); with
    a single effective shard the sweep runs in-process through the
    batched round loop in slices of ``batch_size`` specs, so resident
    records stay bounded by ``batch_size`` (plus whatever the sink
    retains) no matter how large the sweep is.  Shared caches persist
    across slices, so slicing costs no cache locality.

    ``checkpoint`` names a :class:`~repro.experiment.checkpoint.
    SweepCheckpoint` file next to the sink's archive: completed-spec
    progress (plus the archive byte offset, when the sink reports one)
    is snapshotted after every flushed batch/shard, and a restart with
    the same workload skips the completed prefix.  Pair it with an
    append-mode NDJSON sink: the archive is first rolled back to the
    acknowledged offset, so the resumed archive is byte-identical to an
    uninterrupted run wherever the kill landed.  A checkpointed sweep
    *owns* its archive — with no acknowledged progress the archive
    restarts from byte 0.  The count returned is the records written by
    *this* call — a resumed run reports the remainder.

    The sink is left open — close it (or use ``with``) at the call
    site; spilling sinks only complete their on-disk archive on close.
    """
    if batch_size < 1:
        raise SolvabilityError(f"batch_size must be >= 1, got {batch_size}")
    specs = tuple(specs)
    ckpt = None
    done = 0
    if checkpoint is not None:
        from repro.experiment.checkpoint import SweepCheckpoint

        ckpt = SweepCheckpoint(checkpoint, specs)
        done = ckpt.completed
        # A checkpointed sweep owns its archive: drop anything past the
        # acknowledged offset (all of it when nothing was acknowledged)
        # so the resumed archive is byte-identical to an uninterrupted
        # run even when a kill landed between a flush and the update.
        _sink_rollback(sink, ckpt)
    pending = specs[done:]
    if not pending:
        if ckpt is not None:
            ckpt.complete()
        if stats is not None:
            stats.update(merge_cache_stats([]))
        return 0
    bounds = _chunk_bounds(
        len(pending), effective_workers("parallel", workers, len(pending))
    )
    if len(bounds) > 1:
        total = 0
        for chunk, (start, stop) in zip(
            stream_sweep(pending, workers=workers, warm_cache=warm_cache, stats=stats),
            bounds,
        ):
            # batch_size-sized writes, as on the single-shard path: the
            # sinks' residency envelopes are stated per write.
            for offset in range(0, len(chunk), batch_size):
                sink.write_many(chunk[offset : offset + batch_size])
            total += len(chunk)
            if ckpt is not None:
                _flush_sink(sink)  # progress must never outrun the archive
                done += stop - start
                ckpt.update(done, archive_bytes=_sink_position(sink))
        if ckpt is not None:
            ckpt.complete()
        return total
    total = 0
    cache = ExecutionCache()
    disk, miss_key, rings = (
        _disk_warm_start(cache, specs) if warm_cache else (None, None, {})
    )
    for start in range(0, len(pending), batch_size):
        batch = pending[start : start + batch_size]
        records, cache = _execute_batched(batch, cache=cache)
        sink.write_many(records)
        total += len(records)
        if ckpt is not None:
            _flush_sink(sink)  # progress must never outrun the archive
            done += len(batch)
            ckpt.update(done, archive_bytes=_sink_position(sink))
    _disk_warm_store(disk, miss_key, cache, rings)
    if ckpt is not None:
        ckpt.complete()
    if stats is not None:
        stats.update(merge_cache_stats([cache.stats()]))
    return total


# -- the engine ----------------------------------------------------------------


class Engine:
    """Executes sweeps on a pluggable executor with per-process memoization.

    ``executor`` is ``"serial"`` (default), ``"batch"`` (one shared-
    cache batched round loop — the single-worker fast path),
    ``"process"`` (one spec per pool task), ``"parallel"`` (batched
    shards over the pool: multicore × shared caches), or ``"hosts"``
    (batched chunks over worker endpoints via
    :mod:`repro.runtime.remote` — requires ``hosts``); ``workers``
    bounds the pool (default: CPU count), ``warm_cache`` pre-seeds
    worker caches from the parent (and, with ``REPRO_CACHE_DIR`` set,
    from the persistent disk layer).  An
    :class:`~repro.experiment.spec.ExecutorSpec` pins all four knobs
    declaratively.  Adding a new backend — sharded, async, remote —
    means adding a new executor here, not rewriting callers.
    """

    def __init__(
        self,
        executor: str | ExecutorSpec = "serial",
        workers: int | None = None,
        warm_cache: bool = False,
        hosts: Sequence[str] | None = None,
    ) -> None:
        if isinstance(executor, ExecutorSpec):
            workers = executor.workers if workers is None else workers
            warm_cache = executor.warm_cache or warm_cache
            hosts = executor.hosts if hosts is None else hosts
            executor = executor.name
        if executor not in EXECUTORS:
            raise SolvabilityError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if workers is not None and workers < 1:
            raise SolvabilityError(f"workers must be >= 1, got {workers}")
        if executor == "hosts" and not hosts:
            raise SolvabilityError(
                "the hosts executor needs host endpoints "
                '(e.g. hosts=("local", "local"); see repro.runtime.remote)'
            )
        self.executor = executor
        self.workers = workers or (os.cpu_count() or 2)
        self.warm_cache = warm_cache
        self.hosts = tuple(hosts) if hosts else None

    def run(self, spec: ScenarioSpec) -> RunRecordSet:
        """Execute one spec in-process."""
        started = time.perf_counter()
        records = execute_spec(spec)
        return RunRecordSet(
            records=records,
            elapsed_seconds=time.perf_counter() - started,
            executor="serial",
        )

    def run_sweep(
        self, sweep: Sweep | Iterable[ScenarioSpec], *, trace=None, sink=None
    ) -> RunRecordSet:
        """Execute a batch; records come back in spec order regardless
        of which executor (or worker) ran each spec.

        ``trace`` is an optional structured sink receiving every bsm
        run's kernel events (in-process executors only — pool workers
        cannot stream events back).  ``sink`` is an optional
        :class:`~repro.experiment.sinks.RecordSink` that receives the
        records as well (a tee — the set is still returned; for
        memory-bounded execution use :func:`sweep_into`).
        """
        specs = tuple(sweep)
        started = time.perf_counter()
        if trace is not None and self.executor in OUT_OF_PROCESS_EXECUTORS:
            raise SolvabilityError(
                "structured tracing requires an in-process executor "
                f"('serial' or 'batch'), not the {self.executor!r} backend"
            )
        cache_stats: dict = {}
        if self.executor == "hosts":
            from repro.runtime.remote import run_hosts

            assert self.hosts is not None  # __init__ guarantees this
            records, cache_stats = run_hosts(
                specs, self.hosts, warm_cache=self.warm_cache
            )
        elif self.executor == "parallel":
            records, cache_stats = _execute_parallel(
                specs, self.workers, warm_cache=self.warm_cache
            )
        elif self.executor == "process" and len(specs) > 1:
            payloads = [spec.to_dict() for spec in specs]
            chunksize = max(1, len(payloads) // (self.workers * 4))
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=effective_workers("process", self.workers, len(payloads))
            ) as pool:
                rows_per_spec = list(
                    pool.map(_pool_worker, payloads, chunksize=chunksize)
                )
            records = tuple(
                RunRecord.from_dict(row) for rows in rows_per_spec for row in rows
            )
        elif self.executor == "batch":
            records, cache = _execute_batched(specs, trace=trace)
            cache_stats = cache.stats()
        else:
            records = tuple(
                record for spec in specs for record in execute_spec(spec, trace=trace)
            )
        if sink is not None:
            sink.write_many(records)
        return RunRecordSet(
            records=records,
            elapsed_seconds=time.perf_counter() - started,
            executor=self.executor,
            cache_stats=cache_stats,
        )

    def run_adaptive(
        self,
        initial: Sweep | Iterable[ScenarioSpec],
        refine: Callable[[RunRecordSet], Sequence[ScenarioSpec]],
        max_batches: int = 8,
    ) -> RunRecordSet:
        """Adaptive sweep: run a batch, let ``refine`` propose the next.

        ``refine`` sees everything gathered so far and returns the next
        batch of specs (empty to stop).  Useful for walking a frontier:
        run cheap points first, then spend runs only where the verdict
        flips.
        """
        gathered = self.run_sweep(initial)
        for _ in range(max_batches):
            next_specs = tuple(refine(gathered))
            if not next_specs:
                break
            gathered = gathered + self.run_sweep(next_specs)
        return gathered


# -- the façade ----------------------------------------------------------------


class Session:
    """One front door for every caller: CLI, benchmarks, examples, tests.

    A session wraps an :class:`Engine` plus the memoized oracle, and
    offers three granularities:

    * :meth:`solve` — a (memoized) solvability verdict;
    * :meth:`run` / :meth:`sweep` — records, through the configured
      executor;
    * :meth:`report` / :meth:`attack` / :meth:`execute` — full in-
      process report objects, for callers that need traces, outputs,
      or the attack scenarios' indistinguishability checks.
    """

    def __init__(
        self,
        executor: str | ExecutorSpec | None = None,
        workers: int | None = None,
        warm_cache: bool = False,
    ) -> None:
        if isinstance(executor, ExecutorSpec):
            self.engine = Engine(executor, workers=workers, warm_cache=warm_cache)
        else:
            self.engine = Engine(
                executor=_implied_executor(executor, workers),
                workers=workers,
                warm_cache=warm_cache,
            )

    # -- oracle ---------------------------------------------------------------

    def solve(self, setting: Setting) -> SolvabilityVerdict:
        """The paper's characterization for one setting (memoized)."""
        return cached_verdict(setting)

    # -- records --------------------------------------------------------------

    def run(self, spec: ScenarioSpec) -> RunRecordSet:
        """Execute one spec and return its records."""
        return self.engine.run(spec)

    def sweep(
        self,
        sweep: Sweep | Iterable[ScenarioSpec] | str,
        *,
        executor: str | ExecutorSpec | None = None,
        workers: int | None = None,
        warm_cache: bool | None = None,
        trace=None,
        sink=None,
    ) -> RunRecordSet:
        """Execute a sweep (or a preset, by name) and return all records.

        ``sink`` tees the records into a
        :class:`~repro.experiment.sinks.RecordSink` as well; for
        memory-bounded streaming without a returned set, use
        :meth:`sweep_into`.
        """
        if isinstance(sweep, str):
            sweep = self.preset(sweep)
        engine = self.engine
        if executor is not None or workers is not None or warm_cache is not None:
            if isinstance(executor, ExecutorSpec):
                engine = Engine(executor, workers=workers, warm_cache=bool(warm_cache))
            else:
                if executor is None:
                    # workers only makes sense on a pool: honor the request
                    # (unless the session is already pool-backed).
                    if workers is not None and self.engine.executor not in POOLED_EXECUTORS:
                        executor = "process"
                    else:
                        executor = self.engine.executor
                engine = Engine(
                    executor=executor,
                    workers=workers or self.engine.workers,
                    warm_cache=self.engine.warm_cache if warm_cache is None else warm_cache,
                )
        return engine.run_sweep(sweep, trace=trace, sink=sink)

    def sweep_into(
        self,
        sweep: Sweep | Iterable[ScenarioSpec] | str,
        sink,
        *,
        workers: int | None = None,
        warm_cache: bool | None = None,
        batch_size: int = 256,
        stats: dict | None = None,
        checkpoint: str | None = None,
    ) -> int:
        """Stream a sweep (or preset) into ``sink``; returns the record count.

        The façade over :func:`sweep_into`: records go to the sink in
        spec order without materializing a
        :class:`~repro.experiment.records.RunRecordSet`, so ensemble
        size is bounded by the sink's policy (spill threshold, running
        aggregates), not by memory.  ``checkpoint`` names a progress
        file enabling resume after a kill — see :func:`sweep_into`.
        """
        if isinstance(sweep, str):
            sweep = self.preset(sweep)
        return sweep_into(
            sweep,
            sink,
            workers=self.engine.workers if workers is None else workers,
            warm_cache=self.engine.warm_cache if warm_cache is None else bool(warm_cache),
            batch_size=batch_size,
            stats=stats,
            checkpoint=checkpoint,
        )

    def adaptive(self, initial, refine, max_batches: int = 8) -> RunRecordSet:
        """Adaptive sweep — see :meth:`Engine.run_adaptive`."""
        return self.engine.run_adaptive(initial, refine, max_batches=max_batches)

    # -- full reports ---------------------------------------------------------

    def report(self, spec: ScenarioSpec, *, trace=None) -> BSMReport:
        """Run one bSM spec in-process and return the full report
        (result, trace when ``record_trace``, property breakdown)."""
        if spec.family != "bsm":
            raise SolvabilityError(
                f"report() is for the bsm family, got {spec.family!r}; "
                "use attack()/run() for other families"
            )
        _, _, instance, adversary, _, _, drop_rule = _build_bsm_run(spec)
        return self.execute(
            instance,
            adversary,
            recipe=spec.recipe,
            max_rounds=spec.max_rounds,
            record_trace=spec.record_trace,
            runtime=spec.runtime,
            drop_rule=drop_rule,
            trace=trace,
            label=spec.label(),
        )

    def trace(self, spec: ScenarioSpec) -> tuple[BSMReport, TraceRecorder]:
        """Replay one bSM spec with kernel tracing attached.

        Returns the full report plus the recorded structured events —
        export them with :func:`repro.io.dump` (``kernel-trace`` format).
        """
        recorder = TraceRecorder()
        report = self.report(spec, trace=recorder)
        return report, recorder

    def execute(
        self,
        instance: BSMInstance,
        adversary=None,
        *,
        recipe: str | None = None,
        max_rounds: int | None = None,
        enforce_structure: bool = True,
        record_trace: bool = False,
        runtime: str = "lockstep",
        drop_rule=None,
        trace=None,
        label: str = "",
    ) -> BSMReport:
        """The imperative escape hatch: run a pre-built instance/adversary
        with the session's memoized keyring and verdict."""
        setting = instance.setting
        return run_bsm(
            instance,
            adversary,
            recipe=recipe,
            max_rounds=max_rounds,
            enforce_structure=enforce_structure,
            record_trace=record_trace,
            keyring=cached_keyring(setting.k) if setting.authenticated else None,
            verdict=cached_verdict(setting),
            runtime=runtime,
            drop_rule=drop_rule,
            trace=trace,
            label=label,
        )

    def attack(self, lemma: str):
        """Run a twisted-system construction; returns the full
        :class:`~repro.adversary.attacks.AttackReport`."""
        from repro.adversary.attacks import run_attack

        return run_attack(attack_spec(lemma))

    def roommates(self, spec: ScenarioSpec):
        """Run one roommates spec in-process and return the full report."""
        if spec.family != "roommates":
            raise SolvabilityError(f"roommates() needs a roommates spec, got {spec.family!r}")
        report, _, _ = _run_roommates_spec(spec)
        return report

    # -- presets --------------------------------------------------------------

    def preset(self, name: str) -> Sweep:
        """A named sweep from :mod:`repro.experiment.presets`."""
        from repro.experiment.presets import preset

        return preset(name)
