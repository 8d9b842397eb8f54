"""The three closed-loop workloads: grid, ensemble, sharded.

Every workload turns the benchmark seed into a deterministic stream of
ops (``op(i)`` is a pure function of the seed and ``i``) and drives the
program only through the public API of ``repro.experiment`` and
``repro.ensembles``.  ``run(op)`` is the timed part; ``summarize(op,
result)`` runs untimed and returns the op's output digest, its exact
work counts and any failed output check.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from repro.ensembles import (
    CountObservables,
    RankHistogramSink,
    check_count_statistics,
    check_rank_statistics,
    ensemble_specs,
    measure_stable_matching_counts,
    observables_from_summaries,
)
from repro.experiment import (
    AdversarySpec,
    AggregateSink,
    MemorySink,
    Session,
    SpillSink,
    Sweep,
    TeeSink,
    sweep_into,
)
from repro.experiment.engine import effective_workers

__all__ = ["WORKLOADS", "Outcome"]

#: A seed no op stream draws (op seeds are below 2**30); warm-up ops use it.
WARM_SEED = (1 << 30) + 7


@dataclass
class Outcome:
    """What one op produced, judged untimed."""

    records: int
    digest: str
    counts: dict[str, int]
    failures: list[str] = field(default_factory=list)
    #: Workload-specific values for ``account`` and ``observe``.
    extra: dict = field(default_factory=dict)


def _digest(*parts: str | bytes) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8") if isinstance(part, str) else part)
    return hasher.hexdigest()


class Workload:
    name = ""
    #: Names the seed stream; grid and sharded share one.
    stream = ""
    #: Pool size an op uses (0: the op runs in this process).
    pool_workers = 0
    #: Ops per epoch: one pass over the op mix, of about equal work.
    epoch = 5

    def __init__(self, seed: int, out_dir: str) -> None:
        self._rng = random.Random(f"perfbench:{self.stream}:{seed}")
        self._draws: list[int] = []

    def _draw(self, index: int) -> int:
        """The ``index``-th seed of this workload's stream."""
        while len(self._draws) <= index:
            self._draws.append(self._rng.randrange(1 << 30))
        return self._draws[index]

    def setup(self) -> None:
        """Warm-up work every fresh process pays before its first op."""
        self.begin_pass()
        self.summarize(self.warm_op(), self.run(self.warm_op()))
        self.end_pass()

    def prepare(self) -> None:
        """Untimed references the output checks need."""

    def begin_pass(self) -> None:
        """State that lives across the ops of one loop (a run-level sink)."""

    def end_pass(self) -> list[str]:
        """Close what ``begin_pass`` opened; its output checks."""
        return []

    def observe_pass(self, tracer) -> None:
        """Counters only known once ``end_pass`` ran (traced pass)."""

    def account(self, outcome: Outcome) -> None:
        """Fold one timed op's outcome into the run-level checks."""

    def finish(self) -> list[str]:
        """Run-level output checks, after the last op."""
        return []

    def observe(self, tracer, op, result, outcome: Outcome) -> None:
        """Per-op counters only visible from the result (traced pass)."""
        tracer.add("records.count", outcome.records)


# -- grid and sharded: the paper's Table 1, one part of it per op ------------

#: An epoch is Table 1 at k in {2, 3} for one profile seed (86 specs), cut
#: into this many ops by striding through the spec list, so every op
#: holds the same mix of topologies, authentication and budgets (about
#: equal work, so p90 does not sit between op types).
_PARTS = 7
#: Distinct profile seeds per run; the op stream cycles through them, so
#: the sharded workload's batch references cover every op it runs.
_EPOCHS = 4


class Grid(Workload):
    """Table 1 through ``Session.sweep(executor="batch")``."""

    name = "grid"
    stream = "table1"
    executor = "batch"
    workers = 1
    epoch = _PARTS

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.session = Session(executor="batch", workers=1)
        self.adversary = AdversarySpec(kind="equivocate")
        self.reference: dict[tuple[int, int], str] = {}

    def op(self, index: int) -> tuple[int, int]:
        epoch = (index // _PARTS) % _EPOCHS
        return self._draw(epoch), index % _PARTS

    def warm_op(self) -> tuple[int, int]:
        return WARM_SEED, 0

    def sweep(self, op: tuple[int, int]) -> Sweep:
        profile_seed, part = op
        table = Sweep.grid(ks=(2, 3), seeds=(profile_seed,), adversary=self.adversary)
        return Sweep(specs=table.specs[part::_PARTS])

    def run(self, op):
        sweep = self.sweep(op)
        return len(sweep), self.session.sweep(
            sweep, executor=self.executor, workers=self.workers
        )

    def summarize(self, op, result) -> Outcome:
        specs, records = result
        outcome = Outcome(
            records=len(records),
            digest=_digest(records.to_json()),
            counts={
                "specs": specs,
                "records": len(records),
                "messages": sum(r.messages for r in records),
                "bytes": sum(r.bytes for r in records),
                "rounds": sum(r.rounds for r in records),
            },
        )
        bad = [r.scenario for r in records if not r.ok]
        if bad:
            outcome.failures.append(f"{len(bad)} records not ok, first {bad[0]}")
        if len(records) != specs:
            outcome.failures.append(f"{len(records)} records for {specs} specs")
        return outcome


class Sharded(Grid):
    """The grid stream through ``executor="parallel"``, two workers."""

    name = "sharded"
    executor = "parallel"
    workers = 2
    pool_workers = 2

    def prepare(self) -> None:
        for index in range(_EPOCHS * _PARTS):
            op = self.op(index)
            records = self.session.sweep(self.sweep(op), executor="batch", workers=1)
            self.reference[op] = _digest(records.to_json())

    def summarize(self, op, result) -> Outcome:
        outcome = super().summarize(op, result)
        expected = self.reference.get(op)
        if expected is not None and outcome.digest != expected:
            outcome.failures.append("records differ from the batch executor's")
        return outcome

    def observe(self, tracer, op, result, outcome: Outcome) -> None:
        super().observe(tracer, op, result, outcome)
        specs, records = result
        tracer.add("engine.shards", effective_workers("parallel", self.workers, specs))
        # Worker-side cache counters come back merged on the record set.
        tracer.cache_stats.extend(records.cache_stats.get("workers", ()))


# -- ensemble: the random-instance pipeline ------------------------------------


@dataclass
class EnsembleResult:
    written: int
    counts: CountObservables


def _record_json(record) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)


class Ensemble(Workload):
    """Uniform instances through ``sweep_into`` and the rotation counter.

    Sizes and sink settings are the ``scale`` tier of ``repro ensemble``
    (n = 1000, spill threshold 64, batch size 128, counting at n = 128),
    and as there one sink serves the whole run: a pass opens
    ``TeeSink(AggregateSink, RankHistogramSink, SpillSink)`` once, and
    each op streams ``instances`` offline Gale-Shapley runs into it with
    one worker, then counts the stable matchings of one instance through
    the rotation poset.  A ``MemorySink`` on the tee hands each op's
    records to the untimed checks.
    """

    name = "ensemble"
    stream = "ensemble"
    n = 1000
    instances = 2
    threshold = 64
    batch_size = 128
    count_n = 128

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.out_dir = out_dir
        self._passes = 0
        self.sink = None

    def op(self, index: int) -> tuple[int, ...]:
        base = index * (self.instances + 1)
        return tuple(self._draw(base + j) for j in range(self.instances + 1))

    def warm_op(self) -> tuple[int, ...]:
        return tuple(WARM_SEED + j for j in range(self.instances + 1))

    def begin_pass(self) -> None:
        self._passes += 1
        self.spill_path = os.path.join(
            self.out_dir, f"spill-{os.getpid()}-{self._passes}.ndjson"
        )
        if os.path.exists(self.spill_path):  # left by a killed run with our pid
            os.remove(self.spill_path)
        self.aggregate = AggregateSink(by=("k",), metrics=("proposals", "receiver_rank", "matched"))
        self.spill = SpillSink(self.threshold, self.spill_path)
        self.captured = MemorySink()
        self.sink = TeeSink(self.aggregate, RankHistogramSink(), self.spill, self.captured)
        self.sink.open()
        self.written: list[str] = []
        self.counted: list[int] = []
        self.spill_bytes = 0

    def end_pass(self) -> list[str]:
        """Close the run's sink; the spill archive must hold every record."""
        self.sink.close()
        try:
            archived = [_record_json(record) for record in self.spill.iter_all()]
            self.spill_bytes = (
                os.path.getsize(self.spill_path) if os.path.exists(self.spill_path) else 0
            )
        finally:
            if os.path.exists(self.spill_path):
                os.remove(self.spill_path)
        failures = []
        if archived != self.written:
            failures.append(
                f"spill archive holds {len(archived)} records, not the {len(self.written)} written"
            )
        envelope = self.threshold + self.batch_size - 1
        if self.spill.peak_resident > envelope:
            failures.append(f"spill peak resident {self.spill.peak_resident} > {envelope}")
        return failures

    def run(self, op):
        *seeds, count_seed = op
        written = sweep_into(
            ensemble_specs((self.n,), seeds), self.sink, workers=1, batch_size=self.batch_size
        )
        counts = measure_stable_matching_counts(self.count_n, (count_seed,))
        return EnsembleResult(written, counts)

    def summarize(self, op, result: EnsembleResult) -> Outcome:
        records = list(self.captured.records)
        self.captured.records.clear()
        lines = [_record_json(record) for record in records]
        self.written.extend(lines)
        proposals = sum(r.proposals for r in records)
        outcome = Outcome(
            records=result.written,
            digest=_digest(*lines, repr(result.counts.to_dict())),
            counts={
                "specs": len(op) - 1,
                "records": len(records),
                "proposals": proposals,
                "stable_matchings": int(result.counts.mean_count),
            },
        )
        failures = outcome.failures
        if len(records) != result.written or result.written != len(op) - 1:
            failures.append(f"{len(records)} records reached the sinks of {result.written} written")
        # Per op: gross breakage only (everyone matched, instance-scope rank
        # bands, at least one stable matching).  The count band is checked
        # at ensemble scope in finish(): single instances legitimately fall
        # outside its instance-scope band (305 matchings at n = 64, 3.1x
        # Pittel's asymptotic against a 2.5x bound).
        aggregate = AggregateSink(by=("k",), metrics=("proposals", "receiver_rank", "matched"))
        aggregate.write_many(records)
        observables = observables_from_summaries(aggregate.summaries())
        for violation in check_rank_statistics(observables, scope="instance"):
            failures.append(violation.message)
        if result.counts.min_count < 1:
            failures.append("an instance reported zero stable matchings")
        return outcome

    def account(self, outcome: Outcome) -> None:
        self.counted.append(outcome.counts["stable_matchings"])

    def finish(self) -> list[str]:
        """The theory bands at ensemble scope, over every instance of the pass."""
        if not self.counted:
            return []
        counts = CountObservables(
            n=self.count_n,
            samples=len(self.counted),
            mean_count=sum(self.counted) / len(self.counted),
            min_count=min(self.counted),
            max_count=max(self.counted),
        )
        observables = observables_from_summaries(self.aggregate.summaries())
        return [
            violation.message
            for violation in check_rank_statistics(observables)
            + check_count_statistics([counts])
        ]

    def observe(self, tracer, op, result, outcome: Outcome) -> None:
        super().observe(tracer, op, result, outcome)
        tracer.peak("sinks.peak_resident", self.spill.peak_resident)

    def observe_pass(self, tracer) -> None:
        tracer.add("sinks.spill_bytes", self.spill_bytes)


WORKLOADS = {cls.name: cls for cls in (Grid, Ensemble, Sharded)}
