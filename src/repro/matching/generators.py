"""Preference profile generators.

Workload generators for the tests, benchmarks, and example
applications:

* uniformly random profiles (the default correctness workload);
* correlated profiles with a tunable similarity knob — the regime
  studied by Khanchandani & Wattenhofer [17], cited in the paper's
  related work;
* score/latency-induced profiles for the CDN and radio-spectrum
  examples (preferences derived from a quality matrix, as in the
  Maggs-Sitaraman motivation [21]);
* master-list profiles (everyone on a side agrees), the maximally
  contended workload;
* single-set rankings for the stable-roommates extension.

All generators take a seeded :class:`random.Random` (or a seed) and are
fully deterministic given it.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.errors import PreferenceError
from repro.ids import LEFT, RIGHT, PartyId, all_parties, left_side, right_side
from repro.matching.kernel import random_pref_matrices
from repro.matching.preferences import PreferenceProfile, default_list

__all__ = [
    "resolve_rng",
    "random_profile",
    "correlated_profile",
    "master_list_profile",
    "profile_from_scores",
    "latency_matrix",
    "random_incomplete_profile",
    "random_roommates_preferences",
]


def resolve_rng(rng_or_seed: random.Random | int | None) -> random.Random:
    """Accept either a ``Random`` instance or a seed and return a ``Random``."""
    if isinstance(rng_or_seed, random.Random):
        return rng_or_seed
    return random.Random(rng_or_seed if rng_or_seed is not None else 0)


def random_profile(k: int, rng_or_seed: random.Random | int | None = None) -> PreferenceProfile:
    """A uniformly random complete preference profile of size ``k``.

    Generates flat int preference matrices through the kernel
    (stream-identical to the historical per-``PartyId`` shuffles: left
    parties first, one shuffle per party) and skips re-validation — the
    rows are permutations by construction.
    """
    rng = resolve_rng(rng_or_seed)
    left_pref, right_pref = random_pref_matrices(k, rng)
    return PreferenceProfile.from_trusted_pref_matrices(k, left_pref, right_pref)


def correlated_profile(
    k: int,
    similarity: float,
    rng_or_seed: random.Random | int | None = None,
) -> PreferenceProfile:
    """A profile where lists on each side are perturbations of a master list.

    ``similarity = 1`` yields identical lists per side (a master-list
    instance); ``similarity = 0`` yields independent uniform lists.  The
    perturbation performs ``round((1 - similarity) * k * k)`` random
    adjacent transpositions per list, so disagreement grows smoothly.
    """
    if not 0.0 <= similarity <= 1.0:
        raise PreferenceError(f"similarity must lie in [0, 1], got {similarity}")
    rng = resolve_rng(rng_or_seed)
    # Int-native, stream-identical to the historical PartyId version:
    # masters are shuffled int rows (same swaps, same draws), then each
    # party applies ``swaps`` adjacent transpositions in party order
    # (left block first, matching ``all_parties``).
    masters = {LEFT: _shuffled(list(range(k)), rng), RIGHT: _shuffled(list(range(k)), rng)}
    swaps = round((1.0 - similarity) * k * k)
    rows: dict[str, list[list[int]]] = {LEFT: [], RIGHT: []}
    for side in (LEFT, RIGHT):
        for _ in range(k):
            ranking = list(masters[side])
            for _ in range(swaps):
                if k < 2:
                    break
                i = rng.randrange(k - 1)
                ranking[i], ranking[i + 1] = ranking[i + 1], ranking[i]
            rows[side].append(ranking)
    return PreferenceProfile.from_trusted_index_rows(k, rows[LEFT], rows[RIGHT])


def master_list_profile(k: int, rng_or_seed: random.Random | int | None = None) -> PreferenceProfile:
    """Everyone on a side holds the same (random) list — maximal contention."""
    return correlated_profile(k, similarity=1.0, rng_or_seed=rng_or_seed)


def profile_from_scores(scores: Mapping[PartyId, Mapping[PartyId, float]]) -> PreferenceProfile:
    """Derive a profile from per-party scores over the opposite side.

    Higher score = more preferred; ties break by candidate id so the
    result is deterministic.  Used by the CDN / spectrum / kidney
    examples, where scores come from latency, SINR, or compatibility.
    """
    if not scores or len(scores) % 2 != 0:
        raise PreferenceError(f"scores must cover 2k parties, got {len(scores)}")
    lists: dict[PartyId, tuple[PartyId, ...]] = {}
    for party, row in scores.items():
        ordered = sorted(row, key=lambda candidate: (-row[candidate], candidate))
        lists[party] = tuple(ordered)
    return PreferenceProfile.from_dict(lists)


def latency_matrix(
    k: int,
    rng_or_seed: random.Random | int | None = None,
    *,
    spread: float = 100.0,
) -> dict[PartyId, dict[PartyId, float]]:
    """A symmetric synthetic latency matrix between the two sides.

    Each party is dropped uniformly on a ``spread x spread`` plane and
    latency is Euclidean distance plus jitter.  ``profile_from_scores``
    of the *negated* latencies yields a proximity-preference profile.
    """
    rng = resolve_rng(rng_or_seed)
    position = {
        party: (rng.uniform(0, spread), rng.uniform(0, spread))
        for party in all_parties(k)
    }
    matrix: dict[PartyId, dict[PartyId, float]] = {}
    for party in all_parties(k):
        others = right_side(k) if party.is_left() else left_side(k)
        row: dict[PartyId, float] = {}
        for other in others:
            dx = position[party][0] - position[other][0]
            dy = position[party][1] - position[other][1]
            row[other] = (dx * dx + dy * dy) ** 0.5 + rng.uniform(0, 1)
        matrix[party] = row
    return matrix


def random_incomplete_profile(
    k: int,
    acceptance: float = 0.5,
    rng_or_seed: random.Random | int | None = None,
):
    """A random incomplete-lists instance: each candidate kept w.p. ``acceptance``.

    Every party draws a uniform ranking of the opposite side and then
    keeps each candidate independently with probability ``acceptance``
    (order preserved) — the standard ensemble for studying how the
    matched set shrinks as acceptability thins out [13].
    """
    from repro.matching.incomplete import IncompleteProfile

    if not 0.0 <= acceptance <= 1.0:
        raise PreferenceError(f"acceptance must lie in [0, 1], got {acceptance}")
    rng = resolve_rng(rng_or_seed)
    lists: dict[PartyId, tuple[PartyId, ...]] = {}
    for party in all_parties(k):
        candidates = list(default_list(party, k))
        rng.shuffle(candidates)
        lists[party] = tuple(c for c in candidates if rng.random() < acceptance)
    return IncompleteProfile(k=k, lists=lists)


def random_roommates_preferences(
    agents: Sequence[str],
    rng_or_seed: random.Random | int | None = None,
) -> dict[str, tuple[str, ...]]:
    """Uniformly random complete single-set rankings for stable roommates."""
    rng = resolve_rng(rng_or_seed)
    preferences: dict[str, tuple[str, ...]] = {}
    for agent in agents:
        others = [a for a in agents if a != agent]
        rng.shuffle(others)
        preferences[agent] = tuple(others)
    return preferences


def _shuffled(items: list, rng: random.Random) -> list:
    copy = list(items)
    rng.shuffle(copy)
    return copy
