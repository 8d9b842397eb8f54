"""Rotation discovery: the extended Gale-Shapley elimination pass.

A *rotation* (Irving; Gusfield & Irving ch. 2-3) is a cyclic sequence
``rho = ((l_0, r_0), ..., (l_{m-1}, r_{m-1}))`` of matched pairs of a
stable matching ``M`` such that ``r_{i+1}`` is ``s_M(l_i)``: the first
party after ``r_i`` on ``l_i``'s list that strictly prefers ``l_i`` to
its own partner in ``M``.  *Eliminating* the rotation re-matches every
``l_i`` with ``r_{i+1}`` and yields another stable matching in which
every ``l_i`` is strictly worse off and every ``r_{i+1}`` strictly
better.

Starting from the L-optimal matching and repeatedly eliminating an
exposed rotation reaches the R-optimal matching, and — the structural
fact everything downstream rests on — *every* rotation of the instance
is eliminated exactly once along the way, in a linear extension of the
rotation poset.  :func:`find_rotations` runs that pass once and records
the full elimination history (who created which pair, when each
``R``-party improved past each rank), which is exactly the bookkeeping
:func:`repro.rotations.poset.build_poset` needs to wire the precedence
digraph without a second pass.

The scan for ``s_M`` uses one monotone pointer per ``L``-party: an
``R``-party that once preferred its partner over ``l`` keeps preferring
it (partners only improve down the lattice), so rejected entries never
need rechecking and the whole discovery pass does ``O(k^2)`` pointer
work plus ``O(k)`` per rotation found.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MatchingError
from repro.ids import LEFT, PartyId, left_side, right_side
from repro.matching.gale_shapley import gale_shapley
from repro.matching.matching import Matching
from repro.matching.preferences import PreferenceProfile

__all__ = ["Rotation", "RotationDiscovery", "find_rotations"]


@dataclass(frozen=True)
class Rotation:
    """One rotation, canonicalized to start at its smallest ``L``-party.

    ``pairs`` are the matched pairs *before* elimination, in cyclic
    order; eliminating the rotation re-matches ``pairs[i][0]`` with
    ``pairs[i+1][1]`` (indices mod the length).  ``index`` is the
    discovery position, which is simultaneously a topological position
    in the rotation poset.
    """

    index: int
    pairs: tuple[tuple[PartyId, PartyId], ...]

    def __post_init__(self) -> None:
        if len(self.pairs) < 2:
            raise MatchingError("a rotation needs at least two pairs")

    def __len__(self) -> int:
        return len(self.pairs)

    def moves(self) -> tuple[tuple[PartyId, PartyId, PartyId], ...]:
        """``(l_i, r_i, r_{i+1})`` triples: who moves from where to where."""
        m = len(self.pairs)
        return tuple(
            (self.pairs[i][0], self.pairs[i][1], self.pairs[(i + 1) % m][1])
            for i in range(m)
        )

    def weight(self, profile: PreferenceProfile) -> int:
        """Signed change in total rank (both sides) when eliminated.

        ``L``-parties slide down their lists (positive contribution),
        the touched ``R``-parties slide up (negative); the sum is the
        exact egalitarian-cost delta of this rotation in *any* context,
        which is what makes the egalitarian optimum a closure problem.
        """
        m = len(self.pairs)
        total = 0
        for i in range(m):
            l, r = self.pairs[i]
            l_next, r_next = self.pairs[(i + 1) % m]
            total += profile.rank(l, r_next) - profile.rank(l, r)
            total += profile.rank(r_next, l) - profile.rank(r_next, l_next)
        return total

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "pairs": [[str(l), str(r)] for l, r in self.pairs],
        }


@dataclass(frozen=True)
class RotationDiscovery:
    """Everything one elimination pass learns about an instance.

    Attributes:
        rotations: all rotations, in elimination (= topological) order.
        l_optimal: the L-optimal stable matching (the starting point).
        r_optimal: the R-optimal stable matching (the end point).
        creators: ``(l, r) -> rotation index`` for every pair some
            rotation *creates* — the rule-1 input of the poset builder.
        lifts: per ``R``-party, the ``(new partner rank, rotation
            index)`` improvement events in elimination order (ranks
            strictly decreasing) — the rule-2 input.
    """

    rotations: tuple[Rotation, ...]
    l_optimal: Matching
    r_optimal: Matching
    creators: dict[tuple[PartyId, PartyId], int]
    lifts: dict[PartyId, tuple[tuple[int, int], ...]]


def find_rotations(profile: PreferenceProfile) -> RotationDiscovery:
    """Discover every rotation of ``profile`` via one elimination pass.

    The pass runs on the profile's rank tables with int party indexes;
    ``PartyId``s are only built for the returned discovery.
    """
    k = profile.k
    tables = profile.tables
    left_pref, left_rank, right_rank = tables.left_pref, tables.left_rank, tables.right_rank
    lefts, rights = left_side(k), right_side(k)
    l_optimal = gale_shapley(profile, LEFT).matching

    # The current matching, both directions, as indexes.
    right_of = [0] * k
    left_of = [0] * k
    for l, party in enumerate(lefts):
        r = l_optimal.partner(party)
        assert r is not None  # complete profiles yield perfect matchings
        right_of[l] = r.index
        left_of[r.index] = l

    # ptr[l]: first list position >= it can still hold s_M(l).  Entries
    # before it were rejected by R-parties whose partners only improve,
    # so they stay rejected forever.
    ptr = [left_rank[l * k + right_of[l]] + 1 for l in range(k)]

    rotations: list[Rotation] = []
    creators: dict[tuple[PartyId, PartyId], int] = {}
    lift_events: list[list[tuple[int, int]]] = [[] for _ in range(k)]

    while True:
        # Successor map: l -> the L-party currently matched to s_M(l),
        # or -1 when l's list holds no such party.
        nxt = [-1] * k
        for l in range(k):
            base = l * k
            i = ptr[l]
            while i < k:
                r = left_pref[base + i]
                r_base = r * k
                if right_rank[r_base + l] < right_rank[r_base + left_of[r]]:
                    nxt[l] = left_of[r]
                    break
                i += 1
            ptr[l] = i

        # One exposed rotation = one cycle of the (partial) successor map.
        cycle: list[int] | None = None
        dead = bytearray(k)
        for start in range(k):
            if dead[start] or nxt[start] < 0:
                continue
            path: list[int] = []
            at: dict[int, int] = {}
            node = start
            while node >= 0 and not dead[node] and node not in at:
                at[node] = len(path)
                path.append(node)
                node = nxt[node]
            if node in at:
                cycle = path[at[node] :]
                break
            for visited in path:
                dead[visited] = 1
        if cycle is None:
            break  # no exposed rotation: we are at the R-optimal matching

        # Canonical form: the smallest L-party leads.
        lead = cycle.index(min(cycle))
        cycle = cycle[lead:] + cycle[:lead]
        index = len(rotations)
        pairs = tuple((lefts[l], rights[right_of[l]]) for l in cycle)
        rotations.append(Rotation(index=index, pairs=pairs))

        # Eliminate: l_i moves to the old partner of l_{i+1}.
        m = len(cycle)
        old = [right_of[l] for l in cycle]
        for i, l in enumerate(cycle):
            r_new = old[(i + 1) % m]
            right_of[l] = r_new
            left_of[r_new] = l
            ptr[l] = left_rank[l * k + r_new] + 1
            creators[(lefts[l], rights[r_new])] = index
            lift_events[r_new].append((right_rank[r_new * k + l], index))

    r_optimal = Matching.from_pairs((lefts[l], rights[right_of[l]]) for l in range(k))
    return RotationDiscovery(
        rotations=tuple(rotations),
        l_optimal=l_optimal,
        r_optimal=r_optimal,
        creators=creators,
        lifts={rights[r]: tuple(events) for r, events in enumerate(lift_events)},
    )
