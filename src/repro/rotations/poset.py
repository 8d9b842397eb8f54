"""The rotation poset and the lattice of stable matchings it generates.

Gusfield & Irving's central theorem: the stable matchings of an
instance are in bijection with the *closed subsets* of its rotation
poset (a set is closed when it contains every predecessor of each of
its members), and under that bijection the L-join is set intersection,
the L-meet is set union, and the L-optimal/R-optimal matchings are the
empty and full sets.  :class:`RotationPoset` materializes the poset
once (predecessor digraph over the discovery order, which is already a
linear extension) and then answers everything else combinatorially:
enumeration is polynomial *per matching* — it never touches the ``k!``
permutation space — so lattices of ``k = 64`` instances are as easy as
``k = 4`` ones.

The predecessor digraph follows the book's two-rule construction:

* rule 1 — a rotation moving ``l`` away from ``r`` is preceded by the
  rotation that moved ``l`` *to* ``r`` (if any);
* rule 2 — a rotation whose ``s_M`` scan for ``l`` skips over ``r''``
  is preceded by the rotation that lifted ``r''`` above ``l`` (if the
  L-optimal matching had not already done so).

The transitive closure of these edges is exactly the poset order, and
every edge points from a smaller to a larger discovery index, so the
discovery order doubles as the topological order used everywhere below.
Rotation sets are stored as int bitmasks internally (`frozenset` at the
public surface): closure checks are single AND operations and lattice
distance is one XOR + popcount.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from repro.errors import MatchingError
from repro.ids import left_side, right_side
from repro.matching.matching import Matching
from repro.matching.preferences import PreferenceProfile
from repro.rotations.rotations import Rotation, RotationDiscovery, find_rotations

__all__ = ["RotationPoset", "build_poset", "cached_poset"]


class RotationPoset:
    """The rotation poset of one instance, with lattice operations.

    Construct via :func:`build_poset`.  Instances are immutable in
    practice (nothing mutates after construction) and safe to share —
    :func:`cached_poset` memoizes them per profile.
    """

    def __init__(
        self,
        profile: PreferenceProfile,
        discovery: RotationDiscovery,
        preds: tuple[tuple[int, ...], ...],
    ) -> None:
        self.profile = profile
        self.rotations: tuple[Rotation, ...] = discovery.rotations
        self.l_optimal: Matching = discovery.l_optimal
        self.r_optimal: Matching = discovery.r_optimal
        #: Direct predecessor edges per rotation (sorted indices).
        self.preds = preds
        self._pred_masks = tuple(
            sum(1 << p for p in pred_list) for pred_list in preds
        )
        self._full_mask = (1 << len(self.rotations)) - 1
        self._lifts = discovery.lifts

    # -- basic shape ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rotations)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All ``(predecessor, successor)`` edges, lexicographically."""
        return tuple(
            sorted((p, t) for t, preds in enumerate(self.preds) for p in preds)
        )

    def minimal_rotations(self, done: frozenset[int] = frozenset()) -> tuple[int, ...]:
        """Rotations exposed after eliminating ``done`` (minimal in the rest)."""
        mask = self._mask(done)
        return tuple(
            t
            for t in range(len(self.rotations))
            if not mask >> t & 1 and self._pred_masks[t] & mask == self._pred_masks[t]
        )

    # -- closed-set machinery -------------------------------------------------

    def _mask(self, rotation_set: Iterable[int]) -> int:
        mask = 0
        for t in rotation_set:
            if not 0 <= t < len(self.rotations):
                raise MatchingError(
                    f"rotation index {t} out of range for a {len(self.rotations)}-rotation poset"
                )
            mask |= 1 << t
        return mask

    def _is_closed(self, mask: int) -> bool:
        remaining = mask
        while remaining:
            t = (remaining & -remaining).bit_length() - 1
            if self._pred_masks[t] & mask != self._pred_masks[t]:
                return False
            remaining &= remaining - 1
        return True

    def down_closure(self, rotation_set: Iterable[int]) -> frozenset[int]:
        """The smallest closed set containing ``rotation_set``."""
        mask = self._mask(rotation_set)
        while True:
            grown = mask
            remaining = mask
            while remaining:
                t = (remaining & -remaining).bit_length() - 1
                grown |= self._pred_masks[t]
                remaining &= remaining - 1
            if grown == mask:
                return self._unmask(mask)
            mask = grown

    def _unmask(self, mask: int) -> frozenset[int]:
        out = []
        while mask:
            out.append((mask & -mask).bit_length() - 1)
            mask &= mask - 1
        return frozenset(out)

    def _iter_closed_masks(self) -> Iterator[int]:
        """Every closed set, each exactly once (binary DFS in topo order).

        At rotation ``i`` the exclude branch is always legal and the
        include branch only when every predecessor is already in, so
        each leaf is a distinct closed set and the work per matching is
        linear in the number of rotations — polynomial per matching.
        """
        n = len(self.rotations)
        stack: list[tuple[int, int]] = [(0, 0)]
        while stack:
            i, mask = stack.pop()
            while i < n:
                if self._pred_masks[i] & mask == self._pred_masks[i]:
                    stack.append((i + 1, mask | (1 << i)))
                i += 1
            yield mask

    def iter_closed_sets(self) -> Iterator[frozenset[int]]:
        """Every closed subset of the poset (deterministic order)."""
        for mask in self._iter_closed_masks():
            yield self._unmask(mask)

    def count_stable_matchings(self, limit: int | None = None) -> int:
        """Number of stable matchings (= closed sets), optionally capped."""
        count = 0
        for _ in self._iter_closed_masks():
            count += 1
            if limit is not None and count >= limit:
                return count
        return count

    # -- matchings <-> rotation sets ------------------------------------------

    def _matching_for_mask(self, mask: int) -> Matching:
        partner = {l: self.l_optimal.partner(l) for l in left_side(self.profile.k)}
        remaining = mask
        while remaining:
            t = (remaining & -remaining).bit_length() - 1
            for l, _r, r_next in self.rotations[t].moves():
                partner[l] = r_next
            remaining &= remaining - 1
        return Matching.from_pairs(partner.items())

    def matching_for(self, rotation_set: Iterable[int]) -> Matching:
        """The stable matching of a closed rotation set.

        Rotations in a closed set touching one ``L``-party form a
        chain, and the topological (index) order applies them chain by
        chain, so mechanically replaying the moves lands every party on
        the partner the theory assigns.
        """
        mask = self._mask(rotation_set)
        if not self._is_closed(mask):
            raise MatchingError("rotation set is not closed under predecessors")
        return self._matching_for_mask(mask)

    def stable_matchings(self, limit: int | None = None) -> tuple[Matching, ...]:
        """All stable matchings, canonically sorted by their pair lists.

        ``limit`` caps the enumeration (a :class:`MatchingError` is
        raised when the lattice is larger) so callers probing unknown
        instances cannot be surprised by a pathological lattice.
        """
        found: list[Matching] = []
        for mask in self._iter_closed_masks():
            if limit is not None and len(found) >= limit:
                raise MatchingError(
                    f"lattice has more than limit={limit} stable matchings"
                )
            found.append(self._matching_for_mask(mask))
        found.sort(key=lambda m: m.matched_pairs())
        return tuple(found)

    def position_of(self, matching: Matching) -> frozenset[int] | None:
        """The closed rotation set producing ``matching``, or ``None``.

        ``None`` means "not a stable matching of this instance": the
        per-rotation membership probe below is only consistent for true
        lattice elements, so the result is validated by closure and by
        rebuilding the matching before it is believed.
        """
        if not matching.is_perfect(self.profile.k):
            return None
        mask = 0
        for t, rotation in enumerate(self.rotations):
            l, _r = rotation.pairs[0]
            landing = rotation.pairs[1][1]
            partner = matching.partner(l)
            if partner is None:
                return None
            try:
                if self.profile.rank(l, partner) >= self.profile.rank(l, landing):
                    mask |= 1 << t
            except Exception:
                return None
        if not self._is_closed(mask):
            return None
        if self._matching_for_mask(mask) != matching:
            return None
        return self._unmask(mask)

    # -- lattice operations ---------------------------------------------------

    def _position_or_raise(self, matching: Matching) -> int:
        position = self.position_of(matching)
        if position is None:
            raise MatchingError(f"{matching!r} is not a stable matching of this instance")
        return self._mask(position)

    def join(self, a: Matching, b: Matching) -> Matching:
        """L-pointwise best of two lattice elements (= set intersection)."""
        return self._matching_for_mask(
            self._position_or_raise(a) & self._position_or_raise(b)
        )

    def meet(self, a: Matching, b: Matching) -> Matching:
        """L-pointwise worst of two lattice elements (= set union)."""
        return self._matching_for_mask(
            self._position_or_raise(a) | self._position_or_raise(b)
        )

    def distance(self, a: Matching, b: Matching) -> int:
        """Cover-graph distance: the rotation-set symmetric difference."""
        return (self._position_or_raise(a) ^ self._position_or_raise(b)).bit_count()


def _rule2_source(
    lifts: tuple[tuple[int, int], ...], threshold_rank: int
) -> int | None:
    """The rotation that first lifted a party strictly above ``threshold_rank``."""
    for rank, index in lifts:
        if rank < threshold_rank:
            return index
    return None


def build_poset(profile: PreferenceProfile) -> RotationPoset:
    """Discover rotations and wire the precedence digraph for ``profile``."""
    discovery = find_rotations(profile)
    preds: list[set[int]] = [set() for _ in discovery.rotations]
    k = profile.k
    tables = profile.tables
    left_pref, left_rank, right_rank = tables.left_pref, tables.left_rank, tables.right_rank
    rights = right_side(k)
    # Each R-party's rank of its L-optimal partner.
    initial_rank = [0] * k
    for l, r in discovery.l_optimal.matched_pairs():
        initial_rank[r.index] = right_rank[r.index * k + l.index]

    for rotation in discovery.rotations:
        for l, r, r_next in rotation.moves():
            # Rule 1: whoever moved l to r must come first.
            creator = discovery.creators.get((l, r))
            if creator is not None and creator != rotation.index:
                preds[rotation.index].add(creator)
            # Rule 2: every party skipped between r and r_next on l's
            # list must already prefer its partner to l, so the rotation
            # that lifted it above l (if the L-optimal matching didn't
            # start it there) must come first.
            base = l.index * k
            for position in range(left_rank[base + r.index] + 1, left_rank[base + r_next.index]):
                skipped = left_pref[base + position]
                threshold = right_rank[skipped * k + l.index]
                if initial_rank[skipped] < threshold:
                    continue  # already above l in the L-optimal matching
                source = _rule2_source(discovery.lifts[rights[skipped]], threshold)
                if source is not None and source < rotation.index:
                    preds[rotation.index].add(source)

    return RotationPoset(
        profile,
        discovery,
        tuple(tuple(sorted(sources)) for sources in preds),
    )


@lru_cache(maxsize=128)
def cached_poset(profile: PreferenceProfile) -> RotationPoset:
    """Memoized :func:`build_poset` — oracles and the service plane share it."""
    return build_poset(profile)
