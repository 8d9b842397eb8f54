"""Preference lists and profiles.

In the paper every party ``u`` on side ``L`` (resp. ``R``) holds as
input a *preference list*: a permutation ``pi_u`` of the opposite side.
``u`` prefers ``v`` over ``w`` when ``v`` appears before ``w`` in
``pi_u``, and prefers any listed party over being alone.

:class:`PreferenceProfile` stores one list per party for a complete
two-sided instance of size ``k``, validates permutations, and exposes
the rank/comparison queries that both the offline algorithms and the
distributed protocols need.  Validation and lowering happen in one
pass: the same loop that checks each list is a permutation also fills
the profile's :class:`~repro.matching.kernel.RankTables` — flat int
matrices the matching kernel (and every ``rank`` query) reads directly,
replacing the per-party dict-of-dicts rank tables.

The *default list* (``default_list``) is the canonical opposite-side
order ``X0 < X1 < ...``.  The paper's protocols substitute it whenever a
(necessarily byzantine) party fails to distribute a valid list — see
Lemma 1 and step 4 of ``PiBSM``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import PreferenceError
from repro.ids import LEFT, RIGHT, PartyId, all_parties, left_side, right_side
from repro.matching.kernel import RankTables, lower_pref_matrices

__all__ = [
    "PreferenceList",
    "default_list",
    "is_valid_list",
    "PreferenceProfile",
]

#: A preference list is an ordered tuple of opposite-side parties,
#: most-preferred first.
PreferenceList = tuple[PartyId, ...]


def default_list(party: PartyId, k: int) -> PreferenceList:
    """The canonical default list for ``party``: the opposite side in index order.

    Used for byzantine parties that do not distribute a valid list
    (Lemma 1, ``PiBSM`` step 4, ``PiBB`` default value).
    """
    return right_side(k) if party.side == LEFT else left_side(k)


def is_valid_list(party: PartyId, candidates: object, k: int) -> bool:
    """True when ``candidates`` is a complete permutation of ``party``'s opposite side."""
    if not isinstance(candidates, (tuple, list)) or len(candidates) != k:
        return False
    opposite = RIGHT if party.side == LEFT else LEFT
    seen = bytearray(k)
    for entry in candidates:
        if not isinstance(entry, PartyId) or entry.side != opposite:
            return False
        index = entry.index
        if index >= k or seen[index]:
            return False
        seen[index] = 1
    return True


@dataclass(frozen=True)
class PreferenceProfile:
    """A complete preference profile for a two-sided instance of size ``k``.

    Immutable.  ``lists`` maps every one of the ``2k`` parties to a full
    permutation of the opposite side; ``tables`` is the same profile
    lowered to flat rank matrices (built eagerly, inside validation —
    the kernel's input and the backing store of every :meth:`rank`
    query).
    """

    k: int
    lists: Mapping[PartyId, PreferenceList]
    tables: RankTables = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.k
        if k <= 0:
            raise PreferenceError(f"k must be positive, got {k}")
        expected = set(all_parties(k))
        got = set(self.lists)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise PreferenceError(
                f"profile must cover exactly the 2k parties; "
                f"missing={[str(p) for p in missing]} extra={[str(p) for p in extra]}"
            )
        # One pass per party: permutation check + rank-matrix lowering.
        # ``rank`` rows start at -1, which doubles as the duplicate
        # detector; ``pref`` rows are only read when validation passed.
        left_pref = array("i", bytes(4 * k * k))
        right_pref = array("i", bytes(4 * k * k))
        left_rank = array("i", [-1]) * (k * k)
        right_rank = array("i", [-1]) * (k * k)
        frozen: dict[PartyId, PreferenceList] = {}
        for party, candidates in self.lists.items():
            entries = tuple(candidates)
            on_left = party.side == LEFT
            pref = left_pref if on_left else right_pref
            rank = left_rank if on_left else right_rank
            base = party.index * k
            valid = len(entries) == k
            if valid:
                for position, candidate in enumerate(entries):
                    if (
                        not isinstance(candidate, PartyId)
                        or candidate.side == party.side
                        or candidate.index >= k
                        or rank[base + candidate.index] != -1
                    ):
                        valid = False
                        break
                    pref[base + position] = candidate.index
                    rank[base + candidate.index] = position
            if not valid:
                raise PreferenceError(
                    f"{party}: preference list must be a permutation of the opposite side "
                    f"(k={k}), got {[str(c) for c in candidates]}"
                )
            frozen[party] = entries
        object.__setattr__(self, "lists", frozen)
        object.__setattr__(
            self, "tables", RankTables(k, left_pref, right_pref, left_rank, right_rank)
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dict(cls, lists: Mapping[PartyId, Sequence[PartyId]]) -> "PreferenceProfile":
        """Build a profile from any mapping; ``k`` is inferred from the mapping size."""
        if not lists or len(lists) % 2 != 0:
            raise PreferenceError(f"profile needs 2k parties, got {len(lists)}")
        k = len(lists) // 2
        return cls(k=k, lists={party: tuple(candidates) for party, candidates in lists.items()})

    @classmethod
    def from_index_lists(
        cls,
        left_lists: Sequence[Sequence[int]],
        right_lists: Sequence[Sequence[int]],
    ) -> "PreferenceProfile":
        """Build a profile from index-based lists.

        ``left_lists[i]`` are the indices (into ``R``) preferred by ``Li``,
        most-preferred first; symmetrically for ``right_lists``.
        """
        if len(left_lists) != len(right_lists):
            raise PreferenceError(
                f"sides must have equal size, got {len(left_lists)} and {len(right_lists)}"
            )
        k = len(left_lists)
        lists: dict[PartyId, PreferenceList] = {}
        for i, indices in enumerate(left_lists):
            lists[PartyId("L", i)] = tuple(PartyId("R", j) for j in indices)
        for i, indices in enumerate(right_lists):
            lists[PartyId("R", i)] = tuple(PartyId("L", j) for j in indices)
        return cls(k=k, lists=lists)

    @classmethod
    def from_trusted_index_rows(
        cls,
        k: int,
        left_rows: Sequence[Sequence[int]],
        right_rows: Sequence[Sequence[int]],
    ) -> "PreferenceProfile":
        """Build from generator-produced permutation rows, skipping validation.

        The fast constructor behind the profile generators: ``left_rows[i]``
        is ``Li``'s preference row as opposite-side *indices* and is trusted
        to be a permutation of ``range(k)`` (generators produce rows by
        shuffling one).  Lists and tables come out exactly as the validating
        constructor would build them — only the permutation re-check is
        skipped.
        """
        return cls.from_trusted_pref_matrices(
            k,
            array("i", [entry for row in left_rows for entry in row]),
            array("i", [entry for row in right_rows for entry in row]),
        )

    @classmethod
    def from_trusted_pref_matrices(
        cls, k: int, left_pref: array, right_pref: array
    ) -> "PreferenceProfile":
        """:meth:`from_trusted_index_rows` over flat row-major ``array('i')``
        preference matrices, which become the profile's tables as they are
        (the generators' output, no re-flattening)."""
        lefts, rights = left_side(k), right_side(k)
        lists: dict[PartyId, PreferenceList] = {}
        for i in range(k):
            lists[lefts[i]] = tuple(map(rights.__getitem__, left_pref[i * k : i * k + k]))
        for i in range(k):
            lists[rights[i]] = tuple(map(lefts.__getitem__, right_pref[i * k : i * k + k]))
        profile = object.__new__(cls)
        object.__setattr__(profile, "k", k)
        object.__setattr__(profile, "lists", lists)
        object.__setattr__(profile, "tables", lower_pref_matrices(k, left_pref, right_pref))
        return profile

    @classmethod
    def uniform(cls, k: int) -> "PreferenceProfile":
        """The all-default profile: every party holds the canonical default list."""
        return cls(k=k, lists={party: default_list(party, k) for party in all_parties(k)})

    def with_list(self, party: PartyId, candidates: Sequence[PartyId]) -> "PreferenceProfile":
        """A copy of this profile with ``party``'s list replaced."""
        updated = dict(self.lists)
        if party not in updated:
            raise PreferenceError(f"{party} is not a party of this k={self.k} profile")
        updated[party] = tuple(candidates)
        return PreferenceProfile(k=self.k, lists=updated)

    def with_favorite_first(self, party: PartyId, favorite: PartyId) -> "PreferenceProfile":
        """A copy where ``party``'s list is rotated so ``favorite`` is ranked first.

        This is the list construction in the sSM -> bSM reduction
        (Lemma 2): an arbitrary complete list with the favorite on top.
        """
        current = self.lists[party]
        if favorite not in current:
            raise PreferenceError(f"{favorite} is not on {party}'s side-opposite list")
        reordered = (favorite,) + tuple(c for c in current if c != favorite)
        return self.with_list(party, reordered)

    # -- queries ---------------------------------------------------------------

    @property
    def parties(self) -> tuple[PartyId, ...]:
        """All ``2k`` parties in canonical order."""
        return all_parties(self.k)

    def list_of(self, party: PartyId) -> PreferenceList:
        """``party``'s full preference list, most-preferred first."""
        try:
            return self.lists[party]
        except KeyError as exc:
            raise PreferenceError(f"{party} is not a party of this k={self.k} profile") from exc

    def favorite(self, party: PartyId) -> PartyId:
        """``party``'s top choice (the sSM input derived from this profile)."""
        return self.list_of(party)[0]

    def rank(self, party: PartyId, candidate: PartyId) -> int:
        """Position of ``candidate`` in ``party``'s list (0 = most preferred)."""
        k = self.k
        if party.index >= k:
            raise KeyError(party)
        if candidate.side == party.side or candidate.index >= k:
            raise PreferenceError(f"{candidate} does not appear in {party}'s list")
        tables = self.tables
        matrix = tables.left_rank if party.side == LEFT else tables.right_rank
        return matrix[party.index * k + candidate.index]

    def prefers(self, party: PartyId, a: PartyId | None, b: PartyId | None) -> bool:
        """True when ``party`` strictly prefers ``a`` over ``b``.

        ``None`` stands for being alone; every listed party beats it and
        it never beats anything (parties always prefer being matched).
        """
        if a is None:
            return False
        if b is None:
            return True
        return self.rank(party, a) < self.rank(party, b)

    def restricted_to_parties(self, parties: Iterable[PartyId]) -> dict[PartyId, PreferenceList]:
        """The sub-mapping of lists for ``parties`` (helper for verdicts/attacks)."""
        return {party: self.list_of(party) for party in parties}

    def __iter__(self) -> Iterator[PartyId]:
        return iter(self.parties)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceProfile):
            return NotImplemented
        return self.k == other.k and dict(self.lists) == dict(other.lists)

    def __hash__(self) -> int:
        return hash((self.k, tuple(sorted((p, self.lists[p]) for p in self.lists))))

    def __repr__(self) -> str:
        rows = ", ".join(
            f"{party}:[{' '.join(str(c) for c in self.lists[party])}]" for party in self.parties
        )
        return f"PreferenceProfile(k={self.k}, {rows})"
