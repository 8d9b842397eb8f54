"""Differential tests: the rank-matrix kernel vs the legacy loops.

The kernel (``repro.matching.kernel``) replaced the ``PartyId``-keyed
dict/heap implementations behind ``gale_shapley``,
``gale_shapley_incomplete``, ``stable_roommates``, ``Sweep.grid``, and
the engine's offline record path.  These tests keep verbatim copies of
the *legacy* implementations and prove byte-identity on randomized and
hypothesis-generated instances: matching, ``proposals``,
``rejections``, both proposer sides, ``rotations_eliminated``, grid
order, and the offline record statistics.
"""

import heapq
import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.problem import Setting
from repro.core.solvability import cached_is_solvable
from repro.crypto.encoding import pack_profile, pack_ranking, unpack_ranking
from repro.errors import MatchingError, ProtocolError
from repro.ids import LEFT, RIGHT, left_side, right_side
from repro.matching.gale_shapley import gale_shapley
from repro.matching.generators import (
    random_incomplete_profile,
    random_profile,
    random_roommates_preferences,
)
from repro.matching.incomplete import gale_shapley_incomplete
from repro.matching.kernel import (
    gs_rank_arrays,
    random_instance_stats,
    solvable_pairs,
)
from repro.matching.matching import Matching
from repro.matching.preferences import PreferenceProfile
from repro.matching.roommates import stable_roommates
from repro.net.topology import TOPOLOGY_NAMES

# -- verbatim legacy implementations (pre-kernel) ------------------------------


def legacy_gale_shapley(profile, proposer_side=LEFT):
    """The historical smallest-id-first heap loop, counters included."""
    k = profile.k
    proposers = left_side(k) if proposer_side == LEFT else right_side(k)
    next_choice = {p: 0 for p in proposers}
    engaged_to = {}
    free = list(proposers)
    heapq.heapify(free)
    proposals = 0
    rejections = 0
    while free:
        proposer = heapq.heappop(free)
        candidate = profile.list_of(proposer)[next_choice[proposer]]
        next_choice[proposer] += 1
        proposals += 1
        incumbent = engaged_to.get(candidate)
        if incumbent is None:
            engaged_to[candidate] = proposer
        elif profile.prefers(candidate, proposer, incumbent):
            engaged_to[candidate] = proposer
            rejections += 1
            heapq.heappush(free, incumbent)
        else:
            rejections += 1
            heapq.heappush(free, proposer)
    matching = Matching.from_pairs(
        (proposer, responder) if proposer.is_left() else (responder, proposer)
        for responder, proposer in engaged_to.items()
    )
    return matching, proposals, rejections


def legacy_gale_shapley_incomplete(profile, proposer_side=LEFT):
    """The historical incomplete-lists heap loop."""
    k = profile.k
    proposers = left_side(k) if proposer_side == LEFT else right_side(k)
    next_choice = {p: 0 for p in proposers}
    engaged_to = {}
    free = list(proposers)
    heapq.heapify(free)
    while free:
        proposer = heapq.heappop(free)
        ranking = profile.lists[proposer]
        while next_choice[proposer] < len(ranking):
            candidate = ranking[next_choice[proposer]]
            next_choice[proposer] += 1
            if not profile.accepts(candidate, proposer):
                continue
            incumbent = engaged_to.get(candidate)
            if incumbent is None:
                engaged_to[candidate] = proposer
                break
            if profile.prefers(candidate, proposer, incumbent):
                engaged_to[candidate] = proposer
                heapq.heappush(free, incumbent)
                break
    return Matching.from_pairs(
        (proposer, responder) if proposer.is_left() else (responder, proposer)
        for responder, proposer in engaged_to.items()
    )


class _LegacyTable:
    """Verbatim copy of the pre-kernel roommates reduction table."""

    def __init__(self, preferences):
        self.active = {agent: list(r) for agent, r in preferences.items()}
        self.rank = {
            agent: {other: pos for pos, other in enumerate(r)}
            for agent, r in preferences.items()
        }

    def remove_pair(self, a, b):
        if b in self.rank[a] and b in self.active[a]:
            self.active[a].remove(b)
        if a in self.rank[b] and a in self.active[b]:
            self.active[b].remove(a)

    def prefers(self, judge, a, b):
        return self.rank[judge][a] < self.rank[judge][b]

    def truncate_after(self, agent, keep):
        lst = self.active[agent]
        position = lst.index(keep)
        for worse in list(lst[position + 1 :]):
            self.remove_pair(agent, worse)


def legacy_stable_roommates(preferences):
    """The historical agent-keyed Irving implementation."""
    table = _LegacyTable(preferences)
    holds = {}
    free = sorted(table.active, reverse=True)
    while free:
        proposer = free.pop()
        while True:
            if not table.active[proposer]:
                return None, 0
            target = table.active[proposer][0]
            incumbent = holds.get(target)
            if incumbent is None:
                holds[target] = proposer
                break
            if table.prefers(target, proposer, incumbent):
                holds[target] = proposer
                table.remove_pair(target, incumbent)
                free.append(incumbent)
                break
            table.remove_pair(target, proposer)
    for recipient, proposer in sorted(holds.items()):
        table.truncate_after(recipient, proposer)

    eliminated = 0
    while True:
        lengths = {agent: len(lst) for agent, lst in table.active.items()}
        if any(length == 0 for length in lengths.values()):
            return None, 0
        oversized = sorted(a for a, length in lengths.items() if length > 1)
        if not oversized:
            break
        seq_a, seq_b, first_seen = [oversized[0]], [], {oversized[0]: 0}
        while True:
            second = table.active[seq_a[-1]][1]
            seq_b.append(second)
            successor = table.active[second][-1]
            if successor in first_seen:
                cycle_a = seq_a[first_seen[successor] :]
                cycle_b = seq_b[first_seen[successor] :]
                break
            first_seen[successor] = len(seq_a)
            seq_a.append(successor)
        for a, b in zip(cycle_a, cycle_b):
            if b not in table.active[a]:
                return None, 0
            table.truncate_after(b, a)
        eliminated += 1

    matching = {agent: lst[0] for agent, lst in table.active.items()}
    for agent, partner in matching.items():
        if matching.get(partner) != agent:
            return None, eliminated
    return matching, eliminated


# -- Gale-Shapley byte-identity ------------------------------------------------


class TestKernelGaleShapleyIdentity:
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from([LEFT, RIGHT]),
    )
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_complete_profiles(self, k, seed, side):
        profile = random_profile(k, seed)
        result = gale_shapley(profile, side)
        matching, proposals, rejections = legacy_gale_shapley(profile, side)
        assert result.matching == matching
        assert result.proposals == proposals
        assert result.rejections == rejections
        assert result.proposer_side == side

    @given(
        st.integers(min_value=1, max_value=24),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([LEFT, RIGHT]),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_incomplete_profiles(self, k, acceptance, seed, side):
        profile = random_incomplete_profile(k, acceptance, seed)
        assert gale_shapley_incomplete(profile, side) == legacy_gale_shapley_incomplete(
            profile, side
        )

    def test_adversarial_handcrafted_profile(self):
        # Master-list contention: everyone fights over the same order.
        lists = {}
        k = 5
        for i in range(k):
            lists[left_side(k)[i]] = tuple(right_side(k))
            lists[right_side(k)[i]] = tuple(left_side(k))
        profile = PreferenceProfile(k=k, lists=lists)
        for side in (LEFT, RIGHT):
            result = gale_shapley(profile, side)
            matching, proposals, rejections = legacy_gale_shapley(profile, side)
            assert result.matching == matching
            assert (result.proposals, result.rejections) == (proposals, rejections)

    def test_exhaustion_raises(self):
        # A hand-built ragged pref row must fail loudly, like the legacy loop.
        pref = array("i", [0, 0, 0, 0])  # both proposers only ever propose to 0
        rank = array("i", [0, 1, 0, 1])
        with pytest.raises(MatchingError, match="exhausted"):
            gs_rank_arrays(2, pref, rank)


# -- roommates byte-identity ---------------------------------------------------


class TestKernelRoommatesIdentity:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_random_instances(self, half, seed):
        agents = [f"a{i:02d}" for i in range(2 * half)]
        preferences = random_roommates_preferences(agents, seed)
        result = stable_roommates(preferences)
        matching, eliminated = legacy_stable_roommates(preferences)
        assert result.matching == matching
        if matching is not None:
            assert result.rotations_eliminated == eliminated

    def test_unsolvable_instance(self):
        # Classic 4-agent no-solution instance.
        preferences = {
            "a": ("b", "c", "d"),
            "b": ("c", "a", "d"),
            "c": ("a", "b", "d"),
            "d": ("a", "b", "c"),
        }
        result = stable_roommates(preferences)
        matching, _ = legacy_stable_roommates(preferences)
        assert result.matching is None and matching is None


# -- batched solvability -------------------------------------------------------


class TestSolvablePairs:
    @pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("authenticated", [False, True])
    def test_matches_oracle_on_both_paths(self, topology, authenticated):
        # k < 8 exercises the pure loop, k >= 8 the numpy mask (when
        # numpy is present); both must agree with the verdict oracle in
        # value AND order (lexicographic, as Sweep.grid's loops were).
        for k in (1, 2, 3, 5, 8, 13, 21):
            expected = tuple(
                (tL, tR)
                for tL in range(k + 1)
                for tR in range(k + 1)
                if cached_is_solvable(Setting(topology, authenticated, k, tL, tR)).solvable
            )
            assert solvable_pairs(topology, authenticated, k) == expected


# -- the offline record fast path ----------------------------------------------


class TestRandomInstanceStats:
    @given(
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_matches_full_record_path(self, k, seed):
        proposals, receiver_rank = random_instance_stats(k, seed)
        profile = random_profile(k, seed)
        result = gale_shapley(profile)
        expected_rank = sum(
            profile.rank(party, result.matching.partner(party)) + 1
            for party in right_side(k)
        )
        assert proposals == result.proposals
        assert receiver_rank == expected_rank

    def test_offline_engine_records_unchanged(self):
        # End to end: the engine's kernel fast path vs forcing the
        # profile-building path through an explicit profile spec.
        from repro.experiment.engine import execute_spec
        from repro.experiment.spec import ProfileSpec, ScenarioSpec

        k, seed = 6, 123
        fast = ScenarioSpec(
            family="offline", algorithm="gale_shapley", k=k,
            profile=ProfileSpec(kind="random", seed=seed),
        )
        explicit = ScenarioSpec(
            family="offline", algorithm="gale_shapley", k=k,
            profile=ProfileSpec.explicit(random_profile(k, seed)),
        )
        (fast_record,) = execute_spec(fast)
        (slow_record,) = execute_spec(explicit)
        for field in ("matched", "proposals", "receiver_rank", "ok"):
            assert getattr(fast_record, field) == getattr(slow_record, field)


# -- lowering and the trusted constructor --------------------------------------


class TestRankTables:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_agree_with_lists(self, k, seed):
        profile = random_profile(k, seed)
        tables = profile.tables
        for i, party in enumerate(left_side(k)):
            row = profile.lists[party]
            assert list(tables.pref_row(LEFT, i)) == [c.index for c in row]
            for position, candidate in enumerate(row):
                assert tables.rank_of(LEFT, i, candidate.index) == position
                assert profile.rank(party, candidate) == position
        for i, party in enumerate(right_side(k)):
            row = profile.lists[party]
            assert list(tables.pref_row(RIGHT, i)) == [c.index for c in row]

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_trusted_constructor_equals_validating(self, k, seed):
        rng = random.Random(seed)
        left_rows = [rng.sample(range(k), k) for _ in range(k)]
        right_rows = [rng.sample(range(k), k) for _ in range(k)]
        trusted = PreferenceProfile.from_trusted_index_rows(k, left_rows, right_rows)
        validated = PreferenceProfile.from_index_lists(left_rows, right_rows)
        assert trusted == validated
        assert bytes(trusted.tables.left_rank) == bytes(validated.tables.left_rank)
        assert bytes(trusted.tables.right_rank) == bytes(validated.tables.right_rank)


# -- compact fixed-width ranking codec -----------------------------------------


class TestPackedRankings:
    @given(
        st.sampled_from(["L", "R"]),
        st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=80),
    )
    @settings(max_examples=120)
    def test_round_trip(self, side, indexes):
        packed = pack_ranking(side, indexes)
        got_side, got_indexes = unpack_ranking(packed)
        assert got_side == side
        assert list(got_indexes) == indexes

    def test_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            pack_ranking("X", [0, 1])
        with pytest.raises(ProtocolError):
            unpack_ranking(b"nonsense")
        with pytest.raises(ProtocolError):
            unpack_ranking(pack_ranking("L", [1, 2, 3])[:-1])

    def test_pack_profile_injective_on_samples(self):
        blobs = {pack_profile(random_profile(4, seed).tables) for seed in range(40)}
        assert len(blobs) == 40
        # Distinct k never collides either (length-prefixed by k).
        assert pack_profile(random_profile(2, 0).tables) != pack_profile(
            random_profile(3, 0).tables
        )


# -- the solvability memo counters (satellite: unbounded + surfaced) -----------


class TestSolvabilityCacheStats:
    def test_unbounded_and_surfaced_through_cache_stats(self):
        from repro.core.solvability import solvability_cache_stats
        from repro.runtime.cache import ExecutionCache, merge_cache_stats

        assert cached_is_solvable.cache_info().maxsize is None
        before = solvability_cache_stats()
        cached_is_solvable(Setting("fully_connected", True, 3, 1, 1))
        after = solvability_cache_stats()
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]
        assert set(after) == {"entries", "hits", "misses"}

        stats = ExecutionCache().stats()
        assert stats["solvability"]["entries"] == after["entries"]
        merged = merge_cache_stats([stats, stats])
        assert merged["solvability"]["entries"] == 2 * after["entries"]


# -- the optional C fast lane --------------------------------------------------


def _native_or_skip():
    from repro.matching import _native

    native = _native.load()
    if native is None:
        pytest.skip("no C compiler in this environment")
    return native


def _python_rows(rng, k, count):
    """``count`` rows from CPython's own ``Random.shuffle``, flattened."""
    rows = []
    for _ in range(count):
        row = list(range(k))
        rng.shuffle(row)
        rows.extend(row)
    return rows


class TestNativeLane:
    """The compiled MT19937 + Fisher-Yates lane is bit-identical to the
    python loop: same rows, and the shared generator lands on the same
    stream position."""

    @pytest.mark.parametrize("k", (64, 65, 257, 1000))
    def test_rows_and_rng_state_match_pure_python(self, k):
        native = _native_or_skip()
        fast, slow = random.Random(11), random.Random(11)
        matrix = native.fy_fill(fast, k, 2 * k)
        assert matrix.tolist() == _python_rows(slow, k, 2 * k)
        # A caller's next draw is unaffected by which lane ran.
        assert fast.getstate() == slow.getstate()
        assert fast.random() == slow.random()

    @pytest.mark.parametrize("k,count", ((64, 200), (257, 40)))
    def test_row_counts_match_pure_python(self, k, count):
        native = _native_or_skip()
        fast, slow = random.Random(23), random.Random(23)
        assert native.fy_fill(fast, k, count).tolist() == _python_rows(slow, k, count)
        assert fast.getstate() == slow.getstate()
        assert fast.random() == slow.random()

    def test_split_calls_match_one_call(self):
        # The state hand-off through getstate/setstate is invisible:
        # rows drawn over several calls equal rows drawn in one.
        native = _native_or_skip()
        k, count = 97, 64
        whole = native.fy_fill(random.Random(3), k, count)
        rng = random.Random(3)
        split = array("i")
        for rows in (1, 7, 24, 32):
            split.extend(native.fy_fill(rng, k, rows))
        assert split == whole

    def test_k8192_matches_python(self):
        native = _native_or_skip()
        k, count = 8192, 8
        fast, slow = random.Random(8192), random.Random(8192)
        assert native.fy_fill(fast, k, count).tolist() == _python_rows(slow, k, count)
        assert fast.getstate() == slow.getstate()
        assert fast.random() == slow.random()

    def test_gauss_slot_and_stream_position_carry_over(self):
        # Mid-stream state (a pending gauss value, a partly used word
        # block) goes in and comes back out exactly.
        native = _native_or_skip()
        fast, slow = random.Random(5), random.Random(5)
        for rng in (fast, slow):
            rng.gauss(0.0, 1.0)
            rng.getrandbits(32 * 300)
        assert native.fy_fill(fast, 64, 3).tolist() == _python_rows(slow, 64, 3)
        assert fast.getstate() == slow.getstate()
        assert fast.gauss(0.0, 1.0) == slow.gauss(0.0, 1.0)

    def test_refuses_generators_it_cannot_reproduce(self):
        native = _native_or_skip()

        class Custom(random.Random):
            pass

        with pytest.raises(TypeError):
            native.fy_fill(Custom(1), 64, 1)

    def test_small_instances_stay_on_the_python_path(self):
        from repro.matching.kernel import _NATIVE_MIN_CELLS, _native_for

        k = 8
        assert 2 * k * k < _NATIVE_MIN_CELLS
        assert _native_for(2 * k * k) is None
        assert _native_for(k * k) is None

    def test_native_invert_matches_python(self):
        native = _native_or_skip()
        rows = array("i", [2, 0, 1, 3, 3, 2, 1, 0])
        assert native.invert_rows(rows, 4).tolist() == [1, 2, 0, 3, 3, 2, 1, 0]
        # An out-of-range entry is refused, never written through.
        assert native.invert_rows(array("i", [0, 2]), 2) is None

    @pytest.mark.parametrize("k", (64, 300))
    def test_tables_match_the_validating_constructor(self, k):
        # The lane's matrices feed RankTables directly; the result must
        # equal the validating constructor's tables byte for byte.
        profile = random_profile(k, k)
        lists = profile.lists
        validated = PreferenceProfile(k=k, lists=dict(lists))
        for name in ("left_pref", "right_pref", "left_rank", "right_rank"):
            got = getattr(profile.tables, name)
            assert got.tobytes() == getattr(validated.tables, name).tobytes()


def _outcome(run):
    try:
        return ("ok", run())
    except MatchingError as exc:
        return ("raised", str(exc))


@st.composite
def _rank_instances(draw):
    """Pref/rank matrices across the native cutoff, half of them
    malformed: rows naming only the first ``k // 2`` responders leave
    more proposers than reachable responders, so someone runs off its
    list."""
    k = draw(st.sampled_from([2, 5, 17, 63, 64, 65, 90]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    broken = draw(st.booleans())
    pref = array("i")
    rank = array("i")
    for _ in range(k):
        if broken:
            pref.extend(rng.randrange(k // 2) for _ in range(k))
        else:
            pref.extend(rng.sample(range(k), k))
        rank.extend(rng.sample(range(k), k))
    return k, pref, rank


class TestNativeGaleShapley:
    """The compiled proposal loop behind ``gs_rank_arrays`` vs the python
    loop: matching, ``proposals``, and the exhaustion error."""

    @given(
        st.sampled_from([2, 7, 40, 63, 64, 65, 100]),
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from([LEFT, RIGHT]),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_matches_python_loop_on_both_sides(self, k, seed, side):
        from repro.matching.kernel import _gs_python

        native = _native_or_skip()
        tables = random_profile(k, seed).tables
        if side == LEFT:
            pref, rank = tables.left_pref, tables.right_rank
        else:
            pref, rank = tables.right_pref, tables.left_rank
        expected = _gs_python(k, pref, rank)
        assert native.gs(k, pref, rank) == expected
        assert gs_rank_arrays(k, pref, rank) == expected
        result = gale_shapley(random_profile(k, seed), side)
        assert result.proposals == expected[1]

    @given(_rank_instances())
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_malformed_input_fails_like_python(self, instance):
        from repro.matching.kernel import _gs_python

        native = _native_or_skip()
        k, pref, rank = instance
        expected = _outcome(lambda: _gs_python(k, pref, rank))
        assert _outcome(lambda: gs_rank_arrays(k, pref, rank)) == expected
        # The C loop itself bails out exactly when the python loop raises.
        assert (native.gs(k, pref, rank) is None) == (expected[0] == "raised")

    @pytest.mark.parametrize("k", (2, 64))
    def test_exhaustion_raises_on_both_sides_of_the_cutoff(self, k):
        pref = array("i", [0]) * (k * k)  # everyone only ever proposes to 0
        rank = array("i", list(range(k))) * k
        with pytest.raises(MatchingError, match="proposer 1 exhausted"):
            gs_rank_arrays(k, pref, rank)

    def test_refuses_buffers_it_cannot_read(self):
        from repro.matching.kernel import _gs_python

        native = _native_or_skip()
        k = 64
        tables = random_profile(k, 1).tables
        pref, rank = tables.left_pref, tables.right_rank
        assert native.gs(k, list(pref), rank) is None
        assert native.gs(k, pref, rank[:-1]) is None
        assert native.gs(k, array("l", pref), rank) is None
        # gs_rank_arrays then runs the python loop on what it was given.
        assert gs_rank_arrays(k, list(pref), list(rank)) == _gs_python(k, pref, rank)
