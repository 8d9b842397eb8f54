"""The rotation-poset subsystem: discovery, lattice, and its wiring.

Three layers of evidence:

* **Shape units** — hand-built instances whose posets are known exactly
  (a chain, an antichain, and the classic Gusfield & Irving 8x8 worked
  example with its 5-rotation poset and 9-matching lattice).
* **Differentials** — the rotation enumerator must be byte-identical to
  the ``k!`` brute-force oracle on randomized profiles, and the
  distinguished matchings must hit the optima brute force finds.
* **Algebra** — hypothesis drives the lattice laws (closure,
  commutativity, absorption, distributivity) and the rotation-set
  distance identity over random instances.

The integration seams — the conform oracle, record tags, steer
mutators, the ``rotations`` preset, the ``lattice`` CLI, report IO,
and the bench harness — are covered at the bottom.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.mutators import MUTATORS, resolve_mutator
from repro.conform.oracles import ORACLES, OracleContext, default_oracle_names
from repro.errors import MatchingError, ReproError
from repro.experiment import AdversarySpec, ProfileSpec, ScenarioSpec, Session
from repro.experiment.lattice_tags import (
    effective_profile,
    lattice_position_tag,
    stamp_lattice_positions,
)
from repro.experiment.presets import PRESETS, preset_names
from repro.ids import left_party as l, left_side, right_party as r
from repro.io import dump_lattice_report, load_lattice_report
from repro.matching.enumerate_stable import (
    all_stable_matchings,
    brute_force_stable_matchings,
    side_optimal,
)
from repro.matching.gale_shapley import gale_shapley
from repro.matching.generators import random_profile
from repro.matching.preferences import PreferenceProfile
from repro.matching.stability import is_stable
from repro.rotations import (
    LATTICE_TAG_PREFIX,
    build_poset,
    cached_poset,
    consistent_position,
    disjoint_matchings,
    egalitarian,
    egalitarian_cost,
    find_rotations,
    lattice_report,
    minimum_regret,
    outputs_to_partners,
    position_tag,
    regret,
    substituted_profile,
    unscored_tag,
)

# -- fixtures -----------------------------------------------------------------

#: k=3 cyclic instance: the poset is a 2-rotation chain, the lattice a
#: 3-element chain (L-optimal, middle, R-optimal).
CHAIN = PreferenceProfile.from_index_lists(
    [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    [[1, 2, 0], [2, 0, 1], [0, 1, 2]],
)

#: Two independent contested 2x2 blocks: two rotations with no order
#: between them, so the lattice is the 4-element boolean square.
ANTICHAIN = PreferenceProfile.from_index_lists(
    [[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 0, 1], [3, 2, 0, 1]],
    [[1, 0, 2, 3], [0, 1, 2, 3], [3, 2, 0, 1], [2, 3, 0, 1]],
)


def _gusfield_irving() -> PreferenceProfile:
    """The 8x8 worked example from Gusfield & Irving's book (1-indexed)."""
    men = [
        [5, 7, 1, 2, 6, 8, 4, 3],
        [2, 3, 7, 5, 4, 1, 8, 6],
        [8, 5, 1, 4, 6, 2, 3, 7],
        [3, 2, 7, 4, 1, 6, 8, 5],
        [7, 2, 5, 1, 3, 6, 8, 4],
        [1, 6, 7, 5, 8, 4, 2, 3],
        [2, 5, 7, 6, 3, 4, 8, 1],
        [3, 8, 4, 5, 7, 2, 6, 1],
    ]
    women = [
        [5, 3, 7, 6, 1, 2, 8, 4],
        [8, 6, 3, 5, 7, 2, 1, 4],
        [1, 5, 6, 2, 4, 8, 7, 3],
        [8, 7, 3, 2, 4, 1, 5, 6],
        [6, 4, 7, 3, 8, 1, 2, 5],
        [2, 8, 5, 4, 6, 3, 7, 1],
        [7, 5, 2, 1, 8, 6, 4, 3],
        [7, 4, 1, 5, 2, 3, 6, 8],
    ]
    return PreferenceProfile.from_index_lists(
        [[x - 1 for x in row] for row in men],
        [[x - 1 for x in row] for row in women],
    )


def _pairs(matchings) -> tuple:
    return tuple(m.matched_pairs() for m in matchings)


# -- poset shapes -------------------------------------------------------------


class TestPosetShapes:
    def test_chain(self):
        poset = build_poset(CHAIN)
        assert len(poset) == 2
        assert poset.edges() == ((0, 1),)
        matchings = poset.stable_matchings()
        assert len(matchings) == 3
        # The closed sets of a 2-chain are exactly its prefixes.
        assert sorted(poset.iter_closed_sets(), key=sorted) == [
            frozenset(),
            frozenset({0}),
            frozenset({0, 1}),
        ]
        assert poset.minimal_rotations() == (0,)
        assert poset.minimal_rotations(frozenset({0})) == (1,)

    def test_antichain(self):
        poset = build_poset(ANTICHAIN)
        assert len(poset) == 2
        assert poset.edges() == ()
        assert len(poset.stable_matchings()) == 4  # the boolean square
        assert poset.minimal_rotations() == (0, 1)
        # Incomparable rotations: both singletons are closed.
        assert poset.down_closure({0}) == frozenset({0})
        assert poset.down_closure({1}) == frozenset({1})

    def test_antichain_disjoint_family(self):
        poset = build_poset(ANTICHAIN)
        family = disjoint_matchings(poset)
        assert len(family) >= 2
        seen: set = set()
        for matching in family:
            pairs = set(matching.matched_pairs())
            assert not seen & pairs
            seen |= pairs

    def test_gusfield_irving_worked_example(self):
        profile = _gusfield_irving()
        poset = build_poset(profile)
        assert len(poset) == 5
        assert poset.edges() == ((0, 1), (0, 2), (2, 3), (2, 4), (3, 4))
        matchings = poset.stable_matchings()
        assert len(matchings) == 9
        assert _pairs(matchings) == _pairs(brute_force_stable_matchings(profile))
        assert egalitarian_cost(egalitarian(poset), profile) == 32
        assert regret(minimum_regret(poset), profile) == 5
        assert poset.position_of(poset.l_optimal) == frozenset()
        assert poset.position_of(poset.r_optimal) == frozenset(range(5))

    def test_discovery_order_is_topological(self):
        for n, seeds in ((6, range(12)), (64, range(3)), (128, range(3))):
            for seed in seeds:
                poset = build_poset(random_profile(n, seed))
                for successor, preds in enumerate(poset.preds):
                    assert all(p < successor for p in preds)

    def test_rotation_weight_telescopes(self):
        # Summing every rotation's signed weight walks the egalitarian
        # cost from the L-optimal to the R-optimal matching.
        profiles = [_gusfield_irving()] + [
            random_profile(n, seed) for n in (64, 128) for seed in range(3)
        ]
        for profile in profiles:
            discovery = find_rotations(profile)
            total = sum(rot.weight(profile) for rot in discovery.rotations)
            assert total == egalitarian_cost(
                discovery.r_optimal, profile
            ) - egalitarian_cost(discovery.l_optimal, profile)

    @pytest.mark.parametrize("n", (64, 128))
    def test_elimination_walk_at_scale(self, n):
        # Replaying the rotations from the L-optimal matching stays
        # stable after every elimination and ends on the R-proposing
        # Gale-Shapley matching.
        for seed in range(4):
            profile = random_profile(n, seed)
            discovery = find_rotations(profile)
            assert discovery.r_optimal == gale_shapley(profile, "R").matching
            partner = dict(discovery.l_optimal.pairs)
            assert _stable_by_rank(partner, profile)
            for rotation in discovery.rotations:
                for left, _right, right_next in rotation.moves():
                    partner[left] = right_next
                    partner[right_next] = left
                assert _stable_by_rank(partner, profile)
            assert partner == dict(discovery.r_optimal.pairs)


def _stable_by_rank(partner, profile) -> bool:
    """No blocking pair, in O(k^2) rank lookups (``is_stable`` is O(k^3))."""
    for left in left_side(profile.k):
        current = profile.rank(left, partner[left])
        for right in profile.list_of(left)[:current]:
            if profile.rank(right, left) < profile.rank(right, partner[right]):
                return False
    return True


# -- differentials ------------------------------------------------------------


class TestBruteForceDifferential:
    def test_byte_identity_randomized(self):
        """The acceptance criterion: identical output, ordering included."""
        for k in range(1, 7):
            for seed in range(10):
                profile = random_profile(k, seed)
                assert _pairs(all_stable_matchings(profile)) == _pairs(
                    brute_force_stable_matchings(profile)
                ), f"k={k} seed={seed}"

    def test_side_optimal_matches_gale_shapley(self):
        for seed in range(10):
            profile = random_profile(5, seed)
            assert side_optimal(profile, "L") == gale_shapley(profile).matching

    def test_side_optimal_rejects_bad_side(self):
        with pytest.raises(MatchingError):
            side_optimal(CHAIN, "X")

    def test_large_instance_never_touches_factorial_space(self):
        # k=64 would need 64! permutations on the brute path; the poset
        # route enumerates the whole lattice directly.
        profile = random_profile(64, 0)
        poset = build_poset(profile)
        matchings = poset.stable_matchings()
        assert len(matchings) == poset.count_stable_matchings()
        for matching in (matchings[0], matchings[-1]):
            assert is_stable(matching, profile)

    def test_distinguished_match_brute_optima(self):
        for seed in range(10):
            profile = random_profile(5, seed)
            poset = build_poset(profile)
            lattice = brute_force_stable_matchings(profile)
            assert egalitarian_cost(egalitarian(poset), profile) == min(
                egalitarian_cost(m, profile) for m in lattice
            )
            assert regret(minimum_regret(poset), profile) == min(
                regret(m, profile) for m in lattice
            )

    def test_disjoint_families_are_disjoint_and_stable(self):
        for seed in range(10):
            profile = random_profile(6, seed)
            poset = build_poset(profile)
            seen: set = set()
            for matching in disjoint_matchings(poset):
                assert is_stable(matching, profile)
                pairs = set(matching.matched_pairs())
                assert not seen & pairs
                seen |= pairs


# -- lattice algebra (hypothesis) ---------------------------------------------


@st.composite
def _lattice_elements(draw, count: int):
    """A random small instance plus ``count`` of its stable matchings."""
    k = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=500))
    poset = cached_poset(random_profile(k, seed))
    matchings = poset.stable_matchings()
    picks = [
        matchings[draw(st.integers(min_value=0, max_value=len(matchings) - 1))]
        for _ in range(count)
    ]
    return (poset, *picks)


class TestLatticeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(_lattice_elements(2))
    def test_join_meet_closure_and_commutativity(self, case):
        poset, a, b = case
        lattice = set(poset.stable_matchings())
        join, meet = poset.join(a, b), poset.meet(a, b)
        assert join in lattice and meet in lattice
        assert join == poset.join(b, a)
        assert meet == poset.meet(b, a)

    @settings(max_examples=60, deadline=None)
    @given(_lattice_elements(2))
    def test_absorption(self, case):
        poset, a, b = case
        assert poset.join(a, poset.meet(a, b)) == a
        assert poset.meet(a, poset.join(a, b)) == a

    @settings(max_examples=60, deadline=None)
    @given(_lattice_elements(3))
    def test_distributivity(self, case):
        # The stable-matching lattice is distributive (Knuth/Conway).
        poset, a, b, c = case
        assert poset.join(a, poset.meet(b, c)) == poset.meet(
            poset.join(a, b), poset.join(a, c)
        )
        assert poset.meet(a, poset.join(b, c)) == poset.join(
            poset.meet(a, b), poset.meet(a, c)
        )

    @settings(max_examples=60, deadline=None)
    @given(_lattice_elements(2))
    def test_distance_is_symmetric_difference(self, case):
        poset, a, b = case
        pos_a, pos_b = poset.position_of(a), poset.position_of(b)
        assert pos_a is not None and pos_b is not None
        assert poset.distance(a, b) == len(pos_a ^ pos_b)

    @settings(max_examples=60, deadline=None)
    @given(_lattice_elements(1))
    def test_position_round_trips(self, case):
        poset, a = case
        position = poset.position_of(a)
        assert position is not None
        assert poset.matching_for(position) == a


# -- guardrails ---------------------------------------------------------------


class TestGuardrails:
    def test_matching_for_rejects_unclosed_sets(self):
        poset = build_poset(CHAIN)
        with pytest.raises(MatchingError):
            poset.matching_for({1})  # rotation 1 needs rotation 0 first

    def test_mask_rejects_out_of_range(self):
        poset = build_poset(CHAIN)
        with pytest.raises(MatchingError):
            poset.matching_for({7})

    def test_enumeration_limit_raises(self):
        poset = build_poset(ANTICHAIN)
        with pytest.raises(MatchingError):
            poset.stable_matchings(limit=2)
        assert poset.count_stable_matchings(limit=2) == 2

    def test_position_of_foreign_matching_is_none(self):
        poset = build_poset(CHAIN)
        foreign = gale_shapley(random_profile(3, 99)).matching
        position = poset.position_of(foreign)
        if position is not None:  # same matching can be stable by luck
            assert poset.matching_for(position) == foreign

    def test_join_rejects_off_lattice_input(self):
        poset = build_poset(CHAIN)
        other = side_optimal(ANTICHAIN, "L")
        with pytest.raises(MatchingError):
            poset.join(poset.l_optimal, other)


# -- tags, oracle, and effective instances ------------------------------------


class TestLatticeTags:
    def test_tag_grammar(self):
        assert position_tag(frozenset()) == LATTICE_TAG_PREFIX + "rot[]"
        assert position_tag(frozenset({5, 0, 2})) == LATTICE_TAG_PREFIX + "rot[0.2.5]"
        assert position_tag(None) == LATTICE_TAG_PREFIX + "off-lattice"
        assert unscored_tag() == LATTICE_TAG_PREFIX + "unscored"

    def test_consistent_position_partial_outputs(self):
        poset = build_poset(CHAIN)
        # A single honest declaration from the L-optimal matching.
        assert consistent_position(poset, {l(0): r(0)}) == frozenset()
        # A declaration no lattice element satisfies (r2 never partners
        # l0 outside... check: it does in the R-optimal chain element);
        # an unmatched declaration is always off-lattice instead.
        assert consistent_position(poset, {l(0): None}) is None
        assert consistent_position(poset, {}) is None

    def test_outputs_round_trip(self):
        outputs = ((str(l(0)), str(r(1))), (str(l(1)), "None"))
        assert outputs_to_partners(outputs) == {l(0): r(1), l(1): None}

    def test_effective_profile_scoping(self):
        fault_free = ScenarioSpec(
            topology="fully_connected", authenticated=True, k=3, tL=0, tR=0
        )
        assert effective_profile(fault_free) == fault_free.profile.build(3)

        noisy = ScenarioSpec(
            topology="fully_connected",
            authenticated=True,
            k=3,
            tL=1,
            tR=0,
            adversary=AdversarySpec(kind="noise", corrupt=(str(l(0)),)),
        )
        assert effective_profile(noisy) is None

        silent = ScenarioSpec(
            topology="fully_connected",
            authenticated=True,
            k=3,
            tL=1,
            tR=0,
            adversary=AdversarySpec(kind="silent", corrupt=(str(l(0)),)),
        )
        base = silent.profile.build(3)
        assert effective_profile(silent) == substituted_profile(base, (l(0),))

        # Incomplete instances only run in the offline family, and
        # non-bsm families are unscorable by definition.
        incomplete = ScenarioSpec(
            family="offline",
            algorithm="incomplete",
            k=3,
            profile=ProfileSpec(kind="incomplete_random", seed=3),
        )
        assert effective_profile(incomplete) is None

    def test_fault_free_runs_land_on_l_optimal(self):
        spec = ScenarioSpec(
            topology="fully_connected", authenticated=True, k=3, tL=0, tR=0
        )
        records = Session().run(spec)
        assert records.records
        for record in records.records:
            assert lattice_position_tag(spec, record) == LATTICE_TAG_PREFIX + "rot[]"

    def test_stamp_preserves_everything_else(self):
        spec = ScenarioSpec(
            topology="fully_connected", authenticated=True, k=3, tL=0, tR=0
        )
        records = Session().run(spec)
        stamped = stamp_lattice_positions(spec, records)
        assert stamped.elapsed_seconds == records.elapsed_seconds
        assert stamped.executor == records.executor
        for before, after in zip(records.records, stamped.records):
            assert after.tags == before.tags + (LATTICE_TAG_PREFIX + "rot[]",)
            assert after.outputs == before.outputs

    def test_oracle_is_in_default_set_and_passes(self):
        assert "lattice_membership" in default_oracle_names()
        oracle = ORACLES["lattice_membership"]
        spec = ScenarioSpec(
            topology="fully_connected", authenticated=True, k=3, tL=0, tR=0
        )
        assert oracle.applies(spec)
        assert oracle.check(spec, OracleContext()) == ()

    def test_oracle_skips_unscorable_adversaries(self):
        oracle = ORACLES["lattice_membership"]
        spec = ScenarioSpec(
            topology="fully_connected",
            authenticated=True,
            k=3,
            tL=1,
            tR=0,
            adversary=AdversarySpec(kind="noise", corrupt=(str(l(0)),)),
        )
        assert not oracle.applies(spec)


# -- steer mutators -----------------------------------------------------------


class TestSteerMutators:
    def test_registered_and_composable(self):
        assert "steer_l_optimal" in MUTATORS
        assert "steer_r_optimal" in MUTATORS
        assert resolve_mutator("steer_l_optimal+steer_r_optimal") is not None

    def test_steering_sorts_party_tuples(self):
        parties = (r(2), r(0), r(1))
        ascending = MUTATORS["steer_l_optimal"]()(0, l(0), parties)
        descending = MUTATORS["steer_r_optimal"]()(0, l(0), parties)
        assert ascending == (r(0), r(1), r(2))
        assert descending == (r(2), r(1), r(0))

    def test_steer_spec_executes(self):
        spec = ScenarioSpec(
            topology="fully_connected",
            authenticated=True,
            k=3,
            tL=1,
            tR=0,
            adversary=AdversarySpec(
                kind="equivocate", corrupt=(str(l(0)),), mutator="steer_r_optimal"
            ),
        )
        records = Session().run(spec)
        assert records.records


# -- preset, CLI, IO, bench ---------------------------------------------------


class TestIntegrationSurfaces:
    def test_rotations_preset(self):
        assert "rotations" in preset_names()
        sweep = PRESETS["rotations"]()
        assert len(sweep.specs) == 14
        kinds = {
            spec.adversary.kind if spec.adversary else None for spec in sweep.specs
        }
        assert {"silent", "honest", "equivocate", None} <= kinds

    def test_report_io_round_trip(self, tmp_path):
        report = lattice_report(CHAIN)
        path = tmp_path / "lattice.json"
        dump_lattice_report(report, path)
        assert load_lattice_report(path) == report
        # The payload is plain JSON with the documented sections.
        on_disk = json.loads(path.read_text())
        assert on_disk["stable_matchings"]["count"] == 3
        assert not on_disk["stable_matchings"]["truncated"]

    def test_load_report_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"not": "a report"}))
        with pytest.raises(ReproError):
            load_lattice_report(path)

    def test_report_truncation_cap(self):
        report = lattice_report(ANTICHAIN, max_matchings=2)
        assert report["stable_matchings"]["count"] == 2
        assert report["stable_matchings"]["truncated"]

    def test_cli_lattice_generated_profile(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(
            ["lattice", "--k", "4", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        assert "stable matchings" in capsys.readouterr().out
        assert load_lattice_report(out)["k"] == 4

    def test_cli_lattice_rejects_unscorable_spec(self, tmp_path, capsys):
        from repro.cli import main

        spec = ScenarioSpec(
            topology="fully_connected",
            authenticated=True,
            k=3,
            tL=1,
            tR=0,
            adversary=AdversarySpec(kind="noise", corrupt=(str(l(0)),)),
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        code = main(["lattice", "--spec-json", str(path)])
        assert code == 2
        assert "no scorable effective instance" in capsys.readouterr().err

    def test_cli_lattice_needs_an_instance(self, capsys):
        from repro.cli import main

        assert main(["lattice"]) == 2
        assert "--k or --spec-json" in capsys.readouterr().err

    def test_bench_harness_quick_tier_is_clean(self):
        from repro.bench.cases import _rotations_enum_harness

        run = _rotations_enum_harness("quick", None)
        assert run.failures == ()
        assert run.runs == 13
        assert run.metrics["largest_lattice"] >= 1
