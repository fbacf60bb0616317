"""Weight families, fixed-point solvers, and index-map iteration."""

import hashlib
import itertools
from dataclasses import astuple
from fractions import Fraction
from math import comb, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votingpower import (
    Cycle,
    FixedPoint,
    IndexKind,
    IntegerBoundary,
    InvalidFamily,
    InvalidInput,
    InvariantViolation,
    MaxIterations,
    QuotaMode,
    TooLarge,
    VotingSystem,
    aab_fixed_point_classes,
    aab_fixed_points,
    aab_heavy_ss_power,
    ab_banzhaf_indices,
    ab_family_point,
    ab_fixed_points,
    ab_heavy_ss_power,
    ab_joint_banzhaf_fixed,
    apply_index_map,
    is_fixed_point,
    iterate,
    trace_from_dict,
    trace_from_json,
    trace_to_json,
)
from votingpower import fixedpoint
from votingpower.fixedpoint import _iterate
from conftest import brute_banzhaf, brute_ss

F = Fraction


def family_system(weights) -> VotingSystem:
    return VotingSystem(
        quota=F(1, 2), mode=QuotaMode.STRICTLY_EXCEEDS, weights=tuple(weights)
    )


def one_heavy_weights(m: int, b: Fraction) -> tuple[Fraction, ...]:
    return (1 - m * b,) + (b,) * m


def two_heavy_weights(m: int, b: Fraction) -> tuple[Fraction, ...]:
    a = (1 - m * b) / 2
    return (a, a) + (b,) * m


class TestOneHeavySsPower:
    @pytest.mark.parametrize(
        "m,b,expected",
        [
            (5, F(2, 15), F(1, 3)),
            (5, F(1, 6), F(1, 6)),  # 1/(2b) = 3 exactly
            (10, F(4, 55), F(3, 11)),
            (3, F(1, 4), F(1, 4)),  # uniform weights
            (5, F(1, 15), F(1)),  # heavy weight 2/3: dictator
        ],
    )
    def test_frozen(self, m, b, expected):
        assert ab_heavy_ss_power(m, b) == expected

    def test_matches_permutation_oracle_on_grid(self):
        for m in range(1, 6):
            for num in range(1, 2 * m + 2):
                b = F(num, (2 * m + 2) * m)  # sweeps 0 < b < ~1/m
                if m * b >= 1:
                    continue
                oracle = brute_ss(family_system(one_heavy_weights(m, b)))[0]
                assert ab_heavy_ss_power(m, b) == oracle, (m, b)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidFamily):
            ab_heavy_ss_power(0, F(1, 3))
        with pytest.raises(InvalidFamily):
            ab_heavy_ss_power(3, F(0))
        with pytest.raises(InvalidFamily):
            ab_heavy_ss_power(3, F(1, 3))  # m*b = 1 leaves nothing for the heavy


class TestOneHeavyBanzhaf:
    @pytest.mark.parametrize(
        "m,b,heavy,light",
        [
            (5, F(2, 15), F(1, 3), F(2, 15)),
            (3, F(1, 4), F(1, 4), F(1, 4)),  # boundary: stays uniform
            (5, F(1, 15), F(1), F(0)),
            (5, F(1, 6), F(1, 6), F(1, 6)),  # heavy weight collapses to 1/6 too
        ],
    )
    def test_frozen(self, m, b, heavy, light):
        pair = ab_banzhaf_indices(m, b)
        assert (pair.heavy, pair.light) == (heavy, light)

    def test_matches_subset_oracle_on_grid(self):
        for m in range(1, 6):
            for num in range(1, 2 * m + 2):
                b = F(num, (2 * m + 2) * m)
                if m * b >= 1:
                    continue
                oracle = brute_banzhaf(family_system(one_heavy_weights(m, b)))
                pair = ab_banzhaf_indices(m, b)
                assert pair.heavy == oracle[0] and pair.light == oracle[1], (m, b)

    def test_index_normalization(self):
        pair = ab_banzhaf_indices(7, F(1, 9))
        assert pair.heavy + 7 * pair.light == 1

    def test_stepped_binomials_match_the_per_term_sum(self):
        for m in range(1, 41):
            # floor(1/(2b)) = t, on the integer boundary b = 1/(2t) and off it
            for t in range(max(1, m // 2), m + 3):
                for b in (F(1, 2 * t), F(2, 4 * t + 1)):
                    if m * b < 1:
                        pair = ab_banzhaf_indices(m, b)
                        assert (pair.heavy, pair.light) == _ab_banzhaf_by_terms(m, b), (m, b)

    def test_refuses_light_counts_over_the_bound(self):
        with pytest.raises(TooLarge):
            ab_banzhaf_indices(fixedpoint._SOLVE_MAX_M + 1, F(1, 10**6))


def _ab_banzhaf_by_terms(m, b):
    """The one-heavy Banzhaf pair with one ``comb`` per heavy term: the stepped sum's reference."""
    half = F(1, 2) / b
    light = sum(
        comb(m - 1, j) for j in (floor(half), floor(m - half)) if 0 <= j <= m - 1
    )
    heavy = sum(comb(m, j) for j in range(max(0, floor(m - half) + 1), min(m, floor(half)) + 1))
    total = m * light + heavy
    return F(heavy, total), F(light, total)


class TestOneHeavyFamilyPoints:
    def test_reference_point(self):
        spec = ab_family_point(3, 1, "odd")
        assert spec.m == 5
        assert spec.light_weight == F(2, 15) and spec.heavy_weight == F(1, 3)
        assert spec.valid and spec.reason == ""
        assert spec.weights() == one_heavy_weights(5, F(2, 15))

    @pytest.mark.parametrize(
        "k,c,parity,valid",
        [
            (2, 1, "odd", False),  # 1/(2b) = 3 is an integer
            (3, 1, "odd", True),
            (4, 1, "odd", True),
            (5, 1, "odd", True),
            (6, 1, "odd", True),
            (3, 2, "odd", False),
            (10, 3, "odd", False),  # floor lands at 13, not 12
            (2, 1, "even", False),
            (3, 1, "even", False),
            (4, 1, "even", False),
            (4, 3, "even", False),  # 1/(2b) = 18 is an integer
            (5, 1, "even", True),
            (6, 1, "even", True),
        ],
    )
    def test_gate_catalog(self, k, c, parity, valid):
        spec = ab_family_point(k, c, parity)
        assert spec.valid is valid
        if valid:
            # validity means: heavy share really equals the heavy weight
            assert ab_heavy_ss_power(spec.m, spec.light_weight) == spec.heavy_weight
        else:
            assert spec.reason

    def test_valid_points_certified_by_engine(self):
        for k, c, parity in [(3, 1, "odd"), (4, 1, "odd"), (5, 1, "even")]:
            spec = ab_family_point(k, c, parity)
            assert spec.valid
            assert is_fixed_point(spec.weights(), IndexKind.SHAPLEY_SHUBIK)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidFamily):
            ab_family_point(1, 1, "odd")  # c range empty
        with pytest.raises(InvalidFamily):
            ab_family_point(4, 0, "odd")
        with pytest.raises(InvalidFamily):
            ab_family_point(4, 4, "odd")
        with pytest.raises(InvalidFamily):
            ab_family_point(4, 1, "sideways")

    def test_weight_identity_is_checked(self, monkeypatch):
        # Off-by-one denominators break a = 1 - m*b (k=3, c=1: a=1/4, b=1/8, m=5).
        monkeypatch.setattr(fixedpoint, "Fraction", lambda p, q: F(p, q + 1))
        with pytest.raises(InvariantViolation, match="1 - 5"):
            ab_family_point(3, 1, "odd")


class TestOneHeavySolver:
    @pytest.mark.parametrize(
        "m,expected",
        [
            (2, [F(1, 3)]),
            (3, [F(1, 4)]),
            (4, [F(1, 5)]),
            (5, [F(2, 15), F(1, 6)]),
            (6, [F(1, 7)]),
        ],
    )
    def test_frozen_solution_sets(self, m, expected):
        assert ab_fixed_points(m) == expected

    def test_every_solution_is_a_fixed_point(self):
        for m in range(1, 13):
            for b in ab_fixed_points(m):
                assert ab_heavy_ss_power(m, b) == 1 - m * b

    def test_engine_certifies_solutions(self):
        for m in range(1, 9):
            for b in ab_fixed_points(m):
                assert is_fixed_point(one_heavy_weights(m, b), IndexKind.SHAPLEY_SHUBIK)

    def test_gate_valid_family_points_are_found(self):
        for k in range(2, 7):
            for c in range(1, k):
                for parity in ("odd", "even"):
                    spec = ab_family_point(k, c, parity)
                    if spec.valid:
                        assert spec.light_weight in ab_fixed_points(spec.m), (k, c, parity)

    def test_uniform_point_always_present(self):
        for m in range(1, 13):
            assert F(1, m + 1) in ab_fixed_points(m)


def _ab_fixed_points_by_fractions(m):
    """The one-heavy solver in `Fraction`s, each branch checked through the
    share formula and the floor gate: the integer solver's reference."""
    found = set()
    for f in range(m // 2, m + 2):
        count = max(0, min(m, f) - max(0, m - f) + 1)
        b = (1 - F(count, m + 1)) / m
        if 0 < b and m * b < 1 and not fixedpoint._floor_gate(b, f):
            found.add(b)
    for t in range(m // 2 + 1, m + 2):
        b = F(1, 2 * t)
        if m * b < 1 and ab_heavy_ss_power(m, b) == 1 - m * b:
            found.add(b)
    return sorted(found)


def _aab_fixed_points_by_fractions(m):
    """The two-heavy solver in `Fraction`s, each branch checked through the
    share kernel and the floor gate: the integer solver's reference."""
    found = set()
    for f in range(max(1, m // 2), m + 3):
        power = F(*fixedpoint._aab_power_given_floor(m, f))
        b = (1 - 2 * power) / m
        if 0 < b and m * b < 1 and not fixedpoint._floor_gate(b, f) and power != b:
            found.add(b)
    return sorted(found)


@pytest.mark.parametrize("shape", ["ab", "aab"])
def test_integer_branches_match_the_fraction_formulation(shape):
    solve, reference = {
        "ab": (ab_fixed_points, _ab_fixed_points_by_fractions),
        "aab": (aab_fixed_points, _aab_fixed_points_by_fractions),
    }[shape]
    for m in range(1, 201):
        assert solve(m) == reference(m), m


class TestTwoHeavySsPower:
    @pytest.mark.parametrize(
        "m,b,expected",
        [
            (4, F(2, 15), F(7, 30)),
            (3, F(2, 15), F(3, 10)),
            (5, F(3, 35), F(2, 7)),
        ],
    )
    def test_frozen(self, m, b, expected):
        assert aab_heavy_ss_power(m, b) == expected

    @pytest.mark.parametrize("m,b", [(2, F(1, 6)), (4, F(1, 10)), (3, F(1, 6))])
    def test_integer_boundary_refused(self, m, b):
        with pytest.raises(IntegerBoundary):
            aab_heavy_ss_power(m, b)

    def test_matches_permutation_oracle_on_grid(self):
        for m in range(1, 5):
            for num in range(1, 2 * m + 2):
                b = F(num, (2 * m + 2) * m + 1)  # odd-ish denominator avoids boundaries
                if m * b >= 1:
                    continue
                half = F(1, 2) / b
                if half.denominator == 1:
                    continue
                oracle = brute_ss(family_system(two_heavy_weights(m, b)))[0]
                assert aab_heavy_ss_power(m, b) == oracle, (m, b)


class TestOddDenominator:
    """The odd-light-count share uses denominator (2k+2)(2k+3); the variant
    with (2k+1)(2k+2) disagrees with the 120-permutation oracle."""

    def test_against_permutation_oracle(self):
        m, b, k = 3, F(2, 15), 1
        weights = two_heavy_weights(m, b)  # (3/10, 3/10, 2/15, 2/15, 2/15)
        oracle = brute_ss(family_system(weights))[0]
        shipped = aab_heavy_ss_power(m, b)
        assert shipped == oracle == F(3, 10) == weights[0]
        wrong_variant = shipped * (2 * k + 3) / (2 * k + 1)
        assert wrong_variant == F(1, 2)
        assert wrong_variant != oracle


class TestTwoHeavySolver:
    EXPECTED = {
        2: [F(1, 3)],
        3: [F(2, 15)],
        4: [F(2, 15), F(1, 5)],
        5: [F(3, 35), F(11, 105)],
        6: [F(3, 28), F(1, 7)],
        7: [F(4, 63), F(11, 126)],
        8: [F(13, 180), F(4, 45), F(1, 9)],
        9: [F(5, 99), F(31, 495), F(37, 495)],
        10: [F(7, 110), F(5, 66), F(1, 11)],
    }

    @pytest.mark.parametrize("m", sorted(EXPECTED))
    def test_frozen_solution_sets(self, m):
        assert aab_fixed_points(m) == sorted(self.EXPECTED[m])

    @pytest.mark.parametrize("m", sorted(EXPECTED))
    def test_engine_certifies_solutions(self, m):
        for b in aab_fixed_points(m):
            assert is_fixed_point(two_heavy_weights(m, b), IndexKind.SHAPLEY_SHUBIK)

    def test_boundary_fixed_points_exist_but_are_excluded(self):
        # these sit exactly on 1/(2b) integer, where the branch formula is
        # undefined; the engine confirms they are genuine fixed points
        assert is_fixed_point(two_heavy_weights(2, F(1, 6)), IndexKind.SHAPLEY_SHUBIK)
        assert F(1, 6) not in aab_fixed_points(2)
        assert is_fixed_point(two_heavy_weights(4, F(1, 10)), IndexKind.SHAPLEY_SHUBIK)
        assert F(1, 10) not in aab_fixed_points(4)

    def test_all_equal_point_excluded_as_trivial(self):
        # m = 3: all five players at 1/5 is trivially fixed; tables skip it
        assert is_fixed_point((F(1, 5),) * 5, IndexKind.SHAPLEY_SHUBIK)
        assert F(1, 5) not in aab_fixed_points(3)

    def test_closed_forms_match_the_series(self, monkeypatch):
        closed = {m: aab_fixed_points(m) for m in range(1, 201)}
        for m in closed:
            for f in range(2 * m + 4):
                assert F(*fixedpoint._aab_power_given_floor(m, f)) == _aab_power_by_series(m, f)
        monkeypatch.setattr(
            fixedpoint,
            "_aab_power_given_floor",
            lambda m, f: _aab_power_by_series(m, f).as_integer_ratio(),
        )
        assert {m: aab_fixed_points(m) for m in closed} == closed

    def test_solvers_refuse_over_the_bound(self):
        for solve in (ab_fixed_points, aab_fixed_points):
            with pytest.raises(TooLarge):
                solve(fixedpoint._SOLVE_MAX_M + 1)


def _aab_power_by_series(m, f):
    """The two-heavy branch share summed term by term: the closed forms' reference."""
    k = m // 2
    if m % 2 == 0:
        num = sum(2 * k + 1 - p for p in range(k + 1, min(f, 2 * k) + 1))
        num += sum(p + 1 for p in range(max(2 * k - f, 0), k + 1))
        return F(num, (2 * k + 1) * (2 * k + 2))
    num = sum(2 * k + 2 - p for p in range(k + 1, min(f, 2 * k + 1) + 1))
    num += sum(p + 1 for p in range(max(2 * k + 1 - f, 0), k + 1))
    return F(num, (2 * k + 2) * (2 * k + 3))


class TestTwoHeavyClasses:
    def test_even_classes(self):
        for k in range(1, 6):
            first, second = aab_fixed_point_classes(k, "even")
            assert first.light_weight == F(1, 2 * k + 1)
            assert second.light_weight == F(k, (k + 1) * (2 * k + 1))
            assert first.valid
            assert second.valid is (k >= 2)
            if k == 1:
                assert "integer" in second.reason

    def test_odd_class(self):
        for k in range(1, 6):
            (only,) = aab_fixed_point_classes(k, "odd")
            assert only.light_weight == F(k + 1, (2 * k + 1) * (2 * k + 3))
            assert only.valid

    def test_valid_classes_appear_in_solved_sets(self):
        for k in range(1, 5):
            for parity, m in (("even", 2 * k), ("odd", 2 * k + 1)):
                for spec in aab_fixed_point_classes(k, parity):
                    if spec.valid:
                        assert spec.light_weight in aab_fixed_points(m)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidFamily):
            aab_fixed_point_classes(0, "even")
        with pytest.raises(InvalidFamily):
            aab_fixed_point_classes(2, "diagonal")


def test_family_specs_match_the_pinned_digest():
    # every one-heavy point for k < 80 and two-heavy class for k < 200, as
    # the separate per-family builders gave them
    specs = [
        ab_family_point(k, c, parity)
        for k in range(2, 80)
        for c in range(1, k)
        for parity in ("odd", "even")
    ]
    for k in range(1, 200):
        specs += aab_fixed_point_classes(k, "even") + aab_fixed_point_classes(k, "odd")
    text = "".join(" ".join(map(str, astuple(spec))) + "\n" for spec in specs)
    assert len(specs) == 6759
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6ea411de156e690055845556b299ec83905db061604ec7bf66cc3b4874fb1379"
    )


class TestJointBanzhaf:
    def test_reference_point_is_banzhaf_fixed(self):
        assert ab_joint_banzhaf_fixed(3, 1, "odd")
        pair = ab_banzhaf_indices(5, F(2, 15))
        assert pair.light == F(2, 15) and pair.heavy == F(1, 3)

    def test_odd_offset_one_family(self):
        for k in range(3, 9):
            assert ab_joint_banzhaf_fixed(k, 1, "odd")

    def test_larger_offsets_fail(self):
        for k in range(3, 9):
            for c in range(2, k):
                assert not ab_joint_banzhaf_fixed(k, c, "odd")

    def test_even_family_never_joint(self):
        for k in range(2, 9):
            for c in range(1, k):
                assert not ab_joint_banzhaf_fixed(k, c, "even")


class TestIndexMap:
    def test_single_step(self):
        out = apply_index_map((F(1, 2), F(1, 4), F(1, 4)), IndexKind.SHAPLEY_SHUBIK)
        assert out == (F(2, 3), F(1, 6), F(1, 6))
        # un-normalized input gives the same result
        assert apply_index_map((2, 1, 1), IndexKind.SHAPLEY_SHUBIK) == out

    def test_banzhaf_step(self):
        out = apply_index_map((2, 1, 1), IndexKind.BANZHAF)
        assert out == (F(3, 5), F(1, 5), F(1, 5))

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=6).filter(lambda w: sum(w) > 0))
    def test_output_is_a_distribution(self, weights):
        for kind in IndexKind:
            out = apply_index_map(tuple(weights), kind)
            assert sum(out) == 1 and all(0 <= v <= 1 for v in out)

    def test_dictator_is_fixed(self):
        assert is_fixed_point((1, 0, 0), IndexKind.SHAPLEY_SHUBIK)
        assert is_fixed_point((1, 0, 0), IndexKind.BANZHAF)

    def test_uniform_is_fixed(self):
        for n in range(1, 7):
            assert is_fixed_point((F(1, n),) * n, IndexKind.SHAPLEY_SHUBIK)
            assert is_fixed_point((F(1, n),) * n, IndexKind.BANZHAF)


class TestIterate:
    def test_reference_trace(self):
        trace = iterate((F(1, 2), F(1, 4), F(1, 4)), IndexKind.SHAPLEY_SHUBIK)
        assert trace.states == (
            (F(1, 2), F(1, 4), F(1, 4)),
            (F(2, 3), F(1, 6), F(1, 6)),
            (F(1), F(0), F(0)),
        )
        assert trace.outcome == FixedPoint(index=2)

    def test_max_iterations(self):
        trace = iterate((F(1, 2), F(1, 4), F(1, 4)), IndexKind.SHAPLEY_SHUBIK, max_iters=1)
        assert trace.outcome == MaxIterations(max_iters=1)
        assert len(trace.states) == 2

    def test_invalid_max_iters(self):
        with pytest.raises(InvalidInput):
            iterate((1, 1), IndexKind.BANZHAF, max_iters=0)

    def test_cycle_detection_via_synthetic_step(self):
        ring = {
            ("x",): ("a",),
            ("a",): ("b",),
            ("b",): ("c",),
            ("c",): ("a",),
        }
        states, outcome = _iterate(lambda s: ring[s], ("x",), 10)
        assert states == (("x",), ("a",), ("b",), ("c",))
        assert outcome == Cycle(entry=1, length=3)

    def test_synthetic_fixed_point(self):
        states, outcome = _iterate(lambda s: ("a",), ("x",), 10)
        assert states == (("x",), ("a",))
        assert outcome == FixedPoint(index=1)

    def test_synthetic_invalid_max_iters(self):
        with pytest.raises(InvalidInput):
            _iterate(lambda s: s, ("x",), 0)

    def test_small_starts_all_reach_fixed_points(self):
        # frozen search result: no cycles for 3-player integer starts up to 8
        for combo in itertools.combinations_with_replacement(range(1, 9), 3):
            for kind in IndexKind:
                outcome = iterate(tuple(map(F, combo)), kind, max_iters=30).outcome
                assert isinstance(outcome, FixedPoint), (combo, kind)


class TestTraceSerialization:
    def test_round_trip_fixed(self):
        trace = iterate((2, 1, 1), IndexKind.SHAPLEY_SHUBIK)
        assert trace_from_json(trace_to_json(trace)) == trace

    def test_round_trip_max_iters(self):
        trace = iterate((F(1, 2), F(1, 4), F(1, 4)), IndexKind.BANZHAF, max_iters=1)
        assert trace_from_json(trace_to_json(trace)) == trace

    def test_rejects_malformed(self):
        with pytest.raises(InvalidInput):
            trace_from_json("{not json")
        with pytest.raises(InvalidInput):
            trace_from_dict({"kind": "banzhaf", "states": []})
        with pytest.raises(InvalidInput):
            trace_from_dict(
                {"kind": "banzhaf", "states": [], "outcome": {"type": "nope"}}
            )

    @pytest.mark.parametrize(
        "states,outcome",
        [
            ([], {"type": "fixed", "index": 5}),
            ([], {"type": "fixed", "index": -1}),
            ([["1/2", "1/2"], ["1"]], {"type": "max_iters", "max_iters": 1}),
            ([["1/2", "1/2"], ["1", "0"]], {"type": "fixed", "index": 0}),
            ([["1/2", "1/2"], ["1", "0"]], {"type": "max_iters", "max_iters": 2}),
            ([["1"], ["1"], ["1"]], {"type": "cycle", "entry": 2, "length": 1}),
            ([["1"], ["1"], ["1"]], {"type": "cycle", "entry": -1, "length": 4}),
            ([["1"], ["1"], ["1"]], {"type": "cycle", "entry": 0, "length": 2}),
        ],
        ids=[
            "empty-fixed-at-5",
            "empty",
            "ragged",
            "fixed-not-last",
            "max-iters-off-by-one",
            "cycle-of-one",
            "cycle-before-the-start",
            "cycle-short-of-the-end",
        ],
    )
    def test_rejects_traces_iterate_cannot_produce(self, states, outcome):
        with pytest.raises(InvalidInput):
            trace_from_dict({"kind": "banzhaf", "states": states, "outcome": outcome})

    @pytest.mark.parametrize(
        "state", [["2", "3"], ["-1", "2"], ["1/2", "1/4"]], ids=["sum-5", "negative", "sum-3/4"]
    )
    def test_rejects_states_iterate_never_writes(self, state):
        # every state iterate records is normalized: non-negative, summing to 1
        payload = {"kind": "banzhaf", "states": [state], "outcome": {"type": "fixed", "index": 0}}
        with pytest.raises(InvalidInput, match="non-negative and sums to 1"):
            trace_from_dict(payload)

    def test_accepts_a_cycle_that_returns_to_its_entry(self):
        payload = {"kind": "banzhaf", "states": [["1"]] * 3}
        payload["outcome"] = {"type": "cycle", "entry": 1, "length": 2}
        assert trace_from_dict(payload).outcome == Cycle(entry=1, length=2)

    def test_rejects_weights_that_are_not_strings(self):
        # JSON numbers, not "p/q" strings: refused, not an AttributeError
        with pytest.raises(InvalidInput):
            trace_from_json(
                '{"kind":"banzhaf","states":[[1]],"outcome":{"type":"fixed","index":0}}'
            )
