"""Core types: rational parsing, systems, coalitions, scaling, normalization."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votingpower import (
    DegenerateSystem,
    IndexKind,
    IndexVector,
    InvalidCoalition,
    InvalidInput,
    QuotaMode,
    VotingSystem,
    coalition_weight,
    format_rational,
    is_winning,
    normalize,
    parse_rational,
    scale_to_integers,
    to_rational,
)
from votingpower import core
from conftest import brute_winning


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Fraction(3)),
            ("1/2", Fraction(1, 2)),
            ("-2/3", Fraction(-2, 3)),
            ("0", Fraction(0)),
            ("  7/10 ", Fraction(7, 10)),
            ("4/6", Fraction(2, 3)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "1/0", "1.5", "a", "1/-2", "1 / 2", "2/", "/3", "1e3", "½"]
    )
    def test_invalid(self, text):
        with pytest.raises(InvalidInput):
            parse_rational(text)

    @given(st.fractions())
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value


class TestToRational:
    def test_accepts_int_fraction_string(self):
        assert to_rational(3) == Fraction(3)
        assert to_rational(Fraction(5, 7)) == Fraction(5, 7)
        assert to_rational("5/7") == Fraction(5, 7)

    def test_rejects_floats(self):
        with pytest.raises(InvalidInput):
            to_rational(0.5)

    def test_exact_fraction_is_returned_as_it_is(self):
        value = Fraction(5, 7)
        assert to_rational(value) is value

    def test_fraction_subclass_is_converted(self):
        class Tagged(Fraction):
            pass

        value = to_rational(Tagged(5, 7))
        assert type(value) is Fraction and value == Fraction(5, 7)

    def test_rejects_junk(self):
        with pytest.raises(InvalidInput):
            to_rational(object())


class TestVotingSystem:
    def test_coerces_strings_and_ints(self):
        s = VotingSystem(quota="3", mode=QuotaMode.MEETS_OR_EXCEEDS, weights=("2", 1, 1))
        assert s.quota == 3 and s.weights == (2, 1, 1)
        assert s.n == 3 and s.total_weight == 4

    def test_rejects_empty_weights(self):
        with pytest.raises(InvalidInput):
            VotingSystem(quota=1, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=())

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidInput):
            VotingSystem(quota=1, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(1, -1))

    def test_rejects_nonpositive_quota(self):
        with pytest.raises(InvalidInput):
            VotingSystem(quota=0, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(1,))

    def test_rejects_float_weight(self):
        with pytest.raises(InvalidInput):
            VotingSystem(quota=1, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(0.5, 1))

    def test_rejects_bad_mode(self):
        with pytest.raises(InvalidInput):
            VotingSystem(quota=1, mode="ge", weights=(1,))

    def test_passes_at_boundary(self):
        ge = VotingSystem(quota=2, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(1, 1))
        gt = VotingSystem(quota=2, mode=QuotaMode.STRICTLY_EXCEEDS, weights=(1, 1))
        assert ge.passes(Fraction(2)) and not gt.passes(Fraction(2))
        assert gt.passes(Fraction(5, 2))


class TestCoalitions:
    @pytest.fixture
    def system(self):
        return VotingSystem(quota=3, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(2, 1, 1))

    def test_weight_and_winning(self, system):
        assert coalition_weight(system, {0, 1}) == 3
        assert is_winning(system, {0, 1})
        assert not is_winning(system, {1, 2})
        assert not is_winning(system, frozenset())

    @pytest.mark.parametrize("bad", [{3}, {-1}, {True}, {"0"}])
    def test_rejects_bad_members(self, system, bad):
        with pytest.raises(InvalidCoalition):
            coalition_weight(system, bad)


class TestScaleToIntegers:
    def test_half_quota_strict(self):
        s = VotingSystem(
            quota=Fraction(1, 2),
            mode=QuotaMode.STRICTLY_EXCEEDS,
            weights=(Fraction(1, 3),) + (Fraction(2, 15),) * 5,
        )
        scaled = scale_to_integers(s)
        assert scaled.weights == (10, 4, 4, 4, 4, 4)
        assert scaled.quota2 == 15
        assert scaled.mode is QuotaMode.STRICTLY_EXCEEDS

    def test_integer_weights(self):
        s = VotingSystem(quota=3, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(2, 1, 1))
        scaled = scale_to_integers(s)
        assert scaled.weights == (4, 2, 2) and scaled.quota2 == 6

    def test_divisor_six_shape(self):
        s = VotingSystem(
            quota=Fraction(13, 2), mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(6, 3, 2, 1)
        )
        scaled = scale_to_integers(s)
        assert scaled.weights == (12, 6, 4, 2) and scaled.quota2 == 13

    def test_quota_denominator_extends_scale(self):
        s = VotingSystem(
            quota=Fraction(1, 3), mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(1, 1)
        )
        scaled = scale_to_integers(s)
        assert scaled.weights == (6, 6) and scaled.quota2 == 2

    @given(
        st.lists(st.fractions(min_value=0, max_value=10), min_size=1, max_size=6),
        st.fractions(min_value=Fraction(1, 100), max_value=20),
        st.booleans(),
        st.data(),
    )
    def test_winning_status_preserved(self, weights, quota, strict, data):
        mode = QuotaMode.STRICTLY_EXCEEDS if strict else QuotaMode.MEETS_OR_EXCEEDS
        system = VotingSystem(quota=quota, mode=mode, weights=tuple(weights))
        scaled = scale_to_integers(system)
        members = data.draw(st.sets(st.integers(0, len(weights) - 1)))
        scaled_total = sum(scaled.weights[i] for i in members)
        if mode is QuotaMode.STRICTLY_EXCEEDS:
            scaled_winning = scaled_total > scaled.quota2
        else:
            scaled_winning = scaled_total >= scaled.quota2
        assert scaled_winning == brute_winning(system, frozenset(members))


def _scale_by_fraction_products(system):
    """The reference scaling by `Fraction` products, ``int(w * scale)``."""
    scale = 2 * lcm(*[w.denominator for w in system.weights])
    quota2 = system.quota * scale
    if quota2.denominator != 1:
        scale *= quota2.denominator
        quota2 = system.quota * scale
    return tuple([int(w * scale) for w in system.weights]), int(quota2)


class TestScaleMatchesFractionProducts:
    @given(
        st.lists(st.fractions(min_value=0, max_value=10**6), min_size=1, max_size=12),
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
    )
    def test_same_integers(self, weights, quota):
        system = VotingSystem(quota=quota, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=weights)
        scaled = scale_to_integers(system)
        assert (scaled.weights, scaled.quota2) == _scale_by_fraction_products(system)


class TestNormalize:
    def test_frozen(self):
        assert normalize((2, 1, 1)) == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 4),
        )

    def test_errors(self):
        with pytest.raises(InvalidInput):
            normalize(())
        with pytest.raises(InvalidInput):
            normalize((1, -1))
        with pytest.raises(DegenerateSystem):
            normalize((0, 0, 0))

    def test_unit_total_comes_back_equal(self):
        weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(0)]
        assert normalize(weights) == tuple(weights)
        assert normalize(iter(weights)) == tuple(weights)
        assert normalize([1]) == (Fraction(1),)

    @given(st.lists(st.fractions(min_value=0, max_value=50), min_size=1, max_size=8))
    def test_sums_to_one_and_keeps_ratios(self, weights):
        if all(w == 0 for w in weights):
            weights[0] = Fraction(1)
        out = normalize(tuple(weights))
        assert sum(out) == 1 and normalize(out) == out
        total = sum(weights)
        assert all(v == w / total for v, w in zip(out, weights))


    def test_off_by_a_hair_is_divided(self):
        weights = (Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**30))
        out = normalize(weights)
        assert out != weights and sum(out, Fraction(0)) == 1


class TestExactSum:
    @given(st.lists(st.fractions(max_denominator=10**40), max_size=16))
    def test_matches_fraction_additions(self, values):
        num, den = core._exact_sum(tuple(values))
        assert Fraction(num, den) == sum(values, Fraction(0))
        assert den == lcm(*[v.denominator for v in values])


class TestIndexVector:
    def test_validates_sum(self):
        with pytest.raises(InvalidInput):
            IndexVector(IndexKind.BANZHAF, (Fraction(1, 2), Fraction(1, 3)))
        for hair in (Fraction(1, 10**30), -Fraction(1, 10**30)):
            with pytest.raises(InvalidInput):
                IndexVector(IndexKind.BANZHAF, (Fraction(1, 2), Fraction(1, 2) + hair))

    def test_validates_range(self):
        with pytest.raises(InvalidInput):
            IndexVector(IndexKind.BANZHAF, (Fraction(3, 2), Fraction(-1, 2)))

    def test_iter_and_len(self):
        v = IndexVector(IndexKind.BANZHAF, (Fraction(1, 2), Fraction(1, 2)))
        assert list(v) == [Fraction(1, 2), Fraction(1, 2)] and len(v) == 2
