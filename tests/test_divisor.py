"""Divisor-weighted majority games: construction, closed forms, census, CSV."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votingpower import (
    DivisorSystem,
    InvalidInput,
    InvariantViolation,
    PreconditionFailed,
    QuotaMode,
    SCAN_CSV_COLUMNS,
    TooLarge,
    UnsupportedCase,
    abundance_class,
    case_prediction,
    compare_prime_multiples,
    count_winning,
    critical_players,
    disagreement_report,
    divisor_system,
    divisors_of,
    report_csv_row,
    scan_abundant,
    sigma_of,
    sigma_range,
)
from votingpower import divisor
from conftest import brute_count_winning


class TestArithmetic:
    def test_divisors_descending(self):
        assert divisors_of(12) == (12, 6, 4, 3, 2, 1)
        assert divisors_of(1) == (1,)
        assert divisors_of(496) == (496, 248, 124, 62, 31, 16, 8, 4, 2, 1)

    def test_divisors_rejects_bad_input(self):
        for bad in (0, -3, True, "6"):
            with pytest.raises(InvalidInput):
                divisors_of(bad)

    def test_divisors_refuse_n_over_the_trial_division_bound(self):
        limit = divisor.TRIAL_DIVISION_LIMIT
        with pytest.raises(TooLarge, match="trial-division bound of 100000000000000"):
            divisors_of(limit + 1)

    def test_sigma(self):
        assert sigma_of(6) == 12 and sigma_of(12) == 28 and sigma_of(496) == 992

    def test_abundance_class(self):
        assert abundance_class(6) == "perfect"
        assert abundance_class(28) == "perfect"
        assert abundance_class(8) == "deficient"
        assert abundance_class(12) == "abundant"

    @given(st.integers(1, 200))
    def test_sigma_range_matches_pointwise(self, n):
        assert sigma_range(200)[n - 1] == sigma_of(n)

    def test_sigma_range_rejects_bad_limit(self):
        with pytest.raises(InvalidInput):
            sigma_range(0)

    def test_sigma_range_refuses_a_limit_over_its_bound(self):
        with pytest.raises(TooLarge, match="bound of 10000000"):
            sigma_range(divisor.SIEVE_LIMIT + 1)


class TestDivisorSystem:
    def test_even_sigma_quota(self):
        ds = divisor_system(6)  # sigma = 12, even
        assert ds.system.quota == Fraction(13, 2)
        assert ds.system.mode is QuotaMode.MEETS_OR_EXCEEDS
        assert ds.divisors == (6, 3, 2, 1) and ds.sigma == 12 and ds.excess == 0

    def test_odd_sigma_quota(self):
        ds = divisor_system(9)  # sigma = 13, odd
        assert ds.system.quota == Fraction(13, 2)
        assert ds.divisors == (9, 3, 1)

    def test_player_count(self):
        assert divisor_system(360).player_count == 24


class TestCasePrediction:
    def test_perfect_number_forms(self):
        pred = case_prediction(divisor_system(6))  # d = 4
        assert pred.top_banzhaf == Fraction(7, 10)
        assert pred.top_ss == Fraction(3, 4)
        assert pred.mid_banzhaf == Fraction(1, 10) == pred.one_banzhaf
        assert pred.mid_ss == Fraction(1, 12) == pred.one_ss
        assert pred.mid_includes_one

    def test_out_of_catalog(self):
        with pytest.raises(UnsupportedCase):
            case_prediction(divisor_system(24))  # excess 12
        with pytest.raises(UnsupportedCase):
            case_prediction(divisor_system(8))  # deficient, excess -1
        for excess in (6, 7):
            with pytest.raises(UnsupportedCase):
                case_prediction(_shaped_system(100, excess, 12))

    def test_parity_split(self):
        assert case_prediction(divisor_system(12)).parity == "even"  # excess 4
        assert case_prediction(divisor_system(18)).parity == "any"  # excess 3

    # No n <= 1000 has excess 1 or 5 and no odd one excess 4, so each catalog
    # entry is pinned on a system shaped to reach it: case_prediction reads
    # only the parity of n, the excess and the divisor count.
    @pytest.mark.parametrize(
        "n, excess, d, parity, forms, mid_includes_one",
        [
            (101, 0, 5, "any", ((15, 19), (4, 5), (1, 19), (1, 20), (1, 19), (1, 20)), True),
            (100, 0, 12, "any",
             ((2047, 2058), (11, 12), (1, 2058), (1, 132), (1, 2058), (1, 132)), True),
            (101, 1, 5, "any", (None, None, (1, 11), (1, 10), None, None), False),
            (100, 1, 12, "any", (None, None, (1, 1034), (1, 66), None, None), False),
            (101, 2, 5, "any", (None, None, None, None, (1, 23), (1, 20)), False),
            (100, 2, 12, "any", (None, None, None, None, (1, 2076), (1, 132)), False),
            (101, 3, 5, "any", (None, None, (1, 6), (1, 6), None, None), False),
            (100, 3, 12, "any", (None, None, (1, 521), (1, 55), None, None), False),
            (100, 4, 5, "even", (None, None, None, None, (1, 25), (1, 30)), False),
            (100, 4, 12, "even", (None, None, None, None, (1, 2092), (1, 660)), False),
            (101, 4, 5, "odd", (None, None, (4, 25), (1, 2), None, None), False),
            (101, 4, 12, "odd", (None, None, (4, 2085), (2, 11), None, None), False),
            (100, 5, 5, "even", (None, None, None, None, (1, 24), (1, 30)), False),
            (100, 5, 12, "even", (None, None, None, None, (1, 2091), (1, 660)), False),
            (101, 5, 5, "odd", (None, None, (2, 11), (1, 2), None, None), False),
            (101, 5, 12, "odd", (None, None, (2, 1041), (2, 11), None, None), False),
        ],
    )
    def test_every_catalog_entry(self, n, excess, d, parity, forms, mid_includes_one):
        pred = case_prediction(_shaped_system(n, excess, d))
        assert pred.excess == excess and pred.parity == parity
        assert pred.mid_includes_one is mid_includes_one
        got = (
            pred.top_banzhaf, pred.top_ss,
            pred.mid_banzhaf, pred.mid_ss,
            pred.one_banzhaf, pred.one_ss,
        )
        assert got == tuple(None if f is None else Fraction(*f) for f in forms)


def _shaped_system(n: int, excess: int, d: int) -> DivisorSystem:
    """A divisor system with the given ``n``, excess and divisor count, whatever
    the true divisors of ``n``."""
    return DivisorSystem(
        n=n,
        system=divisor_system(6).system,
        divisors=tuple(range(d, 0, -1)),
        sigma=2 * n + excess,
        excess=excess,
    )


class TestDisagreementReports:
    def test_n6_full_report(self):
        r = disagreement_report(6)
        assert r.banzhaf.values == (
            Fraction(7, 10),
            Fraction(1, 10),
            Fraction(1, 10),
            Fraction(1, 10),
        )
        assert r.ss.values == (
            Fraction(3, 4),
            Fraction(1, 12),
            Fraction(1, 12),
            Fraction(1, 12),
        )
        assert r.witnesses == (0, 1, 2, 3)
        assert r.formula_match is True

    def test_n18_mid_class(self):
        r = disagreement_report(18)  # divisors 18 9 6 3 2 1, excess 3
        assert r.banzhaf.values[0] == Fraction(7, 11)
        assert set(r.banzhaf.values[1:5]) == {Fraction(1, 11)}
        assert r.banzhaf.values[5] == 0
        assert set(r.ss.values[1:5]) == {Fraction(1, 10)}
        assert r.formula_match is True

    def test_n20_and_n12_one_class(self):
        r20 = disagreement_report(20)
        assert r20.banzhaf.values[-1] == Fraction(1, 42)
        assert r20.ss.values[-1] == Fraction(1, 30)
        assert r20.formula_match is True
        r12 = disagreement_report(12)
        assert r12.banzhaf.values[-1] == Fraction(1, 46)
        assert r12.ss.values[-1] == Fraction(1, 60)
        assert r12.formula_match is True

    @pytest.mark.parametrize("n", [70, 88, 104, 464, 650])
    def test_remaining_small_excess_witnesses_confirm_forms(self, n):
        r = disagreement_report(n)
        assert r.formula_match is True
        assert len(r.witnesses) > 0

    def test_out_of_catalog_report_has_no_prediction(self):
        r = disagreement_report(24)
        assert r.prediction is None and r.formula_match is None
        assert r.formula_notes == ()
        assert len(r.witnesses) > 0


class TestScan:
    def test_six_divisor_abundants_up_to_100(self):
        got = scan_abundant(100, 6)
        assert got == [(12, 6, 4), (18, 6, 3), (20, 6, 2)]

    def test_scan_consistent_with_definitions(self):
        for n, d, k in scan_abundant(150):
            assert d == len(divisors_of(n))
            assert k == sigma_of(n) - 2 * n
            assert k > 0

    def test_scan_counts_divisors_in_the_sieve(self, monkeypatch):
        expected = [
            (n, len(divisors_of(n)), sigma_of(n) - 2 * n)
            for n in range(1, 401)
            if sigma_of(n) > 2 * n
        ]
        monkeypatch.setattr(divisor, "divisors_of", None)  # the sieve alone counts
        assert scan_abundant(400) == expected
        assert scan_abundant(400, 12) == [t for t in expected if t[1] == 12]

    def test_scan_refuses_a_limit_over_the_sieve_bound(self):
        with pytest.raises(TooLarge, match="bound of 10000000"):
            scan_abundant(divisor.SIEVE_LIMIT + 1)

    def test_scan_complete(self):
        listed = {n for n, _, _ in scan_abundant(150)}
        brute = {n for n in range(1, 151) if sigma_of(n) > 2 * n}
        assert listed == brute


class TestPrimeMultiples:
    def test_counts_agree_for_six(self):
        cmp = compare_prime_multiples(6, 31, 37)
        assert cmp.equal and cmp.count_p == cmp.count_q
        assert cmp.player_count == 8
        assert cmp.count_p == count_winning(divisor_system(186).system)

    def test_counts_agree_for_twelve(self):
        cmp = compare_prime_multiples(12, 31, 37)
        assert cmp.equal
        assert cmp.player_count == 12

    def test_preconditions(self):
        with pytest.raises(PreconditionFailed):
            compare_prime_multiples(6, 4, 37)  # not prime
        with pytest.raises(PreconditionFailed):
            compare_prime_multiples(6, 5, 37)  # prime but too small
        with pytest.raises(PreconditionFailed):
            compare_prime_multiples(6, 31, 31)  # must be distinct

    @pytest.mark.parametrize("r", [-7, 0, 1, 4, 9, 91, 961])
    def test_a_non_prime_is_named(self, r):
        with pytest.raises(PreconditionFailed, match=rf"^{r} is not prime$"):
            compare_prime_multiples(6, 31, r)

    def test_divisor_split_is_checked(self, monkeypatch):
        true_divisors = divisors_of

        def missing_one(n):  # only the product: the primality check reads 31's divisors
            return true_divisors(n)[:-1] if n == 6 * 31 else true_divisors(n)

        monkeypatch.setattr(divisor, "divisors_of", missing_one)
        with pytest.raises(InvariantViolation, match=r"6\*31"):
            compare_prime_multiples(6, 31, 37)


class TestCsv:
    def test_row_schema(self):
        row = report_csv_row(disagreement_report(6))
        assert tuple(row) == SCAN_CSV_COLUMNS
        assert row["n"] == "6" and row["d"] == "4" and row["k"] == "0"
        assert row["banzhaf_vector"] == "7/10;1/10;1/10;1/10"
        assert row["ss_vector"] == "3/4;1/12;1/12;1/12"
        assert row["witness_positions"] == "0;1;2;3"
        assert row["formula_match"] == "Y"

    def test_not_applicable_marker(self):
        assert report_csv_row(disagreement_report(24))["formula_match"] == "NA"


class TestCriticalPlayers:
    def test_on_divisor_six(self):
        system = divisor_system(6).system
        assert critical_players(system, {0, 1}) == (0, 1)  # 6+3 wins, both needed
        assert critical_players(system, {0, 1, 2, 3}) == (0,)
        assert critical_players(system, {1, 2, 3}) == ()  # losing coalition


def test_winning_count_matches_brute_for_small_n():
    for n in (4, 6, 9, 12, 18):
        system = divisor_system(n).system
        assert count_winning(system) == brute_count_winning(system)
