"""Engine tests: frozen values, oracle agreement, and structural properties."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votingpower import (
    DEFAULT_ENUM_CAP,
    DegenerateSystem,
    IndexKind,
    InvalidInput,
    QuotaMode,
    TooLarge,
    VotingSystem,
    banzhaf,
    banzhaf_dp,
    banzhaf_enum,
    count_winning,
    shapley_shubik,
    ss_dp,
    ss_enum_perms,
    ss_enum_subsets,
)
from votingpower import indices
from conftest import (
    all_coalitions,
    brute_banzhaf,
    brute_count_winning,
    brute_pivot_counts,
    brute_size_windows,
    brute_ss,
    brute_swing_counts,
    brute_winning,
    random_system,
)
import fold_reference
from list_kernel import pivot_weight, prefix_sum_rows, reference_dp, swings

ENGINE_PAIRS = [
    ("banzhaf_enum", lambda s: banzhaf_enum(s)[1].values),
    ("banzhaf_dp", lambda s: banzhaf_dp(s)[1].values),
    ("ss_subsets", lambda s: ss_enum_subsets(s).values),
    ("ss_dp", lambda s: ss_dp(s).values),
]


def brute_ss_subsets(system: VotingSystem) -> list[Fraction]:
    """Shapley-Shubik in subset form, straight off the coalition definitions.

    Affordable where the permutation oracle is not (12 players: 4096
    coalitions against 479 million orderings).
    """
    n = system.n
    nums = [0] * n
    for coalition in all_coalitions(n):
        if not brute_winning(system, coalition):
            continue
        k = len(coalition)
        for i in coalition:
            if not brute_winning(system, coalition - {i}):
                nums[i] += factorial(k - 1) * factorial(n - k)
    return [Fraction(v, factorial(n)) for v in nums]


class TestFrozenValues:
    def test_three_player_ge(self):
        s = VotingSystem(quota=3, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(2, 1, 1))
        swings, bz = banzhaf_enum(s)
        assert swings.per_player == (3, 1, 1) and swings.total == 5
        assert bz.values == (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))
        pivots, ss = ss_enum_perms(s)
        assert pivots.per_player == (4, 1, 1) and pivots.total == 6
        assert ss.values == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
        assert count_winning(s) == 3

    def test_half_quota_strict(self):
        s = VotingSystem(
            quota=Fraction(1, 2),
            mode=QuotaMode.STRICTLY_EXCEEDS,
            weights=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        )
        assert count_winning(s) == 3
        assert ss_dp(s).values == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
        assert banzhaf_dp(s)[1].values == (
            Fraction(3, 5),
            Fraction(1, 5),
            Fraction(1, 5),
        )

    def test_dictator(self):
        s = VotingSystem(quota=3, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(3, 1, 1))
        for _, engine in ENGINE_PAIRS:
            assert engine(s) == (Fraction(1), Fraction(0), Fraction(0))

    def test_divisor_six_weights(self):
        s = VotingSystem(
            quota=Fraction(13, 2), mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(6, 3, 2, 1)
        )
        assert count_winning(s) == 7
        assert banzhaf_dp(s)[1].values == (
            Fraction(7, 10),
            Fraction(1, 10),
            Fraction(1, 10),
            Fraction(1, 10),
        )
        assert ss_dp(s).values == (
            Fraction(3, 4),
            Fraction(1, 12),
            Fraction(1, 12),
            Fraction(1, 12),
        )


@pytest.fixture(scope="module")
def small_batch():
    rng = random.Random(2024)
    return [random_system(rng, max_n=8, max_weight=12) for _ in range(60)]


class TestOracleAgreement:
    def test_banzhaf_engines_match_brute(self, small_batch):
        for s in small_batch:
            try:
                expected = brute_banzhaf(s)
            except ZeroDivisionError:
                with pytest.raises(DegenerateSystem):
                    banzhaf_enum(s)
                continue
            swings, via_enum = banzhaf_enum(s)
            assert list(swings.per_player) == brute_swing_counts(s)
            assert list(via_enum.values) == expected
            assert banzhaf_dp(s)[1] == via_enum

    def test_ss_engines_match_brute(self, small_batch):
        for s in small_batch:
            counts = brute_pivot_counts(s)
            if sum(counts) == 0:
                with pytest.raises(DegenerateSystem):
                    ss_enum_subsets(s)
                continue
            expected = brute_ss(s)
            pivots, via_perms = ss_enum_perms(s)
            assert list(pivots.per_player) == counts
            assert pivots.total == factorial(s.n)
            assert list(via_perms.values) == expected
            assert list(ss_enum_subsets(s).values) == expected
            assert list(ss_dp(s).values) == expected

    def test_count_winning_matches_brute(self, small_batch):
        for s in small_batch:
            expected = brute_count_winning(s)
            assert count_winning(s, "enum") == expected
            assert count_winning(s, "dp") == expected

    def test_sliced_fold_matches_brute(self, small_batch):
        for s in small_batch:
            winning = brute_count_winning(s)
            assert count_winning(s, "enum") == winning
            if winning == 0:
                continue
            assert list(banzhaf_enum(s)[0].per_player) == brute_swing_counts(s)
            assert list(ss_enum_subsets(s).values) == brute_ss_subsets(s)

    def test_sliced_fold_matches_dp_at_21_players(self):
        # halves of 10 and 11 players; the last player weighs 8
        weights = (9, 7, 6, 5, 5, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 0, 3, 2, 1, 8)
        s = _system(33, weights, QuotaMode.STRICTLY_EXCEEDS)
        assert count_winning(s, "enum") == count_winning(s, "dp")
        assert banzhaf_enum(s) == banzhaf_dp(s)
        assert ss_enum_subsets(s) == ss_dp(s)

    def test_fold_reference_matches_brute(self, small_batch):
        # a 3-player block splits every game of 4 or more players into slices
        for s in small_batch:
            winning = brute_count_winning(s)
            assert fold_reference.count_winning(s, block_bits=3) == winning
            if winning == 0:
                continue
            assert fold_reference.swing_counts(s, block_bits=3) == brute_swing_counts(s)
            assert fold_reference.ss_values(s, block_bits=3) == brute_ss_subsets(s)

    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 23, 24])
    @pytest.mark.parametrize("quota", ["one", "n"])
    def test_split_matches_dp_at_field_boundaries(self, n, quota):
        # unit weights fill every size field up to C(n, n // 2); the split's
        # packed size fields are 8 bits wide up to 7 players, 16 up to 15, then 32
        s = _system(1 if quota == "one" else n, (1,) * n)
        assert count_winning(s, "enum") == count_winning(s, "dp")
        assert banzhaf_enum(s) == banzhaf_dp(s)
        assert ss_enum_subsets(s) == ss_dp(s)


class TestCapsAndErrors:
    def test_enum_cap(self):
        wide = VotingSystem(quota=1, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(1,) * 25)
        with pytest.raises(InvalidInput):
            banzhaf_enum(wide)
        with pytest.raises(InvalidInput):
            ss_enum_subsets(wide)
        narrow = VotingSystem(quota=2, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(1,) * 5)
        with pytest.raises(InvalidInput):
            banzhaf_enum(narrow, cap=4)
        assert banzhaf_enum(narrow, cap=5)[1] == banzhaf_dp(narrow)[1]

    def test_auto_respects_cap_without_raising(self):
        s = VotingSystem(quota=3, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(2, 1, 1))
        assert count_winning(s, "auto", cap=2) == count_winning(s, "dp") == 3
        assert banzhaf(s, "auto", cap=2) == banzhaf_dp(s)
        assert shapley_shubik(s, "auto", cap=2) == ss_dp(s)

    def test_perm_cap(self):
        s = VotingSystem(quota=1, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(1,) * 10)
        with pytest.raises(InvalidInput):
            ss_enum_perms(s)

    def test_unknown_engine(self):
        s = VotingSystem(quota=1, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(1,))
        with pytest.raises(InvalidInput):
            banzhaf(s, "magic")
        with pytest.raises(InvalidInput):
            count_winning(s, "magic")

    def test_degenerate_when_grand_coalition_loses(self):
        s = VotingSystem(quota=10, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(2, 1))
        for _, engine in ENGINE_PAIRS:
            with pytest.raises(DegenerateSystem):
                engine(s)
        with pytest.raises(DegenerateSystem):
            ss_enum_perms(s)
        assert count_winning(s) == 0  # counting is still well defined

    @pytest.mark.parametrize("mode", tuple(QuotaMode))
    def test_huge_unwinnable_quota_builds_no_table(self, mode):
        # a DP table as wide as this quota would not fit in memory
        for s in (
            VotingSystem(quota=10**12, mode=mode, weights=(1, 1)),
            VotingSystem(quota=10**12, mode=mode, weights=(1,) * 17),
        ):
            # the DP answers without its table, so auto need not enumerate
            for by_size in (False, True):
                assert indices._route(s, "auto", DEFAULT_ENUM_CAP, by_size)[0] == "dp"
            assert count_winning(s, "dp") == 0
            assert count_winning(s) == 0
            with pytest.raises(DegenerateSystem):
                banzhaf_dp(s)
            with pytest.raises(DegenerateSystem):
                ss_dp(s)

    def test_oversized_dp_table_is_refused_and_auto_enumerates(self):
        # 10 size rows of 850000 cells: over the DP's budget of 2**23
        s = _system(850_000, range(90_001, 90_011))
        with pytest.raises(TooLarge):
            ss_dp(s)
        assert shapley_shubik(s) == ss_enum_subsets(s)
        assert banzhaf(s) == banzhaf_enum(s)

    def test_auto_reads_the_table_shape_of_each_index(self):
        # one row of 250 cells is within 2**10 masks; ten size rows are not
        s = _system(250, (1,) * 9 + (300,))
        assert indices._route(s, "auto", DEFAULT_ENUM_CAP, by_size=False)[0] == "dp"
        assert indices._route(s, "auto", DEFAULT_ENUM_CAP, by_size=True)[0] == "enum"

    def test_auto_enumerates_a_table_within_2_to_the_n_but_over_budget(self):
        # 24 players: a one-row table of 10**7 cells is within 2**24 masks,
        # but over the DP's budget of 2**23 cells
        s = _system(10**7, (1,) * 23 + (2 * 10**7,))
        for by_size in (False, True):
            assert indices._route(s, "auto", DEFAULT_ENUM_CAP, by_size)[0] == "enum"
        with pytest.raises(TooLarge):
            count_winning(s, "dp")

    def test_enumeration_over_the_split_budget_is_refused_before_any_subset_sum(
        self, monkeypatch
    ):
        def refused(weights):
            raise AssertionError("subset sums built")

        monkeypatch.setattr(indices, "_subset_sums", refused)
        # 37 players: 2**19 masks in the larger half, over the budget of 2**18;
        # the second is routed to enumeration by auto, its table over 2**23 cells
        ones = _system(19, (1,) * 37)
        wide = _system(19 * 10**6, range(10**6, 10**6 + 37))
        calls = [
            lambda: banzhaf(ones, "enum", cap=37),
            lambda: shapley_shubik(ones, "enum", cap=37),
            lambda: count_winning(ones, "enum", cap=37),
            lambda: banzhaf_enum(ones, cap=40),
            lambda: ss_enum_subsets(ones, cap=40),
            lambda: banzhaf(wide, cap=40),
            lambda: count_winning(wide, cap=40),
        ]
        for call in calls:
            with pytest.raises(TooLarge, match="524288 masks per half"):
                call()
        at_budget = _system(18, (1,) * 36)
        for by_size in (False, True):
            assert indices._route(at_budget, "enum", 36, by_size)[0] == "enum"

    def test_strict_mode_at_exact_total(self):
        s = VotingSystem(quota=3, mode=QuotaMode.STRICTLY_EXCEEDS, weights=(2, 1))
        with pytest.raises(DegenerateSystem):
            banzhaf_dp(s)


def _system(quota, weights, mode=QuotaMode.MEETS_OR_EXCEEDS) -> VotingSystem:
    return VotingSystem(quota=Fraction(quota), mode=mode, weights=tuple(map(Fraction, weights)))


AUTO_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@st.composite
def auto_games(draw) -> tuple[VotingSystem, int, str]:
    """A game, an enumeration cap and the engine ``auto`` must pick for them.

    One route per branch of the rule, the same pick for either index:

    * "small": 10-12 players of weight at most 4, so even the size-by-size
      table has at most ``13 x 48`` cells, within the ``2**n`` masks: DP.
    * "wide": 2-8 players of weight 300-1000, two of them consecutive (so
      the weights' gcd is 1), and a quota of at least half the total, so the
      table is wider than ``2**n`` but within the DP's budget: enumeration.
    * "primes": six or more distinct prime denominators and a quota of at
      least half the total, so the table is over the DP's budget: enumeration.
    * "cap": more players than the cap: DP.

    Quotas stay below the total, so the grand coalition always wins.
    """
    mode = draw(st.sampled_from(tuple(QuotaMode)))
    route = draw(st.sampled_from(("small", "wide", "primes", "cap")))
    if route == "primes":
        dens = draw(st.lists(st.sampled_from(AUTO_PRIMES), min_size=6, max_size=8, unique=True))
        weights = [Fraction(draw(st.integers(p + 1, 2 * p - 1)), p) for p in dens]
        share = Fraction(draw(st.integers(50, 99)), 100)
        return _system(share * sum(weights), weights, mode), DEFAULT_ENUM_CAP, "enum"
    if route == "wide":
        k = draw(st.integers(300, 999))
        weights = draw(st.lists(st.integers(300, 1000), max_size=6)) + [k, k + 1]
        quota = draw(st.integers(-(-sum(weights) // 2), sum(weights) - 1))
        return _system(quota, weights, mode), DEFAULT_ENUM_CAP, "enum"
    weights = draw(st.lists(st.integers(0, 4), min_size=10, max_size=12).filter(any))
    s = _system(draw(st.integers(1, max(1, sum(weights) - 1))), weights, mode)
    if route == "cap":
        return s, draw(st.integers(0, s.n - 1)), "dp"
    return s, DEFAULT_ENUM_CAP, "dp"


def _outcome(index, system: VotingSystem, engine: str, cap: int):
    """The index through one engine, or the type of the refusal it raised."""
    try:
        return index(system, engine, cap=cap)
    except (DegenerateSystem, TooLarge) as exc:
        return type(exc)


class TestStructuralProperties:
    def test_zero_weight_player_is_dummy(self):
        s = VotingSystem(quota=2, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(2, 0, 1))
        for _, engine in ENGINE_PAIRS:
            assert engine(s)[1] == 0

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(0, 15), min_size=1, max_size=7).filter(
            lambda w: sum(w) > 0
        ),
        st.data(),
    )
    def test_permutation_equivariance(self, weights, data):
        quota = data.draw(st.integers(1, sum(weights)))
        perm = data.draw(st.permutations(range(len(weights))))
        s = VotingSystem(
            quota=quota, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=tuple(weights)
        )
        shuffled = VotingSystem(
            quota=quota,
            mode=QuotaMode.MEETS_OR_EXCEEDS,
            weights=tuple(weights[p] for p in perm),
        )
        base = banzhaf_dp(s)[1].values
        assert banzhaf_dp(shuffled)[1].values == tuple(base[p] for p in perm)
        base_ss = ss_dp(s).values
        assert ss_dp(shuffled).values == tuple(base_ss[p] for p in perm)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(0, 15), min_size=1, max_size=7).filter(
            lambda w: sum(w) > 0
        ),
        st.integers(1, 9),
        st.data(),
    )
    def test_scale_invariance(self, weights, factor, data):
        quota = data.draw(st.integers(1, sum(weights)))
        s = VotingSystem(
            quota=quota, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=tuple(weights)
        )
        scaled = VotingSystem(
            quota=quota * factor,
            mode=QuotaMode.MEETS_OR_EXCEEDS,
            weights=tuple(w * factor for w in weights),
        )
        assert banzhaf_dp(s)[1] == banzhaf_dp(scaled)[1]
        assert ss_dp(s) == ss_dp(scaled)

    @settings(deadline=None, max_examples=60)
    @given(auto_games())
    @example((_system(7, (4,) * 6 + (0,) * 6), DEFAULT_ENUM_CAP, "dp"))  # small
    @example((_system(1200, (300, 700, 999)), DEFAULT_ENUM_CAP, "enum"))  # wide
    @example(  # primes: six prime denominators
        (_system(4, [Fraction(p + 1, p) for p in AUTO_PRIMES[:6]]), DEFAULT_ENUM_CAP, "enum")
    )
    @example((_system(3, (2,) + (1,) * 9), 2, "dp"))  # cap
    def test_auto_engine_agrees_with_explicit(self, game):
        s, cap, pick = game
        for by_size in (False, True):
            assert indices._route(s, "auto", cap, by_size)[0] == pick
        for index in (banzhaf, shapley_shubik, count_winning):
            auto = _outcome(index, s, "auto", cap)
            enum = _outcome(index, s, "enum", DEFAULT_ENUM_CAP)
            dp = _outcome(index, s, "dp", cap)
            assert auto == enum
            assert dp == enum or dp is TooLarge


@st.composite
def kernel_games(draw, max_n: int = 7) -> VotingSystem:
    """Games that reach every branch of the counting kernels.

    Weights come from a few shared values (ties, zero-weight players), times a
    common factor, over a small denominator (``p/q`` weights).  The quota is a
    subset sum, a share of the total (often at or below a single weight), or
    above the total by a little or by far (a degenerate game); either quota
    mode.
    """
    n = draw(st.integers(1, max_n))
    values = draw(st.lists(st.integers(0, 12), min_size=1, max_size=n))
    factor = draw(st.integers(1, 6))
    den = draw(st.sampled_from((1, 1, 2, 3, 12)))
    weights = [Fraction(draw(st.sampled_from(values)) * factor, den) for _ in range(n)]
    total = sum(weights, Fraction(0))
    kind = draw(st.sampled_from(("subset", "share", "above")))
    if kind == "subset":
        members = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        quota = sum((w for w, m in zip(weights, members) if m), Fraction(0))
    elif kind == "share":
        quota = total * Fraction(draw(st.integers(1, 100)), 100)
    else:
        quota = total + Fraction(draw(st.sampled_from((1, 2, 3, 10**12))), den)
    if quota <= 0:
        quota = Fraction(1, 2 * den)
    mode = draw(st.sampled_from(tuple(QuotaMode)))
    return VotingSystem(quota=quota, mode=mode, weights=tuple(weights))


class TestKernelBranches:
    """The DP kernel and the enumeration fold against the independent oracles."""

    @settings(deadline=None, max_examples=200)
    @given(kernel_games())
    @example(_system(3, (2, 0, 1, 0)))  # zero-weight players
    @example(_system(5, (7, 5, 2, 1)))  # players at and above the quota
    @example(_system(12, (8, 6, 4, 2)))  # common factor 2
    @example(_system(4, (3, 3, 1, 1, 1)))  # tied weights
    @example(_system(4, (3, 3, 1, 1, 1), QuotaMode.STRICTLY_EXCEEDS))
    @example(_system(6, (4, 2, 3, 1)))  # quota equal to a subset sum
    @example(_system("1/2", ("1/3", "1/6", "1/4", "1/4"), QuotaMode.STRICTLY_EXCEEDS))
    @example(_system(9, (2, 1, 0)))  # the grand coalition loses
    @example(_system(1, (0, 0)))  # every weight zero
    def test_dp_matches_oracles(self, s):
        winning = brute_count_winning(s)
        assert count_winning(s, "dp") == winning
        if winning == 0:
            with pytest.raises(DegenerateSystem):
                banzhaf_dp(s)
            with pytest.raises(DegenerateSystem):
                ss_dp(s)
            return
        swings, bz = banzhaf_dp(s)
        assert list(swings.per_player) == brute_swing_counts(s)
        assert list(bz.values) == brute_banzhaf(s)
        expected_ss = brute_ss(s)
        assert list(ss_dp(s).values) == expected_ss
        assert list(ss_enum_perms(s)[1].values) == expected_ss

    @settings(deadline=None, max_examples=50)
    @given(kernel_games())
    @example(_system(40, [i % 4 for i in range(70)]))  # 70 light players, 72-bit fields
    def test_dp_matches_the_list_kernel(self, s):
        if count_winning(s, "dp") == 0:
            return
        winning, swings, ss = reference_dp(s)
        assert count_winning(s, "dp") == winning
        assert list(banzhaf_dp(s)[0].per_player) == swings
        assert list(ss_dp(s).values) == ss

    @settings(deadline=None, max_examples=30)
    @given(kernel_games(max_n=12))
    @example(_system(9, (2, 1, 0)))
    def test_enum_fold_matches_oracles(self, s):
        winning = brute_count_winning(s)
        assert count_winning(s, "enum") == winning
        if winning == 0:
            with pytest.raises(DegenerateSystem):
                banzhaf_enum(s)
            with pytest.raises(DegenerateSystem):
                ss_enum_subsets(s)
            return
        swings, bz = banzhaf_enum(s)
        assert list(swings.per_player) == brute_swing_counts(s)
        assert list(bz.values) == brute_banzhaf(s)
        assert list(ss_enum_subsets(s).values) == brute_ss_subsets(s)

    @settings(deadline=None, max_examples=4)
    @given(
        st.lists(st.integers(0, 6), min_size=17, max_size=20).filter(any),
        st.integers(1, 100),
        st.sampled_from(tuple(QuotaMode)),
    )
    def test_enum_fold_matches_dp_at_17_to_20_players(self, weights, share, mode):
        quota = max(Fraction(sum(weights) * share, 100), Fraction(1, 2))
        s = VotingSystem(quota=quota, mode=mode, weights=tuple(weights))
        assert count_winning(s, "enum") == count_winning(s, "dp")
        if count_winning(s, "dp") == 0:
            return
        assert banzhaf_enum(s) == banzhaf_dp(s)
        assert ss_enum_subsets(s) == ss_dp(s)

    @settings(deadline=None, max_examples=4)
    @given(
        st.lists(st.sampled_from(AUTO_PRIMES), min_size=13, max_size=20),
        st.data(),
        st.integers(8, 20),
        st.sampled_from(tuple(QuotaMode)),
    )
    def test_split_matches_the_fold_at_13_to_20_players(self, dens, data, block_bits, mode):
        # prime denominators widen the DP table, and 13-20 players are too many for brute force
        weights = [Fraction(data.draw(st.integers(1, 2 * p)), p) for p in dens]
        share = Fraction(data.draw(st.integers(1, 99)), 100)
        s = VotingSystem(quota=share * sum(weights), mode=mode, weights=tuple(weights))
        assert count_winning(s, "enum") == fold_reference.count_winning(s, block_bits)
        assert list(banzhaf_enum(s)[0].per_player) == fold_reference.swing_counts(s, block_bits)
        assert list(ss_enum_subsets(s).values) == fold_reference.ss_values(s, block_bits)


class TestSwingWindows:
    """Both engines' swing windows, decoded size by size, against a brute-force count."""

    @settings(deadline=None, max_examples=100)
    @given(kernel_games(max_n=10))
    @example(_system(4, (3, 3, 1, 1, 1)))  # tied weights share a window
    @example(_system(3, (2, 0, 1, 0)))  # zero-weight players
    @example(_system(5, (7, 5, 2, 1)))  # players at and above the quota
    @example(_system(9, (2, 1, 0)))  # the grand coalition loses
    def test_windows_match_brute(self, s):
        engines = [
            lambda by_size: indices._windows(s, "enum", DEFAULT_ENUM_CAP, by_size),
            lambda by_size: indices._windows(s, "dp", DEFAULT_ENUM_CAP, by_size),
        ]
        if brute_count_winning(s) == 0:
            for engine in engines:
                with pytest.raises(DegenerateSystem):
                    engine(True)
            return
        expected = brute_size_windows(s)
        winning = brute_count_winning(s)
        for engine in engines:
            _, _, _, _, windows, fields, bits, by_size_winning = engine(True)
            assert fields <= s.n and bits % 8 == 0
            assert all(0 <= v < 1 << fields * bits for v in windows)
            field = (1 << bits) - 1
            assert [[v >> k * bits & field for k in range(s.n)] for v in windows] == expected
            plain = engine(False)
            assert plain.windows == [sum(sizes) for sizes in expected]
            assert by_size_winning == plain.winning == winning


class TestPackedTable:
    """The packed DP table, field by field, against the list kernel.

    ``L`` light players of weights ``0..3`` (zero-weight players included)
    and one heavy player.  A quota above the light total makes every one of
    the ``2**L`` light coalitions losing, so the last prefix sum is ``2**L``,
    the largest value a field holds: each ``L`` sits at or next to a boundary
    of the field width, ``8 * (L // 8 + 1)`` by size and 8, 16, 32 or 64 for
    a single row below 64 light players.
    """

    @pytest.mark.parametrize("by_size", [False, True])
    @pytest.mark.parametrize("light", [7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 65, 70])
    def test_fields_match_the_list_kernel(self, light, by_size):
        weights = [i % 4 for i in range(light)]
        for qmin in (sum(weights) // 2, sum(weights) + 1):
            sums, rows, bits = indices._losing_prefix_sums(weights + [qmin], qmin, by_size)
            reference = prefix_sum_rows(weights + [qmin], qmin, by_size)
            assert bits % 8 == 0 and bits > light
            if not by_size and light < 64:  # one row: a native column width
                assert bits == min(w for w in (8, 16, 32, 64) if w > light)
            else:
                assert bits == 8 * (light // 8 + 1)
            assert rows == len(reference) and len(sums) == qmin + 1
            field = (1 << bits) - 1
            for t, packed in enumerate(sums):
                assert packed >> rows * bits == 0
                assert [packed >> s * bits & field for s in range(rows)] == [
                    row[t] for row in reference
                ]
        assert sum(row[qmin] for row in reference) == 1 << light


class TestDecodeAndPeel:
    """The C-level decode and the stride-sum Banzhaf peel against per-item loops."""

    @settings(deadline=None, max_examples=100)
    @given(kernel_games())
    @example(_system(3, (1, 1, 1)))  # w = 1: every point is a peel point
    @example(_system(5, (7, 5, 2, 1)))  # w >= qmin: no peel point
    @example(_system(5, (3, 1, 1, 1)))  # qmin < 2w: one odd point, no even one
    @example(_system(6, (3, 2, 1, 1)))  # qmin = 2w: the even stride ends at 0
    @example(_system(3, (2, 0, 1, 0)))  # zero weights
    @example(_system(4, (3, 5)))  # a single light player
    def test_stride_peel_matches_the_chain(self, s):
        weights, qmin = indices._int_game(s)
        if sum(weights) < qmin:
            return  # the grand coalition loses: no table is built
        (row,) = prefix_sum_rows(weights, qmin, by_size=False)
        sums, rows, _ = indices._losing_prefix_sums(weights, qmin, by_size=False)
        assert rows == 1 and sums == row
        edges = {1, qmin // 2, (qmin + 1) // 2, qmin - 1, qmin, qmin + 1}
        for w in (set(weights) | edges) - {0}:
            assert indices._size_window(sums, w, qmin, 0) == swings(row, w, qmin), w

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 45])
    def test_unpack_matches_int_from_bytes(self, width):
        rng = random.Random(width)
        for count in (0, 1, 5):
            data = rng.randbytes(count * width)
            expected = [
                int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)
            ]
            assert list(indices._unpack(data, width)) == expected
        assert list(indices._unpack(b"\xff" * width, width)) == [(1 << 8 * width) - 1]

    @pytest.mark.parametrize("light, bits", [(16, 24), (23, 24), (32, 40), (39, 40)])
    def test_field_dot_matches_the_list_kernel(self, light, bits):
        weights = [1 + i % 3 for i in range(light)]
        qmin = sum(weights) // 2
        sums, rows, got_bits = indices._losing_prefix_sums(weights, qmin, by_size=True)
        assert got_bits == bits
        reference = prefix_sum_rows(weights, qmin, by_size=True)
        coef = [factorial(s) * factorial(light - 1 - s) for s in range(rows)]
        for w in set(weights):
            window = indices._size_window(sums, w, qmin, bits)
            expected = pivot_weight(reference, w, qmin, coef)
            assert indices._field_dot(window, coef, rows, bits) == expected


DISPATCHERS = (banzhaf, shapley_shubik, count_winning)
REFUSALS = (DegenerateSystem, InvalidInput, TooLarge)


def _dispatch(dispatcher, system: VotingSystem, engine: str, cap: int):
    """A dispatcher's answer, or the type and message of its refusal."""
    try:
        return dispatcher(system, engine, cap=cap)
    except REFUSALS as exc:
        return type(exc), str(exc)


class TestSharedPass:
    """The dispatchers share the last pass over one system object.  In every
    call order each answers, or refuses, as a call on a fresh equal copy does;
    the named engines never use the shared pass."""

    @staticmethod
    def _check_every_order(system: VotingSystem, engine: str, cap: int) -> dict:
        expected = {d: _dispatch(d, replace(system), engine, cap) for d in DISPATCHERS}
        for order in permutations(DISPATCHERS):
            one = replace(system)
            for d in order + order:  # first calls, then calls after every pass
                assert _dispatch(d, one, engine, cap) == expected[d], [f.__name__ for f in order]
        return expected

    @settings(deadline=None, max_examples=100)
    @given(kernel_games(), st.sampled_from(("enum", "dp", "auto")))
    # a DP single-row Banzhaf pass holds counts and a nonzero field width;
    # Shapley-Shubik after it must not read it as a by-size pass
    @example(_system(4, (3, 3, 1, 1, 1)), "dp")
    @example(_system("1/2", ("1/3", "1/6", "1/4", "1/4"), QuotaMode.STRICTLY_EXCEEDS), "enum")
    @example(_system(9, (2, 1, 0)), "auto")  # the grand coalition loses
    def test_every_call_order_matches_fresh_calls(self, s, engine):
        self._check_every_order(s, engine, DEFAULT_ENUM_CAP)

    @pytest.mark.parametrize(
        "s, engine, cap, refused",
        [
            # the grand coalition loses: both indices refuse, the count is 0
            (_system(9, (2, 1, 0)), "dp", DEFAULT_ENUM_CAP, {banzhaf, shapley_shubik}),
            (_system(9, (2, 1, 0)), "enum", DEFAULT_ENUM_CAP, {banzhaf, shapley_shubik}),
            # enumeration over the cap, and over the split budget
            (_system(2, (1,) * 5), "enum", 4, set(DISPATCHERS)),
            (_system(19, (1,) * 37), "enum", 37, set(DISPATCHERS)),
            # 64 size rows of 140000 cells are over the DP's budget, one row is not
            (_system(140_000, (140_000,) + (1,) * 63), "dp", DEFAULT_ENUM_CAP, {shapley_shubik}),
            (_system(140_000, (140_000,) + (1,) * 63), "auto", DEFAULT_ENUM_CAP, {shapley_shubik}),
        ],
        ids=[
            "degenerate-dp", "degenerate-enum", "enum-over-cap", "enum-over-split-budget",
            "by-size-only-dp", "by-size-only-auto",
        ],
    )
    def test_every_call_order_refuses_as_fresh_calls_do(self, s, engine, cap, refused):
        expected = self._check_every_order(s, engine, cap)
        refusals = {d for d, r in expected.items() if isinstance(r, tuple) and r[0] in REFUSALS}
        assert refusals == refused

    @pytest.mark.parametrize("engine", ("enum", "dp", "auto"))
    def test_named_engines_recompute_over_a_held_pass(self, monkeypatch, engine):
        s = _system(4, (3, 3, 1, 1, 1))
        passes = []
        windows = indices._windows

        def counted(*args, **kwargs):
            passes.append(args)
            return windows(*args, **kwargs)

        monkeypatch.setattr(indices, "_windows", counted)
        for dispatcher in (shapley_shubik, banzhaf, count_winning):
            dispatcher(s, engine)
        held = indices._last_pass
        assert held.system is s and len(passes) == 1
        named = (banzhaf_enum, banzhaf_dp, ss_enum_subsets, ss_dp)
        for engine_call in named:
            engine_call(s)
        assert len(passes) == 1 + len(named)
        assert indices._last_pass is held
