"""Voting systems built from the divisors of an integer.

The system for ``n`` gives one seat per divisor of ``n``, weighted by the
divisor itself, with a simple-majority quota over the divisor sum ``sigma``:
``(sigma + 1) / 2`` when ``sigma`` is even, else ``sigma / 2``, both under the
meets-or-exceeds rule (equivalently: strictly more than half the total).

For small abundance excess ``k = sigma(n) - 2n`` (0 through 5) the Banzhaf
and Shapley-Shubik indices of whole player classes collapse to closed forms
in the divisor count alone (and, at excess 4 and 5, the parity of ``n``).
They are written once, as a table keyed by excess and parity;
`case_prediction` evaluates the entry for a system, and `disagreement_report`
checks it against the exact engines, recording every player where the two
indices differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable

from .core import IndexVector, QuotaMode, VotingSystem
from .errors import InvalidInput, InvariantViolation, PreconditionFailed, TooLarge, UnsupportedCase
from .indices import banzhaf, count_winning, shapley_shubik


def divisors_of(n: int) -> tuple[int, ...]:
    """All positive divisors of ``n``, largest first (the seat order).

    Raises `TooLarge` for ``n`` over `TRIAL_DIVISION_LIMIT`, before dividing.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidInput(f"expected a positive integer, got {n!r}")
    if n > TRIAL_DIVISION_LIMIT:
        raise TooLarge(f"{n} is over the trial-division bound of {TRIAL_DIVISION_LIMIT}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(sorted(small + large, reverse=True))


def sigma_of(n: int) -> int:
    """Sum of the positive divisors of ``n``."""
    return sum(divisors_of(n))


def abundance_class(n: int) -> str:
    """'deficient', 'perfect' or 'abundant' by the sign of sigma(n) - 2n."""
    excess = sigma_of(n) - 2 * n
    if excess < 0:
        return "deficient"
    return "perfect" if excess == 0 else "abundant"


#: Largest ``limit`` that the divisor sieve runs to.  It fills two lists of an
#: int per n, sigma(n) and the divisor count d(n): about 0.5 GB together at
#: this bound (nearly every count is a shared small int, 8 bytes a slot),
#: where 10**9 would need gigabytes.
SIEVE_LIMIT = 10**7

#: Largest ``n`` that `divisors_of` trial-divides: its loop runs to ``sqrt(n)``,
#: about a second at this bound.
TRIAL_DIVISION_LIMIT = 10**14


def _divisor_sieve(limit: int) -> tuple[list[int], list[int]]:
    """``sigma(n)`` and the divisor count ``d(n)`` for every ``n`` from 0 to
    ``limit``, from one pass over the divisor pairs ``n = d * k``, ``d <= k``:
    ``d`` and ``k`` are both divisors, one when ``k = d``.  That visits each
    ``n`` once per pair, half as often as once per divisor.

    Raises `TooLarge` for a limit over `SIEVE_LIMIT`, before allocating.
    """
    if limit < 1:
        raise InvalidInput("limit must be positive")
    if limit > SIEVE_LIMIT:
        raise TooLarge(f"limit {limit} is over the divisor sieve's bound of {SIEVE_LIMIT}")
    sig = [0] * (limit + 1)
    count = [0] * (limit + 1)
    for d in range(1, isqrt(limit) + 1):
        sig[d * d] += d
        count[d * d] += 1
        for k in range(d + 1, limit // d + 1):
            sig[d * k] += d + k
            count[d * k] += 2
    return sig, count


def sigma_range(limit: int) -> list[int]:
    """``sigma(n)`` for every ``n`` from 1 to ``limit`` via a divisor sieve.

    Raises `TooLarge` for a limit over `SIEVE_LIMIT`, before allocating.
    """
    return _divisor_sieve(limit)[0][1:]


@dataclass(frozen=True)
class DivisorSystem:
    """A divisor-weighted majority game together with its arithmetic data."""

    n: int
    system: VotingSystem
    divisors: tuple[int, ...]
    sigma: int
    excess: int

    @property
    def player_count(self) -> int:
        return len(self.divisors)


def divisor_system(n: int) -> DivisorSystem:
    """Build the majority game whose players are the divisors of ``n``."""
    divs = divisors_of(n)
    sigma = sum(divs)
    quota = Fraction(sigma + 1, 2) if sigma % 2 == 0 else Fraction(sigma, 2)
    system = VotingSystem(
        quota=quota,
        mode=QuotaMode.MEETS_OR_EXCEEDS,
        weights=tuple([Fraction(d) for d in divs]),
    )
    return DivisorSystem(n=n, system=system, divisors=divs, sigma=sigma, excess=sigma - 2 * n)


@dataclass(frozen=True)
class CasePrediction:
    """Closed-form index values predicted for player classes at a given excess.

    ``top`` is the seat weighted ``n`` itself, ``one`` the seat weighted 1,
    and ``mid`` every other seat.  A ``None`` entry means the catalog makes
    no claim for that class at this excess.  When ``mid_includes_one`` is
    true the ``mid`` values cover the weight-1 seat as well.
    """

    excess: int
    parity: str  # "any", "even" or "odd" (parity of n)
    top_banzhaf: Fraction | None = None
    top_ss: Fraction | None = None
    mid_banzhaf: Fraction | None = None
    mid_ss: Fraction | None = None
    one_banzhaf: Fraction | None = None
    one_ss: Fraction | None = None
    mid_includes_one: bool = False


#: The closed-form catalog, keyed by ``(excess, parity of n)``; the parity is
#: "any" where the forms do not depend on it.  Each entry gives, from the
#: divisor count ``d`` and ``t = 2**(d-1)``, the `CasePrediction` fields of
#: the classes it makes a claim about.
_CATALOG: dict[tuple[int, str], Callable[[int, int], dict]] = {
    (0, "any"): lambda d, t: dict(
        top_banzhaf=Fraction(t - 1, t + d - 2),
        top_ss=Fraction(d - 1, d),
        mid_banzhaf=Fraction(1, t + d - 2),
        mid_ss=Fraction(1, d * (d - 1)),
        one_banzhaf=Fraction(1, t + d - 2),
        one_ss=Fraction(1, d * (d - 1)),
        mid_includes_one=True,
    ),
    (1, "any"): lambda d, t: dict(
        mid_banzhaf=Fraction(2, t + 2 * (d - 2)), mid_ss=Fraction(2, d * (d - 1))
    ),
    (2, "any"): lambda d, t: dict(
        one_banzhaf=Fraction(1, t + 3 * (d - 2) - 2), one_ss=Fraction(1, d * (d - 1))
    ),
    (3, "any"): lambda d, t: dict(
        mid_banzhaf=Fraction(4, t + 4 * (d - 2) - 4), mid_ss=Fraction(2, (d - 1) * (d - 2))
    ),
    (4, "even"): lambda d, t: dict(
        one_banzhaf=Fraction(1, t + 5 * (d - 3) - 1), one_ss=Fraction(2, d * (d - 1) * (d - 2))
    ),
    (4, "odd"): lambda d, t: dict(
        mid_banzhaf=Fraction(4, t + 4 * (d - 2) - 3), mid_ss=Fraction(2, d - 1)
    ),
    (5, "even"): lambda d, t: dict(
        one_banzhaf=Fraction(1, t + 5 * (d - 3) - 2), one_ss=Fraction(2, d * (d - 1) * (d - 2))
    ),
    (5, "odd"): lambda d, t: dict(
        mid_banzhaf=Fraction(4, t + 4 * (d - 2) - 6), mid_ss=Fraction(2, d - 1)
    ),
}


def case_prediction(ds: DivisorSystem) -> CasePrediction:
    """Closed forms for the system's index values, valid for excess 0..5.

    The formulas depend only on the divisor count ``d`` (and, at excess 4
    and 5, on the parity of ``n``).  Raises `UnsupportedCase` outside the
    cataloged range.
    """
    k, d = ds.excess, ds.player_count
    for parity in ("any", "odd" if ds.n % 2 else "even"):
        forms = _CATALOG.get((k, parity))
        if forms is not None:
            return CasePrediction(excess=k, parity=parity, **forms(d, 1 << (d - 1)))
    raise UnsupportedCase(f"no closed-form catalog for excess {k} (supported: 0..5)")


@dataclass(frozen=True)
class DisagreementReport:
    """Exact index vectors for a divisor system plus where they disagree.

    ``witnesses`` lists seat positions (into the descending divisor order)
    whose Banzhaf and Shapley-Shubik values differ.  ``formula_notes``
    records, per predicted class, whether the engines confirmed the closed
    form; ``formula_match`` is None when no catalog entry applies.  ``game``
    is the divisor system both indices were computed for.
    """

    game: DivisorSystem
    banzhaf: IndexVector
    ss: IndexVector
    witnesses: tuple[int, ...]
    prediction: CasePrediction | None
    formula_notes: tuple[str, ...]
    formula_match: bool | None

    @property
    def n(self) -> int:
        return self.game.n

    @property
    def divisors(self) -> tuple[int, ...]:
        return self.game.divisors


def _check_class(
    label: str,
    positions: Iterable[int],
    vector: IndexVector,
    expected: Fraction | None,
    notes: list[str],
    matches: list[bool],
) -> None:
    if expected is None:
        return
    positions = list(positions)
    if not positions:
        notes.append(f"{label}: class empty, nothing to check")
        return
    values = {vector.values[i] for i in positions}
    ok = values == {expected}
    matches.append(ok)
    got = ", ".join(str(v) for v in sorted(values))
    verdict = "matches" if ok else f"differs (engine: {got})"
    notes.append(f"{label}: predicted {expected}, {verdict}")


def disagreement_report(n: int) -> DisagreementReport:
    """Compute both indices for the divisor system of ``n`` and compare them.

    Both come from engine ``auto``; any applicable closed-form catalog entry
    is checked against them.
    """
    ds = divisor_system(n)
    # Shapley-Shubik first: its pass serves Banzhaf too
    try:
        ss = shapley_shubik(ds.system)
    except TooLarge:
        banzhaf(ds.system)  # its one-row table is smaller: when it is refused too, report that
        raise
    _, bz = banzhaf(ds.system)
    witnesses = tuple(
        [i for i, (b, s) in enumerate(zip(bz.values, ss.values)) if b != s]
    )

    try:
        pred = case_prediction(ds)
    except UnsupportedCase:
        pred = None
    notes: list[str] = []
    matches: list[bool] = []
    if pred is not None:
        d = ds.player_count
        mid = range(1, d if pred.mid_includes_one else d - 1)
        _check_class("top banzhaf", [0], bz, pred.top_banzhaf, notes, matches)
        _check_class("top shapley-shubik", [0], ss, pred.top_ss, notes, matches)
        _check_class("mid banzhaf", mid, bz, pred.mid_banzhaf, notes, matches)
        _check_class("mid shapley-shubik", mid, ss, pred.mid_ss, notes, matches)
        _check_class("one banzhaf", [d - 1], bz, pred.one_banzhaf, notes, matches)
        _check_class("one shapley-shubik", [d - 1], ss, pred.one_ss, notes, matches)
    return DisagreementReport(
        game=ds,
        banzhaf=bz,
        ss=ss,
        witnesses=witnesses,
        prediction=pred,
        formula_notes=tuple(notes),
        formula_match=all(matches) if matches else None,
    )


def scan_abundant(limit: int, divisor_count: int | None = None) -> list[tuple[int, int, int]]:
    """All abundant ``n <= limit`` as ``(n, divisor count, excess)`` triples.

    ``divisor_count`` filters to systems with exactly that many players.
    """
    sig, count = _divisor_sieve(limit)
    return [
        (n, count[n], sig[n] - 2 * n)
        for n in range(1, limit + 1)
        if sig[n] > 2 * n and divisor_count in (None, count[n])
    ]


@dataclass(frozen=True)
class PrimeMultipleComparison:
    """Winning-coalition counts for ``n*p`` and ``n*q`` with primes p, q > n."""

    n: int
    p: int
    q: int
    player_count: int
    count_p: int
    count_q: int
    equal: bool


def compare_prime_multiples(n: int, p: int, q: int) -> PrimeMultipleComparison:
    """Count winning coalitions for the divisor systems of ``n*p`` and ``n*q``.

    Requires ``p`` and ``q`` to be distinct primes exceeding ``n``, so both
    products have the same divisor-lattice shape: every divisor of ``n*p`` is
    ``d`` or ``d*p`` for a divisor ``d`` of ``n``, and likewise for ``q``.
    A coalition's winning status then depends only on which lattice positions
    it occupies, not on the prime's value, so the two counts are expected to
    agree; ``equal`` records whether they actually do.
    """
    for r in (p, q):
        if r < 2 or divisors_of(r) != (r, 1):
            raise PreconditionFailed(f"{r} is not prime")
        if r <= n:
            raise PreconditionFailed(f"prime {r} must exceed {n}")
    if p == q:
        raise PreconditionFailed("the two primes must be distinct")

    divs_n = divisors_of(n)
    for r in (p, q):
        got = divisors_of(n * r)
        rebuilt = tuple(sorted([d * r for d in divs_n] + list(divs_n), reverse=True))
        if got != rebuilt:
            raise InvariantViolation(
                f"divisors of {n}*{r} did not split as d and d*{r} over the divisors d of {n}"
            )

    count_p = count_winning(divisor_system(n * p).system)
    count_q = count_winning(divisor_system(n * q).system)
    return PrimeMultipleComparison(
        n=n,
        p=p,
        q=q,
        player_count=2 * len(divs_n),
        count_p=count_p,
        count_q=count_q,
        equal=count_p == count_q,
    )


SCAN_CSV_COLUMNS = (
    "n",
    "d",
    "sigma",
    "k",
    "banzhaf_vector",
    "ss_vector",
    "witness_positions",
    "formula_match",
)


def report_csv_row(report: DisagreementReport) -> dict[str, str]:
    """Flatten a report into the scan CSV schema (vectors semicolon-joined)."""
    if report.formula_match is None:
        match = "NA"
    else:
        match = "Y" if report.formula_match else "N"
    return {
        "n": str(report.n),
        "d": str(len(report.divisors)),
        "sigma": str(report.game.sigma),
        "k": str(report.game.excess),
        "banzhaf_vector": ";".join(str(v) for v in report.banzhaf.values),
        "ss_vector": ";".join(str(v) for v in report.ss.values),
        "witness_positions": ";".join(str(i) for i in report.witnesses),
        "formula_match": match,
    }
