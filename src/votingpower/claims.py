"""The paper's claims catalog, re-derived from scratch by the exact engines.

Each suite returns one `Check` per claim: ``PASS`` or ``FAIL`` for a claim
that holds or not, ``FINDING`` for a documented fact that goes beyond a
yes/no check.  `SUITES` maps the stable suite names that ``votingpower
verify`` accepts to functions of the parsed command-line arguments; the
expected values the suites compare against are the module's constants.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import IndexKind, format_rational
from .divisor import compare_prime_multiples, disagreement_report, scan_abundant, sigma_range
from .fixedpoint import (
    aab_fixed_point_classes,
    aab_fixed_points,
    ab_joint_banzhaf_fixed,
    is_fixed_point,
)


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # PASS, FAIL or FINDING
    detail: str


def _check(name: str, ok: bool, detail: str) -> Check:
    return Check(name, "PASS" if ok else "FAIL", detail)


#: Known index values for the smallest perfect-number systems, as exact text.
PERFECT_TOP_VALUES = {
    6: ("7/10", "3/4"),
    28: ("31/36", "5/6"),
    496: ("511/520", "9/10"),
}

#: The census compares the numbers up to this with `EXPECTED_WITNESSES` and
#: reports those above it as FINDING.
WITNESS_TABLE_LIMIT = 1000

#: Numbers up to `WITNESS_TABLE_LIMIT` grouped by excess sigma(n) - 2n, for 0..5.
EXPECTED_WITNESSES = {
    0: (6, 28, 496),
    1: (),
    2: (20, 104, 464, 650),
    3: (18,),
    4: (12, 70, 88),
    5: (),
}

#: All two-heavy fixed points off the integer boundary, by light count.
TWO_HEAVY_SOLUTIONS = {
    2: ("1/3",),
    3: ("2/15",),
    4: ("2/15", "1/5"),
    5: ("3/35", "11/105"),
    6: ("3/28", "1/7"),
    7: ("4/63", "11/126"),
    8: ("13/180", "4/45", "1/9"),
    9: ("5/99", "31/495", "37/495"),
    10: ("7/110", "5/66", "1/11"),
}


def _suite_perfect() -> list[Check]:
    checks = []
    for n, (top_bz, top_ss) in PERFECT_TOP_VALUES.items():
        report = disagreement_report(n)
        checks.append(
            _check(
                f"perfect n={n} formulas",
                report.formula_match is True,
                "engine output matches every closed form"
                if report.formula_match
                else "; ".join(report.formula_notes),
            )
        )
        got = (
            format_rational(report.banzhaf.values[0]),
            format_rational(report.ss.values[0]),
        )
        checks.append(
            _check(
                f"perfect n={n} top seat",
                got == (top_bz, top_ss),
                f"banzhaf {got[0]} (want {top_bz}), shapley-shubik {got[1]} (want {top_ss})",
            )
        )
        checks.append(
            _check(
                f"perfect n={n} indices differ",
                len(report.witnesses) > 0,
                f"witness seats: {list(report.witnesses)}",
            )
        )
    return checks


def _small_excess_witnesses(limit: int) -> dict[int, list[int]]:
    sig = sigma_range(limit)
    found: dict[int, list[int]] = {k: [] for k in range(6)}
    for n in range(2, limit + 1):
        k = sig[n - 1] - 2 * n
        if 0 <= k <= 5:
            found[k].append(n)
    return found


def _suite_census(limit: int) -> list[Check]:
    checks = []
    scan = {n for n, _, _ in scan_abundant(min(limit, 100), 6)}
    checks.append(
        _check(
            "abundant n<=100 with 6 divisors",
            scan == {12, 18, 20},
            f"found {sorted(scan)}",
        )
    )
    checks.append(
        Check(
            "abundant n<=100 with 6 divisors",
            "FINDING",
            "three such numbers exist (12, 18 and 20), not just 20",
        )
    )
    found = _small_excess_witnesses(limit)
    listed = min(limit, WITNESS_TABLE_LIMIT)
    for k in range(6):
        expected = [n for n in EXPECTED_WITNESSES[k] if n <= listed]
        within = [n for n in found[k] if n <= listed]
        checks.append(
            _check(f"excess={k} witnesses up to {listed}", within == expected, f"found {within}")
        )
        checks += [
            Check(f"excess={k} witness n={n}", "FINDING", f"above the table's end at {listed}")
            for n in found[k][len(within) :]
        ]
    return checks


def _suite_small_excess_disagreement(limit: int) -> list[Check]:
    checks = []
    for k, ns in sorted(_small_excess_witnesses(limit).items()):
        for n in ns:
            report = disagreement_report(n)
            checks.append(
                _check(
                    f"n={n} (excess {k}) indices differ",
                    len(report.witnesses) > 0,
                    f"witness seats: {list(report.witnesses)}",
                )
            )
            if report.formula_match is not None:
                verdict = (
                    "closed forms confirmed"
                    if report.formula_match
                    else "closed forms do not all hold here: "
                    + "; ".join(
                        note for note in report.formula_notes if "differs" in note
                    )
                )
                checks.append(Check(f"n={n} (excess {k}) catalog", "FINDING", verdict))
    return checks


def _suite_prime_multiples(n: int | None, p: int, q: int) -> list[Check]:
    bases = (n,) if n is not None else (6, 12)
    checks = []
    for base in bases:
        cmp = compare_prime_multiples(base, p, q)
        checks.append(
            _check(
                f"winning counts {base}*{p} vs {base}*{q}",
                cmp.equal,
                f"{cmp.count_p} vs {cmp.count_q}",
            )
        )
    for base in bases:
        rp = disagreement_report(base * p)
        rq = disagreement_report(base * q)
        checks.append(
            _check(
                f"index vectors {base}*{p} vs {base}*{q}",
                rp.banzhaf.values == rq.banzhaf.values
                and rp.ss.values == rq.ss.values,
                "both index vectors identical seat-by-seat",
            )
        )
    return checks


def _suite_two_heavy_tables() -> list[Check]:
    checks = []
    for m, expected_text in sorted(TWO_HEAVY_SOLUTIONS.items()):
        expected = [Fraction(t) for t in expected_text]
        got = aab_fixed_points(m)
        checks.append(
            _check(
                f"two-heavy solutions m={m}",
                got == sorted(expected),
                f"solver found {{{', '.join(map(format_rational, got))}}}",
            )
        )
        certified = all(
            is_fixed_point(
                ((1 - m * b) / 2, (1 - m * b) / 2) + (b,) * m,
                IndexKind.SHAPLEY_SHUBIK,
            )
            for b in got
        )
        checks.append(
            _check(
                f"two-heavy solutions m={m} engine-certified",
                certified,
                "every solution confirmed by the exact engines",
            )
        )
    for k in (1, 2, 3, 4, 5):
        for parity in ("even", "odd"):
            m = 2 * k if parity == "even" else 2 * k + 1
            if m > 10:
                continue
            for spec in aab_fixed_point_classes(k, parity):
                if spec.valid:
                    ok = spec.light_weight in aab_fixed_points(m)
                    checks.append(
                        _check(
                            f"class point m={m} b={spec.light_weight}",
                            ok,
                            "closed-form class member appears in the solved set",
                        )
                    )
                else:
                    checks.append(
                        Check(
                            f"class point m={m} b={spec.light_weight}",
                            "FINDING",
                            f"gate fails: {spec.reason}",
                        )
                    )
    return checks


def _suite_joint_banzhaf(kmax: int = 8) -> list[Check]:
    checks = []
    for k in range(3, kmax + 1):
        ok = ab_joint_banzhaf_fixed(k, 1, "odd")
        checks.append(
            _check(
                f"one-heavy odd k={k} c=1 banzhaf-fixed",
                ok,
                "light banzhaf index equals the light weight exactly",
            )
        )
    for k in range(3, kmax + 1):
        bad = [c for c in range(2, k) if ab_joint_banzhaf_fixed(k, c, "odd")]
        checks.append(
            _check(
                f"one-heavy odd k={k} c>=2 never banzhaf-fixed",
                not bad,
                "no offset beyond 1 keeps the banzhaf index at the weights",
            )
        )
    for k in range(2, kmax + 1):
        bad = [c for c in range(1, k) if ab_joint_banzhaf_fixed(k, c, "even")]
        checks.append(
            _check(
                f"one-heavy even k={k} never banzhaf-fixed",
                not bad,
                "no even-size point keeps the banzhaf index at the weights",
            )
        )
    return checks


SUITES: dict[str, Callable[[argparse.Namespace], list[Check]]] = {
    "prop21": lambda args: _suite_perfect(),
    "prop22census": lambda args: _suite_census(args.limit),
    "prop24": lambda args: _suite_prime_multiples(args.n, args.p, args.m),
    "conj23": lambda args: _suite_small_excess_disagreement(args.limit),
    "tables32": lambda args: _suite_two_heavy_tables(),
    "sec33": lambda args: _suite_joint_banzhaf(),
}
