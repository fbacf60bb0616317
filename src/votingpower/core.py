"""Exact building blocks for weighted-voting analysis.

Everything in this package is computed with exact rational arithmetic:
weights, quotas and power indices are `fractions.Fraction` values; swing and
pivot tallies are Python integers.  No floating point is used anywhere.

A voting system is a quota, a comparison mode and an ordered weight vector.
A coalition is a set of player positions (0-based, bit-set semantics over
``0..n-1``).  A coalition wins when its total weight passes the quota under
the system's mode: ``MEETS_OR_EXCEEDS`` (total >= quota) or
``STRICTLY_EXCEEDS`` (total > quota).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import DegenerateSystem, InvalidCoalition, InvalidInput

#: Exact scalar type used for weights, quotas and index values.
Rational = Fraction

#: A coalition is a frozen set of player positions in ``0..n-1``.
Coalition = frozenset

#: Digits allowed in a numerator or a denominator: Python's default limit for
#: int strings, which the CLI lifts so that its results print in full.
_MAX_DIGITS = 4300
_RATIONAL_RE = re.compile(rf"^-?\d{{1,{_MAX_DIGITS}}}(/[1-9]\d{{0,{_MAX_DIGITS - 1}}})?$")
_LONG_DIGITS_RE = re.compile(rf"(\d)\d{{{_MAX_DIGITS},}}")

def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into an exact rational.

    The denominator must be a positive integer; a sign is only accepted on
    the numerator; each part has at most `_MAX_DIGITS` digits.  The value is
    reduced to lowest terms automatically.
    """
    cleaned = text.strip()
    if not _RATIONAL_RE.match(cleaned):
        if _RATIONAL_RE.match(_LONG_DIGITS_RE.sub(r"\1", cleaned)):
            raise InvalidInput(f"number too long: over {_MAX_DIGITS} digits in {cleaned[:20]}...")
        raise InvalidInput(f"not a rational number: {text!r} (expected 'p' or 'p/q')")
    return Fraction(cleaned)


def format_rational(value: Fraction) -> str:
    """Render as ``"p/q"`` in lowest terms, or ``"p"`` when the denominator is 1."""
    return str(value if type(value) is Fraction else Fraction(value))


def to_rational(value) -> Fraction:
    """Coerce an int, `Fraction`, `Decimal` or ``"p/q"`` string to `Fraction`.

    A value whose type is exactly `Fraction` is returned as it is.  Floats
    are refused outright: binary floats misrepresent values like 0.1, and
    everything here is supposed to be exact.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InvalidInput(
            f"refusing float {value!r}: floats are inexact; pass a Fraction, "
            "an int, or a 'p/q' string"
        )
    if isinstance(value, str):
        return parse_rational(value)
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"not a rational value: {value!r}") from exc


class QuotaMode(Enum):
    """How a coalition's weight is compared against the quota."""

    MEETS_OR_EXCEEDS = "ge"
    STRICTLY_EXCEEDS = "gt"


class IndexKind(Enum):
    """Which power index a vector carries."""

    BANZHAF = "banzhaf"
    SHAPLEY_SHUBIK = "shapley_shubik"


@dataclass(frozen=True)
class VotingSystem:
    """A weighted voting system: quota, comparison mode and weight vector.

    Weights are non-negative rationals; the quota must be positive.  The
    weight vector is positional: player ``i`` owns ``weights[i]``.
    """

    quota: Fraction
    mode: QuotaMode
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "quota", to_rational(self.quota))
        # n-tuples come from lists: tuple(<generator>) resizes, so freed ones pile up on free lists.
        object.__setattr__(self, "weights", tuple([to_rational(w) for w in self.weights]))
        if not self.weights:
            raise InvalidInput("a voting system needs at least one player")
        # every value is a Fraction: its sign is its numerator's, with no Fraction comparison
        if any(w.numerator < 0 for w in self.weights):
            raise InvalidInput("weights must be non-negative")
        if self.quota.numerator <= 0:
            raise InvalidInput("quota must be positive")
        if not isinstance(self.mode, QuotaMode):
            raise InvalidInput(f"mode must be a QuotaMode, got {self.mode!r}")

    @property
    def n(self) -> int:
        """Number of players."""
        return len(self.weights)

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def passes(self, weight: Fraction) -> bool:
        """Does this weight pass the quota under the system's mode?"""
        if self.mode is QuotaMode.STRICTLY_EXCEEDS:
            return weight > self.quota
        return weight >= self.quota


def _checked_members(system: VotingSystem, coalition: Iterable[int]) -> frozenset:
    members = frozenset(coalition)
    for i in members:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < system.n:
            raise InvalidCoalition(
                f"player position {i!r} outside 0..{system.n - 1}"
            )
    return members


def coalition_weight(system: VotingSystem, coalition: Iterable[int]) -> Fraction:
    """Exact total weight of the given set of player positions."""
    members = _checked_members(system, coalition)
    return sum((system.weights[i] for i in members), Fraction(0))


def is_winning(system: VotingSystem, coalition: Iterable[int]) -> bool:
    """Does the coalition's weight pass the quota under the system's mode?"""
    return system.passes(coalition_weight(system, coalition))


def critical_players(system: VotingSystem, coalition: Coalition) -> tuple[int, ...]:
    """Members whose departure turns the given winning coalition losing."""
    total = coalition_weight(system, coalition)
    if not system.passes(total):
        return ()
    return tuple(
        [i for i in sorted(coalition) if not system.passes(total - system.weights[i])]
    )


@dataclass(frozen=True)
class ScaledSystem:
    """Integer form of a system: weights and doubled quota share one scale factor."""

    weights: tuple[int, ...]
    quota2: int
    mode: QuotaMode


def scale_to_integers(system: VotingSystem) -> ScaledSystem:
    """Rescale to integer weights and an integer doubled quota.

    All weights and the quota are multiplied by ``2 * L`` where ``L`` is the
    least common multiple of the weight denominators; the extra factor of two
    keeps half-integer quotas (common after halving an odd total) integral.
    If the quota's denominator still does not divide the scale, the scale is
    enlarged minimally.  Scaling by a positive constant never changes which
    coalitions win, so every engine can work on integers.  The scale is a
    multiple of every denominator, so each product is an exact integer
    division, with no `Fraction` in between.
    """
    scale = 2 * lcm(*[w.denominator for w in system.weights])
    quota = system.quota
    scale *= quota.denominator // gcd(quota.denominator, scale)
    weights = tuple([w.numerator * (scale // w.denominator) for w in system.weights])
    return ScaledSystem(weights, quota.numerator * (scale // quota.denominator), system.mode)


def _exact_sum(values: tuple[Fraction, ...]) -> tuple[int, int]:
    """The sum of ``values`` over the lcm of their denominators, without a gcd per term."""
    den = lcm(*[v.denominator for v in values])
    return sum([v.numerator * (den // v.denominator) for v in values]), den


def normalize(weights: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """Divide a non-negative weight vector by its total so it sums to 1.

    A vector that already sums to 1 comes back unchanged, as a tuple.
    """
    ws = tuple([to_rational(w) for w in weights])
    if not ws:
        raise InvalidInput("empty weight vector")
    if any(w.numerator < 0 for w in ws):
        raise InvalidInput("weights must be non-negative")
    num, den = _exact_sum(ws)
    if num == 0:
        raise DegenerateSystem("all weights are zero")
    if num == den:
        return ws
    total = Fraction(num, den)
    return tuple([w / total for w in ws])


@dataclass(frozen=True)
class IndexVector:
    """A power-index vector: one rational per player, summing to exactly 1."""

    kind: IndexKind
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple([to_rational(v) for v in self.values]))
        if any(v.numerator < 0 or v.numerator > v.denominator for v in self.values):
            raise InvalidInput("index entries must lie in [0, 1]")
        num, den = _exact_sum(self.values)
        if num != den:
            raise InvalidInput("index entries must sum to exactly 1")

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)
