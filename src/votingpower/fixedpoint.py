"""Index maps as dynamical systems, and weight families that are fixed points.

`apply_index_map` sends a weight vector to the index vector (Banzhaf or
Shapley-Shubik) of the majority game it defines: quota one half, strictly
exceeded, weights normalized to sum 1.  `iterate` replays that map until the
orbit repeats, classifying the stop as a fixed point, a cycle, or a bailout.

Two parametric families are analyzed in closed form, both with quota 1/2
(strict) and weights summing to 1:

* one-heavy ("ab"): a single player of weight ``a = 1 - m*b`` plus ``m``
  players of weight ``b``;
* two-heavy ("aab"): two players of weight ``a = (1 - m*b)/2`` plus ``m``
  players of weight ``b``.

For each family the heavy player's Shapley-Shubik share depends on ``b``
only through ``floor(1/(2b))``, so the fixed-point equation ``heavies *
share == 1 - m*b`` splits into finitely many linear branches.  One integer
solver, `_branch_points`, takes the heavy count and a share kernel, and keeps
exactly the self-consistent branches.  Results are `fractions.Fraction`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb, floor
from typing import Callable, Sequence

from .core import (
    IndexKind,
    QuotaMode,
    VotingSystem,
    format_rational,
    normalize,
    parse_rational,
    to_rational,
)
from .errors import IntegerBoundary, InvalidFamily, InvalidInput, InvariantViolation, TooLarge
from .indices import banzhaf, shapley_shubik

#: Iteration bailout used when the caller does not pick one.
DEFAULT_MAX_ITERS = 100

# The family solvers visit O(m) branches, and the one-heavy Banzhaf indices sum
# O(m) binomials; above this light count one call takes seconds, so it is refused.
_SOLVE_MAX_M = 200_000

#: Heavy players per family shape; they share ``1 - m*b`` equally.
_HEAVIES = {"ab": 1, "aab": 2}

WeightVector = tuple[Fraction, ...]
#: A branch kernel: the heavy share ``(num, den)`` given ``m`` and ``floor(1/(2b))``.
Share = Callable[[int, int], tuple[int, int]]


def _comb0(n: int, k: int) -> int:
    """Binomial coefficient that is zero outside ``0 <= k <= n``."""
    return comb(n, k) if 0 <= k <= n else 0


def _check_light_count(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidFamily(f"light-player count must be a positive integer, got {m!r}")


def _check_solve_count(m: int) -> None:
    _check_light_count(m)
    if m > _SOLVE_MAX_M:
        raise TooLarge(f"m = {m} light players is over the solvers' bound of {_SOLVE_MAX_M}")


def _family_half(m: int, b) -> Fraction:
    """``1/(2b)`` for a family member with ``m`` lights of weight ``b``, once both are checked."""
    _check_light_count(m)
    b = to_rational(b)
    if b <= 0:
        raise InvalidFamily(f"light weight must be positive, got {b}")
    if m * b >= 1:
        raise InvalidFamily(
            f"light weights must leave positive heavy weight: m*b = {m * b} >= 1"
        )
    return Fraction(1, 2) / b


def _floor_gate(b: Fraction, want_floor: int) -> str:
    """Why a branch formula for ``floor(1/(2b)) == want_floor`` fails at
    ``b``, or "" when that floor holds and ``1/(2b)`` is not an integer."""
    half = Fraction(1, 2) / b
    if half.denominator == 1:
        return f"1/(2b) = {half} is an integer"
    if floor(half) != want_floor:
        return f"floor(1/(2b)) = {floor(half)}, construction needs {want_floor}"
    return ""


def _branch_points(heavies: int, m: int, share: Share, floors: range) -> list[Fraction]:
    """Each light weight ``b`` with ``heavies * share(m, f) == 1 - m*b`` and ``floor(1/(2b))
    == f`` off the integer boundary, in ``floors`` order.  With ``rest = den - heavies*num``
    the branch gives ``b = rest/(m*den)``; it is checked in integers."""
    found = []
    for f in floors:
        num, den = share(m, f)
        rest = den - heavies * num
        if 0 < rest < den:  # b > 0 and the heavy weight > 0
            floor_half, off = divmod(m * den, 2 * rest)  # 1/(2b) = m*den/(2*rest)
            if off and floor_half == f:
                found.append(Fraction(rest, m * den))
    return found


# ---------------------------------------------------------------------------
# One-heavy family: weights (a, b, ..., b) with a = 1 - m*b.
# ---------------------------------------------------------------------------


def ab_heavy_ss_power(m: int, b) -> Fraction:
    """Shapley-Shubik share of the heavy player in the one-heavy family.

    The heavy player is pivotal exactly when the number ``j`` of light
    players already present satisfies ``m - 1/(2b) < j <= 1/(2b)``, and each
    ``j`` in ``0..m`` is equally likely, so the share is the count of
    admissible ``j`` divided by ``m + 1``.  Valid for every positive ``b``
    with ``m*b < 1``, including ``1/(2b)`` integer.
    """
    half = _family_half(m, b)
    hi = min(m, floor(half))
    lo = max(0, floor(m - half) + 1)
    return Fraction(max(0, hi - lo + 1), m + 1)


def _ab_share_given_floor(m: int, f: int) -> tuple[int, int]:
    """Heavy player's Shapley-Shubik share as ``(num, den)``, assuming
    ``floor(1/(2b)) == f`` and ``1/(2b)`` not an integer: it is pivotal for
    the light counts ``m - f <= j <= f`` of the ``m + 1`` equally likely."""
    return max(0, min(m, f) - max(0, m - f) + 1), m + 1


@dataclass(frozen=True)
class BanzhafPair:
    """Banzhaf index of the heavy player and of each light player."""

    heavy: Fraction
    light: Fraction


def ab_banzhaf_indices(m: int, b) -> BanzhafPair:
    """Banzhaf indices in the one-heavy family, from exact swing counts.

    A light player swings either a coalition of exactly ``floor(1/(2b)) + 1``
    lights and no heavy, or one of exactly ``floor(m - 1/(2b)) + 1`` lights
    plus the heavy; the heavy swings every coalition of ``j`` lights with
    ``m - 1/(2b) < j <= 1/(2b)``.  Their binomials are summed by stepping
    ``C(m, j+1) = C(m, j) * (m-j) / (j+1)``.
    """
    _check_solve_count(m)
    half = _family_half(m, b)
    p_min = floor(half) + 1
    q0 = floor(m - half) + 1
    light = _comb0(m - 1, p_min - 1) + _comb0(m - 1, q0 - 1)
    qhi = min(m, floor(half))
    qlo = max(0, q0)
    heavy, term = 0, comb(m, qlo)
    for j in range(qlo, qhi + 1):
        heavy += term
        term = term * (m - j) // (j + 1)
    total = m * light + heavy
    if total == 0:
        raise InvalidFamily("no player ever swings; the game is degenerate")
    return BanzhafPair(Fraction(heavy, total), Fraction(light, total))


@dataclass(frozen=True)
class FamilySpec:
    """A concrete family member: shape, sizes, weights, and gate status.

    ``valid`` reports whether the closed-form gate holds (the floor of
    ``1/(2b)`` lands where the construction assumes, off the integer
    boundary); ``reason`` explains a failed gate.
    """

    shape: str  # "ab" or "aab"
    m: int
    k: int
    offset: int | None
    heavy_weight: Fraction
    light_weight: Fraction
    valid: bool
    reason: str

    def weights(self) -> WeightVector:
        return (self.heavy_weight,) * _HEAVIES[self.shape] + (self.light_weight,) * self.m


def _family_spec(
    shape: str, m: int, k: int, offset: int | None, b: Fraction, want_floor: int, share: Share
) -> FamilySpec:
    """The ``shape`` member with ``m`` lights of weight ``b``, valid when ``floor(1/(2b))`` is
    ``want_floor`` off the integer boundary and the branch share there is the heavy weight."""
    a = (1 - m * b) / _HEAVIES[shape]
    reason = _floor_gate(b, want_floor)
    if not reason and Fraction(*share(m, want_floor)) != a:
        reason = "branch share does not return the heavy weight"
    return FamilySpec(shape, m, k, offset, a, b, not reason, reason)


def ab_family_point(k: int, c: int, parity: str) -> FamilySpec:
    """Candidate one-heavy fixed point with heavy weight ``c/k`` (odd) or
    ``(2c+1)/(2k+1)`` (even).

    ``parity`` selects the light count: "odd" gives ``m = 2k - 1`` with
    ``b = (k - c) / (2k^2 - k)``, "even" gives ``m = 2k`` with
    ``b = (k - c) / (2k^2 + k)``.  The returned record is gate-checked: it is a genuine
    Shapley-Shubik fixed point exactly when ``floor(1/(2b))`` equals
    ``k + c - 1`` (odd) or ``k + c`` (even) and ``1/(2b)`` is not an integer.
    """
    if not isinstance(k, int) or k < 2:
        raise InvalidFamily(f"k must be an integer >= 2, got {k!r}")
    if not isinstance(c, int) or not 1 <= c <= k - 1:
        raise InvalidFamily(f"offset must satisfy 1 <= c <= k-1, got {c!r}")
    if parity == "odd":
        m = 2 * k - 1
        b = Fraction(k - c, 2 * k * k - k)
        a = Fraction(c, k)
        want_floor = k + c - 1
    elif parity == "even":
        m = 2 * k
        b = Fraction(k - c, 2 * k * k + k)
        a = Fraction(2 * c + 1, 2 * k + 1)
        want_floor = k + c
    else:
        raise InvalidFamily(f"parity must be 'odd' or 'even', got {parity!r}")
    if a != 1 - m * b:
        raise InvariantViolation(f"heavy weight {a} is not 1 - {m}*{b}")
    return _family_spec("ab", m, k, c, b, want_floor, _ab_share_given_floor)


def ab_fixed_points(m: int) -> list[Fraction]:
    """Every light weight ``b`` making the one-heavy family a Shapley-Shubik
    fixed point (heavy share equals ``a = 1 - m*b``), in increasing order.

    The share is piecewise constant in ``floor(1/(2b))``, so each floor value
    yields one linear equation for ``b``; integer values of ``1/(2b)`` form
    their own branches.  Degenerate solutions with ``a = 0`` are dropped.
    """
    _check_solve_count(m)
    # Branch 1: 1/(2b) strictly between f and f+1.
    found = _branch_points(1, m, _ab_share_given_floor, range(m // 2, m + 2))

    # Branch 2: 1/(2b) = t exactly, b = 1/(2t); the share count/(m+1) must
    # equal a = (2t - m)/(2t).
    for t in range(m // 2 + 1, m + 2):  # 2t > m, so a > 0
        count = max(0, min(m, t) - max(0, m - t + 1) + 1)
        if 2 * t * count == (m + 1) * (2 * t - m):
            found.append(Fraction(1, 2 * t))

    return sorted(found)


def ab_joint_banzhaf_fixed(k: int, c: int, parity: str) -> bool:
    """Whether the one-heavy point for ``(k, c, parity)`` is also a Banzhaf
    fixed point (each light player's Banzhaf index equals its weight ``b``;
    the heavy's then matches ``a`` automatically since both sides sum to 1).
    """
    spec = ab_family_point(k, c, parity)
    pair = ab_banzhaf_indices(spec.m, spec.light_weight)
    return pair.light == spec.light_weight


# ---------------------------------------------------------------------------
# Two-heavy family: weights (a, a, b, ..., b) with a = (1 - m*b)/2.
# ---------------------------------------------------------------------------


def _span_sum(lo: int, hi: int) -> int:
    """``lo + (lo+1) + ... + hi``, zero when ``hi < lo``."""
    return (lo + hi) * (hi - lo + 1) // 2 if hi >= lo else 0


def _aab_power_given_floor(m: int, f: int) -> tuple[int, int]:
    """Heavy player's Shapley-Shubik share as ``(num, den)``, assuming
    ``floor(1/(2b)) == f`` and ``1/(2b)`` not an integer; linear-branch
    kernel shared by the power evaluator, the solver and the class gate.

    With ``top = m + 1``, the numerator sums ``top - p`` over ``k < p <=
    min(f, m)`` and ``p + 1`` over ``max(m - f, 0) <= p <= k``; both are
    runs of consecutive integers, summed in closed form.
    """
    k = m // 2
    top = m + 1
    num = _span_sum(top - min(f, m), top - k - 1) + _span_sum(max(m - f, 0) + 1, k + 1)
    return num, top * (top + 1)


def aab_heavy_ss_power(m: int, b) -> Fraction:
    """Shapley-Shubik share of either heavy player in the two-heavy family.

    Requires ``1/(2b)`` to be non-integral: on the boundary the pivot
    conditions shift and the branch formula does not apply, so
    `IntegerBoundary` is raised rather than returning a wrong value.  (Exact
    engines still handle boundary weight vectors directly.)
    """
    half = _family_half(m, b)
    if half.denominator == 1:
        raise IntegerBoundary(f"1/(2b) = {half} is an integer; the branch formula does not apply")
    return Fraction(*_aab_power_given_floor(m, floor(half)))


def aab_fixed_points(m: int) -> list[Fraction]:
    """Every light weight ``b`` off the integer boundary making the two-heavy
    family a Shapley-Shubik fixed point (heavy share equals
    ``a = (1 - m*b)/2``), in increasing order.

    Solutions with ``1/(2b)`` integer are deliberately not reported (the
    branch formula breaks there; such boundary fixed points do exist and can
    be confirmed with `is_fixed_point`).  The all-equal solution ``a == b``
    is dropped as trivial.
    """
    _check_solve_count(m)
    found = _branch_points(2, m, _aab_power_given_floor, range(max(1, m // 2), m + 3))
    return sorted(b for b in found if 2 * b != 1 - m * b)  # a == b: all equal


def aab_fixed_point_classes(k: int, parity: str) -> list[FamilySpec]:
    """Closed-form two-heavy fixed-point candidates for size parameter ``k``.

    Even light count ``m = 2k``: ``b = 1/(2k+1)`` and ``b = k/((k+1)(2k+1))``.
    Odd light count ``m = 2k+1``: ``b = (k+1)/((2k+1)(2k+3))``.  Each entry
    is gate-checked like `ab_family_point`; the second even class fails at
    ``k = 1`` where ``1/(2b)`` is an integer.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidFamily(f"k must be a positive integer, got {k!r}")
    if parity == "even":
        m = 2 * k
        candidates = [(Fraction(1, 2 * k + 1), k), (Fraction(k, (k + 1) * (2 * k + 1)), k + 1)]
    elif parity == "odd":
        # 1/(2b) = (2k+2) - 1/(2k+2), so its floor is always 2k+1.
        m = 2 * k + 1
        candidates = [(Fraction(k + 1, (2 * k + 1) * (2 * k + 3)), 2 * k + 1)]
    else:
        raise InvalidFamily(f"parity must be 'odd' or 'even', got {parity!r}")
    return [
        _family_spec("aab", m, k, None, b, want_floor, _aab_power_given_floor)
        for b, want_floor in candidates
    ]


# ---------------------------------------------------------------------------
# The index map as a dynamical system.
# ---------------------------------------------------------------------------


def apply_index_map(weights: Sequence, kind: IndexKind) -> WeightVector:
    """One step of the index map: normalize, form the strict-majority game,
    and return its index vector of the requested kind (engine ``auto``)."""
    normalized = normalize(weights)
    system = VotingSystem(
        quota=Fraction(1, 2), mode=QuotaMode.STRICTLY_EXCEEDS, weights=normalized
    )
    if kind is IndexKind.BANZHAF:
        return banzhaf(system)[1].values
    if kind is IndexKind.SHAPLEY_SHUBIK:
        return shapley_shubik(system).values
    raise InvalidInput(f"unknown index kind {kind!r}")


def is_fixed_point(weights: Sequence, kind: IndexKind) -> bool:
    """True when the normalized weights are their own index vector."""
    normalized = normalize(weights)
    return apply_index_map(normalized, kind) == normalized


@dataclass(frozen=True)
class FixedPoint:
    """Orbit reached a state that maps to itself; ``index`` points at it."""

    index: int


@dataclass(frozen=True)
class Cycle:
    """Orbit re-entered an earlier state: period ``length`` starting at
    position ``entry`` in the state list."""

    entry: int
    length: int


@dataclass(frozen=True)
class MaxIterations:
    """Bailout: no repetition within the allowed number of steps."""

    max_iters: int


Outcome = FixedPoint | Cycle | MaxIterations


@dataclass(frozen=True)
class IterationTrace:
    """States visited by repeated application of an index map, plus how the
    run ended.  ``states[0]`` is the normalized start; the state that would
    repeat an earlier one is not appended again."""

    kind: IndexKind
    states: tuple[WeightVector, ...]
    outcome: Outcome


def _iterate(
    step: Callable[[WeightVector], WeightVector],
    start: WeightVector,
    max_iters: int,
) -> tuple[tuple[WeightVector, ...], Outcome]:
    if max_iters < 1:
        raise InvalidInput(f"max_iters must be positive, got {max_iters!r}")
    states = [start]
    seen = {start: 0}
    for _ in range(max_iters):
        nxt = step(states[-1])
        if nxt == states[-1]:
            return tuple(states), FixedPoint(index=len(states) - 1)
        entry = seen.setdefault(nxt, len(states))
        if entry < len(states):
            return tuple(states), Cycle(entry=entry, length=len(states) - entry)
        states.append(nxt)
    return tuple(states), MaxIterations(max_iters=max_iters)


def iterate(
    weights: Sequence, kind: IndexKind, max_iters: int = DEFAULT_MAX_ITERS
) -> IterationTrace:
    """Iterate the index map from ``weights`` until the orbit repeats or the
    step budget runs out."""
    start = normalize(weights)
    states, outcome = _iterate(lambda s: apply_index_map(s, kind), start, max_iters)
    return IterationTrace(kind=kind, states=states, outcome=outcome)


# ---------------------------------------------------------------------------
# Trace serialization.
# ---------------------------------------------------------------------------


#: Each outcome type by its tag in a trace payload; the payload's other keys
#: are the type's fields, all ints.
_OUTCOME_TAGS = {"fixed": FixedPoint, "cycle": Cycle, "max_iters": MaxIterations}


def trace_to_dict(trace: IterationTrace) -> dict:
    """JSON-ready form of a trace; weights serialize as exact 'p/q' strings."""
    outcome = trace.outcome
    tag = next(tag for tag, cls in _OUTCOME_TAGS.items() if isinstance(outcome, cls))
    return {
        "kind": trace.kind.value,
        "states": [[format_rational(w) for w in state] for state in trace.states],
        "outcome": {"type": tag, **{f.name: getattr(outcome, f.name) for f in fields(outcome)}},
    }


def trace_from_dict(data: dict) -> IterationTrace:
    """Inverse of `trace_to_dict`."""
    try:
        kind = IndexKind(data["kind"])
        states = tuple([tuple([parse_rational(w) for w in state]) for state in data["states"]])
        raw = data["outcome"]
        cls = next((cls for tag, cls in _OUTCOME_TAGS.items() if tag == raw["type"]), None)
        if cls is None:
            raise InvalidInput(f"unknown outcome type {raw['type']!r}")
        outcome: Outcome = cls(**{f.name: int(raw[f.name]) for f in fields(cls)})
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed trace payload: {exc}") from exc
    n = len(states)
    if isinstance(outcome, Cycle):  # a return to the last state is a fixed point, not a cycle
        ends = 0 <= outcome.entry < n - 1 and outcome.entry + outcome.length == n
    else:
        ends = (outcome.index if isinstance(outcome, FixedPoint) else outcome.max_iters) == n - 1
    if not ends or len({len(state) for state in states}) != 1:
        raise InvalidInput(f"no run of iterate gives {n} states of these sizes and {outcome}")
    if any(sum(state) != 1 or min(state) < 0 for state in states):
        raise InvalidInput("every state iterate writes is non-negative and sums to 1")
    return IterationTrace(kind=kind, states=states, outcome=outcome)


def trace_to_json(trace: IterationTrace) -> str:
    return json.dumps(trace_to_dict(trace), indent=2)


def trace_from_json(text: str) -> IterationTrace:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from exc
    return trace_from_dict(data)
