"""The generating-function DP with its table as Python lists: the reference for the packed kernel.

`prefix_sum_rows` expands ``prod_j (1 + y x**w_j)`` one list element at a
time, one list per size row.  `swings` peels a weight off the single row at
every weight below the quota, and `pivot_weight` off the size rows one size
at a time.  `indices` packs the same table into one int; the tests compare
the two field by field and answer by answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial
from operator import add, mul

from votingpower import VotingSystem, indices


def prefix_sum_rows(weights: list[int], qmin: int, by_size: bool) -> list[list[int]]:
    """Prefix sums of the generating function of the coalitions lighter than ``qmin``.

    Row ``s`` is for coalitions of ``s`` members when ``by_size``; otherwise a
    single row covers every size.  Entry ``t`` of a row, ``0 <= t <= qmin``,
    counts its coalitions of weight below ``t``.  A row starts at its size's
    lightest weight, below which it holds only zeros.
    """
    light = sorted(w for w in weights if w < qmin)
    least = [v for v in accumulate(light, initial=0) if v < qmin] if by_size else [0]
    rows = [[1] + [0] * (qmin - 1)] + [[0] * qmin for _ in least[1:]]
    for j, w in enumerate(light):
        if by_size:
            for s in range(min(j + 1, len(rows) - 1), 0, -1):
                start = least[s - 1] + w
                rows[s][start:] = map(add, rows[s][start:], rows[s - 1][start - w : qmin - w])
        else:
            row = rows[0]
            row[w:] = map(add, row[w:], row[: qmin - w])
    return [list(accumulate(row, initial=0)) for row in rows]


def swings(row: list[int], w: int, qmin: int) -> int:
    """Coalitions of the other players that weigh ``qmin - w`` to ``qmin - 1``.

    ``E(<t) = P(<t) - E(<t - w)`` at every ``t`` up to ``qmin``, from the
    lightest; ``E(<t)`` is 0 for ``t <= 0``.
    """
    e = [0] * (qmin + 1)
    for t in range(1, qmin + 1):
        e[t] = row[t] - (e[t - w] if t > w else 0)
    return e[qmin] - e[max(qmin - w, 0)]


def pivot_weight(rows: list[list[int]], w: int, qmin: int, coef: list[int]) -> int:
    """``sum_s coef[s]`` times the coalitions of ``s`` other players in the swing window."""
    e = [0] * len(rows)
    for t in indices._peel_points(w, qmin):
        e = [row[t] - d for row, d in zip(rows, [0] + e)]
    window = [row[qmin] - d - f for row, d, f in zip(rows, [0] + e, e)]
    return sum(map(mul, coef, window))


def reference_dp(system: VotingSystem) -> tuple[int, list[int], list[Fraction]]:
    """Winning coalitions, Banzhaf swing counts and Shapley-Shubik values of a
    winnable game, all from the list tables."""
    weights, qmin = indices._int_game(system)
    n = len(weights)
    (sums,) = prefix_sum_rows(weights, qmin, by_size=False)
    peeled = {w: swings(sums, w, qmin) for w in set(weights) if w}
    fact = [factorial(i) for i in range(n + 1)]
    coef = [fact[s] * fact[n - 1 - s] for s in range(n)]
    rows = prefix_sum_rows(weights, qmin, by_size=True)
    pivots = {w: pivot_weight(rows, w, qmin, coef) for w in set(weights) if w}
    return (
        (1 << n) - sums[qmin],
        [peeled.get(w, 0) for w in weights],
        [Fraction(pivots.get(w, 0), fact[n]) for w in weights],
    )
