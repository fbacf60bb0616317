"""Brute-force oracles shared across the test suite.

Deliberately independent of the package engines: they work straight on the
rational weights with `itertools`, never rescaling to integers, so any bug in
the scaling or dynamic-programming layers cannot hide here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from votingpower import QuotaMode, VotingSystem


def brute_passes(system: VotingSystem, weight: Fraction) -> bool:
    if system.mode is QuotaMode.STRICTLY_EXCEEDS:
        return weight > system.quota
    return weight >= system.quota


def brute_winning(system: VotingSystem, members: frozenset[int]) -> bool:
    return brute_passes(system, sum((system.weights[i] for i in members), Fraction(0)))


def all_coalitions(n: int):
    players = range(n)
    for size in range(n + 1):
        for combo in combinations(players, size):
            yield frozenset(combo)


def brute_swing_counts(system: VotingSystem) -> list[int]:
    counts = [0] * system.n
    for coalition in all_coalitions(system.n):
        if not brute_winning(system, coalition):
            continue
        for i in coalition:
            if not brute_winning(system, coalition - {i}):
                counts[i] += 1
    return counts


def brute_banzhaf(system: VotingSystem) -> list[Fraction]:
    counts = brute_swing_counts(system)
    total = sum(counts)
    return [Fraction(c, total) for c in counts]


def brute_pivot_counts(system: VotingSystem) -> list[int]:
    counts = [0] * system.n
    for order in permutations(range(system.n)):
        acc = Fraction(0)
        for i in order:
            acc += system.weights[i]
            if brute_passes(system, acc):
                counts[i] += 1
                break
    return counts


def brute_ss(system: VotingSystem) -> list[Fraction]:
    counts = brute_pivot_counts(system)
    return [Fraction(c, factorial(system.n)) for c in counts]


def brute_size_windows(system: VotingSystem) -> list[list[int]]:
    """Per player ``i`` and size ``s``: the losing coalitions of ``s`` other
    players that win once ``i`` joins them."""
    windows = [[0] * system.n for _ in range(system.n)]
    for coalition in all_coalitions(system.n):
        if brute_winning(system, coalition):
            continue
        for i in range(system.n):
            if i not in coalition and brute_winning(system, coalition | {i}):
                windows[i][len(coalition)] += 1
    return windows


def brute_count_winning(system: VotingSystem) -> int:
    return sum(1 for c in all_coalitions(system.n) if brute_winning(system, c))


def random_system(
    rng: random.Random, max_n: int = 12, max_weight: int = 50
) -> VotingSystem:
    """A random integer-weighted system whose grand coalition always wins."""
    n = rng.randint(1, max_n)
    weights = [rng.randint(0, max_weight) for _ in range(n)]
    if sum(weights) == 0:
        weights[-1] = 1
    total = sum(weights)
    quota = Fraction(rng.randint(1, total))
    mode = rng.choice((QuotaMode.MEETS_OR_EXCEEDS, QuotaMode.STRICTLY_EXCEEDS))
    if mode is QuotaMode.STRICTLY_EXCEEDS and quota == total:
        quota -= Fraction(1, 2)
    return VotingSystem(quota=quota, mode=mode, weights=tuple(map(Fraction, weights)))
