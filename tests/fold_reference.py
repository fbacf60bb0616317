"""Enumeration over every one of the ``2**n`` bit masks: the reference for the split count.

`winning_slices` tabulates which masks win, a slice of ``2**block_bits``
masks at a time, one slice per setting of the players above the block, and
`fold` reads every player's tally off one halving fold of a slice.
`indices` counts the same coalitions from the two sorted halves of the
players; the tests compare the two engine by engine.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import compress
from math import factorial
from operator import add

from votingpower import VotingSystem, indices

BLOCK_BITS = 20


def winning_slices(
    weights: list[int], qmin: int, block_bits: int = BLOCK_BITS
) -> Iterator[tuple[int, list[bool]]]:
    """Yield ``(high, flags)``: whether each mask of the block's players wins.

    The block is the first ``block_bits`` players; ``high`` is a mask of the
    players above it, who sit in every coalition of its slice, so a block
    mask wins when it weighs at least ``qmin`` less their weight.  The masks
    holding the block's last player are compared against that less its
    weight, so only the subset sums of the block's other players are built.
    """
    *rest, last = weights[:block_bits]
    sums = indices._subset_sums(rest)
    aboves = indices._subset_sums(weights[block_bits:])
    for high, above in enumerate(aboves):
        need = qmin - above
        yield high, [v >= need for v in sums] + [v >= need - last for v in sums]


def fold(values: list) -> tuple[list, int]:
    """Per bit, the sum of ``values[mask]`` over the masks holding it; and the sum of all."""
    held = []
    while len(values) > 1:
        half = len(values) // 2
        upper = values[half:]
        held.append(sum(upper))
        values = list(map(add, values[:half], upper))
    return held[::-1], values[0]


def credit(held: list[int], values: list, high: int) -> int:
    """Add to ``held[i]`` the sum of a slice's ``values`` over its masks holding player ``i``.

    A player above the block is in every mask of the slice or in none, so it
    gets the slice's total or nothing.  Returns that total.
    """
    block, total = fold(values)
    for i, v in enumerate(block):
        held[i] += v
    for i in range(len(block), len(held)):
        if high >> (i - len(block)) & 1:
            held[i] += total
    return total


def count_winning(system: VotingSystem, block_bits: int = BLOCK_BITS) -> int:
    """Winning coalitions, one slice of flags at a time."""
    weights, qmin = indices._int_game(system)
    return sum(sum(winning) for _, winning in winning_slices(weights, qmin, block_bits))


def swing_counts(system: VotingSystem, block_bits: int = BLOCK_BITS) -> list[int]:
    """Banzhaf swings: winning masks holding each player less those lacking it."""
    weights, qmin = indices._int_game(system)
    held, total = [0] * system.n, 0
    for high, winning in winning_slices(weights, qmin, block_bits):
        total += credit(held, winning, high)
    return [2 * c - total for c in held]


def ss_values(system: VotingSystem, block_bits: int = BLOCK_BITS) -> list[Fraction]:
    """Shapley-Shubik values of a winnable game by the subset form's swing identity."""
    n = system.n
    weights, qmin = indices._int_game(system)
    fact = [factorial(i) for i in range(n + 1)]
    f_with = [0] + [fact[k - 1] * fact[n - k] for k in range(1, n + 1)]
    f_without = [fact[k] * fact[n - 1 - k] for k in range(n)] + [0]
    f_both = list(map(add, f_with, f_without))
    held, lost = [0] * n, 0
    for high, winning in winning_slices(weights, qmin, block_bits):
        above = high.bit_count()
        both, without = f_both[above:], f_without[above:]
        lost += sum(without[m.bit_count()] for m in compress(range(len(winning)), winning))
        credit(held, [both[m.bit_count()] if won else 0 for m, won in enumerate(winning)], high)
    return [Fraction(v - lost, fact[n]) for v in held]
