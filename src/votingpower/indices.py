"""Power-index engines: enumeration oracles and generating-function dynamic programs.

Both indices count swings.  Player ``i``'s swing window holds, per size
``s``, the losing coalitions of ``s`` other players that win once ``i``
joins.  Banzhaf divides a player's window total by the sum over all players;
Shapley-Shubik weighs size ``s`` by ``s! (n-1-s)! / n!``.  Both engines yield
one window per player, a count for Banzhaf and, for Shapley-Shubik, a packed
int of one `_field_bits` wide field per size; `_banzhaf_index` and
`_ss_index` finish the indices from the windows.

* ``ss_enum_perms`` walks all ``n!`` orderings — the ground-truth oracle for
  the Shapley-Shubik index, practical only for small ``n``.
* ``banzhaf_enum`` / ``ss_enum_subsets`` count all ``2**n`` coalitions from
  two halves of the players (Klinz and Woeginger's split), in about
  ``n * 2**(n/2)`` steps: one bisection per mask of one half into the other
  half's sorted subset sums, then a halving fold over the half's masks.
  That gives, by size, the winning coalitions ``held`` that hold ``i`` and
  all of them, ``total``.  Of the coalitions of ``s`` others, ``held[s+1]``
  win with ``i`` and ``total[s] - held[s]`` win without it, so the window is
  ``(held >> bits) + held - total`` packed: every field a count, nothing
  borrows, and ``bits = 0`` gives Banzhaf's ``2 * held - total``.
* ``banzhaf_dp`` / ``ss_dp`` share one dynamic-programming kernel.  It
  expands ``prod_j (1 + y x**w_j)`` (``y`` marking coalition size, for
  Shapley-Shubik only) over the players lighter than the quota and only
  below it, since a swing's losing side and every losing coalition lie
  there, and keeps prefix sums.  The table is one Python int, packed column
  by column: one column per weight below the quota, one field per size row
  in it, each field `_field_bits` wide for ``L`` light players, wider than
  any count.  A player's factor is a shift and an add of that int, run in C.  Player ``i`` is then
  peeled off with the alternating chain ``E_s(<t) = P_s(<t) - E_{s-1}(<t - w_i)``,
  which visits about ``q / w_i`` points, and its window is what weighs
  ``q - w_i`` to ``q - 1``; players of equal weight share one peel.  On the
  single Banzhaf row the chain unrolls to two stride sums of the prefix
  sums, ``P(<q) - 2 sum_j (-1)**(j-1) P(<q - j w_i)``, each one slice.
  Pseudo-polynomial in the quota, so dozens of players are fine when
  weights are modest integers; a table of more than ``2**23`` cells, or
  whose int takes more than ``2**27`` bytes, is refused with `TooLarge`
  before it is built.  A quota alone over the cell budget names the one-row
  table, the smallest any quantity asks for.

Every engine call scales the game once: `_int_game` gives the weights scaled
to integers and divided by their gcd, and the engine runs on them.  `_route`
makes that call for every engine it routes, and refuses a game whose grand
coalition loses right after it.  ``engine="auto"``, every caller's route,
picks from that integer game alone: the DP when its table fits its budget
with no more cells than the ``2**n`` masks of enumeration, else enumeration.
The enumeration cap guards only ``engine="enum"``.  Enumeration over more
than ``2**18`` masks per half (37 players and up) is refused with `TooLarge`
before a subset sum is built, whichever route picked it.

One pass serves every quantity of a system.  A pass, `_Pass`, also yields
the winning count: the field sum of ``total``, or ``2**n`` less the field
sum of the losing prefix sum ``P(<q)``.  The three dispatchers keep the last
pass in `_last_pass` and reuse it for the same system object (by identity,
never by value) with the same engine and cap.  Shapley-Shubik reuses only a
by-size pass; Banzhaf reuses either kind, a by-size window's count being its
field sum, ``window % (2**bits - 1)`` (``2**bits`` is 1 modulo that, and no
count reaches it); the winning count comes from any.  `count_winning` makes a
one-row pass, as `banzhaf` does, when none serves it, and answers 0 for a
losing game.  So a caller that wants several quantities asks for
Shapley-Shubik first.  The named engines never touch the slot.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, permutations, repeat
from math import factorial, gcd
from operator import add, itemgetter, mul
from typing import NamedTuple

from .core import IndexKind, IndexVector, QuotaMode, VotingSystem, scale_to_integers
from .errors import DegenerateSystem, InvalidInput, TooLarge

#: Default ceiling on the player count for the split-count enumeration engines.
DEFAULT_ENUM_CAP = 24

#: Permutation oracle ceiling (n! blow-up).
PERM_CAP = 9

# The dynamic programs refuse a table of more cells than this before building
# it: a quota-wide row can otherwise exhaust memory.  A cell is one packed
# field of b = _field_bits(L, rows == 1) bits for L light players: the table
# int takes b / 8 bytes per cell, its prefix sums one int per weight.
_DP_CELL_BUDGET = 1 << 23

# They refuse a table int of more bytes than this too: wide fields (many light
# players) can make one within the cell budget, and a build peaks at about 3.3
# times one table int.
_DP_BYTE_BUDGET = 1 << 27

# Enumeration refuses more masks than this in a half of the players before
# building their subset sums: at 2**18 (36 players) the split takes 2-3.4 s
# and about 300 MB, and both grow about fourfold per two players.
_SPLIT_BUDGET = 1 << 18


@dataclass(frozen=True)
class SwingCounts:
    """Per-player counts of winning coalitions the player is critical in."""

    per_player: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class PivotCounts:
    """Per-player counts of orderings the player is pivotal in (out of n!)."""

    per_player: tuple[int, ...]
    total: int


class _Pass(NamedTuple):
    """One engine pass over ``system``, asked for with ``engine`` and ``cap``.

    ``windows`` are the players' swing windows, by size (``fields`` fields of
    ``bits`` each) or, not ``by_size``, plain swing counts (a DP's single row
    has ``bits`` too); ``winning`` is the number of winning coalitions.
    """

    system: VotingSystem | None
    engine: str
    cap: int
    by_size: bool
    windows: list[int]
    fields: int
    bits: int
    winning: int

    def serves(self, system: VotingSystem, engine: str, cap: int) -> bool:
        """Whether this pass is the one a call with these arguments would make."""
        return self.system is system and self.engine == engine and self.cap == cap

    def counts(self) -> list[int]:
        """Each player's swing count: a by-size window's field sum, once per distinct window."""
        if not self.by_size:
            return self.windows
        sums = {v: _field_sum(v, self.bits) for v in set(self.windows)}
        return [sums[v] for v in self.windows]


def _field_sum(packed: int, bits: int) -> int:
    """The sum of the ``bits`` wide fields of ``packed``; ``packed`` itself for ``bits = 0``.

    ``2**bits`` is 1 modulo ``2**bits - 1``, so ``packed`` is its field sum
    modulo that; exact while the sum stays below it, as every swing and
    coalition count here does (at most ``2**L`` or ``2**n``, the fields wider).
    """
    return packed % ((1 << bits) - 1) if bits else packed


def _int_game(system: VotingSystem) -> tuple[list[int], int]:
    """Integer weights over their gcd ``g``, and the least winning weight over ``g``, rounded up."""
    scaled = scale_to_integers(system)
    qmin = scaled.quota2 + (scaled.mode is QuotaMode.STRICTLY_EXCEEDS)
    g = gcd(*scaled.weights) or 1  # all weights zero: nothing to divide
    return [w // g for w in scaled.weights], -(-qmin // g)


def _require_winnable(weights: list[int], qmin: int) -> None:
    if sum(weights) < qmin:
        raise DegenerateSystem("grand coalition loses: no winning coalition exists")


# memoryview formats of the field widths, in bytes, that decode without a loop
_NATIVE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _field_bits(players: int, native: bool) -> int:
    """Whole bytes, more than ``players`` bits, so no count of up to ``2**players``
    coalitions carries; ``native``, 8, 16, 32 or 64 bits below 64 players."""
    if native and players < 64:
        return 1 << max(3, players.bit_length())
    return 8 * (players // 8 + 1)


def _unpack(data: bytes, width: int) -> Iterable[int]:
    """The unsigned little-endian ints of ``width`` bytes each that ``data`` holds.

    Native widths are a cast of the bytes; any other is split into
    ``width``-byte strings and each read as an int, both loops in C.
    """
    if width in _NATIVE_FORMATS and sys.byteorder == "little":
        return memoryview(data).cast(_NATIVE_FORMATS[width])
    chunks = map(itemgetter(0), struct.iter_unpack(f"{width}s", data))
    return map(int.from_bytes, chunks, repeat("little"))


def _field_dot(packed: int, coef: list[int], fields: int, bits: int) -> int:
    """``sum_s coef[s]`` times field ``s`` of ``packed``, over its first ``fields`` fields."""
    return sum(map(mul, coef, _unpack(packed.to_bytes(fields * bits // 8, "little"), bits // 8)))


def _subset_sums(weights: list[int]) -> list[int]:
    """The weight of every bit mask over ``weights`` (bit ``i`` is player ``i``)."""
    sums = [0]
    for w in weights:
        sums += [v + w for v in sums]
    return sums


def _fold(values: list) -> tuple[list, int]:
    """Per bit, the sum of ``values[mask]`` over the masks holding it; and the sum of all.

    Halving fold: the upper half of the list holds the top bit, and adding it
    onto the lower half sums that bit out of every mask.
    """
    held = []
    while len(values) > 1:
        half = len(values) // 2
        upper = values[half:]
        held.append(sum(upper))
        values = list(map(add, values[:half], upper))
    return held[::-1], values[0]


def _winning_counts(weights: list[int], qmin: int, by_size: bool) -> tuple[list, int]:
    """``(held, total)``: per player, the winning coalitions holding it, and all
    winning coalitions; each half of the players is folded in turn.

    A count is an int or, ``by_size``, a packed int with a `_field_bits` wide
    field per coalition size.  The other half's subset sums are sorted
    heaviest first with prefix counts, so for each mask of this half one
    bisection counts the other half's masks that make it win; shifted by the
    mask's size, that count is folded over this half's masks.
    """
    bits = _field_bits(len(weights), native=True) if by_size else 0
    halves = weights[: len(weights) // 2], weights[len(weights) // 2 :]
    # a mask's subset sum, and its size shifted to its field
    masks = [(_subset_sums(half), _subset_sums([bits] * len(half))) for half in halves]
    held = []
    for (sums, shifts), (other, other_shifts) in zip(masks, masks[::-1]):
        heaviest = sorted(range(len(other)), key=other.__getitem__, reverse=True)
        negated = [-other[m] for m in heaviest]  # ascending, for bisect
        counts = list(accumulate([1 << other_shifts[m] for m in heaviest], initial=0))
        values = [counts[bisect_right(negated, v - qmin)] << s for v, s in zip(sums, shifts)]
        part, total = _fold(values)
        held += part
    return held, total


def _banzhaf_index(pass_: _Pass) -> tuple[SwingCounts, IndexVector]:
    """Banzhaf swing counts and index from each player's swing count in ``pass_``."""
    counts = pass_.counts()
    total = sum(counts)
    if total == 0:  # unreachable once the grand coalition wins, kept as a guard
        raise DegenerateSystem("no player is ever critical")
    index = IndexVector(IndexKind.BANZHAF, tuple([Fraction(c, total) for c in counts]))
    return SwingCounts(tuple(counts), total), index


def _ss_index(pass_: _Pass) -> IndexVector:
    """Shapley-Shubik from each player's window in a by-size ``pass_``, of ``fields``
    sizes, ``bits`` each, weighed once per distinct window (players of equal
    weight share one)."""
    windows, fields, bits = pass_.windows, pass_.fields, pass_.bits
    n = len(windows)
    fact = [factorial(i) for i in range(n + 1)]
    coef = [fact[s] * fact[n - 1 - s] for s in range(fields)]
    values = {v: Fraction(_field_dot(v, coef, fields, bits), fact[n]) for v in set(windows)}
    return IndexVector(IndexKind.SHAPLEY_SHUBIK, tuple([values[v] for v in windows]))


def banzhaf_enum(
    system: VotingSystem, *, cap: int = DEFAULT_ENUM_CAP
) -> tuple[SwingCounts, IndexVector]:
    """Banzhaf swing counts and index from all ``2**n`` coalitions."""
    return _banzhaf_index(_windows(system, "enum", cap, by_size=False))


def ss_enum_perms(system: VotingSystem) -> tuple[PivotCounts, IndexVector]:
    """Shapley-Shubik by walking every ordering; the ground-truth oracle.

    The pivot of an ordering is the first player whose arrival makes the
    prefix pass the quota (under the system's own mode).
    """
    n = system.n
    if n > PERM_CAP:
        raise InvalidInput(f"{n} players exceeds the permutation-oracle cap of {PERM_CAP}")
    weights, qmin = _int_game(system)
    _require_winnable(weights, qmin)

    counts = [0] * n
    for perm in permutations(range(n)):
        acc = 0
        for i in perm:
            acc += weights[i]
            if acc >= qmin:
                counts[i] += 1
                break
    total = factorial(n)
    index = IndexVector(
        IndexKind.SHAPLEY_SHUBIK, tuple([Fraction(c, total) for c in counts])
    )
    return PivotCounts(tuple(counts), total), index


def ss_enum_subsets(system: VotingSystem, *, cap: int = DEFAULT_ENUM_CAP) -> IndexVector:
    """Shapley-Shubik from all ``2**n`` coalitions, counted by size."""
    return _ss_index(_windows(system, "enum", cap, by_size=True))


def _table_rows(weights: list[int], qmin: int, by_size: bool) -> tuple[list[int], int]:
    """The players under ``qmin``, lightest first, and the DP table's size rows: one, or,
    ``by_size``, one per size whose lightest coalition of those players weighs under ``qmin``."""
    light = sorted(w for w in weights if w < qmin)
    rows = sum(v < qmin for v in accumulate(light, initial=0)) if by_size else 1
    return light, rows


def _losing_prefix_sums(
    weights: list[int], qmin: int, by_size: bool
) -> tuple[list[int], int, int]:
    """Prefix sums of the generating function of the coalitions lighter than ``qmin``.

    Only players lighter than ``qmin`` can sit in such a coalition, so only
    they are expanded, and only below ``qmin``.  The table is one int of
    ``qmin`` columns of ``rows`` fields, each ``bits`` wide: the field at bit
    ``(t * rows + s) * bits`` counts the coalitions of weight ``t`` and,
    ``by_size``, of ``s`` members (one row covers every size otherwise).
    Multiplying by ``1 + y x**w`` adds to the table a copy of itself shifted
    by ``w`` columns and, ``by_size``, one field.  The copy's part that would
    land at weight ``qmin`` or more is cut before the shift, and with it every
    coalition shifted past the last row, which weighs that much; cutting the
    copy rather than the sum keeps at most three table-sized ints alive.  No
    count or prefix sum reaches ``2**(L + 1)`` for ``L`` light players, so
    fields of `_field_bits` never carry; a single row's are of native width.

    Returns ``(sums, rows, bits)``: ``sums[t]``, ``0 <= t <= qmin``, packs
    the same fields, counting the coalitions of weight below ``t``.
    """
    light, rows = _table_rows(weights, qmin, by_size)
    if rows * qmin > _DP_CELL_BUDGET:
        named = 1 if qmin > _DP_CELL_BUDGET else rows  # the smallest table refused
        raise TooLarge(
            f"the dynamic program needs {named} x {qmin} table cells, "
            f"over its budget of {_DP_CELL_BUDGET}"
        )
    bits = _field_bits(len(light), native=rows == 1)
    column = rows * bits
    size = qmin * column
    if size // 8 > _DP_BYTE_BUDGET:
        raise TooLarge(
            f"the dynamic program needs {rows} x {qmin} table cells of {bits} bits, "
            f"{size // 8} bytes, over its budget of {_DP_BYTE_BUDGET} bytes"
        )
    table = 1
    for w in light:
        shift = w * column + by_size * bits
        if table.bit_length() > size - shift:  # cut what would land at weight qmin or more
            table += (table & (1 << size - shift) - 1) << shift
        else:
            table += table << shift
    data = table.to_bytes(size // 8, "little")
    del table  # the decode needs only the bytes
    return list(accumulate(_unpack(data, column // 8), initial=0)), rows, bits


def _peel_points(w: int, qmin: int) -> range:
    """``qmin - w, qmin - 2w, ...`` down to 1, lowest first; empty when ``w >= qmin``."""
    return range((qmin - w - 1) % w + 1, qmin - w + 1, w)


def _size_window(sums: list[int], w: int, qmin: int, bits: int) -> int:
    """The coalitions of the other players in the swing window, packed by size.

    ``sums`` are the prefix sums ``P(<t)`` over every light player.  Without a
    player of weight ``w`` they are ``E(<t) = P(<t) - E(<t - w)``, and the
    window holds ``E(<qmin) - E(<qmin - w) = P(<qmin) - 2 E(<qmin - w)``; a
    player at or above ``qmin`` is not among the light ones, so ``E = P``.
    With ``bits = 0`` that is the Banzhaf count, and the chain unrolls into
    two stride sums: ``P(<qmin) - 2 sum_j (-1)**(j-1) P(<qmin - j w)`` over
    ``j >= 1`` with ``qmin - j w >= 0`` (``P(<0)`` is 0).  On the packed rows of
    `_losing_prefix_sums` the same peel runs size by size:
    ``E_s(<t) = P_s(<t) - E_{s-1}(<t - w)`` is one shift of ``E`` by a field,
    and the window of size ``s`` holds
    ``P_s(<qmin) - E_{s-1}(<qmin - w) - E_s(<qmin - w)``.  Every field stays a
    count, so no subtraction borrows across fields, and the shift never
    leaves the rows: ``E_{rows-1}(<qmin - w)`` is 0, since such a coalition
    and the player would be ``rows`` light players lighter than ``qmin``.
    """
    if not bits:  # a slice start below 0 would wrap to the end of ``sums``
        odd = sum(sums[qmin - w :: -2 * w]) if w <= qmin else 0
        even = sum(sums[qmin - 2 * w :: -2 * w]) if 2 * w <= qmin else 0
        return sums[qmin] - 2 * (odd - even)
    e = 0
    for t in _peel_points(w, qmin):
        e = sums[t] - (e << bits)
    return sums[qmin] - (e << bits) - e


def banzhaf_dp(system: VotingSystem) -> tuple[SwingCounts, IndexVector]:
    """Banzhaf counts from the subset-weight generating function ``prod_j (1 + x**w_j)``."""
    return _banzhaf_index(_windows(system, "dp", DEFAULT_ENUM_CAP, by_size=False))


def ss_dp(system: VotingSystem) -> IndexVector:
    """Shapley-Shubik from the joint (cardinality, weight) generating function."""
    return _ss_index(_windows(system, "dp", DEFAULT_ENUM_CAP, by_size=True))


def _route(
    system: VotingSystem, engine: str, cap: int, by_size: bool
) -> tuple[str, list[int], int]:
    """``engine``, or the pick for "auto" (see above; it never reads ``cap``), with the
    game scaled once by `_int_game`; "enum" over ``cap`` is refused first, a losing game
    next.  Enumeration over `_SPLIT_BUDGET` masks per half is refused, whichever route picked it."""
    if engine not in ("enum", "dp", "auto"):
        raise InvalidInput(f"unknown engine {engine!r} (expected enum, dp or auto)")
    if engine == "enum" and system.n > cap:
        raise InvalidInput(f"{system.n} players exceeds the enumeration cap of {cap}")
    weights, qmin = _int_game(system)
    _require_winnable(weights, qmin)
    if engine == "auto":
        cells = _table_rows(weights, qmin, by_size)[1] * qmin
        engine = "dp" if cells <= min(1 << system.n, _DP_CELL_BUDGET) else "enum"
    masks = 1 << (system.n + 1) // 2
    if engine == "enum" and masks > _SPLIT_BUDGET:
        raise TooLarge(
            f"enumeration needs {masks} masks per half of the players, "
            f"over its budget of {_SPLIT_BUDGET}"
        )
    return engine, weights, qmin


def _windows(system: VotingSystem, engine: str, cap: int, by_size: bool) -> _Pass:
    """The pass of the engine `_route` picks: per player, the swing window, and the
    winning count.  Enumeration's window is ``(held >> bits) + held - total``
    off `_winning_counts` (see above), its winning count the field sum of
    ``total``; the DP's window is peeled off its table, one peel per distinct
    nonzero weight (a zero weight swings nothing), and its winning count is
    ``2**n`` less the losing coalitions, ``P(<qmin)``."""
    route, weights, qmin = _route(system, engine, cap, by_size)
    if route == "enum":
        bits = _field_bits(len(weights), native=True) if by_size else 0
        held, total = _winning_counts(weights, qmin, by_size)
        windows = [(h >> bits) + h - total for h in held]
        return _Pass(system, engine, cap, by_size, windows, system.n, bits, _field_sum(total, bits))
    sums, rows, bits = _losing_prefix_sums(weights, qmin, by_size)
    size_bits = bits if by_size else 0  # a single row holds plain counts
    peeled = {w: _size_window(sums, w, qmin, size_bits) for w in set(weights) if w}
    windows = [peeled.get(w, 0) for w in weights]
    winning = (1 << system.n) - _field_sum(sums[qmin], size_bits)
    return _Pass(system, engine, cap, by_size, windows, rows, bits, winning)


# The last pass a dispatcher made.  Only the three dispatchers name it: each
# reads it once, and a pass replaces it in one assignment.  It holds the
# windows, never a DP table.
_last_pass = _Pass(None, "", 0, False, [], 0, 0, 0)


def banzhaf(
    system: VotingSystem, engine: str = "auto", *, cap: int = DEFAULT_ENUM_CAP
) -> tuple[SwingCounts, IndexVector]:
    """Banzhaf counts and index through the chosen engine (enum, dp or auto).

    Reuses the last pass over this ``system`` object with this engine and
    cap, by size or not."""
    global _last_pass
    last = _last_pass
    if not last.serves(system, engine, cap):
        last = _last_pass = _windows(system, engine, cap, by_size=False)
    return _banzhaf_index(last)


def shapley_shubik(
    system: VotingSystem, engine: str = "auto", *, cap: int = DEFAULT_ENUM_CAP
) -> IndexVector:
    """Shapley-Shubik index through the chosen engine (enum, dp or auto).

    Reuses the last pass over this ``system`` object with this engine and
    cap when it was by size; its pass serves `banzhaf` and `count_winning`."""
    global _last_pass
    last = _last_pass
    if not (last.by_size and last.serves(system, engine, cap)):
        last = _last_pass = _windows(system, engine, cap, by_size=True)
    return _ss_index(last)


def count_winning(
    system: VotingSystem, engine: str = "auto", *, cap: int = DEFAULT_ENUM_CAP
) -> int:
    """Number of winning coalitions (the empty coalition counts as losing).

    Read off the last pass over this ``system`` object with this engine and
    cap, or off a new one-row pass, kept as `banzhaf` keeps it.  A game whose
    grand coalition loses answers 0 before any table is built.
    """
    global _last_pass
    last = _last_pass
    if not last.serves(system, engine, cap):
        try:
            last = _last_pass = _windows(system, engine, cap, by_size=False)
        except DegenerateSystem:  # the grand coalition loses
            return 0
    return last.winning
