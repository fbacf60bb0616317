"""Seeded input generators for the benchmark workloads.

Each generator turns a seed into a pool of CLI invocations (`Op`). The package
only ever sees the generated argv; the player count `n` rides along so the
correctness gate can tell which oracle can re-check an op.

Pools are stratified: every stratum (a player-count or divisor-count band,
an index kind, a weight type) contributes a fixed number of ops for any seed,
and `_interleave` orders the pool so that every prefix holds the strata in
proportion. A run that cycles the pool for a fixed time therefore measures
the same mix of work on every seed, which is what keeps run-to-run spreads
small while the concrete games still change with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argv and the player count of the game it builds."""

    argv: tuple[str, ...]
    n: int


def _interleave(strata: list[list[Op]]) -> list[Op]:
    """Merge strata so that every prefix of the result keeps their proportions."""
    keyed = [
        ((2 * i + 1) / (2 * len(stratum)), k, op)
        for k, stratum in enumerate(strata)
        for i, op in enumerate(stratum)
    ]
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]


# ---------------------------------------------------------------------------
# divisor-scan: `divisor N --format F` over abundant N <= 1000 with >= 12 seats.
# ---------------------------------------------------------------------------

DIVISOR_LIMIT = 1000
#: Divisor-count bands; the last (27-32 seats: 720, 840, 900, 960) is taken whole.
DIVISOR_BANDS = ((12, 12), (14, 16), (18, 21), (24, 24), (27, 32))
DIVISOR_SHARE = 2  # every other number of each other band, from a seeded start
DIVISOR_FORMATS = ("table", "json", "csv")


def abundant_with_divisor_counts(limit: int) -> list[tuple[int, int]]:
    """``(n, number of divisors)`` for every abundant ``n <= limit``."""
    sigma = [0] * (limit + 1)
    count = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            sigma[m] += d
            count[m] += 1
    return [(n, count[n]) for n in range(1, limit + 1) if sigma[n] > 2 * n]


def _spread(items: list, rng: random.Random) -> list:
    """A seeded order of a sorted list in which every prefix spans the whole list.

    Positions are ranked by a golden-ratio rotation from a random offset;
    by the three-gap theorem the first k of them are nearly evenly spaced.
    """
    offset = rng.random()
    golden = (5**0.5 - 1) / 2
    return [items[i] for i in sorted(range(len(items)), key=lambda i: (offset + i * golden) % 1)]


def divisor_scan(seed: int) -> list[Op]:
    rng = random.Random(f"divisor-scan:{seed}")
    numbers = abundant_with_divisor_counts(DIVISOR_LIMIT)
    strata = []
    for lo, hi in DIVISOR_BANDS:
        band = [(n, d) for n, d in numbers if lo <= d <= hi]  # ascending n: cost grows with n
        if hi != DIVISOR_BANDS[-1][1]:
            band = band[rng.randrange(DIVISOR_SHARE) :: DIVISOR_SHARE][: len(band) // DIVISOR_SHARE]
        stratum = []
        for n, d in _spread(band, rng):
            formats = list(DIVISOR_FORMATS)
            rng.shuffle(formats)
            stratum += [Op(("divisor", str(n), "--format", f), d) for f in formats]
        strata.append(stratum)
    return _interleave(strata)


# ---------------------------------------------------------------------------
# orbit: `fixedpoint --weights W --index K --format json` from integer starts.
# ---------------------------------------------------------------------------

#: (index kind, player count, starts).  Starts per stratum fall roughly as
#: 1/sqrt(mean orbit cost), so the cheap strata give the median many samples
#: while the four heaviest still take about 70% of the time.  Shapley-Shubik
#: orbits cost about ten times more per player and jump again at 11 players,
#: so they stop at 10.
ORBIT_STRATA = (
    ("banzhaf", 8, 460),
    ("banzhaf", 9, 410),
    ("banzhaf", 10, 290),
    ("banzhaf", 11, 210),
    ("banzhaf", 12, 130),
    ("banzhaf", 13, 85),
    ("ss", 8, 240),
    ("ss", 9, 120),
    ("ss", 10, 90),
)
#: Small weights give many ties, which keeps orbit costs within one stratum close.
ORBIT_MAX_WEIGHT = 9


def orbit(seed: int) -> list[Op]:
    rng = random.Random(f"orbit:{seed}")
    strata = []
    for kind, n, starts in ORBIT_STRATA:
        stratum = []
        for _ in range(starts):
            weights = ",".join(str(rng.randint(1, ORBIT_MAX_WEIGHT)) for _ in range(n))
            argv = ("fixedpoint", "--weights", weights, "--index", kind, "--format", "json")
            stratum.append(Op(argv, n))
        strata.append(stratum)
    return _interleave(strata)


# ---------------------------------------------------------------------------
# index-mix: `index --quota Q --weights W --index both --format json`.
# ---------------------------------------------------------------------------

INDEX_GAMES_PER_SIZE = 36
#: Distinct primes, one per player, for the enumeration-side denominators.
_PRIMES = tuple(p for p in range(11, 100) if all(p % q for q in range(2, p)))
_SMALL_DENOMINATORS = (1, 2, 3, 4, 6)


def _index_op(weights: list[Fraction], quota_denominator: int, j: int) -> Op:
    """The ``j``-th game of a stratum.

    Its quota share (50-80% of the total weight, rounded up to the given
    grain) and its quota mode follow from ``j`` alone, so each stratum holds
    the same spread of quotas on every seed.
    """
    mode = ("ge", "gt")[j % 2]
    total = sum(weights)
    share = total * Fraction(50 + (j * 19) % 31, 100)  # 19 and 31 coprime: shares spread
    quota = Fraction(-(-share.numerator * quota_denominator // share.denominator), quota_denominator)
    if quota >= total:  # rounding must leave the grand coalition winning
        quota = total / 2
    argv = (
        "index",
        "--quota", str(quota),
        "--mode", mode,
        "--weights", ",".join(str(w) for w in weights),
        "--index", "both",
        "--engine", "auto",
        "--format", "json",
    )
    return Op(argv, len(weights))


# Each generator returns the weights and the quota grain that keeps the scaled
# total where that stratum means it to be.
def _integer_game(rng: random.Random, n: int) -> tuple[list[Fraction], int]:
    return [Fraction(rng.randint(1, 40)) for _ in range(n)], 1


def _small_denominator_game(rng: random.Random, n: int) -> tuple[list[Fraction], int]:
    weights = [Fraction(rng.randint(1, 12), rng.choice(_SMALL_DENOMINATORS)) for _ in range(n)]
    return weights, 2


def _prime_denominator_game(rng: random.Random, n: int) -> tuple[list[Fraction], int]:
    """Scaled totals from ~10^9 (6 players) to past 10^25 (16): the enumeration side."""
    primes = rng.sample(_PRIMES, n)
    return [Fraction(rng.randint(1, p - 1), p) for p in primes], 100


#: (weight generator, player counts).  Integer and small-denominator games
#: stay on the DP side; prime-denominator games stop at 16 players, where
#: `count_winning` still enumerates (see `index_probes` for the players above).
INDEX_STRATA = (
    (_integer_game, range(6, 21)),
    (_small_denominator_game, range(6, 21)),
    (_prime_denominator_game, range(6, 17)),
)


def index_mix(seed: int) -> list[Op]:
    rng = random.Random(f"index-mix:{seed}")
    strata = []
    for make, sizes in INDEX_STRATA:
        for n in sizes:
            strata.append([_index_op(*make(rng, n), j) for j in range(INDEX_GAMES_PER_SIZE)])
    return _interleave(strata)


_PROBE_DENOMINATORS = (7, 11, 13, 17, 19, 23)


def _mixed_denominator_game(rng: random.Random, n: int) -> tuple[list[Fraction], int]:
    """Every one of six small primes as a denominator, weights of 1 to 4: the
    scaled total is at least 2 * 7436429 * n, past 2.5 * 10^8 for n >= 17."""
    denominators = [_PROBE_DENOMINATORS[i % len(_PROBE_DENOMINATORS)] for i in range(n)]
    rng.shuffle(denominators)
    return [Fraction(rng.randint(q, 4 * q), q) for q in denominators], 100


def index_probes(seed: int) -> list[Op]:
    """Inputs that hit known defects of `index --engine auto` at this commit.

    With 17-20 players `count_winning` picks its DP whatever the scaled total,
    so mixed-denominator games ask for a table of over 2.5 * 10^8 entries (a
    `MemoryError` under the child's address-space cap), and 25 players with
    ``1/p`` weights overflow the DP's list size (`OverflowError`).  Probes run
    untimed, in the traced run only.
    """
    rng = random.Random(f"index-probes:{seed}")
    probes = [_index_op(*_mixed_denominator_game(rng, n), n) for n in range(17, 21)]
    primes = [p for p in range(3, 200) if all(p % q for q in range(2, p))][:25]
    probes.append(_index_op([Fraction(1, p) for p in primes], 1, 0))
    return probes


WORKLOADS = {
    "divisor-scan": divisor_scan,
    "orbit": orbit,
    "index-mix": index_mix,
}

#: A tiny invocation per workload, run once during set-up to load every code path.
WARMUP = {
    "divisor-scan": ("divisor", "12", "--format", "csv"),
    "orbit": ("fixedpoint", "--weights", "3,2,2,1", "--index", "ss", "--format", "json"),
    "index-mix": ("index", "--quota", "3", "--weights", "2,1,1", "--format", "json"),
}

PROBES = {"index-mix": index_probes}
