"""Command-line interface.

Subcommands:

* ``index`` — Banzhaf / Shapley-Shubik indices of an explicit weighted game.
* ``divisor`` — the divisor-weighted majority game of an integer: full
  report, or a census scan of abundant numbers.
* ``fixedpoint`` — iterate an index map from a weight vector and classify
  how the orbit ends.
* ``family`` — closed-form analysis of the one-heavy and two-heavy weight
  families: evaluate, solve for all fixed points, or gate-check the
  parametric constructions.
* ``verify`` — run the claim suites of `votingpower.claims`, which re-derive
  the paper's claims from scratch, and report PASS/FAIL per check.

Exit codes: 0 success, 1 a verified check failed, 2 bad usage, malformed
input, an ``--out`` file that cannot be written, a table over its budget, a
sieve limit over `divisor.SIEVE_LIMIT` or an integer to trial-divide over
`divisor.TRIAL_DIVISION_LIMIT`, 3 the requested system is degenerate, 141
stdout was closed (as on ``SIGPIPE``).

Each ``cmd_*`` returns what it shows, and `main` writes it in the format asked
for, to stdout or to the ``--out`` file.  `main` opens that file before the
command runs, as a shell redirection does: a path that cannot be written exits
2 before any work, and a command that fails after the open leaves the file
empty.  Results print in full, past Python's digit limit for int strings.  The
argument parser is built once per process, on the first `main` call, and
reused by every later call.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import fields
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

from .claims import SUITES
from .core import (
    IndexKind,
    QuotaMode,
    VotingSystem,
    format_rational,
    normalize,
    parse_rational,
    scale_to_integers,
)
from .divisor import (
    SCAN_CSV_COLUMNS,
    SIEVE_LIMIT,
    DisagreementReport,
    disagreement_report,
    report_csv_row,
    scan_abundant,
)
from .errors import (
    DegenerateSystem,
    InvalidCoalition,
    InvalidFamily,
    InvalidInput,
    PreconditionFailed,
    TooLarge,
    UnsupportedCase,
)
from .fixedpoint import (
    FamilySpec,
    aab_fixed_point_classes,
    aab_fixed_points,
    aab_heavy_ss_power,
    ab_banzhaf_indices,
    ab_family_point,
    ab_fixed_points,
    ab_heavy_ss_power,
    is_fixed_point,
    iterate,
    trace_to_dict,
)
from .indices import DEFAULT_ENUM_CAP, banzhaf, count_winning, shapley_shubik

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_BROKEN_PIPE = 141


# ---------------------------------------------------------------------------
# What a command shows, and the one place that writes it.
# ---------------------------------------------------------------------------


class _Shown(NamedTuple):
    """A command's result: its JSON value, how to render it as text and as
    CSV, and its exit code.  The renderings are functions, so a call builds
    only the one its format asks for."""

    payload: object = None  # None: the rows are the whole result, in every format
    lines: Callable[[], list[str]] | None = None  # None: one ``key: value`` per item
    rows: Callable[[], Iterable] | None = None  # CSV rows, header first; may stream
    code: int = EXIT_OK


def _show(shown: _Shown, fmt: str, out: TextIO) -> None:
    """Write a result in ``fmt`` to ``out``, stdout or the opened ``--out`` file."""
    if fmt == "csv" or shown.payload is None:
        csv.writer(out).writerows(shown.rows())
    elif fmt == "json":
        print(json.dumps(shown.payload, indent=2), file=out)
    elif shown.lines is None:
        items = shown.payload.items()
        print("\n".join([f"{key}: {value}" for key, value in items]), file=out)
    else:
        print("\n".join(shown.lines()), file=out)


def _table(rows: Sequence[Sequence[str]]) -> list[str]:
    """``rows``, header first, in aligned columns with a rule under the header."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    text = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
    text.insert(1, "  ".join("-" * w for w in widths))
    return text


def _parse_weights(text: str) -> tuple[Fraction, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise InvalidInput("no weights given")
    return tuple([parse_rational(p) for p in parts])


def _fmt(values) -> list[str]:
    return [format_rational(v) for v in values]


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------


def cmd_index(args: argparse.Namespace) -> _Shown:
    weights = _parse_weights(args.weights)
    if args.normalize:
        weights = normalize(weights)
    system = VotingSystem(
        quota=parse_rational(args.quota),
        mode=QuotaMode(args.mode),
        weights=weights,
    )
    cap = args.max_players
    scaled = scale_to_integers(system)
    # Shapley-Shubik first: its pass serves the Banzhaf and winning counts too
    if args.index in ("ss", "both"):
        try:
            ss = shapley_shubik(system, args.engine, cap=cap)
        except TooLarge:
            # the count's one-row table is smaller: when it is refused too, report that
            count_winning(system, args.engine, cap=cap)
            raise
    if args.index in ("banzhaf", "both"):
        swings, bz = banzhaf(system, args.engine, cap=cap)
    payload: dict = {
        "quota": format_rational(system.quota),
        "mode": system.mode.value,
        "weights": _fmt(system.weights),
        "scaled_weights": list(scaled.weights),
        "winning_coalitions": count_winning(system, args.engine, cap=cap),
    }
    if args.index in ("banzhaf", "both"):
        payload["banzhaf"] = {
            "values": _fmt(bz.values),
            "swings": list(swings.per_player),
            "total_swings": swings.total,
        }
    if args.index in ("ss", "both"):
        payload["shapley_shubik"] = {"values": _fmt(ss.values)}

    def rows() -> list:
        columns = {"player": [str(i) for i in range(system.n)], "weight": payload["weights"]}
        if "banzhaf" in payload:
            columns["banzhaf"] = payload["banzhaf"]["values"]
            columns["swings"] = [str(s) for s in payload["banzhaf"]["swings"]]
        if "shapley_shubik" in payload:
            columns["shapley_shubik"] = payload["shapley_shubik"]["values"]
        return [list(columns), *zip(*columns.values())]

    def lines() -> list[str]:
        text = _table(rows())
        text.append(f"winning coalitions: {payload['winning_coalitions']}")
        if "banzhaf" in payload:
            text.append(f"total swings: {payload['banzhaf']['total_swings']}")
        return text

    return _Shown(payload, lines, rows)


# ---------------------------------------------------------------------------
# divisor
# ---------------------------------------------------------------------------


def _report_payload(report: DisagreementReport) -> dict:
    game = report.game
    return {
        "n": game.n,
        "divisors": list(game.divisors),
        "sigma": game.sigma,
        "excess": game.excess,
        "quota": format_rational(game.system.quota),
        "banzhaf": _fmt(report.banzhaf.values),
        "shapley_shubik": _fmt(report.ss.values),
        "witness_positions": list(report.witnesses),
        "formula_match": report.formula_match,
        "formula_notes": list(report.formula_notes),
    }


def cmd_divisor(args: argparse.Namespace) -> _Shown:
    if args.scan is not None:
        if args.n is not None:
            raise InvalidInput("give either a single n or --scan, not both")
        triples = scan_abundant(args.scan, args.divisors)
        if args.report:
            def report_rows() -> Iterable:  # one report at a time: the census streams
                yield SCAN_CSV_COLUMNS
                for n, _, _ in triples:
                    yield report_csv_row(disagreement_report(n)).values()

            return _Shown(rows=report_rows)
        headers = ["n", "divisor_count", "excess"]
        return _Shown(
            [{"n": n, "divisor_count": d, "excess": k} for n, d, k in triples],
            lambda: _table([headers, *[[str(x) for x in t] for t in triples]]),
            lambda: [headers, *triples],
        )

    if args.n is None:
        raise InvalidInput("give an integer n or --scan LIMIT")
    if args.n < 2:
        raise InvalidInput(f"need n >= 2, got {args.n}")
    report = disagreement_report(args.n)
    payload = _report_payload(report)
    # --formulas / --prop21 narrow the report to one section; default is both
    show_witnesses = args.prop21 or not args.formulas
    show_formulas = args.formulas or not args.prop21
    if not show_witnesses:
        del payload["witness_positions"]
    if not show_formulas:
        del payload["formula_match"]
        del payload["formula_notes"]

    def lines() -> list[str]:
        text = [
            f"n = {payload['n']}  sigma = {payload['sigma']}  excess = {payload['excess']}",
            f"quota = {payload['quota']} (meets-or-exceeds)",
        ]
        headers = ["seat", "divisor", "banzhaf", "shapley_shubik"]
        rows = [
            [str(i), str(d), payload["banzhaf"][i], payload["shapley_shubik"][i]]
            for i, d in enumerate(payload["divisors"])
        ]
        if show_witnesses:
            headers.append("differ")
            for i, row in enumerate(rows):
                row.append("*" if i in payload["witness_positions"] else "")
        text += _table([headers, *rows])
        if show_formulas:
            if payload["formula_match"] is None:
                text.append("closed-form catalog: not applicable")
            else:
                verdict = "match" if payload["formula_match"] else "MISMATCH"
                text.append(f"closed-form catalog: {verdict}")
                text += [f"  - {note}" for note in payload["formula_notes"]]
        return text

    # the CSV row is the full scan report's, whatever section is asked for
    return _Shown(payload, lines, lambda: [SCAN_CSV_COLUMNS, report_csv_row(report).values()])


# ---------------------------------------------------------------------------
# fixedpoint
# ---------------------------------------------------------------------------


_OUTCOME_LINES = {
    "fixed": "fixed point: step {index} maps to itself",
    "cycle": "cycle: orbit re-enters step {entry} (length {length})",
    "max_iters": "no repetition within {max_iters} steps",
}


def cmd_fixedpoint(args: argparse.Namespace) -> _Shown:
    weights = _parse_weights(args.weights)
    if all(w == 0 for w in weights):
        raise InvalidInput("all weights are zero; the index map is undefined")
    kind = IndexKind.BANZHAF if args.index == "banzhaf" else IndexKind.SHAPLEY_SHUBIK
    payload = trace_to_dict(iterate(weights, kind, args.max_iters))

    def lines() -> list[str]:
        states = [[str(i), " ".join(state)] for i, state in enumerate(payload["states"])]
        last = _OUTCOME_LINES[payload["outcome"]["type"]].format(**payload["outcome"])
        return _table([["step", "weights"], *states]) + [last]

    return _Shown(payload, lines)


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


def _spec_payload(spec: FamilySpec) -> dict:
    """``spec``'s fields in order, its weights as exact 'p/q' strings."""
    payload = {f.name: getattr(spec, f.name) for f in fields(spec)}
    payload["heavy_weight"] = format_rational(spec.heavy_weight)
    payload["light_weight"] = format_rational(spec.light_weight)
    return payload


def cmd_family(args: argparse.Namespace) -> _Shown:
    shape = args.shape
    heavies = 1 if shape == "ab" else 2  # they share 1 - m*b equally

    if args.solve is not None:
        m = args.m if args.solve == -1 else args.solve
        if m is None:
            raise InvalidInput("bare --solve needs --m (the light-player count)")
        if m < 1:
            raise InvalidInput(f"need at least one light player, got m={m}")
        sols = ab_fixed_points(m) if shape == "ab" else aab_fixed_points(m)
        payload = {
            "shape": shape,
            "m": m,
            "solutions": [
                {
                    "light_weight": format_rational(b),
                    "heavy_weight": format_rational((1 - m * b) / heavies),
                }
                for b in sols
            ],
        }
        return _Shown(
            payload,
            lambda: _table(
                [["light_weight", "heavy_weight"]]
                + [[s["light_weight"], s["heavy_weight"]] for s in payload["solutions"]]
            ),
        )

    if args.b is not None:
        if args.m is None:
            raise InvalidInput("--b needs --m (the light-player count)")
        b = parse_rational(args.b)
        m = args.m
        heavy = (1 - m * b) / heavies
        power = (ab_heavy_ss_power if shape == "ab" else aab_heavy_ss_power)(m, b)
        payload = {
            "shape": shape,
            "m": m,
            "light_weight": format_rational(b),
            "heavy_weight": format_rational(heavy),
            "heavy_ss_power": format_rational(power),
            "ss_fixed": power == heavy,
        }
        if shape == "ab":
            pair = ab_banzhaf_indices(m, b)
            payload["banzhaf_heavy"] = format_rational(pair.heavy)
            payload["banzhaf_light"] = format_rational(pair.light)
            payload["banzhaf_fixed"] = pair.light == b
        return _Shown(payload)

    if args.k is None or args.parity is None:
        raise InvalidInput(
            "need --k for a parametric point (or use --solve / --b)"
        )

    if shape == "aab":
        specs = aab_fixed_point_classes(args.k, args.parity)
        payloads = [_spec_payload(s) for s in specs]
        if args.certify:
            for spec, p in zip(specs, payloads):
                p["engine_certified"] = spec.valid and is_fixed_point(
                    spec.weights(), IndexKind.SHAPLEY_SHUBIK
                )
        return _Shown(
            payloads,
            lambda: _table(
                [["shape", "m", "k", "offset", "heavy", "light", "valid", "reason"]]
                + [
                    [
                        p["shape"],
                        str(p["m"]),
                        str(p["k"]),
                        "" if p["offset"] is None else str(p["offset"]),
                        p["heavy_weight"],
                        p["light_weight"],
                        "yes" if p["valid"] else "no",
                        p["reason"],
                    ]
                    for p in payloads
                ]
            ),
        )

    if args.c is None:
        raise InvalidInput("the one-heavy point needs --c (1 <= c <= k-1)")
    spec = ab_family_point(args.k, args.c, args.parity)
    payload = _spec_payload(spec)
    pair = ab_banzhaf_indices(spec.m, spec.light_weight)
    payload["heavy_ss_power"] = format_rational(
        ab_heavy_ss_power(spec.m, spec.light_weight)
    )
    payload["banzhaf_light"] = format_rational(pair.light)
    payload["banzhaf_fixed"] = pair.light == spec.light_weight
    if args.certify:
        payload["engine_certified"] = is_fixed_point(
            spec.weights(), IndexKind.SHAPLEY_SHUBIK
        )
    failed = args.banzhaf_check and not payload["banzhaf_fixed"]
    return _Shown(payload, code=EXIT_CHECK_FAILED if failed else EXIT_OK)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> _Shown:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = [check for name in names for check in SUITES[name](args)]
    failed = sum(1 for c in checks if c.status == "FAIL")
    passed = sum(1 for c in checks if c.status == "PASS")
    return _Shown(
        [{"name": c.name, "status": c.status, "detail": c.detail} for c in checks],
        lambda: [f"{c.status:7s} {c.name}: {c.detail}" for c in checks]
        + [f"{passed} passed, {failed} failed"],
        code=EXIT_CHECK_FAILED if failed else EXIT_OK,
    )


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votingpower",
        description="Exact power-index analysis of weighted voting systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="indices of an explicit weighted game")
    p.add_argument("--quota", required=True, help="quota, as 'p' or 'p/q'")
    p.add_argument(
        "--mode",
        choices=[m.value for m in QuotaMode],
        default=QuotaMode.MEETS_OR_EXCEEDS.value,
        help="'ge' passes at the quota, 'gt' only above it",
    )
    p.add_argument("--weights", required=True, help="comma-separated rationals")
    p.add_argument(
        "--index", "--kind", choices=["banzhaf", "ss", "both"], default="both"
    )
    p.add_argument("--engine", choices=["enum", "dp", "auto"], default="auto")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="divide the weights by their total before analysing",
    )
    p.add_argument(
        "--max-players",
        type=int,
        default=DEFAULT_ENUM_CAP,
        help="player cap for the enum engine, which counts from two sorted halves",
    )
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("divisor", help="divisor-weighted majority game of n")
    p.add_argument("n", nargs="?", type=int, help="the integer whose divisors vote")
    p.add_argument(
        "--scan",
        type=int,
        metavar="LIMIT",
        help=f"census of abundant n <= LIMIT; LIMIT over {SIEVE_LIMIT} exits 2",
    )
    p.add_argument("--divisors", type=int, help="restrict the scan to this divisor count")
    p.add_argument(
        "--formulas",
        action="store_true",
        help="show only the closed-form cross-check section of the report",
    )
    p.add_argument(
        "--prop21",
        action="store_true",
        help="show only the index-disagreement witnesses of the report",
    )
    p.add_argument(
        "--report",
        action="store_true",
        help="with --scan: emit one full CSV report row per abundant n",
    )
    p.add_argument("--out", help="write the output to this file instead of stdout")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_divisor)

    p = sub.add_parser("fixedpoint", help="iterate an index map from a weight vector")
    p.add_argument("--weights", required=True, help="comma-separated rationals")
    p.add_argument("--index", "--kind", choices=["banzhaf", "ss"], default="ss")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_fixedpoint)

    p = sub.add_parser("family", help="one-heavy / two-heavy family analysis")
    p.add_argument("shape", choices=["ab", "aab"], help="one heavy (ab) or two (aab)")
    p.add_argument(
        "--solve",
        type=int,
        nargs="?",
        const=-1,
        metavar="M",
        help="all fixed points for m lights (bare --solve reads the count from --m)",
    )
    p.add_argument("--m", type=int, help="light-player count, for --b or bare --solve")
    p.add_argument("--b", help="light weight to evaluate, as 'p/q'")
    p.add_argument("--k", type=int, help="size parameter of the parametric point")
    p.add_argument(
        "--c", "--C", type=int, help="offset of the one-heavy point (1..k-1)"
    )
    p.add_argument(
        "--parity",
        choices=["odd", "even"],
        default="odd",
        help="light-count parity of the parametric point (default odd)",
    )
    p.add_argument(
        "--certify",
        action="store_true",
        help="also confirm fixed points with the exact engine",
    )
    p.add_argument(
        "--banzhaf-check",
        action="store_true",
        help="exit 1 unless the one-heavy point is also a banzhaf fixed point",
    )
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="re-derive the claims catalog and report")
    p.add_argument(
        "suite",
        choices=sorted(SUITES) + ["all"],
        help="which claim suite to run (stable identifiers; see the README)",
    )
    p.add_argument(
        "--limit",
        "--max-n",
        type=int,
        default=1000,
        help=f"upper bound for the census-style suites; over {SIEVE_LIMIT} exits 2",
    )
    p.add_argument("--n", type=int, help="prime-multiple suite: use this base only")
    p.add_argument("--p", type=int, default=31, help="prime-multiple suite: first prime")
    p.add_argument("--m", type=int, default=37, help="prime-multiple suite: second prime")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    # results print in full; `parse_rational` bounds the digits of the input
    lifted = hasattr(sys, "set_int_max_str_digits")  # Python 3.10.7 and later
    if lifted:
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        # opened before the work, as a shell redirection is (see above)
        path = getattr(args, "out", None)
        try:
            target = nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
        except OSError as exc:
            raise InvalidInput(f"cannot write {path}: {exc.strerror}") from exc
        with target as out:
            shown = args.func(args)
            _show(shown, args.format, out)
        sys.stdout.flush()
        return shown.code
    except BrokenPipeError:  # the reader left: devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except DegenerateSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (
        InvalidInput,
        InvalidCoalition,
        InvalidFamily,
        UnsupportedCase,
        PreconditionFailed,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if lifted:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
