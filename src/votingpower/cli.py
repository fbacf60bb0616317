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
input, an ``--out`` file that cannot be written, a table over its budget or a
sieve limit over `divisor.SIEVE_LIMIT`, 3 the requested system is degenerate,
141 stdout was closed (as on ``SIGPIPE``).

The argument parser is built once per process, on the first `main` call, and
reused by every later call.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Sequence

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
    SIEVE_LIMIT,
    DisagreementReport,
    disagreement_report,
    scan_abundant,
    write_scan_report,
)
from .errors import (
    DegenerateSystem,
    InvalidCoalition,
    InvalidFamily,
    InvalidInput,
    PreconditionFailed,
    UnsupportedCase,
)
from .fixedpoint import (
    FixedPoint,
    Cycle,
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
# Small output helpers.
# ---------------------------------------------------------------------------


def _print_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line.rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


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


def cmd_index(args: argparse.Namespace) -> int:
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
    payload: dict = {
        "quota": format_rational(system.quota),
        "mode": system.mode.value,
        "weights": _fmt(system.weights),
        "scaled_weights": list(scaled.weights),
        "winning_coalitions": count_winning(system, args.engine, cap=cap),
    }
    if args.index in ("banzhaf", "both"):
        swings, bz = banzhaf(system, args.engine, cap=cap)
        payload["banzhaf"] = {
            "values": _fmt(bz.values),
            "swings": list(swings.per_player),
            "total_swings": swings.total,
        }
    if args.index in ("ss", "both"):
        ss = shapley_shubik(system, args.engine, cap=cap)
        payload["shapley_shubik"] = {"values": _fmt(ss.values)}

    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return EXIT_OK

    headers = ["player", "weight"]
    columns: list[list[str]] = [
        [str(i) for i in range(system.n)],
        _fmt(system.weights),
    ]
    if "banzhaf" in payload:
        headers += ["banzhaf", "swings"]
        columns.append(payload["banzhaf"]["values"])
        columns.append([str(s) for s in payload["banzhaf"]["swings"]])
    if "shapley_shubik" in payload:
        headers.append("shapley_shubik")
        columns.append(payload["shapley_shubik"]["values"])
    rows = list(zip(*columns))

    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(headers)
        writer.writerows(rows)
        return EXIT_OK

    _print_table(headers, rows)
    print(f"winning coalitions: {payload['winning_coalitions']}")
    if "banzhaf" in payload:
        print(f"total swings: {payload['banzhaf']['total_swings']}")
    return EXIT_OK


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


def cmd_divisor(args: argparse.Namespace) -> int:
    if args.scan is not None:
        if args.n is not None:
            raise InvalidInput("give either a single n or --scan, not both")
        triples = scan_abundant(args.scan, args.divisors)
        if args.report:
            reports = (disagreement_report(n) for n, _, _ in triples)
            if args.out:
                try:
                    stream = open(args.out, "w", newline="")
                except OSError as exc:
                    raise InvalidInput(f"cannot write {args.out}: {exc.strerror}") from exc
                with stream:
                    write_scan_report(reports, stream)
            else:
                write_scan_report(reports, sys.stdout)
            return EXIT_OK
        if args.format == "json":
            print(
                json.dumps(
                    [{"n": n, "divisor_count": d, "excess": k} for n, d, k in triples],
                    indent=2,
                )
            )
        elif args.format == "csv":
            writer = csv.writer(sys.stdout)
            writer.writerow(["n", "divisor_count", "excess"])
            writer.writerows(triples)
        else:
            _print_table(
                ["n", "divisor_count", "excess"],
                [[str(x) for x in t] for t in triples],
            )
        return EXIT_OK

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
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    if args.format == "csv":
        write_scan_report([report], sys.stdout)
        return EXIT_OK

    print(f"n = {payload['n']}  sigma = {payload['sigma']}  excess = {payload['excess']}")
    print(f"quota = {payload['quota']} (meets-or-exceeds)")
    headers = ["seat", "divisor", "banzhaf", "shapley_shubik"]
    rows = [
        [str(i), str(d), payload["banzhaf"][i], payload["shapley_shubik"][i]]
        for i, d in enumerate(payload["divisors"])
    ]
    if show_witnesses:
        headers.append("differ")
        for i, row in enumerate(rows):
            row.append("*" if i in payload["witness_positions"] else "")
    _print_table(headers, rows)
    if show_formulas:
        if payload["formula_match"] is None:
            print("closed-form catalog: not applicable")
        else:
            verdict = "match" if payload["formula_match"] else "MISMATCH"
            print(f"closed-form catalog: {verdict}")
            for note in payload["formula_notes"]:
                print(f"  - {note}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixedpoint
# ---------------------------------------------------------------------------


def cmd_fixedpoint(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weights)
    if all(w == 0 for w in weights):
        raise InvalidInput("all weights are zero; the index map is undefined")
    kind = IndexKind.BANZHAF if args.index == "banzhaf" else IndexKind.SHAPLEY_SHUBIK
    trace = iterate(weights, kind, args.max_iters)

    if args.format == "json":
        print(json.dumps(trace_to_dict(trace), indent=2))
        return EXIT_OK

    _print_table(
        ["step", "weights"],
        [[str(i), " ".join(_fmt(state))] for i, state in enumerate(trace.states)],
    )
    out = trace.outcome
    if isinstance(out, FixedPoint):
        print(f"fixed point: step {out.index} maps to itself")
    elif isinstance(out, Cycle):
        print(f"cycle: orbit re-enters step {out.entry} (length {out.length})")
    else:
        print(f"no repetition within {out.max_iters} steps")
    return EXIT_OK


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


def _spec_payload(spec) -> dict:
    return {
        "shape": spec.shape,
        "m": spec.m,
        "k": spec.k,
        "offset": spec.offset,
        "heavy_weight": format_rational(spec.heavy_weight),
        "light_weight": format_rational(spec.light_weight),
        "valid": spec.valid,
        "reason": spec.reason,
    }


def _print_specs(payloads: list[dict]) -> None:
    _print_table(
        ["shape", "m", "k", "offset", "heavy", "light", "valid", "reason"],
        [
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
        ],
    )


def cmd_family(args: argparse.Namespace) -> int:
    shape = args.shape

    if args.solve is not None:
        m = args.m if args.solve == -1 else args.solve
        if m is None:
            raise InvalidInput("bare --solve needs --m (the light-player count)")
        if m < 1:
            raise InvalidInput(f"need at least one light player, got m={m}")
        sols = ab_fixed_points(m) if shape == "ab" else aab_fixed_points(m)
        heavies = [
            1 - m * b if shape == "ab" else (1 - m * b) / 2 for b in sols
        ]
        payload = {
            "shape": shape,
            "m": m,
            "solutions": [
                {"light_weight": format_rational(b), "heavy_weight": format_rational(a)}
                for b, a in zip(sols, heavies)
            ],
        }
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            _print_table(
                ["light_weight", "heavy_weight"],
                [[s["light_weight"], s["heavy_weight"]] for s in payload["solutions"]],
            )
        return EXIT_OK

    if args.b is not None:
        if args.m is None:
            raise InvalidInput("--b needs --m (the light-player count)")
        b = parse_rational(args.b)
        m = args.m
        if shape == "ab":
            power = ab_heavy_ss_power(m, b)
            pair = ab_banzhaf_indices(m, b)
            payload = {
                "shape": shape,
                "m": m,
                "light_weight": format_rational(b),
                "heavy_weight": format_rational(1 - m * b),
                "heavy_ss_power": format_rational(power),
                "ss_fixed": power == 1 - m * b,
                "banzhaf_heavy": format_rational(pair.heavy),
                "banzhaf_light": format_rational(pair.light),
                "banzhaf_fixed": pair.light == b,
            }
        else:
            power = aab_heavy_ss_power(m, b)
            payload = {
                "shape": shape,
                "m": m,
                "light_weight": format_rational(b),
                "heavy_weight": format_rational((1 - m * b) / 2),
                "heavy_ss_power": format_rational(power),
                "ss_fixed": power == (1 - m * b) / 2,
            }
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            for key, value in payload.items():
                print(f"{key}: {value}")
        return EXIT_OK

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
        if args.format == "json":
            print(json.dumps(payloads, indent=2))
        else:
            _print_specs(payloads)
        return EXIT_OK

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
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    if args.banzhaf_check and not payload["banzhaf_fixed"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = [check for name in names for check in SUITES[name](args)]
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"name": c.name, "status": c.status, "detail": c.detail}
                    for c in checks
                ],
                indent=2,
            )
        )
    else:
        for c in checks:
            print(f"{c.status:7s} {c.name}: {c.detail}")
        failed = sum(1 for c in checks if c.status == "FAIL")
        passed = sum(1 for c in checks if c.status == "PASS")
        print(f"{passed} passed, {failed} failed")
    return EXIT_CHECK_FAILED if any(c.status == "FAIL" for c in checks) else EXIT_OK


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
    p.add_argument("--out", help="write CSV output to this file instead of stdout")
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
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
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


if __name__ == "__main__":
    sys.exit(main())
