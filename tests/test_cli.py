"""Command-line interface: output formats, exit codes, and the verify suites."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import votingpower
from votingpower import (
    SCAN_CSV_COLUMNS,
    FixedPoint,
    QuotaMode,
    VotingSystem,
    ab_banzhaf_indices,
    banzhaf,
    banzhaf_enum,
    disagreement_report,
    divisor_system,
    format_rational,
    scale_to_integers,
    ss_enum_subsets,
    trace_from_json,
)
from votingpower import cli
from votingpower.claims import SUITES
from votingpower.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = Path(votingpower.__file__).resolve().parents[1]
PRIMES_FROM_3 = [p for p in range(3, 200) if all(p % d for d in range(2, p))]
ADDRESS_SPACE_CAP = 1 << 30

OVERSIZED_DP_GAMES = pytest.mark.parametrize(
    "quota, weights",
    [
        # a quota-wide table: MemoryError when built
        ("1000000000000", "1000000000000,1"),
        # 25 players over the lcm of 25 primes: too long for a list
        ("1/2", ",".join(f"1/{p}" for p in PRIMES_FROM_3[:25])),
    ],
    ids=["wide-quota", "25-players-1/p"],
)

# 17 players with a scaled total past 10^8: the DP's table would have more
# cells than the 2**17 masks, so auto enumerates
MIXED_17_WEIGHTS = ",".join(
    f"{q + i}/{q}" for i, q in enumerate(([7, 11, 13, 17, 19, 23] * 3)[:17])
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndexCommand:
    ARGS = ("index", "--quota", "3", "--weights", "2,1,1")

    def test_json(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["quota"] == "3"
        assert payload["mode"] == "ge"
        assert payload["weights"] == ["2", "1", "1"]
        assert payload["scaled_weights"] == [4, 2, 2]
        assert payload["winning_coalitions"] == 3
        assert payload["banzhaf"] == {
            "values": ["3/5", "1/5", "1/5"],
            "swings": [3, 1, 1],
            "total_swings": 5,
        }
        assert payload["shapley_shubik"] == {"values": ["2/3", "1/6", "1/6"]}

    def test_table(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == EXIT_OK
        assert "3/5" in out and "2/3" in out
        assert "winning coalitions: 3" in out
        assert "total swings: 5" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["player", "weight", "banzhaf", "swings", "shapley_shubik"]
        assert rows[1] == ["0", "2", "3/5", "3", "2/3"]
        assert rows[2] == ["1", "1", "1/5", "1", "1/6"]
        assert rows[3] == ["2", "1", "1/5", "1", "1/6"]

    def test_single_index_selection(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--index", "banzhaf", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert "banzhaf" in payload and "shapley_shubik" not in payload

    def test_strict_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "index", "--quota", "1/2", "--mode", "gt", "--weights", "1/3,2/15,2/15,2/15,2/15,2/15",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["shapley_shubik"]["values"][0] == "1/3"

    def test_unwinnable_quota_is_degenerate(self, capsys):
        code, _, err = run(capsys, "index", "--quota", "10", "--weights", "2,1,1")
        assert code == EXIT_DEGENERATE
        assert "error:" in err

    def test_huge_unwinnable_quota_is_degenerate_on_dp(self, capsys):
        code, _, err = run(
            capsys, "index", "--engine", "dp", "--quota", "1000000000000", "--weights", "1,1"
        )
        assert code == EXIT_DEGENERATE
        assert "error:" in err

    @OVERSIZED_DP_GAMES
    def test_oversized_dp_table_is_refused(self, capsys, quota, weights):
        code, out, err = run(
            capsys, "index", "--engine", "dp", "--quota", quota, "--weights", weights
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @OVERSIZED_DP_GAMES
    def test_oversized_dp_table_is_refused_under_a_memory_cap(self, quota, weights):
        child = _run_capped("index", "--engine", "dp", "--quota", quota, "--weights", weights)
        assert child.returncode == EXIT_USAGE and child.stdout == ""
        assert child.stderr.startswith("error:") and child.stderr.count("\n") == 1
        assert "Traceback" not in child.stderr

    def test_dp_table_at_its_cell_budget_runs_under_a_memory_cap(self):
        # a single row as wide as the quota: 2**23 cells, the budget exactly
        def banzhaf_dp_child(quota):
            return _run_capped(
                "index", "--engine", "dp", "--index", "banzhaf", "--quota", quota,
                "--weights", "8388607,1,1", "--format", "json",
            )

        child = banzhaf_dp_child("8388608")
        assert child.returncode == EXIT_OK, child.stderr
        payload = json.loads(child.stdout)
        assert payload["winning_coalitions"] == 3
        assert payload["banzhaf"]["values"] == ["3/5", "1/5", "1/5"]
        child = banzhaf_dp_child("8388609")
        assert child.returncode == EXIT_USAGE and child.stdout == ""
        assert child.stderr.startswith("error:") and child.stderr.count("\n") == 1

    def test_enumeration_over_the_split_budget_exits_2_under_a_memory_cap(self):
        # 48 players: 2**24 masks per half, over the split budget of 2**18
        child = _run_capped(
            "index", "--engine", "enum", "--max-players", "60", "--quota", "24",
            "--weights", ",".join(["1"] * 48),
        )
        assert child.returncode == EXIT_USAGE and child.stdout == ""
        assert child.stderr == (
            "error: enumeration needs 16777216 masks per half of the players, "
            "over its budget of 262144\n"
        )

    @pytest.mark.parametrize(
        "quota, weights, cells",
        [
            # one row of 9000000 cells is refused, and so are the size rows
            ("9000000", "10000000,1,1", "1 x 9000000"),
            # one row of 140000 cells fits; 64 size rows of it do not
            ("140000", ",".join(["140000"] + ["1"] * 63), "64 x 140000"),
        ],
        ids=["count-refused", "by-size-only"],
    )
    @pytest.mark.parametrize("index", ["ss", "both"])
    def test_a_refused_dp_table_reports_the_smaller_one(self, capsys, index, quota, weights, cells):
        code, out, err = run(
            capsys, "index", "--engine", "dp", "--index", index, "--quota", quota,
            "--weights", weights,
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: the dynamic program needs {cells} table cells, over its budget of 8388608\n"
        )

    def test_17_players_over_mixed_denominators_enumerate(self, capsys):
        code, out, _ = run(
            capsys, "index", "--quota", "12", "--weights", MIXED_17_WEIGHTS, "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["banzhaf"]["swings"]) == 17
        assert sum(payload["banzhaf"]["swings"]) == payload["banzhaf"]["total_swings"] > 0

    def test_17_players_over_mixed_denominators_enumerate_under_a_memory_cap(self):
        child = _run_capped(
            "index", "--quota", "12", "--weights", MIXED_17_WEIGHTS, "--format", "json"
        )
        assert child.returncode == EXIT_OK, child.stderr
        assert len(json.loads(child.stdout)["banzhaf"]["swings"]) == 17

    def test_24_players_print_the_same_through_either_engine_under_a_memory_cap(self):
        # integer weights 1..9: a DP table of a few thousand cells, and all
        # 2**24 coalitions for the split count
        argv = ("index", "--quota", "60", "--weights", ",".join(str(i % 9 + 1) for i in range(24)))
        enum = _run_capped(*argv, "--engine", "enum")
        dp = _run_capped(*argv, "--engine", "dp")
        assert enum.returncode == dp.returncode == EXIT_OK, enum.stderr + dp.stderr
        assert enum.stdout == dp.stdout and "winning coalitions: 6375465\n" in enum.stdout

    def test_bad_rational(self, capsys):
        code, _, err = run(capsys, "index", "--quota", "3.5", "--weights", "2,1,1")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "index", "--quota", "3", "--weights", "1", "--nope")
        assert code == EXIT_USAGE

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE

    def test_help(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK


class TestParserReuse:
    # One call per subcommand and exit path; "family ab --solve" after
    # "--m 4" shows whether a parsed value leaks into the next call.
    CALLS = [
        ("index", "--quota", "3", "--weights", "2,1,1", "--format", "json"),
        ("index", "--quota", "3", "--weights", "2,1,1", "--normalize"),
        ("divisor", "12"),
        ("divisor", "--scan", "100", "--format", "csv"),
        ("fixedpoint", "--weights", "3,2,2,1", "--format", "json"),
        ("family", "ab", "--m", "4", "--b", "1/9"),
        ("family", "ab", "--solve"),
        ("family", "aab", "--solve", "6"),
        ("verify", "prop21"),
        ("verify", "prop24", "--n", "12", "--format", "json"),
    ]

    def test_parser_survives_errors_and_help(self, capsys):
        first = [run(capsys, *argv)[:2] for argv in self.CALLS]
        assert {code for code, _ in first} == {EXIT_OK, EXIT_USAGE, EXIT_DEGENERATE}
        assert all(out for code, out in first if code == EXIT_OK)

        code, out, err = run(capsys, "index", "--quota", "3")
        assert code == EXIT_USAGE and out == "" and "--weights" in err
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_OK and out.startswith("usage: votingpower")
        code, out, _ = run(capsys, "family", "--help")
        assert code == EXIT_OK and "--solve" in out

        assert [run(capsys, *argv)[:2] for argv in self.CALLS] == first
        assert build_parser() is build_parser()


class TestDivisorCommand:
    def test_report_json(self, capsys):
        code, out, _ = run(capsys, "divisor", "6", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["n"] == 6
        assert payload["divisors"] == [6, 3, 2, 1]
        assert payload["sigma"] == 12 and payload["excess"] == 0
        assert payload["quota"] == "13/2"
        assert payload["banzhaf"] == ["7/10", "1/10", "1/10", "1/10"]
        assert payload["shapley_shubik"] == ["3/4", "1/12", "1/12", "1/12"]
        assert payload["witness_positions"] == [0, 1, 2, 3]
        assert payload["formula_match"] is True

    def test_report_table(self, capsys):
        code, out, _ = run(capsys, "divisor", "18")
        assert code == EXIT_OK
        assert "excess = 3" in out
        assert "closed-form catalog: match" in out

    def test_report_csv_schema(self, capsys):
        code, out, _ = run(capsys, "divisor", "6", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == SCAN_CSV_COLUMNS
        record = dict(zip(rows[0], rows[1]))
        assert record["n"] == "6" and record["formula_match"] == "Y"
        assert record["banzhaf_vector"] == "7/10;1/10;1/10;1/10"

    def test_scan_table(self, capsys):
        code, out, _ = run(capsys, "divisor", "--scan", "100", "--divisors", "6")
        assert code == EXIT_OK
        data_lines = [l for l in out.splitlines() if l and l.lstrip()[0].isdigit()]
        assert [l.split()[0] for l in data_lines] == ["12", "18", "20"]

    def test_scan_json(self, capsys):
        code, out, _ = run(
            capsys, "divisor", "--scan", "100", "--divisors", "6", "--format", "json"
        )
        assert code == EXIT_OK
        triples = json.loads(out)
        assert [(t["n"], t["divisor_count"], t["excess"]) for t in triples] == [
            (12, 6, 4),
            (18, 6, 3),
            (20, 6, 2),
        ]

    def test_scan_report_csv(self, capsys):
        code, out, _ = run(
            capsys, "divisor", "--scan", "100", "--divisors", "6", "--report"
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == SCAN_CSV_COLUMNS
        assert [r[0] for r in rows[1:]] == ["12", "18", "20"]
        assert all(r[-1] == "Y" for r in rows[1:])

    def test_scan_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys,
            "divisor", "--scan", "30", "--report", "--out", str(target),
        )
        assert code == EXIT_OK and out == ""
        rows = list(csv.reader(target.open()))
        assert tuple(rows[0]) == SCAN_CSV_COLUMNS
        assert [r[0] for r in rows[1:]] == ["12", "18", "20", "24", "30"]

    def test_scan_report_to_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "scan.csv"
        code, out, err = run(
            capsys, "divisor", "--scan", "30", "--report", "--out", str(target)
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_unwritable_out_is_refused_before_the_work(self, capsys, monkeypatch, tmp_path):
        def refused(*args):
            raise AssertionError("the scan ran before --out was opened")

        monkeypatch.setattr(cli, "scan_abundant", refused)
        target = tmp_path / "missing" / "scan.csv"
        code, out, err = run(
            capsys, "divisor", "--scan", "1000000", "--report", "--out", str(target)
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_failing_command_leaves_out_empty(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("earlier output\n")
        code, out, err = run(capsys, "divisor", "0", "--out", str(target))
        assert (code, out) == (EXIT_USAGE, "") and err.startswith("error:")
        assert target.read_bytes() == b""

    @pytest.mark.parametrize(
        "line",
        [
            "divisor 12",
            "divisor 12 --format json",
            "divisor 12 --format csv",
            "divisor --scan 300",
            "divisor --scan 300 --format json",
            "divisor --scan 300 --format csv",
            "divisor --scan 300 --report",
        ],
    )
    def test_out_file_holds_what_stdout_shows(self, capsys, tmp_path, line):
        code, shown, _ = run(capsys, *line.split())
        target = tmp_path / "out.txt"
        code_to_file, out, err = run(capsys, *line.split(), "--out", str(target))
        assert (code, code_to_file, out, err) == (EXIT_OK, EXIT_OK, "", "")
        assert target.read_bytes() == shown.encode()

    def test_scan_report_streams_until_the_reader_leaves(self, monkeypatch, tmp_path):
        reports = []

        def counted(n):
            reports.append(n)
            return disagreement_report(n)

        class LeavesAfterTwoRows(io.StringIO):  # the header, then two report rows
            def write(self, text):
                if self.getvalue().count("\n") == 3:
                    raise BrokenPipeError
                return super().write(text)

            def fileno(self):  # where `main` points devnull once the reader leaves
                return spare.fileno()

        spare = (tmp_path / "spare").open("w")
        monkeypatch.setattr(cli, "disagreement_report", counted)
        monkeypatch.setattr(sys, "stdout", LeavesAfterTwoRows())
        with spare:
            code = main(["divisor", "--scan", "10000", "--report"])
        assert code == EXIT_BROKEN_PIPE
        assert 2 <= len(reports) <= 3

    def test_n_and_scan_conflict(self, capsys):
        code, _, err = run(capsys, "divisor", "6", "--scan", "100")
        assert code == EXIT_USAGE and "error:" in err

    def test_neither_n_nor_scan(self, capsys):
        code, _, err = run(capsys, "divisor")
        assert code == EXIT_USAGE and "error:" in err

    # a quota in the billions, but at most four seats: auto enumerates
    @pytest.mark.parametrize("n", [2000000014, 9999999967])
    def test_few_seats_with_a_huge_quota_enumerate(self, capsys, n):
        code, out, _ = run(capsys, "divisor", str(n), "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        game = divisor_system(n).system
        assert payload["banzhaf"] == [str(v) for v in banzhaf_enum(game)[1].values]
        assert payload["shapley_shubik"] == [str(v) for v in ss_enum_subsets(game).values]

    @pytest.mark.parametrize(
        "argv",
        [
            ["divisor", "1000000000000000000"],
            # the primes are checked, and the products split, by trial division
            ["verify", "prop24", "--n", "6", "--p", "1000000000000000003",
             "--m", "1000000000000000009"],
        ],
        ids=["divisor", "prop24"],
    )
    def test_n_over_the_trial_division_bound_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error:") and "trial-division bound" in err

    def test_a_refused_report_names_the_one_row_table(self, capsys):
        # 26 divisors, past the enumeration cap: one row of the quota's width is
        # already over the DP's budget, and the size rows are wider still
        code, out, err = run(capsys, "divisor", "33550336")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: the dynamic program needs 1 x 33550337 table cells, "
            "over its budget of 8388608\n"
        )

    def test_prime_n_is_degenerate_free_but_has_no_catalog(self, capsys):
        code, out, _ = run(capsys, "divisor", "24", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["formula_match"] is None


class TestFixedpointCommand:
    def test_json_trace(self, capsys):
        code, out, _ = run(
            capsys, "fixedpoint", "--weights", "1/2,1/4,1/4", "--format", "json"
        )
        assert code == EXIT_OK
        trace = trace_from_json(out)
        assert trace.outcome == FixedPoint(index=2)
        assert trace.states[-1][0] == 1

    def test_table(self, capsys):
        code, out, _ = run(capsys, "fixedpoint", "--weights", "1/2,1/4,1/4")
        assert code == EXIT_OK
        assert "fixed point: step 2 maps to itself" in out

    def test_max_iters_exhausted(self, capsys):
        code, out, _ = run(
            capsys, "fixedpoint", "--weights", "1/2,1/4,1/4", "--max-iters", "1"
        )
        assert code == EXIT_OK
        assert "no repetition within 1 steps" in out

    def test_banzhaf_map(self, capsys):
        code, out, _ = run(
            capsys,
            "fixedpoint", "--weights", "2,1,1", "--index", "banzhaf", "--format", "json",
        )
        assert code == EXIT_OK
        trace = trace_from_json(out)
        assert trace.kind.value == "banzhaf"
        assert isinstance(trace.outcome, FixedPoint)

    def test_20_players_with_growing_denominators_enumerate(self, capsys):
        weights = "8,19,18,5,12,30,20,16,21,19,3,20,1,30,27,16,9,18,8,7"
        code, out, _ = run(
            capsys, "fixedpoint", "--weights", weights, "--index", "ss",
            "--max-iters", "2", "--format", "json",
        )
        assert code == EXIT_OK
        states = trace_from_json(out).states
        assert len(states) == 3
        for state, image in zip(states, states[1:]):
            game = VotingSystem(
                quota=Fraction(1, 2), mode=QuotaMode.STRICTLY_EXCEEDS, weights=state
            )
            assert image == ss_enum_subsets(game).values

    def test_all_zero_weights(self, capsys):
        code, _, err = run(capsys, "fixedpoint", "--weights", "0,0,0")
        assert code == EXIT_USAGE and "error:" in err


class TestFamilyCommand:
    def test_parametric_point_json(self, capsys):
        code, out, _ = run(
            capsys,
            "family", "ab", "--k", "3", "--c", "1", "--parity", "odd",
            "--certify", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["m"] == 5
        assert payload["light_weight"] == "2/15"
        assert payload["heavy_weight"] == "1/3"
        assert payload["valid"] is True
        assert payload["banzhaf_fixed"] is True
        assert payload["engine_certified"] is True

    def test_banzhaf_check_pass(self, capsys):
        code, _, _ = run(
            capsys, "family", "ab", "--k", "3", "--c", "1", "--parity", "odd",
            "--banzhaf-check",
        )
        assert code == EXIT_OK

    def test_banzhaf_check_fail(self, capsys):
        code, _, _ = run(
            capsys, "family", "ab", "--k", "5", "--c", "2", "--parity", "odd",
            "--banzhaf-check",
        )
        assert code == EXIT_CHECK_FAILED

    def test_solve_two_heavy(self, capsys):
        code, out, _ = run(capsys, "family", "aab", "--solve", "4", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["solutions"] == [
            {"light_weight": "2/15", "heavy_weight": "7/30"},
            {"light_weight": "1/5", "heavy_weight": "1/10"},
        ]

    def test_solve_one_heavy(self, capsys):
        code, out, _ = run(capsys, "family", "ab", "--solve", "5", "--format", "json")
        assert code == EXIT_OK
        sols = json.loads(out)["solutions"]
        assert [s["light_weight"] for s in sols] == ["2/15", "1/6"]

    def test_point_evaluation(self, capsys):
        code, out, _ = run(
            capsys, "family", "ab", "--m", "5", "--b", "2/15", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["heavy_ss_power"] == "1/3"
        assert payload["ss_fixed"] is True and payload["banzhaf_fixed"] is True

    def test_two_heavy_point_evaluation(self, capsys):
        code, out, _ = run(
            capsys, "family", "aab", "--m", "4", "--b", "2/15", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["heavy_ss_power"] == "7/30" and payload["ss_fixed"] is True

    def test_integer_boundary_rejected(self, capsys):
        code, _, err = run(capsys, "family", "aab", "--m", "2", "--b", "1/6")
        assert code == EXIT_USAGE and "error:" in err

    def test_two_heavy_classes(self, capsys):
        code, out, _ = run(
            capsys,
            "family", "aab", "--k", "2", "--parity", "even", "--certify",
            "--format", "json",
        )
        assert code == EXIT_OK
        payloads = json.loads(out)
        assert [p["light_weight"] for p in payloads] == ["1/5", "2/15"]
        assert all(p["valid"] and p["engine_certified"] for p in payloads)

    @pytest.mark.parametrize(
        "argv",
        [("ab", "--solve"), ("aab", "--solve"), ("ab", "--b", "1/1000000", "--m")],
        ids=["ab", "aab", "ab-b"],
    )
    def test_solve_over_the_bound_is_refused(self, capsys, argv):
        code, out, err = run(capsys, "family", *argv, "200001")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_parameter_combinations(self, capsys):
        assert run(capsys, "family", "ab")[0] == EXIT_USAGE
        assert run(capsys, "family", "ab", "--b", "2/15")[0] == EXIT_USAGE
        assert (
            run(capsys, "family", "ab", "--k", "3", "--parity", "odd")[0] == EXIT_USAGE
        )


class TestCompatibilitySpellings:
    def test_kind_alias_on_index(self, capsys):
        base = run(capsys, "index", "--quota", "3", "--weights", "2,1,1",
                   "--format", "json")
        alias = run(capsys, "index", "--quota", "3", "--weights", "2,1,1",
                    "--kind", "both", "--format", "json")
        assert alias[0] == EXIT_OK
        assert json.loads(alias[1]) == json.loads(base[1])

    def test_normalize_divides_by_total(self, capsys):
        code, out, _ = run(
            capsys, "index", "--quota", "1/2", "--mode", "gt",
            "--weights", "2,1,1", "--normalize", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["weights"] == ["1/2", "1/4", "1/4"]
        assert payload["shapley_shubik"]["values"] == ["2/3", "1/6", "1/6"]

    def test_max_players_reroutes_auto_to_dp(self, capsys):
        code, out, _ = run(
            capsys, "index", "--quota", "3", "--weights", "2,1,1",
            "--max-players", "2", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["banzhaf"]["values"] == ["3/5", "1/5", "1/5"]

    def test_max_players_blocks_explicit_enum(self, capsys):
        code, _, err = run(
            capsys, "index", "--quota", "3", "--weights", "2,1,1",
            "--max-players", "2", "--engine", "enum",
        )
        assert code == EXIT_USAGE and "error:" in err

    def test_divisor_witness_section_only(self, capsys):
        code, out, _ = run(capsys, "divisor", "6", "--prop21", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["witness_positions"] == [0, 1, 2, 3]
        assert "formula_match" not in payload

    def test_divisor_formula_section_only(self, capsys):
        code, out, _ = run(capsys, "divisor", "20", "--formulas", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["formula_match"] is True
        assert "witness_positions" not in payload

    def test_divisor_both_sections_by_default(self, capsys):
        code, out, _ = run(capsys, "divisor", "20", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert "formula_match" in payload and "witness_positions" in payload

    def test_divisor_rejects_n_below_two(self, capsys):
        code, _, err = run(capsys, "divisor", "1")
        assert code == EXIT_USAGE and "error:" in err

    def test_fixedpoint_kind_alias(self, capsys):
        code, out, _ = run(
            capsys, "fixedpoint", "--weights", "1/2,1/4,1/4", "--kind", "ss",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert trace_from_json(out).outcome == FixedPoint(index=2)

    def test_family_capital_offset_and_default_parity(self, capsys):
        code, out, _ = run(
            capsys, "family", "ab", "--k", "3", "--C", "1", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["light_weight"] == "2/15" and payload["valid"] is True

    def test_family_gate_rejection_reason(self, capsys):
        code, out, _ = run(
            capsys, "family", "ab", "--k", "2", "--C", "1", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["valid"] is False and "integer" in payload["reason"]

    def test_family_bare_solve_reads_m(self, capsys):
        code, out, _ = run(
            capsys, "family", "aab", "--m", "8", "--solve", "--format", "json"
        )
        assert code == EXIT_OK
        sols = json.loads(out)["solutions"]
        assert [s["light_weight"] for s in sols] == ["13/180", "4/45", "1/9"]

    def test_family_bare_solve_without_m(self, capsys):
        code, _, err = run(capsys, "family", "aab", "--solve")
        assert code == EXIT_USAGE and "error:" in err

    def test_verify_prime_suite_parameters(self, capsys):
        code, out, _ = run(
            capsys, "verify", "prop24", "--n", "12", "--p", "31", "--m", "37"
        )
        assert code == EXIT_OK
        assert "FAIL" not in out and "12*31 vs 12*37" in out

    def test_verify_max_n_alias(self, capsys):
        code, out, _ = run(capsys, "verify", "prop22census", "--max-n", "300")
        assert code == EXIT_OK and "FAIL" not in out


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_each_suite_passes(self, capsys, suite):
        code, out, _ = run(capsys, "verify", suite, "--limit", "1000")
        assert code == EXIT_OK
        assert ", 0 failed" in out
        assert "FAIL" not in out

    def test_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "all")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_json_statuses(self, capsys):
        code, out, _ = run(capsys, "verify", "prop22census", "--format", "json")
        assert code == EXIT_OK
        checks = json.loads(out)
        assert {c["status"] for c in checks} <= {"PASS", "FINDING"}
        assert any(c["status"] == "FINDING" for c in checks)

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "nonsense")[0] == EXIT_USAGE

    def test_census_past_its_table_reports_findings(self, capsys):
        code, out, _ = run(capsys, "verify", "prop22census", "--limit", "2000")
        assert code == EXIT_OK and ", 0 failed" in out
        assert "FINDING excess=2 witness n=1952:" in out
        assert "FINDING excess=4 witness n=1888:" in out
        assert "PASS    excess=4 witnesses up to 1000: found [12, 70, 88]" in out


# a divisor sieve over 10**9 numbers needs gigabytes: refused before it is allocated
@pytest.mark.parametrize(
    "argv",
    [("divisor", "--scan", "1000000000"), ("verify", "prop22census", "--limit", "1000000000")],
    ids=["scan", "census"],
)
def test_oversized_sieve_is_refused_under_a_memory_cap(argv):
    child = _run_capped(*argv)
    assert child.returncode == EXIT_USAGE and child.stdout == ""
    assert child.stderr.startswith("error:") and child.stderr.count("\n") == 1
    assert "Traceback" not in child.stderr


def _child_env(*path_dirs):
    """Environment for a child process that imports the package under test.

    The directory holding the imported ``votingpower`` goes first on
    ``PYTHONPATH``, so the child cannot pick up another installed copy;
    ``path_dirs`` go first on ``PATH``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    env["PATH"] = os.pathsep.join([*map(str, path_dirs), env.get("PATH", os.defpath)])
    return env


def _run_capped(*argv):
    """``python -m votingpower`` in a child that caps its address space at 1 GiB."""
    resource = pytest.importorskip("resource")

    def cap():
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE_CAP:
            soft = ADDRESS_SPACE_CAP
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    return subprocess.run(
        [sys.executable, "-m", "votingpower", *argv],
        capture_output=True, text=True, env=_child_env(), preexec_fn=cap, timeout=120,
    )


# a numerator or denominator past Python's 4,300-digit limit for int strings
TOO_MANY_DIGITS = "1" + "0" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("index", "--quota", "1", "--weights", f"{TOO_MANY_DIGITS},1"),
        ("fixedpoint", "--weights", f"{TOO_MANY_DIGITS},1"),
        ("family", "ab", "--b", f"1/{TOO_MANY_DIGITS}", "--m", "2"),
    ],
    ids=["index", "fixedpoint", "family-ab"],
)
def test_numbers_past_the_digit_limit_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: number too long") and err.count("\n") == 1


@contextmanager
def _int_strings_unlimited():
    """Lift Python's digit limit for int strings, where it exists, as `main` does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


def _limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_scaled_weights_past_the_digit_limit_print_in_full(capsys):
    quota = Fraction(1, 10**190)
    weights = [Fraction(1, 10**190 * i + 1) for i in range(1, 24)]
    limit = _limit()
    code, out, err = run(
        capsys, "index", "--quota", str(quota), "--weights", ",".join(map(str, weights)),
        "--format", "json",
    )
    assert (code, err, _limit()) == (EXIT_OK, "", limit)
    system = VotingSystem(quota=quota, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=tuple(weights))
    with _int_strings_unlimited():
        payload = json.loads(out)
        scaled = list(scale_to_integers(system).weights)
        assert max(len(str(w)) for w in scaled) > 4300
    assert payload["scaled_weights"] == scaled
    assert payload["banzhaf"]["values"] == [format_rational(v) for v in banzhaf(system)[1].values]


def test_counts_past_the_digit_limit_print_in_full(capsys):
    n = 15000  # a coalition wins with 3 of n unit weights
    code, out, err = run(
        capsys, "index", "--quota", "3", "--weights", ",".join(["1"] * n), "--index", "banzhaf",
    )
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert len(lines) == n + 4
    assert lines[2].split() == ["0", "1", f"1/{n}", str(comb(n - 1, 2))]
    with _int_strings_unlimited():
        assert lines[-2:] == [
            f"winning coalitions: {2**n - 1 - n - comb(n, 2)}",
            f"total swings: {n * comb(n - 1, 2)}",
        ]


def test_family_result_past_the_digit_limit_prints_in_full(capsys):
    code, out, err = run(
        capsys, "family", "ab", "--b", "1/50000", "--m", "40000", "--format", "json"
    )
    assert (code, err) == (EXIT_OK, "")
    pair = ab_banzhaf_indices(40000, Fraction(1, 50000))
    with _int_strings_unlimited():
        payload = json.loads(out)
        assert len(str(pair.heavy.denominator)) > 4300
        assert payload["banzhaf_heavy"] == format_rational(pair.heavy)
        assert payload["banzhaf_light"] == format_rational(pair.light)


def test_closed_stdout_exits_141_without_a_traceback():
    child = subprocess.Popen(
        [sys.executable, "-m", "votingpower", "divisor", "--scan", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(),
    )
    # the scan prints over 100 kB, more than a pipe holds, so the child is
    # still writing when the reader goes away
    assert child.stdout.readline().split() == ["n", "divisor_count", "excess"]
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err


def _declared_script(name):
    """The ``module:attr`` entry of ``name`` in ``[project.scripts]``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no {name!r} script"
    return scripts[name]


def _check_script(env):
    """Run the ``votingpower`` found on ``env``'s ``PATH`` the way users do."""
    script = subprocess.run(
        ["votingpower", "verify", "prop21"], capture_output=True, text=True, env=env
    )
    assert script.returncode == 0, script.stderr
    assert "0 failed" in script.stdout
    # main's return value must become the exit status, not only on success.
    degenerate = subprocess.run(
        ["votingpower", "index", "--quota", "10", "--weights", "2,1,1"],
        capture_output=True, text=True, env=env,
    )
    assert degenerate.returncode == EXIT_DEGENERATE, degenerate.stderr


def test_console_script_installed(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "votingpower", "index", "--quota", "3",
         "--weights", "2,1,1", "--format", "json"],
        capture_output=True, text=True, check=True, env=_child_env(),
    )
    assert json.loads(out.stdout)["banzhaf"]["values"] == ["3/5", "1/5", "1/5"]
    # The wrapper an installer writes for the declared entry point, so the
    # script is checked without installing the package.
    module, _, attr = map(str.strip, _declared_script("votingpower").partition(":"))
    wrapper = tmp_path / "votingpower"
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    wrapper.chmod(0o755)
    _check_script(_child_env(tmp_path))


@pytest.mark.skipif(shutil.which("votingpower") is None, reason="votingpower script not installed")
def test_console_script_on_path():
    _check_script(_child_env())
