"""Whole CLI outputs, pinned byte for byte.

Each entry is an argv, its exit code and the first 16 hex digits of the
sha256 of its stdout and of its stderr.  Together they cover every subcommand
in every format it accepts, the report sections, scan reports to stdout and to
a file, the family modes and gates, and exits 0 to 3.  A change to any
printed byte fails here; when the change is intended, re-record the entry and
say why.  Argparse's own usage errors are left out: their wording differs
between Python versions.
"""

import hashlib
import shlex

import pytest

from votingpower.cli import main


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


EMPTY = _digest("")

PINS = (
    ("index --quota 3 --weights 2,1,1", 0, "ac00e788d6fdd3ce", EMPTY),
    ("index --quota 3 --weights 2,1,1 --format json", 0, "4671097258e16e47", EMPTY),
    ("index --quota 3 --weights 2,1,1 --format csv", 0, "8b9daa968587c226", EMPTY),
    ("index --quota 51 --weights 50,49,1 --index banzhaf", 0, "f051a115cd060726", EMPTY),
    ("index --quota 51 --weights 50,49,1 --index banzhaf --format csv", 0, "36aaf8d195bfc5bc", EMPTY),
    ("index --quota 51 --weights 50,49,1 --index ss --format json", 0, "d318bc68795dd2a9", EMPTY),
    ("index --quota 1/2 --weights 1/3,1/4,1/5,1/6 --normalize --mode gt", 0, "ec39da514b0be426", EMPTY),
    ("index --quota 1/2 --weights 1/3,1/4,1/5,1/6 --normalize --mode gt --format json", 0, "9762ab7b7bc0dcb9", EMPTY),
    ("index --quota 2/3 --weights 3/7,2/7,1/7,1/7 --engine enum --format csv", 0, "095bf8a412f3af41", EMPTY),
    ("index --quota 2/3 --weights 3/7,2/7,1/7,1/7 --engine dp", 0, "dadfb0034b65abab", EMPTY),
    ("index --quota 13 --weights 1,2,3,4,5,6,7,8,9,10,11,12 --index both --format json", 0, "156ad410f9546f29", EMPTY),
    ("index --quota 10 --weights 2,1,1", 3, EMPTY, "5105f7a725e0ce8e"),
    ("index --quota 10 --weights 2,1,1 --format json", 3, EMPTY, "5105f7a725e0ce8e"),
    ('index --quota 1 --weights ""', 2, EMPTY, "88c6c3fae6765f28"),
    ("index --quota x --weights 1,2", 2, EMPTY, "737f89f03d0f768c"),
    ("index --quota 0 --weights 1,2", 2, EMPTY, "00ce7a0b557a0e5c"),
    ("index --quota 5 --weights 1,1,1,1,1,1,1,1 --engine enum --max-players 4", 2, EMPTY, "e58a3140e01be51a"),
    ("divisor 12", 0, "e4d89f4641265a6f", EMPTY),
    ("divisor 12 --format json", 0, "0b6cca1bc6c5fda7", EMPTY),
    ("divisor 12 --format csv", 0, "7f54c58b6e3c0c78", EMPTY),
    ("divisor 12 --formulas", 0, "21d6688def4c0684", EMPTY),
    ("divisor 12 --prop21", 0, "e918230726b584a4", EMPTY),
    ("divisor 12 --formulas --format json", 0, "b085b428bc04657e", EMPTY),
    ("divisor 12 --prop21 --format json", 0, "5c7b19d64334b3fe", EMPTY),
    ("divisor 12 --prop21 --format csv", 0, "7f54c58b6e3c0c78", EMPTY),
    ("divisor 6", 0, "4d6616a4eda60c8b", EMPTY),
    ("divisor 7", 0, "1a45f0e455c5d8ad", EMPTY),
    ("divisor 945 --format json", 0, "41e2fad76193ad00", EMPTY),
    ("divisor 360 --formulas", 0, "b4e8ad968d589f48", EMPTY),
    ("divisor 1", 2, EMPTY, "10de38eda48c756f"),
    ("divisor", 2, EMPTY, "09375691eb25cc72"),
    ("divisor 12 --scan 300", 2, EMPTY, "8f9b4425d51ccee6"),
    ("divisor --scan 300", 0, "10f60003dd7c0631", EMPTY),
    ("divisor --scan 300 --format json", 0, "07fad85339fe8371", EMPTY),
    ("divisor --scan 300 --format csv", 0, "a7e60d4a2f20d9c2", EMPTY),
    ("divisor --scan 300 --divisors 12", 0, "77a50a85217e59de", EMPTY),
    ("divisor --scan 300 --report", 0, "1cec0df1aabe51c4", EMPTY),
    ("divisor --scan 300 --report --format json", 0, "1cec0df1aabe51c4", EMPTY),
    ("divisor --scan 300 --report --out report.csv", 0, EMPTY, EMPTY),
    ("divisor --scan 300 --report --out missing/report.csv", 2, EMPTY, "4cbf17a0495ca35a"),
    ("divisor --scan 100000000", 2, EMPTY, "1c1df5e35c9a54f6"),
    ("fixedpoint --weights 3,2,2,1", 0, "7ce68a37cc085b4e", EMPTY),
    ("fixedpoint --weights 3,2,2,1 --format json", 0, "dfaa6c0243681408", EMPTY),
    ("fixedpoint --weights 3,2,2,1 --index banzhaf", 0, "7ce68a37cc085b4e", EMPTY),
    ("fixedpoint --weights 3,2,2,1 --index banzhaf --format json", 0, "80a616d10cfb8a10", EMPTY),
    ("fixedpoint --weights 3,2,2,1 --max-iters 1", 0, "c27a0dca3544502b", EMPTY),
    ("fixedpoint --weights 3,2,2,1 --max-iters 1 --format json", 0, "8b753e535a6278c7", EMPTY),
    ("fixedpoint --weights 1,1,1,0,0 --index banzhaf", 0, "45e240dbbf1eecb8", EMPTY),
    ("fixedpoint --weights 0,0", 2, EMPTY, "0e343acb56b66947"),
    ("fixedpoint --weights 1/2,x", 2, EMPTY, "737f89f03d0f768c"),
    ("family ab --solve 10", 0, "39e3b4ff87bdeb06", EMPTY),
    ("family ab --solve 10 --format json", 0, "61bfac6a2de3ac61", EMPTY),
    ("family aab --solve 5", 0, "468e2b8d2bb2842c", EMPTY),
    ("family aab --solve 5 --format json", 0, "663c0711b1a95b94", EMPTY),
    ("family ab --solve --m 12", 0, "3a4dbe60a7c3325f", EMPTY),
    ("family ab --solve", 2, EMPTY, "697d4ca1ab227c5e"),
    ("family ab --solve 0", 2, EMPTY, "d5f918b373dcda15"),
    ("family aab --solve 200001", 2, EMPTY, "41328f854ddf7084"),
    ("family ab --b 1/11 --m 10", 0, "2b0fb040daf4b881", EMPTY),
    ("family ab --b 1/11 --m 10 --format json", 0, "4e1960ace13a6a83", EMPTY),
    ("family aab --b 2/15 --m 3", 0, "4a7e5d830f4ba718", EMPTY),
    ("family aab --b 2/15 --m 3 --format json", 0, "e1edc3ccd812d59b", EMPTY),
    ("family ab --b 1/11", 2, EMPTY, "159db77cfe5d5e4a"),
    ("family ab --b 1/2 --m 3", 2, EMPTY, "1d23123016f74959"),
    ("family aab --k 3", 0, "6d2ce71c8dbd0f43", EMPTY),
    ("family aab --k 3 --format json", 0, "fbfcd066595bead0", EMPTY),
    ("family aab --k 3 --parity even --certify", 0, "b4d959c7e8d113d8", EMPTY),
    ("family aab --k 3 --parity even --certify --format json", 0, "19b7ca93ec9a758c", EMPTY),
    ("family ab --k 4 --c 1", 0, "a3aed336210fdff9", EMPTY),
    ("family ab --k 4 --c 1 --format json", 0, "e353941e67f4a46a", EMPTY),
    ("family ab --k 4 --c 1 --certify --banzhaf-check", 0, "d02218cb61fc65dd", EMPTY),
    ("family ab --k 5 --c 2 --banzhaf-check", 1, "e256527b405711dc", EMPTY),
    ("family ab --k 5 --c 2 --banzhaf-check --format json", 1, "6a61a3f6c49bb378", EMPTY),
    ("family ab --k 5", 2, EMPTY, "87457cf0cd34ce1b"),
    ("family ab", 2, EMPTY, "54dab4de1695b821"),
    ("verify all", 0, "9334915cf955d41d", EMPTY),
    ("verify all --format json", 0, "1cf69c6b4c0adc02", EMPTY),
    ("verify prop21", 0, "fe11031990f2adca", EMPTY),
    ("verify prop24 --n 12", 0, "6e300a23a23d7fc3", EMPTY),
    ("verify prop24 --n 12 --format json", 0, "12ff6d0b5fd8c2c3", EMPTY),
    ("verify prop22census --limit 2000", 0, "337a3f58d9da0252", EMPTY),
    ("verify prop22census --limit 100000000", 2, EMPTY, "1c1df5e35c9a54f6"),
)


@pytest.mark.parametrize("line, code, out, err", PINS, ids=[p[0] for p in PINS])
def test_stdout_is_pinned(capsys, tmp_path, monkeypatch, line, code, out, err):
    monkeypatch.chdir(tmp_path)  # for the --out cases
    assert main(shlex.split(line)) == code
    captured = capsys.readouterr()
    assert (_digest(captured.out), _digest(captured.err)) == (out, err)


def test_scan_report_file_holds_what_stdout_shows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split("divisor --scan 300 --report --out report.csv")) == 0
    shown = next(p[2] for p in PINS if p[0] == "divisor --scan 300 --report")
    assert _digest((tmp_path / "report.csv").read_bytes().decode()) == shown
