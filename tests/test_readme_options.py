"""The README's *Command line* section names every option the parser accepts."""

import argparse
import re
from pathlib import Path

from votingpower.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Command line\n")
    end = text.find("\n## ", start + 1)
    return text[start : None if end < 0 else end]


def _option_strings() -> set[str]:
    """Every option string of every subcommand, aliases included, but ``--help``."""
    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        option
        for parser in subcommands.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }


def test_every_option_is_in_the_readme():
    section = _command_line_section()
    missing = sorted(
        option
        for option in _option_strings()
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", section)
    )
    assert missing == [], "document these options under the README's Command line"


def test_the_check_sees_aliases():
    assert {"--kind", "--C", "--max-n", "--out"} <= _option_strings()
