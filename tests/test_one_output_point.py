"""`votingpower.cli` writes output in one place: commands return what they show."""

import ast
from pathlib import Path

import votingpower.cli

# `_show` writes a command's result and `main` its errors; nothing else prints
ALLOWED = {"_show", "main"}


def _writers(tree: ast.AST) -> list[str]:
    """Top-level functions that call ``print`` or touch ``sys.stdout``."""
    found = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            prints = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            )
            stdout = (
                isinstance(node, ast.Attribute)
                and node.attr == "stdout"
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            )
            if prints or stdout:
                found.append(func.name)
                break
    return found


def test_checker_finds_print_and_stdout():
    source = "\n".join(
        [
            "def a(): print('x')",
            "def b():",
            "    def inner(): sys.stdout.write('x')",
            "def c(): write_scan_report(reports, sys.stdout)",
            "def d(): csv.writer(sys.stdout)",
            "def e(): return 'x'",
        ]
    )
    assert _writers(ast.parse(source)) == ["a", "b", "c", "d"]


def test_only_the_renderer_and_main_write_stdout():
    path = Path(votingpower.cli.__file__)
    found = _writers(ast.parse(path.read_text(), filename=str(path)))
    assert "_show" in found
    assert set(found) - ALLOWED == set(), "commands return what they show; `main` prints it"
