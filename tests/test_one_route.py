"""Every engine choice goes through `indices`: no other module calls an engine directly."""

import ast
from pathlib import Path

import votingpower

PACKAGE_DIR = Path(votingpower.__file__).resolve().parent
ENGINES = {"banzhaf_dp", "ss_dp", "banzhaf_enum", "ss_enum_subsets"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_only_indices_calls_an_engine():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert PACKAGE_DIR / "fixedpoint.py" in paths
    found = [
        f"{path.name}:{node.lineno} {_called_name(node)}"
        for path in paths
        if path.name != "indices.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _called_name(node) in ENGINES
    ]
    assert found == []
