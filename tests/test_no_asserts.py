"""The package raises typed errors instead of asserting: ``python -O`` strips asserts."""

import ast
from pathlib import Path

import votingpower

PACKAGE_DIR = Path(votingpower.__file__).resolve().parent


def test_package_source_has_no_assert():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert PACKAGE_DIR / "indices.py" in paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
