"""Only the three dispatchers name `indices._last_pass`.

The slot lets `banzhaf`, `shapley_shubik` and `count_winning` share one engine
pass over a system object.  The named engines, which the benchmark's oracle
gate calls to recompute an answer, and every other function must never see
it: a pass they reused would check nothing.
"""

import ast
from pathlib import Path

import votingpower

PACKAGE_DIR = Path(votingpower.__file__).resolve().parent
SLOT = "_last_pass"
DISPATCHERS = {"banzhaf", "shapley_shubik", "count_winning"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _names_slot(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == SLOT
    if isinstance(node, ast.Attribute):
        return node.attr == SLOT
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return SLOT in node.names
    return False


def _owners(node: ast.AST, function: str | None, found: set[str]) -> None:
    """Add to ``found`` each innermost function, by name, whose own body names the slot."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS):
            _owners(child, getattr(child, "name", "<lambda>"), found)
            continue
        if function is not None and _names_slot(child):
            found.add(function)
        _owners(child, function, found)


def test_only_the_dispatchers_name_the_shared_pass():
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        owners: set[str] = set()
        _owners(ast.parse(path.read_text(), filename=str(path)), None, owners)
        if owners:
            found[path.name] = owners
    assert found == {"indices.py": DISPATCHERS}
