"""`votingpower.indices` decodes its tables in C, never one int per loop step."""

import ast
from pathlib import Path

import votingpower.indices

REASON = "decode with `_unpack`: int.from_bytes in a comprehension runs once per field in Python"

COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _looped_from_bytes(tree: ast.AST) -> list[int]:
    """Lines of ``int.from_bytes(...)`` calls inside a comprehension or generator expression."""
    lines = set()
    for comp in ast.walk(tree):
        if not isinstance(comp, COMPREHENSIONS):
            continue
        for node in ast.walk(comp):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_bytes"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "int"
            ):
                lines.add(node.lineno)
    return sorted(lines)


def test_checker_finds_every_comprehension():
    source = "\n".join(
        [
            "a = (int.from_bytes(d[i : i + w], 'little') for i in r)",
            "b = [int.from_bytes(c, 'little') for c in cs]",
            "c = {k: int.from_bytes(c, 'little') for k, c in cs}",
            "d = {int.from_bytes(c, 'little') for c in cs}",
            "e = map(int.from_bytes, cs, repeat('little'))",
            "f = int.from_bytes(data, 'little')",
        ]
    )
    assert _looped_from_bytes(ast.parse(source)) == [1, 2, 3, 4]


def test_indices_calls_no_int_from_bytes_per_item():
    path = Path(votingpower.indices.__file__)
    found = _looped_from_bytes(ast.parse(path.read_text(), filename=str(path)))
    assert found == [], f"{REASON} (lines {found})"
