"""The package builds its n-tuples from lists, never from generators."""

import ast
from pathlib import Path

import votingpower

PACKAGE_DIR = Path(votingpower.__file__).resolve().parent

REASON = (
    "n-tuples come from lists: tuple(<generator>) resizes, "
    "so freed ones pile up on free lists"
)


def _generator_tuples(tree: ast.AST) -> list[int]:
    """Lines of ``tuple(<generator>)`` calls and of ``f(*(x for ...))`` arguments."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
        ):
            lines.append(node.lineno)
        lines += [
            arg.lineno
            for arg in node.args
            if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp)
        ]
    return lines


def test_checker_finds_both_forms():
    source = "\n".join(
        [
            "a = tuple(x for x in y)",
            "b = lcm(*(w.denominator for w in ws))",
            "c = tuple([x for x in y])",
        ]
    )
    assert _generator_tuples(ast.parse(source)) == [1, 2]


def test_package_source_builds_no_tuple_from_a_generator():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert PACKAGE_DIR / "core.py" in paths
    found = [
        f"{path.name}:{line}"
        for path in paths
        for line in _generator_tuples(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], REASON
