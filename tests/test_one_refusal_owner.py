"""Only `indices` catches `TooLarge`.

The engines decide which refused table to name (the smallest one), so no
caller retries a smaller table in an ``except TooLarge`` handler to report it.
"""

import ast
from pathlib import Path

import votingpower

PACKAGE_DIR = Path(votingpower.__file__).resolve().parent


def _catches_too_large(handler: ast.ExceptHandler) -> bool:
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(
        (isinstance(n, ast.Name) and n.id == "TooLarge")
        or (isinstance(n, ast.Attribute) and n.attr == "TooLarge")
        for n in names
    )


def _handlers(source: str) -> list[int]:
    """Lines of the ``except`` handlers in ``source`` that name `TooLarge`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler) and _catches_too_large(node)
    ]


def test_checker_finds_every_form():
    source = "\n".join(
        [
            "try:\n    f()\nexcept TooLarge:\n    raise",
            "try:\n    f()\nexcept (ValueError, errors.TooLarge):\n    pass",
            "try:\n    f()\nexcept ValueError:\n    pass\nexcept:\n    pass",
        ]
    )
    assert _handlers(source) == [3, 7]


def test_only_indices_catches_too_large():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert PACKAGE_DIR / "cli.py" in paths
    found = [
        f"{path.name}:{line}"
        for path in paths
        if path.name != "indices.py"
        for line in _handlers(path.read_text())
    ]
    assert found == []
