"""Static checks on the package source.

No ``assert`` statements: ``python -O`` strips them, so an executable
theorem must raise instead.  No float literals: exactness is the contract.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cpair")
                 .glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_float_literal(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno}: "
             + ("assert" if isinstance(node, ast.Assert)
                else f"float literal {node.value!r}")
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Constant) and isinstance(node.value, float))]
    assert not found, found
