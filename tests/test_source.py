"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "doubledist"


def test_no_assert_statements_in_the_library():
    """`python -O` strips asserts, so a self-check must raise instead."""
    paths = sorted(SRC.rglob("*.py"))
    assert paths, "no library source found under %s" % SRC
    found = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in the library: %s" % ", ".join(found)
