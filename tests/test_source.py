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


def test_every_kernel_export_is_used():
    """Each name `_kernels` re-exports is reached from the rest of the library."""
    init = ast.parse((SRC / "_kernels" / "__init__.py").read_text())
    exported = {alias.asname or alias.name
                for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert exported, "no re-exports found in _kernels/__init__.py"
    used = set()
    for path in SRC.rglob("*.py"):
        if "_kernels" in path.relative_to(SRC).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_kernels":
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_kernels"):
                used.update(alias.name for alias in node.names)
    unused = sorted(exported - used)
    assert not unused, "_kernels exports names the library never uses: %s" % ", ".join(unused)
