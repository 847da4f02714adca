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
    """Each kernel `_kernels` defines is reached from the rest of the library."""
    module = ast.parse((SRC / "_kernels.py").read_text())
    kernels = {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
    assert kernels, "no kernels found in _kernels.py"
    used = set()
    for path in SRC.rglob("*.py"):
        if path.name == "_kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_kernels":
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_kernels"):
                used.update(alias.name for alias in node.names)
    unused = sorted(kernels - used)
    assert not unused, "_kernels defines kernels the library never uses: %s" % ", ".join(unused)
