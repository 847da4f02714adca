"""Checks on the library's source text."""

import ast
import re
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


def _names_canonical_genes(node):
    return (getattr(node, "id", None) == "_canonical_genes"
            or getattr(node, "attr", None) == "_canonical_genes"
            or isinstance(node, ast.alias) and node.name == "_canonical_genes")


def test_chromosomes_are_canonicalized_in_one_place():
    """Only `Chromosome.__new__` names `_canonical_genes`, so every
    chromosome the library builds is canonical by construction."""
    inside, outside = 0, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Chromosome":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__new__":
                        allowed |= {id(n) for n in ast.walk(item)}
        for node in ast.walk(tree):
            if _names_canonical_genes(node):
                if id(node) in allowed:
                    inside += 1
                else:
                    outside.append("%s:%d" % (path.relative_to(SRC), node.lineno))
    assert inside, "Chromosome.__new__ does not canonicalize"
    assert not outside, "_canonical_genes named outside Chromosome.__new__: %s" % ", ".join(outside)


_VERTEX_ARRAYS = ("sq_id", "e_part", "t_part")


def _writes_a_vertex_array(node):
    """True iff node assigns into sq_id, e_part or t_part by subscript, as a
    name or an attribute."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    for target in targets:
        for part in ast.walk(target):
            if isinstance(part, ast.Subscript):
                array = part.value
                if getattr(array, "id", None) in _VERTEX_ARRAYS \
                        or getattr(array, "attr", None) in _VERTEX_ARRAYS:
                    return True
    return False


def test_squares_fill_the_vertex_arrays_in_one_place():
    """Only `AmbiguousBreakpointGraph._fill` writes `sq_id`, `e_part` and
    `t_part` by subscript, so every graph's arrays come from its squares by
    one statement of the rule."""
    inside, outside = 0, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_fill":
                allowed |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if _writes_a_vertex_array(node):
                if id(node) in allowed:
                    inside += 1
                else:
                    outside.append("%s:%d" % (path.relative_to(SRC), node.lineno))
    assert not outside, "vertex arrays written outside _fill: %s" % ", ".join(outside)
    assert inside, "_fill does not write the vertex arrays"


def _identifiers_used(path):
    """The names a file reads: names, attributes, imported names and string
    constants that are identifiers (as `setattr`/`getattr` take them)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def test_every_definition_is_referenced():
    """Each function, method and class the library defines is named
    somewhere in the library, its tests or the benchmark, besides its own
    definition.  Dunder methods, which the interpreter calls, are skipped."""
    defined = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, "%s:%d" % (path.relative_to(SRC), node.lineno))
    assert defined, "no definitions found under %s" % SRC
    root = SRC.parents[1]
    used = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            used |= _identifiers_used(path)
    unused = sorted("%s (%s)" % (name, where) for name, where in defined.items()
                    if name not in used)
    assert not unused, "defined but never referenced: %s" % ", ".join(unused)


def test_no_unused_imports():
    """Every name a library module imports is read in that module.  The
    re-exports of `__init__.py` and `from __future__` imports are skipped."""
    checked, found = 0, []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    # `import a.b` binds a
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        checked += len(imported)
        found += ["%s:%d %s" % (path.relative_to(SRC), line, name)
                  for name, line in sorted(imported.items()) if name not in read]
    assert checked, "no imports found under %s" % SRC
    assert not found, "imported but never read: %s" % ", ".join(found)


def test_regexes_need_no_newer_python():
    """pyproject.toml accepts Python 3.10, whose `re` has no possessive
    quantifiers (`*+`, `++`, `?+`, `}+`) and no atomic groups (`(?>`): a
    pattern with one fails to compile when its module is imported."""
    newer = re.compile(r"[*+?}]\+|\(\?>")
    compiles, found = 0, []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "compile" \
                    and getattr(node.func.value, "id", None) == "re":
                compiles += 1
                found += ["%s:%d %r" % (path.relative_to(SRC), part.lineno, part.value)
                          for part in ast.walk(node)
                          if isinstance(part, ast.Constant) and isinstance(part.value, str)
                          and newer.search(part.value)]
    assert compiles, "no re.compile calls found under %s" % SRC
    assert not found, "patterns that need Python 3.11: %s" % ", ".join(found)
