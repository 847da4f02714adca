"""Differential tests: compiled speedups against the pure reference.

The compiled module is built from the shipped `_speedups.c` into a temporary
directory, so the tests exercise it even when the package was installed
without it; they skip only when no module could be built (no C compiler).
"""

import importlib.util
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from doubledist import _kernels
from doubledist._kernels import py as pure
from doubledist.abg import build_abg
from doubledist.genomes import random_cognate_pair, singularize
from doubledist.reduction import build_closed_flower, build_reduction, normalize, parse_cnf

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ROOT / "src" / "doubledist" / "_kernels"


@pytest.fixture(scope="module")
def fast(tmp_path_factory):
    out = tmp_path_factory.mktemp("speedups")
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True,
    )
    built = sorted((out / "lib").glob("doubledist/_kernels/_speedups*"))
    if not built:
        pytest.skip("no C compiler: the speedup extension could not be built")
    spec = importlib.util.spec_from_file_location("doubledist._kernels._speedups", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def graphs():
    out = []
    for seed in range(15):
        s, d = random_cognate_pair(5, True, seed % 4, seed)
        out.append(build_abg(s, singularize(d)))
    out.append(build_closed_flower(4))
    inst = normalize(parse_cnf("p cnf 2 2\n1 2 0\n-1 -2 0\n"))
    out.append(build_reduction(inst, k=8).graph)
    out.append(build_reduction(inst, k=10).graph)
    return out


def test_backend_reports():
    assert _kernels.BACKEND in ("pure", "compiled")


def test_walk_components_equivalent(fast):
    rng = random.Random(1)
    for g in graphs():
        for _ in range(4):
            tau = [rng.randint(0, 1) for _ in range(g.a_star)]
            pa = [-1] * g.n_vertices
            for v in range(g.n_vertices):
                sq = g.sq_id[v]
                if sq >= 0:
                    pa[v] = g.t_part[v] if tau[sq] else g.e_part[v]
            a = tuple(sorted(map(tuple, map(sorted, pure.walk_components(pa, g.d_part)))))
            b = tuple(sorted(map(tuple, map(sorted, fast.walk_components(pa, g.d_part)))))
            assert a == b


def test_best_resolution_equivalent(fast):
    for g in graphs():
        if g.a_star > 16:
            continue
        args = (g.sq_id, g.e_part, g.t_part, g.d_part, g.a_star)
        for kcap in (2, 6, 8, -1):
            assert pure.best_resolution(*args, kcap, 1 << 20) == fast.best_resolution(
                *args, kcap, 1 << 20
            )


def test_enumeration_equivalent(fast):
    for g in graphs():
        args = (g.sq_id, g.e_part, g.t_part, g.d_part)
        for k in (2, 4, 6, 8, 10):
            assert sorted(pure.alternating_cycles(*args, k)) == sorted(
                fast.alternating_cycles(*args, k)
            )
            assert sorted(pure.alternating_even_paths(*args, k)) == sorted(
                fast.alternating_even_paths(*args, k)
            )


def test_budget_stops_early(fast):
    g = build_closed_flower(6)
    best, tau, explored = fast.best_resolution(
        g.sq_id, g.e_part, g.t_part, g.d_part, g.a_star, 12, 10
    )
    assert explored == 10
    best_p, tau_p, explored_p = pure.best_resolution(
        g.sq_id, g.e_part, g.t_part, g.d_part, g.a_star, 12, 10
    )
    assert (best, tau, explored) == (best_p, tau_p, explored_p)


def _embedded_source(c_text):
    """The .pyx lines Cython quotes in ` * ` comments of the generated C."""
    marker = re.compile(r"\s+# <{14}$")
    return {
        marker.sub("", line[3:]).rstrip()
        for line in c_text.splitlines()
        if line.startswith(" * ")
    }


def test_pyx_matches_generated_c():
    """The shipped C cannot be regenerated without Cython, so any edit to the
    .pyx must show up here instead of silently diverging from the build.
    Cython quotes every line except cimports and cdef class attributes."""
    embedded = _embedded_source((KERNELS / "_speedups.c").read_text())
    in_class = False
    missing = []
    for lineno, line in enumerate((KERNELS / "_speedups.pyx").read_text().splitlines(), 1):
        if line and not line[0].isspace():
            in_class = line.startswith("cdef class ")
        if " cimport " in line:
            continue
        if in_class and re.fullmatch(r"    cdef [\w* ]+", line):
            continue
        if line.rstrip() not in embedded:
            missing.append((lineno, line))
    assert not missing, "_speedups.pyx differs from the source of _speedups.c: %r" % missing
