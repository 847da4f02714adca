"""Differential tests: compiled speedups against the pure reference, and the
pruned pure cycle search against the unpruned one it replaced.

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
    for k in (8, 10, 12):
        out.append(build_reduction(inst, k=k).graph)
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
        for k in (2, 4, 6, 8, 10, 12, 14):
            assert sorted(pure.alternating_cycles(*args, k)) == sorted(
                fast.alternating_cycles(*args, k)
            )
            assert sorted(pure.alternating_even_paths(*args, k)) == sorted(
                fast.alternating_even_paths(*args, k)
            )


def _unpruned_alternating_cycles(sq_id, e_part, t_part, d_part, kcap):
    """The cycle DFS before it was pruned, kept verbatim as the reference:
    it starts at every square vertex and expands every open walk."""
    n = len(sq_id)
    out = []
    half = kcap // 2
    for s in range(n):
        if sq_id[s] < 0 or d_part[s] < 0:
            continue
        # DFS over (path, choices); steps alternate square edge then d-edge.
        stack = [(s, (), {}, 0)]  # vertex, path-so-far, choices, sq-edges used
        while stack:
            cur, path, choices, used = stack.pop()
            sq = sq_id[cur]
            if sq < 0 or used == half:
                continue
            forced = choices.get(sq)
            for bit in (0, 1) if forced is None else (forced,):
                partner = t_part[cur] if bit else e_part[cur]
                if partner <= s or partner in path:
                    continue
                nchoices = choices if forced is not None else {**choices, sq: bit}
                d = d_part[partner]
                if d < 0:
                    continue
                npath = path + (cur, partner)
                if d == s:
                    out.append((npath, tuple(sorted(nchoices.items()))))
                elif d > s and d not in npath:
                    stack.append((d, npath, nchoices, used + 1))
    return out


def _same_cycles(g, k):
    args = (g.sq_id, g.e_part, g.t_part, g.d_part, k)
    want = _unpruned_alternating_cycles(*args)
    assert pure.alternating_cycles(*args) == want  # same list, same order
    return len(want)


def test_pruned_cycles_match_unpruned_on_wgd_pairs():
    rng = random.Random(5)
    found = 0
    for seed in range(60):
        n = 3 + seed * 2  # 3..121
        s, d = random_cognate_pair(n, True, rng.randint(0, n // 4 + 1), seed)
        g = build_abg(s, singularize(d))
        for k in range(0, 15):  # odd and k < 2 included: the kernel floors kcap / 2
            found += _same_cycles(g, k)
    assert found > 100000


def test_pruned_cycles_match_unpruned_on_reductions():
    inst = normalize(parse_cnf("p cnf 4 5\n1 2 0\n1 3 0\n-1 -2 4 0\n2 3 0\n-3 -4 0\n"))
    for k in (8, 10, 12):
        assert _same_cycles(build_reduction(inst, k=k).graph, k) > 0
    assert _same_cycles(build_reduction(inst, k=8, shape="linear").graph, 8) > 0


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
