"""Benchmark the compiled kernels against the pure-Python reference.

Usage: python benchmarks/bench_kernels.py
"""

import random
import time

from doubledist._kernels import py as pure
from doubledist.abg import build_abg
from doubledist.genomes import random_cognate_pair, singularize
from doubledist.reduction import build_reduction, normalize, parse_cnf

try:
    from doubledist._kernels import _speedups as fast
except ImportError:
    fast = None

PAPER_CNF = "p cnf 4 5\n1 2 0\n1 3 0\n-1 -2 4 0\n2 3 0\n-3 -4 0\n"


def timed(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_best_resolution(backend):
    # a 12+ square ambiguous graph: 2^a* resolutions, census each
    s, d = random_cognate_pair(14, wgd=True, ops=4, seed=42)
    g = build_abg(s, singularize(d))
    return lambda: backend.best_resolution(
        g.sq_id, g.e_part, g.t_part, g.d_part, g.a_star, 8, 1 << 30
    )


def bench_candidates(backend):
    inst = normalize(parse_cnf(PAPER_CNF))
    g = build_reduction(inst, k=12).graph
    # the pure search is pruned and the compiled one is not: compare the
    # cycles themselves, in a backend-independent order
    return lambda: sorted(
        backend.alternating_cycles(g.sq_id, g.e_part, g.t_part, g.d_part, 12)
    )


def bench_walk(backend):
    inst = normalize(parse_cnf(PAPER_CNF))
    g = build_reduction(inst, k=8).graph
    rng = random.Random(0)
    arrays = []
    for _ in range(200):
        tau = [rng.randint(0, 1) for _ in range(g.a_star)]
        pa = [-1] * g.n_vertices
        for v in range(g.n_vertices):
            sq = g.sq_id[v]
            if sq >= 0:
                pa[v] = g.t_part[v] if tau[sq] else g.e_part[v]
        arrays.append(pa)

    def run():
        total = 0
        for pa in arrays:
            cycles, paths = backend.walk_components(pa, g.d_part)
            total += len(cycles) + len(paths)
        return total

    return run


BENCHES = [
    ("exhaustive resolution sweep (2^a* censuses)", bench_best_resolution),
    ("bounded cycle enumeration on the k=12 graph", bench_candidates),
    ("200 census walks on the 944-vertex graph", bench_walk),
]


def main():
    print("%-48s %10s %10s %8s" % ("benchmark", "pure", "compiled", "speedup"))
    for name, make in BENCHES:
        t_pure, r_pure = timed(make(pure))
        if fast is None:
            print("%-48s %9.3fs %10s" % (name, t_pure, "n/a"))
            continue
        t_fast, r_fast = timed(make(fast))
        if r_pure != r_fast:
            raise SystemExit("%s: the backends disagree" % name)
        print(
            "%-48s %9.3fs %9.3fs %7.1fx"
            % (name, t_pure, t_fast, t_pure / t_fast if t_fast else float("inf"))
        )


if __name__ == "__main__":
    main()
