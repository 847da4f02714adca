"""The benchmark's three workloads: seeded inputs, the timed program path
and the checks on its outputs.

Each workload is a list of slots.  Slot i's input depends only on the
workload seed and on i, so a run over the first few slots (the smoke test)
sees exactly the instances a full run sees there.  The program receives
only genome text or CNF text.

The timed path of an instance calls the library through module attributes
(`genomes.parse_genome`, `solver.dd`, ...) so that a traced run can wrap
them; the checks run outside the timed path with tracing disabled.
"""

import functools
import hashlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from doubledist import abg, genomes, reduction, solver
from doubledist.bpgraph import INFINITY

# dd_wgd_mis: n on a geometric grid over 20..100; slot i takes grid[i % 25].
MIS_N = tuple(round(20 * 5 ** (j / 24)) for j in range(25))
MIS_K = 8
# dd_wgd_dcj: the exhaustive sweep costs 2^a*, so slots cycle through a*
# exactly instead of through n, which would leave a* to chance.  An odd
# number of values puts p50 inside the a* = 11 group, not on a boundary
# between two groups whose times differ by 2x.
DCJ_A_STAR = (8, 9, 10, 11, 12, 13, 14)
# reduce_sat: formula f = slot // 3 runs at k = REDUCE_K[slot % 3].
REDUCE_K = (8, 10, 12)
REDUCE_VARS = (3, 4)
UNSAT_AT = {0: 0, 17: 1}  # formula index -> satgen.unsat_instances() index

DEFAULT_COUNT = {"dd_wgd_mis": 100, "dd_wgd_dcj": 126, "reduce_sat": 102}


class CheckFailed(Exception):
    """An instance produced an output the benchmark does not accept."""


def _slot_rng(workload, seed, slot):
    return random.Random("%s:%d:%d" % (workload, seed, slot))


# -- inputs ------------------------------------------------------------------


def make_mis_input(seed, slot):
    n = MIS_N[slot % len(MIS_N)]
    rng = _slot_rng("dd_wgd_mis", seed, slot)
    s, d = genomes.random_cognate_pair(n, wgd=True, ops=max(1, n // 4), seed=rng.getrandbits(32))
    return {"s": genomes.format_genome(s), "d": genomes.format_genome(d)}


def make_dcj_input(seed, slot):
    target = DCJ_A_STAR[slot % len(DCJ_A_STAR)]
    rng = _slot_rng("dd_wgd_dcj", seed, slot)
    while True:
        n = rng.randint(max(10, target), min(15, target + 3))
        s, d = genomes.random_cognate_pair(n, wgd=True, ops=max(1, n // 4), seed=rng.getrandbits(32))
        if len(s.adjacencies) == target:  # a WGD pair has a square per adjacency of s
            return {"s": genomes.format_genome(s), "d": genomes.format_genome(d)}


def _dimacs(inst):
    lines = ["p cnf %d %d" % (inst.var_count, len(inst.clauses))]
    lines += [" ".join(map(str, clause)) + " 0" for clause in inst.clauses]
    return "\n".join(lines) + "\n"


@functools.cache
def _satgen():
    """The repository's seeded SAT generator, loaded from its file so that
    no other `tests` package on the path can shadow it."""
    path = Path(__file__).resolve().parent.parent / "tests" / "satgen.py"
    spec = importlib.util.spec_from_file_location("satgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_reduce_input(seed, slot):
    satgen = _satgen()
    f, k = divmod(slot, len(REDUCE_K))
    k = REDUCE_K[k]
    if f in UNSAT_AT:
        inst = satgen.unsat_instances()[UNSAT_AT[f]]
    else:
        rng = _slot_rng("reduce_sat", seed, f)
        inst = satgen.random_normalized_instance(REDUCE_VARS[f % len(REDUCE_VARS)], rng.getrandbits(32))
    cnf = _dimacs(inst)
    # the expected answer, as `reduce` will see the formula
    satisfiable, witness = reduction.sat_brute(reduction.normalize(reduction.parse_cnf(cnf)))
    return {"cnf": cnf, "k": k, "satisfiable": satisfiable, "witness": witness}


# -- timed program path ------------------------------------------------------


def solve_mis(inp):
    s = genomes.parse_genome(inp["s"])
    d = genomes.parse_genome(inp["d"])
    return s, d, solver.dd(s, d, MIS_K, engine="mis")


def solve_dcj(inp):
    s = genomes.parse_genome(inp["s"])
    d = genomes.parse_genome(inp["d"])
    return s, d, solver.dd(s, d, INFINITY, engine="naive")


def solve_reduce(inp):
    k = inp["k"]
    inst = reduction.normalize(reduction.parse_cnf(inp["cnf"]))
    r = reduction.build_reduction(inst, k=k)
    report = reduction.verify_structure(r)
    res = solver.ss_mis(r.graph, k)
    bound = reduction.score_bound(inst, "circular", k)
    s, d, _ = reduction.extract_genomes(r)
    s2 = genomes.parse_genome(genomes.format_genome(s))
    d2 = genomes.parse_genome(genomes.format_genome(d))
    rebuilt = abg.build_abg(s2, genomes.singularize(d2))
    return inst, r, report, res, bound, rebuilt


# -- checks ------------------------------------------------------------------


def components(g):
    """(component count, squares in the largest) of an ambiguous graph,
    counting only components that hold a square; union-find over the
    square partners and fixed edges."""
    parent = list(range(g.n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v in range(g.n_vertices):
        for w in (g.e_part[v], g.t_part[v], g.d_part[v]):
            if w >= 0:
                a, b = find(v), find(w)
                if a != b:
                    parent[a] = b
    squares = {}
    for v in range(g.n_vertices):
        sq = g.sq_id[v]
        if sq >= 0:
            squares.setdefault(find(v), set()).add(sq)
    return len(squares), max((len(q) for q in squares.values()), default=0)


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _check_dd(out, k, golden):
    """Re-score the witness on a freshly built graph; compare with the
    frozen value when there is one.  Returns the instance's characterization."""
    s, d, res = out
    _require(res.optimal, "search did not close")
    fresh = abg.build_abg(s, genomes.singularize(d))
    rescored = abg.score(fresh, res.tau, k)
    _require(rescored == res.score, "re-score %s != engine score %s" % (rescored, res.score))
    _require(res.dd == fresh.n_star_doubled - rescored, "dd does not match the re-score")
    if golden is not None:
        _require(res.dd == Fraction(golden), "dd %s != golden %s" % (res.dd, golden))
    count, largest = components(fresh)
    return {"a_star": fresh.a_star, "candidates": res.stats.candidates,
            "components": count, "largest_component": largest,
            "engine": res.engine, "nodes": res.stats.nodes}


def check_mis(inp, out, golden):
    return _check_dd(out, MIS_K, golden)


def check_dcj(inp, out, golden):
    return _check_dd(out, INFINITY, golden)


def check_reduce(inp, out, golden):
    """The acceptance checks of the reduction: score equals the bound exactly
    when the formula is satisfiable, the structure verifies, and the
    extracted genomes rebuild a graph with the same counts."""
    inst, r, report, res, bound, rebuilt = out
    k = inp["k"]
    _require(report.ok, "verify_structure: %s" % "; ".join(report.violations))
    _require(res.optimal, "search did not close")
    fresh = reduction.build_reduction(inst, k=k).graph
    rescored = abg.score(fresh, res.tau, k)
    _require(rescored == res.score, "re-score %s != engine score %s" % (rescored, res.score))
    if inp["satisfiable"]:
        _require(res.score == bound, "satisfiable but score %s != bound %s" % (res.score, bound))
        tau = reduction.assignment_to_solution(r, inp["witness"])
        _require(abg.score(fresh, tau, k) == bound, "witness assignment misses the bound")
    else:
        _require(res.score < bound, "unsatisfiable but score %s reaches bound %s" % (res.score, bound))
    g = r.graph
    _require(
        (rebuilt.a_star, len(rebuilt.d_edges), len(rebuilt.isolated))
        == (g.a_star, len(g.d_edges), len(g.isolated)),
        "extracted genomes rebuild a different graph",
    )
    count, largest = components(g)
    return {"a_star": g.a_star, "candidates": res.stats.candidates,
            "components": count, "largest_component": largest,
            "engine": res.engine, "nodes": res.stats.nodes,
            "variables": inst.var_count}


WORKLOADS = {
    "dd_wgd_mis": (make_mis_input, solve_mis, check_mis),
    "dd_wgd_dcj": (make_dcj_input, solve_dcj, check_dcj),
    "reduce_sat": (make_reduce_input, solve_reduce, check_reduce),
}


def fingerprint(inputs):
    """sha256 over the input texts, in slot order."""
    h = hashlib.sha256()
    for inp in inputs:
        for key in ("s", "d", "cnf"):
            if key in inp:
                h.update(inp[key].encode())
                h.update(b"\0")
        if "k" in inp:
            h.update(b"k=%d\0" % inp["k"])
    return h.hexdigest()
