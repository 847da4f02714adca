"""Reference tests for the kernels: each kernel against its definition,
computed here by brute force over every resolution, and the pruned cycle
search against the unpruned one it replaced."""

import random
from fractions import Fraction

from doubledist._kernels import py as pure
from doubledist.abg import build_abg, enumerate_candidates, score
from doubledist.bpgraph import INFINITY
from doubledist.genomes import random_cognate_pair, singularize
from doubledist.reduction import build_closed_flower, build_reduction, normalize, parse_cnf


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


def small_graphs(max_a_star):
    """Seeded WGD pairs and closed flowers small enough to resolve every way."""
    out = [build_closed_flower(4), build_closed_flower(6)]
    rng = random.Random(3)
    for seed in range(60):
        n = rng.randint(3, 14)
        s, d = random_cognate_pair(n, True, rng.randint(0, n), seed)
        out.append(build_abg(s, singularize(d)))
    return [g for g in out if g.a_star <= max_a_star]


def _resolution(g, tau):
    """Square-edge partners of the resolution tau (a bit per square)."""
    return [(g.t_part[v] if tau[sq] else g.e_part[v]) if sq >= 0 else -1
            for v, sq in enumerate(g.sq_id)]


def _taus(g, count):
    return (tuple((t >> i) & 1 for i in range(g.a_star)) for t in range(count))


def _components(pa, pb):
    """(kind, length, vertex set) of each connected component of the graph
    with edges {v, pa[v]} and {v, pb[v]}: a cycle when every vertex has both
    edges, else a path; the length is the number of edges."""
    seen = [False] * len(pa)
    out = []
    for v in range(len(pa)):
        if seen[v]:
            continue
        seen[v] = True
        comp = [v]
        for u in comp:  # comp grows while it is read: a breadth-first search
            for w in (pa[u], pb[u]):
                if w >= 0 and not seen[w]:
                    seen[w] = True
                    comp.append(w)
        ends = sum((pa[u] >= 0) + (pb[u] >= 0) for u in comp)
        out.append(("cycle" if ends == 2 * len(comp) else "path", ends // 2, frozenset(comp)))
    return out


def _matching(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    part = [-1] * n
    for a, b in zip(order[0::2], order[1::2]):
        if rng.random() < 0.8:
            part[a], part[b] = b, a
    return part


def _same_walk(pa, pb):
    cycles, paths = pure.walk_components(pa, pb)
    want = _components(pa, pb)
    assert sorted(cycles) == sorted(length for kind, length, _ in want if kind == "cycle")
    assert sorted(paths) == sorted(length for kind, length, _ in want if kind == "path")


def test_walk_components_equivalent():
    rng = random.Random(1)
    for g in graphs():
        for _ in range(4):
            tau = [rng.randint(0, 1) for _ in range(g.a_star)]
            _same_walk(_resolution(g, tau), g.d_part)
    for n in range(40):  # two partial matchings: 2-cycles and lone vertices too
        _same_walk(_matching(rng, n), _matching(rng, n))


def _brute_best(g, k, count):
    """The highest score(g, tau, k) over the first count taus, in the order
    of tau read as an integer (bit i is square i), the lowest tau on ties."""
    best = None
    for t, tau in enumerate(_taus(g, count)):
        value = score(g, tau, k)
        if best is None or value > best[0]:
            best = (value, t)
    return best


def test_best_resolution_equivalent():
    for g in small_graphs(8):
        args = (g.sq_id, g.e_part, g.t_part, g.d_part, g.a_star)
        for k in (2, 6, 8, INFINITY):
            best2x, tau, explored = pure.best_resolution(*args, -1 if k is INFINITY else k, 1 << 20)
            assert (Fraction(best2x, 2), tau) == _brute_best(g, k, 1 << g.a_star)
            assert explored == 1 << g.a_star


def test_budget_stops_early():
    g = build_closed_flower(6)
    best2x, tau, explored = pure.best_resolution(
        g.sq_id, g.e_part, g.t_part, g.d_part, g.a_star, 12, 10
    )
    assert explored == 10 < 1 << g.a_star
    assert (Fraction(best2x, 2), tau) == _brute_best(g, 12, 10)


def _resolved_components(g):
    """Every component of every resolution, as (kind, length, vertex set,
    choices), where choices are the (square, bit) of its square vertices."""
    found = set()
    for tau in _taus(g, 1 << g.a_star):
        for kind, length, verts in _components(_resolution(g, tau), g.d_part):
            choices = {(g.sq_id[v], tau[g.sq_id[v]]) for v in verts if g.sq_id[v] >= 0}
            found.add((kind, length, verts, tuple(sorted(choices))))
    return found


def test_enumeration_equivalent():
    """The candidates are the short components over all resolutions: cycles
    of length <= k (weight 2) and even paths of length 2..k-2 (weight 1)."""
    checked = 0
    for g in small_graphs(11):
        everything = _resolved_components(g)
        for k in range(2, 13, 2):
            want = {(kind, length, verts, choices, 2 if kind == "cycle" else 1)
                    for kind, length, verts, choices in everything
                    if (length <= k if kind == "cycle"
                        else length % 2 == 0 and 2 <= length <= k - 2)}
            got = [(c.kind, c.length, frozenset(c.vertices), c.choices, c.weight2)
                   for c in enumerate_candidates(g, k)]
            assert len(set(got)) == len(got)  # each listed once
            assert set(got) == want
            checked += len(want)
    assert checked > 1000


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
