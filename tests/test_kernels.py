"""Reference tests for the kernels: each kernel against its definition,
computed here by brute force over every resolution, and the pruned cycle
search and the incremental sweep against the slower code they replaced."""

import gc
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubledist import _kernels
from doubledist.abg import build_abg, enumerate_candidates, forced_choices, score
from doubledist.bpgraph import INFINITY, BudgetExceeded
from doubledist.genomes import random_cognate_pair, singularize
from doubledist.reduction import build_closed_flower, build_reduction, normalize, parse_cnf
from doubledist.solver import ss_naive

from satgen import reduction_corpus


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
    cycles, paths = _kernels.walk_components(pa, pb)
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


def _timeout(signum, frame):
    raise TimeoutError("walk_components did not return")


@pytest.mark.parametrize("pa, pb", [([1, 2, 1], [2, 2, 0]),  # spins in the cycle loop
                                    ([1, 2, 1], [-1, 2, 1])])  # spins in the path loop
def test_walk_refuses_partners_that_are_not_an_involution(pa, pb):
    """A partner array that is not an involution raises, where the walk
    once went round for ever; the alarm makes a regression fail, not hang."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(5)
    try:
        with pytest.raises(RuntimeError, match="met vertex 1 again"):
            _kernels.walk_components(pa, pb)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _brute_best(g, k, count):
    """The highest score(g, tau, k) over the first count taus, in the order
    of tau read as an integer (bit i is square i), the lowest tau on ties."""
    best = None
    for t, tau in enumerate(_taus(g, count)):
        value = score(g, tau, k)
        if best is None or value > best[0]:
            best = (value, t)
    return best


def _free_components(g, forced):
    """Free squares per component, in the order of its lowest square, found
    without the kernel: union-find over the fixed edges, the chosen edges of
    the forced squares and both matchings of each free square."""
    parent = list(range(g.n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = list(g.d_edges)
    for sq, bit in zip(g.squares, forced):
        edges += sq.edges(0) + sq.edges(1) if bit < 0 else sq.edges(bit)
    for x, y in edges:
        parent[find(x)] = find(y)
    sizes = {}  # root -> free squares; a dict keeps the order of first sight
    for sq, bit in zip(g.squares, forced):
        if bit < 0:
            root = find(sq.u)
            sizes[root] = sizes.get(root, 0) + 1
    return list(sizes.values())


def _sweep_count(g, forced):
    """The resolutions the kernel scores: 2^free summed over the components,
    or 1 when no square is free."""
    return sum(1 << f for f in _free_components(g, forced)) or 1


def _check_sweep(g, kcap, forced, want):
    """The kernel's best and tau are want's, and it scores each component's
    resolutions once."""
    best, tau, explored, sizes = _kernels.best_resolution(
        g.d_part, g.squares, kcap, forced, _sweep_count(g, forced))
    assert (best, tau) == want[:2], (forced, kcap)
    assert sizes == _free_components(g, forced) and explored == _sweep_count(g, forced)


def test_best_resolution_equivalent():
    for g in small_graphs(8):
        free = (-1,) * g.a_star
        for k in (2, 6, 8, INFINITY):
            best2x, tau, explored, _ = _kernels.best_resolution(
                g.d_part, g.squares, -1 if k is INFINITY else k, free, 1 << g.a_star)
            assert (Fraction(best2x, 2), tau) == _brute_best(g, k, 1 << g.a_star)
            assert explored == _sweep_count(g, free)


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


def _forced_reference(everything, k, forced):
    """What enumerate_candidates(g, k, forced) must return, from the short
    components of every resolution: those that keep the forced bits and use
    a free square, with their choices restricted to the free squares, and
    the doubled weight of those whose squares are all forced."""
    listed = set()
    settled2x = 0
    for kind, length, verts, choices in everything:
        if not (length <= k if kind == "cycle" else length % 2 == 0 and 2 <= length <= k - 2):
            continue
        if any(forced[sq] == 1 - bit for sq, bit in choices):
            continue
        weight2 = 2 if kind == "cycle" else 1
        free = tuple((sq, bit) for sq, bit in choices if forced[sq] < 0)
        if free:
            listed.add((kind, length, verts, free, weight2))
        else:
            settled2x += weight2
    return listed, settled2x


def _check_forced_enumeration(g, rng):
    """The rule's forced tuple and two random ones, at every even k 2..12."""
    everything = _resolved_components(g)
    tuples = {forced_choices(g)}
    for _ in range(2):
        tuples.add(tuple(rng.choice((-1, -1, 0, 1)) for _ in range(g.a_star)))
    listed = settled = 0
    for forced in tuples:
        for k in range(2, 13, 2):
            cset = enumerate_candidates(g, k, forced)
            got = [(c.kind, c.length, frozenset(c.vertices), c.choices, c.weight2)
                   for c in cset]
            assert len(set(got)) == len(got)  # each listed once
            assert (set(got), cset.settled2x) == _forced_reference(everything, k, forced), (
                forced, k)
            listed += len(got)
            settled += cset.settled2x
    return listed, settled


def test_forced_enumeration_equivalent_seeded():
    """The forced-aware kernels build exactly the components that keep the
    forced bits: the ones with a free square as candidates, the others as
    settled weight."""
    rng = random.Random(14)
    graphs = small_graphs(11)
    listed = settled = 0
    for g in graphs:
        got = _check_forced_enumeration(g, rng)
        listed += got[0]
        settled += got[1]
    assert any(0 < forced_choices(g).count(-1) < g.a_star for g in graphs)
    assert listed > 1000 and settled > 1000


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 14), ops=st.integers(0, 28), seed=st.integers(0, 2**32 - 1))
def test_forced_enumeration_equivalent(n, ops, seed):
    s, d = random_cognate_pair(n, True, ops, seed)
    g = build_abg(s, singularize(d))
    assert g.a_star <= 14
    _check_forced_enumeration(g, random.Random(seed))


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
    """The kernel lists the unpruned walks, in the same order, with every
    square free and with the graph's forced bits.  Forced, it keeps the
    walks that agree with the bits, their choices cut to the free squares,
    and settles those with no free square."""
    args = (g.sq_id, g.e_part, g.t_part, g.d_part, k)
    want = _unpruned_alternating_cycles(*args)
    assert _kernels.alternating_cycles(*args) == (want, 0)  # same list, same order
    forced = forced_choices(g)
    kept = []
    settled2x = 0
    for path, choices in want:
        if any(forced[sq] == 1 - bit for sq, bit in choices):
            continue
        free = tuple((sq, bit) for sq, bit in choices if forced[sq] < 0)
        if free:
            kept.append((path, free))
        else:
            settled2x += 2
    assert _kernels.alternating_cycles(*args, forced) == (kept, settled2x)
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


def _sigma2x_from_lengths(cycles, paths, kcap):
    """Doubled sigma value; kcap is the even cycle-length cap or -1 for unbounded."""
    total = 0
    if kcap < 0:
        for c in cycles:
            total += 2
        for p in paths:
            if p % 2 == 0:
                total += 1
    else:
        for c in cycles:
            if c <= kcap:
                total += 2
        pcap = kcap - 2
        for p in paths:
            if p % 2 == 0 and p <= pcap:
                total += 1
    return total


def _sweep_by_walk(sq_id, e_part, t_part, d_part, a_star, kcap, node_budget):
    """The sweep before the depth-first search, kept verbatim as the
    reference: it rewrites every square partner and walks the whole graph
    once per resolution."""
    n = len(sq_id)
    total = 1 << a_star
    best = -1
    best_tau = 0
    pa = [-1] * n
    square_verts = [v for v in range(n) if sq_id[v] >= 0]
    explored = 0
    for tau in range(total):
        if explored >= node_budget:
            break
        explored += 1
        for v in square_verts:
            pa[v] = t_part[v] if (tau >> sq_id[v]) & 1 else e_part[v]
        score = _sigma2x_from_lengths(*_kernels.walk_components(pa, d_part), kcap)
        if score > best:
            best = score
            best_tau = tau
    return best, best_tau, explored


def sweep_graphs():
    """Seeded WGD pairs with a* <= 12 and ops 0..2n, then closed flowers."""
    rng = random.Random(9)
    out = []
    for seed in range(48):
        n = rng.randint(1, 12)
        s, d = random_cognate_pair(n, True, rng.randint(0, 2 * n), seed)
        out.append(build_abg(s, singularize(d)))
    return out + [build_closed_flower(p) for p in range(2, 9)]


def test_sweep_matches_sweep_by_walk():
    graphs = sweep_graphs()
    # the pairs cover linear and circular genomes, odd paths and lone vertices
    assert any(min(g.sq_id) < 0 for g in graphs) and any(min(g.sq_id) >= 0 for g in graphs)
    paths = [p for g in graphs
             for p in _kernels.walk_components(_resolution(g, [0] * g.a_star), g.d_part)[1]]
    assert 0 in paths and any(p % 2 for p in paths)
    assert max(g.a_star for g in graphs) == 12
    # and graphs whose squares fall into more than one component
    assert any(len(_free_components(g, (-1,) * g.a_star)) > 1 for g in graphs)
    for g in graphs:
        for kcap in (2, 4, 6, 8, 10, 12, -1):
            want = _sweep_by_walk(g.sq_id, g.e_part, g.t_part, g.d_part, g.a_star, kcap,
                                  1 << g.a_star)
            _check_sweep(g, kcap, (-1,) * g.a_star, want)


def _restricted_sweep_by_walk(g, kcap, node_budget, forced):
    """`_sweep_by_walk` over only the resolutions that keep the forced bits,
    in the same ascending tau order, with only those counted as explored."""
    fmask = sum(1 << s for s, bit in enumerate(forced) if bit >= 0)
    fbits = sum(bit << s for s, bit in enumerate(forced) if bit > 0)
    pa = [-1] * len(g.sq_id)
    best = -1
    best_tau = 0
    explored = 0
    for tau in range(1 << g.a_star):
        if tau & fmask != fbits:
            continue
        if explored >= node_budget:
            break
        explored += 1
        for v, sq in enumerate(g.sq_id):
            if sq >= 0:
                pa[v] = g.t_part[v] if (tau >> sq) & 1 else g.e_part[v]
        score = _sigma2x_from_lengths(*_kernels.walk_components(pa, g.d_part), kcap)
        if score > best:
            best = score
            best_tau = tau
    return best, best_tau, explored


def test_forced_sweep_matches_restricted_sweep_by_walk():
    """Forced tuples from the rule and at random: the kernel searches exactly
    the resolutions that keep the forced bits, under every kcap."""
    rng = random.Random(12)
    graphs = sweep_graphs()
    cases = 0
    for g in graphs:
        tuples = {forced_choices(g)}
        for _ in range(14):
            tuples.add(tuple(rng.choice((-1, -1, 0, 1)) for _ in range(g.a_star)))
        for forced in tuples:
            for kcap in (2, 4, 6, 8, 10, 12, -1):
                want = _restricted_sweep_by_walk(g, kcap, 1 << forced.count(-1), forced)
                _check_sweep(g, kcap, forced, want)
                cases += 1
    assert any(0 < forced_choices(g).count(-1) < g.a_star for g in graphs)
    assert any(len(_free_components(g, forced_choices(g))) > 1 for g in graphs)
    assert cases > 4000


def _check_rule_keeps_the_optimum(g):
    """With the rule's forced bits the sweep finds the all-free optimum and
    its lowest tau, scoring 2^free resolutions per component."""
    forced = forced_choices(g)
    for kcap in (2, 4, 6, 8, 10, -1):
        args = (g.d_part, g.squares, kcap)
        best, tau, explored, _ = _kernels.best_resolution(*args, forced, 1 << g.a_star)
        assert (best, tau) == _kernels.best_resolution(
            *args, (-1,) * g.a_star, 1 << g.a_star)[:2], (forced, kcap)
        assert explored == _sweep_count(g, forced)


def test_forced_sweep_keeps_the_all_free_optimum_seeded():
    rng = random.Random(13)
    forced_total = 0
    for seed in range(40):
        n = rng.randint(2, 14)
        s, d = random_cognate_pair(n, True, rng.randint(0, 2 * n), seed)
        g = build_abg(s, singularize(d))
        assert g.a_star <= 14
        _check_rule_keeps_the_optimum(g)
        forced_total += g.a_star - forced_choices(g).count(-1)
    assert forced_total > 100


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 14), ops=st.integers(0, 28), seed=st.integers(0, 2**32 - 1))
def test_forced_sweep_keeps_the_all_free_optimum(n, ops, seed):
    s, d = random_cognate_pair(n, True, ops, seed)
    _check_rule_keeps_the_optimum(build_abg(s, singularize(d)))


def test_every_optimal_resolution_keeps_the_forced_bits():
    """The exchange proof's claim, by brute force: no resolution that drops a
    forced bit reaches the optimum, for any k."""
    dropped = 0
    for g in small_graphs(8):
        forced = forced_choices(g)
        for k in (2, 4, 6, 8, INFINITY):
            scores = {tau: score(g, tau, k) for tau in _taus(g, 1 << g.a_star)}
            top = max(scores.values())
            for tau, value in scores.items():
                if any(bit >= 0 and tau[s] != bit for s, bit in enumerate(forced)):
                    assert value < top, (forced, k, tau)
                    dropped += 1
    assert dropped > 1000


def test_sweep_leaves_no_cyclic_garbage():
    """The search state is freed when the sweep returns, not by the cycle
    collector: a solve keeps nothing behind."""
    g = build_closed_flower(4)
    gc.collect()
    gc.disable()
    try:
        for forced in ((-1,) * g.a_star, (0, -1, 1, -1)):
            _kernels.best_resolution(g.d_part, g.squares, -1, forced, 1 << g.a_star)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_naive_budget_counts_complete_resolutions():
    """budget_nodes counts the resolutions that keep the forced bits, 2^free
    per component of the free squares."""
    mixed = [g for g in sweep_graphs() if 0 < forced_choices(g).count(-1) < g.a_star]
    most_free = max(mixed, key=lambda g: forced_choices(g).count(-1))
    assert forced_choices(most_free).count(-1) >= 6
    split = [g for g in mixed if len(_free_components(g, forced_choices(g))) > 1]
    assert split
    for g in (build_closed_flower(5), most_free, split[0]):
        free = forced_choices(g).count(-1)
        total = _sweep_count(g, forced_choices(g))
        for k in (8, INFINITY):
            with pytest.raises(BudgetExceeded):
                ss_naive(g, k, budget_nodes=total - 1)
            stats = ss_naive(g, k, budget_nodes=total).stats
            assert stats.nodes == total and stats.forced == g.a_star - free


def _reference_alternating_cycles(sq_id, e_part, t_part, d_part, kcap, forced=None):
    """`_kernels.alternating_cycles` as it was when its walks looked at
    most one hop ahead, kept verbatim as the reference for the two-hop
    prune."""
    n = len(sq_id)
    out = []
    settled2x = 0
    if kcap < 2:
        return out, settled2x
    starts = range(n)
    if forced is None:
        forced = (-1,) * n  # a graph has fewer than n squares
        # The tests the loop below makes first, in one pass: a square vertex
        # whose fixed-edge partner is a larger square vertex, and a first
        # square edge, under either bit, to a larger vertex whose fixed edge
        # does not go below s.  A start that fails them lists nothing.
        starts = [
            s for s in range(n)
            if d_part[s] > s and sq_id[s] >= 0 and sq_id[d_part[s]] >= 0
            and (e_part[s] > s and d_part[e_part[s]] >= s
                 or t_part[s] > s and d_part[t_part[s]] >= s)
        ]
    for s in starts:
        if sq_id[s] < 0:
            continue
        # The cycle closes through the last square edge into sd = d_part[s],
        # and no vertex below s is ever visited: skip starts that cannot close.
        sd = d_part[s]
        if sd <= s or sq_id[sd] < 0:
            continue
        last_sq = sq_id[sd]
        # DFS over (path, choices); steps alternate square edge then d-edge.
        # A hop is a square edge and the fixed edge after it.  The cycle's
        # last square edge ends at sd, so it starts in sd's square: a walk
        # that may take j more square edges can close only if it reaches
        # that square within j - 1 hops (or fewer: it may close early).
        # Only states with a square edge left are pushed, and, for j <= 2,
        # only those that pass this test with bits and visited vertices
        # ignored, a superset of the states that close.
        # choices holds the free squares' bits only; a forced square's bit is
        # read from forced, so a walk never contradicts it.  A state is
        # (vertex, path so far, choices, square edges left after this step).
        stack = [(s, (), {}, kcap // 2 - 1)]
        while stack:
            cur, path, choices, left = stack.pop()
            sq = sq_id[cur]
            known = choices.get(sq, forced[sq])
            for bit in (0, 1) if known < 0 else (known,):
                partner = t_part[cur] if bit else e_part[cur]
                if partner <= s or partner in path:
                    continue
                nchoices = choices if known >= 0 else {**choices, sq: bit}
                d = d_part[partner]
                if d < 0:
                    continue
                npath = path + (cur, partner)
                if d == s:
                    if nchoices:
                        out.append((npath, tuple(sorted(nchoices.items()))))
                    else:
                        settled2x += 2
                elif d > s and left and sq_id[d] >= 0 and d not in npath:
                    if sq_id[d] != last_sq:
                        if left == 1:
                            continue
                        if left == 2:
                            x = d_part[e_part[d]]
                            y = d_part[t_part[d]]
                            if not ((x >= 0 and sq_id[x] == last_sq)
                                    or (y >= 0 and sq_id[y] == last_sq)):
                                continue
                    stack.append((d, npath, nchoices, left - 1))
    return out, settled2x


def _two_hop_inputs():
    """The graphs the two-hop prune must leave unchanged, with their k and
    forced bits: every corpus formula in both shapes at k 8 to 14 (every
    square free), and seeded WGD pairs with their forced bits."""
    for inst in reduction_corpus():
        for k in (8, 10, 12, 14):
            for shape in ("circular", "linear"):
                yield build_reduction(inst, k=k, shape=shape).graph, k, None
    rng = random.Random(29)
    for seed in range(200):
        n = rng.randint(4, 60)
        s, d = random_cognate_pair(n, True, rng.randint(0, n), seed)
        g = build_abg(s, d)
        forced = forced_choices(g)
        for k in (8, 10, 12, 16):
            yield g, k, forced


def test_two_hop_prune_matches_the_reference():
    """The walk that looks two hops ahead lists the same cycles, in the same
    order, and settles the same weight as the one-hop walk it replaced."""
    found = {True: 0, False: 0}  # cycles listed, with and without forced bits
    for g, k, forced in _two_hop_inputs():
        args = (g.sq_id, g.e_part, g.t_part, g.d_part, k, forced)
        want = _reference_alternating_cycles(*args)
        assert _kernels.alternating_cycles(*args) == want
        found[forced is not None] += len(want[0])
    assert found[False] > 10000 and found[True] > 1000
