import gc
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubledist.abg import (
    AmbiguousBreakpointGraph,
    Square,
    build_abg,
    conflict_masks,
    enumerate_candidates,
    forced_choices,
    score,
)
from doubledist.bpgraph import INFINITY, BudgetExceeded
from doubledist.genomes import (
    GenomeError,
    parse_genome,
    random_cognate_pair,
    singularize,
)
from doubledist import abg, genomes, solver
from doubledist.reduction import build_closed_flower, build_reduction, sat_brute, score_bound
from doubledist.solver import (
    _clique_cover_bound,
    _tau_bits,
    dd,
    dd_definition_oracle,
    dd_greedy_2,
    ss_mis,
    ss_naive,
)

import satgen

TRIO_S = parse_genome("[1 2 3]")
TRIO_D = parse_genome("[1 2 -3 1]\n[-3 2]")


def trio_graph():
    return build_abg(TRIO_S, singularize(TRIO_D))


def test_naive_worked_example():
    g = trio_graph()
    # square 0's solid pair repeats the fixed edge 1h-2t: one free square
    assert forced_choices(g) == (0, -1)
    r2 = ss_naive(g, 2)
    assert r2.score == 2 and r2.optimal
    assert r2.stats.forced == 1 and r2.stats.nodes == 2 ** 1
    r8 = ss_naive(g, 8)
    assert r8.score == 3 and r8.dd == 3
    assert score(g, r8.tau, 8) == r8.score


def test_naive_closed_flower():
    g = build_closed_flower(5)
    r = ss_naive(g, 10)
    assert r.score == 2
    assert r.tau == (0, 0, 0, 0, 0)


def test_naive_no_squares():
    g = build_abg(parse_genome("[1]"), parse_genome("[1.a]\n[1.b]"))
    r = ss_naive(g, 8)
    assert r.score == 2 and r.tau == ()


def test_naive_budget():
    g = trio_graph()
    with pytest.raises(BudgetExceeded):
        ss_naive(g, 8, budget_nodes=1)  # one short of 2^free = 2


def test_naive_refuses_more_than_25_squares():
    with pytest.raises(BudgetExceeded, match="26 free squares .* over the budget of 33554432"):
        ss_naive(build_closed_flower(26), 8)


def test_naive_limit_is_the_budget_alone(monkeypatch):
    """The resolutions to sweep, 2^free summed over the components, against
    budget_nodes is the only limit, and the kernel refuses before it scores
    any: a closed flower of 5 squares, one component, is swept under a
    budget of 32 and refused under 31."""
    real = solver._kernels.best_resolution
    returned = []

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(solver._kernels, "best_resolution", spy)
    g = build_closed_flower(5)
    r = ss_naive(g, 10, budget_nodes=32)
    assert r.optimal and r.stats.nodes == 32 and returned[-1][2] == 32
    with pytest.raises(BudgetExceeded, match="5 free squares .* over the budget of 31"):
        ss_naive(g, 10, budget_nodes=31)
    assert returned[-1][2:] == (0, [5])


def test_naive_witness_mismatch_raises(monkeypatch):
    # a self-check, not an assert: it must survive python -O
    real = solver._kernels.best_resolution

    def overstated(*args):
        best, tau, explored, sizes = real(*args)
        return best + 1, tau, explored, sizes

    monkeypatch.setattr(solver._kernels, "best_resolution", overstated)
    with pytest.raises(RuntimeError, match="re-scores"):
        ss_naive(trio_graph(), 8)


def test_mis_witness_mismatch_raises(monkeypatch):
    real = solver._max_weight_independent_set

    def overstated(*args):
        best, mask, closed = real(*args)
        return best + 1, mask, closed

    monkeypatch.setattr(solver, "_max_weight_independent_set", overstated)
    with pytest.raises(RuntimeError, match="re-scores"):
        ss_mis(trio_graph(), 8)


def test_mis_matches_naive_on_examples():
    g = trio_graph()
    for k in (2, 4, 6, 8):
        a = ss_naive(g, k)
        b = ss_mis(g, k)
        assert a.score == b.score
        assert b.optimal
        assert score(g, b.tau, k) == b.score


def test_mis_rejects_infinite_k():
    with pytest.raises(ValueError):
        ss_mis(trio_graph(), INFINITY)


def test_mis_budget_never_silently_wrong():
    g = trio_graph()
    r = ss_mis(g, 8, budget_nodes=1)
    assert not r.optimal
    assert score(g, r.tau, 8) == r.score


def test_mis_candidate_free_graph():
    g = build_closed_flower(5)
    r = ss_mis(g, 8)
    assert r.score == 0 and r.optimal


def test_dd_worked_example_values():
    expected = {2: 4, 4: Fraction(7, 2), 6: 3, 8: 3, INFINITY: 3}
    for k, want in expected.items():
        assert dd(TRIO_S, TRIO_D, k, engine="naive").dd == want
        assert dd_definition_oracle(TRIO_S, TRIO_D, k) == want
        if k is not INFINITY:
            assert dd(TRIO_S, TRIO_D, k, engine="mis").dd == want
    assert dd_greedy_2(TRIO_S, TRIO_D) == 4
    assert dd(TRIO_S, TRIO_D, 2, engine="greedy2").dd == 4
    assert dd(TRIO_S, TRIO_D, 8, engine="oracle").dd == 3


def test_dd_perfect_doubling_is_zero():
    s = parse_genome("(1 2)")
    d = parse_genome("(1 2)\n(1 2)")
    for k in (2, 4, 8, INFINITY):
        assert dd(s, d, k).dd == 0
    assert dd_greedy_2(s, d) == 0


def test_dd_single_gene():
    s = parse_genome("(1)")
    d = parse_genome("(1)\n(1)")
    assert dd_definition_oracle(s, d, INFINITY) == 0


def test_dd_scrambled_doubling_frozen():
    s = parse_genome("(1 2)")
    d = parse_genome("(1 -2 1 2)")
    assert dd_definition_oracle(s, d, 2) == 2
    assert dd_definition_oracle(s, d, INFINITY) == 1
    assert dd(s, d, INFINITY).dd == 1


def test_dd_upper_bound_by_construction():
    for seed in (5, 6, 7):
        s, d = random_cognate_pair(4, wgd=True, ops=3, seed=seed)
        assert dd(s, d, INFINITY).dd <= 3
    s, d = random_cognate_pair(3, wgd=True, ops=2, seed=11)
    assert dd(s, d, INFINITY).dd <= 2


def test_dd_rejects_bad_pairs():
    with pytest.raises(GenomeError):
        dd(parse_genome("[1 2]"), parse_genome("[1 2]"), 2)
    with pytest.raises(GenomeError):
        dd_greedy_2(parse_genome("[1 1]"), parse_genome("[1 1]"))
    with pytest.raises(ValueError):
        dd(TRIO_S, TRIO_D, 4, engine="greedy2")
    with pytest.raises(ValueError):
        dd(TRIO_S, TRIO_D, 4, engine="nope")


@pytest.mark.parametrize("engine, k", [("naive", INFINITY), ("naive", 8), ("mis", 8)])
def test_dd_classifies_the_pair_once(monkeypatch, engine, k):
    """build_abg's classification is the only cognate check of an engine solve."""
    s, d = random_cognate_pair(12, wgd=True, ops=4, seed=3)
    calls = []

    def counting(*args):
        calls.append(args)
        return genomes.classify_pair(*args)

    monkeypatch.setattr(solver, "classify_pair", counting)
    monkeypatch.setattr(abg, "classify_pair", counting)
    assert dd(s, d, k, engine=engine).optimal
    assert len(calls) == 1


@pytest.mark.parametrize("engine", ["naive", "mis"])
def test_dd_refuses_a_d_that_is_not_duplicated(engine):
    # what singularize refused when dd built its graph on singularize(d)
    for s, d in (("[1 1]", "[1]"), ("[1 2]", "[1 2]"), ("[1 2]", "[1 1 2]")):
        with pytest.raises(GenomeError, match="build_abg needs a singular genome "
                                              "and its duplicated cognate"):
            dd(parse_genome(s), parse_genome(d), 4, engine=engine)


def test_dd_builds_through_the_module_name_the_tracer_wraps(monkeypatch):
    """The engine solves build their graph by calling `solver.build_abg`,
    once per solve, whether D is indexed or plain; greedy2 and oracle
    build none."""
    s, d = random_cognate_pair(6, wgd=True, ops=2, seed=5)
    built = []

    def recording(*args):
        built.append(args)
        return build_abg(*args)

    monkeypatch.setattr(solver, "build_abg", recording)
    for engine in ("naive", "mis"):
        for second in (d, d.erase_indices()):
            del built[:]
            dd(s, second, 4, engine=engine)
            assert built == [(s, second)], (engine, second)
    del built[:]
    for second in (d, d.erase_indices()):
        dd(s, second, 2, engine="greedy2")
        dd(s, second, 4, engine="oracle")
    assert built == []


@pytest.mark.parametrize("engine, k", [("naive", 2), ("naive", 4), ("naive", 8),
                                       ("naive", INFINITY), ("mis", 2), ("mis", 4),
                                       ("mis", 8)])
def test_dd_of_a_plain_d_is_dd_of_its_singularization(engine, k):
    """dd labels a plain D's copies while it reads D; the answer is the one
    on the singularized D, witness included."""
    for seed in range(80):
        n = 2 + seed % 24
        s, d = random_cognate_pair(n, wgd=True, ops=seed % (n + 1), seed=seed)
        plain = d.erase_indices()
        got = dd(s, plain, k, engine=engine)
        want = dd(s, singularize(plain), k, engine=engine)
        assert (got.score, got.dd, got.tau) == (want.score, want.dd, want.tau), seed


@pytest.mark.parametrize(
    "engine, budget",
    [
        ("naive", {"budget_ms": 5}),
        ("greedy2", {"budget_ms": 5}),
        ("oracle", {"budget_ms": 5}),
        ("greedy2", {"budget_nodes": 10}),
        ("oracle", {"budget_nodes": 10}),
    ],
)
def test_dd_refuses_budgets_the_engine_cannot_honour(engine, budget):
    with pytest.raises(ValueError, match="engine '%s'" % engine):
        dd(TRIO_S, TRIO_D, 2, engine=engine, **budget)


def test_dd_passes_honoured_budgets_on():
    with pytest.raises(BudgetExceeded):
        dd(TRIO_S, TRIO_D, 8, engine="naive", budget_nodes=1)
    assert not dd(TRIO_S, TRIO_D, 8, engine="mis", budget_nodes=1).optimal
    assert dd(TRIO_S, TRIO_D, 8, engine="mis", budget_ms=60000).dd == 3


def test_engine_and_oracle_agreement_seeded():
    for seed in range(12):
        s, d = random_cognate_pair(4, wgd=True, ops=seed % 4, seed=seed)
        for k in (2, 4, 8, INFINITY):
            want = dd_definition_oracle(s, d, k)
            got = dd(s, d, k, engine="naive")
            assert got.dd == want, (seed, k)
            assert got.score + got.dd == 2 * len(s.identities)
            if k is not INFINITY:
                assert dd(s, d, k, engine="mis").dd == want, (seed, k)
        assert dd_greedy_2(s, d) == dd(s, d, 2, engine="naive").dd


def test_dd_monotone_and_bounded():
    for seed in range(10):
        s, d = random_cognate_pair(5, wgd=True, ops=3, seed=seed + 50)
        values = [dd(s, d, k).dd for k in (2, 4, 6, 8, INFINITY)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert 0 <= values[-1] and values[0] <= 2 * len(s.identities)


def test_witness_validity_everywhere():
    for seed in range(8):
        s, d = random_cognate_pair(4, wgd=True, ops=2, seed=seed + 90)
        g = build_abg(s, singularize(d))
        for k in (2, 6, 8):
            for engine in (ss_naive, ss_mis):
                r = engine(g, k)
                assert score(g, r.tau, k) == r.score


def test_random_wgd_pair_without_scrambling_has_zero_dd():
    for seed in (1, 2, 3):
        s, d = random_cognate_pair(3, wgd=True, ops=0, seed=seed)
        for k in (2, 8, INFINITY):
            assert dd(s, d, k).dd == 0


def test_engine_agreement_moderate_size():
    # larger ambiguous graphs: exhaustive sweep against the candidate engine
    for seed in (0, 1, 2):
        s, d = random_cognate_pair(12, wgd=True, ops=4, seed=seed)
        g = build_abg(s, singularize(d))
        assert g.a_star >= 9
        for k in (2, 8):
            a = ss_naive(g, k)
            b = ss_mis(g, k)
            assert a.score == b.score, (seed, k)


def test_engine_agreement_two_hundred_pairs():
    sizes = (3, 4, 5, 6)
    for seed in range(200):
        n = sizes[seed % 4]
        s, d = random_cognate_pair(n, wgd=True, ops=seed % 5, seed=seed * 13 + 1)
        g = build_abg(s, singularize(d))
        for k in (2, 4, 6, 8, 10):
            assert ss_naive(g, k).score == ss_mis(g, k).score, (seed, k)


def _random_conflict_graph(rng, n):
    """Bitmask conflict graph on n vertices (sorted by descending weight)
    made of several random clusters whose vertices interleave."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(5, n - 1))))
    masks = [0] * n
    for lo, hi in zip([0] + cuts, cuts + [n]):
        cluster = order[lo:hi]
        for a in cluster:
            for b in cluster:
                if a < b and rng.random() < 0.4:
                    masks[a] |= 1 << b
                    masks[b] |= 1 << a
    weights = sorted((rng.randint(1, 4) for _ in range(n)), reverse=True)
    return weights, masks


# The search before its reductions at every node, kept verbatim as the
# reference that the reducing search is tested against.
def _reference_mwis_connected(weights, neighbor_masks, avail, budget):
    """Branch and bound MWIS over the vertices of avail, a mask, in a
    conflict graph given as bitmasks.

    Vertices must be pre-sorted by descending weight.  Conflict-free
    vertices are taken outright; branching picks the most-conflicted
    vertex; the bound covers the available vertices greedily with cliques,
    each contributing its heaviest member.
    Returns (best_weight, best_mask, closed)."""
    best = 0
    best_mask = 0
    closed = True
    stack = [(avail, 0, 0)]
    while stack:
        avail, cur, chosen = stack.pop()
        if not budget.tick():
            closed = False
            break
        # take every vertex with no remaining conflicts
        while True:
            rem = avail
            grabbed = False
            while rem:
                low = rem & -rem
                rem &= rem - 1
                v = low.bit_length() - 1
                if neighbor_masks[v] & avail == 0:
                    cur += weights[v]
                    chosen |= low
                    avail &= ~low
                    grabbed = True
            if not grabbed:
                break
        if cur > best:
            best = cur
            best_mask = chosen
        if not avail:
            continue
        if cur + _clique_cover_bound(weights, neighbor_masks, avail) <= best:
            continue
        # branch on the most conflicted available vertex
        rem = avail
        v = -1
        v_deg = -1
        while rem:
            low = rem & -rem
            rem &= rem - 1
            u = low.bit_length() - 1
            deg = (neighbor_masks[u] & avail).bit_count()
            if deg > v_deg:
                v, v_deg = u, deg
        bit = 1 << v
        # exclude first so the include branch is explored first (LIFO)
        stack.append((avail & ~bit, cur, chosen))
        stack.append((avail & ~(neighbor_masks[v] | bit), cur + weights[v], chosen | bit))
    return best, best_mask, closed


def test_split_search_matches_whole_graph_search():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(2, 40)
        weights, masks = _random_conflict_graph(rng, n)
        budget = solver._SearchBudget(1 << 22, None)
        best, mask, closed = solver._max_weight_independent_set(weights, masks, budget)
        whole = _reference_mwis_connected(weights, masks, (1 << n) - 1,
                                          solver._SearchBudget(1 << 22, None))
        assert closed and whole[2]
        assert best == whole[0]
        chosen = [v for v in range(n) if (mask >> v) & 1]
        assert all(masks[v] & mask == 0 for v in chosen)
        assert sum(weights[v] for v in chosen) == best
        assert budget.components >= 1 and budget.largest <= n


def test_stopped_split_search_bounds_the_optimum():
    rng = random.Random(7)
    stopped = 0
    for _ in range(300):
        n = rng.randint(2, 40)
        weights, masks = _random_conflict_graph(rng, n)
        opt = _reference_mwis_connected(weights, masks, (1 << n) - 1,
                                        solver._SearchBudget(1 << 22, None))[0]
        budget = solver._SearchBudget(rng.randint(0, 6), None)
        best, mask, closed = solver._max_weight_independent_set(weights, masks, budget)
        if closed:
            assert best == opt and budget.upper is None
        else:
            stopped += 1
            assert best <= opt <= budget.upper
    assert stopped > 100


def _slow_fixpoint_graph(rng, length):
    """Equal weights on a path hung from a 5-cycle.  The path's free end
    has the highest index, and each pass of the reductions, which scans the
    indices upwards, drops and takes only the two vertices at that end; the
    5-cycle and the vertex hung on it reduce never.  So the root's
    reductions take length / 2 passes over the whole path."""
    n = length + 5
    edges = [(i, (i + 1) % 5) for i in range(5)]
    path = range(n - 1, 4, -1)  # from the free end to the vertex on the cycle
    edges += zip(path, path[1:])
    edges.append((5, rng.randrange(5)))
    masks = [0] * n
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return [2] * n, masks


def test_time_budget_stops_the_reductions_of_a_node():
    """The root's reductions on this graph took over 1 s to settle when the
    clock was read only at each node."""
    weights, masks = _slow_fixpoint_graph(random.Random(3), 3000)
    budget = solver._SearchBudget(1 << 22, 50)
    t0 = time.monotonic()
    best, mask, closed = solver._max_weight_independent_set(weights, masks, budget)
    assert time.monotonic() - t0 < 0.5
    assert not closed and budget.spent == 1
    assert 0 < best <= budget.upper
    chosen = solver._bits(mask)
    assert all(masks[v] & mask == 0 for v in chosen)
    assert sum(weights[v] for v in chosen) == best


def _conflict_graph(g, k, forced):
    """The conflict graph ss_mis searches: its candidates' doubled weights,
    descending, and their conflict bitmasks."""
    cands = sorted(enumerate_candidates(g, k, forced).candidates, key=lambda c: -c.weight2)
    return [c.weight2 for c in cands], conflict_masks(cands)


def _check_search(weights, masks, want):
    """The reducing search closes on the whole graph with the weight want,
    and its mask is an independent set of that weight."""
    best, mask, closed = solver._mwis_connected(
        weights, masks, (1 << len(weights)) - 1, solver._SearchBudget(1 << 22, None))
    assert closed and best == want
    chosen = solver._bits(mask)
    assert all(masks[v] & mask == 0 for v in chosen)
    assert sum(weights[v] for v in chosen) == best


def test_search_matches_the_reference_on_the_reduction_corpus():
    """Criterion 08's reductions at k = 8, 10 and 12.  A formula's conflict
    graph repeats across k, so the reference searches each distinct one once."""
    reference = {}
    for inst in satgen.reduction_corpus():
        for k in (8, 10, 12):
            g = build_reduction(inst, k=k).graph
            weights, masks = _conflict_graph(g, k, forced_choices(g))
            key = (tuple(weights), tuple(masks))
            if key not in reference:
                reference[key] = _reference_mwis_connected(
                    weights, masks, (1 << len(weights)) - 1,
                    solver._SearchBudget(1 << 30, None))[0]
            _check_search(weights, masks, reference[key])
    assert len(reference) >= 31


def test_search_matches_the_reference_on_wgd_graphs():
    """Seeded WGD pairs, with the forced bits and without them (larger
    conflict components), at every even k from 4 to 12."""
    rng = random.Random(19)
    searched = 0
    for seed in range(30):
        n = rng.randint(10, 40)
        s, d = random_cognate_pair(n, wgd=True, ops=rng.randint(n // 4, n), seed=seed)
        g = build_abg(s, singularize(d))
        for forced in (forced_choices(g), None):
            for k in (4, 6, 8, 10, 12):
                weights, masks = _conflict_graph(g, k, forced)
                want = _reference_mwis_connected(weights, masks, (1 << len(weights)) - 1,
                                                 solver._SearchBudget(1 << 30, None))[0]
                _check_search(weights, masks, want)
                searched += len(weights)
    assert searched > 5000


@pytest.mark.parametrize("seed", [0, 1])
def test_mis_closes_the_sixteen_variable_reductions(seed):
    """Under the default budget; the optimum meets score_bound exactly when
    the formula is satisfiable."""
    inst = satgen.random_normalized_instance(16, seed)
    r = ss_mis(build_reduction(inst, k=8).graph, 8)
    assert r.optimal
    bound = score_bound(inst, "circular", 8)
    assert r.score <= bound
    assert (r.score == bound) == sat_brute(inst)[0]


def test_mis_upper_bound_when_a_budget_stops_the_search():
    s, d = random_cognate_pair(40, wgd=True, ops=20, seed=0)
    g = build_abg(s, singularize(d))
    full = ss_mis(g, 8)
    assert full.optimal and full.stats.components >= 2
    assert full.stats.upper_bound is None
    for nodes in (0, 1, full.stats.nodes // 2, full.stats.nodes - 1):
        r = ss_mis(g, 8, budget_nodes=nodes)
        assert not r.optimal
        assert r.score <= full.score <= r.stats.upper_bound, nodes
    # a bound over the whole graph is no tighter than one that keeps the
    # components closed before the stop
    assert ss_mis(g, 8, budget_nodes=0).stats.upper_bound >= r.stats.upper_bound


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 14),
    ops=st.integers(0, 14),
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 4, 6, 8, 10, 12]),
)
def test_mis_equals_naive_on_wgd_pairs(n, ops, seed, k):
    s, d = random_cognate_pair(n, wgd=True, ops=ops, seed=seed)
    g = build_abg(s, singularize(d))
    assert g.a_star <= 14
    mis = ss_mis(g, k)
    assert mis.optimal and mis.score == ss_naive(g, k).score


def test_split_search_stopped_in_a_later_component():
    s, d = random_cognate_pair(40, wgd=True, ops=20, seed=0)
    g = build_abg(s, singularize(d))
    full = ss_mis(g, 8)
    assert full.optimal and full.stats.components >= 2
    # the last node visited lies in the last component searched
    r = ss_mis(g, 8, budget_nodes=full.stats.nodes - 1)
    assert not r.optimal
    assert r.stats.components == full.stats.components
    assert score(g, r.tau, 8) == r.score <= full.score


class _FakeClock:
    """time.monotonic stand-in that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_mis_budget_ms_reads_the_clock_every_node(monkeypatch):
    # a pair chosen for its free squares: the forced bits and the reductions
    # leave a search of more than 5 nodes
    s, d = random_cognate_pair(30, wgd=True, ops=20, seed=31)
    g = build_abg(s, singularize(d))
    full = ss_mis(g, 8)
    assert full.stats.nodes > 5 and full.stats.forced == g.a_star - 6
    monkeypatch.setattr(solver.time, "monotonic", _FakeClock())
    # the deadline falls 5 readings after the budget starts: 4 nodes pass
    r = ss_mis(g, 8, budget_ms=5000)
    assert not r.optimal and r.stats.nodes == 5
    assert score(g, r.tau, 8) == r.score
    r = ss_mis(g, 8, budget_ms=0)
    assert not r.optimal and r.stats.nodes == 1
    assert score(g, r.tau, 8) == r.score


def test_negative_budgets_raise():
    g = trio_graph()
    for budget in ({"budget_nodes": -1}, {"budget_ms": -0.5}):
        with pytest.raises(ValueError, match="must not be negative"):
            ss_mis(g, 8, **budget)
        with pytest.raises(ValueError, match="must not be negative"):
            dd(TRIO_S, TRIO_D, 8, engine="mis", **budget)
    with pytest.raises(ValueError, match="must not be negative"):
        ss_naive(g, 8, budget_nodes=-1)
    with pytest.raises(ValueError, match="must not be negative"):
        dd(TRIO_S, TRIO_D, 8, engine="naive", budget_nodes=-1)


def test_engines_refuse_a_missing_node_budget(monkeypatch):
    g = trio_graph()

    def no_work(*args):
        raise AssertionError("an engine started work on an unusable budget")

    monkeypatch.setattr(solver, "forced_choices", no_work)
    with pytest.raises(ValueError, match="budget_nodes must be a node count, got None"):
        ss_naive(g, 8, budget_nodes=None)
    with pytest.raises(ValueError, match="budget_nodes must be a node count, got None"):
        ss_mis(g, 8, budget_nodes=None)
    monkeypatch.undo()
    # budget_ms=None is no deadline; dd() drops a None budget for the
    # engine's default
    assert ss_mis(g, 8, budget_ms=None).optimal
    assert dd(TRIO_S, TRIO_D, 8, engine="mis", budget_nodes=None).optimal


@pytest.mark.parametrize("bad", [True, False, 2.5, float("nan"), "9"])
def test_engines_refuse_a_node_budget_that_is_not_an_int(bad):
    # a bool ran as a count of 0 or 1, 2.5 as 2, NaN as no limit, and "9"
    # raised a bare TypeError
    for solve in (ss_naive, ss_mis):
        with pytest.raises(ValueError, match="budget_nodes must be a node count, got"):
            solve(trio_graph(), 8, budget_nodes=bad)
    for engine in ("naive", "mis"):
        with pytest.raises(ValueError, match="budget_nodes must be a node count, got"):
            dd(TRIO_S, TRIO_D, 8, engine=engine, budget_nodes=bad)


@pytest.mark.parametrize("bad", [True, False, float("nan"), "5", Fraction(1, 2)])
def test_mis_refuses_a_time_budget_that_is_not_a_number(bad):
    # NaN compares false with every deadline, so the search stopped at its
    # first node and returned a witness that is not optimal
    with pytest.raises(ValueError, match="budget_ms must be a number of milliseconds, got"):
        ss_mis(trio_graph(), 8, budget_ms=bad)
    with pytest.raises(ValueError, match="budget_ms must be a number of milliseconds, got"):
        dd(TRIO_S, TRIO_D, 8, engine="mis", budget_ms=bad)


def test_budgets_of_either_number_type_are_honoured():
    g = trio_graph()
    assert ss_naive(g, 8, budget_nodes=2).optimal
    for ms in (1000, 1000.0, float("inf")):
        assert ss_mis(g, 8, budget_ms=ms).optimal


def test_mis_node_count_on_a_split_graph():
    # 174 conflict components, the largest of 7 candidates; searched as one
    # graph this pair took 26,511 nodes
    s, d = random_cognate_pair(200, wgd=True, ops=50, seed=7)
    r = dd(s, d, 8, engine="mis")
    assert r.dd == 53 and r.optimal
    assert r.stats.nodes <= 2 * r.stats.candidates
    assert r.stats.components > 1


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    ops=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 4, 6, 8, 10]),
)
def test_forced_bits_keep_both_engines_exact(n, ops, seed, k):
    s, d = random_cognate_pair(n, wgd=True, ops=ops, seed=seed)
    g = build_abg(s, singularize(d))
    forced = forced_choices(g)
    naive = ss_naive(g, k)
    mis = ss_mis(g, k)
    assert mis.optimal and mis.score == naive.score
    assert naive.dd == dd_definition_oracle(s, d, k)
    for r in (naive, mis):
        assert r.stats.forced == g.a_star - forced.count(-1)
        assert all(bit < 0 or r.tau[i] == bit for i, bit in enumerate(forced))


def test_mis_scores_the_same_without_the_forced_bits(monkeypatch):
    rng = random.Random(17)
    graphs = []
    for seed in range(40):
        n = rng.randint(3, 14)
        s, d = random_cognate_pair(n, wgd=True, ops=rng.randint(0, 2 * n), seed=seed)
        graphs.append(build_abg(s, singularize(d)))
    ks = (2, 4, 6, 8, 10)
    with_rule = [[ss_mis(g, k) for k in ks] for g in graphs]
    assert sum(r.stats.forced for rs in with_rule for r in rs) > 500
    monkeypatch.setattr(solver, "forced_choices", lambda g: (-1,) * g.a_star)
    for g, rs in zip(graphs, with_rule):
        for k, r in zip(ks, rs):
            bare = ss_mis(g, k)
            assert bare.stats.forced == 0 and r.stats.candidates <= bare.stats.candidates
            assert bare.score == r.score and r.stats.nodes <= bare.stats.nodes, k


def test_square_order_does_not_change_the_optimum():
    """A square's index is its position in the graph's list, so listing the
    squares in another order renames them and changes no score."""
    labels = ["v%d" % v for v in range(8)]
    first, second = Square(0, 1, 2, 3), Square(4, 5, 6, 7)
    d_edges = [(0, 1), (3, 4), (2, 7)]  # 0-1 forces the first square's bit 0
    for squares in ([first, second], [second, first]):
        g = AmbiguousBreakpointGraph(labels, squares, d_edges)
        for solve in (ss_naive, ss_mis):
            r = solve(g, 8)
            assert r.optimal and r.score == 2, (squares, solve)
    rng = random.Random(15)
    pairs = 0
    while pairs < 20:
        n = rng.randint(3, 10)
        ops = rng.randint(1, 2 * n)
        s, d = random_cognate_pair(n, wgd=True, ops=ops, seed=rng.randrange(1 << 30))
        g = build_abg(s, singularize(d))
        forced = forced_choices(g)
        if -1 not in forced or max(forced) < 0:
            continue  # keep the pairs with both forced and free squares
        pairs += 1
        rev = AmbiguousBreakpointGraph(g.labels, g.squares[::-1], g.d_edges)
        assert forced_choices(rev) == forced[::-1]
        for k in (4, 8, INFINITY):
            assert ss_naive(rev, k).score == ss_naive(g, k).score, k
        for k in (4, 8):
            assert ss_mis(rev, k).score == ss_mis(g, k).score, k


def test_naive_sweeps_only_the_free_squares_at_scale():
    s, d = random_cognate_pair(1000, wgd=True, ops=100, seed=1)
    r = dd(s, d, INFINITY, engine="naive")
    # 8 free squares in 7 components, one of them with 2: 6 * 2 + 2^2
    assert r.optimal and r.stats.forced == 999 - 8 and r.stats.nodes == 16
    assert (r.stats.components, r.stats.largest_component) == (7, 2)
    fresh = build_abg(s, singularize(d))
    assert fresh.a_star == 999
    assert score(fresh, r.tau, INFINITY) == r.score
    assert r.dd == fresh.n_star_doubled - r.score


def test_naive_refuses_too_many_free_squares_before_the_sweep():
    """27 free squares, more than a whole-graph sweep of 2^25 resolutions
    takes, fall into 26 components of at most 2: the sweep scores
    25 * 2 + 2^2 resolutions and answers exactly."""
    s, d = random_cognate_pair(5000, wgd=True, ops=500, seed=1)
    r = dd(s, d, INFINITY, engine="naive")
    assert r.optimal and r.dd == 537
    assert (r.stats.forced, r.stats.nodes) == (4999 - 27, 54)
    assert (r.stats.components, r.stats.largest_component) == (26, 2)
    fresh = build_abg(s, singularize(d))
    assert score(fresh, r.tau, INFINITY) == r.score == fresh.n_star_doubled - 537


def _disjoint_union(g, h):
    """One graph holding g and, on vertices shifted past g's, h."""
    shift = g.n_vertices
    squares = list(g.squares) + [Square(*(v + shift for v in sq)) for sq in h.squares]
    d_edges = list(g.d_edges) + [(x + shift, y + shift) for x, y in h.d_edges]
    labels = ["v%d" % v for v in range(shift + h.n_vertices)]
    return AmbiguousBreakpointGraph(labels, squares, d_edges)


def test_naive_sweeps_each_component_on_its_own():
    """Two closed flowers of 13 squares: 26 free squares, which a sweep of
    the whole graph refuses under the default budget, in two components of
    2^13 resolutions each."""
    flower = build_closed_flower(13)
    g = _disjoint_union(flower, flower)
    for k in (26, INFINITY):
        one = ss_naive(flower, k)
        r = ss_naive(g, k)
        assert r.optimal and one.score == 2 and r.score == 4, k
        assert r.stats.nodes == 2 * 2 ** 13 == 16384
        assert (r.stats.components, r.stats.largest_component) == (2, 13)
        assert r.tau == one.tau * 2


def test_repeated_solves_keep_no_memory():
    """A solve leaves nothing behind, not even in the interpreter's free
    lists: with the cycle collector off, 400 solves grow the allocated
    blocks by less than one block a solve."""
    s, d = random_cognate_pair(16, wgd=True, ops=6, seed=2)
    for _ in range(20):
        dd(s, d, INFINITY)
        dd(s, d, 8, engine="mis")
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(200):
            dd(s, d, INFINITY)
            dd(s, d, 8, engine="mis")
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 400


def test_tau_bits_read_the_integer_as_the_shifts_do():
    """`ss_naive`'s witness: bit i of tau_int is square i's bit, read once
    through bin(); the a*-fold shift is the reference."""
    rng = random.Random(24)
    cases = 0
    for a_star in (0, 1, 2, 7, 64, 65, 10000):
        ints = [0, (1 << a_star) - 1] + [rng.getrandbits(a_star) for _ in range(5)]
        # zero bits above the top set bit, down to a single low bit
        ints += [rng.getrandbits(max(0, a_star - 10)), 1 if a_star else 0]
        for tau_int in ints:
            got = _tau_bits(tau_int, a_star)
            assert got == tuple([(tau_int >> i) & 1 for i in range(a_star)])
            assert type(got) is tuple and all(type(b) is int for b in got)
            cases += 1
    assert cases == 63


def test_stats_time_the_search_and_the_rescore(monkeypatch):
    """ss_mis times its MWIS search in search_ms, inside wall_ms beside
    enumerate_ms and conflict_ms; both engines time the witness's re-score
    in rescore_ms, which wall_ms does not hold, and naive runs no search."""
    s, d = random_cognate_pair(30, wgd=True, ops=20, seed=31)
    g = build_abg(s, singularize(d))
    mis = ss_mis(g, 8).stats
    assert mis.search_ms > 0 and mis.rescore_ms > 0
    assert mis.enumerate_ms + mis.conflict_ms + mis.search_ms <= mis.wall_ms
    naive = ss_naive(g, 8).stats
    assert naive.rescore_ms > 0 and naive.search_ms == 0
    # with a clock one second later at each reading: with no time budget,
    # the search reads it at its start and end only, as the re-score does
    monkeypatch.setattr(solver.time, "monotonic", _FakeClock())
    r = ss_mis(g, 8)
    assert r.stats.search_ms == r.stats.rescore_ms == 1000.0
    assert ss_naive(g, 8).stats.rescore_ms == 1000.0


def _reference_mis_witness(g, k, forced):
    """The witness ss_mis builds, as it built it one square at a time: the
    chosen candidates' bits, then each forced bit, then 0."""
    cands = sorted(enumerate_candidates(g, k, forced).candidates,
                   key=lambda c: (-c.weight2, c.vertices))
    budget = solver._SearchBudget(1 << 22, None)
    _, best_mask, _ = solver._max_weight_independent_set(
        [c.weight2 for c in cands], conflict_masks(cands), budget)
    choices = {}
    for i in solver._bits(best_mask):
        choices.update(cands[i].choices)
    return tuple([choices.get(i, max(bit, 0)) for i, bit in enumerate(forced)])


def test_mis_witness_matches_the_per_square_reference():
    """The witness is the forced bits, with the chosen candidates' free bits
    written over them and 0 at the other free squares; a search stopped at
    its first node keeps the forced bits and 0."""
    rng = random.Random(34)
    free = 0
    for seed in range(30):
        n = rng.randint(10, 60)
        s, d = random_cognate_pair(n, wgd=True, ops=rng.randint(1, n), seed=seed)
        g = build_abg(s, d)
        forced = forced_choices(g)
        free += forced.count(-1)
        r = ss_mis(g, 8)
        assert r.tau == _reference_mis_witness(g, 8, forced)
        assert [type(b) for b in r.tau] == [int] * g.a_star
        stopped = ss_mis(g, 8, budget_nodes=0)
        assert stopped.tau == tuple(max(bit, 0) for bit in forced)
    assert free > 50
