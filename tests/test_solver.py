import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubledist.abg import build_abg, score
from doubledist.bpgraph import INFINITY, BudgetExceeded
from doubledist.genomes import (
    GenomeError,
    parse_genome,
    random_cognate_pair,
    singularize,
)
from doubledist import solver
from doubledist.reduction import build_closed_flower
from doubledist.solver import (
    dd,
    dd_definition_oracle,
    dd_greedy_2,
    ss_mis,
    ss_naive,
)

TRIO_S = parse_genome("[1 2 3]")
TRIO_D = parse_genome("[1 2 -3 1]\n[-3 2]")


def trio_graph():
    return build_abg(TRIO_S, singularize(TRIO_D))


def test_naive_worked_example():
    g = trio_graph()
    r2 = ss_naive(g, 2)
    assert r2.score == 2 and r2.optimal and r2.stats.nodes == 4
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
        ss_naive(g, 8, budget_nodes=2)


def test_naive_refuses_more_than_25_squares():
    with pytest.raises(BudgetExceeded, match="capped at 25 squares"):
        ss_naive(build_closed_flower(26), 8)


def test_naive_witness_mismatch_raises(monkeypatch):
    # a self-check, not an assert: it must survive python -O
    real = solver._kernels.best_resolution

    def overstated(*args):
        best, tau, explored = real(*args)
        return best + 1, tau, explored

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
        dd(TRIO_S, TRIO_D, 8, engine="naive", budget_nodes=2)
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


def test_split_search_matches_whole_graph_search():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(2, 40)
        weights, masks = _random_conflict_graph(rng, n)
        budget = solver._SearchBudget(1 << 22, None)
        best, mask, closed = solver._max_weight_independent_set(weights, masks, budget)
        whole = solver._mwis_connected(weights, masks, solver._SearchBudget(1 << 22, None))
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
        opt = solver._mwis_connected(weights, masks, solver._SearchBudget(1 << 22, None))[0]
        budget = solver._SearchBudget(rng.randint(0, 6), None)
        best, mask, closed = solver._max_weight_independent_set(weights, masks, budget)
        if closed:
            assert best == opt and budget.upper is None
        else:
            stopped += 1
            assert best <= opt <= budget.upper
    assert stopped > 100


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
    s, d = random_cognate_pair(12, wgd=True, ops=4, seed=0)
    g = build_abg(s, singularize(d))
    assert ss_mis(g, 8).stats.nodes > 5
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


def test_mis_node_count_on_a_split_graph():
    # 174 conflict components, the largest of 7 candidates; searched as one
    # graph this pair took 26,511 nodes
    s, d = random_cognate_pair(200, wgd=True, ops=50, seed=7)
    r = dd(s, d, 8, engine="mis")
    assert r.dd == 53 and r.optimal
    assert r.stats.nodes <= 2 * r.stats.candidates
    assert r.stats.components > 1
