from fractions import Fraction

import pytest

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
