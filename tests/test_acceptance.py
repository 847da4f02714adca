"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts both the values and its runtime budget.
"""

import time
from fractions import Fraction

import pytest

from doubledist.abg import build_abg, enumerate_candidates, resolve, score
from doubledist.bpgraph import (
    INFINITY,
    ComponentCensus,
    build_breakpoint_graph,
    dcj_distance_bfs_oracle,
    distance,
    sigma,
)
from doubledist.genomes import (
    Extremity,
    PairClass,
    classify_pair,
    genome_from_adjacencies,
    parse_genome,
    random_cognate_pair,
    singularize,
)
from doubledist.reduction import (
    Assignment,
    assignment_to_solution,
    build_reduction,
    extract_genomes,
    normalize,
    parse_cnf,
    sat_brute,
    score_bound,
    verify_flower,
    verify_structure,
)
from doubledist.solver import dd, dd_definition_oracle, dd_greedy_2, ss_mis, ss_naive

import satgen
from satgen import DEMO_CNF


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        "criterion %02d %s (%s; %.3fs of %gs budget)"
        % (num, status, detail, elapsed, budget)
    )
    assert ok, detail
    assert elapsed < budget, "criterion %d over budget: %.2fs" % (num, elapsed)


def _best_of(fn, repeats=10):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_breakpoint_graph_golden():
    s1 = parse_genome("(1 2)\n[3 -4]")
    s2 = parse_genome("(1 -3 2)\n[4]")

    def work():
        bg = build_breakpoint_graph(s1, s2)
        assert bg.census == ComponentCensus({2: 1}, {0: 1, 4: 1})
        assert distance(s1, s2, 2) == Fraction(5, 2)
        assert distance(s1, s2, INFINITY) == 2

    work()  # warm caches, then take the steady-state timing
    elapsed = _best_of(work)
    _report(1, True, "census {c2:1,p0:1,p4:1}, d2=2.5, dinf=2", elapsed, 0.001)


def test_criterion_02_resolution_golden():
    s = parse_genome("[1 2 3]")
    d_check = parse_genome("[1.a 2.a -3.a 1.b]\n[-3.b 2.b]")
    abg = build_abg(s, d_check)

    def work():
        census = resolve(abg, (0, 1))
        assert census == ComponentCensus({2: 1}, {0: 2, 2: 1, 4: 1})

    work()
    elapsed = _best_of(work)
    _report(2, True, "resolved census {c2:1,p0:2,p2:1,p4:1}", elapsed, 0.001)


def test_criterion_03_flower_parity():
    t0 = time.monotonic()
    total = 0
    ok = True
    for p in (3, 4, 5, 6, 7):
        report = verify_flower(p)
        ok = ok and report.ok
        total += report.resolutions
    _report(3, ok, "parity law on %d resolutions, p in 3..7" % total, time.monotonic() - t0, 1.0)


def _all_matchings(items):
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1 :]
        for m in _all_matchings(rest):
            yield [(first, items[i])] + m


def test_criterion_04_dcj_oracle_equivalence():
    t0 = time.monotonic()
    pairs = 0
    for n in (1, 2, 3, 4):
        exts = [Extremity(g, e) for g in range(1, n + 1) for e in ("h", "t")]
        genomes = [genome_from_adjacencies(m, []) for m in _all_matchings(exts)]
        for i, g1 in enumerate(genomes):
            for g2 in genomes[i:]:
                assert dcj_distance_bfs_oracle(g1, g2) == distance(g1, g2, INFINITY)
                pairs += 1
    for seed in range(200):
        s1, s2 = random_cognate_pair(5, wgd=False, ops=3 + seed % 4, seed=seed)
        assert dcj_distance_bfs_oracle(s1, s2) == distance(s1, s2, INFINITY)
        pairs += 1
    _report(4, True, "BFS == formula on %d pairs" % pairs, time.monotonic() - t0, 120.0)


@pytest.fixture(scope="module")
def dd_corpus():
    """100 seeded [1.2]-cognate pairs with n_star <= 5 and their dd tables."""
    sizes = (3, 4, 5)
    corpus = []
    for seed in range(100):
        n = sizes[seed % 3]
        s, d = random_cognate_pair(n, wgd=True, ops=seed % 5, seed=seed)
        corpus.append((s, d))
    return corpus


def test_criterion_05_double_distance_oracle_equivalence(dd_corpus):
    t0 = time.monotonic()
    checked = 0
    for s, d in dd_corpus:
        for k in (2, 4, 6, 8, INFINITY):
            want = dd_definition_oracle(s, d, k)
            naive = dd(s, d, k, engine="naive")
            assert naive.dd == want
            if k is not INFINITY:
                assert dd(s, d, k, engine="mis").dd == want
            checked += 1
        assert dd_greedy_2(s, d) == dd(s, d, 2, engine="naive").dd
    _report(5, True, "oracle == naive == mis on %d values" % checked, time.monotonic() - t0, 300.0)


def test_criterion_06_monotonicity(dd_corpus):
    t0 = time.monotonic()
    for s, d in dd_corpus:
        values = [dd(s, d, k, engine="naive").dd for k in (2, 4, 6, 8, INFINITY)]
        assert all(a >= b for a, b in zip(values, values[1:])), (s, d, values)
    _report(6, True, "dd_2 >= dd_4 >= dd_6 >= dd_8 >= dd_inf on 100 pairs", time.monotonic() - t0, 300.0)


def test_criterion_07_reduction_golden():
    t0 = time.monotonic()
    inst = normalize(parse_cnf(DEMO_CNF))
    r = build_reduction(inst, k=8, shape="circular")
    assert r.graph.n_vertices == 944
    assert r.graph.a_star == 236
    report = verify_structure(r)
    assert report.ok, report.violations
    assert report.min_cycle_ok
    assert report.candidate_count == 41
    a = {1: True, 2: True, 3: False, 4: True}
    for witness in (1, 2):
        tau = assignment_to_solution(r, Assignment(a, witnesses={0: witness}))
        assert score(r.graph, tau, 8) == 20
    tau_bad = assignment_to_solution(r, Assignment({1: True, 2: False, 3: False, 4: True}))
    assert score(r.graph, tau_bad, 8) == 19
    res = ss_mis(r.graph, 8)
    assert res.optimal and res.score == 20
    _report(
        7,
        True,
        "944 vertices, 236 squares, 41 candidates, scores 20/20/19, ss=20",
        time.monotonic() - t0,
        60.0,
    )


@pytest.fixture(scope="module")
def reduction_corpus():
    return satgen.reduction_corpus()


def test_criterion_08_reduction_property_sweep(reduction_corpus):
    t0 = time.monotonic()
    built = []
    sat_count = 0
    for inst in reduction_corpus:
        satisfiable, witness = sat_brute(inst)
        sat_count += satisfiable
        for k in (8, 10, 12):
            r = build_reduction(inst, k=k, shape="circular")
            below = enumerate_candidates(r.graph, k - 2)
            assert len(below) == 0, "cycle shorter than k=%d" % k
            at_k = enumerate_candidates(r.graph, k)
            assert at_k.candidates and all(c.length == k for c in at_k.candidates)
            res = ss_mis(r.graph, k)
            bound = score_bound(inst, "circular", k)
            assert res.optimal, "search did not close"
            if satisfiable:
                assert res.score == bound, (inst, k, res.score, bound)
                tau = assignment_to_solution(r, witness)
                assert score(r.graph, tau, k) == bound
            else:
                assert res.score < bound, (inst, k, res.score, bound)
            built.append(r)
    assert len(built) == 3 * len(reduction_corpus)
    assert 0 < sat_count < len(reduction_corpus)
    detail = "%d reductions (%d sat / %d unsat instances), min cycle == k, ss_mis vs bound" % (
        len(built),
        sat_count,
        len(reduction_corpus) - sat_count,
    )
    _report(8, True, detail, time.monotonic() - t0, 600.0)


def test_criterion_09_linear_shape():
    t0 = time.monotonic()
    inst = normalize(parse_cnf(DEMO_CNF))
    r = build_reduction(inst, k=8, shape="linear")
    circ_bound = score_bound(inst, "circular", 8)
    assert r.bound == circ_bound + Fraction(r.nu, 2) == 492
    s, d, d_check = extract_genomes(r)
    assert all(c.shape == "linear" for c in s.chromosomes)
    assert all(c.shape == "linear" for c in d.chromosomes)
    assert classify_pair(s, d) == PairClass.ONE_TWO_COGNATE
    g2 = build_abg(s, d_check)
    assert g2.a_star == r.graph.a_star
    assert len(g2.d_edges) == len(r.graph.d_edges)
    assert len(g2.isolated) == len(r.graph.isolated)
    res = ss_mis(r.graph, 8)
    assert res.optimal and res.score == r.bound
    _report(9, True, "bound 492 = 20 + 944/2, strictly linear extraction", time.monotonic() - t0, 30.0)


def test_criterion_10_extraction_roundtrip(reduction_corpus):
    t0 = time.monotonic()
    count = 0
    for inst in reduction_corpus:
        for k in (8, 10, 12):
            r = build_reduction(inst, k=k, shape="circular")
            s, d, d_check = extract_genomes(r)
            assert classify_pair(s, d) == PairClass.ONE_TWO_COGNATE
            g2 = build_abg(s, d_check)
            assert g2.a_star == r.graph.a_star
            assert len(g2.d_edges) == len(r.graph.d_edges)
            assert len(g2.isolated) == len(r.graph.isolated)
            count += 1
    _report(10, True, "ABG counts reproduced for %d extractions" % count, time.monotonic() - t0, 600.0)
