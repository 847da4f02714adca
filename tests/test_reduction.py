import dataclasses
from fractions import Fraction

import pytest

from doubledist.abg import build_abg, enumerate_candidates, conflict, score
from doubledist.bpgraph import ComponentCensus
from doubledist.genomes import PairClass, classify_pair
from doubledist.reduction import (
    Assignment,
    SatError,
    SatInstance,
    assignment_to_solution,
    build_reduction,
    check_normalized,
    extract_genomes,
    normalize,
    parse_cnf,
    sat_brute,
    score_bound,
    solution_to_assignment,
    verify_flower,
    verify_structure,
)
from doubledist.abg import resolve
from doubledist.solver import ss_mis

from satgen import random_normalized_instance, unsat_instances

DEMO_CNF = "p cnf 4 5\n1 2 0\n1 3 0\n-1 -2 4 0\n2 3 0\n-3 -4 0\n"
DEMO_A = {1: True, 2: True, 3: False, 4: True}


def demo_instance():
    return normalize(parse_cnf(DEMO_CNF))


# === parsing and normalization ===


def test_parse_paper_formula_stats():
    inst = demo_instance()
    assert inst.var_count == 4
    assert len(inst.clauses) == 5
    assert inst.size == 11
    assert inst.ttf_vars() == [1, 2, 3]
    assert inst.tf_vars() == [4]
    assert inst.two_clauses() == [0, 1, 3, 4]
    assert inst.three_clauses() == [2]


def test_parse_cnf_errors():
    with pytest.raises(SatError):
        parse_cnf("1 2 0\n")
    with pytest.raises(SatError):
        parse_cnf("p cnf 2 1\n1 3 0\n")
    with pytest.raises(SatError):
        parse_cnf("p cnf 2 2\n1 2 0\n")
    with pytest.raises(SatError):
        parse_cnf("p cnf 2 1\n1 2\n")


def test_normalize_polarity_flip():
    # variable 1 occurs neg-neg-pos: flipped to pos-pos-neg, recorded
    text = "p cnf 4 5\n-1 2 0\n-1 3 0\n1 -2 4 0\n2 3 0\n-3 -4 0\n"
    inst = normalize(parse_cnf(text))
    assert 1 in inst.flipped
    occ = inst.occurrences(1)
    assert sum(1 for _, _, s in occ if s) == 2
    sat, wit = sat_brute(inst)
    assert sat
    restored = inst.restore_assignment(wit.values)
    orig = parse_cnf(text)
    assert all(
        any((lit > 0) == restored[abs(lit)] for lit in clause)
        for clause in orig.clauses
    )


def test_normalize_pure_literal_elimination():
    # variable 3 occurs only positively: its clauses vanish
    inst = normalize(parse_cnf("p cnf 3 3\n1 3 0\n1 -2 0\n-1 2 0\n"))
    assert dict(inst.eliminated)[3] is True
    assert inst.var_count == 2
    assert len(inst.clauses) == 2
    check_normalized(inst)


def test_normalize_rejects_bad_instances():
    with pytest.raises(SatError):
        normalize(parse_cnf("p cnf 1 1\n1 0\n"))  # 1-clause
    with pytest.raises(SatError):
        normalize(parse_cnf("p cnf 2 1\n1 1 0\n"))  # duplicate literal
    with pytest.raises(SatError):
        normalize(parse_cnf("p cnf 2 1\n1 -1 0\n"))  # contradictory literals
    with pytest.raises(SatError):
        normalize(
            parse_cnf("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        )  # four occurrences


def test_sat_brute_examples():
    inst = demo_instance()
    sat, wit = sat_brute(inst)
    assert sat
    assert Assignment(DEMO_A).satisfies(inst.clauses[0])
    assert all(Assignment(DEMO_A).satisfies(c) for c in inst.clauses)
    sat2, _ = sat_brute(SatInstance(2, ((1, 2), (-1, -2))))
    assert sat2
    sat3, wit3 = sat_brute(SatInstance(0, ()))
    assert sat3 and wit3.values == {}
    for inst in unsat_instances():
        assert sat_brute(inst)[0] is False


# === flowers ===


def test_verify_flower_range():
    for p in (3, 4, 5):
        rep = verify_flower(p)
        assert rep.ok and rep.resolutions == 2 ** p


def test_flower_specific_censuses():
    from doubledist.reduction import build_closed_flower

    g = build_closed_flower(5)
    assert resolve(g, (0,) * 5) == ComponentCensus({10: 2}, {})
    assert resolve(g, (1, 0, 0, 0, 0)) == ComponentCensus({20: 1}, {})
    assert resolve(g, (1, 1, 0, 0, 0)) == ComponentCensus({10: 2}, {})


def test_verify_flower_bounds():
    with pytest.raises(ValueError):
        verify_flower(2)
    with pytest.raises(ValueError):
        verify_flower(11)


# === building ===


def test_build_paper_formula_k8():
    r = build_reduction(demo_instance(), k=8)
    assert r.graph.n_vertices == 944
    assert r.graph.a_star == 236
    assert r.nu == 944
    assert r.bound == 20
    assert r.m == 21
    assert r.ell == 0 and r.p == 5
    assert len(r.flowers) == 2 * 3 + 3 * 1 + 3 * 4 + 11
    assert r.graph.degree_sequence_ok()


def test_build_k10_shapes():
    r = build_reduction(demo_instance(), k=10)
    assert r.p == 6 and r.ell == 1
    assert all(len(e.squares) == 1 for e in r.extensions)
    assert all(f.p == 6 for f in r.flowers)
    assert len(r.extensions) == r.m
    r12 = build_reduction(demo_instance(), k=12)
    assert r12.p == 7 and r12.ell == 2
    assert all(len(e.squares) == 2 for e in r12.extensions)


def test_build_linear_padding():
    r = build_reduction(demo_instance(), k=8, shape="linear")
    assert r.isolated_count == 944
    assert r.graph.n_vertices == 1888
    assert r.bound == 20 + Fraction(944, 2) == 492
    assert score_bound(demo_instance(), "linear", 8) == 492


def test_build_rejects_bad_inputs():
    inst = demo_instance()
    with pytest.raises(ValueError):
        build_reduction(inst, k=6)
    with pytest.raises(ValueError):
        build_reduction(inst, k=9)
    with pytest.raises(SatError):
        build_reduction(SatInstance(2, ((1, 2), (1, -2))), k=8)  # not normalized


def test_score_bound_circular_same_for_all_k():
    inst = demo_instance()
    assert score_bound(inst, "circular", 8) == 20
    assert score_bound(inst, "circular", 10) == 20
    assert score_bound(inst, "circular", 12) == 20


# === structure ===


def test_verify_structure_paper_k8():
    r = build_reduction(demo_instance(), k=8)
    rep = verify_structure(r)
    assert rep.ok, rep.violations
    assert rep.min_cycle_ok
    assert rep.candidate_count == 41 == rep.expected_candidates
    assert rep.degree_ok


def test_verify_structure_k10():
    r = build_reduction(demo_instance(), k=10)
    rep = verify_structure(r)
    assert rep.ok, rep.violations
    assert rep.candidate_count == 41


def test_verify_structure_linear():
    r = build_reduction(demo_instance(), k=8, shape="linear")
    rep = verify_structure(r)
    assert rep.ok, rep.violations


def test_verify_structure_reports_short_candidates():
    # a k=8 graph checked as if built for k=10: its 8-cycles are too short
    r = dataclasses.replace(build_reduction(demo_instance(), k=8), k=10)
    rep = verify_structure(r)
    below = enumerate_candidates(r.graph, 8)
    assert len(below) == 41 and not rep.min_cycle_ok
    assert "found 41 components shorter than k" in rep.violations


def test_gadget_local_conflicts():
    inst = normalize(parse_cnf("p cnf 2 2\n1 2 0\n-1 -2 0\n"))
    assert inst.tf_vars() == [1, 2]
    r = build_reduction(inst, k=8)
    cands = enumerate_candidates(r.graph, 8)
    assert len(cands) == 2 * 2 + 2 * 2 + 2 * 4
    by_choices = {c.choices: c for c in cands}
    for vg in r.var_gadgets:
        ct = by_choices[tuple(sorted(vg.theta["T"].items()))]
        cf = by_choices[tuple(sorted(vg.theta["F"].items()))]
        assert conflict(ct, cf)
    for cg in r.clause_gadgets:
        thetas = [by_choices[tuple(sorted(p.items()))] for p in cg.theta.values()]
        for i in range(len(thetas)):
            for j in range(i + 1, len(thetas)):
                assert conflict(thetas[i], thetas[j])
    for wg in r.w_gadgets:
        cx = by_choices[tuple(sorted(wg.x_cycle.items()))]
        cy = by_choices[tuple(sorted(wg.y_cycle.items()))]
        assert conflict(cx, cy)


def test_three_clause_thetas_pairwise_conflict():
    r = build_reduction(demo_instance(), k=8)
    cg = r.clause_gadgets[2]
    assert cg.size == 3
    cands = enumerate_candidates(r.graph, 8)
    by_choices = {c.choices: c for c in cands}
    t1, t2, t3 = (by_choices[tuple(sorted(cg.theta[i].items()))] for i in (1, 2, 3))
    assert conflict(t1, t2) and conflict(t1, t3) and conflict(t2, t3)


# === assignments ===


def test_assignment_scores_paper():
    r = build_reduction(demo_instance(), k=8)
    tau = assignment_to_solution(r, Assignment(DEMO_A))
    assert score(r.graph, tau, 8) == 20
    for witness in (1, 2):
        tau_w = assignment_to_solution(r, Assignment(DEMO_A, witnesses={0: witness}))
        assert score(r.graph, tau_w, 8) == 20
    a_bad = Assignment({1: True, 2: False, 3: False, 4: True})
    tau_bad = assignment_to_solution(r, a_bad)
    assert score(r.graph, tau_bad, 8) == 19


def test_assignment_scores_each_k():
    for k in (8, 10, 12):
        r = build_reduction(demo_instance(), k=k)
        tau = assignment_to_solution(r, Assignment(DEMO_A))
        assert score(r.graph, tau, k) == 20


def test_assignment_roundtrip():
    r = build_reduction(demo_instance(), k=8)
    a = Assignment(DEMO_A)
    tau = assignment_to_solution(r, a)
    back = solution_to_assignment(r, tau)
    assert back is not None
    assert back.values == DEMO_A
    assert set(back.witnesses) == set(range(5))


def test_assignment_roundtrip_ignores_flowers():
    r = build_reduction(demo_instance(), k=8)
    tau = list(assignment_to_solution(r, Assignment(DEMO_A)))
    flower_sq = r.flowers[0].squares[0]
    tau[flower_sq] ^= 1
    back = solution_to_assignment(r, tuple(tau))
    assert back is not None and back.values == DEMO_A


def test_all_solid_resolution_is_unreadable():
    # all-solid routes every literal gadget toward its variable, which is
    # inconsistent with the single-witness reading
    r = build_reduction(demo_instance(), k=8)
    assert solution_to_assignment(r, (0,) * r.graph.a_star) is None


def test_assignment_incomplete_rejected():
    r = build_reduction(demo_instance(), k=8)
    with pytest.raises(SatError):
        assignment_to_solution(r, Assignment({1: True}))
    with pytest.raises(SatError):
        assignment_to_solution(r, Assignment(DEMO_A, witnesses={0: 4}))


# === solving ===


def test_mis_closes_paper_formula():
    r = build_reduction(demo_instance(), k=8)
    res = ss_mis(r.graph, 8)
    assert res.optimal and res.score == 20


def test_unsat_instances_fall_short():
    for inst in unsat_instances():
        r = build_reduction(inst, k=8)
        rep = verify_structure(r)
        assert rep.ok, rep.violations
        res = ss_mis(r.graph, 8)
        assert res.optimal
        assert res.score == score_bound(inst, "circular", 8) - 1


def test_random_instances_roundtrip_quick():
    for seed in range(4):
        inst = random_normalized_instance(4, seed)
        sat, wit = sat_brute(inst)
        r = build_reduction(inst, k=8)
        res = ss_mis(r.graph, 8)
        assert res.optimal
        if sat:
            assert res.score == r.bound
            tau = assignment_to_solution(r, wit)
            assert score(r.graph, tau, 8) == r.bound
        else:
            assert res.score < r.bound


# === extraction ===


def test_extract_circular():
    r = build_reduction(demo_instance(), k=8)
    s, d, d_check = extract_genomes(r)
    assert classify_pair(s, d) == PairClass.ONE_TWO_COGNATE
    assert all(c.shape == "circular" for c in s.chromosomes)
    assert all(c.shape == "circular" for c in d.chromosomes)
    assert d_check.erase_indices() == d
    g = build_abg(s, d_check)
    assert g.a_star == r.graph.a_star
    assert len(g.d_edges) == len(r.graph.d_edges)
    assert len(g.isolated) == len(r.graph.isolated) == 0


def test_extract_linear():
    r = build_reduction(demo_instance(), k=8, shape="linear")
    s, d, d_check = extract_genomes(r)
    assert classify_pair(s, d) == PairClass.ONE_TWO_COGNATE
    assert all(c.shape == "linear" for c in s.chromosomes)
    assert all(c.shape == "linear" for c in d.chromosomes)
    g = build_abg(s, d_check)
    assert g.a_star == r.graph.a_star
    assert len(g.d_edges) == len(r.graph.d_edges)
    assert len(g.isolated) == len(r.graph.isolated) == 944


def test_extract_linear_rejects_unpadded():
    r = build_reduction(demo_instance(), k=8, shape="circular")
    r.shape = "linear"
    with pytest.raises(Exception):
        extract_genomes(r)


def test_three_clause_critical_twelve_cycles():
    # the 3-clause block admits exactly two 12-cycles spanning all six of
    # its squares; both traverse the shared middle edge, which is why the
    # k >= 10 adaptation stretches it
    r = build_reduction(demo_instance(), k=8)
    cg = r.clause_gadgets[2]
    sq = cg.squares
    cands = enumerate_candidates(r.graph, 12)
    critical = [
        c
        for c in cands
        if c.length == 12 and {s for s, _ in c.choices} == set(sq)
    ]
    assert len(critical) == 2
    patterns = {tuple(bit for _, bit in c.choices) for c in critical}
    assert patterns == {(0, 0, 1, 1, 1, 0), (1, 1, 0, 0, 0, 1)}


def test_linear_bound_matches_formula_for_larger_k():
    inst = demo_instance()
    for k in (10, 12):
        r = build_reduction(inst, k=k, shape="linear")
        assert r.bound == score_bound(inst, "linear", k)
        assert r.bound == score_bound(inst, "circular", k) + Fraction(r.nu, 2)
        assert r.nu == 4 * r.graph.a_star
