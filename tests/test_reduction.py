import collections
import dataclasses
import gc
import hashlib
import random
import sys
from fractions import Fraction

import pytest

from doubledist import _kernels, genomes, reduction
from doubledist.abg import (
    AmbiguousBreakpointGraph, build_abg, enumerate_candidates, conflict, score)
from doubledist.bpgraph import ComponentCensus
from doubledist.genomes import (
    Chromosome,
    Extremity,
    Gene,
    Genome,
    GenomeError,
    PairClass,
    classify_pair,
    format_genome,
    singularize,
)
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

from satgen import random_normalized_instance, reduction_corpus, unsat_instances
from test_genomes import _assert_equals_the_checked_build, _tuple_genome

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
    with pytest.raises(SatError, match=r"^line 1: bad problem header 'p cnf x 1'$"):
        parse_cnf("p cnf x 1\n1 0\n")
    with pytest.raises(SatError, match=r"^line 2: bad problem header 'p cnf -2 0'$"):
        parse_cnf("c negative variable count\np cnf -2 0\n")
    with pytest.raises(SatError, match=r"^line 1: bad problem header 'p cnf 2 -1'$"):
        parse_cnf("p cnf 2 -1\n")


def test_normalize_polarity_flip():
    # variable 1 occurs neg-neg-pos: flipped to pos-pos-neg, recorded
    text = "p cnf 4 5\n-1 2 0\n-1 3 0\n1 -2 4 0\n2 3 0\n-3 -4 0\n"
    inst = normalize(parse_cnf(text))
    assert 1 in inst.flipped
    assert sum(lit == 1 for clause in inst.clauses for lit in clause) == 2
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


def _reference_normalize(inst):
    """`normalize` as it was before it shared the polarity count, kept
    verbatim (less the removed `normalized` field) as the reference."""
    clauses = [tuple(c) for c in inst.clauses]
    for c in clauses:
        seen = set()
        for lit in c:
            if abs(lit) in seen:
                raise SatError(
                    "clause %r has duplicate or contradictory literals" % (c,)
                )
            seen.add(abs(lit))
        if len(c) not in (2, 3):
            raise SatError("clause %r has size %d, need 2 or 3" % (c, len(c)))

    eliminated = {}
    active = list(range(len(clauses)))
    while True:
        polarity = {}
        for ci in active:
            for lit in clauses[ci]:
                pos, neg = polarity.get(abs(lit), (0, 0))
                if lit > 0:
                    polarity[abs(lit)] = (pos + 1, neg)
                else:
                    polarity[abs(lit)] = (pos, neg + 1)
        pure = {
            v: pos > 0
            for v, (pos, neg) in polarity.items()
            if pos == 0 or neg == 0
        }
        if not pure:
            break
        eliminated.update(pure)
        active = [
            ci
            for ci in active
            if not any(abs(lit) in pure for lit in clauses[ci])
        ]
    for v in range(1, inst.var_count + 1):
        if v not in eliminated and not any(
            abs(lit) == v for ci in active for lit in clauses[ci]
        ):
            eliminated[v] = True  # unused variable, value arbitrary

    flipped = set()
    counts = {}
    for ci in active:
        for lit in clauses[ci]:
            pos, neg = counts.get(abs(lit), (0, 0))
            counts[abs(lit)] = (pos + (lit > 0), neg + (lit < 0))
    for v, (pos, neg) in counts.items():
        total = pos + neg
        if total > 3:
            raise SatError(
                "instance outside (2,3)-SAT fragment: variable %d occurs %d times"
                % (v, total)
            )
        if total == 1:
            raise SatError(
                "instance outside (2,3)-SAT fragment: variable %d occurs once "
                "after elimination" % v
            )
        if total == 3 and neg == 2:
            flipped.add(v)
        elif (total == 3 and not (pos == 2 and neg == 1) and neg != 2) or (
            total == 2 and pos != 1
        ):
            raise SatError(
                "instance outside (2,3)-SAT fragment: variable %d has "
                "polarity profile %r" % (v, (pos, neg))
            )

    remaining = sorted(counts)
    var_map = tuple(remaining)
    renumber = {orig: i + 1 for i, orig in enumerate(remaining)}
    new_clauses = []
    for ci in active:
        new_clause = []
        for lit in clauses[ci]:
            v = renumber[abs(lit)]
            positive = lit > 0
            if abs(lit) in flipped:
                positive = not positive
            new_clause.append(v if positive else -v)
        new_clauses.append(tuple(new_clause))
    return SatInstance(
        var_count=len(remaining),
        clauses=tuple(new_clauses),
        flipped=frozenset(flipped),
        eliminated=tuple(sorted(eliminated.items())),
        var_map=var_map,
    )


# sign profiles per variable: normalized ones, pure ones, unused, too many
_PROFILES = ((1, 1), (1, 1), (2, 1), (1, 2), (2, 1), (1, 2), (1, 0), (0, 2), (2, 2), (3, 1), (0, 0))


def _random_formula(rng):
    """A small formula, often outside the fragment: clause sizes 1-4,
    repeated and contradictory literals, variables occurring > 3 times."""
    n_vars = rng.randint(1, 6)
    sizes = (1, 2, 3, 4) if rng.random() < 0.2 else (2, 3)
    if rng.random() < 0.5:
        lits = [rng.choice((1, -1)) * rng.randint(1, n_vars) for _ in range(rng.randint(0, 20))]
    else:
        lits = []
        for v in range(1, n_vars + 1):
            pos, neg = rng.choice(_PROFILES)
            lits += [v] * pos + [-v] * neg
        rng.shuffle(lits)
    clauses = []
    while len(lits) > 1 or (lits and rng.random() < 0.2):
        size = rng.choice(sizes)
        if rng.random() < 0.9:  # distinct variables where the literals allow
            take = []
            for i, lit in enumerate(lits):
                if len(take) < size and all(abs(lit) != abs(lits[j]) for j in take):
                    take.append(i)
        else:
            take = range(min(size, len(lits)))
        clauses.append(tuple(lits[i] for i in take))
        lits = [lit for i, lit in enumerate(lits) if i not in take]
    return SatInstance(n_vars, tuple(clauses))


def _outcome(fn, inst):
    try:
        return fn(inst)
    except SatError as exc:
        return str(exc)


def test_normalize_matches_reference():
    rng = random.Random(20261018)
    seen = collections.Counter()
    for _ in range(20000):
        inst = _random_formula(rng)
        got = _outcome(normalize, inst)
        assert got == _outcome(_reference_normalize, inst), inst
        if isinstance(got, str):
            seen[got.split(" ")[-1]] += 1  # "literals", "3" (size) or "times"
        else:
            check_normalized(got)
            occurrences = collections.Counter(abs(lit) for clause in got.clauses for lit in clause)
            assert got.ttf_vars() == [v for v in range(1, got.var_count + 1)
                                      if occurrences[v] == 3]
            seen["flipped" if got.flipped else "kept" if got.clauses else "emptied"] += 1
    assert min(seen[kind] for kind in ("literals", "3", "times", "flipped", "kept", "emptied")) > 500, seen


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


@pytest.mark.parametrize("shape, k", [
    ("linear", 2), ("linear", 6), ("linear", 7), ("circular", 9), ("circular", 8.0),
    ("lnear", 8), ("Circular", 10),
])
def test_score_bound_refuses_what_build_reduction_refuses(shape, k):
    inst = demo_instance()
    with pytest.raises(ValueError) as built:
        build_reduction(inst, k=k, shape=shape)
    with pytest.raises(ValueError) as bounded:
        score_bound(inst, shape, k)
    assert str(bounded.value) == str(built.value)


def test_build_reduction_sizes_its_instance_once(monkeypatch):
    calls = []
    size_model = reduction._size_model

    def counting(inst, k):
        calls.append(k)
        return size_model(inst, k)

    monkeypatch.setattr(reduction, "_size_model", counting)
    for shape in ("circular", "linear"):
        calls.clear()
        build_reduction(demo_instance(), k=10, shape=shape)
        assert calls == [10]


def test_build_reduction_bound_is_the_score_bound():
    for inst in reduction_corpus():
        for k in (8, 10, 12):
            for shape in ("circular", "linear"):
                r = build_reduction(inst, k=k, shape=shape)
                assert r.bound == score_bound(inst, shape, k), (inst, k, shape)


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
    # each fact once: no repeated string, and the candidate count only as
    # its count check
    assert len(set(rep.violations)) == len(rep.violations), rep.violations
    assert "candidates: 553 != 41" in rep.violations
    assert not [v for v in rep.violations if v.startswith("candidate count")]


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


def test_verify_and_solve_share_one_enumeration(monkeypatch):
    calls = []
    real = _kernels.alternating_cycles

    def counting(*args):
        calls.append(args[4])  # kcap; the forced bits follow it
        return real(*args)

    monkeypatch.setattr(_kernels, "alternating_cycles", counting)
    r = build_reduction(demo_instance(), k=8)
    rep = verify_structure(r)
    res = ss_mis(r.graph, 8)
    assert rep.ok and res.optimal and res.score == 20
    assert res.stats.candidates == rep.candidate_count
    assert 0 <= res.stats.enumerate_ms <= res.stats.wall_ms
    assert enumerate_candidates(r.graph, 8, (-1,) * r.graph.a_star) is enumerate_candidates(
        r.graph, 8)
    assert calls == [8]


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


def test_extracted_genomes_are_frozen():
    # sha256 over the formatted (S, D, indexed D) of circular and linear
    # reductions, frozen before Gene took its canonical field order
    h = hashlib.sha256()
    for n_vars, seed in ((3, 11), (4, 12), (5, 13)):
        inst = random_normalized_instance(n_vars, seed)
        for k in (8, 12):
            for shape in ("circular", "linear"):
                for g in extract_genomes(build_reduction(inst, k=k, shape=shape)):
                    h.update(format_genome(g).encode() + b"\0")
    assert h.hexdigest() == "87a9e87fea6e61087ec9c52343fbd093d1181b74efc66f3f6d300ef2a5df754b"


def test_extract_linear_rejects_unpadded():
    r = build_reduction(demo_instance(), k=8, shape="circular")
    r.shape = "linear"
    with pytest.raises(GenomeError, match="padding"):
        extract_genomes(r)


def _extremity_keyed_extract(r):
    """The extraction through an Extremity map, the tuple walk and
    `erase_indices`, as extract_genomes did before it walked integer
    extremity ids."""
    s, d_check = _extremity_keyed_s_and_indexed_d(r)
    return s, d_check.erase_indices(), d_check


def _extremity_keyed_s_and_indexed_d(r):
    """S and the indexed D of `_extremity_keyed_extract`."""
    graph = r.graph
    n_sq = graph.a_star
    circular = r.shape == "circular"
    vertex_ext = {}
    for i, sq in enumerate(graph.squares):
        if circular:
            beta = (i + 1, "h")
            gamma = (i + 2 if i + 1 < n_sq else 1, "t")
        else:
            beta = (2 * i + 1, "h")
            gamma = (2 * i + 2, "h")
        vertex_ext[sq.u] = Extremity(*beta, "a")
        vertex_ext[sq.uhat] = Extremity(*beta, "b")
        vertex_ext[sq.v] = Extremity(*gamma, "a")
        vertex_ext[sq.vhat] = Extremity(*gamma, "b")
    telos = []
    if circular:
        s = Genome([Chromosome("circular", [Gene(i) for i in range(1, n_sq + 1)])])
    else:
        for j, v in enumerate(graph.isolated):
            vertex_ext[v] = Extremity(j // 2 + 1, "t", "a" if j % 2 == 0 else "b")
            telos.append(vertex_ext[v])
        s = Genome([
            Chromosome("linear", [Gene(2 * i + 1), Gene(2 * i + 2, rev=True)])
            for i in range(n_sq)
        ])
    d_adjs = [(vertex_ext[x], vertex_ext[y]) for x, y in graph.d_edges]
    return s, _tuple_genome(d_adjs, telos)


def _refuse(*a):
    raise AssertionError("extraction must not go through this path")


def test_extract_matches_the_extremity_keyed_reference(monkeypatch):
    instances = [random_normalized_instance(n_vars, seed)
                 for n_vars in (3, 4, 5) for seed in range(3)]
    instances += unsat_instances()
    compared = 0
    for inst in instances:
        for k in (8, 10, 12):
            for shape in ("circular", "linear"):
                r = build_reduction(inst, k=k, shape=shape)
                expected = _extremity_keyed_extract(r)
                with monkeypatch.context() as m:
                    m.setattr(genomes, "genome_from_adjacencies", _refuse)
                    m.setattr(Genome, "erase_indices", _refuse)
                    got = extract_genomes(r)
                assert got == expected, (inst, k, shape)
                # the same canonical gene sequences, chromosome by chromosome
                for g, ref in zip(got, expected):
                    assert [ch.genes for ch in g.chromosomes] == [
                        ch.genes for ch in ref.chromosomes]
                compared += 1
    assert compared == 66
    assert not hasattr(reduction, "Extremity")
    assert not hasattr(reduction, "genome_from_adjacencies")



def test_extracted_chromosomes_are_canonical():
    """extract_genomes builds a one-gene chromosome as its gene read
    forward, whichever end the walk entered it by; every chromosome of S,
    D and the indexed D equals its rebuild by the Chromosome constructor."""
    covered = collections.Counter()
    instances = [random_normalized_instance(n_vars, seed)
                 for n_vars in (3, 4, 5) for seed in range(2)] + unsat_instances()
    for inst in instances:
        for k in (8, 10, 12):
            for shape in ("circular", "linear"):
                for g in extract_genomes(build_reduction(inst, k=k, shape=shape)):
                    for ch in g.chromosomes:
                        assert type(ch) is Chromosome and ch == Chromosome(ch.shape, ch.genes)
                        assert all(type(gene) is Gene and type(gene.rev) is bool
                                   for gene in ch.genes)
                        covered[ch.shape, len(ch.genes) == 1] += 1
                        covered["both copies"] += len({gene.gid for gene in ch.genes}) < len(ch.genes)
    kinds = (("circular", True), ("circular", False), ("linear", False), "both copies")
    assert min(covered[kind] for kind in kinds) >= 100, covered


def test_extracted_genomes_equal_the_checked_construction():
    """Both D genomes and D's singularization are built with no validation;
    each equals the checked construction and owns its ids."""
    for inst in reduction_corpus():
        for k in (8, 10, 12):
            for shape in ("circular", "linear"):
                _, d, indexed = extract_genomes(build_reduction(inst, k=k, shape=shape))
                singular = singularize(d)
                for g in (d, indexed, singular):
                    _assert_equals_the_checked_build(g)
                assert len({id(d.ids), id(indexed.ids), id(singular.ids)}) == 3


def _fresh_erased(g):
    """g with its copy indices erased, rebuilt gene by gene by the public
    constructors."""
    return Genome(
        Chromosome(ch.shape, [Gene(gene.gid, "", gene.rev) for gene in ch.genes])
        for ch in g.chromosomes
    )


def test_extracted_shared_values_equal_fresh_ones():
    """extract_genomes, whose genes and one-gene chromosomes are shared
    values, gives over the reduction corpus, in both shapes at k 8 to 12,
    the genomes that the extremity-keyed reference builds from fresh ones,
    with every chromosome and gene of its exact type."""
    compared = 0
    for inst in reduction_corpus():
        for k in (8, 10, 12):
            for shape in ("circular", "linear"):
                r = build_reduction(inst, k=k, shape=shape)
                # the reference builds S and the indexed D from fresh genes
                s, indexed = _extremity_keyed_s_and_indexed_d(r)
                expected = (s, _fresh_erased(indexed), indexed)
                got = extract_genomes(r)
                assert [g.chromosomes for g in got] == [g.chromosomes for g in expected]
                for g in got:
                    for ch in g.chromosomes:
                        assert type(ch) is Chromosome and type(ch.genes) is tuple
                        assert all(type(gene) is Gene for gene in ch.genes)
                compared += 1
    assert compared == 186


def _round_trip(r):
    """The genome half of the reduction workload: extract, write, read
    back, singularize and rebuild the graph."""
    s, d, _ = extract_genomes(r)
    s2 = genomes.parse_genome(format_genome(s))
    d2 = genomes.parse_genome(format_genome(d))
    return build_abg(s2, singularize(d2))


def test_repeated_round_trips_keep_no_memory():
    """The shared-value tables grow only to the largest id asked for, so
    once warm a round trip leaves nothing behind: with the cycle collector
    off, 200 round trips grow the allocated blocks by fewer than 200, less
    than one block a round trip."""
    r = build_reduction(random_normalized_instance(3, 1), k=8)
    for _ in range(20):
        _round_trip(r)
    gc.collect()
    gc.disable()
    try:
        _round_trip(r)  # refills what the collection emptied
        before = sys.getallocatedblocks()
        for _ in range(200):
            _round_trip(r)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 200


def _held(table):
    """The values a shared-value table has built, by key."""
    values = table._values[:]
    size = len(values) // 2
    return {i if i <= size else i - len(values): value
            for i, value in enumerate(values) if value is not None}


def test_shared_tables_hold_their_keys():
    """After the round trip of the pinned formula in both shapes, every
    value that a shared-value table holds equals its key's fresh value."""
    inst = random_normalized_instance(4, 1)
    for shape in ("circular", "linear"):
        _round_trip(build_reduction(inst, k=10, shape=shape))
    for copy, table in genomes._GENE_TABLES.items():
        held = _held(table)
        assert held, copy
        for x, gene in held.items():
            assert gene == Gene(abs(x), copy, x < 0), (copy, x)
            assert type(gene) is Gene and type(gene.rev) is bool
    for copy, table in genomes._ONE_GENE_TABLES.items():
        held = _held(table)
        assert held, copy
        for x, ch in held.items():
            assert ch == Chromosome("circular" if x > 0 else "linear", [Gene(abs(x), copy)])
            assert type(ch) is Chromosome and type(ch.genes[0]) is Gene


def _with_two_more_vertices(r, d_edges=()):
    g = r.graph
    graph = AmbiguousBreakpointGraph(
        list(g.labels) + ["extra0", "extra1"], g.squares, list(g.d_edges) + list(d_edges))
    return dataclasses.replace(r, graph=graph)


def test_extract_rejects_an_isolated_vertex():
    r = build_reduction(random_normalized_instance(3, 1), k=8)
    assert r.graph.n_vertices == 620
    r = _with_two_more_vertices(r)
    assert r.graph.isolated == (620, 621)
    with pytest.raises(GenomeError, match="vertex 620 maps to no extremity"):
        extract_genomes(r)


@pytest.mark.parametrize("shape", ["circular", "linear"])
def test_extract_rejects_a_square_vertex_with_no_fixed_edge(shape):
    r = build_reduction(random_normalized_instance(3, 1), k=8, shape=shape)
    g = r.graph
    (x, y), *rest = g.d_edges
    r = dataclasses.replace(r, graph=AmbiguousBreakpointGraph(g.labels, g.squares, rest))
    with pytest.raises(GenomeError, match="square vertex %d has no fixed edge" % min(x, y)):
        extract_genomes(r)


def test_extract_rejects_a_fixed_edge_off_every_square():
    r = build_reduction(random_normalized_instance(3, 1), k=8)
    r = _with_two_more_vertices(r, [(620, 621)])
    assert not r.graph.isolated
    with pytest.raises(GenomeError, match="vertex 620 maps to no extremity"):
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
