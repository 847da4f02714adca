import hashlib
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from doubledist.abg import (
    AmbiguousBreakpointGraph,
    Square,
    bp_to_dot,
    build_abg,
    conflict,
    conflict_masks,
    enumerate_candidates,
    forced_choices,
    resolve,
    score,
    to_dot,
)
from doubledist.bpgraph import ComponentCensus, build_breakpoint_graph, sigma
from doubledist.genomes import (
    Chromosome,
    Extremity,
    Gene,
    Genome,
    GenomeError,
    format_genome,
    parse_genome,
    random_cognate_pair,
    singularize,
)
from doubledist import _kernels, abg as abg_module, genomes, solver
from doubledist import reduction as reduction_module
from doubledist.reduction import build_closed_flower, build_reduction, extract_genomes
from doubledist.solver import dd

from satgen import random_normalized_instance, reduction_corpus

TRIO_S = parse_genome("[1 2 3]")
TRIO_D_CHECK = parse_genome("[1.a 2.a -3.a 1.b]\n[-3.b 2.b]")
TRIO_TAU = (0, 1)  # solid on the 1h2t square, complementary on 2h3t


def trio_graph():
    return build_abg(TRIO_S, TRIO_D_CHECK)


def test_build_worked_example():
    g = trio_graph()
    assert g.a_star == 2
    assert len(g.d_edges) == 4
    assert sorted(str(g.labels[v]) for v in g.isolated) == ["1at", "3bh"]
    assert g.n_vertices == 12
    assert g.n_star_doubled == 6
    # vertex classes match the figure: S-telomeres are copies of 1t and 3h
    s_tel = sorted(str(g.labels[v]) for v in range(g.n_vertices) if g.sq_id[v] < 0)
    assert s_tel == ["1at", "1bt", "3ah", "3bh"]
    d_tel = sorted(str(g.labels[v]) for v in range(g.n_vertices) if g.d_part[v] < 0)
    assert d_tel == ["1at", "1bh", "2bh", "3bh"]


def test_build_no_squares():
    g = build_abg(parse_genome("[1]"), parse_genome("[1.a]\n[1.b]"))
    assert g.a_star == 0
    assert len(g.isolated) == 4


def test_build_single_circular_gene():
    g = build_abg(parse_genome("(1)"), parse_genome("(1.a 1.b)"))
    assert g.a_star == 1
    assert len(g.d_edges) == 2
    assert not g.isolated


def test_build_rejects_bad_pairs():
    refusal = "build_abg needs a singular genome and its duplicated cognate"
    for s, d in ((parse_genome("[1 2]"), parse_genome("[1.a 1.b]")),  # other ids
                 (TRIO_D_CHECK, TRIO_S),  # the pair the other way round
                 (TRIO_S, TRIO_S),  # canonical
                 (TRIO_S, parse_genome("[1 1 2 3 3]"))):  # d not duplicated
        with pytest.raises(GenomeError, match=refusal):
            build_abg(s, d)
    # a plain D builds the graph of its singularization
    plain = TRIO_D_CHECK.erase_indices()
    g, ref = build_abg(TRIO_S, plain), build_abg(TRIO_S, singularize(plain))
    for name in GRAPH_FIELDS:
        assert getattr(g, name) == getattr(ref, name), name


GRAPH_FIELDS = ("labels", "squares", "d_edges", "sq_id", "e_part", "t_part",
                "d_part", "isolated")


def _extremity_keyed_abg(s, d_check):
    """The graph built through an Extremity index and the sorted adjacency
    Counters of both genomes, as build_abg did before it numbered the
    vertices by arithmetic."""
    labels = [Extremity(gid, end, copy)
              for gid in sorted(s.ids) for end in ("h", "t") for copy in ("a", "b")]
    index = {e: i for i, e in enumerate(labels)}
    squares = [
        Square(u=index[bgid, bend, "a"], v=index[ggid, gend, "a"],
               uhat=index[bgid, bend, "b"], vhat=index[ggid, gend, "b"])
        for (bgid, bend, _), (ggid, gend, _) in sorted(s.adjacencies)
    ]
    d_edges = [(index[x], index[y]) for x, y in sorted(d_check.adjacencies)]
    return AmbiguousBreakpointGraph(labels, squares, d_edges)


def _relabeled(g, ids):
    return Genome(Chromosome(ch.shape, [Gene(ids[gid], copy, rev) for gid, copy, rev in ch.genes])
                  for ch in g.chromosomes)


def _fresh(g):
    return parse_genome(format_genome(g))


def _differential_pairs():
    """(singular S, indexed D) pairs, each genome freshly parsed, so that
    none has computed its adjacencies yet."""
    rng = random.Random(16)
    for seed in range(200):
        n = 1 + seed % 40
        s, d = random_cognate_pair(n, True, rng.randint(0, 2 * n), seed)
        yield _fresh(s), singularize(_fresh(d))
        if seed < 40:  # ids that are not 1..n, in another order
            ids = dict(zip(range(1, n + 1), rng.sample(range(1, 5 * n + 1), n)))
            yield _fresh(_relabeled(s, ids)), singularize(_fresh(_relabeled(d, ids)))
    for n_vars in (3, 4):
        inst = random_normalized_instance(n_vars, 0)
        for k in (8, 10, 12):
            for shape in ("circular", "linear"):
                s, _, d_check = extract_genomes(build_reduction(inst, k=k, shape=shape))
                yield _fresh(s), _fresh(d_check)
    for s, d_check in (
        ("[17 -3]\n(40)", "[17.a -3.a 40.a]\n[40.b 17.b]\n(-3.b)"),
        ("(1)", "(1.a 1.b)"),
        ("(1)", "(1.a)\n(-1.b)"),
        ("(5)\n(2)\n[9]", "(-9.b)\n(5.a)\n(2.a 5.b)\n[2.b 9.a]"),
    ):
        yield parse_genome(s), parse_genome(d_check)


def test_build_matches_the_extremity_keyed_reference():
    covered = Counter()
    for s, d_check in _differential_pairs():
        g = build_abg(s, d_check)
        # the integer path reads the chromosomes, not the adjacency Counters
        assert "adjacencies" not in s.__dict__
        assert "adjacencies" not in d_check.__dict__
        ref = _extremity_keyed_abg(s, d_check)
        for name in GRAPH_FIELDS:
            assert getattr(g, name) == getattr(ref, name), (name, s, d_check)
        assert all(type(e) is Extremity for e in g.labels)
        assert all(type(sq) is Square for sq in g.squares)
        covered["pairs"] += 1
        covered["ids not 1..n"] += max(s.ids) != len(s.ids)
        covered["one-gene circular"] += any(
            len(ch.genes) == 1 and ch.shape == "circular"
            for ch in s.chromosomes + d_check.chromosomes)
    assert covered["pairs"] == 256, covered
    assert covered["ids not 1..n"] >= 40 and covered["one-gene circular"] >= 10, covered


def _half_erased(g):
    """g with the copy indices of its odd gene ids erased: a valid genome
    that mixes plain and lettered copies."""
    return Genome(Chromosome(ch.shape, [gene.erased() if gene.gid % 2 else gene
                                        for gene in ch.genes])
                  for ch in g.chromosomes)


def test_dd_builds_the_graph_of_the_singularization(monkeypatch):
    """`dd` labels the copies of a D with plain copies as it reads them, and
    solves the graph that `build_abg` builds on D's singularization."""
    # a stand-in engine that hands back the graph dd built
    monkeypatch.setitem(solver._ENGINES, "naive", lambda graph, k: graph)
    covered = Counter()
    for s, d_check in _differential_pairs():
        plain = d_check.erase_indices()
        for d in (plain, _half_erased(d_check)):
            g = dd(s, d, 2)
            assert g._labels is None  # made only when read
            ref = build_abg(s, singularize(d))
            for name in GRAPH_FIELDS + ("n_vertices",):
                assert getattr(g, name) == getattr(ref, name), (name, s, d)
            covered["mixed"] += "" in d.copies and "a" in d.copies
        covered["pairs"] += 1
        # the reduction's D labels its copies in another order
        covered["relabeled"] += singularize(plain) != d_check
    assert covered["pairs"] == 256, covered
    assert covered["mixed"] >= 200 and covered["relabeled"] >= 10, covered


def _reference_adjacency_ids(g, rank):
    """The adjacencies of g as sorted id pairs (x, y), x < y, read by
    listing each chromosome's ends and sorting the pairs, as `build_abg`
    did before it wrote the partner map in one pass: the reference of the
    one-pass reading.  Copies are labeled by the same rule."""
    out = []
    seen = set() if "" in g.copies else None  # the heads of the copies a read
    for shape, genes in g.chromosomes:
        ends = []  # the ids in reading order, two per gene
        for gid, copy, rev in genes:
            v = 4 * rank[gid]  # copy a's head; the tail is v + 2
            if seen is None:
                v += copy == "b"
            elif v in seen:
                v += 1
            else:
                seen.add(v)
            ends += (v, v + 2) if rev else (v + 2, v)
        inner = iter(ends[1:] + ends[:1] if shape == "circular" else ends[1:-1])
        out += [(x, y) if x < y else (y, x) for x, y in zip(inner, inner)]
    out.sort()
    return out


def test_id_partners_match_the_sorted_pair_reading():
    covered = Counter()
    for s, d_check in _differential_pairs():
        rank = {gid: r for r, gid in enumerate(sorted(s.ids))}
        n = 4 * len(rank)
        plain = d_check.erase_indices()
        for name, g in (("singular", s), ("indexed", d_check), ("plain", plain),
                        ("half-erased", _half_erased(d_check))):
            part = genomes._id_partners(g, rank, n)
            assert len(part) == n
            assert all(part[y] == x for x, y in enumerate(part) if y >= 0), (name, g)
            pairs = [(x, y) for x, y in enumerate(part) if x < y]
            assert pairs == _reference_adjacency_ids(g, rank), (name, g)
            covered[name] += 1
        covered["ids not 1..n"] += max(s.ids) != len(s.ids)
        covered["one-gene circular"] += any(
            len(ch.genes) == 1 and ch.shape == "circular"
            for ch in s.chromosomes + d_check.chromosomes)
    assert all(covered[name] == 256 for name in ("singular", "indexed", "plain",
                                                 "half-erased")), covered
    assert covered["ids not 1..n"] >= 40 and covered["one-gene circular"] >= 10, covered


@pytest.mark.parametrize("reading", [0, 1])  # s's, then d's
@pytest.mark.parametrize("pair", [(TRIO_S, TRIO_D_CHECK),
                                  random_cognate_pair(12, wgd=True, ops=4, seed=3)])
def test_build_refuses_a_reading_that_writes_a_pair_twice(monkeypatch, reading, pair):
    """The count that guards a genome-built graph: a reading that writes
    its first adjacency x-y again, as y-t at the last even telomere t,
    builds no graph."""
    real = genomes._id_partners
    calls = []

    def twice(g, rank, n):
        part = real(g, rank, n)
        if len(calls) == reading:
            y = next(y for x, y in enumerate(part) if x < y)
            t = max(t for t in range(0, n, 2) if part[t] < 0)
            part[t] = y
            part[y] = t
        calls.append(g)
        return part

    monkeypatch.setattr(abg_module, "_id_partners", twice)
    with pytest.raises(RuntimeError, match="the genome reading gave"):
        build_abg(*pair)
    assert len(calls) == 2
    monkeypatch.undo()
    build_abg(*pair)  # the real reading builds


def test_dd_solves_without_singularizing(monkeypatch):
    pairs = [(TRIO_S, TRIO_D_CHECK.erase_indices()),
             random_cognate_pair(12, wgd=True, ops=4, seed=3)]
    expected = [dd(s, singularize(d), 4, engine=engine)
                for s, d in pairs for engine in ("naive", "mis")]
    dots = [to_dot(_extremity_keyed_abg(s, singularize(d))) for s, d in pairs]

    def refuse(d):
        raise RuntimeError("singularize called")

    monkeypatch.setattr(genomes, "singularize", refuse)
    monkeypatch.setattr(solver, "singularize", refuse)
    built = []
    for engine in ("naive", "mis"):
        real = solver._ENGINES[engine]
        monkeypatch.setitem(solver._ENGINES, engine,
                            lambda graph, k, real=real: built.append(graph) or real(graph, k))
    got = [dd(s, d, 4, engine=engine) for s, d in pairs for engine in ("naive", "mis")]
    assert [(r.score, r.dd, r.tau) for r in got] == [
        (r.score, r.dd, r.tau) for r in expected]
    assert len(built) == 4
    for i, g in enumerate(built):
        assert g._labels is None  # the solve read no label
        assert to_dot(g) == dots[i // 2]
        assert g.labels is g.labels  # made once, then kept


def test_square_vertices_must_be_distinct():
    with pytest.raises(GenomeError, match="square 0 vertices not distinct"):
        AmbiguousBreakpointGraph(["v0", "v1", "v2", "v3"], [Square(0, 0, 1, 2)], [])
    with pytest.raises(GenomeError, match="vertex 1 in two squares"):
        AmbiguousBreakpointGraph(["v%d" % i for i in range(6)],
                                 [Square(0, 1, 2, 3), Square(1, 4, 5, 0)], [])


@pytest.mark.parametrize("squares, d_edges, message", [
    ([Square(0, 1, 2, 6)], [], "square vertex 6 out of range"),
    ([Square(0, 1, -1, 2)], [], "square vertex -1 out of range"),
    ([], [(3, 3)], "fixed-edge loop at vertex 3"),
    ([], [(0, 6)], "fixed-edge vertex 6 out of range"),
    ([], [(-1, 0)], "fixed-edge vertex -1 out of range"),
    ([], [(0, 1), (2, 1)], "vertex 1 has two fixed edges"),
    # each end is checked in turn, range first: the first fault is named
    ([Square(0, 1, 2, 3), Square(4, 5, 3, 9)], [], "vertex 3 in two squares"),
    ([], [(0, 1), (1, 7)], "vertex 1 has two fixed edges"),
    ([], [(0, 1), (7, 1)], "fixed-edge vertex 7 out of range"),
])
def test_graph_refusals_name_the_fault(squares, d_edges, message):
    with pytest.raises(GenomeError, match="^%s$" % message):
        AmbiguousBreakpointGraph(["v%d" % i for i in range(6)], squares, d_edges)


def test_constructor_reads_its_parts_once():
    """Squares and fixed edges given as generators build the graph that
    lists give: each is read once, then checked and filled."""
    labels = ["v%d" % i for i in range(6)]
    squares = [Square(0, 1, 2, 3)]
    d_edges = [(0, 3), (1, 4), (2, 5)]
    want = AmbiguousBreakpointGraph(labels, squares, d_edges)
    got = AmbiguousBreakpointGraph(iter(labels), iter(squares), iter(d_edges))
    for name in GRAPH_FIELDS + ("n_vertices",):
        assert getattr(got, name) == getattr(want, name), name
    assert got.d_edges == ((0, 3), (1, 4), (2, 5))


def test_constructor_keeps_plain_tuples_as_squares():
    """Squares given as plain 4-tuples are kept as `Square`s, so the
    engines and `to_dot` read the graph that `Square`s build."""
    s, d = random_cognate_pair(8, True, 6, 3)
    g = build_abg(s, singularize(d))
    want = AmbiguousBreakpointGraph(g.labels, g.squares, g.d_edges)
    got = AmbiguousBreakpointGraph(g.labels, [tuple(sq) for sq in g.squares], g.d_edges)
    assert all(type(sq) is Square for sq in got.squares) and got.squares == want.squares
    for solve in (solver.ss_naive, solver.ss_mis):
        a, b = solve(got, 8), solve(want, 8)
        assert (a.score, a.tau) == (b.score, b.tau)
    assert to_dot(got) == to_dot(want)
    assert to_dot(got, a.tau) == to_dot(want, a.tau)
    with pytest.raises(TypeError):
        AmbiguousBreakpointGraph(g.labels, [tuple(g.squares[0])[:3]], [])


def test_degree_sequence_needs_a_square_and_a_fixed_edge_at_every_vertex():
    square = [Square(0, 1, 2, 3)]
    d_edges = [(0, 3), (1, 2)]
    assert AmbiguousBreakpointGraph(["v%d" % i for i in range(4)], square, d_edges
                                    ).degree_sequence_ok()
    lone = AmbiguousBreakpointGraph(["v%d" % i for i in range(5)], square, d_edges)
    assert lone.isolated == (4,) and not lone.degree_sequence_ok()
    no_square = AmbiguousBreakpointGraph(["v%d" % i for i in range(6)], square,
                                         d_edges + [(4, 5)])
    assert not no_square.degree_sequence_ok()
    no_fixed = AmbiguousBreakpointGraph(["v%d" % i for i in range(4)], square, d_edges[:1])
    assert not no_fixed.degree_sequence_ok()


def test_square_parts_are_the_two_matchings_of_each_square():
    graphs = []
    for seed in range(50):
        n = 4 + seed % 30
        s, d = random_cognate_pair(n, True, seed % (2 * n), seed)
        graphs.append(build_abg(s, singularize(d)))
    for n_vars in (3, 4, 5):
        inst = random_normalized_instance(n_vars, 0)
        for k in (8, 10, 12):
            graphs += [build_reduction(inst, k=k, shape=shape).graph
                       for shape in ("circular", "linear")]
    squares = 0
    for g in graphs:
        for index, sq in enumerate(g.squares):
            for bit, part in ((0, g.e_part), (1, g.t_part)):
                for x, y in sq.edges(bit):
                    assert part[x] == y and part[y] == x, (index, bit)
            squares += 1
        on_a_square = [v for v in range(g.n_vertices) if g.sq_id[v] >= 0]
        assert len(on_a_square) == 4 * g.a_star
        assert all(g.e_part[v] == g.t_part[v] == -1
                   for v in range(g.n_vertices) if g.sq_id[v] < 0)
    assert len(graphs) == 68 and squares > 7000, squares


def _reference_resolve(g, tau):
    """The census of the resolution tau, its partner array filled vertex by
    vertex from e_part or t_part, as `resolve` did before it started from
    e_part and rewrote the squares at bit 1."""
    tau = g.check_resolution(tau)
    pa = [-1] * g.n_vertices
    for v in range(g.n_vertices):
        s = g.sq_id[v]
        if s >= 0:
            pa[v] = g.t_part[v] if tau[s] else g.e_part[v]
    cycles, paths = _kernels.walk_components(pa, g.d_part)
    return ComponentCensus.from_lengths(cycles, paths)


def test_resolve_matches_the_per_vertex_reference():
    rng = random.Random(24)
    graphs = _seeded_graphs() + [trio_graph(), build_closed_flower(5)]
    resolved = 0
    for g in graphs:
        taus = [(0,) * g.a_star, (1,) * g.a_star]
        taus += [tuple(rng.randint(0, 1) for _ in range(g.a_star)) for _ in range(20)]
        for tau in taus:
            assert resolve(g, tau) == _reference_resolve(g, tau), tau
            resolved += 1
    assert len(graphs) == 20 and resolved == 20 * 22


def test_resolve_worked_example():
    census = resolve(trio_graph(), TRIO_TAU)
    assert census == ComponentCensus({2: 1}, {0: 2, 2: 1, 4: 1})


def test_resolve_no_squares():
    g = build_abg(parse_genome("[1]"), parse_genome("[1.a]\n[1.b]"))
    assert resolve(g, ()) == ComponentCensus({}, {0: 4})


def test_resolve_closed_flower_all_solid():
    for p in (3, 5):
        g = build_closed_flower(p)
        assert resolve(g, (0,) * p) == ComponentCensus({2 * p: 2}, {})
        assert resolve(g, (1,) + (0,) * (p - 1)) == ComponentCensus({4 * p: 1}, {})


def test_resolve_length_mismatch():
    with pytest.raises(GenomeError):
        resolve(trio_graph(), (0,))


def test_score_worked_example():
    g = trio_graph()
    assert score(g, TRIO_TAU, 8) == 3
    assert score(g, TRIO_TAU, 2) == 2


def test_resolution_entries_must_equal_0_or_1():
    g = trio_graph()
    # int() would read 0.7 as 0, 1.9 as 1 and "1" as 1
    for tau in ((0.7, 1.9), ("1", "0"), (0, 2), (-1, 0), (None, 1)):
        with pytest.raises(GenomeError, match="resolution must be 2 bits"):
            score(g, tau, 8)
    assert score(g, (0.0, True), 8) == score(g, TRIO_TAU, 8)


def test_score_isolated_only():
    g = build_abg(parse_genome("[1]"), parse_genome("[1.a]\n[1.b]"))
    for k in (2, 8):
        assert score(g, (), k) == 2


def test_isolated_vertices_score_under_every_resolution():
    g = trio_graph()
    for tau in itertools.product((0, 1), repeat=g.a_star):
        census = resolve(g, tau)
        assert census.p[0] >= len(g.isolated)


# === candidates ===


def test_candidates_worked_example():
    g = trio_graph()
    cs = enumerate_candidates(g, 8)
    assert len(g.isolated) == 2
    two_cycles = [c for c in cs if c.kind == "cycle" and c.length == 2]
    assert len(two_cycles) == 1
    c = two_cycles[0]
    assert sorted(str(g.labels[v]) for v in c.vertices) == ["1ah", "2at"]
    assert c.choices == ((0, 0),)
    assert c.weight2 == 2


def test_candidates_flower_none_below_girth():
    g = build_closed_flower(5)
    assert len(enumerate_candidates(g, 8)) == 0
    ten = enumerate_candidates(g, 10)
    # each even-switch resolution contributes two parallel 10-cycles
    assert len(ten) == 32
    assert all(c.length == 10 for c in ten)
    solid = [c for c in ten if c.choices == tuple((i, 0) for i in range(5))]
    assert len(solid) == 2
    assert not conflict(*solid)


def test_candidates_parallel_square():
    g = build_abg(parse_genome("(1)"), parse_genome("(1.a)\n(1.b)"))
    two = enumerate_candidates(g, 2)
    assert len(two) == 2
    assert all(c.kind == "cycle" and c.length == 2 and c.choices == ((0, 0),) for c in two)
    four = enumerate_candidates(g, 4)
    assert len(four) == 3
    extra = [c for c in four if c.length == 4]
    assert len(extra) == 1 and extra[0].choices == ((0, 1),)


def test_candidates_paths():
    g = trio_graph()
    cs = enumerate_candidates(g, 8)
    paths = [c for c in cs if c.kind == "path"]
    assert paths and all(c.length % 2 == 0 and c.length <= 6 for c in paths)
    assert all(
        g.sq_id[c.vertices[0]] < 0 and g.d_part[c.vertices[-1]] < 0 for c in paths
    )


def test_conflict_rules():
    g = trio_graph()
    cs = enumerate_candidates(g, 8)
    c = cs.candidates[0]
    assert conflict(c, c)
    flipped = c._replace(choices=tuple((sq, 1 - bit) for sq, bit in c.choices))
    assert conflict(c, flipped)


def _seeded_graphs():
    """Reduction graphs at k = 8 and 10, and WGD graphs of 6-28 genes."""
    graphs = []
    for seed in range(3):
        inst = random_normalized_instance(3, seed)
        graphs += [build_reduction(inst, k=k).graph for k in (8, 10)]
    for seed in range(12):
        s, d = random_cognate_pair(6 + 2 * seed, wgd=True, ops=3 + seed, seed=seed)
        graphs.append(build_abg(s, singularize(d)))
    return graphs


def test_conflict_masks_state_the_conflict_rule():
    seen = Counter()
    for g in _seeded_graphs():
        for k in (8, 10):
            cands = enumerate_candidates(g, k).candidates
            masks = conflict_masks(cands)
            for i, c1 in enumerate(cands):
                for j, c2 in enumerate(cands):
                    if i != j:
                        expected = conflict(c1, c2)
                        assert bool(masks[i] >> j & 1) == expected, (i, j)
                        seen[expected] += 1
                assert not masks[i] >> i & 1
    assert seen[True] > 1000 and seen[False] > 10000, seen
    # a graph whose masks span many machine words: a seeded sample of rows,
    # each against the rule for every other candidate
    s, d = random_cognate_pair(200, wgd=True, ops=600, seed=1)
    cands = enumerate_candidates(build_abg(s, d), 40).candidates
    t0 = time.perf_counter()
    masks = conflict_masks(cands)
    assert time.perf_counter() - t0 < 1.0  # pairwise ORs took about 1 s here
    assert len(cands) > 1000
    rows = Counter()
    for i in random.Random(40).sample(range(len(cands)), 25):
        row = [j for j, c in enumerate(cands) if j != i and conflict(cands[i], c)]
        assert masks[i] == sum(1 << j for j in row), i
        rows[bool(row)] += 1
    assert rows[True] >= 5, rows


def test_candidates_are_enumerated_once_per_graph_and_k():
    for g in _seeded_graphs():
        sets = {k: enumerate_candidates(g, k) for k in (4, 8, 10, 12)}
        for k, cs in sets.items():
            assert enumerate_candidates(g, k) is cs
            assert isinstance(cs.candidates, tuple)
            rebuilt = AmbiguousBreakpointGraph(g.labels, g.squares, g.d_edges)
            fresh = enumerate_candidates(rebuilt, k)
            assert (cs.k, cs.candidates, cs.settled2x, len(g.isolated)) == (
                fresh.k, fresh.candidates, fresh.settled2x, len(rebuilt.isolated)
            )


def test_forced_enumeration_is_memoized_and_checked():
    g = trio_graph()
    forced = forced_choices(g)
    cs = enumerate_candidates(g, 8, forced)
    assert enumerate_candidates(g, 8, list(forced)) is cs
    assert cs is not enumerate_candidates(g, 8)
    assert enumerate_candidates(g, 8).settled2x == 0
    for bad in ((0,), (0, 2), (0, -1, -1)):
        with pytest.raises(ValueError, match="forced must hold"):
            enumerate_candidates(g, 8, bad)


def test_graph_is_immutable():
    g = trio_graph()
    with pytest.raises(TypeError):
        g.e_part[0] = 1
    for name in ("sq_id", "t_part", "d_part", "labels", "squares", "d_edges", "isolated"):
        assert isinstance(getattr(g, name), tuple), name
    with pytest.raises(AttributeError):
        g.sq_id = [-1] * g.n_vertices
    cs = enumerate_candidates(g, 8)
    with pytest.raises(AttributeError):
        cs.candidates = ()


def test_forced_choices_worked_example():
    g = trio_graph()
    # 1h.a-2t.a and 1h.b-2t.b are both square edges and fixed edges
    assert forced_choices(g) == (0, -1)
    doubled = build_abg(parse_genome("(1 2 3)"), parse_genome("(1.a 2.a 3.a)\n(1.b 2.b 3.b)"))
    assert forced_choices(doubled) == (0, 0, 0)
    assert forced_choices(build_closed_flower(5)) == (-1,) * 5


def test_forced_choices_claim_nothing_on_reduction_graphs():
    # verify_structure forbids cycles shorter than k there, 2-cycles included
    graphs = 0
    for n_vars in (3, 4):
        for seed in range(3):
            inst = random_normalized_instance(n_vars, seed)
            for k in (8, 10, 12):
                for shape in ("circular", "linear"):
                    g = build_reduction(inst, k=k, shape=shape).graph
                    assert forced_choices(g) == (-1,) * g.a_star, (n_vars, seed, k, shape)
                    graphs += 1
    assert graphs == 36


def test_forced_choices_raise_on_a_square_forced_both_ways():
    g = trio_graph()
    bad = object.__new__(AmbiguousBreakpointGraph)
    for name in AmbiguousBreakpointGraph.__slots__:
        object.__setattr__(bad, name, getattr(g, name))
    sq = g.squares[0]
    d_part = list(g.d_part)
    d_part[sq.u] = sq.v  # repeats the solid edge u-v
    d_part[sq.uhat] = sq.v  # repeats the complementary edge uhat-v
    object.__setattr__(bad, "d_part", tuple(d_part))
    with pytest.raises(GenomeError, match="both choices"):
        forced_choices(bad)


def test_candidate_completeness_and_realizability():
    # Every short component of every resolution appears among the candidates
    # with consistent choices, and compatible candidate sets are realizable.
    for seed in range(8):
        s, d = random_cognate_pair(4, wgd=True, ops=2, seed=seed)
        g = build_abg(s, singularize(d))
        k = 6
        cs = enumerate_candidates(g, k)
        by_key = {(c.vertices, c.choices): c for c in cs.candidates}
        for tau in itertools.product((0, 1), repeat=g.a_star):
            pa = [-1] * g.n_vertices
            for v in range(g.n_vertices):
                sq = g.sq_id[v]
                if sq >= 0:
                    pa[v] = g.t_part[v] if tau[sq] else g.e_part[v]
            # walk components manually and match against candidates
            seen = set()
            for start in range(g.n_vertices):
                if start in seen:
                    continue
                comp = _component(g, pa, start)
                seen.update(comp["vertices"])
                if comp["kind"] == "cycle" and comp["length"] <= k:
                    assert _matched(cs, comp, tau), (seed, tau, comp)
                if (
                    comp["kind"] == "path"
                    and comp["length"] % 2 == 0
                    and 0 < comp["length"] <= k - 2
                ):
                    assert _matched(cs, comp, tau), (seed, tau, comp)
        # realizability: pick a maximal compatible set greedily
        chosen = []
        for c in cs.candidates:
            if all(not conflict(c, o) for o in chosen):
                chosen.append(c)
        bits = {}
        for c in chosen:
            bits.update(dict(c.choices))
        tau = tuple(bits.get(i, 0) for i in range(g.a_star))
        total = Fraction(sum(c.weight2 for c in chosen) + len(g.isolated), 2)
        assert score(g, tau, k) >= total


def _component(g, pa, start):
    pb = g.d_part
    a, b = pa[start], pb[start]
    if a >= 0 and b >= 0:
        # interior vertex: walk the cycle or defer to an endpoint
        verts = [start]
        use_a = True
        cur = start
        while True:
            cur = pa[cur] if use_a else pb[cur]
            use_a = not use_a
            if cur == start and use_a:
                break
            if cur == start:
                continue
            if len(verts) > 2 * g.n_vertices:
                break
            verts.append(cur)
        # determine whether it truly is a cycle: all interior
        if all(pa[v] >= 0 and pb[v] >= 0 for v in verts):
            return {"kind": "cycle", "length": len(verts), "vertices": set(verts)}
        # otherwise find an endpoint and walk the path from it
        endpoint = next(v for v in verts if pa[v] < 0 or pb[v] < 0)
        return _component(g, pa, endpoint)
    verts = [start]
    length = 0
    cur = start
    use_a = a >= 0
    while True:
        nxt = pa[cur] if use_a else pb[cur]
        if nxt < 0:
            break
        length += 1
        cur = nxt
        verts.append(cur)
        use_a = not use_a
    return {"kind": "path", "length": length, "vertices": set(verts)}


def _matched(cs, comp, tau):
    for c in cs.candidates:
        if set(c.vertices) == comp["vertices"] and c.length == comp["length"]:
            if all(tau[sq] == bit for sq, bit in c.choices):
                return True
    return False


# === DOT export ===


def test_dot_empty_graph():
    text = to_dot(AmbiguousBreakpointGraph([], [], []))
    assert text.startswith("graph abg {") and text.endswith("}")


def test_dot_worked_example_counts():
    g = trio_graph()
    text = to_dot(g)
    lines = text.splitlines()
    assert sum("color=orange" in l for l in lines) == 8
    assert sum("color=black" in l for l in lines) == 4
    assert sum("fillcolor" in l for l in lines) == 12
    assert sum('fillcolor="purple"' in l for l in lines) == 2


def test_dot_resolved_draws_chosen_edges_only():
    g = trio_graph()
    text = to_dot(g, TRIO_TAU)
    assert sum("color=orange" in l for l in text.splitlines()) == 4


def test_dot_reduction_graph_well_formed():
    from doubledist.reduction import build_reduction, normalize, parse_cnf

    inst = normalize(parse_cnf("p cnf 2 2\n1 2 0\n-1 -2 0\n"))
    r = build_reduction(inst, k=8)
    text = to_dot(r.graph)
    names = {str(l) for l in r.graph.labels}
    for line in text.splitlines():
        if "--" in line:
            a, _, b = line.strip().partition(" -- ")
            assert a.strip('"') in names
            assert b.split(" [")[0].strip('"') in names



# sha256 over the labels of the graphs below, in their order, each label
# list joined by newlines and ended by a NUL; the reduction builder gave
# these strings when it kept a label per vertex
REDUCTION_LABELS_SHA256 = "234646abc25abae5bf2a22521cdaa86cd755abd95e089b625a580614e98e725b"


def test_built_reductions_equal_the_checked_construction():
    """The builder fills a reduction's graph with no check per square or
    fixed edge; the checking constructor gives the same graph from its
    labels, squares and fixed edges, and the labels it makes on first read
    are the strings the builder named the vertices by."""
    graphs = [build_reduction(inst, k=k, shape=shape).graph
              for inst in reduction_corpus()
              for k in (8, 10, 12)
              for shape in ("circular", "linear")]
    graphs += [build_closed_flower(p) for p in range(3, 11)]
    digest = hashlib.sha256()
    for g in graphs:
        assert g._labels is None
        labels = g.labels
        assert labels is g.labels  # made once, then kept
        checked = AmbiguousBreakpointGraph(labels, g.squares, g.d_edges)
        for name in GRAPH_FIELDS + ("n_vertices",):
            assert getattr(g, name) == getattr(checked, name), name
        assert all(type(sq) is Square for sq in g.squares)
        digest.update("\n".join(labels).encode() + b"\0")
    assert len(graphs) == 194
    assert digest.hexdigest() == REDUCTION_LABELS_SHA256


def test_reduction_builder_guard_counts_the_filled_entries():
    """A fixed-edge loop, a vertex on two fixed edges or a vertex in two
    squares leaves fewer filled entries than the builder's parts fill."""
    for fault in ("loop", "two fixed edges", "two squares"):
        b = reduction_module._Builder()
        _, c = b.square("a")
        _, e = b.square("b")
        b.edge(c[1], e[0])
        if fault == "loop":
            b.edge(c[0], c[0])
        elif fault == "two fixed edges":
            b.edge(c[1], e[2])
        else:  # a third square on the first one's vertices
            b.squares.append(b.squares[0])
        with pytest.raises(RuntimeError, match="^the reduction builder gave"):
            b.graph()

def test_bp_dot():
    bg = build_breakpoint_graph(parse_genome("(1 2)\n[3 -4]"), parse_genome("(1 -3 2)\n[4]"))
    text = bp_to_dot(bg)
    lines = text.splitlines()
    assert sum("color=blue" in l for l in lines) == 3
    assert sum("color=black" in l for l in lines) == 3
