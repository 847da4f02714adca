import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubledist import genomes as genomes_module
from doubledist.genomes import (
    CIRCULAR,
    LINEAR,
    Chromosome,
    Gene,
    Genome,
    GenomeError,
    ParseError,
    PairClass,
    adjacency,
    apply_dcj,
    classify_pair,
    double,
    enumerate_resolved_doublings,
    format_genome,
    genome_from_adjacencies,
    head,
    parse_genome,
    random_cognate_pair,
    random_genome,
    singularize,
    tail,
)


def adj_strs(g):
    return sorted("%s%s" % (a, b) for (a, b), n in g.adjacencies.items() for _ in range(n))


def tel_strs(g):
    return sorted(str(t) for t, n in g.telomeres.items() for _ in range(n))


# === parsing and formatting ===


def test_parse_singular_genome_table():
    g = parse_genome("(1 -3 2)\n(4)\n[5 -6]")
    assert adj_strs(g) == ["1h3h", "1t2h", "2t3t", "4h4t", "5h6h"]
    assert tel_strs(g) == ["5t", "6t"]
    assert g.is_singular() and not g.is_duplicated()
    assert g.n_star == 6 and g.chi == 1 and g.o == 2


def test_parse_one_gene_linear():
    g = parse_genome("[1]")
    assert adj_strs(g) == []
    assert tel_strs(g) == ["1h", "1t"]


def test_parse_duplicated_genome():
    g = parse_genome("(1 2 -3 1)\n[3 -2]")
    assert g.is_duplicated()
    assert adj_strs(g) == ["1h1t", "1h2t", "1t3t", "2h3h", "2h3h"]
    assert tel_strs(g) == ["2t", "3t"]


def test_parse_comments_and_indexed():
    g = parse_genome("# comment\n[1.a 2.a]\n[1.b 2.b]\n")
    assert g.is_indexed()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_genome("[1 2")
    with pytest.raises(ParseError):
        parse_genome("[]")
    with pytest.raises(ParseError):
        parse_genome("1 2")
    with pytest.raises(ParseError):
        parse_genome("[0]")
    with pytest.raises(ParseError):
        parse_genome("[1.c]")
    with pytest.raises(ParseError):
        parse_genome("# nothing\n")
    with pytest.raises(GenomeError):
        parse_genome("[1 1 1]")
    with pytest.raises(GenomeError):
        parse_genome("[1.a 1.a]")
    with pytest.raises(GenomeError):
        parse_genome("[1.a 1.a 1.b]")


def test_format_identity():
    assert format_genome(parse_genome("[1 -3 2]")) == "[1 -3 2]"


def test_format_rotates_circular():
    assert format_genome(parse_genome("(2 1)")) == "(1 2)"


def test_format_reflection_least():
    assert format_genome(parse_genome("[2 3 -1]")) == "[1 -3 -2]"


def test_roundtrip_examples():
    for text in ("(1 -3 2)\n(4)\n[5 -6]", "(1 2 -3 1)\n[3 -2]", "[1]"):
        g = parse_genome(text)
        assert parse_genome(format_genome(g)) == g


def _all_rotations_canonical(shape, genes):
    """Reference rule: the least key sequence over both orientations and,
    if circular, all of their rotations."""
    seqs = (genes, tuple(g.reverse() for g in reversed(genes)))
    if shape == CIRCULAR:
        seqs = [seq[i:] + seq[:i] for seq in seqs for i in range(len(seq))]
    return min(seqs, key=lambda seq: [(g.gid, g.copy, g.rev) for g in seq])


def test_canonical_form_matches_all_rotations():
    rng = random.Random(20261018)
    for trial in range(6000):
        length = rng.randint(1, 9)
        ids = list(range(1, rng.randint(1, length) + 1))
        genes = [
            Gene(rng.choice(ids), rng.random() < 0.5, rng.choice(("", "a", "b")))
            for _ in range(length)
        ]
        if trial % 3 == 0 and length >= 2:
            # the least gene twice: a plain pair or an a/b pair
            copies = rng.choice((("", ""), ("a", "b")))
            i, j = rng.sample(range(length), 2)
            genes[i] = Gene(ids[0], rng.random() < 0.5, copies[0])
            genes[j] = Gene(ids[0], rng.random() < 0.5, copies[1])
        genes = tuple(genes)
        for shape in (LINEAR, CIRCULAR):
            got = Chromosome(shape, genes).genes
            assert got == _all_rotations_canonical(shape, genes), (shape, genes)


# === classification ===


def test_classify_canonical():
    g1 = parse_genome("(1 2)\n[3 -4]")
    g2 = parse_genome("(1 -3 2)\n[4]")
    assert classify_pair(g1, g2) == PairClass.CANONICAL


def test_classify_one_two():
    s = parse_genome("[1 2 3]")
    d = parse_genome("[1 2 -3 1]\n[-3 2]")
    assert classify_pair(s, d) == PairClass.ONE_TWO_COGNATE
    assert classify_pair(d, s) == PairClass.ONE_TWO_COGNATE
    assert s.is_singular() and d.is_duplicated()


def test_classify_not_cognate():
    assert classify_pair(parse_genome("[1]"), parse_genome("[2]")) == PairClass.NOT_COGNATE


def test_classify_two_two():
    d = parse_genome("[1 1]")
    assert classify_pair(d, d) == PairClass.TWO_TWO_COGNATE


# === doubling ===


def test_double_mixed():
    s = parse_genome("(1 2)\n[3 4]")
    a2, t2, layouts = double(s)
    assert layouts == 2
    assert a2[adjacency(head(1), tail(2))] == 2
    assert a2[adjacency(head(2), tail(1))] == 2
    assert a2[adjacency(head(3), tail(4))] == 2
    assert t2[tail(3)] == 2 and t2[head(4)] == 2
    assert sum(a2.values()) == 2 * sum(s.adjacencies.values())


def test_double_one_linear():
    a2, t2, layouts = double(parse_genome("[1]"))
    assert layouts == 1 and not a2 and t2[tail(1)] == 2 and t2[head(1)] == 2


def test_double_two_circulars():
    assert double(parse_genome("(1)\n(2)"))[2] == 4


def test_double_rejects_duplicated():
    with pytest.raises(GenomeError):
        double(parse_genome("[1 1]"))


# === resolved doublings ===


def test_doublings_linear_pair():
    out = enumerate_resolved_doublings(parse_genome("[3 4]"))
    texts = {format_genome(b).replace("\n", " ") for b in out}
    assert texts == {"[3.a 4.a] [3.b 4.b]", "[3.a 4.b] [3.b 4.a]"}


def test_doublings_one_circular_gene():
    out = enumerate_resolved_doublings(parse_genome("(1)"))
    texts = {format_genome(b).replace("\n", " ") for b in out}
    assert texts == {"(1.a) (1.b)", "(1.a 1.b)"}


def test_doublings_two_gene_circular():
    out = {format_genome(b).replace("\n", " ") for b in enumerate_resolved_doublings(parse_genome("(1 2)"))}
    assert "(1.a 2.a) (1.b 2.b)" in out
    assert "(1.a 2.a 1.b 2.b)" in out
    assert len(out) == 4


def test_doublings_all_doubled_after_erasure():
    for text in ("(1 2)", "[1 2]\n(3)", "(1)\n(2)"):
        for b in enumerate_resolved_doublings(parse_genome(text)):
            assert b.is_indexed()
            assert b.erase_indices().is_doubled()


def test_doublings_budget():
    with pytest.raises(GenomeError):
        enumerate_resolved_doublings(random_genome(13, 1, 0, seed=1))


# === singularization ===


def test_singularize_canonical_traversal():
    d = parse_genome("(1 2 -3 1)\n[3 -2]")
    got = singularize(d)
    assert got == parse_genome("(1.a 1.b 2.a -3.a)\n[2.b -3.b]")
    assert got.is_indexed()


def test_singularize_trivial():
    assert singularize(parse_genome("[1 1]")) == parse_genome("[1.a 1.b]")


def test_singularize_two_chromosomes():
    got = singularize(parse_genome("[1 2]\n[2 1]"))
    assert got == parse_genome("[1.a 2.a]\n[2.b 1.b]")


def test_singularize_needs_duplicated():
    with pytest.raises(GenomeError):
        singularize(parse_genome("[1 2]"))


# === DCJ ===


def test_dcj_inversion():
    g = parse_genome("(1 2 3 4)")
    out = apply_dcj(
        g,
        adjacency(head(1), tail(2)),
        adjacency(head(3), tail(4)),
        [(head(1), head(3)), (tail(2), tail(4))],
    )
    assert out == parse_genome("(1 -3 -2 4)")


def test_dcj_fusion():
    g = parse_genome("[1]\n[2]")
    out = apply_dcj(g, head(1), tail(2), [(head(1), tail(2))])
    assert out == parse_genome("[1 2]")


def test_dcj_identity():
    g = parse_genome("(1 2)")
    out = apply_dcj(
        g,
        adjacency(head(1), tail(2)),
        adjacency(head(2), tail(1)),
        [(head(1), tail(2)), (head(2), tail(1))],
    )
    assert out == g


def test_dcj_errors():
    g = parse_genome("(1 2)")
    with pytest.raises(GenomeError):
        apply_dcj(g, adjacency(head(1), tail(2)), adjacency(head(1), tail(2)), [])
    with pytest.raises(GenomeError):
        apply_dcj(g, adjacency(head(1), head(2)), head(1), [])
    with pytest.raises(GenomeError):
        apply_dcj(
            g,
            adjacency(head(1), tail(2)),
            adjacency(head(2), tail(1)),
            [(head(1), head(1))],
        )


def test_dcj_preserves_extremities():
    import random as _random

    rng = _random.Random(7)
    for seed in range(20):
        g = random_genome(5, 1, 1, seed)
        adjs = sorted(g.adjacencies)
        telos = sorted(g.telomeres)
        if len(adjs) < 2:
            continue
        c1, c2 = adjs[0], adjs[1]
        out = apply_dcj(g, c1, c2, [(c1[0], c2[0]), (c1[1], c2[1])])
        before = sorted(e for a in g.adjacencies for e in a) + sorted(g.telomeres)
        after = sorted(e for a in out.adjacencies for e in a) + sorted(out.telomeres)
        assert before == after


# === reconstruction ===


def test_genome_from_adjacencies_roundtrip():
    for text in ("(1 2)\n[3 -4]", "[1 -3 2]", "(1)\n(2)\n[3]"):
        g = parse_genome(text)
        assert genome_from_adjacencies(list(g.adjacencies), list(g.telomeres)) == g


# === random generation ===


def test_random_genome_shape():
    g = random_genome(3, 1, 0, seed=7)
    assert g.is_singular() and g.n_star == 3 and g.chi == 1 and g.o == 0


def test_random_genome_bad_params():
    with pytest.raises(GenomeError):
        random_genome(2, 2, 1, seed=0)
    rng = random.Random(3)
    state = rng.getstate()
    for counts, name in (((-1, 2), "linear_count"), ((2, -1), "circular_count")):
        with pytest.raises(GenomeError, match="%s >= 0, got %s=-1" % (name, name)):
            random_genome(3, *counts, seed=None, rng=rng)
    assert rng.getstate() == state  # refused before any draw


def test_random_cognate_pair_wgd():
    s, d = random_cognate_pair(2, wgd=True, ops=0, seed=1)
    assert classify_pair(s, d) == PairClass.ONE_TWO_COGNATE
    assert d.is_doubled()


@pytest.mark.parametrize("wgd", [True, False])
def test_random_cognate_pair_rejects_bad_arguments(wgd):
    for n in (0, -2):
        with pytest.raises(GenomeError, match="n >= 1, got n=%d" % n):
            random_cognate_pair(n, wgd, 1, seed=1)
    with pytest.raises(GenomeError, match="ops >= 0, got ops=-1"):
        random_cognate_pair(4, wgd, -1, seed=1)


def test_random_cognate_pair_deterministic():
    assert random_cognate_pair(4, True, 3, seed=5) == random_cognate_pair(4, True, 3, seed=5)


def test_nth_move_matches_the_move_list():
    # the list _random_dcj used to build and index with rng.randrange
    for m in range(41):
        for n_adjs in sorted({0, m // 2, m}):
            elems = [("adjacency", i) if i < n_adjs else ("telomere", i) for i in range(m)]
            adjs = list(range(n_adjs))
            moves = [(elems[i], elems[j]) for i in range(m) for j in range(i + 1, m)]
            moves += [(("adjacency", a), None) for a in adjs]
            for r, move in enumerate(moves):
                assert genomes_module._nth_move(elems, adjs, r) == move, (m, n_adjs, r)


def test_random_cognate_pair_self_check_raises(monkeypatch):
    # a self-check, not an assert: it must survive python -O
    def undoubled(s):
        return s.adjacencies, s.telomeres + s.telomeres, 2 ** s.o

    monkeypatch.setattr(genomes_module, "double", undoubled)
    with pytest.raises(RuntimeError, match="not 2"):
        random_cognate_pair(4, wgd=True, ops=0, seed=1)


def test_random_cognate_pair_canonical():
    s, d = random_cognate_pair(4, wgd=False, ops=2, seed=3)
    assert classify_pair(s, d) == PairClass.CANONICAL


# === properties ===


@st.composite
def genomes(draw, max_genes=6):
    n = draw(st.integers(min_value=1, max_value=max_genes))
    parts = draw(st.integers(min_value=1, max_value=min(3, n)))
    circ = draw(st.integers(min_value=0, max_value=parts))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_genome(n, parts - circ, circ, seed)


@given(genomes())
@settings(max_examples=60, deadline=None)
def test_parse_format_roundtrip(g):
    assert parse_genome(format_genome(g)) == g


@given(genomes())
@settings(max_examples=60, deadline=None)
def test_counting_invariants(g):
    assert sum(g.telomeres.values()) == 2 * g.chi
    assert sum(g.adjacencies.values()) == g.n_star - g.chi


@given(genomes(max_genes=5))
@settings(max_examples=30, deadline=None)
def test_doubling_multiplicities(g):
    a2, t2, layouts = double(g)
    assert layouts == 2 ** g.o
    for a, n in g.adjacencies.items():
        assert a2[a] == 2 * n
    members = enumerate_resolved_doublings(g)
    assert 1 <= len(members) <= 2 ** (g.o + g.n_star)
