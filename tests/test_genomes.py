import gc
import hashlib
import random
import sys
import threading
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubledist import genomes as genomes_module
from doubledist.genomes import (
    CIRCULAR,
    HEAD,
    LINEAR,
    TAIL,
    Chromosome,
    Extremity,
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
from doubledist.genomes import _new


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
    # only ASCII digits are gene ids: no bare ValueError, no '١٢' read as 12
    for text, token, line, column in (
        ("[1 \u00b2]", "\u00b2", 1, 4),
        ("[1 \u0661\u0662]", "\u0661\u0662", 1, 4),
        ("[1\n  -\u0663.a]", "-\u0663.a", 2, 3),
    ):
        with pytest.raises(ParseError, match="bad gene token") as err:
            parse_genome(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert repr(token) in str(err.value)


def _reference_parse_gene_token(token, line, col):
    """The gene-token rule of the character scanner below, checked one
    field at a time."""
    body = token
    rev = body.startswith("-")
    if rev:
        body = body[1:]
    copy = ""
    if "." in body:
        body, _, copy = body.partition(".")
        if copy not in ("a", "b"):
            raise ParseError("bad copy suffix in %r" % token, line, col)
    if not (body.isascii() and body.isdigit()) or int(body) == 0:
        raise ParseError("bad gene token %r" % token, line, col)
    return Gene(int(body), copy, rev)


def _reference_parse_genome(text):
    """The character scanner parse_genome once used, kept as the
    reference its results and errors are checked against; it reads no
    private name of the genomes module."""
    chroms = []
    current = None  # (closer, genes, line, col)
    line = 1
    col = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        col += 1
        if c == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "([":
            if current is not None:
                raise ParseError("nested chromosome bracket", line, col)
            current = (")" if c == "(" else "]", [], line, col)
            i += 1
            continue
        if c in ")]":
            if current is None or c != current[0]:
                raise ParseError("unmatched %r" % c, line, col)
            closer, genes, oline, ocol = current
            if not genes:
                raise ParseError("empty chromosome", oline, ocol)
            chroms.append(
                Chromosome(CIRCULAR if closer == ")" else LINEAR, genes)
            )
            current = None
            i += 1
            continue
        j = i
        while j < n and text[j] not in " \t\r\n()[]#":
            j += 1
        token = text[i:j]
        if current is None:
            raise ParseError("gene %r outside chromosome" % token, line, col)
        current[1].append(_reference_parse_gene_token(token, line, col))
        col += j - i - 1
        i = j
    if current is not None:
        raise ParseError("unterminated chromosome", current[2], current[3])
    if not chroms:
        raise ParseError("no chromosomes in input", line, max(col, 1))
    return Genome(chroms)


def _parse_outcome(parse, text):
    """The genome parsed from text, or the type, message and position of
    the error raised."""
    try:
        return parse(text)
    except GenomeError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


_SCANNER_ALPHABET = "0123456789-.abc#()[] \t\r\n\x0b\xa0\u0662\u00b2"


@given(st.text(alphabet=_SCANNER_ALPHABET, max_size=24))
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_character_scanner(text):
    assert _parse_outcome(parse_genome, text) == _parse_outcome(_reference_parse_genome, text)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["[]", "()"]),
            st.lists(
                st.tuples(
                    st.sampled_from(["", "-"]),
                    st.sampled_from(["", "0", "00"]),
                    st.integers(min_value=1, max_value=4),
                    st.sampled_from(["", ".a", ".b"]),
                ),
                min_size=1,
                max_size=4,
            ),
        ),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.sampled_from([" ", "\t", "\n", "\r\n", " # note\n"]), min_size=8, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_character_scanner_on_genome_texts(chroms, seps):
    """Mostly well-formed texts, so that valid genomes and the copy rule's
    errors are compared too."""
    text = seps[0].join(
        brackets[0] + seps[1].join("%s%s%d%s" % gene for gene in genes) + brackets[1]
        for brackets, genes in chroms
    ) + seps[2]
    assert _parse_outcome(parse_genome, text) == _parse_outcome(_reference_parse_genome, text)


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("", ("no chromosomes in input", 1, 1)),
        ("  # x", ("no chromosomes in input", 1, 3)),
        ("\n\n", ("no chromosomes in input", 3, 1)),
        ("[01]", None),
        ("[1 2]x", ("gene 'x' outside chromosome", 1, 6)),
        ("[1 2]\t\t[3", ("unterminated chromosome", 1, 8)),
        ("[1 \u00b2]", ("bad gene token '\u00b2'", 1, 4)),
        ("[1 \u0661\u0662]", ("bad gene token '\u0661\u0662'", 1, 4)),
        ("[1\n  -\u0663.a]", ("bad gene token '-\u0663.a'", 2, 3)),
        ("[1 [2]]", ("nested chromosome bracket", 1, 4)),
        ("[1 2)", ("unmatched ')'", 1, 5)),
        ("[1]\n  ()", ("empty chromosome", 2, 3)),
        ("[1 2.c]", ("bad copy suffix in '2.c'", 1, 4)),
        ("(1 -2.ab)", ("bad copy suffix in '-2.ab'", 1, 4)),
        ("[1 2]\n# c\n[3 x.a]", ("bad gene token 'x.a'", 3, 4)),
    ],
)
def test_parse_edge_cases_match_the_character_scanner(text, outcome):
    got = _parse_outcome(parse_genome, text)
    assert got == _parse_outcome(_reference_parse_genome, text)
    if outcome is None:
        assert got == Genome([Chromosome(LINEAR, [Gene(1)])])
    else:
        message, line, column = outcome
        assert got == (ParseError, "line %d, column %d: %s" % (line, column, message), line, column)


_PLAIN_FAULTS = ("-0", "+1", "1_0", "٣", "５", "5-", "--5", "[]", "[ ]",
                 "[1 (2)]", "(1]", "[1 2", " \t\r\n", "\x0b", "\x0c")


def _parse_path_texts():
    """Seeded genome texts in the forms the plain path reads and in the
    forms it leaves to the scanner, each valid and with a fault put in."""
    rng = random.Random(28)
    for seed in range(60):
        n = rng.randint(1, 30)
        s, d = random_cognate_pair(n, True, rng.randint(0, 2 * n), seed)
        for g in (s, d, singularize(d)):  # plain, duplicated and indexed
            text = format_genome(g)
            valid = [
                text,
                text.replace("\n", "\r\n"),
                text.replace(" ", "\t") + "\n",
                text.replace("\n", ""),  # [1 2](3), no space between
                " ".join("0" * rng.randint(1, 2) + t if t[0].isdigit() else t
                         for t in text.split(" ")),  # leading zeros
                "# a comment\n" + text + "  # and one more",
            ]
            yield from valid
            for fault in _PLAIN_FAULTS:
                base = rng.choice(valid)
                at = rng.choice([i for i, c in enumerate(base) if c in " \t])"])
                yield base[:at] + " " + fault + " " + base[at:]
                if fault in ("\x0b", "\x0c"):  # between two genes, alone
                    yield base.replace(" ", fault, 1)
    yield from _PLAIN_FAULTS


def test_plain_parse_path_matches_the_scanner():
    """parse_genome reads a text of digits, '-', brackets and whitespace
    without the token scanner.  Every text the scanner accepts must give
    the same chromosomes, and every text it refuses the same error at the
    same line and column."""
    def scanned(text):
        return Genome(genomes_module._scanned_chromosomes(text))

    covered = Counter()
    for text in _parse_path_texts():
        want = _parse_outcome(scanned, text)
        got = _parse_outcome(parse_genome, text)
        if isinstance(want, Genome):
            assert isinstance(got, Genome) and got.chromosomes == want.chromosomes, text
            _assert_exact_genes(got)
            covered["accepted"] += 1
            covered["plain path"] += genomes_module._plain_chromosomes(text) is not None
            covered["one-gene"] += any(len(ch.genes) == 1 for ch in got.chromosomes)
        else:
            assert got == want, text
            covered[want[0].__name__] += 1
    assert covered["plain path"] >= 600 and covered["accepted"] > covered["plain path"], covered
    assert covered["one-gene"] >= 100 and covered["ParseError"] >= 2000, covered


def _copy_list_error(genes):
    """Reference rule: each gene id's sorted copy list is one of three."""
    copies = {}
    for g in genes:
        copies.setdefault(g.gid, []).append(g.copy)
    for gid, cs in copies.items():
        cs.sort()
        if cs not in ([""], ["", ""], ["a", "b"]):
            return "gene %d occurs with copies %r" % (gid, cs)
    return None


def test_validation_matches_the_copy_list_rule():
    rng = random.Random(11)
    valid = 0
    for _ in range(3000):
        chroms = [
            Chromosome(
                rng.choice((LINEAR, CIRCULAR)),
                [
                    Gene(rng.randint(1, 3), copy=rng.choice(("", "", "a", "b")), rev=rng.random() < 0.5)
                    for _ in range(rng.randint(1, 3))
                ],
            )
            for _ in range(rng.randint(1, 3))
        ]
        genes = [g for ch in sorted(chroms) for g in ch.genes]
        expected = _copy_list_error(genes)
        if expected is None:
            valid += 1
            assert Genome(chroms).chromosomes
        else:
            with pytest.raises(GenomeError) as err:
                Genome(chroms)
            assert str(err.value).startswith(expected + ";"), (expected, err.value)
    assert 100 < valid < 2900


def _reference_is_singular(g):
    return all(n == 1 for n in g.ids.values())


def _reference_is_duplicated(g):
    return all(n == 2 for n in g.ids.values())


def _reference_is_indexed(g):
    return _reference_is_duplicated(g) and all(
        n == 1 and copy in ("a", "b") for (gid, copy), n in g.identities.items()
    )


def _reference_is_identity_singular(g):
    return all(n == 1 for n in g.identities.values())


def _predicates(g):
    return (g.is_singular(), g.is_duplicated(), g.is_indexed(), g.is_identity_singular())


def _reference_predicates(g):
    return (_reference_is_singular(g), _reference_is_duplicated(g),
            _reference_is_indexed(g), _reference_is_identity_singular(g))


def test_predicates_match_the_per_identity_references():
    """The count-based predicates against the per-identity ones they
    replaced: on the valid genomes of the copy-list test's random lists and
    on seeded cognate pairs, plain and singularized."""
    rng = random.Random(11)
    checked = Counter()
    for _ in range(3000):
        chroms = [
            Chromosome(
                rng.choice((LINEAR, CIRCULAR)),
                [
                    Gene(rng.randint(1, 3), copy=rng.choice(("", "", "a", "b")), rev=rng.random() < 0.5)
                    for _ in range(rng.randint(1, 3))
                ],
            )
            for _ in range(rng.randint(1, 3))
        ]
        try:
            g = Genome(chroms)
        except GenomeError:
            continue
        assert _predicates(g) == _reference_predicates(g), g
        checked[_predicates(g)] += 1
    for seed in range(200):
        s, d = random_cognate_pair(1 + seed % 12, seed % 2 == 0, seed % 7, seed)
        built = [s, d] + ([singularize(d)] if d.is_duplicated() else [])
        for g in built:
            assert _predicates(g) == _reference_predicates(g), g
            checked[_predicates(g)] += 1
    # singular, plain duplicated, indexed and each kind of mixed content
    assert len(checked) >= 4, checked


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
        length = rng.randint(1, 9 if trial % 2 else 30)
        ids = list(range(1, rng.randint(1, length) + 1))
        genes = [
            Gene(rng.choice(ids), rev=rng.random() < 0.5, copy=rng.choice(("", "a", "b")))
            for _ in range(length)
        ]
        if trial % 3 == 0 and length >= 2:
            # the least gene twice: a plain pair or an a/b pair
            copies = rng.choice((("", ""), ("a", "b")))
            i, j = rng.sample(range(length), 2)
            genes[i] = Gene(ids[0], rev=rng.random() < 0.5, copy=copies[0])
            genes[j] = Gene(ids[0], rev=rng.random() < 0.5, copy=copies[1])
        elif trial % 3 == 1 and length >= 3:
            # the least (gid, copy) three or more times: the tie branch
            for i in rng.sample(range(length), rng.randint(3, min(length, 6))):
                genes[i] = Gene(ids[0], rev=rng.random() < 0.5)
        genes = tuple(genes)
        for shape in (LINEAR, CIRCULAR):
            got = Chromosome(shape, genes).genes
            assert got == _all_rotations_canonical(shape, genes), (shape, genes)


def test_one_gene_chromosomes_are_canonical():
    for shape, copy, rev in product((LINEAR, CIRCULAR), ("", "a", "b"), (False, True)):
        gene = Gene(5, copy, rev)
        got = Chromosome(shape, [gene]).genes
        assert got == _all_rotations_canonical(shape, (gene,)) == (Gene(5, copy),)
        assert type(got[0]) is Gene


def _assert_exact_genes(genome):
    for ch in genome.chromosomes:
        for g in ch.genes:
            assert type(g) is Gene and type(g.gid) is int, g
            assert type(g.copy) is str and type(g.rev) is bool, g


def _assert_exact_extremities(extremities):
    for e in extremities:
        assert type(e) is Extremity and type(e.gid) is int, e
        assert e.end in ("h", "t") and type(e.copy) is str, e


def test_built_genes_and_extremities_are_exact_instances():
    for seed in range(20):
        s, d = random_cognate_pair(5 + seed, True, 2 + seed, seed=seed)
        parsed = parse_genome(format_genome(d))
        indexed = singularize(parsed)
        for g in (parsed, indexed, indexed.erase_indices(), parse_genome(format_genome(s))):
            _assert_exact_genes(g)
            _assert_exact_extremities(e for a in g.adjacencies for e in a)
            _assert_exact_extremities(g.telomeres)
        rebuilt = genome_from_adjacencies(indexed.adjacencies, indexed.telomeres)
        assert rebuilt == indexed
        _assert_exact_genes(rebuilt)


def test_gene_field_order_is_the_canonical_order():
    assert Gene._fields == ("gid", "copy", "rev")
    assert Gene(3, "a", True) == (3, "a", True)
    assert Gene(2, rev=True) == (2, "", True)
    genes = [Gene(2), Gene(1, "b"), Gene(1, "a", True), Gene(1, "a"), Gene(1, rev=True)]
    assert sorted(genes) == sorted(genes, key=lambda g: (g.gid, g.copy, g.rev))


def _old_chromosome_key(ch):
    return (ch.shape, [(g.gid, g.copy, g.rev) for g in ch.genes])


def test_chromosome_order_matches_the_gene_key_order():
    rng = random.Random(7)
    checked = 0
    for seed in range(60):
        n = rng.randint(2, 40)
        s, d = random_cognate_pair(n, True, rng.randint(0, n), seed=seed)
        for g in (s, d, singularize(d)):
            chroms = list(g.chromosomes)
            rng.shuffle(chroms)
            got = Genome(chroms).chromosomes
            assert list(got) == sorted(chroms, key=_old_chromosome_key)
            checked += len(got) > 1
    assert checked > 60


def test_chromosome_is_its_canonical_shape_and_genes():
    ch = Chromosome(CIRCULAR, [Gene(2, rev=True), Gene(1)])
    pair = (CIRCULAR, (Gene(1), Gene(2, rev=True)))
    assert ch == pair and hash(ch) == hash(pair) and tuple(ch) == pair
    assert len(ch) == 2 and len(ch.genes) == 2
    other = Chromosome(LINEAR, [Gene(3)])
    assert sorted([ch, other]) == sorted([pair, (LINEAR, (Gene(3),))])
    assert (ch < other) == (pair < (LINEAR, (Gene(3),)))
    with pytest.raises(AttributeError):
        ch.genes = pair[1]
    with pytest.raises(AttributeError):
        ch.extra = 1
    assert ch._replace(genes=(Gene(2, rev=True), Gene(1))) == pair
    made = Chromosome._make((LINEAR, [Gene(2), Gene(1)]))
    assert made == Chromosome(LINEAR, [Gene(2), Gene(1)]) != (LINEAR, (Gene(2), Gene(1)))
    with pytest.raises(GenomeError, match="Chromosome values"):
        Genome([pair])
    with pytest.raises(GenomeError, match="Chromosome values"):
        Genome([other, (LINEAR, (Gene(1),))])
    # the generator builds every chromosome canonical: rebuilding one
    # through Chromosome() changes nothing
    rng = random.Random(20)
    for seed in range(200):
        n = rng.randint(1, 30)
        for g in random_cognate_pair(n, seed % 2 == 0, rng.randint(0, 2 * n), seed):
            for ch in g.chromosomes:
                assert type(ch) is Chromosome
                assert ch == Chromosome(ch.shape, ch.genes), (n, seed, ch)


def test_seeded_pairs_are_frozen():
    # sha256 over the formatted outputs, frozen before Gene took its
    # canonical field order; any change to the canonical form or to the
    # generator's random stream moves it
    h = hashlib.sha256()
    for n in range(1, 61):
        for wgd in (False, True):
            for ops in sorted({0, n // 4, n}):
                for g in random_cognate_pair(n, wgd, ops, seed=1000 * n + ops):
                    h.update(format_genome(g).encode() + b"\0")
    assert h.hexdigest() == "038f1a01d26cf5d4ca3ff7de35716bf525c011d82cb226a78b8330b7f24aecc6"


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
        s = parse_genome(text)
        a2, t2, _ = double(s)
        for b in enumerate_resolved_doublings(s):
            assert b.is_indexed()
            erased = b.erase_indices()
            assert erased.adjacencies == a2 and erased.telomeres == t2


def _labeled_occurrence_doublings(s):
    """Reference: the resolved doublings labeled on occurrence sequences, a
    circular chromosome whose layout bit is set read as its genes twice in
    stored order, before the sequences are canonicalized."""
    circulars = [ch for ch in s.chromosomes if ch.shape == CIRCULAR]
    linears = [ch for ch in s.chromosomes if ch.shape == LINEAR]
    gids = sorted(s.ids)
    out = set()
    for layout_bits in product((0, 1), repeat=len(circulars)):
        seqs = [(LINEAR, ch.genes) for ch in linears for _ in range(2)]
        for bit, ch in zip(layout_bits, circulars):
            seqs += [(CIRCULAR, ch.genes * 2)] if bit else [(CIRCULAR, ch.genes)] * 2
        for label_bits in product("ab", repeat=len(gids)):
            first = dict(zip(gids, label_bits))
            seen = set()
            chroms = []
            for shape, genes in seqs:
                labeled = []
                for g in genes:
                    copy = first[g.gid] if g.gid not in seen else {"a": "b", "b": "a"}[first[g.gid]]
                    seen.add(g.gid)
                    labeled.append(Gene(g.gid, copy, g.rev))
                chroms.append(Chromosome(shape, labeled))
            out.add(Genome(chroms))
    return sorted(out, key=lambda g: g.chromosomes)


def test_doublings_match_the_occurrence_labeling():
    circular = 0
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        parts = rng.randint(1, min(3, n))
        circ = rng.randint(0, parts)
        s = random_genome(n, parts - circ, circ, seed)
        assert enumerate_resolved_doublings(s) == _labeled_occurrence_doublings(s), s
        circular += s.o > 0
    assert circular >= 50


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



def _reference_singularize(d):
    """singularize as it was before it trusted d's rotations: relabel each
    chromosome, then canonicalize it again."""
    seen = set()
    chroms = []
    for ch in d.chromosomes:
        relabeled = []
        for gene in ch.genes:
            relabeled.append(Gene(gene.gid, "b" if gene.gid in seen else "a", gene.rev))
            seen.add(gene.gid)
        chroms.append(Chromosome(ch.shape, relabeled))
    return Genome(chroms)


def _assert_canonical(genome):
    for ch in genome.chromosomes:
        assert type(ch) is Chromosome and ch == Chromosome(ch.shape, ch.genes), ch


def test_singularize_builds_canonical_chromosomes():
    """singularize keeps the rotation of a chromosome whose gene ids are
    distinct and builds a one-gene chromosome as its gene read forward;
    each chromosome equals its rebuild and the result the reference's."""
    rng = random.Random(5)
    covered = Counter()
    for seed in range(300):
        n = rng.randint(1, 12)
        occurrences = [gid for gid in range(1, n + 1) for _ in (0, 1)]
        rng.shuffle(occurrences)
        chroms = []
        while occurrences:
            size = min(len(occurrences), rng.choice((1, 1, 2, 3, 5)))
            genes = [Gene(gid, rev=rng.random() < 0.5) for gid in occurrences[:size]]
            del occurrences[:size]
            chroms.append(Chromosome(rng.choice((LINEAR, CIRCULAR)), genes))
            covered["one gene read reversed"] += size == 1 and genes[0].rev
            covered["both copies"] += len({g.gid for g in genes}) < size
        d = Genome(chroms)
        got = singularize(d)
        _assert_canonical(got)
        _assert_exact_genes(got)
        assert got.chromosomes == _reference_singularize(d).chromosomes, d
    assert covered["one gene read reversed"] >= 300 and covered["both copies"] >= 100, covered


def _assert_equals_the_checked_build(g):
    """g, built with no validation, equals the genome that the validating
    constructor builds from its chromosomes, in ids and copies too."""
    checked = Genome(g.chromosomes)
    assert g.chromosomes == checked.chromosomes
    assert type(g.ids) is Counter and g.ids == checked.ids
    assert type(g.copies) is frozenset and g.copies == checked.copies


def test_singularize_builds_the_checked_genome():
    rng = random.Random(29)
    for seed in range(300):
        n = rng.randint(1, 40)
        _, d = random_cognate_pair(n, True, rng.randint(0, 2 * n), seed)
        got = singularize(d)
        _assert_equals_the_checked_build(got)
        assert got.ids is not d.ids


def test_built_genome_guard_counts_the_genes():
    d = parse_genome("(1 2)\n[1 -2]\n(3)\n(3)")
    chroms = list(d.chromosomes)
    assert Genome._built(list(chroms), Counter(d.ids), d.copies) == d
    dropped = [Chromosome(LINEAR, [Gene(1)])] + chroms[1:]
    repeated = chroms + [Chromosome(CIRCULAR, [Gene(3)])]
    for bad in (dropped, repeated):
        with pytest.raises(RuntimeError, match="genes"):
            Genome._built(bad, Counter(d.ids), d.copies)


def test_plain_format_matches_the_chromosome_text():
    """A plain genome is written from its signed ids, any other through
    str: either way the text is each chromosome's str, one a line, and
    parses back to the genome."""
    rng = random.Random(31)
    texts = ("[1]", "(1)", "[-1 2]\n(-3)", "(1 -2 3)\n[4]",
             "[1000000 -1000001]\n(2000000)\n[-3000000 5]",
             "[1 2.a -2.b]\n(3)", "(1 1)\n[-2.b 2.a]")
    cases = [parse_genome(text) for text in texts]
    for seed in range(100):
        n = rng.randint(1, 30)
        s, d = random_cognate_pair(n, seed % 2 == 0, rng.randint(0, 2 * n), seed)
        big = dict(zip(sorted(s.ids), rng.sample(range(10**6, 10**9), n)))
        cases += [s, d, Genome(
            Chromosome(ch.shape, [Gene(big[g.gid], g.copy, g.rev) for g in ch.genes])
            for ch in d.chromosomes)]
        if seed % 2 == 0:  # a duplicated d
            cases.append(singularize(d))
    covered = Counter()
    for g in cases:
        text = format_genome(g)
        assert text == "\n".join(map(str, g.chromosomes))
        assert parse_genome(text) == g
        plain = g.copies == {""}
        covered["plain" if plain else "general"] += 1
        covered["half-indexed"] += len(g.copies) == 3
        for shape, genes in g.chromosomes:
            covered[shape, len(genes) == 1, plain] += 1
            covered["reversed", plain] += any(gene.rev for gene in genes)
            covered["large ids", plain] += max(genes)[0] >= 10**6
    assert min(covered[kind] for kind in (
        "general", "half-indexed", (LINEAR, True, True), (CIRCULAR, True, True),
        ("reversed", True), ("large ids", True))) >= 2, covered
    assert covered["plain"] >= 200, covered


def test_singularize_needs_duplicated():
    with pytest.raises(GenomeError):
        singularize(parse_genome("[1 2]"))


def test_repeated_erasures_keep_no_memory():
    """Singularizing and erasing build every tuple at its final size, so
    nothing piles up in the interpreter's tuple free lists: with the cycle
    collector off, 300 calls grow the allocated blocks by fewer than 30."""
    _, d = random_cognate_pair(16, wgd=True, ops=6, seed=2)
    for _ in range(20):
        singularize(d).erase_indices()
    gc.collect()
    gc.disable()
    try:
        singularize(d).erase_indices()  # refills what the collection emptied
        before = sys.getallocatedblocks()
        for _ in range(300):
            singularize(d).erase_indices()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 30


# === shared values ===


_BOUND = genomes_module._SHARED_IDS


def _fresh_plain_genome(text):
    """The genome of a plain text of one chromosome a line, built by the
    public constructors."""
    return Genome(
        Chromosome(LINEAR if line[0] == "[" else CIRCULAR,
                   [Gene(abs(x), "", x < 0) for x in map(int, line[1:-1].split())])
        for line in text.splitlines()
    )


def _assert_exact_values(genome):
    for ch in genome.chromosomes:
        assert type(ch) is Chromosome and type(ch.genes) is tuple, ch
    _assert_exact_genes(genome)


def _table_sizes():
    tables = genomes_module._GENE_TABLES | {
        ("one gene", copy): table for copy, table in genomes_module._ONE_GENE_TABLES.items()}
    return {name: len(table._values) for name, table in tables.items()}


def test_shared_values_equal_fresh_ones():
    """A parsed plain genome and a singularized one equal the genomes that
    the public constructors build, value for value, with every chromosome
    and gene of its exact type; ids up to the bound are shared and the one
    above it is built fresh."""
    rng = random.Random(41)
    texts = ["(1 -3 2)\n(4)\n[5 -6]", "[5]", "[-5]", "(-5)", "[-7 -8 -9]\n(-10 -11)",
             "[%d]" % _BOUND, "(-%d)" % (_BOUND + 1),
             "[%d -%d]\n(%d)\n[-%d]" % (_BOUND, _BOUND + 1, _BOUND + 1, _BOUND)]
    for seed in range(40):
        n = rng.randint(1, 60)
        s, d = random_cognate_pair(n, seed % 2 == 0, rng.randint(0, 2 * n), seed)
        texts += [format_genome(s), format_genome(d)]
    for text in texts:
        got = parse_genome(text)
        assert got.chromosomes == _fresh_plain_genome(text).chromosomes, text
        _assert_exact_values(got)
    assert parse_genome("[%d]" % _BOUND).chromosomes[0] is parse_genome("[-%d]" % _BOUND).chromosomes[0]
    above = parse_genome("[%d]" % (_BOUND + 1)).chromosomes[0]
    assert above == parse_genome("[%d]" % (_BOUND + 1)).chromosomes[0]
    assert above is not parse_genome("[%d]" % (_BOUND + 1)).chromosomes[0]
    for seed in range(60):
        _, d = random_cognate_pair(1 + seed, True, rng.randint(0, 2 + 2 * seed), seed)
        got = singularize(d)
        assert got.chromosomes == _reference_singularize(d).chromosomes, d
        _assert_exact_values(got)


def test_shared_tables_stay_bounded():
    """A sparse id grows no table, which never has more slots than twice
    the bound, plus one: the genes and chromosomes of a read that holds
    such an id are built fresh."""
    for text in ("(1000000000)\n(1000000000)", "[3 -1000000000]",
                 "(%d)\n[-%d]" % (_BOUND + 1, _BOUND + 1)):
        before = _table_sizes()
        g = parse_genome(text)
        assert g.chromosomes == _fresh_plain_genome(text).chromosomes
        _assert_exact_values(g)
        if g.is_duplicated():
            indexed = singularize(g)
            assert indexed.chromosomes == _reference_singularize(g).chromosomes
            _assert_exact_values(indexed)
        sizes = _table_sizes()
        assert sizes == before and max(sizes.values()) <= 2 * _BOUND + 1, sizes


def test_shared_table_growth_is_safe_across_threads():
    """Threads that read and grow one table at once each get the value of
    every key they ask for, and the table keeps each key's slot: four
    threads on two cores, the interpreter switching every microsecond,
    over 150 fresh tables that each grow from empty to 512 ids."""
    failures = []

    def read(table, seed):
        rng = random.Random(seed)
        for top in range(1, 513, 7):
            keys = [rng.choice((1, -1)) * rng.randint(1, top) for _ in range(6)]
            got = table.take(keys) + [table.one(keys[0])]
            if got != [Gene(abs(x), "a", x < 0) for x in keys + keys[:1]]:
                failures.append((seed, top))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(150):
            table = genomes_module._Shared(
                lambda x: _new(Gene, (abs(x), "a", x < 0)))
            threads = [threading.Thread(target=read, args=(table, 4 * round_ + i))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            values = table._values
            size = len(values) // 2
            assert all(v is None or v == Gene(i if i <= size else len(values) - i, "a", i > size)
                       for i, v in enumerate(values) if i)
    finally:
        sys.setswitchinterval(switch)
    assert not failures, failures[:5]


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
    # the last mixes plain genes with an a/b pair, which _validate accepts
    for text in ("(1 2)\n[3 -4]", "[1 -3 2]", "(1)\n(2)\n[3]", "[1 2.a -3]\n(-2.b 4)"):
        g = parse_genome(text)
        assert genome_from_adjacencies(list(g.adjacencies), list(g.telomeres)) == g


def test_genome_from_adjacencies_rejects_repeats():
    with pytest.raises(GenomeError, match="telomere 1t listed twice"):
        genome_from_adjacencies([(head(1), tail(2))], [tail(1), tail(1), head(2)])
    with pytest.raises(GenomeError, match="extremity 2t used twice"):
        genome_from_adjacencies([(head(1), tail(2)), (head(2), tail(2))], [tail(1)])
    with pytest.raises(GenomeError, match="extremity 1h used twice"):
        genome_from_adjacencies([(head(1), head(1))], [tail(1)])
    with pytest.raises(GenomeError, match="both adjacent and telomeric"):
        genome_from_adjacencies([(head(1), tail(2))], [tail(1), tail(2), head(2)])
    with pytest.raises(GenomeError, match="extremity 2h missing"):
        genome_from_adjacencies([(head(1), tail(2))], [tail(1)])


def _tuple_trace(partner, telomeres, identities):
    """The chromosomes that the extremity map ``partner`` links: a linear
    one from each telomere not yet reached, least first, then a circular
    one from the tail of each (gid, copy) left.  Each is (shape, genes)."""
    used = set()

    def walk(start):
        genes = []
        gid, end, copy = start
        while True:
            used.add((gid, copy))
            genes.append(_new(Gene, (gid, copy, end == HEAD)))
            nxt = partner.get((gid, HEAD if end == TAIL else TAIL, copy))
            if nxt is None:
                return genes
            gid, end, copy = nxt
            if (gid, copy) in used:
                return genes

    chroms = []
    for t in sorted(telomeres):
        if (t[0], t[2]) not in used:
            chroms.append((LINEAR, walk(t)))
    for gid, copy in sorted(identities - used):
        if (gid, copy) not in used:
            chroms.append((CIRCULAR, walk((gid, TAIL, copy))))
    return chroms


def _tuple_genome(adjs, telos):
    """The genome that valid adjacencies and telomeres describe, traced by
    the walk over (gid, end, copy) tuples that the library used before it
    walked integer extremity ids: the reference that keeps the generator
    and extraction tests independent of `genomes._trace`."""
    partner = {}
    for x, y in adjs:
        partner[x] = y
        partner[y] = x
    telomeres = set(telos)
    identities = {(gid, copy) for gid, _, copy in list(partner) + list(telomeres)}
    return Genome(
        Chromosome(shape, genes)
        for shape, genes in _tuple_trace(partner, telomeres, identities)
    )


def _id_partner(g):
    """g's partner map over the integer extremity ids, genes ranked by id."""
    rank = {gid: r for r, gid in enumerate(sorted(g.ids))}
    return genomes_module._id_partners(g, rank, 4 * len(rank)), sorted(g.ids)


def test_trace_matches_the_tuple_walk():
    rng = random.Random(18)
    cases = Counter()
    for seed in range(400):
        n = rng.randint(1, 12)
        if seed % 2:
            s, d = random_cognate_pair(n, True, rng.randint(0, 2 * n), seed)
            g = singularize(d)
        else:
            parts = rng.randint(1, min(3, n))
            circ = rng.randint(0, parts)
            g = random_genome(n, parts - circ, circ, seed)
        indexed = g.is_indexed()
        partner, gids = _id_partner(g)
        # a plain gene reads as copy a, so its ids are 4r and 4r + 2
        ids = range(len(partner)) if indexed else range(0, len(partner), 2)
        got = [
            (shape, [Gene(gids[e >> 2], ("b" if e & 1 else "a") if indexed else "",
                          not e & 2) for e in entries])
            for shape, entries in genomes_module._trace(partner, ids)
        ]
        adj_partner = {}
        for x, y in g.adjacencies:
            adj_partner[x] = y
            adj_partner[y] = x
        # the walks start from the same extremities in the same order
        assert got == _tuple_trace(adj_partner, set(g.telomeres), set(g.identities)), g
        cases["indexed" if indexed else "plain"] += 1
        for shape, genes in got:
            cases[shape] += 1
            cases["one-gene circular"] += shape == CIRCULAR and len(genes) == 1
    assert min(cases.values()) >= 20, cases


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
    a2, t2, _ = double(s)
    erased = d.erase_indices()
    assert erased.adjacencies == a2 and erased.telomeres == t2


@pytest.mark.parametrize("wgd", [True, False])
def test_random_cognate_pair_rejects_bad_arguments(wgd):
    for n in (0, -2):
        with pytest.raises(GenomeError, match="n >= 1, got n=%d" % n):
            random_cognate_pair(n, wgd, 1, seed=1)
    with pytest.raises(GenomeError, match="ops >= 0, got ops=-1"):
        random_cognate_pair(4, wgd, -1, seed=1)


@pytest.mark.parametrize("args, name", [
    ((6, "yes", 2, 1), "wgd"),
    ((6, 1, 2, 1), "wgd"),
    ((6, None, 2, 1), "wgd"),
    ((True, False, 1, 1), "n"),
    ((6.0, True, 2, 1), "n"),
    ((6, True, 2.0, 1), "ops"),
    ((6, False, True, 1), "ops"),
    ((6, True, "2", 1), "ops"),
])
def test_random_cognate_pair_refuses_junk_arguments(args, name):
    """n and ops must be ints and not bools, and wgd a bool; 1 == True and
    2.0 == 2 would otherwise pass the range checks."""
    with pytest.raises(GenomeError, match="^random_cognate_pair needs an? (int|bool) %s, got %s="
                       % (name, name)):
        random_cognate_pair(*args)


@pytest.mark.parametrize("args, name", [
    ((5, True, 0), "linear_count"),
    ((5, 1.0, 0), "linear_count"),
    ((5, 1, False), "circular_count"),
    ((5, 1, "1"), "circular_count"),
    ((True, 1, 0), "n"),
    ((5.0, 1, 0), "n"),
])
def test_random_genome_refuses_junk_arguments(args, name):
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(GenomeError, match="^random_genome needs an int %s, got %s=" % (name, name)):
        random_genome(*args, seed=None, rng=rng)
    assert rng.getstate() == state  # refused before any draw


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


def _nth_move_loop(elems, adjs, r):
    """The row loop _nth_move ran before it found the row with isqrt."""
    last = len(elems) - 1  # row i holds the last - i pairs (elems[i], elems[j > i])
    i = 0
    while i < last and r >= last - i:
        r -= last - i
        i += 1
    if i < last:
        return elems[i], elems[i + 1 + r]
    return ("adjacency", adjs[r]), None  # split into two telomeres


def test_nth_move_unranks_like_the_row_loop():
    rng = random.Random(5000)
    checked = 0
    for trial in range(10000):
        m = rng.randint(0, 5000)
        elems, adjs = range(m), range(rng.randint(0, m))
        pairs = m * (m - 1) // 2
        n_moves = pairs + len(adjs)
        if not n_moves:
            continue
        draws = [rng.randrange(n_moves)]
        if trial % 10 == 0:  # the first and last pair, the first and last split
            draws += [r for r in (0, pairs - 1, pairs, n_moves - 1) if 0 <= r < n_moves]
        for r in draws:
            assert genomes_module._nth_move(elems, adjs, r) == _nth_move_loop(elems, adjs, r), (m, r)
            checked += 1
    assert checked > 10000


def _random_dcj(g: Genome, rng: random.Random) -> Genome:
    """The generator's DCJ as it was, verbatim but for the row-loop
    unranking: one singularized Genome per move, rebuilt whole by the
    tuple walk."""
    work = g if g.is_identity_singular() else singularize(g)
    adjs = sorted(work.adjacencies)
    telos = sorted(work.telomeres)
    elems = [("adjacency", a) for a in adjs] + [("telomere", t) for t in telos]
    m = len(elems)
    n_moves = m * (m - 1) // 2 + len(adjs)
    if not n_moves:
        return g
    first, second = _nth_move_loop(elems, adjs, rng.randrange(n_moves))
    aset = set(adjs)
    tset = set(telos)
    kind1, v1 = first
    (aset if kind1 == "adjacency" else tset).discard(v1)
    ends = list(v1) if kind1 == "adjacency" else [v1]
    if second is not None:
        kind2, v2 = second
        (aset if kind2 == "adjacency" else tset).discard(v2)
        ends += list(v2) if kind2 == "adjacency" else [v2]
        rng.shuffle(ends)
        while ends:
            if len(ends) >= 2 and rng.random() < 0.8:
                aset.add(adjacency(ends.pop(), ends.pop()))
            else:
                tset.add(ends.pop())
    else:
        tset.update(ends)
    res = _tuple_genome(aset, tset)
    return res if g.is_identity_singular() else res.erase_indices()


def _per_move_cognate_pair(n, wgd, ops, seed):
    """random_cognate_pair with D scrambled by _random_dcj, move by move."""
    rng = random.Random(seed)
    parts = rng.randint(1, min(3, n))
    circ = rng.randint(0, parts)
    s = random_genome(n, parts - circ, circ, None, rng=rng)
    if wgd:
        a2, t2, _ = double(s)
        adjs = []
        for b, g in sorted(a2):
            other = "ab" if rng.random() < 0.5 else "ba"
            for c1, c2 in zip("ab", other):
                adjs.append((Extremity(b.gid, b.end, c1), Extremity(g.gid, g.end, c2)))
        telos = []
        for t in sorted(t2):
            telos.append(Extremity(t.gid, t.end, "a"))
            telos.append(Extremity(t.gid, t.end, "b"))
        d = _tuple_genome(adjs, telos).erase_indices()
    else:
        d = s
    for _ in range(ops):
        d = _random_dcj(d, rng)
    return s, d


def test_random_cognate_pair_matches_the_per_move_rebuild():
    rng = random.Random(10)
    cases = Counter()
    for seed in range(1500):
        n = rng.randint(1, 60) if seed % 25 == 0 else rng.randint(1, 8)
        wgd = seed % 2 == 1
        ops = rng.randint(0, 2 * n)
        s, d = random_cognate_pair(n, wgd, ops, seed)
        assert (s, d) == _per_move_cognate_pair(n, wgd, ops, seed), (n, wgd, ops, seed)
        cases["n = 1"] += n == 1
        cases["ops = 0"] += ops == 0
        cases["ops = 2n"] += ops == 2 * n
        cases["n > 30"] += n > 30
        cases["one-gene circular"] += any(
            ch.shape == CIRCULAR and len(ch.genes) == 1 for ch in d.chromosomes
        )
    assert min(cases.values()) >= 10, cases
    # chromosomes of a few hundred genes, where a move rebuilds only part of D
    for n, ops, seed in ((100, 200, 1), (200, 200, 2), (300, 150, 3)):
        assert random_cognate_pair(n, True, ops, seed) == _per_move_cognate_pair(n, True, ops, seed)


def _fresh_labeling(chroms, n_ids):
    """The partner list, copy owners and positions of the chromosomes chroms
    labeled afresh: the ids of `_id_partners`, which labels copies as
    `singularize` does, with -2 for an id that no copy has."""
    g = Genome(chroms)
    part = genomes_module._id_partners(g, range(n_ids // 4), n_ids)
    owner, pos = {}, {}
    for ch in g.chromosomes:
        for p, gene in enumerate(ch.genes):
            v = 4 * gene.gid + (4 * gene.gid in owner)
            owner[v], pos[v] = ch, p
    return [x if e & ~2 in owner else -2 for e, x in enumerate(part)], owner, pos


def test_kept_state_matches_a_fresh_labeling(monkeypatch):
    """After every move, the generator's labeled partner list, copy owners,
    positions and move lists are those of its chromosomes labeled afresh."""
    step = genomes_module._dcj_step
    move_copy = genomes_module._Scramble._move_copy
    cases = Counter()

    def checked_step(d, rng):
        circles = sum(ch.shape == CIRCULAR for ch in d.chroms.values())
        d = step(d, rng)
        chroms = list(d.chroms.values())
        part, owner, pos = _fresh_labeling(chroms, len(d.part))
        assert d.part == part
        kept = {v: s for v, s in enumerate(d.owner) if s >= 0}
        assert {v: d.chroms[s] for v, s in kept.items()} == owner
        assert {v: d.pos[v] for v in kept} == pos
        assert [d.lows[r] for r in range(len(d.lows))] == [x for x, y in enumerate(part) if y > x]
        assert [d.telos[r] for r in range(len(d.telos))] == [x for x, y in enumerate(part) if y == -1]
        cases["moves"] += 1
        cases["a new circle"] += sum(ch.shape == CIRCULAR for ch in chroms) > circles
        cases["one-gene circular"] += any(ch.shape == CIRCULAR and len(ch.genes) == 1
                                          for ch in chroms)
        cases["two equal chromosomes"] += len(set(chroms)) < len(chroms)
        return d

    def counted_move_copy(d, old, new):
        cases["a kept copy relabeled"] += 1
        move_copy(d, old, new)

    monkeypatch.setattr(genomes_module, "_dcj_step", checked_step)
    monkeypatch.setattr(genomes_module._Scramble, "_move_copy", counted_move_copy)
    rng = random.Random(27)
    for seed in range(300):
        n = 1 if seed % 25 == 0 else rng.randint(1, 40 if seed % 5 == 0 else 10)
        ops = 2 * n if seed % 10 == 1 else rng.randint(0, 2 * n)
        random_cognate_pair(n, seed % 3 != 0, ops, seed)
        cases["n = 1"] += n == 1
        cases["ops = 2n"] += ops == 2 * n
    assert min(cases.values()) >= 10, cases


def test_seeded_cognate_stream_is_pinned():
    # sha256 over the formatted outputs, frozen before the scrambling walk
    # moved from one Genome per DCJ onto plain tuples
    rng = random.Random(20261018)
    triples = []
    for seed in range(300):
        n = rng.randint(1, 120)
        triples.append((n, seed % 2 == 0, rng.randint(0, n), seed))
    h = hashlib.sha256()
    for n, wgd, ops, seed in triples + [(400, True, 100, 1), (1000, True, 250, 3)]:
        for g in random_cognate_pair(n, wgd, ops, seed):
            h.update(format_genome(g).encode() + b"\0")
    assert h.hexdigest() == "d5f1f9ff9c5bc3e7468d932a906b98c24df8ce71e1e9e7e2db8c709c952cc439"


def test_random_cognate_pair_checks_each_rebuilt_chromosome(monkeypatch):
    trace = genomes_module._trace

    def gaining_a_gene(*args):
        chroms = trace(*args)
        shape, genes = chroms[0]
        chroms[0] = (shape, genes + genes[:1])
        return chroms

    monkeypatch.setattr(genomes_module, "_trace", gaining_a_gene)
    with pytest.raises(RuntimeError, match="other genes than the ones it cut"):
        random_cognate_pair(4, wgd=False, ops=1, seed=1)


def test_random_cognate_pair_checks_the_scrambled_genome(monkeypatch):
    def duplicating(d, rng):  # a step that adds a copy of a chromosome
        d.chroms[d.serial] = d.chroms[0]
        d.serial += 1
        return d

    monkeypatch.setattr(genomes_module, "_dcj_step", duplicating)
    with pytest.raises(RuntimeError, match="changed its gene content"):
        random_cognate_pair(4, wgd=True, ops=1, seed=1)


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
