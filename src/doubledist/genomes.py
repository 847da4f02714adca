"""Genome model: oriented genes, chromosomes, adjacencies and telomeres.

Genomes are immutable multisets of linear/circular chromosomes over
positive integer gene ids.  A gene occurrence may carry a copy index
(``a``/``b``) in singularized genomes; the empty string means "no index".
Chromosomes are stored in canonical form (lexicographically least among
rotations and reverse complements), so equality and hashing are structural.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter, namedtuple
from functools import cached_property
from itertools import chain, islice, product
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

HEAD = "h"
TAIL = "t"

LINEAR = "linear"
CIRCULAR = "circular"


class GenomeError(ValueError):
    """Invalid genome structure or unsupported operation input."""


class ParseError(GenomeError):
    def __init__(self, message, line, column):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


# Builds a Gene or Extremity from a field tuple, skipping the named tuple's
# Python-level __new__ (about half the cost) on the per-occurrence paths.
_new = tuple.__new__


class Gene(NamedTuple):
    """One gene occurrence: id, copy index ('' if none) and orientation.

    The field order is the canonical gene order: genes compare by id, then
    copy index, then forward before reversed, so plain tuple comparison
    orders genes and gene sequences canonically."""

    gid: int
    copy: str = ""
    rev: bool = False

    def reverse(self) -> "Gene":
        return _new(Gene, (self[0], self[1], not self[2]))

    def erased(self) -> "Gene":
        return _new(Gene, (self[0], "", self[2]))

    def __str__(self) -> str:
        s = ("-" if self.rev else "") + str(self.gid)
        if self.copy:
            s += "." + self.copy
        return s


class Extremity(NamedTuple):
    """A gene extremity: head or tail of one (possibly indexed) gene."""

    gid: int
    end: str  # HEAD or TAIL
    copy: str = ""

    def erased(self) -> "Extremity":
        return _new(Extremity, (self[0], self[1], ""))

    def __str__(self) -> str:
        s = str(self.gid)
        if self.copy:
            s += self.copy
        return s + self.end


# An adjacency is an unordered pair of extremities, stored sorted.
Adjacency = tuple


def adjacency(e1: Extremity, e2: Extremity) -> Adjacency:
    return (e1, e2) if e1 <= e2 else (e2, e1)


def head(gid: int, copy: str = "") -> Extremity:
    return Extremity(gid, HEAD, copy)


def tail(gid: int, copy: str = "") -> Extremity:
    return Extremity(gid, TAIL, copy)


_GID = itemgetter(0)
_COPY = itemgetter(1)  # of a Gene
_GENES = itemgetter(1)  # of a Chromosome
_IDENTITY = itemgetter(0, 1)  # (gid, copy) of a Gene


def _revcomp(genes):
    # from a list: tuple() of a map, which has no length hint, resizes
    return tuple([*map(Gene.reverse, reversed(genes))])


def _canonical_genes(shape, genes):
    """The least of the sequence and its reverse complement if linear; if
    circular, the least of their rotations.  That rotation starts with the
    least gene id and copy read forward, so it starts at an occurrence of
    the least (gid, copy) pair, read in the orientation that shows it
    forward: one candidate per occurrence, and only ties need a ``min``.
    A one-gene chromosome of either shape is its gene read forward."""
    if len(genes) == 1:
        gid, copy, rev = genes[0]
        return (_new(Gene, (gid, copy, False)),) if rev else genes
    if shape == LINEAR:
        first = _IDENTITY(genes[0])
        last = _IDENTITY(genes[-1])
        if first != last:  # the ends decide
            return genes if first < last else _revcomp(genes)
        rc = _revcomp(genes)
        return genes if genes <= rc else rc
    least = min(genes)
    flipped = least.reverse()
    if genes.count(least) + genes.count(flipped) == 1:
        return _rotation(genes, genes.index(least), least.rev)
    return min(
        _rotation(genes, i, g.rev)
        for i, g in enumerate(genes)
        if g == least or g == flipped
    )


def _rotation(genes, i, backward):
    """The circular sequence read from position i, forward or backward."""
    if backward:
        return _revcomp(genes[i + 1 :] + genes[: i + 1])
    return genes[i:] + genes[:i]


class Chromosome(namedtuple("Chromosome", "shape genes")):
    """A linear or circular sequence of gene occurrences, canonicalized: the
    pair (shape, genes), so chromosomes compare, hash and sort as those
    tuples do.  The gene count is ``len(ch.genes)``."""

    __slots__ = ()

    def __new__(cls, shape: str, genes: Iterable[Gene]):
        genes = tuple(genes)
        if shape not in (LINEAR, CIRCULAR):
            raise GenomeError("unknown chromosome shape: %r" % (shape,))
        if not genes:
            raise GenomeError("empty chromosome")
        return _new(cls, (shape, _canonical_genes(shape, genes)))

    @classmethod
    def _make(cls, fields):
        # through __new__, so that _replace canonicalizes too
        return cls(*fields)

    def __repr__(self):
        return "Chromosome(%r, %s)" % (self.shape, list(map(str, self.genes)))

    def __str__(self):
        body = " ".join(str(g) for g in self.genes)
        return "[%s]" % body if self.shape == LINEAR else "(%s)" % body

    def left_extremity(self) -> Extremity:
        gid, copy, rev = self.genes[0]
        return _new(Extremity, (gid, HEAD if rev else TAIL, copy))

    def right_extremity(self) -> Extremity:
        gid, copy, rev = self.genes[-1]
        return _new(Extremity, (gid, TAIL if rev else HEAD, copy))

    def adjacencies(self):
        out = []
        genes = self.genes
        for (agid, acopy, arev), (bgid, bcopy, brev) in zip(genes, genes[1:]):
            x = _new(Extremity, (agid, TAIL if arev else HEAD, acopy))
            y = _new(Extremity, (bgid, HEAD if brev else TAIL, bcopy))
            out.append((x, y) if x <= y else (y, x))
        if self.shape == CIRCULAR:
            out.append(adjacency(self.right_extremity(), self.left_extremity()))
        return out


def linear(*genes) -> Chromosome:
    return Chromosome(LINEAR, [_as_gene(g) for g in genes])


def circular(*genes) -> Chromosome:
    return Chromosome(CIRCULAR, [_as_gene(g) for g in genes])


def _as_gene(g) -> Gene:
    if isinstance(g, Gene):
        return g
    if isinstance(g, int):
        return Gene(abs(g), rev=g < 0) if g != 0 else _bad_gene()
    raise GenomeError("cannot interpret %r as a gene" % (g,))


def _bad_gene():
    raise GenomeError("gene id 0 is not allowed")


class Genome:
    """An immutable multiset of chromosomes with derived adjacency data."""

    # ids (gene id -> occurrences) and copies (the copy indices that occur,
    # "" for a plain occurrence) are counted at construction, for the copy
    # rule; the other derived data is computed when first read
    __slots__ = ("chromosomes", "ids", "copies", "__dict__")

    def __init__(self, chromosomes: Iterable[Chromosome]):
        # a list display takes its list from the interpreter's free list,
        # which list() does not, so repeated builds pile nothing up there
        chroms = [*chromosomes]
        if not chroms:
            raise GenomeError("empty genome")
        for ch in chroms:
            if type(ch) is not Chromosome:
                raise GenomeError("a genome holds Chromosome values, got %r" % (ch,))
        chroms.sort()
        init = object.__setattr__
        init(self, "chromosomes", tuple(chroms))
        init(self, "ids", Counter(map(_GID, self._genes())))
        init(self, "copies", frozenset(map(_COPY, self._genes())))
        self._validate()

    def __setattr__(self, *a):
        raise AttributeError("Genome is immutable")

    def _validate(self):
        """The copy rule, read from the counts: every id once or twice plain,
        or once as a and once as b.  Contents that the counts alone do not
        settle (mixed plain and lettered copies, a bad id or copy index) go
        through the per-identity checks, which name the fault."""
        ids, copies = self.ids, self.copies
        if min(ids) > 0:
            if copies == {""}:
                if max(ids.values()) <= 2:
                    return
            elif copies <= {"a", "b"}:
                # an id has at most an a and a b, so twice as many
                # identities as ids means every id has both
                identities = self.identities
                if max(identities.values()) == 1 and len(identities) == 2 * len(ids):
                    return
        self._check_each_identity()

    def _check_each_identity(self):
        identities = self.identities
        for gid, copy in identities:
            if gid <= 0:
                raise GenomeError("gene ids must be positive, got %d" % gid)
            if copy not in ("", "a", "b"):
                raise GenomeError("bad copy index %r" % (copy,))
        # each id occurs once or twice plain, or once as a and once as b
        for (gid, copy), n in identities.items():
            if copy:
                other = "b" if copy == "a" else "a"
                valid = n == 1 and identities.get((gid, other)) == 1
                valid = valid and (gid, "") not in identities
            else:
                valid = n <= 2 and (gid, "a") not in identities
                valid = valid and (gid, "b") not in identities
            if not valid:
                cs = sorted(c for (i, c), m in identities.items() if i == gid for _ in range(m))
                raise GenomeError(
                    "gene %d occurs with copies %r; expected one plain occurrence, "
                    "two plain occurrences, or an a/b pair" % (gid, cs)
                )

    # -- equality -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Genome) and self.chromosomes == other.chromosomes

    def __hash__(self):
        return hash(self.chromosomes)

    def __repr__(self):
        return "Genome{%s}" % " ".join(str(c) for c in self.chromosomes)

    # -- derived data ---------------------------------------------------

    def _genes(self):
        return chain.from_iterable(map(_GENES, self.chromosomes))

    @cached_property
    def identities(self) -> Counter:
        return Counter(map(_IDENTITY, self._genes()))

    @cached_property
    def adjacencies(self) -> Counter:
        return Counter(chain.from_iterable(ch.adjacencies() for ch in self.chromosomes))

    @cached_property
    def telomeres(self) -> Counter:
        return Counter(
            e
            for ch in self.chromosomes
            if ch.shape == LINEAR
            for e in (ch.left_extremity(), ch.right_extremity())
        )

    @property
    def n_star(self) -> int:
        return sum(len(ch.genes) for ch in self.chromosomes)

    @property
    def chi(self) -> int:
        return sum(1 for ch in self.chromosomes if ch.shape == LINEAR)

    @property
    def o(self) -> int:
        return sum(1 for ch in self.chromosomes if ch.shape == CIRCULAR)

    # -- content classification ----------------------------------------

    def is_singular(self) -> bool:
        return max(self.ids.values()) == 1

    def is_duplicated(self) -> bool:
        return set(self.ids.values()) == {2}

    def is_indexed(self) -> bool:
        """True for singularized duplicated genomes (every gene has an a and a b copy)."""
        # in a valid genome an id that occurs twice, neither time plain, is
        # an a/b pair
        return self.is_duplicated() and "" not in self.copies

    def is_identity_singular(self) -> bool:
        """Each (id, copy) pair occurs once: plain singular or singularized."""
        return max(self.identities.values()) == 1

    def is_doubled(self) -> bool:
        if not self.is_duplicated():
            return False
        erased = self.erase_indices() if self.is_indexed() else self
        return all(n % 2 == 0 for n in erased.adjacencies.values()) and all(
            n % 2 == 0 for n in erased.telomeres.values()
        )

    def erase_indices(self) -> "Genome":
        return Genome(
            Chromosome(ch.shape, [g.erased() for g in ch.genes])
            for ch in self.chromosomes
        )


class PairClass:
    CANONICAL = "canonical"
    ONE_TWO_COGNATE = "one-two-cognate"
    TWO_TWO_COGNATE = "two-two-cognate"
    NOT_COGNATE = "not-cognate"


def classify_pair(g1: Genome, g2: Genome) -> str:
    """Classify a genome pair by gene content (ids, ignoring copy indices)."""
    if g1.ids.keys() != g2.ids.keys():
        return PairClass.NOT_COGNATE
    s1, s2 = g1.is_singular(), g2.is_singular()
    d1, d2 = g1.is_duplicated(), g2.is_duplicated()
    if s1 and s2:
        return PairClass.CANONICAL
    if (s1 and d2) or (s2 and d1):
        return PairClass.ONE_TWO_COGNATE
    if d1 and d2:
        return PairClass.TWO_TWO_COGNATE
    return PairClass.NOT_COGNATE


# -- parsing / formatting ----------------------------------------------


# Whitespace and comments, then one token: a gene in the usual form (sign,
# id digits without leading zeros, copy letter) that ends at a delimiter, an
# opening bracket, a closing bracket, or any other run of non-delimiters.
# The delimiters are " \t\r\n()[]#".  At the end of the text the token
# is empty, with every group empty.  The first match the greedy
# quantifiers try is the only one: the longest skip is always followed by a
# token or the end, and a gene's digits are never followed by a delimiter
# when fewer are.
_SKIP = re.compile(r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*")
_SCAN = re.compile(
    _SKIP.pattern
    + r"(?:(-?)0*([1-9][0-9]*)(?:\.([ab]))?(?![^ \t\r\n()\[\]\#])"
    + r"|([(\[])|([)\]])|([^ \t\r\n()\[\]\#]+)|\Z)"
)


def parse_genome(text: str) -> Genome:
    """Parse the on-disk genome format: one `[..]` or `(..)` group per
    chromosome, whitespace-separated signed ids with optional .a/.b
    suffix, `#` comments."""
    chroms = []
    genes = None  # of the open chromosome
    closer = None  # the bracket that closes it
    opened = 0  # the number of the token that opened it
    for t, (sign, digits, copy, opener, close, other) in enumerate(_SCAN.findall(text)):
        if digits and genes is not None:
            add(_new(Gene, (int(digits), copy, sign == "-")))
        elif opener:
            if genes is not None:
                raise ParseError("nested chromosome bracket", *_token_at(text, t)[1:])
            genes, closer, opened = [], ")" if opener == "(" else "]", t
            add = genes.append
        elif close:
            if close != closer:
                raise ParseError("unmatched %r" % close, *_token_at(text, t)[1:])
            if not genes:
                raise ParseError("empty chromosome", *_token_at(text, opened)[1:])
            chroms.append(Chromosome(CIRCULAR if close == ")" else LINEAR, genes))
            genes = closer = None
        elif digits or other:
            # the scan's gene form is exactly the grammar _parse_gene_token
            # accepts, so this token is an error either way
            token, line, col = _token_at(text, t)
            if genes is None:
                raise ParseError("gene %r outside chromosome" % token, line, col)
            _parse_gene_token(token, line, col)
            raise RuntimeError("scanner and _parse_gene_token disagree on %r" % token)
    if genes is not None:
        raise ParseError("unterminated chromosome", *_token_at(text, opened)[1:])
    if not chroms:
        # only whitespace and comments: the position after the last line's
        # text, or of its comment sign
        last = text[text.rfind("\n") + 1 :]
        col = last.index("#") + 1 if "#" in last else len(last)
        raise ParseError("no chromosomes in input", text.count("\n") + 1, max(col, 1))
    return Genome(chroms)


def _token_at(text, t):
    """Token t of the scan, with its 1-based line and column; a tab counts
    as one column."""
    m = next(islice(_SCAN.finditer(text), t, None))
    start = _SKIP.match(text, m.start()).end()
    line = text.count("\n", 0, start) + 1
    return text[start : m.end()], line, start - text.rfind("\n", 0, start)


def _parse_gene_token(token: str, line: int, col: int) -> Gene:
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
    return _new(Gene, (int(body), copy, rev))


def format_genome(g: Genome) -> str:
    """Inverse of parse_genome up to canonical equality; one chromosome per line."""
    return "\n".join(str(ch) for ch in g.chromosomes)


# -- doubling and singularization ----------------------------------------


def double(s: Genome):
    """Adjacency/telomere multisets of the doubled genome set 2S, plus the
    number of chromosome layouts (2 per circular chromosome)."""
    if not s.is_singular():
        raise GenomeError("double() needs a singular genome")
    a2 = s.adjacencies + s.adjacencies
    t2 = s.telomeres + s.telomeres
    return a2, t2, 2 ** s.o


def singularize(d: Genome) -> Genome:
    """Index a duplicated genome: in canonical traversal order the first
    occurrence of each gene id gets copy a, the second copy b."""
    if not d.is_duplicated():
        raise GenomeError("singularize() needs a duplicated genome")
    if d.is_indexed():
        return d
    seen = set()
    chroms = []
    for shape, genes in d.chromosomes:
        relabeled = []
        for gid, _, rev in genes:
            copy = "b" if gid in seen else "a"
            seen.add(gid)
            relabeled.append(_new(Gene, (gid, copy, rev)))
        chroms.append(Chromosome(shape, relabeled))
    return Genome(chroms)


def genome_from_adjacencies(adjs, telos) -> Genome:
    """Rebuild a genome from adjacency pairs and telomeres over extremities
    that are unique per (id, copy)."""
    partner = {}
    for x, y in adjs:
        if x in partner:
            raise GenomeError("extremity %s used twice" % (x,))
        partner[x] = y
        if y in partner:  # also catches x == y
            raise GenomeError("extremity %s used twice" % (y,))
        partner[y] = x
    telomeres = set()
    for e in telos:
        if e in partner:
            raise GenomeError("extremity %s is both adjacent and telomeric" % (e,))
        if e in telomeres:
            raise GenomeError("telomere %s listed twice" % (e,))
        telomeres.add(e)
    # Plain (gid, end, copy) tuples hash and compare equal to Extremity.
    identities = sorted({(gid, copy) for gid, _, copy in chain(partner, telomeres)})
    for gid, copy in identities:
        for end in (HEAD, TAIL):
            if (gid, end, copy) not in partner and (gid, end, copy) not in telomeres:
                raise GenomeError("extremity %s missing" % (Extremity(gid, end, copy),))
    # identity i is the gene of rank i read as copy a, so its ids are 4i
    # (head) and 4i + 2 (tail)
    base = {identity: 4 * i for i, identity in enumerate(identities)}
    id_partner = [-1] * (4 * len(identities))
    for (xg, xe, xc), (yg, ye, yc) in partner.items():
        id_partner[base[xg, xc] + 2 * (xe == TAIL)] = base[yg, yc] + 2 * (ye == TAIL)
    chroms = []
    for shape, entries in _trace(id_partner, range(0, len(id_partner), 2)):
        genes = []
        for e in entries:
            gid, copy = identities[e >> 2]
            genes.append(_new(Gene, (gid, copy, not e & 2)))
        chroms.append(Chromosome(shape, genes))
    return Genome(chroms)


# -- integer extremity ids ------------------------------------------------
#
# Extremity (gid, end, copy) of the gene of rank r is the id
# 4r + 2[end == "t"] + [copy == "b"]; an extremity with no copy index reads
# as copy a.  So e ^ 2 is the other end of the same gene copy and e >> 2
# its rank, and when the rank rises with gid the ids sort as the
# (gid, end, copy) tuples do.  A partner map gives, for each id, the id of
# the adjacent extremity, or -1 at a telomere.


def _trace(partner, ids):
    """The chromosomes that the id partner map links, over the extremity ids
    ``ids``: a linear one from each telomere not yet reached, in the order of
    ids, then a circular one from each tail left.  Each is (shape, entries),
    one entry per gene: the id of the extremity by which the walk enters
    the gene, so the gene reads reversed when that is its head."""
    used = set()  # both ends of every gene copy walked

    def walk(e):
        entries = []
        while e not in used:
            used.add(e)
            used.add(e ^ 2)
            entries.append(e)
            e = partner[e ^ 2]
            if e < 0:
                break
        return entries

    chroms = [(LINEAR, walk(e)) for e in ids if partner[e] < 0 and e not in used]
    chroms += [(CIRCULAR, walk(e)) for e in ids if e & 2 and e not in used]
    return chroms


def _id_partners(g: Genome, rank, n) -> list:
    """The id partner map of g over n ids, where rank[gid] is the rank of
    gene gid: one reading of the chromosomes that writes each adjacency
    x-y as part[x] = y and part[y] = x.  A gene read forward has its tail
    on the left; a circular chromosome adds the pair that closes it.

    An indexed g keeps its copy letters.  Otherwise the copies are labeled
    as `singularize` labels them, in canonical chromosome order: the first
    occurrence of a gene id is copy a and the second copy b.  Those ids do
    not depend on how the relabeled chromosomes are then written, so a
    duplicated g gives the ids of its singularization."""
    part = [-1] * n
    seen = set() if "" in g.copies else None  # the heads of the copies a read
    for shape, genes in g.chromosomes:
        first = last = -1  # the chromosome's left end, the last gene's right end
        for gid, copy, rev in genes:
            v = 4 * rank[gid]  # copy a's head; the tail is v + 2
            if seen is None:
                v += copy == "b"
            elif v in seen:
                v += 1
            else:
                seen.add(v)
            if rev:
                left, right = v, v + 2
            else:
                left, right = v + 2, v
            if last < 0:
                first = left
            else:
                part[last] = left
                part[left] = last
            last = right
        if shape == CIRCULAR:
            part[last] = first
            part[first] = last
    return part


def _erased_chroms(partner):
    """The chromosomes of an id partner map whose ranks are the gene ids,
    with the copy indices erased."""
    return [
        Chromosome(shape, [_new(Gene, (e >> 2, "", not e & 2)) for e in entries])
        for shape, entries in _trace(partner, partner)
    ]


def enumerate_resolved_doublings(s: Genome):
    """All genomes in S^a_b(2S): every circular-chromosome layout combined
    with every per-gene copy labeling, deduplicated canonically."""
    if not s.is_singular():
        raise GenomeError("enumerate_resolved_doublings() needs a singular genome")
    if s.n_star > 12:
        raise GenomeError("size budget exceeded (n_star %d > 12)" % s.n_star)
    circulars = [ch for ch in s.chromosomes if ch.shape == CIRCULAR]
    linears = [ch for ch in s.chromosomes if ch.shape == LINEAR]
    gids = sorted(s.ids)
    out = set()
    for layout_bits in product((0, 1), repeat=len(circulars)):
        # The chromosomes of the duplicated genome for this layout: two
        # copies of each, or one circle that reads a circular one twice.
        # Labeling each gene's first occurrence with every copy index covers
        # the labelings of every rotation and reversal of the doubled circle.
        doubled = [c for ch in linears for c in (ch, ch)]
        for bit, ch in zip(layout_bits, circulars):
            doubled += [Chromosome(CIRCULAR, ch.genes * 2)] if bit else [ch, ch]
        for label_bits in product("ab", repeat=len(gids)):
            first = dict(zip(gids, label_bits))
            seen = set()
            chroms = []
            for shape, genes in doubled:
                labeled = []
                for g in genes:
                    if g.gid in seen:
                        copy = "b" if first[g.gid] == "a" else "a"
                    else:
                        copy = first[g.gid]
                        seen.add(g.gid)
                    labeled.append(Gene(g.gid, copy, g.rev))
                chroms.append(Chromosome(shape, labeled))
            out.add(Genome(chroms))
    return sorted(out, key=lambda g: g.chromosomes)


# -- DCJ -----------------------------------------------------------------


def _as_cut(cut):
    if isinstance(cut, Extremity):
        return ("telomere", cut)
    if isinstance(cut, (tuple, list)) and len(cut) == 2 and all(
        isinstance(e, Extremity) for e in cut
    ):
        return ("adjacency", adjacency(*cut))
    raise GenomeError("cut must be an adjacency pair or a telomere extremity")


def _resolve_cut(kind, value, adjs, telos):
    """Find the indexed occurrence matching a possibly unindexed cut."""
    pool = adjs if kind == "adjacency" else telos
    if value in pool:
        return value
    if kind == "telomere":
        matches = sorted(e for e in pool if e.erased() == value)
    else:
        want = tuple(sorted(e.erased() for e in value))
        matches = sorted(
            a for a in pool if tuple(sorted(e.erased() for e in a)) == want
        )
    if not matches:
        raise GenomeError("cut %s not found in genome" % (value,))
    return matches[0]


def apply_dcj(g: Genome, cut1, cut2, rejoin) -> Genome:
    """Break two adjacencies/telomeres and rejoin the open ends.

    ``rejoin`` is an iterable of extremity pairs (the new adjacencies);
    open ends not mentioned become telomeres.  On duplicated genomes the
    cut occurrences are selected deterministically via copy indexing.
    """
    indexed = g.is_identity_singular()
    work = g if indexed else singularize(g)
    adjs = set(work.adjacencies)
    telos = set(work.telomeres)

    k1, v1 = _as_cut(cut1)
    k2, v2 = _as_cut(cut2)
    c1 = _resolve_cut(k1, v1, adjs, telos)
    (adjs if k1 == "adjacency" else telos).discard(c1)
    c2 = _resolve_cut(k2, v2, adjs, telos)
    if (k1, c1) == (k2, c2):
        raise GenomeError("the two cuts must be distinct")
    (adjs if k2 == "adjacency" else telos).discard(c2)

    open_ends = set()
    for kind, cut in ((k1, c1), (k2, c2)):
        if kind == "adjacency":
            open_ends.update(cut)
        else:
            open_ends.add(cut)

    used = set()
    for pair in rejoin:
        if len(pair) != 2:
            raise GenomeError("rejoin entries must be extremity pairs")
        e1, e2 = pair
        res = []
        for e in (e1, e2):
            cands = sorted(
                x for x in open_ends - used if x == e or x.erased() == e
            )
            if not cands:
                raise GenomeError("rejoin end %s is not an open end" % (e,))
            used.add(cands[0])
            res.append(cands[0])
        adjs.add(adjacency(*res))
    telos.update(open_ends - used)

    result = genome_from_adjacencies(adjs, telos)
    return result if indexed else result.erase_indices()


# -- random generation ----------------------------------------------------


def _check_count(who, name, value, least):
    """Refuse a count that is not an int (a bool is not one), or, unless
    least is None, is below least."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise GenomeError("%s needs an int %s, got %s=%r" % (who, name, name, value))
    if least is not None and value < least:
        raise GenomeError("%s needs %s >= %d, got %s=%r" % (who, name, least, name, value))


def random_genome(
    n: int,
    linear_count: int,
    circular_count: int,
    seed,
    rng: Optional[random.Random] = None,
) -> Genome:
    """Seeded random singular genome with the requested chromosome counts."""
    _check_count("random_genome", "n", n, None)
    _check_count("random_genome", "linear_count", linear_count, 0)
    _check_count("random_genome", "circular_count", circular_count, 0)
    parts = linear_count + circular_count
    if not (n >= parts >= 1):
        raise GenomeError("need n >= linear_count + circular_count >= 1")
    rng = rng or random.Random(seed)
    genes = [Gene(gid, rev=rng.random() < 0.5) for gid in range(1, n + 1)]
    rng.shuffle(genes)
    cuts = sorted(rng.sample(range(1, n), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [n]
    chroms = []
    for i in range(parts):
        shape = LINEAR if i < linear_count else CIRCULAR
        chroms.append(Chromosome(shape, genes[bounds[i] : bounds[i + 1]]))
    return Genome(chroms)


def _nth_move(elems, adjs, r):
    """Move r of the list that holds every pair (elems[i], elems[j]), i < j,
    in row-major order, then every split (("adjacency", a), None) of an
    adjacency a, without building that list."""
    m = len(elems)
    pairs = m * (m - 1) // 2
    if r >= pairs:
        return ("adjacency", adjs[r - pairs]), None  # split into two telomeres
    # Read from the end of the list, the rows hold 1, 2, 3, ... pairs, so
    # the pair q places before the end lies in the row with j + 1 pairs,
    # for the largest j with j(j + 1)/2 <= q.
    q = pairs - 1 - r
    i = m - 2 - (math.isqrt(8 * q + 1) - 1) // 2
    row_start = i * (m - 1) - i * (i - 1) // 2
    return elems[i], elems[i + 1 + r - row_start]


def _dcj_step(chroms, rng):
    """One random DCJ on a genome held as its sorted list of Chromosomes,
    drawn exactly as on its singularized Genome: copies labeled a/b in
    canonical order, the move drawn from the sorted adjacencies and
    telomeres.  The extremities are ids whose rank is the gene id, so they
    sort as the extremity tuples do.  Only the chromosomes that own a cut
    extremity are walked again; the others are kept as they are."""
    owner = {}  # the head id of each gene copy -> index of its chromosome
    links = []  # each chromosome's labeled adjacencies and telomeres
    adjs, telos = [], []
    for i, (shape, genes) in enumerate(chroms):
        row = []  # the labeled extremities in reading order
        for gid, _, rev in genes:
            v = 4 * gid  # copy a's head
            if v in owner:
                v += 1  # copy b's
            owner[v] = i
            row += (v, v + 2) if rev else (v + 2, v)
        if shape == LINEAR:
            tips, inner = (row[0], row[-1]), iter(row[1:-1])
        else:
            tips, inner = (), iter(row[1:] + row[:1])
        pairs = [(x, y) if x < y else (y, x) for x, y in zip(inner, inner)]
        links.append((pairs, tips))
        adjs += pairs
        telos += tips
    adjs.sort()
    telos.sort()
    elems = [("adjacency", a) for a in adjs] + [("telomere", t) for t in telos]
    m = len(elems)
    n_moves = m * (m - 1) // 2 + len(adjs)
    if not n_moves:
        return chroms
    first, second = _nth_move(elems, adjs, rng.randrange(n_moves))
    kind1, v1 = first
    cut = list(v1) if kind1 == "adjacency" else [v1]
    new_adjs = []  # the cut ends left out become telomeres
    if second is not None:
        kind2, v2 = second
        cut += list(v2) if kind2 == "adjacency" else [v2]
        rng.shuffle(cut)
        ends = list(cut)
        while ends:
            if len(ends) >= 2 and rng.random() < 0.8:
                new_adjs.append((ends.pop(), ends.pop()))
            else:
                ends.pop()

    hit = {owner[e & ~2] for e in cut}
    partner = {}
    for i in hit:
        pairs, tips = links[i]
        for x, y in pairs:
            partner[x] = y
            partner[y] = x
        for e in tips:
            partner[e] = -1
    for e in cut:
        partner[e] = -1
    for x, y in new_adjs:
        partner[x] = y
        partner[y] = x

    rebuilt = _erased_chroms(partner)
    replaced = [chroms[i] for i in hit]
    if _gene_ids(rebuilt) != _gene_ids(replaced):
        raise RuntimeError(
            "a DCJ rebuilt chromosomes with other genes than the ones it cut"
        )
    kept = [ch for i, ch in enumerate(chroms) if i not in hit]
    return sorted(kept + rebuilt)


def _gene_ids(chroms):
    return Counter(g.gid for ch in chroms for g in ch.genes)


def random_cognate_pair(n: int, wgd: bool, ops: int, seed):
    """Seeded (S, D) pair: canonical when wgd is false, [1·2]-cognate when
    true (D starts as a resolved doubling of S with indices erased), then
    scramble D with the requested number of random DCJs."""
    _check_count("random_cognate_pair", "n", n, 1)
    if not isinstance(wgd, bool):
        raise GenomeError("random_cognate_pair needs a bool wgd, got wgd=%r" % (wgd,))
    _check_count("random_cognate_pair", "ops", ops, 0)
    rng = random.Random(seed)
    parts = rng.randint(1, min(3, n))
    circ = rng.randint(0, parts)
    s = random_genome(n, parts - circ, circ, None, rng=rng)
    if wgd:
        a2, t2, _ = double(s)
        partner = {}  # S's extremity x gives the ids x (copy a) and x + 1 (b)
        for (b, g), cnt in sorted(a2.items()):
            if cnt != 2:
                raise RuntimeError("doubled adjacency %s-%s occurs %d times, not 2" % (b, g, cnt))
            x = 4 * b.gid + 2 * (b.end == TAIL)
            y = 4 * g.gid + 2 * (g.end == TAIL)
            flip = 0 if rng.random() < 0.5 else 1  # 1 joins x's copy a to y's b
            partner[x] = y + flip
            partner[y + flip] = x
            partner[x + 1] = y + 1 - flip
            partner[y + 1 - flip] = x + 1
        for t, cnt in sorted(t2.items()):
            if cnt != 2:
                raise RuntimeError("doubled telomere %s occurs %d times, not 2" % (t, cnt))
            x = 4 * t.gid + 2 * (t.end == TAIL)
            partner[x] = partner[x + 1] = -1
        chroms = sorted(_erased_chroms(partner))
        content = s.ids + s.ids
    else:
        chroms = list(s.chromosomes)
        content = s.ids
    for _ in range(ops):
        chroms = _dcj_step(chroms, rng)
    if _gene_ids(chroms) != content:
        raise RuntimeError("scrambling D changed its gene content")
    return s, Genome(chroms)
