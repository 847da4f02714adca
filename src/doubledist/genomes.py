"""Genome model: oriented genes, chromosomes, adjacencies and telomeres.

Genomes are immutable multisets of linear/circular chromosomes over
positive integer gene ids.  A gene occurrence may carry a copy index
(``a``/``b``) in singularized genomes; the empty string means "no index".
Chromosomes are stored in canonical form (lexicographically least among
rotations and reverse complements), so equality and hashing are structural.

Gene values and one-gene chromosomes are shared immutable objects: the
parser, `singularize` and `reduction.extract_genomes` take each one, for
gene ids up to 2**16, from a dict that builds it when first read and keeps
only the ids read (`_Shared`), and build larger ids fresh.  Both are tuple
subclasses, which CPython's cycle collector keeps tracked for life (it
untracks only exact tuples of atoms), so sharing them spares the
allocations and every older-generation collection the tracing of their
repeats.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_right
from collections import Counter, namedtuple
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, islice, product
from operator import add, gt, itemgetter
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
    orders genes and gene sequences canonically.

    A gene is immutable and equal to any gene of the same fields, so the
    library shares them: for an int id up to 2**16 and a copy index of "",
    "a" or "b", its readers and builders return the one value that a table
    built when the id was first read (see `_Shared`).  As a tuple subclass
    a gene stays tracked by the cycle collector for life, so each repeat
    would be traced again by every older-generation collection."""

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
_PLAIN = frozenset([""])  # the copies of a plain genome
_INDEXED = frozenset(["a", "b"])  # the copies of an indexed genome
_INT = frozenset([int])  # the types of a genome's ids


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
        try:
            genes = _canonical_genes(shape, genes)
        except TypeError:  # ids that do not order, a str beside an int
            _refuse_ids(gene[0] for gene in genes if type(gene) is Gene)
            raise
        return _new(cls, (shape, genes))

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


# -- shared values -------------------------------------------------------
#
# A gene, and a one-gene chromosome read forward, is fully determined by
# its fields, so it is shared as CPython shares small ints (see the module
# docstring).  The tables hold such values only, nothing keyed by an input,
# and are empty until first read.

# The largest gene id whose values are shared; larger ids are built fresh.
_SHARED_IDS = 1 << 16


class _Shared(dict):
    """A table of shared values: key g holds make(g) and key -g make(-g),
    each built when first read.  Only the int keys within the bound,
    -_SHARED_IDS <= key <= _SHARED_IDS, are kept, so the table holds just
    the ids read, and at most 2 * _SHARED_IDS = 131,072 values: about 21 MB
    (tracemalloc, Python 3.11) when every key of a gene table is built.
    Any other key is built fresh by make on each read; a float equal to an
    int key, kept, would hand its value to that key.  Two threads that miss
    one key at once may each build its value; the values are equal, and
    the table keeps one."""

    __slots__ = ("_make",)

    def __init__(self, make):
        self._make = make

    def __missing__(self, key):
        value = self._make(key)
        if type(key) is int and -_SHARED_IDS <= key <= _SHARED_IDS:
            self[key] = value
        return value

    def take(self, keys):
        """The values of a sequence of nonzero int keys, as a new list."""
        return [*map(self.__getitem__, keys)]

    one = dict.__getitem__  # the value of one nonzero int key


def _fresh_gene(copy, x):
    """Gene |x| with copy index copy, reversed when x < 0."""
    return _new(Gene, (abs(x), copy, x < 0))


def _fresh_one_gene(copy, x):
    """The chromosome of gene |x| with copy index copy, read forward:
    circular when x > 0, linear when x < 0."""
    return _new(Chromosome, (CIRCULAR if x > 0 else LINEAR,
                             (_GENE_TABLES[copy].one(abs(x)),)))


# copy index -> its genes, keyed by the signed gene id (-g reads gene g
# reversed)
_GENE_TABLES = {copy: _Shared(partial(_fresh_gene, copy)) for copy in ("", "a", "b")}
# copy index -> its one-gene chromosomes, keyed by the gene id, negated for
# the linear one
_ONE_GENE_TABLES = {copy: _Shared(partial(_fresh_one_gene, copy)) for copy in ("", "a", "b")}


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


def _refuse_ids(gids):
    """Raise GenomeError naming the first of the gene ids gids that is not
    an int; return when there is none."""
    for gid in gids:
        if type(gid) is not int:
            raise GenomeError("gene ids must be ints, got %r" % (gid,))


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
        # The type of every occurrence's id, before the sort, which cannot
        # order a str id beside an int one.  ids counts by equality and keeps
        # the first of equal keys, so its keys alone would pass a True read
        # after a 1, or 5.0 after 5.
        gids = [*map(_GID, chain.from_iterable(map(_GENES, chroms)))]
        if set(map(type, gids)) != _INT:
            _refuse_ids(gids)
        self._fill(chroms)

    @classmethod
    def _of_int_ids(cls, chroms):
        """The genome of a nonempty list of Chromosome values whose gene ids
        are ints, as `int` makes them: the parsers' constructor.  It checks
        the copy rule, as the constructor does, and not the types, which
        cost a test per gene occurrence."""
        g = cls.__new__(cls)
        g._fill(chroms)
        return g

    def _fill(self, chroms):
        """Set the slots from the list chroms, sorted in place, and check
        the copy rule."""
        chroms.sort()
        init = object.__setattr__
        init(self, "chromosomes", tuple(chroms))
        init(self, "ids", Counter(map(_GID, self._genes())))
        init(self, "copies", frozenset(map(_COPY, self._genes())))
        self._validate()

    @classmethod
    def _built(cls, chroms, ids, copies):
        """The genome of a list of canonical chromosomes whose content the
        caller built valid, with no validation: ids is the Counter that
        counting would give (the genome then owns it), copies the frozenset.
        A count guards the build instead: the chromosomes must hold
        sum(ids.values()) genes, or RuntimeError is raised."""
        genes = sum(map(len, map(_GENES, chroms)))
        if genes != sum(ids.values()):
            raise RuntimeError("a built genome holds %d genes, its ids count %d"
                               % (genes, sum(ids.values())))
        chroms.sort()
        g = cls.__new__(cls)
        init = object.__setattr__
        init(g, "chromosomes", tuple(chroms))
        init(g, "ids", ids)
        init(g, "copies", copies)
        return g

    def __setattr__(self, *a):
        raise AttributeError("Genome is immutable")

    def _validate(self):
        """The copy rule, read from the counts: every id once or twice plain,
        or once as a and once as b.  Contents that the counts alone do not
        settle (mixed plain and lettered copies, a bad id or copy index) go
        through the per-identity checks, which name the fault.  The ids are
        ints by now: a bool or a float would print as itself, and equal ids
        share the gene values of `_Shared`'s tables, so the constructor
        refuses them."""
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


# One token of a genome text: a comment, a bracket, or a run of
# non-delimiters.  The delimiters are " \t\r\n()[]#", and the whitespace
# among them, which no token holds, is what `finditer` skips.
_TOKEN = re.compile(r"\#[^\n]*|[()\[\]]|[^ \t\r\n()\[\]\#]+")
# The gene-token grammar: sign, ASCII id digits that are not all 0, copy
# letter.
_GENE = re.compile(r"(-?)0*([1-9][0-9]*)(?:\.([ab]))?")


# The characters of a plain text: one with no comment and no copy letter.
_NOT_PLAIN = re.compile(r"[^0-9()\[\] \t\r\n-]")
_BRACKET = re.compile(r"([()\[\]])")
_SHAPES = {"()": CIRCULAR, "[]": LINEAR}


def parse_genome(text: str) -> Genome:
    """Parse the on-disk genome format: one `[..]` or `(..)` group per
    chromosome, whitespace-separated signed ids with optional .a/.b
    suffix, `#` comments.  A text with no comment and no copy letter is
    read by `_plain_chromosomes`; any other, or one that it finds faulty,
    by `_scanned_chromosomes`, the grammar's reference, which names the
    fault."""
    chroms = None if _NOT_PLAIN.search(text) else _plain_chromosomes(text)
    # both readers take every id from int()
    return Genome._of_int_ids(_scanned_chromosomes(text) if chroms is None else chroms)


def _plain_chromosomes(text):
    """The chromosomes of a text made only of ASCII digits, `-`, brackets
    and whitespace, read with no Python code per token; None when it is
    not a well-formed genome text, so that `_scanned_chromosomes` names
    the fault.  Every genome text that the library writes without copy
    letters is read here.

    One split at the brackets gives gap, opener, body, closer, ..., gap.
    The grammar is unchanged: the gaps must be whitespace, each bracket
    pair match, and each body hold at least one token.  Over these
    characters `int` accepts exactly the tokens -?[0-9]+, so with 0
    refused it accepts the gene tokens of `_GENE` that have no copy
    letter, leading zeros included.

    The genes, and the one-gene chromosomes, are the shared values of the
    tables (see `_Shared`): a signed id is a key of the gene table, and a
    read keeps only its ids up to 2**16."""
    parts = _BRACKET.split(text)
    if len(parts) % 4 != 1 or "".join(parts[::4]).strip():
        return None
    genes = _GENE_TABLES[""]
    chroms = []
    singles = []  # the keys of the one-gene chromosomes
    for brackets, body in zip(map(add, parts[1::4], parts[3::4]), parts[2::4]):
        shape = _SHAPES.get(brackets)
        try:
            ids = [*map(int, body.split())]
        except ValueError:
            return None
        if shape is None or not ids or 0 in ids:
            return None
        if len(ids) == 1:  # canonical: its gene read forward
            gid = abs(ids[0])
            singles.append(gid if shape == CIRCULAR else -gid)
        else:
            chroms.append(Chromosome(shape, genes.take(ids)))
    if singles:
        chroms += _ONE_GENE_TABLES[""].take(singles)
    return chroms or None


def _scanned_chromosomes(text):
    """The chromosomes of any text: the grammar's reference, which reads
    one token at a time and raises ParseError naming every fault at its
    1-based line and column (a tab counts as one column)."""
    chroms = []
    genes = None  # of the open chromosome
    closer = None  # the bracket that closes it
    opened = 0  # the offset of the bracket that opened it
    for m in _TOKEN.finditer(text):
        token = m[0]
        if token[0] == "#":
            continue
        if token in ("(", "["):
            if genes is not None:
                raise ParseError("nested chromosome bracket", *_position(text, m.start()))
            genes, closer, opened = [], ")" if token == "(" else "]", m.start()
        elif token in (")", "]"):
            if token != closer:
                raise ParseError("unmatched %r" % token, *_position(text, m.start()))
            if not genes:
                raise ParseError("empty chromosome", *_position(text, opened))
            chroms.append(Chromosome(CIRCULAR if token == ")" else LINEAR, genes))
            genes = closer = None
        elif genes is None:
            raise ParseError("gene %r outside chromosome" % token, *_position(text, m.start()))
        else:
            gene = _GENE.fullmatch(token)
            if gene is None:
                _, dot, copy = token.partition(".")
                if dot and copy not in ("a", "b"):
                    raise ParseError("bad copy suffix in %r" % token, *_position(text, m.start()))
                raise ParseError("bad gene token %r" % token, *_position(text, m.start()))
            sign, digits, copy = gene.groups("")
            genes.append(_new(Gene, (int(digits), copy, sign == "-")))
    if genes is not None:
        raise ParseError("unterminated chromosome", *_position(text, opened))
    if not chroms:
        # only whitespace and comments: the position after the last line's
        # text, or of its comment sign
        last = text[text.rfind("\n") + 1 :]
        col = last.index("#") + 1 if "#" in last else len(last)
        raise ParseError("no chromosomes in input", text.count("\n") + 1, max(col, 1))
    return chroms


def _position(text, offset):
    """The 1-based line and column of an offset into text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def format_genome(g: Genome) -> str:
    """Inverse of parse_genome up to canonical equality; one chromosome per
    line.  A plain genome is written from its signed ids, the text that
    `str` of each chromosome gives; any other through `str`."""
    if g.copies != _PLAIN:
        return "\n".join(map(str, g.chromosomes))
    lines = []
    for shape, genes in g.chromosomes:
        if len(genes) == 1:  # canonical: its gene read forward
            lines.append(("(%d)" if shape == CIRCULAR else "[%d]") % genes[0][0])
        else:
            body = " ".join(map(str, [-gid if rev else gid for gid, _, rev in genes]))
            lines.append(("(%s)" if shape == CIRCULAR else "[%s]") % body)
    return "\n".join(lines)


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
    occurrence of each gene id gets copy a, the second copy b.

    Every relabeled chromosome keeps d's reading, which stays canonical.
    Proof, when its gene ids are distinct: each id gets one letter, so the
    relabeling maps every gene (gid, "", rev) to (gid, f(gid), rev) for
    one function f.  Two such genes compare as before: by gid when the ids
    differ, else, with equal letters, by rev.  The map also commutes with
    rotation and reverse complement, so it keeps the order of the
    chromosome's readings, and the least of them, d's canonical one, stays
    least.

    When it holds both copies of a gene: a circular one's canonical
    reading starts with its least gene (g0, "", False).  That occurrence
    becomes (g0, a, False), or (g0, b, False) when g0's other copy lies in
    an earlier chromosome; either way no other gene of the relabeled
    chromosome has as small an id and copy, so one reading starts there,
    the one that shows it forward, and that reading is d's.  A linear one
    whose ends have different ids is decided by the ids, as in d.  If both
    ends have the same id, they are the two copies of that gene: the left
    end becomes a and the right end b, so the ends decide in favour of the
    reading as it stands.

    The relabeled genes, and the one-gene chromosomes, are the shared
    values of the tables (see `_Shared`), which keep only d's ids up to
    2**16."""
    if not d.is_duplicated():
        raise GenomeError("singularize() needs a duplicated genome")
    if d.is_indexed():
        return d
    a_gene = _GENE_TABLES["a"].one
    b_gene = _GENE_TABLES["b"].one
    a_single = _ONE_GENE_TABLES["a"].one
    b_single = _ONE_GENE_TABLES["b"].one
    seen = set()
    chroms = []
    for shape, genes in d.chromosomes:
        if len(genes) == 1:  # read forward, as d's genes are canonical
            gid = genes[0][0]
            key = gid if shape == CIRCULAR else -gid
            if gid in seen:
                chroms.append(b_single(key))
            else:
                seen.add(gid)
                chroms.append(a_single(key))
            continue
        relabeled = []
        for gid, _, rev in genes:
            key = -gid if rev else gid
            if gid in seen:
                relabeled.append(b_gene(key))
            else:
                seen.add(gid)
                relabeled.append(a_gene(key))
        chroms.append(_new(Chromosome, (shape, tuple(relabeled))))
    return Genome._built(chroms, Counter(d.ids), _INDEXED)


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


# _SortedIds counts its items per block of 1 << _BLOCK ids: 16 whole genes.
_BLOCK = 6


class _SortedIds:
    """The adjacency low ends (the ids x with part[x] > x) or the telomeres
    (part[x] == -1) of a partner list, in ascending order, as a sequence.
    Since each id lies in at most one adjacency or telomere, these are the
    sorted adjacency and telomere lists read off by their least ids.  It
    keeps a count per block of ids and reads an item off its block.
    Relabeling a gene's copies moves ids only within the gene, so only a
    DCJ's own cuts and joins change a count, through ``add``."""

    __slots__ = ("part", "telomeres", "counts", "size")

    def __init__(self, part, telomeres):
        self.part = part
        self.telomeres = telomeres
        self.counts = [sum(self._flags(lo)) for lo in range(0, len(part), 1 << _BLOCK)]
        self.size = sum(self.counts)

    def _flags(self, lo):
        """Whether each id of the block that starts at lo is an item."""
        block = self.part[lo : lo + (1 << _BLOCK)]
        if self.telomeres:
            return map((-1).__eq__, block)
        return map(gt, block, range(lo, lo + len(block)))

    def add(self, x, step):
        self.counts[x >> _BLOCK] += step
        self.size += step

    def __len__(self):
        return self.size

    def __getitem__(self, r):
        prefix = list(accumulate(self.counts))
        b = bisect_right(prefix, r)
        if b:
            r -= prefix[b - 1]
        lo = b << _BLOCK
        return next(islice(compress(count(lo), self._flags(lo)), r, None))


class _Elems:
    """Every adjacency, then every telomere, as the items ("adjacency", x)
    for low end x and ("telomere", x): the move list's element order."""

    __slots__ = ("lows", "telos")

    def __init__(self, lows, telos):
        self.lows = lows
        self.telos = telos

    def __len__(self):
        return self.lows.size + self.telos.size

    def __getitem__(self, i):
        n = self.lows.size
        return ("adjacency", self.lows[i]) if i < n else ("telomere", self.telos[i - n])


class _Scramble:
    """A genome being scrambled, held between two moves as its singularized
    Genome would label it: copies a/b in canonical chromosome order, the
    gene id as the rank.

    ``chroms`` maps a serial number to each chromosome, erased.  ``part`` is
    the partner list over the ids 4·gid + 2·[tail] + [copy b]: a telomere
    reads -1 and an id that no copy has reads -2.  For the head id v of each
    copy, ``owner[v]`` is the serial of its chromosome and ``pos[v]`` its
    position there.  ``lows`` and ``telos`` count the adjacency low ends and
    the telomeres of ``part``."""

    __slots__ = ("chroms", "part", "owner", "pos", "serial", "lows", "telos", "elems")

    def __init__(self, chroms, n_ids):
        self.chroms = {}
        self.part = [-2] * n_ids
        self.owner = [-1] * n_ids
        self.pos = [0] * n_ids
        self.serial = 0
        for ch in sorted(chroms):
            self.place(ch, {-1}, 0)
        self.lows = _SortedIds(self.part, False)
        self.telos = _SortedIds(self.part, True)
        self.elems = _Elems(self.lows, self.telos)

    def place(self, ch, unplaced, base):
        """Add chromosome ch under the next serial and write its copies.  The
        chromosomes placed from serial base on come after those kept from
        before, in the order placed; a copy whose owner is in unplaced is on
        a chromosome not placed yet.  So an occurrence is copy a unless the
        gene's other copy comes first: placed before it, or kept on a lesser
        chromosome (an equal one counts as first).  A kept copy that holds the
        slot an occurrence takes moves to the other slot."""
        serial = self.serial
        self.serial += 1
        self.chroms[serial] = ch
        chroms, part, owner, pos = self.chroms, self.part, self.owner, self.pos
        ahead = {}  # kept serial x -> whether ch comes before chromosome x
        shape, genes = ch
        first = last = -1  # the first gene's left end, the last gene's right end
        for p, (gid, _, rev) in enumerate(genes):
            v = 4 * gid
            x = owner[v]
            if x >= base:  # copy a was placed before this occurrence
                v += 1
            else:
                slot = 0  # of the gene's other copy
                if x in unplaced:
                    x = owner[v + 1]
                    slot = 1
                if x not in unplaced:  # the other copy is kept, on chromosome x
                    before = ahead.get(x)
                    if before is None:
                        before = ahead[x] = ch < chroms[x]
                    if before != slot:  # the kept copy holds the slot this one takes
                        self._move_copy(v + slot, v + 1 - slot)
                    if not before:
                        v += 1
            owner[v] = serial
            pos[v] = p
            if rev:
                left = v
                right = v + 2
            else:
                left = v + 2
                right = v
            if p:
                part[last] = left
                part[left] = last
            else:
                first = left
            last = right
        if shape == CIRCULAR:
            part[last] = first
            part[first] = last
        else:
            part[first] = part[last] = -1

    def _move_copy(self, old, new):
        """Relabel the copy with head id old as new, on its own chromosome."""
        part = self.part
        for end in (0, 2):
            y = part[old + end]
            part[new + end] = y
            if y >= 0:
                part[y] = new + end
        self.owner[new] = self.owner[old]
        self.pos[new] = self.pos[old]


def _dcj_step(d, rng):
    """One random DCJ on a _Scramble, drawn exactly as on its singularized
    Genome: the move list holds the adjacencies sorted, then the telomeres
    sorted, and the extremity ids sort as the extremity tuples do.  Each
    chromosome that owns a cut end is cut into its slices between the cuts,
    the slices are joined as the move says, and only the new chromosomes'
    genes are labeled again."""
    part, owner, pos, lows, telos = d.part, d.owner, d.pos, d.lows, d.telos
    m = lows.size + telos.size
    n_moves = m * (m - 1) // 2 + lows.size
    if not n_moves:
        return d
    first, second = _nth_move(d.elems, lows, rng.randrange(n_moves))
    cut = []
    for kind, x in (first,) if second is None else (first, second):
        if kind == "adjacency":
            lows.add(x, -1)
            cut += (x, part[x])
        else:
            telos.add(x, -1)
            cut.append(x)
    joined = {}  # the new adjacencies; the cut ends left out become telomeres
    if second is None:
        ends = cut
    else:
        ends = []
        rng.shuffle(cut)
        left = list(cut)
        while left:
            if len(left) >= 2 and rng.random() < 0.8:
                x, y = left.pop(), left.pop()
                joined[x] = y
                joined[y] = x
                lows.add(min(x, y), 1)
            else:
                ends.append(left.pop())
    for e in ends:
        telos.add(e, 1)

    # each cut chromosome's cut ends, by the boundary they stand at: a piece
    # starts at p with the left end of gene p and stops at p + 1 with its right end
    cuts = {}
    for e in cut:
        v = e & ~2
        p = pos[v]
        s = owner[v]
        if s not in cuts:
            cuts[s] = ({}, {})
        starts, stops = cuts[s]
        if (e & 2 == 0) != d.chroms[s].genes[p][2]:
            stops[p + 1] = e
        else:
            starts[p] = e
    # the slices between the cuts, each a gene with head 4q and tail 4q + 2
    # to _trace; end[e] is the piece end that cut end e is
    pieces = []
    end = {}
    for serial, (starts, stops) in cuts.items():
        ch = d.chroms.pop(serial)
        genes = ch.genes
        n = len(genes)
        if ch.shape == CIRCULAR:  # read it as a line from a cut
            b0 = min(starts)
            genes = genes[b0:] + genes[:b0]
            starts = {(b - b0) % n: e for b, e in starts.items()}
            stops = {(b - b0 - 1) % n + 1: e for b, e in stops.items()}
        bounds = sorted({0, n, *starts, *stops})
        for lo, hi in zip(bounds, bounds[1:]):
            q = 4 * len(pieces)
            pieces.append(genes[lo:hi])
            if lo in starts:
                end[starts[lo]] = q + 2
            if hi in stops:
                end[stops[hi]] = q
    ppart = [-1] * (4 * len(pieces))
    for e, t in end.items():
        if e in joined:
            ppart[t] = end[joined[e]]
    traced = _trace(ppart, range(0, len(ppart), 2))
    # the slices partition the cut chromosomes, so the new ones hold the
    # genes cut exactly when they use each slice once
    if sorted(t >> 2 for _, entries in traced for t in entries) != list(range(len(pieces))):
        raise RuntimeError(
            "a DCJ rebuilt chromosomes with other genes than the ones it cut"
        )
    rebuilt = []
    for shape, entries in traced:
        if shape == LINEAR:
            # read it from the end with the lesser gene id, where its
            # canonical form starts, so that Chromosome turns it round only
            # when both ends are the same gene
            t, u = entries[0], entries[-1]
            if pieces[t >> 2][0 if t & 2 else -1][0] > pieces[u >> 2][-1 if u & 2 else 0][0]:
                entries = [t ^ 2 for t in reversed(entries)]
        genes = []
        for t in entries:
            genes += pieces[t >> 2] if t & 2 else _revcomp(pieces[t >> 2])
        rebuilt.append(Chromosome(shape, genes))
    base = d.serial
    unplaced = {-1, *cuts}
    for ch in sorted(rebuilt):
        d.place(ch, unplaced, base)
    return d


def _gene_ids(chroms):
    """How often each gene id occurs in chroms, as a plain dict: a Counter
    compares through a Python-level generator."""
    return dict(Counter(map(_GID, chain.from_iterable(map(_GENES, chroms)))))


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
        # S's id partner map, its gene ids as the ranks: S's extremity x
        # gives D the ids x (copy a) and x + 1 (copy b), telomeres at both
        s_part = _id_partners(s, range(n + 1), 4 * (n + 1))
        part = [-1] * len(s_part)
        for x in range(4, len(s_part), 2):  # the adjacencies x-y in sorted order
            y = s_part[x]
            if y > x:
                flip = 0 if rng.random() < 0.5 else 1  # 1 joins x's copy a to y's b
                part[x] = y + flip
                part[y + flip] = x
                part[x + 1] = y + 1 - flip
                part[y + 1 - flip] = x + 1
        # the doubled chromosomes, with the copy indices erased
        chroms = [
            Chromosome(shape, [_new(Gene, (e >> 2, "", not e & 2)) for e in entries])
            for shape, entries in _trace(part, range(4, len(part)))
        ]
        content = s.ids + s.ids
    else:
        chroms = s.chromosomes
        content = s.ids
    d = _Scramble(chroms, 4 * (n + 1))
    for _ in range(ops):
        d = _dcj_step(d, rng)
    chroms = d.chroms.values()
    if _gene_ids(chroms) != dict(content):
        raise RuntimeError("scrambling D changed its gene content")
    return s, Genome(chroms)
