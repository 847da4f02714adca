"""Genome model: oriented genes, chromosomes, adjacencies and telomeres.

Genomes are immutable multisets of linear/circular chromosomes over
positive integer gene ids.  A gene occurrence may carry a copy index
(``a``/``b``) in singularized genomes; the empty string means "no index".
Chromosomes are stored in canonical form (lexicographically least among
rotations and reverse complements), so equality and hashing are structural.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property
from itertools import product
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


class Gene(NamedTuple):
    """One gene occurrence: id, orientation and copy index ('' if none)."""

    gid: int
    rev: bool = False
    copy: str = ""

    def reverse(self) -> "Gene":
        return Gene(self.gid, not self.rev, self.copy)

    def erased(self) -> "Gene":
        return Gene(self.gid, self.rev, "")

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

    def identity(self):
        return (self.gid, self.copy)

    def erased(self) -> "Extremity":
        return Extremity(self.gid, self.end, "")

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


def _gene_sort_key(g: Gene):
    return (g.gid, g.copy, g.rev)


def _revcomp(genes):
    return tuple(g.reverse() for g in reversed(genes))


def _seq_key(genes):
    return [_gene_sort_key(g) for g in genes]


def _canonical_genes(shape, genes):
    """Least candidate by `_seq_key`: the sequence or its reverse complement
    if linear; if circular, the rotations of either orientation that start
    at the least gene key, where the least rotation must start (a valid
    genome holds each key at most twice, so there are at most four)."""
    candidates = (genes, _revcomp(genes))
    if shape == CIRCULAR:
        keys = [_seq_key(seq) for seq in candidates]
        least = min(min(key) for key in keys)
        candidates = [
            seq[i:] + seq[:i]
            for seq, key in zip(candidates, keys)
            for i, x in enumerate(key)
            if x == least
        ]
    return min(candidates, key=_seq_key)


class Chromosome:
    """A linear or circular sequence of gene occurrences, canonicalized."""

    __slots__ = ("shape", "genes")

    def __init__(self, shape: str, genes: Iterable[Gene]):
        genes = tuple(genes)
        if shape not in (LINEAR, CIRCULAR):
            raise GenomeError("unknown chromosome shape: %r" % (shape,))
        if not genes:
            raise GenomeError("empty chromosome")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "genes", _canonical_genes(shape, genes))

    def __setattr__(self, *a):
        raise AttributeError("Chromosome is immutable")

    def sort_key(self):
        return (self.shape, _seq_key(self.genes))

    def __eq__(self, other):
        return (
            isinstance(other, Chromosome)
            and self.shape == other.shape
            and self.genes == other.genes
        )

    def __hash__(self):
        return hash((self.shape, self.genes))

    def __len__(self):
        return len(self.genes)

    def __repr__(self):
        return "Chromosome(%r, %s)" % (self.shape, list(map(str, self.genes)))

    def __str__(self):
        body = " ".join(str(g) for g in self.genes)
        return "[%s]" % body if self.shape == LINEAR else "(%s)" % body

    def left_extremity(self) -> Extremity:
        g = self.genes[0]
        return Extremity(g.gid, HEAD if g.rev else TAIL, g.copy)

    def right_extremity(self) -> Extremity:
        g = self.genes[-1]
        return Extremity(g.gid, TAIL if g.rev else HEAD, g.copy)

    def adjacencies(self):
        out = []
        genes = self.genes
        for i in range(len(genes) - 1):
            a = genes[i]
            b = genes[i + 1]
            out.append(
                adjacency(
                    Extremity(a.gid, TAIL if a.rev else HEAD, a.copy),
                    Extremity(b.gid, HEAD if b.rev else TAIL, b.copy),
                )
            )
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
        return Gene(abs(g), g < 0) if g != 0 else _bad_gene()
    raise GenomeError("cannot interpret %r as a gene" % (g,))


def _bad_gene():
    raise GenomeError("gene id 0 is not allowed")


class Genome:
    """An immutable multiset of chromosomes with derived adjacency data."""

    __slots__ = ("chromosomes", "__dict__")

    def __init__(self, chromosomes: Iterable[Chromosome]):
        chroms = sorted(chromosomes, key=Chromosome.sort_key)
        if not chroms:
            raise GenomeError("empty genome")
        object.__setattr__(self, "chromosomes", tuple(chroms))
        self._validate()

    def __setattr__(self, *a):
        raise AttributeError("Genome is immutable")

    def _validate(self):
        copies = {}
        for ch in self.chromosomes:
            for g in ch.genes:
                if g.gid <= 0:
                    raise GenomeError("gene ids must be positive, got %d" % g.gid)
                if g.copy not in ("", "a", "b"):
                    raise GenomeError("bad copy index %r" % (g.copy,))
                copies.setdefault(g.gid, []).append(g.copy)
        for gid, cs in copies.items():
            cs.sort()
            if cs not in ([""], ["", ""], ["a", "b"]):
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

    @cached_property
    def ids(self) -> Counter:
        return Counter(g.gid for ch in self.chromosomes for g in ch.genes)

    @cached_property
    def identities(self) -> Counter:
        return Counter((g.gid, g.copy) for ch in self.chromosomes for g in ch.genes)

    @cached_property
    def adjacencies(self) -> Counter:
        out = Counter()
        for ch in self.chromosomes:
            out.update(ch.adjacencies())
        return out

    @cached_property
    def telomeres(self) -> Counter:
        out = Counter()
        for ch in self.chromosomes:
            if ch.shape == LINEAR:
                out[ch.left_extremity()] += 1
                out[ch.right_extremity()] += 1
        return out

    @property
    def n_star(self) -> int:
        return sum(len(ch) for ch in self.chromosomes)

    @property
    def chi(self) -> int:
        return sum(1 for ch in self.chromosomes if ch.shape == LINEAR)

    @property
    def o(self) -> int:
        return sum(1 for ch in self.chromosomes if ch.shape == CIRCULAR)

    # -- content classification ----------------------------------------

    def is_singular(self) -> bool:
        return all(n == 1 for n in self.ids.values())

    def is_duplicated(self) -> bool:
        return all(n == 2 for n in self.ids.values())

    def is_indexed(self) -> bool:
        """True for singularized duplicated genomes (every gene has an a and a b copy)."""
        return self.is_duplicated() and all(
            n == 1 and copy in ("a", "b") for (gid, copy), n in self.identities.items()
        )

    def is_identity_singular(self) -> bool:
        """Each (id, copy) pair occurs once: plain singular or singularized."""
        return all(n == 1 for n in self.identities.values())

    def is_doubled(self) -> bool:
        if not self.is_duplicated():
            return False
        erased = self.erase_indices() if self.is_indexed() else self
        return all(n % 2 == 0 for n in erased.adjacencies.values()) and all(
            n % 2 == 0 for n in erased.telomeres.values()
        )

    def erase_indices(self) -> "Genome":
        return Genome(
            Chromosome(ch.shape, (g.erased() for g in ch.genes))
            for ch in self.chromosomes
        )


class PairClass:
    CANONICAL = "canonical"
    ONE_TWO_COGNATE = "one-two-cognate"
    TWO_TWO_COGNATE = "two-two-cognate"
    NOT_COGNATE = "not-cognate"


def classify_pair(g1: Genome, g2: Genome) -> str:
    """Classify a genome pair by gene content (ids, ignoring copy indices)."""
    if set(g1.ids) != set(g2.ids):
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


def parse_genome(text: str) -> Genome:
    """Parse the on-disk genome format: one `[..]` or `(..)` group per
    chromosome, whitespace-separated signed ids with optional .a/.b
    suffix, `#` comments."""
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
        current[1].append(_parse_gene_token(token, line, col))
        col += j - i - 1
        i = j
    if current is not None:
        raise ParseError("unterminated chromosome", current[2], current[3])
    if not chroms:
        raise ParseError("no chromosomes in input", line, max(col, 1))
    return Genome(chroms)


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
    if not body.isdigit() or int(body) == 0:
        raise ParseError("bad gene token %r" % token, line, col)
    return Gene(int(body), rev, copy)


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
    for ch in d.chromosomes:
        genes = []
        for g in ch.genes:
            copy = "b" if g.gid in seen else "a"
            seen.add(g.gid)
            genes.append(Gene(g.gid, g.rev, copy))
        chroms.append(Chromosome(ch.shape, genes))
    return Genome(chroms)


def genome_from_adjacencies(adjs, telos) -> Genome:
    """Rebuild a genome from adjacency pairs and telomeres over extremities
    that are unique per (id, copy)."""
    partner = {}
    for x, y in adjs:
        for e in (x, y):
            if e in partner:
                raise GenomeError("extremity %s used twice" % (e,))
        partner[x] = y
        partner[y] = x
    telos = list(telos)
    for e in telos:
        if e in partner:
            raise GenomeError("extremity %s is both adjacent and telomeric" % (e,))
    identities = set()
    for e in list(partner) + telos:
        identities.add((e.gid, e.copy))
    for gid, copy in identities:
        for end in (HEAD, TAIL):
            e = Extremity(gid, end, copy)
            if e not in partner and e not in telos:
                raise GenomeError("extremity %s missing" % (e,))

    used = set()

    def walk(start: Extremity):
        genes = []
        cur = start
        while True:
            gid, end, copy = cur
            used.add((gid, copy))
            genes.append(Gene(gid, rev=(end == HEAD), copy=copy))
            exit_end = HEAD if end == TAIL else TAIL
            out = Extremity(gid, exit_end, copy)
            nxt = partner.get(out)
            if nxt is None:
                return genes, out
            if (nxt.gid, nxt.copy) in used:
                return genes, out
            cur = nxt

    chroms = []
    for t in sorted(telos):
        if (t.gid, t.copy) in used:
            continue
        genes, last = walk(t)
        chroms.append(Chromosome(LINEAR, genes))
    for gid, copy in sorted(identities - used):
        if (gid, copy) in used:
            continue
        genes, last = walk(Extremity(gid, TAIL, copy))
        chroms.append(Chromosome(CIRCULAR, genes))
    return Genome(chroms)


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
        # Occurrence sequences of the duplicated genome for this layout.
        seqs = []
        for ch in linears:
            seqs.append((LINEAR, ch.genes))
            seqs.append((LINEAR, ch.genes))
        for bit, ch in zip(layout_bits, circulars):
            if bit:
                seqs.append((CIRCULAR, ch.genes + ch.genes))
            else:
                seqs.append((CIRCULAR, ch.genes))
                seqs.append((CIRCULAR, ch.genes))
        for label_bits in product("ab", repeat=len(gids)):
            first = dict(zip(gids, label_bits))
            seen = set()
            chroms = []
            for shape, genes in seqs:
                labeled = []
                for g in genes:
                    if g.gid in seen:
                        copy = "b" if first[g.gid] == "a" else "a"
                    else:
                        copy = first[g.gid]
                        seen.add(g.gid)
                    labeled.append(Gene(g.gid, g.rev, copy))
                chroms.append(Chromosome(shape, labeled))
            out.add(Genome(chroms))
    return sorted(out, key=lambda g: [c.sort_key() for c in g.chromosomes])


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


def random_genome(
    n: int,
    linear_count: int,
    circular_count: int,
    seed,
    rng: Optional[random.Random] = None,
) -> Genome:
    """Seeded random singular genome with the requested chromosome counts."""
    if linear_count < 0:
        raise GenomeError(
            "random_genome needs linear_count >= 0, got linear_count=%r" % (linear_count,)
        )
    if circular_count < 0:
        raise GenomeError(
            "random_genome needs circular_count >= 0, got circular_count=%r" % (circular_count,)
        )
    parts = linear_count + circular_count
    if not (n >= parts >= 1):
        raise GenomeError("need n >= linear_count + circular_count >= 1")
    rng = rng or random.Random(seed)
    genes = [Gene(gid, rng.random() < 0.5) for gid in range(1, n + 1)]
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
    last = len(elems) - 1  # row i holds the last - i pairs (elems[i], elems[j > i])
    i = 0
    while i < last and r >= last - i:
        r -= last - i
        i += 1
    if i < last:
        return elems[i], elems[i + 1 + r]
    return ("adjacency", adjs[r]), None  # split into two telomeres


def _random_dcj(g: Genome, rng: random.Random) -> Genome:
    work = g if g.is_identity_singular() else singularize(g)
    adjs = sorted(work.adjacencies)
    telos = sorted(work.telomeres)
    elems = [("adjacency", a) for a in adjs] + [("telomere", t) for t in telos]
    m = len(elems)
    n_moves = m * (m - 1) // 2 + len(adjs)
    if not n_moves:
        return g
    first, second = _nth_move(elems, adjs, rng.randrange(n_moves))
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
    res = genome_from_adjacencies(aset, tset)
    return res if g.is_identity_singular() else res.erase_indices()


def random_cognate_pair(n: int, wgd: bool, ops: int, seed):
    """Seeded (S, D) pair: canonical when wgd is false, [1·2]-cognate when
    true (D starts as a resolved doubling of S with indices erased), then
    scramble D with the requested number of random DCJs."""
    if n < 1:
        raise GenomeError("random_cognate_pair needs n >= 1, got n=%r" % (n,))
    if ops < 0:
        raise GenomeError("random_cognate_pair needs ops >= 0, got ops=%r" % (ops,))
    rng = random.Random(seed)
    parts = rng.randint(1, min(3, n))
    circ = rng.randint(0, parts)
    s = random_genome(n, parts - circ, circ, None, rng=rng)
    if wgd:
        a2, t2, _ = double(s)
        adjs = []
        for (b, g), cnt in sorted(a2.items()):
            if cnt != 2:
                raise RuntimeError("doubled adjacency %s-%s occurs %d times, not 2" % (b, g, cnt))
            other = "ab" if rng.random() < 0.5 else "ba"
            for c1, c2 in zip("ab", other):
                adjs.append((Extremity(b.gid, b.end, c1), Extremity(g.gid, g.end, c2)))
        telos = []
        for t, cnt in sorted(t2.items()):
            if cnt != 2:
                raise RuntimeError("doubled telomere %s occurs %d times, not 2" % (t, cnt))
            telos.append(Extremity(t.gid, t.end, "a"))
            telos.append(Extremity(t.gid, t.end, "b"))
        d = genome_from_adjacencies(adjs, telos).erase_indices()
    else:
        d = s
    for _ in range(ops):
        d = _random_dcj(d, rng)
    return s, d
