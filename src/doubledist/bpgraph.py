"""Breakpoint graphs of canonical pairs and the sigma_k distance family.

Distances are exact: sigma values are computed in doubled-integer
arithmetic internally and exposed as `fractions.Fraction`.  The index k is
an even integer >= 2 or the INFINITY singleton.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .genomes import Genome, GenomeError


class BudgetExceeded(RuntimeError):
    """A solver or oracle ran past its explicit node/size budget."""


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


def check_k(k):
    """Validate a sigma index: INFINITY, or an even integer >= 2."""
    if isinstance(k, _Infinity):
        return k
    if isinstance(k, int) and not isinstance(k, bool) and k >= 2 and k % 2 == 0:
        return k
    raise ValueError("k must be an even integer >= 2 or INFINITY, got %r" % (k,))


def _kcap(k) -> int:
    return -1 if isinstance(k, _Infinity) else k


class ComponentCensus:
    """Cycle/path counts per length (c_i and p_j)."""

    __slots__ = ("c", "p")

    def __init__(self, c=None, p=None):
        self.c = Counter(c or {})
        self.p = Counter(p or {})

    @classmethod
    def from_lengths(cls, cycle_lengths, path_lengths):
        # counted once each; __init__ would copy both counts again
        census = cls.__new__(cls)
        census.c = Counter(cycle_lengths)
        census.p = Counter(path_lengths)
        return census

    @property
    def c_total(self) -> int:
        return sum(self.c.values())

    @property
    def p_even_total(self) -> int:
        return sum(n for length, n in self.p.items() if length % 2 == 0)

    def sigma2x(self, k) -> int:
        check_k(k)
        cap = _kcap(k)
        if cap < 0:
            return 2 * self.c_total + self.p_even_total
        doubled = 2 * sum(n for length, n in self.c.items() if length <= cap)
        doubled += sum(
            n
            for length, n in self.p.items()
            if length % 2 == 0 and length <= cap - 2
        )
        return doubled

    def __eq__(self, other):
        return (
            isinstance(other, ComponentCensus)
            and +self.c == +other.c
            and +self.p == +other.p
        )

    def __repr__(self):
        bits = ["c%d:%d" % kv for kv in sorted(self.c.items())]
        bits += ["p%d:%d" % kv for kv in sorted(self.p.items())]
        return "{%s}" % ", ".join(bits)


def sigma(census: ComponentCensus, k) -> Fraction:
    """Cumulative score: cycles up to length k plus half the even paths up
    to length k-2 (all of them for unbounded k)."""
    return Fraction(census.sigma2x(k), 2)


class NotCanonicalError(GenomeError):
    pass


class BreakpointGraph:
    """Breakpoint graph of two genomes that are singular per (id, copy)."""

    __slots__ = ("vertices", "edges1", "edges2", "census")

    def __init__(self, s1: Genome, s2: Genome):
        if not (s1.is_identity_singular() and s2.is_identity_singular()):
            raise NotCanonicalError("both genomes must have one copy per gene")
        if set(s1.identities) != set(s2.identities):
            raise NotCanonicalError("genomes are over different gene sets")
        verts = sorted(
            ext for a in s1.adjacencies for ext in a
        ) + sorted(s1.telomeres)
        verts = sorted(set(verts))
        index = {e: i for i, e in enumerate(verts)}
        n = len(verts)
        p1 = [-1] * n
        p2 = [-1] * n
        for arr, genome in ((p1, s1), (p2, s2)):
            for x, y in genome.adjacencies:
                arr[index[x]] = index[y]
                arr[index[y]] = index[x]
        object.__setattr__(self, "vertices", tuple(verts))
        object.__setattr__(self, "edges1", tuple(sorted(s1.adjacencies)))
        object.__setattr__(self, "edges2", tuple(sorted(s2.adjacencies)))
        cycles = []
        paths = []
        seen = [False] * n
        for v in range(n):
            if seen[v] or (p1[v] >= 0 and p2[v] >= 0):
                continue
            length = 0
            seen[v] = True
            cur = v
            use1 = p1[v] >= 0
            while True:
                nxt = p1[cur] if use1 else p2[cur]
                if nxt < 0:
                    break
                length += 1
                cur = nxt
                seen[cur] = True
                use1 = not use1
            paths.append(length)
        for v in range(n):
            if seen[v]:
                continue
            length = 0
            cur = v
            use1 = True
            while True:
                seen[cur] = True
                cur = p1[cur] if use1 else p2[cur]
                length += 1
                use1 = not use1
                if cur == v and use1:
                    break
            cycles.append(length)
        object.__setattr__(self, "census", ComponentCensus.from_lengths(cycles, paths))

    def __setattr__(self, *a):
        raise AttributeError("BreakpointGraph is immutable")


def build_breakpoint_graph(s1: Genome, s2: Genome) -> BreakpointGraph:
    return BreakpointGraph(s1, s2)


def distance(s1: Genome, s2: Genome, k) -> Fraction:
    """d_k = n_star - sigma_k; k=2 is the breakpoint distance, unbounded k
    the DCJ distance."""
    check_k(k)
    bg = build_breakpoint_graph(s1, s2)
    n_star = len(s1.identities)
    return n_star - sigma(bg.census, k)


# -- DCJ BFS oracle --------------------------------------------------------


def _state(genome: Genome):
    return (
        frozenset(genome.adjacencies),
        frozenset(genome.telomeres),
    )


def _neighbors(state, cache):
    cached = cache.get(state)
    if cached is not None:
        return cached
    adjs, telos = state
    out = set()
    alist = sorted(adjs)
    tlist = sorted(telos)
    for i, a in enumerate(alist):
        p, q = a
        rest_a = adjs - {a}
        # split one adjacency into two telomeres
        out.add((frozenset(rest_a), telos | {p, q}))
        for b in alist[i + 1 :]:
            r, s = b
            base = rest_a - {b}
            for x, y in (((p, r), (q, s)), ((p, s), (q, r))):
                na = base | {tuple(sorted(x)), tuple(sorted(y))}
                out.add((frozenset(na), telos))
        for t in tlist:
            for keep, free in ((p, q), (q, p)):
                na = rest_a | {tuple(sorted((keep, t)))}
                nt = (telos - {t}) | {free}
                out.add((frozenset(na), frozenset(nt)))
    for i, t in enumerate(tlist):
        for u in tlist[i + 1 :]:
            na = adjs | {tuple(sorted((t, u)))}
            out.add((frozenset(na), frozenset(telos - {t, u})))
    result = tuple(out)
    cache[state] = result
    return result


def dcj_distance_bfs_oracle(s1: Genome, s2: Genome, budget: int = 500_000) -> int:
    """Shortest DCJ-sequence length from s1 to s2 by bidirectional BFS over
    genome space.  Independent of the breakpoint-graph formula; n_star <= 5."""
    if not (s1.is_identity_singular() and s2.is_identity_singular()):
        raise NotCanonicalError("oracle needs one copy per gene on both sides")
    if set(s1.identities) != set(s2.identities):
        raise NotCanonicalError("genomes are over different gene sets")
    if len(s1.identities) > 5:
        raise BudgetExceeded("oracle limited to n_star <= 5")
    a = _state(s1)
    b = _state(s2)
    if a == b:
        return 0
    da = {a: 0}
    db = {b: 0}
    frontier_a = [a]
    frontier_b = [b]
    level_a = level_b = 0
    best = None
    popped = 0
    neighbor_cache = {}
    while frontier_a and frontier_b:
        if best is not None and level_a + level_b + 2 > best:
            return best
        if len(frontier_a) <= len(frontier_b):
            frontier, dist, other, level = frontier_a, da, db, level_a
        else:
            frontier, dist, other, level = frontier_b, db, da, level_b
        nxt = []
        for st in frontier:
            popped += 1
            if popped > budget:
                raise BudgetExceeded("DCJ BFS oracle budget exceeded")
            for nb in _neighbors(st, neighbor_cache):
                hit = other.get(nb)
                if hit is not None:
                    cand = level + 1 + hit
                    if best is None or cand < best:
                        best = cand
                if nb not in dist:
                    dist[nb] = level + 1
                    nxt.append(nb)
        if frontier is frontier_a:
            frontier_a = nxt
            level_a += 1
        else:
            frontier_b = nxt
            level_b += 1
    if best is None:
        raise GenomeError("genomes not connected by DCJ moves")  # unreachable
    return best
