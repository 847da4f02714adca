"""Ambiguous breakpoint graphs: squares, resolutions, scores, candidates.

Vertices are integers; `labels[v]` carries the display name (an Extremity
for genome-built graphs, a string for constructed ones).  Each square pairs
its four vertices in two perfect matchings: choice 0 keeps the solid pair
(beta_a-gamma_a / beta_b-gamma_b for genome-built squares), choice 1 the
complementary pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import _kernels
from .bpgraph import ComponentCensus, check_k, sigma
from .genomes import (
    HEAD,
    TAIL,
    Extremity,
    Genome,
    GenomeError,
    PairClass,
    _id_partners,
    _new,
    classify_pair,
)


class Square(NamedTuple):
    """Four vertices (u, uhat) x (v, vhat); solid pair {u-v, uhat-vhat},
    complementary pair {u-vhat, uhat-v}.  A square's index is its position
    in `AmbiguousBreakpointGraph.squares`."""

    u: int
    v: int
    uhat: int
    vhat: int

    def edges(self, bit: int):
        if bit:
            return ((self.u, self.vhat), (self.uhat, self.v))
        return ((self.u, self.v), (self.uhat, self.vhat))


class AmbiguousBreakpointGraph:
    """Square edges plus fixed edges; resolving picks one matching per square.

    Immutable after construction: every array is a tuple and attributes
    cannot be rebound, so the candidate sets that `enumerate_candidates`
    memoizes per (k, forced bits) in `_candidates` can never go stale.

    Every graph is given its vertex count, squares and fixed edges, and
    `_fill` alone writes the vertex arrays `sq_id`, `e_part`, `t_part` and
    `d_part` from them.  A graph built by this constructor keeps the labels
    it is given and each square as a `Square`, however it was given, and
    the constructor checks each square and fixed edge before the fill,
    naming the first faulty vertex.  A graph that the
    library makes valid by construction (`build_abg`, and the reduction's
    builder) skips those checks under a count of what the fill wrote
    (`_trusted_graph`); it is given a function that makes its labels in
    place of labels, and they are made when first read (only `to_dot` and
    the tests read them), then kept."""

    __slots__ = (
        "n_vertices",
        "squares",
        "d_edges",
        "sq_id",
        "e_part",
        "t_part",
        "d_part",
        "isolated",
        "_make_labels",
        "_labels",
        "_candidates",
    )

    def __init__(self, labels, squares, d_edges):
        labels = tuple(labels)
        n = len(labels)
        squares = tuple([Square._make(sq) for sq in squares])  # a wrong arity raises
        # built from lists, as in check_resolution
        d_edges = tuple([tuple(e) for e in d_edges])
        in_square = [False] * n
        for index, (u, v, uhat, vhat) in enumerate(squares):
            if len({u, v, uhat, vhat}) != 4:
                raise GenomeError("square %d vertices not distinct" % index)
            for x in (u, v, uhat, vhat):  # name the first fault
                if not 0 <= x < n:
                    raise GenomeError("square vertex %d out of range" % x)
                if in_square[x]:
                    raise GenomeError("vertex %d in two squares" % x)
                in_square[x] = True
        on_edge = [False] * n
        for x, y in d_edges:
            if x == y:
                raise GenomeError("fixed-edge loop at vertex %d" % x)
            for w in (x, y):  # name the first fault, end by end
                if not 0 <= w < n:
                    raise GenomeError("fixed-edge vertex %d out of range" % w)
                if on_edge[w]:
                    raise GenomeError("vertex %d has two fixed edges" % w)
                on_edge[w] = True
        self._fill(labels, None, n, squares, d_edges)

    def _fill(self, labels, make_labels, n, squares, d_edges):
        """Set every slot, writing the four vertex arrays over n vertices
        from the squares and fixed edges, the one place they are written:
        labels is a tuple, or None with make_labels a function that makes
        it; squares and d_edges are tuples."""
        sq_id = [-1] * n
        e_part = [-1] * n
        t_part = [-1] * n
        for index, (u, v, uhat, vhat) in enumerate(squares):
            sq_id[u] = sq_id[v] = sq_id[uhat] = sq_id[vhat] = index
            # the matchings of Square.edges(0) and Square.edges(1)
            e_part[u] = v
            e_part[v] = u
            e_part[uhat] = vhat
            e_part[vhat] = uhat
            t_part[u] = vhat
            t_part[vhat] = u
            t_part[uhat] = v
            t_part[v] = uhat
        d_part = [-1] * n
        for x, y in d_edges:
            d_part[x] = y
            d_part[y] = x
        init = object.__setattr__
        init(self, "n_vertices", n)
        init(self, "_make_labels", make_labels)
        init(self, "_labels", labels)
        init(self, "squares", squares)
        init(self, "d_edges", d_edges)
        init(self, "sq_id", tuple(sq_id))
        init(self, "e_part", tuple(e_part))
        init(self, "t_part", tuple(t_part))
        init(self, "d_part", tuple(d_part))
        # the vertices in no square and on no fixed edge
        init(self, "isolated",
             tuple([v for v in range(n) if sq_id[v] < 0 and d_part[v] < 0]))
        init(self, "_candidates", {})  # (k, forced) -> CandidateSet

    def __setattr__(self, *a):
        raise AttributeError("AmbiguousBreakpointGraph is immutable")

    @property
    def labels(self) -> tuple:
        """The display name of each vertex; for a genome-built graph, the
        extremities in the sorted order of their ids, and for a reduction's,
        the names its builder gave."""
        labels = self._labels
        if labels is None:
            labels = tuple(self._make_labels())
            object.__setattr__(self, "_labels", labels)
        return labels

    @property
    def a_star(self) -> int:
        return len(self.squares)

    @property
    def n_star_doubled(self) -> int:
        return self.n_vertices // 2

    def check_resolution(self, tau):
        # From a list, so the tuple is made at its final size.  tuple() of a
        # generator starts at a guessed size and resizes; freed, such a tuple
        # goes to CPython's free list for its final size, not the one it was
        # taken from, so a solve loop piles up to 2,000 of them per size
        # between full collections.
        tau = list(tau)
        # checked before int(), which would read 0.7 as 0 and "1" as 1
        if len(tau) != self.a_star or any(b not in (0, 1) for b in tau):
            raise GenomeError(
                "resolution must be %d bits, got %r" % (self.a_star, tuple(tau))
            )
        return tuple([int(b) for b in tau])

    def degree_sequence_ok(self) -> bool:
        """Every vertex has degree 3 (circular-derived graphs)."""
        return -1 not in self.sq_id and -1 not in self.d_part


def forced_choices(abg: AmbiguousBreakpointGraph) -> tuple:
    """One entry per square: the bit every optimal resolution gives it, or
    -1 when the square is free.

    A choice is forced when one of its square edges x-y duplicates a fixed
    edge x-y, so that it closes the 2-cycle x-y.  Proof by exchange: take a
    resolution with the other choice.  There x takes a square edge to x' and
    y one to y', the square's other two vertices, so x'-x-y-y' (square edge,
    fixed edge, square edge) runs through one component C.  Flipping the
    square closes the 2-cycle x-y and joins x'-y' by the choice's other edge:
    C keeps its kind (cycle or path) and its parity and is 2 edges shorter,
    so no cap of sigma_k drops it, and no other component changes.  For
    every k >= 2 the 2-cycle adds 1, so the flip raises the score: every
    optimal resolution keeps every forced bit, and the optimum over the
    resolutions that keep them is the optimum.  At k = 2 this is
    `dd_greedy_2`'s rule, which keeps every common adjacency.

    No square can have a 2-cycle choice on both bits: an edge of one
    matching of the square and an edge of the other share a vertex, and no
    vertex has two fixed edges.  The rule never has to pick between bits."""
    d_part = abg.d_part
    out = []
    for index, (u, v, uhat, vhat) in enumerate(abg.squares):
        solid = d_part[u] == v or d_part[uhat] == vhat  # Square.edges(0)
        complementary = d_part[u] == vhat or d_part[uhat] == v  # Square.edges(1)
        if solid and complementary:
            raise GenomeError(
                "square %d closes a 2-cycle under both choices" % index)
        out.append(0 if solid else 1 if complementary else -1)
    return tuple(out)


def build_abg(s: Genome, d: Genome) -> AmbiguousBreakpointGraph:
    """Ambiguous breakpoint graph of a singular genome s and its duplicated
    cognate d, indexed or not: an indexed d keeps its letters, and
    `_id_partners` labels the plain copies of d as `singularize` would, so
    the graph of a plain d is that of its singularization.

    Each vertex is its extremity's id in the numbering that `genomes` states
    (integer extremity ids), ranking the genes by their ids in s; an
    extremity of s counts as copy a.  So `labels` lists the extremities in
    sorted order, and copy b's vertex is copy a's plus 1: the adjacency x-y
    of s gives the square (x, y, x + 1, y + 1).

    One reading of each genome gives its id partner map.  s is singular,
    so its ids are even (copy a) and each lies in at most one adjacency:
    one pass over the ids x whose partner y is larger lists the squares in
    the order of their least vertex, and one over d's map lists the fixed
    edges; `_fill` writes the vertex arrays from them.  The cognate pair
    makes every part valid, so no square or fixed edge is checked on its
    own; a count of the filled entries guards the reading instead."""
    # with d duplicated, a [1.2]-cognate pair has s singular
    if not d.is_duplicated() or classify_pair(s, d) != PairClass.ONE_TWO_COGNATE:
        raise GenomeError("build_abg needs a singular genome and its duplicated cognate")

    gids = sorted(s.ids)
    rank = {gid: r for r, gid in enumerate(gids)}
    n = 4 * len(gids)
    s_part = _id_partners(s, rank, n)
    d_part = _id_partners(d, rank, n)
    squares = tuple([_new(Square, (x, y, x + 1, y + 1))
                     for x, y in enumerate(s_part) if x < y])
    d_edges = tuple([(x, y) for x, y in enumerate(d_part) if x < y])
    return _trusted_graph("the genome reading", partial(_extremity_labels, tuple(gids)),
                          n, squares, d_edges)


def _extremity_labels(gids):
    """The extremities of the genes gids, in the order of their ids."""
    return [
        _new(Extremity, (gid, end, copy))
        for gid in gids
        for end in (HEAD, TAIL)
        for copy in ("a", "b")
    ]


def _trusted_graph(maker, make_labels, n, squares, d_edges):
    """The graph of parts that maker built valid by construction, with no
    check per square or fixed edge: squares and d_edges are tuples over n
    vertices.  A count of the entries that `_fill` filled guards the parts
    instead: a vertex in two squares, a vertex on two fixed edges or a
    fixed-edge loop leaves fewer entries than the squares and fixed edges
    fill, and raises RuntimeError."""
    graph = AmbiguousBreakpointGraph.__new__(AmbiguousBreakpointGraph)
    graph._fill(None, make_labels, n, squares, d_edges)
    square_ends = n - graph.sq_id.count(-1)
    fixed_ends = n - graph.d_part.count(-1)
    if square_ends != 4 * len(squares) or fixed_ends != 2 * len(d_edges):
        raise RuntimeError(
            "%s gave %d square vertices for %d squares and "
            "%d fixed-edge ends for %d fixed edges"
            % (maker, square_ends, len(squares), fixed_ends, len(d_edges)))
    return graph


def resolve(abg: AmbiguousBreakpointGraph, tau) -> ComponentCensus:
    """Census of the breakpoint graph induced by the resolution tau."""
    tau = abg.check_resolution(tau)
    # e_part holds every square's solid pair; rewrite the squares at bit 1
    pa = list(abg.e_part)
    squares = abg.squares
    for index, bit in enumerate(tau):
        if bit:
            u, v, uhat, vhat = squares[index]  # Square.edges(1)
            pa[u] = vhat
            pa[vhat] = u
            pa[uhat] = v
            pa[v] = uhat
    cycles, paths = _kernels.walk_components(pa, abg.d_part)
    return ComponentCensus.from_lengths(cycles, paths)


def score(abg: AmbiguousBreakpointGraph, tau, k) -> Fraction:
    """k-score of a resolution: sigma_k of the induced breakpoint graph."""
    check_k(k)
    return sigma(resolve(abg, tau), k)


class Candidate(NamedTuple):
    """A short alternating cycle or even path together with the square
    choices it forces.  weight2 is the doubled sigma contribution."""

    kind: str  # "cycle" | "path"
    length: int
    vertices: tuple
    choices: tuple  # sorted ((square, bit), ...)
    weight2: int


def conflict(c1: Candidate, c2: Candidate) -> bool:
    """True iff the two candidates cannot coexist: shared vertex or
    contradictory square choices."""
    if set(c1.vertices) & set(c2.vertices):
        return True
    d2 = dict(c2.choices)
    for sq, bit in c1.choices:
        if d2.get(sq, bit) != bit:
            return True
    return False


def conflict_masks(candidates) -> list:
    """The conflict graph as bitmasks: bit j of masks[i] is set iff
    candidates i and j conflict, i != j (the rule of `conflict`).  Each
    vertex, and each square choice, gets one mask of the candidates that
    hold it; a candidate ORs in the masks of its vertices and of the
    choices opposite to its own, then clears its own bit.  So the cost is
    one OR per vertex and choice of a candidate, not one per conflicting
    pair."""
    vert_touch = {}
    choice_touch = {}
    for i, c in enumerate(candidates):
        bit = 1 << i
        for v in c.vertices:
            vert_touch[v] = vert_touch.get(v, 0) | bit
        for choice in c.choices:
            choice_touch[choice] = choice_touch.get(choice, 0) | bit
    masks = []
    for i, c in enumerate(candidates):
        mask = 0
        for v in c.vertices:
            mask |= vert_touch[v]
        for sq, bit in c.choices:
            mask |= choice_touch.get((sq, 1 - bit), 0)
        masks.append(mask & ~(1 << i))
    return masks


class CandidateSet:
    """The alternating cycles of length <= k and even paths of length <= k-2
    that keep the forced bits and use a free square, as a sorted tuple;
    settled2x is the doubled weight of those whose squares are all forced."""

    __slots__ = ("k", "candidates", "settled2x")

    def __init__(self, k, candidates, settled2x):
        init = object.__setattr__
        init(self, "k", k)
        init(self, "candidates", tuple(candidates))
        init(self, "settled2x", settled2x)

    def __setattr__(self, *a):
        raise AttributeError("CandidateSet is immutable")

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self):
        return len(self.candidates)


def enumerate_candidates(abg: AmbiguousBreakpointGraph, k: int,
                         forced=None) -> CandidateSet:
    """Exhaustive bounded enumeration of the components that keep the forced
    bits, done once per (graph, k, forced): later calls return the same
    CandidateSet.  forced is `forced_choices`'s shape, one entry per square,
    its bit or -1 when the square is free; None, or a tuple with no bit,
    leaves every square free, and both share one memo entry.

    A walk follows only the forced bit at a forced square, so a component
    that contradicts a forced bit is never built.  One whose squares are all
    forced is not listed: it is a component of every resolution that keeps
    the bits, so its doubled weight goes to settled2x, and the choices a
    candidate lists are those of its free squares.  A cycle walk starts only
    at a square vertex whose fixed-edge partner is a larger square vertex,
    the one it must close through, and is extended only while it can still
    close.  Its last square edge lies in that partner's square, so with one
    square edge left it must stand in that square, with two it must be in
    it or reach it in one hop (a square edge, either bit, and the fixed
    edge after it), and with three within two hops; a walk that closes
    early passes every test.
    A walk still branches up to twice per free square step, so the worst
    case stays O(V * 2^(k/2)) walks; the pruning cuts the walks that cannot
    close."""
    k = check_k(k)
    if not isinstance(k, int):
        raise ValueError("candidate enumeration needs finite k")
    if forced is not None:
        forced = tuple(forced)
        if len(forced) != abg.a_star or any(b not in (-1, 0, 1) for b in forced):
            raise ValueError("forced must hold -1, 0 or 1 for each of the %d "
                             "squares, got %r" % (abg.a_star, forced))
        if max(forced, default=-1) < 0:
            forced = None
    memo = abg._candidates
    key = (k, forced)
    if key in memo:
        return memo[key]
    found = []
    raw_cycles, cycles2x = _kernels.alternating_cycles(
        abg.sq_id, abg.e_part, abg.t_part, abg.d_part, k, forced
    )
    for verts, choices in raw_cycles:
        found.append(Candidate("cycle", len(verts), verts, choices, 2))
    raw_paths, paths2x = _kernels.alternating_even_paths(
        abg.sq_id, abg.e_part, abg.t_part, abg.d_part, k - 2, forced
    )
    for verts, choices in raw_paths:
        found.append(Candidate("path", len(verts) - 1, verts, choices, 1))
    found.sort()
    memo[key] = cset = CandidateSet(k, found, cycles2x + paths2x)
    return cset


# -- DOT export ------------------------------------------------------------


def _dot_name(label) -> str:
    return '"%s"' % str(label)


def to_dot(abg: AmbiguousBreakpointGraph, tau=None) -> str:
    """Graphviz text; square edges orange (solid pair solid, complementary
    dashed), fixed edges black, telomere classes colored.
    With tau, only the chosen square edges are drawn."""
    lines = ["graph abg {", "  node [shape=circle fontsize=10];"]
    for v, label in enumerate(abg.labels):
        in_s_tel = abg.sq_id[v] < 0
        in_d_tel = abg.d_part[v] < 0
        if in_s_tel and in_d_tel:
            fill = "purple"
        elif in_s_tel:
            fill = "lightblue"
        elif in_d_tel:
            fill = "gray"
        else:
            fill = "white"
        lines.append(
            '  %s [style=filled fillcolor="%s" class="%s"];'
            % (_dot_name(label), fill, "telomere" if fill != "white" else "plain")
        )
    if tau is not None:
        tau = abg.check_resolution(tau)
    for index, sq in enumerate(abg.squares):
        bits = (0, 1) if tau is None else (tau[index],)
        for bit in bits:
            style = "dashed" if bit else "solid"
            for x, y in sq.edges(bit):
                lines.append(
                    '  %s -- %s [color=orange style=%s class="square%d"];'
                    % (_dot_name(abg.labels[x]), _dot_name(abg.labels[y]), style, index)
                )
    for x, y in abg.d_edges:
        lines.append(
            '  %s -- %s [color=black class="fixed"];'
            % (_dot_name(abg.labels[x]), _dot_name(abg.labels[y]))
        )
    lines.append("}")
    return "\n".join(lines)


def bp_to_dot(bg) -> str:
    """DOT export of a plain breakpoint graph (same color conventions)."""
    lines = ["graph bg {", "  node [shape=circle fontsize=10];"]
    tags = dict(_bp_telomere_tags(bg))
    for e in bg.vertices:
        tag = tags.get(e, "")
        fill = {"s1": "lightblue", "s2": "gray", "s1s2": "purple"}.get(tag, "white")
        lines.append('  %s [style=filled fillcolor="%s"];' % (_dot_name(e), fill))
    for x, y in bg.edges1:
        lines.append('  %s -- %s [color=blue class="s1"];' % (_dot_name(x), _dot_name(y)))
    for x, y in bg.edges2:
        lines.append('  %s -- %s [color=black class="s2"];' % (_dot_name(x), _dot_name(y)))
    lines.append("}")
    return "\n".join(lines)


def _bp_telomere_tags(bg):
    adj1 = {e for a in bg.edges1 for e in a}
    adj2 = {e for a in bg.edges2 for e in a}
    out = []
    for e in bg.vertices:
        tag = ""
        if e not in adj1:
            tag += "s1"
        if e not in adj2:
            tag += "s2"
        if tag:
            out.append((e, tag))
    return out
