"""Ambiguous breakpoint graphs: squares, resolutions, scores, candidates.

Vertices are integers; `labels[v]` carries the display name (an Extremity
for genome-built graphs, a string for constructed ones).  Each square pairs
its four vertices in two perfect matchings: choice 0 keeps the solid pair
(beta_a-gamma_a / beta_b-gamma_b for genome-built squares), choice 1 the
complementary pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import _kernels
from .bpgraph import ComponentCensus, check_k, sigma
from .genomes import (
    Extremity,
    Genome,
    GenomeError,
    PairClass,
    classify_pair,
)


class Square(NamedTuple):
    """Four vertices (u, uhat) x (v, vhat); solid pair {u-v, uhat-vhat},
    complementary pair {u-vhat, uhat-v}."""

    index: int
    u: int
    v: int
    uhat: int
    vhat: int

    def edges(self, bit: int):
        if bit:
            return ((self.u, self.vhat), (self.uhat, self.v))
        return ((self.u, self.v), (self.uhat, self.vhat))


class AmbiguousBreakpointGraph:
    """Square edges plus fixed edges; resolving picks one matching per square."""

    __slots__ = (
        "labels",
        "squares",
        "d_edges",
        "sq_id",
        "e_part",
        "t_part",
        "d_part",
        "isolated",
        "s_telomeres",
        "d_telomeres",
    )

    def __init__(self, labels, squares, d_edges):
        n = len(labels)
        sq_id = [-1] * n
        e_part = [-1] * n
        t_part = [-1] * n
        d_part = [-1] * n
        for sq in squares:
            for v in (sq.u, sq.v, sq.uhat, sq.vhat):
                if not 0 <= v < n:
                    raise GenomeError("square vertex %d out of range" % v)
                if sq_id[v] >= 0:
                    raise GenomeError("vertex %d in two squares" % v)
                sq_id[v] = sq.index
            if len({sq.u, sq.v, sq.uhat, sq.vhat}) != 4:
                raise GenomeError("square %d vertices not distinct" % sq.index)
            for bit, part in ((0, e_part), (1, t_part)):
                for x, y in sq.edges(bit):
                    part[x] = y
                    part[y] = x
        for x, y in d_edges:
            if x == y:
                raise GenomeError("fixed-edge loop at vertex %d" % x)
            for v in (x, y):
                if not 0 <= v < n:
                    raise GenomeError("fixed-edge vertex %d out of range" % v)
                if d_part[v] >= 0:
                    raise GenomeError("vertex %d has two fixed edges" % v)
            d_part[x] = y
            d_part[y] = x
        self.labels = list(labels)
        self.squares = list(squares)
        self.d_edges = [tuple(e) for e in d_edges]
        self.sq_id = sq_id
        self.e_part = e_part
        self.t_part = t_part
        self.d_part = d_part
        self.s_telomeres = {v for v in range(n) if sq_id[v] < 0}
        self.d_telomeres = {v for v in range(n) if d_part[v] < 0}
        self.isolated = sorted(self.s_telomeres & self.d_telomeres)

    @property
    def a_star(self) -> int:
        return len(self.squares)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_star_doubled(self) -> int:
        return self.n_vertices // 2

    def check_resolution(self, tau):
        tau = tuple(int(b) for b in tau)
        if len(tau) != self.a_star or any(b not in (0, 1) for b in tau):
            raise GenomeError(
                "resolution must be %d bits, got %r" % (self.a_star, tau)
            )
        return tau

    def degree_sequence_ok(self) -> bool:
        """Every vertex has degree 3 (circular-derived graphs)."""
        return all(
            self.sq_id[v] >= 0 and self.d_part[v] >= 0
            for v in range(self.n_vertices)
        )


def build_abg(s: Genome, d_check: Genome) -> AmbiguousBreakpointGraph:
    """Ambiguous breakpoint graph of a singular genome and an indexed
    singularization of its duplicated cognate."""
    if not d_check.is_indexed():
        raise GenomeError("second genome must carry a/b copy indices")
    if classify_pair(s, d_check) != PairClass.ONE_TWO_COGNATE:
        raise GenomeError("genomes do not form a [1.2]-cognate pair")

    labels = []
    for gid in sorted(s.ids):
        for end in ("h", "t"):
            for copy in ("a", "b"):
                labels.append(Extremity(gid, end, copy))
    index = {e: i for i, e in enumerate(labels)}

    squares = []
    for i, (beta, gamma) in enumerate(sorted(s.adjacencies)):
        squares.append(
            Square(
                index=i,
                u=index[Extremity(beta.gid, beta.end, "a")],
                v=index[Extremity(gamma.gid, gamma.end, "a")],
                uhat=index[Extremity(beta.gid, beta.end, "b")],
                vhat=index[Extremity(gamma.gid, gamma.end, "b")],
            )
        )
    d_edges = [(index[x], index[y]) for x, y in sorted(d_check.adjacencies)]
    return AmbiguousBreakpointGraph(labels, squares, d_edges)


def resolve(abg: AmbiguousBreakpointGraph, tau) -> ComponentCensus:
    """Census of the breakpoint graph induced by the resolution tau."""
    tau = abg.check_resolution(tau)
    n = abg.n_vertices
    pa = [-1] * n
    sq_id = abg.sq_id
    e_part = abg.e_part
    t_part = abg.t_part
    for v in range(n):
        s = sq_id[v]
        if s >= 0:
            pa[v] = t_part[v] if tau[s] else e_part[v]
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


class CandidateSet:
    """All alternating cycles of length <= k and even paths of length <= k-2."""

    __slots__ = ("k", "candidates", "isolated_count")

    def __init__(self, k, candidates, isolated_count):
        self.k = k
        self.candidates = candidates
        self.isolated_count = isolated_count

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self):
        return len(self.candidates)


def enumerate_candidates(abg: AmbiguousBreakpointGraph, k: int) -> CandidateSet:
    """Exhaustive bounded enumeration.  A cycle walk starts only at a square
    vertex whose fixed-edge partner is a larger square vertex, the one it
    must close through, and is extended only while it can still close: with
    one square edge left it must stand in that partner's square.  A walk still
    branches up to twice per square step, so the worst case stays
    O(V * 2^(k/2)) walks; the pruning cuts the walks that cannot close."""
    k = check_k(k)
    if not isinstance(k, int):
        raise ValueError("candidate enumeration needs finite k")
    found = []
    raw_cycles = _kernels.alternating_cycles(
        abg.sq_id, abg.e_part, abg.t_part, abg.d_part, k
    )
    for verts, choices in raw_cycles:
        found.append(Candidate("cycle", len(verts), verts, choices, 2))
    raw_paths = _kernels.alternating_even_paths(
        abg.sq_id, abg.e_part, abg.t_part, abg.d_part, k - 2
    )
    for verts, choices in raw_paths:
        found.append(Candidate("path", len(verts) - 1, verts, choices, 1))
    found.sort()
    return CandidateSet(k, found, len(abg.isolated))


# -- DOT export ------------------------------------------------------------


def _dot_name(label) -> str:
    return '"%s"' % str(label)


def to_dot(abg: AmbiguousBreakpointGraph, tau=None) -> str:
    """Graphviz text; square edges orange (solid pair solid, complementary
    dashed), fixed edges black, telomere classes colored.
    With tau, only the chosen square edges are drawn."""
    lines = ["graph abg {", "  node [shape=circle fontsize=10];"]
    for v, label in enumerate(abg.labels):
        in_s_tel = v in abg.s_telomeres
        in_d_tel = v in abg.d_telomeres
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
    for sq in abg.squares:
        bits = (0, 1) if tau is None else (tau[sq.index],)
        for bit in bits:
            style = "dashed" if bit else "solid"
            for x, y in sq.edges(bit):
                lines.append(
                    '  %s -- %s [color=orange style=%s class="square%d"];'
                    % (_dot_name(abg.labels[x]), _dot_name(abg.labels[y]), style, sq.index)
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
