"""Exact engines for the k-score maximization and the double distance.

Two independent routes, both after `abg.forced_choices` fixes the forced
squares: `ss_naive` sweeps the resolutions of the free squares, one
component of them at a time; `ss_mis` enumerates short candidate components
and solves a maximum-weight independent set on their conflict graph by
branch and reduce, one connected component of that graph at a time.  Both return the same scores;
`dd_definition_oracle` re-derives the double distance from its definition
without touching the ambiguous-graph machinery at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import _kernels
from .abg import (
    AmbiguousBreakpointGraph,
    build_abg,
    conflict_masks,
    enumerate_candidates,
    forced_choices,
    score,
)
from .bpgraph import BudgetExceeded, _kcap, check_k, distance
from .genomes import (
    Genome,
    GenomeError,
    PairClass,
    classify_pair,
    double,
    enumerate_resolved_doublings,
    singularize,
)


@dataclass
class SolveStats:
    """Search record: nodes visited (for `naive`, the resolutions scored),
    the candidates the `mis` conflict graph is built on (the forced bits
    keep every other one from being built), wall time, the squares whose bit
    `forced_choices` fixes before the search, the components searched one
    by one and the size of the largest (for `naive`, components of the free
    squares and their free squares; for `mis`, conflict-graph components and
    their candidates), the time spent getting the candidates (about 0
    when the graph already holds them) and, for `mis`, building their
    conflict graph and searching it (search_ms), and the time `_result`
    takes to re-score the witness (rescore_ms, after wall_ms, which it is
    not part of).  When a budget stops the `mis`
    search, upper_bound bounds the optimal score: the scores of the
    candidates the forced bits settle and of the components it closed, plus
    the root clique-cover bound of the rest; it stays None otherwise."""
    nodes: int = 0
    candidates: int = 0
    wall_ms: float = 0.0
    components: int = 0
    largest_component: int = 0
    upper_bound: Optional[Fraction] = None
    enumerate_ms: float = 0.0
    forced: int = 0
    conflict_ms: float = 0.0
    search_ms: float = 0.0
    rescore_ms: float = 0.0


@dataclass
class SolveResult:
    score: Fraction
    dd: Fraction
    tau: Optional[tuple]
    optimal: bool
    engine: str
    stats: SolveStats = field(default_factory=SolveStats)


def _result(abg, tau, k, engine, optimal, stats, best2x) -> SolveResult:
    """Re-score the witness tau on the whole graph, timed in
    stats.rescore_ms; an optimal witness must score the doubled optimum
    best2x the engine reported."""
    t0 = time.monotonic()
    actual = score(abg, tau, k)
    stats.rescore_ms = (time.monotonic() - t0) * 1000.0
    if optimal and 2 * actual != best2x:
        raise RuntimeError("ss_%s witness re-scores to %s, the search reported %s"
                           % (engine, actual, Fraction(best2x, 2)))
    dd_value = Fraction(abg.n_star_doubled) - actual
    return SolveResult(actual, dd_value, tau, optimal, engine, stats)


_BITS = bytes.maketrans(b"01", b"\0\1")


def _tau_bits(tau_int, a_star):
    """The low a_star bits of tau_int, least significant first, as a tuple
    of 0s and 1s: bin() reads the integer once, where shifting it per bit
    would cost O(a_star^2)."""
    # a bytes object iterates as its byte values, and tuple() sizes itself
    # from it, as in AmbiguousBreakpointGraph.check_resolution
    return tuple(bin(tau_int)[:1:-1].ljust(a_star, "0")[:a_star].encode().translate(_BITS))


def ss_naive(
    abg: AmbiguousBreakpointGraph,
    k,
    budget_nodes: int = 1 << 25,
) -> SolveResult:
    """Exact k-score maximum by exhausting the resolutions that keep the
    forced squares' bits (`forced_choices`; every optimal resolution keeps
    them), one component of the free squares at a time; ties keep the
    lowest bit pattern.  A graph is refused before the sweep unless the sum
    over its components of 2^free <= budget_nodes."""
    check_k(k)
    _check_budgets(budget_nodes)
    t0 = time.monotonic()
    forced = forced_choices(abg)
    best2x, tau_int, explored, sizes = _kernels.best_resolution(
        abg.d_part, abg.squares, _kcap(k), forced, budget_nodes)
    free = forced.count(-1)
    largest = max(sizes, default=0)
    if not explored:
        raise BudgetExceeded(
            "ss_naive's largest component has %d free squares (%d free in %d "
            "components, %d forced): their resolutions are over the budget of %d"
            % (largest, free, len(sizes), abg.a_star - free, budget_nodes)
        )
    tau = _tau_bits(tau_int, abg.a_star)
    stats = SolveStats(nodes=explored, candidates=0,
                       wall_ms=(time.monotonic() - t0) * 1000.0,
                       components=len(sizes), largest_component=largest,
                       forced=abg.a_star - free)
    return _result(abg, tau, k, "naive", True, stats, best2x)


class _SearchBudget:
    """Node and wall-clock allowance shared by every component of one search.
    The clock is read on every node, and by `_mwis_connected` after every
    64 domination tests of a node's reductions; budget_ms=0 stops at the
    first node."""

    def __init__(self, nodes, ms):
        self.nodes_left = nodes
        self.deadline = None if ms is None else time.monotonic() + ms / 1000.0
        self.spent = 0
        self.components = 0
        self.largest = 0
        self.upper = None  # doubled-weight bound, set when the search stops early

    def tick(self) -> bool:
        self.spent += 1
        self.nodes_left -= 1
        if self.nodes_left < 0:
            return False
        return self.in_time()

    def in_time(self) -> bool:
        return self.deadline is None or time.monotonic() < self.deadline


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _conflict_components(neighbor_masks):
    """Connected components of the conflict graph, as vertex bitmasks in
    order of their lowest vertex."""
    unseen = (1 << len(neighbor_masks)) - 1
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = neighbor_masks[low.bit_length() - 1] & ~comp
            comp |= new
            frontier |= new
        unseen &= ~comp
        comps.append(comp)
    return comps


def _max_weight_independent_set(weights, neighbor_masks, budget):
    """MWIS of a conflict graph given as bitmasks, one connected component
    at a time: the maximum of a disjoint union is the sum of the maxima.

    Vertices must be pre-sorted by descending weight; each component is
    searched in place, on the whole graph's bitmasks.  All components share
    one budget; when it runs out the best set found so far is returned, not
    closed.
    Returns (best_weight, best_mask, closed); a search that stops early
    also leaves its upper bound on the best weight in budget.upper."""
    comps = _conflict_components(neighbor_masks)
    budget.components = len(comps)
    budget.largest = max((c.bit_count() for c in comps), default=0)
    best = 0
    best_mask = 0
    for pos, comp in enumerate(comps):
        part, part_mask, closed = _mwis_connected(weights, neighbor_masks, comp, budget)
        best += part
        best_mask |= part_mask
        if not closed:
            rest = 0  # the stopped component and those not reached
            for c in comps[pos:]:
                rest |= c
            budget.upper = best - part + _clique_cover_bound(weights, neighbor_masks, rest)
            return best, best_mask, False
    return best, best_mask, True


def _clique_cover_bound(weights, neighbor_masks, avail):
    """Upper bound on any independent set inside avail: cover avail greedily
    with cliques, each contributing its heaviest member.  Vertices must be
    pre-sorted by descending weight."""
    ub = 0
    rem = avail
    while rem:
        v = (rem & -rem).bit_length() - 1
        ub += weights[v]
        clique = 1 << v
        common = neighbor_masks[v] & rem
        while common:
            u = (common & -common).bit_length() - 1
            clique |= 1 << u
            common &= neighbor_masks[u]
        rem &= ~clique
    return ub


def _mwis_connected(weights, neighbor_masks, avail, budget):
    """Branch and reduce MWIS over the vertices of avail, a mask, in a
    conflict graph given as bitmasks.

    Vertices must be pre-sorted by descending weight.  At every node two
    reductions run on the graph induced by the available vertices until
    neither fires:

    - a vertex with no available neighbour is taken;
    - a vertex v is dropped when an available neighbour u has N[u] within
      N[v] (closed neighbourhoods among the available vertices) and
      w(u) >= w(v).  Exchange: in an independent set holding v, swap v for
      u.  u is not in the set (it is v's neighbour), and every other
      neighbour of u is a neighbour of v, so none is in the set either; the
      weight does not fall.  Some optimum therefore avoids v.

    Each step is exact on the graph it sees, so applying them one at a time
    is exact too.  The simplicial rule needs no code of its own: a vertex u
    whose N[u] is a clique and that is the heaviest of it dominates each
    neighbour v (N[u] lies in N[v] because v meets all of the clique), so
    its neighbours are dropped and u is then taken.

    Branching picks the most-conflicted vertex; the bound covers the
    available vertices greedily with cliques, each contributing its
    heaviest member.  The clock is read at every node and again after
    every 64 domination tests of its reductions: on a conflict graph of
    thousands of vertices one pass of them can take seconds.  A stop there
    keeps the node's taken vertices, an independent set, as the witness
    when they weigh more than the best.
    Returns (best_weight, best_mask, closed)."""
    best = 0
    best_mask = 0
    closed = True
    stack = [(avail, 0, 0)]
    while stack:
        avail, cur, chosen = stack.pop()
        if not budget.tick():
            closed = False
            break
        # the two reductions, until neither fires or the time runs out
        tested = 0  # the node's domination tests: a clock reading every 64
        while closed:
            rem = avail
            reduced = False
            while rem:
                low = rem & -rem
                rem ^= low
                v = low.bit_length() - 1
                near = neighbor_masks[v] & avail
                if not near:
                    # v is no vertex's available neighbour, so taking it
                    # lets no other reduction fire: no pass more is needed
                    cur += weights[v]
                    chosen |= low
                    avail ^= low
                    continue
                tested += 1
                if not tested & 63 and not budget.in_time():
                    closed = False
                    break
                # drop v if a neighbour at least as heavy has N[u] within N[v]
                closed_v = near | low
                w = weights[v]
                while near:
                    u_low = near & -near
                    near ^= u_low
                    u = u_low.bit_length() - 1
                    if weights[u] >= w and neighbor_masks[u] & avail & ~closed_v == 0:
                        avail ^= low
                        reduced = True
                        break
            if not reduced:
                break
        if cur > best:
            best = cur
            best_mask = chosen
        if not closed:
            break
        if not avail:
            continue
        if cur + _clique_cover_bound(weights, neighbor_masks, avail) <= best:
            continue
        # branch on the most conflicted available vertex
        rem = avail
        v = -1
        v_deg = -1
        while rem:
            low = rem & -rem
            rem &= rem - 1
            u = low.bit_length() - 1
            deg = (neighbor_masks[u] & avail).bit_count()
            if deg > v_deg:
                v, v_deg = u, deg
        bit = 1 << v
        # exclude first so the include branch is explored first (LIFO)
        stack.append((avail & ~bit, cur, chosen))
        stack.append((avail & ~(neighbor_masks[v] | bit), cur + weights[v], chosen | bit))
    return best, best_mask, closed


def _check_budgets(budget_nodes, budget_ms=None) -> None:
    """Refuse a budget an engine cannot honour, before any work: a node count
    that is not an int (bool and None included) or is negative, or a time
    that is not an int or float, is NaN or is negative (None: no deadline)."""
    if isinstance(budget_nodes, bool) or not isinstance(budget_nodes, int):
        raise ValueError("budget_nodes must be a node count, got %r" % (budget_nodes,))
    if budget_ms is not None and (isinstance(budget_ms, bool)
                                  or not isinstance(budget_ms, (int, float))
                                  or budget_ms != budget_ms):
        raise ValueError("budget_ms must be a number of milliseconds, got %r" % (budget_ms,))
    for name, value in (("budget_nodes", budget_nodes), ("budget_ms", budget_ms)):
        if value is not None and value < 0:
            raise ValueError("%s must not be negative, got %r" % (name, value))


# a forced entry as the witness's bit: -1 (free) reads 0 until a chosen
# candidate sets it
_AS_BIT = (0, 1, 0)


def ss_mis(
    abg: AmbiguousBreakpointGraph,
    k: int,
    budget_nodes: int = 1 << 22,
    budget_ms: Optional[float] = None,
) -> SolveResult:
    """Exact k-score maximum via maximum-weight independent set over the
    candidate components; finite k only.  budget_nodes caps the search nodes
    and budget_ms the wall time, read at every node and after every 64
    domination tests of a node's reductions; a search that either
    budget stops returns its best witness so far with optimal=False and an
    upper bound on the optimum in stats.upper_bound.

    The witness is the forced bits, with the free bits of the chosen
    candidates written over the free squares they hold and 0 at every
    other free square: a pass per square at C speed, then one write per
    chosen free bit.  stats.search_ms times the search."""
    _check_budgets(budget_nodes, budget_ms)
    t0 = time.monotonic()
    # Only resolutions that keep the forced bits need searching, so the
    # enumeration builds no candidate that contradicts one, and settles
    # without a search each candidate whose squares are all forced: it is a
    # component of every such resolution and conflicts with no candidate.
    forced = forced_choices(abg)
    t1 = time.monotonic()
    cset = enumerate_candidates(abg, k, forced)
    enumerate_ms = (time.monotonic() - t1) * 1000.0
    cands = sorted(cset.candidates, key=lambda c: (-c.weight2, c.vertices))
    t1 = time.monotonic()
    masks = conflict_masks(cands)
    conflict_ms = (time.monotonic() - t1) * 1000.0
    weights = [c.weight2 for c in cands]
    t1 = time.monotonic()
    budget = _SearchBudget(budget_nodes, budget_ms)
    best2x, best_mask, closed = _max_weight_independent_set(weights, masks, budget)
    search_ms = (time.monotonic() - t1) * 1000.0

    # the forced bits, 0 at a free square, then the chosen candidates' free
    # bits; the tuple is made from the list, as in check_resolution
    tau = [*map(_AS_BIT.__getitem__, forced)]
    for i in _bits(best_mask):
        for sq, bit in cands[i].choices:
            tau[sq] = bit
    tau = tuple(tau)
    stats = SolveStats(
        nodes=budget.spent,
        candidates=len(cset),
        wall_ms=(time.monotonic() - t0) * 1000.0,
        components=budget.components,
        largest_component=budget.largest,
        enumerate_ms=enumerate_ms,
        forced=abg.a_star - forced.count(-1),
        conflict_ms=conflict_ms,
        search_ms=search_ms,
    )
    fixed2x = cset.settled2x + len(abg.isolated)
    if not closed:
        stats.upper_bound = Fraction(budget.upper + fixed2x, 2)
    return _result(abg, tau, k, "mis", closed, stats, best2x + fixed2x)


_ENGINES = {"naive": ss_naive, "mis": ss_mis}
# the budgets each engine honours; greedy2 and oracle run to completion
_BUDGETS = {"naive": ("budget_nodes",), "mis": ("budget_nodes", "budget_ms"),
            "greedy2": (), "oracle": ()}


def _require_cognate(s: Genome, d: Genome, who: str) -> None:
    if classify_pair(s, d) != PairClass.ONE_TWO_COGNATE or not s.is_singular():
        raise GenomeError("%s needs a singular genome and its duplicated cognate" % who)


def dd(
    s: Genome,
    d: Genome,
    k,
    engine: str = "naive",
    budget_nodes: Optional[int] = None,
    budget_ms: Optional[float] = None,
) -> SolveResult:
    """Double distance of a [1.2]-cognate pair via the requested engine.
    A budget the engine does not honour raises ValueError."""
    check_k(k)
    if engine not in _BUDGETS:
        raise ValueError("unknown engine %r" % (engine,))
    budgets = {"budget_nodes": budget_nodes, "budget_ms": budget_ms}
    budgets = {name: value for name, value in budgets.items() if value is not None}
    for name in budgets:
        if name not in _BUDGETS[engine]:
            raise ValueError("engine %r does not honour %s" % (engine, name))
    if engine == "greedy2" and k != 2:
        raise ValueError("greedy2 engine only computes k=2")
    if engine in _ENGINES:
        # bad budgets are the engine's to refuse; build_abg's classify_pair
        # is the cognate check
        return _ENGINES[engine](build_abg(s, d), k, **budgets)
    value = dd_greedy_2(s, d) if engine == "greedy2" else dd_definition_oracle(s, d, k)
    return SolveResult(
        score=2 * len(s.identities) - value,
        dd=value,
        tau=None,
        optimal=True,
        engine=engine,
        stats=SolveStats(),
    )


def dd_definition_oracle(s: Genome, d: Genome, k) -> Fraction:
    """Definitional double distance: minimize d_k over all resolved
    doublings of s against a fixed singularization of d."""
    check_k(k)
    _require_cognate(s, d, "oracle")
    if s.n_star > 8:
        raise BudgetExceeded("dd_definition_oracle limited to n_star <= 8")
    d_check = singularize(d)
    return min(distance(b, d_check, k) for b in enumerate_resolved_doublings(s))


def dd_greedy_2(s: Genome, d: Genome) -> Fraction:
    """Linear-time breakpoint double distance from multiset intersections:
    2n - |A(2S) ^ A(D)| - |T(2S) ^ T(D)|/2.  Keeping every common adjacency,
    a 2-cycle, is `abg.forced_choices`'s rule taken at k = 2."""
    _require_cognate(s, d, "dd_greedy_2")
    a2, t2, _ = double(s)
    common_a = sum((a2 & d.adjacencies).values())
    common_t = sum((t2 & d.telomeres).values())
    return 2 * len(s.identities) - common_a - Fraction(common_t, 2)
