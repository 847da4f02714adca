"""Exact engines for the k-score maximization and the double distance.

Two independent routes: `ss_naive` sweeps all 2^a_star resolutions;
`ss_mis` enumerates short candidate components and solves a maximum-weight
independent set on their conflict graph by branch and bound, one connected
component of that graph at a time.  Both return
the same scores; `dd_definition_oracle` re-derives the double distance from
its definition without touching the ambiguous-graph machinery at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import _kernels
from .abg import AmbiguousBreakpointGraph, build_abg, enumerate_candidates, score
from .bpgraph import BudgetExceeded, _Infinity, check_k, distance
from .genomes import (
    Genome,
    GenomeError,
    PairClass,
    classify_pair,
    enumerate_resolved_doublings,
    singularize,
)


@dataclass
class SolveStats:
    """Search record: nodes visited, candidates, wall time, and for `mis`
    the conflict-graph components searched one by one and the candidates in
    the largest of them.  When a budget stops the `mis` search, upper_bound
    bounds the optimal score: the scores of the components it closed plus
    the root clique-cover bound of the rest; it stays None otherwise."""
    nodes: int = 0
    candidates: int = 0
    wall_ms: float = 0.0
    components: int = 0
    largest_component: int = 0
    upper_bound: Optional[Fraction] = None


@dataclass
class SolveResult:
    score: Fraction
    dd: Fraction
    tau: Optional[tuple]
    optimal: bool
    engine: str
    stats: SolveStats = field(default_factory=SolveStats)


def _result(abg, tau, k, engine, optimal, stats) -> SolveResult:
    actual = score(abg, tau, k)
    dd_value = Fraction(abg.n_star_doubled) - actual
    return SolveResult(actual, dd_value, tau, optimal, engine, stats)


def ss_naive(
    abg: AmbiguousBreakpointGraph,
    k,
    budget_nodes: int = 1 << 25,
) -> SolveResult:
    """Exact k-score maximum by exhausting all resolutions; ties keep the
    lowest bit pattern."""
    check_k(k)
    _check_budgets(budget_nodes=budget_nodes)
    t0 = time.monotonic()
    total = 1 << abg.a_star
    if abg.a_star > 25:
        raise BudgetExceeded(
            "ss_naive is capped at 25 squares, the graph has %d" % abg.a_star
        )
    if total > budget_nodes:
        raise BudgetExceeded(
            "ss_naive needs 2^%d resolutions, over the budget of %d nodes"
            % (abg.a_star, budget_nodes)
        )
    kcap = -1 if isinstance(k, _Infinity) else k
    best2x, tau_int, explored = _kernels.best_resolution(
        abg.sq_id, abg.e_part, abg.t_part, abg.d_part, abg.a_star, kcap, budget_nodes
    )
    if explored < total:
        raise BudgetExceeded("ss_naive budget exhausted after %d nodes" % explored)
    tau = tuple((tau_int >> i) & 1 for i in range(abg.a_star))
    stats = SolveStats(nodes=explored, candidates=0,
                       wall_ms=(time.monotonic() - t0) * 1000.0)
    result = _result(abg, tau, k, "naive", True, stats)
    claimed = Fraction(best2x, 2)
    if result.score != claimed:
        raise RuntimeError(
            "ss_naive witness re-scores to %s, the sweep reported %s"
            % (result.score, claimed)
        )
    return result


class _SearchBudget:
    """Node and wall-clock allowance shared by every component of one search.
    The clock is read on every node; budget_ms=0 stops at the first node."""

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

    Vertices must be pre-sorted by descending weight; each component keeps
    that order under its own indices.  All components share one budget; when
    it runs out the best set found so far is returned, not closed.
    Returns (best_weight, best_mask, closed); a search that stops early
    also leaves its upper bound on the best weight in budget.upper."""
    comps = _conflict_components(neighbor_masks)
    budget.components = len(comps)
    budget.largest = max((c.bit_count() for c in comps), default=0)
    best = 0
    best_mask = 0
    for pos, comp in enumerate(comps):
        verts = _bits(comp)
        local = {v: i for i, v in enumerate(verts)}
        masks = [sum(1 << local[u] for u in _bits(neighbor_masks[v])) for v in verts]
        part, part_mask, closed = _mwis_connected([weights[v] for v in verts], masks, budget)
        best += part
        for i in _bits(part_mask):
            best_mask |= 1 << verts[i]
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


def _mwis_connected(weights, neighbor_masks, budget):
    """Branch and bound MWIS over a conflict graph given as bitmasks.

    Vertices must be pre-sorted by descending weight.  Conflict-free
    vertices are taken outright; branching picks the most-conflicted
    vertex; the bound covers the available vertices greedily with cliques,
    each contributing its heaviest member.
    Returns (best_weight, best_mask, closed)."""
    n = len(weights)
    best = 0
    best_mask = 0
    full = (1 << n) - 1
    closed = True
    stack = [(full, 0, 0)]
    while stack:
        avail, cur, chosen = stack.pop()
        if not budget.tick():
            closed = False
            break
        # take every vertex with no remaining conflicts
        while True:
            rem = avail
            grabbed = False
            while rem:
                low = rem & -rem
                rem &= rem - 1
                v = low.bit_length() - 1
                if neighbor_masks[v] & avail == 0:
                    cur += weights[v]
                    chosen |= low
                    avail &= ~low
                    grabbed = True
            if not grabbed:
                break
        if cur > best:
            best = cur
            best_mask = chosen
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


def _check_budgets(**budgets) -> None:
    for name, value in budgets.items():
        if value is not None and value < 0:
            raise ValueError("%s must not be negative, got %r" % (name, value))


def ss_mis(
    abg: AmbiguousBreakpointGraph,
    k: int,
    budget_nodes: int = 1 << 22,
    budget_ms: Optional[float] = None,
) -> SolveResult:
    """Exact k-score maximum via maximum-weight independent set over the
    candidate components; finite k only.  budget_nodes caps the search nodes
    and budget_ms the wall time, read at every node; a search that either
    budget stops returns its best witness so far with optimal=False and an
    upper bound on the optimum in stats.upper_bound."""
    k = check_k(k)
    if not isinstance(k, int):
        raise ValueError("ss_mis needs finite k")
    _check_budgets(budget_nodes=budget_nodes, budget_ms=budget_ms)
    t0 = time.monotonic()
    cset = enumerate_candidates(abg, k)
    cands = sorted(cset.candidates, key=lambda c: (-c.weight2, c.vertices))
    n = len(cands)
    vert_touch = {}
    choice_touch = {}
    for i, c in enumerate(cands):
        for v in c.vertices:
            vert_touch.setdefault(v, []).append(i)
        for sq, bit in c.choices:
            choice_touch.setdefault((sq, bit), []).append(i)
    masks = [0] * n
    for group in vert_touch.values():
        for i in group:
            for j in group:
                if i != j:
                    masks[i] |= 1 << j
    for (sq, bit), group in choice_touch.items():
        other = choice_touch.get((sq, 1 - bit), ())
        for i in group:
            for j in other:
                if i != j:
                    masks[i] |= 1 << j
    budget = _SearchBudget(budget_nodes, budget_ms)
    weights = [c.weight2 for c in cands]
    best2x, best_mask, closed = _max_weight_independent_set(weights, masks, budget)

    choices = {}
    for i in range(n):
        if (best_mask >> i) & 1:
            choices.update(dict(cands[i].choices))
    tau = tuple(choices.get(i, 0) for i in range(abg.a_star))
    stats = SolveStats(
        nodes=budget.spent,
        candidates=n,
        wall_ms=(time.monotonic() - t0) * 1000.0,
        components=budget.components,
        largest_component=budget.largest,
    )
    if not closed:
        stats.upper_bound = Fraction(budget.upper + cset.isolated_count, 2)
    result = _result(abg, tau, k, "mis", closed, stats)
    claimed = Fraction(best2x + cset.isolated_count, 2)
    if closed and result.score != claimed:
        raise RuntimeError(
            "ss_mis witness re-scores to %s, the search reported %s"
            % (result.score, claimed)
        )
    return result


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
    _check_budgets(**budgets)
    if engine == "greedy2" and k != 2:
        raise ValueError("greedy2 engine only computes k=2")
    if engine in _ENGINES:
        _require_cognate(s, d, "dd()")
        return _ENGINES[engine](build_abg(s, singularize(d)), k, **budgets)
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
    2n - |A(2S) ^ A(D)| - |T(2S) ^ T(D)|/2."""
    _require_cognate(s, d, "dd_greedy_2")
    a2 = s.adjacencies + s.adjacencies
    t2 = s.telomeres + s.telomeres
    common_a = sum((a2 & d.adjacencies).values())
    common_t = sum((t2 & d.telomeres).values())
    return 2 * len(s.identities) - common_a - Fraction(common_t, 2)
