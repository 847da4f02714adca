"""Executable reduction from restricted 3-SAT to k-score disambiguation.

Instances are normalized so every clause has 2 or 3 literals of distinct
variables, every variable occurs 2 or 3 times, and 3-occurrence variables
appear twice positive / once negative.  The builder then wires, per the
gadget catalog: a 6-square gadget per variable (two competing k-cycles
encoding true/false), a 2-square routing gadget per literal occurrence,
and a 6-square gadget per clause (one competing k-cycle per literal),
all padded with open flowers so no alternating cycle is shorter than k.
For k >= 10 selected connecting edges are stretched by square chains and
the flowers grow accordingly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from .abg import (
    AmbiguousBreakpointGraph,
    Square,
    _trusted_graph,
    enumerate_candidates,
    resolve,
)
from .bpgraph import ComponentCensus
from .genomes import (
    CIRCULAR,
    LINEAR,
    _GENE_TABLES,
    _INDEXED,
    _ONE_GENE_TABLES,
    _PLAIN,
    Chromosome,
    Genome,
    GenomeError,
    _new,
    _trace,
)


class SatError(ValueError):
    """Instance outside the supported SAT fragment."""


# -- instances -------------------------------------------------------------


@dataclass(frozen=True)
class SatInstance:
    """A CNF formula, with the renaming that `normalize` applied to it."""

    var_count: int
    clauses: tuple
    flipped: frozenset = frozenset()  # original ids with inverted polarity
    eliminated: tuple = ()  # ((original id, value), ...) fixed by pure literals
    var_map: tuple = ()  # new id (position 0 = id 1) -> original id

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.clauses)

    def _vars_occurring(self, times):
        counts = _polarity(self.clauses)
        return [v for v in range(1, self.var_count + 1) if sum(counts.get(v, (0, 0))) == times]

    def ttf_vars(self):
        return self._vars_occurring(3)

    def tf_vars(self):
        return self._vars_occurring(2)

    def two_clauses(self):
        return [i for i, c in enumerate(self.clauses) if len(c) == 2]

    def three_clauses(self):
        return [i for i, c in enumerate(self.clauses) if len(c) == 3]

    def restore_assignment(self, values: dict) -> dict:
        """Map an assignment on normalized variables back to original ids."""
        out = dict(self.eliminated)
        for new_id, orig in enumerate(self.var_map, start=1):
            v = bool(values[new_id])
            out[orig] = (not v) if orig in self.flipped else v
        return out

    def normalized_assignment(self, values: dict) -> dict:
        """Map an assignment on original ids to the normalized variables,
        the inverse of `restore_assignment`; eliminated ids are ignored."""
        missing = [orig for orig in self.var_map if orig not in values]
        if missing:
            raise SatError("assignment incomplete: missing variables %r" % missing)
        return {
            new_id: bool(values[orig]) != (orig in self.flipped)
            for new_id, orig in enumerate(self.var_map, start=1)
        }


def _polarity(clauses) -> dict:
    """variable -> (positive, negative) occurrence counts over the clauses."""
    counts = {}
    for clause in clauses:
        for lit in clause:
            pos, neg = counts.get(abs(lit), (0, 0))
            counts[abs(lit)] = (pos + 1, neg) if lit > 0 else (pos, neg + 1)
    return counts


def parse_cnf(text: str) -> SatInstance:
    """Parse the DIMACS CNF subset: `c` comments, one `p cnf V C` header,
    zero-terminated clauses."""
    var_count = None
    clause_count = None
    clauses = []
    current = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            try:
                counts = [int(t) for t in parts[2:]]
            except ValueError:
                counts = []
            if (len(parts) != 4 or parts[1] != "cnf" or var_count is not None
                    or not counts or min(counts) < 0):
                raise SatError("line %d: bad problem header %r" % (lineno, line))
            var_count, clause_count = counts
            continue
        if var_count is None:
            raise SatError("line %d: clause before `p cnf` header" % lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise SatError("line %d: bad literal %r" % (lineno, tok))
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                if not 1 <= abs(lit) <= var_count:
                    raise SatError("line %d: literal %d out of range" % (lineno, lit))
                current.append(lit)
    if current:
        raise SatError("trailing clause without terminating 0")
    if var_count is None:
        raise SatError("missing `p cnf` header")
    if clause_count != len(clauses):
        raise SatError(
            "header announces %d clauses, found %d" % (clause_count, len(clauses))
        )
    return SatInstance(var_count, tuple(clauses))


def normalize(inst: SatInstance) -> SatInstance:
    """Flip polarities so 3-occurrence variables are pos-pos-neg, eliminate
    pure literals (with their clauses) to a fixpoint, renumber variables,
    and record the renaming so assignments translate back."""
    clauses = [tuple(c) for c in inst.clauses]
    for c in clauses:
        if len({abs(lit) for lit in c}) != len(c):
            raise SatError("clause %r has duplicate or contradictory literals" % (c,))
        if len(c) not in (2, 3):
            raise SatError("clause %r has size %d, need 2 or 3" % (c, len(c)))

    eliminated = {}
    active = clauses
    while True:
        polarity = _polarity(active)
        pure = {v: pos > 0 for v, (pos, neg) in polarity.items() if pos == 0 or neg == 0}
        if not pure:
            break
        eliminated.update(pure)
        active = [c for c in active if not any(abs(lit) in pure for lit in c)]
    for v in range(1, inst.var_count + 1):
        if v not in eliminated and v not in polarity:
            eliminated[v] = True  # unused variable, value arbitrary

    # every variable left occurs with both signs, so a total of at most 3
    # means the profile (1, 1), (2, 1) or (1, 2); the last one is flipped
    for v, (pos, neg) in polarity.items():
        if pos + neg > 3:
            raise SatError(
                "instance outside (2,3)-SAT fragment: variable %d occurs %d times"
                % (v, pos + neg)
            )
    flipped = {v for v, (pos, neg) in polarity.items() if neg == 2}

    remaining = sorted(polarity)
    renumber = {orig: i + 1 for i, orig in enumerate(remaining)}

    def rename(lit):
        v = renumber[abs(lit)]
        return v if (lit > 0) != (abs(lit) in flipped) else -v

    return SatInstance(
        var_count=len(remaining),
        clauses=tuple(tuple(map(rename, c)) for c in active),
        flipped=frozenset(flipped),
        eliminated=tuple(sorted(eliminated.items())),
        var_map=tuple(remaining),
    )


def check_normalized(inst: SatInstance):
    for clause in inst.clauses:
        if len(clause) not in (2, 3):
            raise SatError("clause %r has size %d" % (clause, len(clause)))
        if len({abs(l) for l in clause}) != len(clause):
            raise SatError("clause %r repeats a variable" % (clause,))
    counts = _polarity(inst.clauses)
    for v in range(1, inst.var_count + 1):
        profile = counts.get(v, (0, 0))
        if profile not in ((2, 1), (1, 1)):
            raise SatError(
                "variable %d has polarity profile %r; instance not normalized"
                % (v, profile)
            )


@dataclass
class Assignment:
    values: dict  # var -> bool
    witnesses: dict = field(default_factory=dict)  # clause index -> literal

    def satisfies(self, clause) -> bool:
        return any(
            (lit > 0) == bool(self.values[abs(lit)]) for lit in clause
        )


def sat_brute(inst: SatInstance):
    """Exhaustive satisfiability check, returns (bool, witness | None)."""
    if inst.var_count > 24:
        raise SatError("sat_brute limited to 24 variables")
    n = inst.var_count
    masks = []
    for clause in inst.clauses:
        pos = 0
        neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    full = (1 << n) - 1
    for m in range(1 << n):
        inv = full & ~m
        if all((pos & m) or (neg & inv) for pos, neg in masks):
            values = {v: bool((m >> (v - 1)) & 1) for v in range(1, n + 1)}
            return True, Assignment(values)
    return False, None


# -- graph construction ----------------------------------------------------


@dataclass
class VarGadget:
    var: int
    kind: str  # "TTF" | "TF"
    squares: list  # Q1..Q6 square indices
    theta: dict  # "T"/"F" -> {square: bit} (the cycle requirement)
    connectors: dict  # label -> (stub vertices, {square: bit} path pattern)
    value_bits: dict  # True/False -> {square: bit} for all six squares


@dataclass
class WGadget:
    clause: int
    pos: int  # 1-based literal position
    literal: int
    squares: list  # [Q1, Q2]
    x_cycle: dict = field(default_factory=dict)  # full choices of the X-side k-cycle
    y_cycle: dict = field(default_factory=dict)


@dataclass
class ClauseGadget:
    index: int
    size: int
    squares: list  # Q1..Q6
    theta: dict  # position -> {square: bit}, cycle requirement incl. chains
    y_paths: dict  # position -> {square: bit} (the W_i..W_i 3-path)
    w_stubs: dict  # position -> stub vertex pair
    witness_bits: dict  # position -> {square: bit} for all six squares


@dataclass
class Flower:
    p: int
    squares: list


@dataclass
class ExtChain:
    squares: list


@dataclass
class ReductionOutput:
    graph: AmbiguousBreakpointGraph
    instance: SatInstance
    k: int
    shape: str
    var_gadgets: list
    w_gadgets: list
    clause_gadgets: list
    flowers: list
    extensions: list
    nu: int  # vertices before padding
    isolated_count: int
    ell: int
    p: int
    m: int
    bound: Fraction

    def registry_cycles(self):
        """All registered candidate k-cycles as (name, choices dict)."""
        out = []
        for vg in self.var_gadgets:
            for val in ("T", "F"):
                out.append(("x%d.theta_%s" % (vg.var, val), vg.theta[val]))
        for cg in self.clause_gadgets:
            for pos, pattern in sorted(cg.theta.items()):
                out.append(("y%d.theta_%d" % (cg.index + 1, pos), pattern))
        for wg in self.w_gadgets:
            name = "y%d.w%d" % (wg.clause + 1, wg.pos)
            out.append((name + ".x_cycle", wg.x_cycle))
            out.append((name + ".y_cycle", wg.y_cycle))
        return out


class _Builder:
    """Builds a reduction graph valid by construction.  The vertices are
    numbered by a counter: square i's corners v1..v4 are 4i..4i + 3, and the
    padding vertices come after the squares'.  The builder lists the squares
    and fixed edges, which the graph's `_fill` turns into its vertex arrays,
    and keeps one name per square, from which the labels are made when
    first read."""

    def __init__(self, ell=0, p=0):
        self.names = []  # per square
        self.squares = []
        self.d_edges = []
        self.ell = ell  # squares per extension chain
        self.p = p  # squares per open flower
        self.flowers = []
        self.extensions = []

    def square(self, name, solid="12"):
        """Four corners v1..v4; choice 0 keeps {v1-v2, v3-v4} when solid is
        "12", or {v1-v4, v3-v2} when solid is "14"."""
        idx = len(self.squares)
        c = c1, c2, c3, c4 = (4 * idx, 4 * idx + 1, 4 * idx + 2, 4 * idx + 3)
        if solid == "12":
            square = (c1, c2, c3, c4)
        elif solid == "14":
            square = (c1, c4, c3, c2)
        else:
            raise ValueError(solid)
        self.names.append(name)
        self.squares.append(_new(Square, square))
        return idx, c

    def edge(self, a, b):
        self.d_edges.append((a, b))

    def graph(self, padding=0) -> AmbiguousBreakpointGraph:
        """The graph built so far, with `padding` more vertices, in no square
        and on no fixed edge, after the squares' vertices."""
        return _trusted_graph(
            "the reduction builder", partial(_square_labels, tuple(self.names), padding),
            4 * len(self.squares) + padding, tuple(self.squares), tuple(self.d_edges))

    def open_flower(self, host, attach_a, attach_b):
        p = self.p
        squares = []
        corners = []
        for i in range(p):
            idx, c = self.square("%s.fl%d" % (host, i), solid="12")
            squares.append(idx)
            corners.append(c)
        for i in range(p - 1):
            # out pair of square i = (v2, v4); in pair of square i+1 = (v1, v3)
            self.edge(corners[i][1], corners[i + 1][0])
            self.edge(corners[i][3], corners[i + 1][2])
        self.edge(corners[p - 1][1], corners[0][0])  # closing plain edge
        self.edge(corners[p - 1][3], attach_a)  # the opened hatted edge
        self.edge(corners[0][2], attach_b)
        self.flowers.append(Flower(p, squares))

    def chain(self, host, u, v):
        """Connect u..v through ell pass-through squares, each with its own
        open flower; ell == 0 is a plain edge."""
        if self.ell == 0:
            self.edge(u, v)
            return []
        squares = []
        prev = u
        for i in range(self.ell):
            idx, c = self.square("%s.ext%d" % (host, i), solid="12")
            squares.append(idx)
            self.edge(prev, c[3])  # in corner v4
            prev = c[2]  # out corner v3
            self.open_flower("%s.ext%d" % (host, i), c[0], c[1])
        self.edge(prev, v)
        self.extensions.append(ExtChain(squares))
        return squares


def _square_labels(names, padding):
    """The labels of a built graph: each square's corners as
    <square name>.v1 .. .v4, then the padding vertices as iso.<i>."""
    labels = ["%s.v%d" % (name, i) for name in names for i in (1, 2, 3, 4)]
    labels += ["iso.%d" % i for i in range(padding)]
    return labels


def _six_square_block(b, name, solids):
    """The shared 2x3 block of variable and clause gadgets; returns square
    ids, corners and the middle chain, with all 7 connecting edges added."""
    sq = []
    corners = []
    for j in range(6):
        idx, c = b.square("%s.Q%d" % (name, j + 1), solid=solids[j])
        sq.append(idx)
        corners.append(c)
    q = corners
    b.edge(q[0][1], q[1][3])  # Q1.v2 - Q2.v4
    b.edge(q[0][0], q[3][2])  # Q1.v1 - Q4.v3
    b.edge(q[1][1], q[2][3])  # Q2.v2 - Q3.v4
    b.edge(q[2][0], q[5][2])  # Q3.v1 - Q6.v3
    b.edge(q[3][1], q[4][3])  # Q4.v2 - Q5.v4
    b.edge(q[4][1], q[5][3])  # Q5.v2 - Q6.v4
    chain = b.chain(name + ".mid", q[1][0], q[4][2])  # middle edge Q2.v1 - Q5.v3
    return sq, corners, chain


def _chain_bits(chain):
    return {c: 0 for c in chain}


@dataclass(frozen=True)
class _Sizes:
    """What the construction builds for an instance at a given k, derived
    from the formula alone."""

    ell: int  # squares per extension chain
    p: int  # squares per flower
    m: int  # connecting edges that chains stretch when ell > 0
    flowers: int  # chain flowers included
    squares: int
    candidates: int  # registered k-cycles
    base_bound: int  # |X| + |Y| + size

    def bound(self, shape: str) -> Fraction:
        """The score reached exactly by the encodings of satisfying
        assignments: |X| + |Y| + size, plus half the padding vertices (4 per
        square) for linear shape."""
        bound = Fraction(self.base_bound)
        if shape == LINEAR:
            bound += 2 * self.squares
        return bound


def _size_model(inst: SatInstance, k: int) -> _Sizes:
    ell = (k - 8) // 2
    p = k // 2 + 1
    n_two, n_three = len(inst.two_clauses()), len(inst.three_clauses())
    # a chain per variable, clause and literal gadget, and per 3-clause theta_3
    m = inst.var_count + inst.size + len(inst.clauses) + n_three
    # three per TF variable and 2-clause, two per TTF variable, one per
    # literal gadget and one per chain square
    flowers = 2 * len(inst.ttf_vars()) + 3 * len(inst.tf_vars()) + 3 * n_two + inst.size + ell * m
    # six per variable or clause block, two per literal gadget, p per flower
    # and ell per chain
    squares = 6 * inst.var_count + 6 * len(inst.clauses) + 2 * inst.size + p * flowers + ell * m
    return _Sizes(
        ell=ell,
        p=p,
        m=m,
        flowers=flowers,
        squares=squares,
        candidates=2 * inst.var_count + 2 * n_two + 3 * n_three + 2 * inst.size,
        base_bound=inst.var_count + len(inst.clauses) + inst.size,
    )


def _check_k_shape(k, shape):
    """Refuse a k or shape that the construction does not cover."""
    if not (isinstance(k, int) and k >= 8 and k % 2 == 0):
        raise ValueError("k must be an even integer >= 8, got %r" % (k,))
    if shape not in (CIRCULAR, LINEAR):
        raise ValueError("shape must be circular or linear")


def build_reduction(inst: SatInstance, k: int = 8, shape: str = CIRCULAR) -> ReductionOutput:
    """Build the ambiguous breakpoint graph encoding the instance."""
    check_normalized(inst)
    _check_k_shape(k, shape)
    if not inst.clauses:
        raise SatError("instance has no clauses after normalization")
    sizes = _size_model(inst, k)
    b = _Builder(sizes.ell, sizes.p)

    var_gadgets = {}
    ttf = set(inst.ttf_vars())
    for var in range(1, inst.var_count + 1):
        kind = "TTF" if var in ttf else "TF"
        name = "x%d" % var
        solids = ("14", "12", "14", "12", "14", "12")
        sq, q, chain = _six_square_block(b, name, solids)
        mid = _chain_bits(chain)
        theta_t = {sq[1]: 0, sq[2]: 0, sq[4]: 0, sq[5]: 0, **mid}
        theta_f = {sq[0]: 1, sq[1]: 1, sq[3]: 1, sq[4]: 1, **mid}
        connectors = {"F": ([q[2][1], q[5][1]], {sq[2]: 1, sq[5]: 1})}
        if kind == "TTF":
            connectors["T1"] = ([q[0][2], q[1][2]], {sq[0]: 0, sq[1]: 0})
            connectors["T2"] = ([q[3][0], q[4][0]], {sq[3]: 0, sq[4]: 0})
            attach_pairs = [(q[0][3], q[3][3]), (q[2][2], q[5][0])]
        else:
            connectors["T"] = ([q[0][2], q[1][2]], {sq[0]: 0, sq[1]: 0})
            attach_pairs = [
                (q[0][3], q[3][3]),
                (q[2][2], q[5][0]),
                (q[3][0], q[4][0]),
            ]
        for i, (ga, gb) in enumerate(attach_pairs):
            b.open_flower("%s.f%d" % (name, i), ga, gb)
        var_gadgets[var] = VarGadget(
            var=var,
            kind=kind,
            squares=sq,
            theta={"T": theta_t, "F": theta_f},
            connectors=connectors,
            value_bits={True: {s: 0 for s in sq}, False: {s: 1 for s in sq}},
        )

    clause_gadgets = []
    for ci, clause in enumerate(inst.clauses):
        name = "y%d" % (ci + 1)
        if len(clause) == 2:
            solids = ("12", "14", "12", "14", "12", "14")
            sq, q, chain = _six_square_block(b, name, solids)
            mid = _chain_bits(chain)
            theta = {
                1: {sq[0]: 0, sq[1]: 0, sq[3]: 0, sq[4]: 0, **mid},
                2: {sq[1]: 1, sq[2]: 1, sq[4]: 1, sq[5]: 1, **mid},
            }
            y_paths = {
                1: {sq[0]: 1, sq[3]: 1},
                2: {sq[4]: 0, sq[5]: 0},
            }
            w_stubs = {1: [q[0][3], q[3][3]], 2: [q[4][0], q[5][0]]}
            witness_bits = {1: {s: 0 for s in sq}, 2: {s: 1 for s in sq}}
            for i, (ga, gb) in enumerate(
                [(q[0][2], q[1][2]), (q[2][1], q[5][1]), (q[2][2], q[3][0])]
            ):
                b.open_flower("%s.f%d" % (name, i), ga, gb)
        else:
            solids = ("12", "14", "14", "14", "12", "12")
            sq, q, chain = _six_square_block(b, name, solids)
            extra = b.chain(name + ".t3", q[0][3], q[5][1])
            b.edge(q[2][1], q[3][3])  # the second long edge Q3.v2 - Q4.v4
            mid = _chain_bits(chain)
            ext3 = _chain_bits(extra)
            theta = {
                1: {sq[0]: 0, sq[1]: 0, sq[3]: 0, sq[4]: 0, **mid},
                2: {sq[1]: 1, sq[2]: 0, sq[4]: 1, sq[5]: 0, **mid},
                3: {sq[0]: 1, sq[2]: 1, sq[3]: 1, sq[5]: 1, **ext3},
            }
            y_paths = {
                1: {sq[0]: 1, sq[1]: 1},
                2: {sq[4]: 0, sq[5]: 1},
                3: {sq[2]: 0, sq[3]: 0},
            }
            w_stubs = {
                1: [q[0][2], q[1][2]],
                2: [q[4][0], q[5][0]],
                3: [q[2][2], q[3][0]],
            }
            witness_bits = {
                1: {sq[0]: 0, sq[1]: 0, sq[2]: 0, sq[3]: 0, sq[4]: 0, sq[5]: 1},
                2: {sq[0]: 1, sq[1]: 1, sq[2]: 0, sq[3]: 0, sq[4]: 1, sq[5]: 0},
                3: {sq[0]: 1, sq[1]: 1, sq[2]: 1, sq[3]: 1, sq[4]: 0, sq[5]: 1},
            }
        clause_gadgets.append(
            ClauseGadget(
                index=ci,
                size=len(clause),
                squares=sq,
                theta=theta,
                y_paths=y_paths,
                w_stubs=w_stubs,
                witness_bits=witness_bits,
            )
        )

    w_gadgets = []
    used_t = {var: 0 for var in var_gadgets}
    for ci, clause in enumerate(inst.clauses):
        cg = clause_gadgets[ci]
        for pos, lit in enumerate(clause, start=1):
            var = abs(lit)
            vg = var_gadgets[var]
            name = "y%d.w%d" % (ci + 1, pos)
            sq1, c1 = b.square(name + ".Q1", solid="14")
            sq2, c2 = b.square(name + ".Q2", solid="14")
            chain = b.chain(name + ".mid", c1[3], c2[0])
            b.open_flower(name + ".f0", c1[1], c2[2])
            x_stubs = [c1[0], c2[3]]
            y_stubs = [c1[2], c2[1]]
            if lit < 0:
                connector = "F"
            elif vg.kind == "TF":
                connector = "T"
            else:
                used_t[var] += 1
                connector = "T%d" % used_t[var]
            vstubs, vpattern = vg.connectors[connector]
            b.edge(vstubs[0], x_stubs[0])
            b.edge(vstubs[1], x_stubs[1])
            cstubs = cg.w_stubs[pos]
            b.edge(cstubs[0], y_stubs[0])
            b.edge(cstubs[1], y_stubs[1])
            wmid = _chain_bits(chain)
            w_gadgets.append(
                WGadget(
                    clause=ci,
                    pos=pos,
                    literal=lit,
                    squares=[sq1, sq2],
                    x_cycle={sq1: 0, sq2: 0, **wmid, **vpattern},
                    y_cycle={sq1: 1, sq2: 1, **wmid, **cg.y_paths[pos]},
                )
            )

    nu = 4 * len(b.squares)
    isolated_count = nu if shape == LINEAR else 0
    return ReductionOutput(
        graph=b.graph(isolated_count),
        instance=inst,
        k=k,
        shape=shape,
        var_gadgets=[var_gadgets[v] for v in sorted(var_gadgets)],
        w_gadgets=w_gadgets,
        clause_gadgets=clause_gadgets,
        flowers=b.flowers,
        extensions=b.extensions,
        nu=nu,
        isolated_count=isolated_count,
        ell=sizes.ell,
        p=sizes.p,
        m=sizes.m,
        bound=sizes.bound(shape),
    )


def score_bound(inst: SatInstance, shape: str = CIRCULAR, k: int = 8) -> Fraction:
    """The score reached exactly by the encodings of satisfying assignments
    of a normalized instance (`_Sizes.bound`), for the k and shape that
    `build_reduction` accepts."""
    check_normalized(inst)
    _check_k_shape(k, shape)
    return _size_model(inst, k).bound(shape)


# -- assignments and solutions ----------------------------------------------


def assignment_to_solution(r: ReductionOutput, a: Assignment):
    """Resolution encoding an assignment: per-variable theta side, the
    witness theta per clause, X-side routing for witness literals and
    Y-side for the rest; flowers and extension squares stay at choice 0."""
    values = a.values
    missing = [v for v in range(1, r.instance.var_count + 1) if v not in values]
    if missing:
        raise SatError("assignment incomplete: missing variables %r" % missing)
    bits = [0] * r.graph.a_star

    def apply(pattern):
        for s, bit in pattern.items():
            bits[s] = bit

    for vg in r.var_gadgets:
        apply(vg.value_bits[bool(values[vg.var])])

    witness_pos = {}
    for cg in r.clause_gadgets:
        clause = r.instance.clauses[cg.index]
        pos = None
        lit = a.witnesses.get(cg.index)
        if lit is not None:
            if lit not in clause:
                raise SatError(
                    "witness %d is not a literal of clause %r" % (lit, clause)
                )
            pos = clause.index(lit) + 1
        else:
            for i, l in enumerate(clause, start=1):
                if (l > 0) == bool(values[abs(l)]):
                    pos = i
                    break
            if pos is None:
                pos = 1  # unsatisfied clause: fall back to the first cycle
        witness_pos[cg.index] = pos
        apply(cg.witness_bits[pos])

    for wg in r.w_gadgets:
        route = 0 if witness_pos[wg.clause] == wg.pos else 1
        bits[wg.squares[0]] = route
        bits[wg.squares[1]] = route
    return tuple(bits)


def solution_to_assignment(r: ReductionOutput, tau) -> Optional[Assignment]:
    """Read an assignment back from a resolution; None when any gadget
    deviates from its registered patterns."""
    tau = r.graph.check_resolution(tau)

    def matches(pattern):
        return all(tau[s] == bit for s, bit in pattern.items())

    values = {}
    for vg in r.var_gadgets:
        t_ok = matches({s: b for s, b in vg.theta["T"].items() if s in vg.squares})
        f_ok = matches({s: b for s, b in vg.theta["F"].items() if s in vg.squares})
        if t_ok == f_ok:
            return None
        values[vg.var] = t_ok

    witnesses = {}
    for cg in r.clause_gadgets:
        hit = [
            pos
            for pos, pattern in sorted(cg.theta.items())
            if matches({s: b for s, b in pattern.items() if s in cg.squares})
        ]
        if len(hit) != 1:
            return None
        witnesses[cg.index] = r.instance.clauses[cg.index][hit[0] - 1]

    for wg in r.w_gadgets:
        b0 = tau[wg.squares[0]]
        if b0 != tau[wg.squares[1]]:
            return None
        is_witness = witnesses[wg.clause] == r.instance.clauses[wg.clause][wg.pos - 1]
        if b0 != (0 if is_witness else 1):
            return None
    return Assignment(values, witnesses)


# -- structural verification -------------------------------------------------


@dataclass
class FlowerReport:
    p: int
    resolutions: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def build_closed_flower(p: int) -> AmbiguousBreakpointGraph:
    """A closed ring of p squares, each doubly linked to its neighbors."""
    if p < 2:
        raise ValueError("flower needs p >= 2")
    b = _Builder()
    corners = []
    for i in range(p):
        _, c = b.square("fl%d" % i, solid="12")
        corners.append(c)
    for i in range(p):
        j = (i + 1) % p
        b.edge(corners[i][1], corners[j][0])
        b.edge(corners[i][3], corners[j][2])
    return b.graph()


def verify_flower(p: int) -> FlowerReport:
    """Exhaustively check the parity law on a closed flower: an even number
    of complementary choices yields two 2p-cycles, odd a single 4p-cycle."""
    if not 3 <= p <= 10:
        raise ValueError("verify_flower supports 3 <= p <= 10")
    abg = build_closed_flower(p)
    violations = []
    for tau_int in range(1 << p):
        tau = tuple((tau_int >> i) & 1 for i in range(p))
        census = resolve(abg, tau)
        flips = sum(tau)
        if flips % 2 == 0:
            expected = ComponentCensus({2 * p: 2}, {})
        else:
            expected = ComponentCensus({4 * p: 1}, {})
        if census != expected:
            violations.append((tau, census))
    return FlowerReport(p=p, resolutions=1 << p, violations=violations)


@dataclass
class StructureReport:
    k: int
    shape: str
    min_cycle_ok: bool
    candidate_count: int
    expected_candidates: int
    unmatched_candidates: list
    degree_ok: bool
    count_checks: list  # (label, got, expected)
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_structure(r: ReductionOutput) -> StructureReport:
    """Check the built graph against its contract: no alternating cycle
    shorter than k, every k-cycle registered to a gadget, degree/count
    bookkeeping."""
    inst = r.instance
    violations = []
    at_k = enumerate_candidates(r.graph, r.k)
    # cycles shorter than k and paths shorter than k - 2 (k and lengths are even)
    below = [c for c in at_k if c.length < (r.k if c.kind == "cycle" else r.k - 2)]
    min_cycle_ok = not below
    if not min_cycle_ok:
        violations.append("found %d components shorter than k" % len(below))
    registry = r.registry_cycles()
    reg_map = {}
    for name, pattern in registry:
        key = tuple(sorted(pattern.items()))
        reg_map.setdefault(key, []).append(name)
    unmatched = []
    matched = set()
    for cand in at_k:
        if cand.kind != "cycle" or cand.length != r.k:
            unmatched.append(cand)
            continue
        names = reg_map.get(cand.choices)
        if not names:
            unmatched.append(cand)
        else:
            matched.add(names[0])
    if unmatched:
        violations.append("%d candidates match no gadget registry" % len(unmatched))
    if len(matched) != len(registry):
        violations.append(
            "only %d of %d registered cycles realized as candidates"
            % (len(matched), len(registry))
        )
    if r.shape == CIRCULAR:
        degree_ok = r.graph.degree_sequence_ok()
        if not degree_ok:
            violations.append("non-degree-3 vertex in circular graph")
    else:
        degree_ok = len(r.graph.isolated) == r.graph.n_vertices - r.nu == r.nu
        if not degree_ok:
            violations.append("padding does not double the vertex count")

    sizes = _size_model(inst, r.k)
    count_checks = [
        ("variable gadgets", len(r.var_gadgets), inst.var_count),
        ("clause gadgets", len(r.clause_gadgets), len(inst.clauses)),
        ("literal gadgets", len(r.w_gadgets), inst.size),
        ("flowers", len(r.flowers), sizes.flowers),
        ("extension chains", len(r.extensions), sizes.m if sizes.ell else 0),
        ("squares", r.graph.a_star, sizes.squares),
        ("candidates", len(at_k.candidates), sizes.candidates),
    ]
    for label, got, expected in count_checks:
        if got != expected:
            violations.append("%s: %d != %d" % (label, got, expected))
    return StructureReport(
        k=r.k,
        shape=r.shape,
        min_cycle_ok=min_cycle_ok,
        candidate_count=len(at_k.candidates),
        expected_candidates=sizes.candidates,
        unmatched_candidates=unmatched,
        degree_ok=degree_ok,
        count_checks=count_checks,
        violations=violations,
    )


# -- genome extraction -------------------------------------------------------


def extract_genomes(r: ReductionOutput):
    """Realize the graph as genomes: (singular S, duplicated D, indexed D).

    Circular shape: S is one circular chromosome 1..n, n = a*, and square i,
    counted from 0, hosts the adjacency between gene i+1's head and gene
    i+2's tail (gene 1's for the last square).  Linear shape: S is n = 2a* genes in the
    chromosomes [2i+1 -(2i+2)], square i hosts the heads of genes 2i+1 and
    2i+2, and the padding vertices, in order, are the tails 1a, 1b, 2a, 2b,
    ..., so every chromosome is linear.  A square's u and v are copy a of
    its two extremities, uhat and vhat copy b.

    Every vertex maps to its extremity's id in the numbering that `genomes`
    states (integer extremity ids), gene gid having rank gid - 1.  The D
    partner of an extremity is its vertex's fixed-edge partner, mapped
    back; an extremity with none is a telomere.  A gene copy whose ends
    are each other's partners is a one-gene circle, and all of these are
    made at once; `genomes._trace` walks D's other chromosomes over these
    ids, and each entry gives a gene of the indexed D and its erased copy
    in D, so extraction builds no Extremity and no second genome to erase.
    Both D genomes hold every gene id twice by construction, so they are
    built with no validation (`Genome._built`), under its gene count.
    Their genes, S's, and the one-gene circles are the shared immutable
    values of `genomes`' tables (see `genomes._Shared`): up to gene id
    2**16 each is built once per process, not once per extraction, and no
    collection traces its repeats.

    Every vertex must map to exactly one extremity and every extremity have
    a vertex, and every square vertex needs a fixed edge; otherwise
    GenomeError names the vertex."""
    graph = r.graph
    n_sq = graph.a_star
    n_vertices = graph.n_vertices
    padding = graph.isolated
    circular = r.shape == CIRCULAR
    if not circular and len(padding) != n_vertices - len(padding):
        raise GenomeError("linear extraction needs one padding vertex per graph vertex")
    ext_of = [-1] * n_vertices  # vertex -> extremity id
    if circular:
        for i, (u, v, uhat, vhat) in enumerate(graph.squares):
            beta = 4 * i  # gene i+1's head, copy a
            gamma = 4 * (i + 1) + 2 if i + 1 < n_sq else 2  # the next gene's tail
            ext_of[u] = beta
            ext_of[uhat] = beta + 1
            ext_of[v] = gamma
            ext_of[vhat] = gamma + 1
        s = Genome([Chromosome(CIRCULAR, _GENE_TABLES[""].take(range(1, n_sq + 1)))])
    else:
        n = 2 * n_sq
        for i, (u, v, uhat, vhat) in enumerate(graph.squares):
            beta = 8 * i  # gene 2i+1's head, copy a; gene 2i+2's is beta + 4
            ext_of[u] = beta
            ext_of[uhat] = beta + 1
            ext_of[v] = beta + 4
            ext_of[vhat] = beta + 5
        # padding vertex j is tail copy j % 2 of gene j // 2 + 1
        for j, v in enumerate(padding):
            ext_of[v] = 4 * (j >> 1) + 2 + (j & 1)
        genes = _GENE_TABLES[""].take([x for i in range(n_sq) for x in (2 * i + 1, -2 * i - 2)])
        s = Genome([Chromosome(LINEAR, pair) for pair in zip(genes[::2], genes[1::2])])
        if len(s.identities) != n:
            raise RuntimeError(
                "linear extraction built %d genes, not %d" % (len(s.identities), n)
            )
    # The squares' vertices are distinct and take distinct ids, and so do
    # the padding vertices; together they cover all 4n extremities (in the
    # linear shape, by the padding check).  So the map is one-to-one and
    # onto once no vertex is left out.
    if -1 in ext_of:
        raise GenomeError("vertex %d maps to no extremity" % ext_of.index(-1))
    # The telomeres of D are the padding vertices, which have no fixed edge:
    # every square vertex needs one.
    d_part = graph.d_part
    if len(graph.d_edges) != 2 * n_sq:
        sq_id = graph.sq_id
        v = next(v for v in range(n_vertices) if sq_id[v] >= 0 and d_part[v] < 0)
        raise GenomeError("square vertex %d has no fixed edge" % v)
    partner = [-1] * n_vertices  # extremity -> its D partner, -1 at a telomere
    for v, w in enumerate(d_part):
        if w >= 0:
            partner[ext_of[v]] = ext_of[w]
    # A copy whose tail's partner is its own head is a one-gene circle: all
    # of these are made at once, and _trace walks the other ids.
    loops = [e for e in range(n_vertices) if e & 2 and partner[e] == e ^ 2]
    a_loops = [(e >> 2) + 1 for e in loops if not e & 1]  # the gene ids of copy a's
    b_loops = [(e >> 2) + 1 for e in loops if e & 1]
    indexed = _ONE_GENE_TABLES["a"].take(a_loops) + _ONE_GENE_TABLES["b"].take(b_loops)
    erased = _ONE_GENE_TABLES[""].take(a_loops + b_loops)
    rest = [e for e in range(n_vertices) if partner[e ^ 2] != e]
    a_gene = _GENE_TABLES["a"].one
    b_gene = _GENE_TABLES["b"].one
    plain = _GENE_TABLES[""]
    for shape, entries in _trace(partner, rest):
        genes = []
        keys = []  # the signed gene ids
        for e in entries:
            gid = (e >> 2) + 1
            key = gid if e & 2 else -gid  # reversed when entered at its head
            keys.append(key)
            genes.append(b_gene(key) if e & 1 else a_gene(key))
        indexed.append(Chromosome(shape, genes))
        erased.append(Chromosome(shape, plain.take(keys)))
    # D holds every gene id twice: plain in D, as a and b in the indexed D
    ids = dict.fromkeys(range(1, n_vertices // 4 + 1), 2)
    return (s, Genome._built(erased, Counter(ids), _PLAIN),
            Genome._built(indexed, Counter(ids), _INDEXED))
