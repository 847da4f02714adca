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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .abg import AmbiguousBreakpointGraph, Square, enumerate_candidates, resolve
from .bpgraph import ComponentCensus
from .genomes import (
    CIRCULAR,
    LINEAR,
    Chromosome,
    Extremity,
    Gene,
    Genome,
    GenomeError,
    genome_from_adjacencies,
)


class SatError(ValueError):
    """Instance outside the supported SAT fragment."""


# -- instances -------------------------------------------------------------


@dataclass(frozen=True)
class SatInstance:
    """A CNF formula; `normalized` marks the restricted 2/3-occurrence form."""

    var_count: int
    clauses: tuple
    normalized: bool = False
    flipped: frozenset = frozenset()  # original ids with inverted polarity
    eliminated: tuple = ()  # ((original id, value), ...) fixed by pure literals
    var_map: tuple = ()  # new id (position 0 = id 1) -> original id

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.clauses)

    def occurrences(self, var: int):
        out = []
        for ci, clause in enumerate(self.clauses):
            for pos, lit in enumerate(clause):
                if abs(lit) == var:
                    out.append((ci, pos, lit > 0))
        return out

    def ttf_vars(self):
        return [v for v in range(1, self.var_count + 1) if len(self.occurrences(v)) == 3]

    def tf_vars(self):
        return [v for v in range(1, self.var_count + 1) if len(self.occurrences(v)) == 2]

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
            if len(parts) != 4 or parts[1] != "cnf" or var_count is not None:
                raise SatError("line %d: bad problem header %r" % (lineno, line))
            var_count = int(parts[2])
            clause_count = int(parts[3])
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
    if clause_count is not None and clause_count != len(clauses):
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
        seen = set()
        for lit in c:
            if abs(lit) in seen:
                raise SatError(
                    "clause %r has duplicate or contradictory literals" % (c,)
                )
            seen.add(abs(lit))
        if len(c) not in (2, 3):
            raise SatError("clause %r has size %d, need 2 or 3" % (c, len(c)))

    eliminated = {}
    active = list(range(len(clauses)))
    while True:
        polarity = {}
        for ci in active:
            for lit in clauses[ci]:
                pos, neg = polarity.get(abs(lit), (0, 0))
                if lit > 0:
                    polarity[abs(lit)] = (pos + 1, neg)
                else:
                    polarity[abs(lit)] = (pos, neg + 1)
        pure = {
            v: pos > 0
            for v, (pos, neg) in polarity.items()
            if pos == 0 or neg == 0
        }
        if not pure:
            break
        eliminated.update(pure)
        active = [
            ci
            for ci in active
            if not any(abs(lit) in pure for lit in clauses[ci])
        ]
    for v in range(1, inst.var_count + 1):
        if v not in eliminated and not any(
            abs(lit) == v for ci in active for lit in clauses[ci]
        ):
            eliminated[v] = True  # unused variable, value arbitrary

    flipped = set()
    counts = {}
    for ci in active:
        for lit in clauses[ci]:
            pos, neg = counts.get(abs(lit), (0, 0))
            counts[abs(lit)] = (pos + (lit > 0), neg + (lit < 0))
    for v, (pos, neg) in counts.items():
        total = pos + neg
        if total > 3:
            raise SatError(
                "instance outside (2,3)-SAT fragment: variable %d occurs %d times"
                % (v, total)
            )
        if total == 1:
            raise SatError(
                "instance outside (2,3)-SAT fragment: variable %d occurs once "
                "after elimination" % v
            )
        if total == 3 and neg == 2:
            flipped.add(v)
        elif (total == 3 and not (pos == 2 and neg == 1) and neg != 2) or (
            total == 2 and pos != 1
        ):
            raise SatError(
                "instance outside (2,3)-SAT fragment: variable %d has "
                "polarity profile %r" % (v, (pos, neg))
            )

    remaining = sorted(counts)
    var_map = tuple(remaining)
    renumber = {orig: i + 1 for i, orig in enumerate(remaining)}
    new_clauses = []
    for ci in active:
        new_clause = []
        for lit in clauses[ci]:
            v = renumber[abs(lit)]
            positive = lit > 0
            if abs(lit) in flipped:
                positive = not positive
            new_clause.append(v if positive else -v)
        new_clauses.append(tuple(new_clause))
    return SatInstance(
        var_count=len(remaining),
        clauses=tuple(new_clauses),
        normalized=True,
        flipped=frozenset(flipped),
        eliminated=tuple(sorted(eliminated.items())),
        var_map=var_map,
    )


def check_normalized(inst: SatInstance):
    for clause in inst.clauses:
        if len(clause) not in (2, 3):
            raise SatError("clause %r has size %d" % (clause, len(clause)))
        if len({abs(l) for l in clause}) != len(clause):
            raise SatError("clause %r repeats a variable" % (clause,))
    for v in range(1, inst.var_count + 1):
        occ = inst.occurrences(v)
        pos = sum(1 for _, _, s in occ if s)
        neg = len(occ) - pos
        if (pos, neg) not in ((2, 1), (1, 1)):
            raise SatError(
                "variable %d has polarity profile %r; instance not normalized"
                % (v, (pos, neg))
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
    chain: list  # extension squares on the inter-square edge
    x_stubs: list
    y_stubs: list
    connector: str  # which variable connector the X side merged into
    x_cycle: dict = field(default_factory=dict)  # full choices of the X-side k-cycle
    y_cycle: dict = field(default_factory=dict)


@dataclass
class ClauseGadget:
    index: int
    size: int
    squares: list  # Q1..Q6
    middle_chain: list
    extra_chain: list  # 3-clauses only (the theta_3 long edge)
    theta: dict  # position -> {square: bit}, cycle requirement incl. chains
    y_paths: dict  # position -> {square: bit} (the W_i..W_i 3-path)
    w_stubs: dict  # position -> stub vertex pair
    witness_bits: dict  # position -> {square: bit} for all six squares


@dataclass
class Flower:
    host: str
    p: int
    squares: list
    attach: tuple


@dataclass
class ExtChain:
    host: str
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
    def __init__(self):
        self.labels = []
        self.squares = []
        self.d_edges = []

    def vertex(self, label) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def square(self, name, solid="12"):
        """Four corners v1..v4; choice 0 keeps {v1-v2, v3-v4} when solid is
        "12", or {v1-v4, v3-v2} when solid is "14"."""
        c = [self.vertex("%s.v%d" % (name, i)) for i in (1, 2, 3, 4)]
        idx = len(self.squares)
        if solid == "12":
            self.squares.append(Square(idx, u=c[0], v=c[1], uhat=c[2], vhat=c[3]))
        elif solid == "14":
            self.squares.append(Square(idx, u=c[0], v=c[3], uhat=c[2], vhat=c[1]))
        else:
            raise ValueError(solid)
        return idx, c

    def edge(self, a, b):
        self.d_edges.append((a, b))

    def open_flower(self, host, p, attach_a, attach_b, flowers):
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
        flowers.append(Flower(host, p, squares, (attach_a, attach_b)))

    def chain(self, host, u, v, ell, p, flowers, extensions):
        """Connect u..v through ell pass-through squares, each with its own
        open flower; ell == 0 is a plain edge."""
        if ell == 0:
            self.edge(u, v)
            return []
        squares = []
        prev = u
        for i in range(ell):
            idx, c = self.square("%s.ext%d" % (host, i), solid="12")
            squares.append(idx)
            self.edge(prev, c[3])  # in corner v4
            prev = c[2]  # out corner v3
            self.open_flower("%s.ext%d" % (host, i), p, c[0], c[1], flowers)
        self.edge(prev, v)
        extensions.append(ExtChain(host, squares))
        return squares


def _six_square_block(b, name, solids):
    """The shared 2x3 block of variable and clause gadgets; returns square
    ids and corners, with the 6 non-middle connecting edges added."""
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
    # middle edge Q2.v1 - Q5.v3 is a chain, added by the caller
    return sq, corners


def _chain_bits(chain):
    return {c: 0 for c in chain}


def build_reduction(inst: SatInstance, k: int = 8, shape: str = CIRCULAR) -> ReductionOutput:
    """Build the ambiguous breakpoint graph encoding the instance."""
    check_normalized(inst)
    if not (isinstance(k, int) and k >= 8 and k % 2 == 0):
        raise ValueError("k must be an even integer >= 8, got %r" % (k,))
    if shape not in (CIRCULAR, LINEAR):
        raise ValueError("shape must be circular or linear")
    if not inst.clauses:
        raise SatError("instance has no clauses after normalization")
    ell = (k - 8) // 2
    p = k // 2 + 1

    b = _Builder()
    flowers = []
    extensions = []

    var_gadgets = {}
    for var in range(1, inst.var_count + 1):
        occ = inst.occurrences(var)
        kind = "TTF" if len(occ) == 3 else "TF"
        name = "x%d" % var
        solids = ("14", "12", "14", "12", "14", "12")
        sq, q = _six_square_block(b, name, solids)
        chain = b.chain(name + ".mid", q[1][0], q[4][2], ell, p, flowers, extensions)
        mid = _chain_bits(chain)
        theta_t = {sq[1]: 0, sq[2]: 0, sq[4]: 0, sq[5]: 0, **mid}
        theta_f = {sq[0]: 1, sq[1]: 1, sq[3]: 1, sq[4]: 1, **mid}
        connectors = {
            "F": ([q[2][1], q[5][1]], {sq[2]: 1, sq[5]: 1}),
        }
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
            b.open_flower("%s.f%d" % (name, i), p, ga, gb, flowers)
        var_gadgets[var] = VarGadget(
            var=var,
            kind=kind,
            squares=sq,
            theta={"T": theta_t, "F": theta_f},
            connectors=connectors,
            value_bits={
                True: {s: 0 for s in sq},
                False: {s: 1 for s in sq},
            },
        )

    clause_gadgets = []
    for ci, clause in enumerate(inst.clauses):
        name = "y%d" % (ci + 1)
        if len(clause) == 2:
            solids = ("12", "14", "12", "14", "12", "14")
            sq, q = _six_square_block(b, name, solids)
            chain = b.chain(name + ".mid", q[1][0], q[4][2], ell, p, flowers, extensions)
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
            witness_bits = {
                1: {s: 0 for s in sq},
                2: {s: 1 for s in sq},
            }
            for i, (ga, gb) in enumerate(
                [(q[0][2], q[1][2]), (q[2][1], q[5][1]), (q[2][2], q[3][0])]
            ):
                b.open_flower("%s.f%d" % (name, i), p, ga, gb, flowers)
            extra = []
        else:
            solids = ("12", "14", "14", "14", "12", "12")
            sq, q = _six_square_block(b, name, solids)
            chain = b.chain(name + ".mid", q[1][0], q[4][2], ell, p, flowers, extensions)
            extra = b.chain(name + ".t3", q[0][3], q[5][1], ell, p, flowers, extensions)
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
                middle_chain=chain,
                extra_chain=extra,
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
            chain = b.chain(name + ".mid", c1[3], c2[0], ell, p, flowers, extensions)
            b.open_flower(name + ".f0", p, c1[1], c2[2], flowers)
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
                    chain=chain,
                    x_stubs=x_stubs,
                    y_stubs=y_stubs,
                    connector=connector,
                    x_cycle={sq1: 0, sq2: 0, **wmid, **vpattern},
                    y_cycle={sq1: 1, sq2: 1, **wmid, **cg.y_paths[pos]},
                )
            )

    nu = len(b.labels)
    if shape == LINEAR:
        for i in range(nu):
            b.vertex("iso.%d" % i)
        isolated_count = nu
    else:
        isolated_count = 0

    graph = AmbiguousBreakpointGraph(b.labels, b.squares, b.d_edges)
    m = (
        inst.var_count
        + inst.size
        + len(inst.clauses)
        + len(inst.three_clauses())
    )
    bound = Fraction(inst.var_count + len(inst.clauses) + inst.size)
    if shape == LINEAR:
        bound += Fraction(isolated_count, 2)
    return ReductionOutput(
        graph=graph,
        instance=inst,
        k=k,
        shape=shape,
        var_gadgets=[var_gadgets[v] for v in sorted(var_gadgets)],
        w_gadgets=w_gadgets,
        clause_gadgets=clause_gadgets,
        flowers=flowers,
        extensions=extensions,
        nu=nu,
        isolated_count=isolated_count,
        ell=ell,
        p=p,
        m=m,
        bound=bound,
    )


def score_bound(inst: SatInstance, shape: str = CIRCULAR, k: int = 8) -> Fraction:
    """The score reached exactly by the encodings of satisfying assignments:
    |X| + |Y| + size, plus half the padding vertices for linear shape."""
    check_normalized(inst)
    bound = Fraction(inst.var_count + len(inst.clauses) + inst.size)
    if shape == LINEAR:
        ell = (k - 8) // 2
        p = k // 2 + 1
        n_flowers = (
            2 * len(inst.ttf_vars())
            + 3 * len(inst.tf_vars())
            + 3 * len(inst.two_clauses())
            + inst.size
        )
        m = inst.var_count + inst.size + len(inst.clauses) + len(inst.three_clauses())
        squares = (
            6 * inst.var_count
            + 6 * len(inst.clauses)
            + 2 * inst.size
            + p * (n_flowers + ell * m)
            + ell * m
        )
        bound += Fraction(4 * squares, 2)
    return bound


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
    return AmbiguousBreakpointGraph(b.labels, b.squares, b.d_edges)


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
    expected_candidates = (
        2 * inst.var_count
        + 2 * len(inst.two_clauses())
        + 3 * len(inst.three_clauses())
        + 2 * inst.size
    )
    if len(at_k.candidates) != expected_candidates:
        violations.append(
            "candidate count %d != expected %d"
            % (len(at_k.candidates), expected_candidates)
        )

    if r.shape == CIRCULAR:
        degree_ok = r.graph.degree_sequence_ok()
        if not degree_ok:
            violations.append("non-degree-3 vertex in circular graph")
    else:
        degree_ok = len(r.graph.isolated) == r.graph.n_vertices - r.nu == r.nu
        if not degree_ok:
            violations.append("padding does not double the vertex count")

    n_flowers_expected = (
        2 * len(inst.ttf_vars())
        + 3 * len(inst.tf_vars())
        + 3 * len(inst.two_clauses())
        + inst.size
        + r.ell * r.m
    )
    count_checks = [
        ("variable gadgets", len(r.var_gadgets), inst.var_count),
        ("clause gadgets", len(r.clause_gadgets), len(inst.clauses)),
        ("literal gadgets", len(r.w_gadgets), inst.size),
        ("flowers", len(r.flowers), n_flowers_expected),
        ("extension chains", len(r.extensions), r.m if r.ell else 0),
        ("candidates", len(at_k.candidates), expected_candidates),
    ]
    for label, got, expected in count_checks:
        if got != expected:
            violations.append("%s: %d != %d" % (label, got, expected))
    return StructureReport(
        k=r.k,
        shape=r.shape,
        min_cycle_ok=min_cycle_ok,
        candidate_count=len(at_k.candidates),
        expected_candidates=expected_candidates,
        unmatched_candidates=unmatched,
        degree_ok=degree_ok,
        count_checks=count_checks,
        violations=violations,
    )


# -- genome extraction -------------------------------------------------------


def extract_genomes(r: ReductionOutput):
    """Realize the graph as genomes: (singular S, duplicated D, indexed D).

    Circular shape: S is one circular chromosome 1..n and square i hosts the
    adjacency between gene i's head and gene i+1's tail.  Linear shape: all
    gene tails map to padding vertices, heads pair up inside squares, so
    every chromosome is linear."""
    graph = r.graph
    n_sq = graph.a_star
    if r.shape == CIRCULAR:
        vertex_ext = {}
        for i, sq in enumerate(graph.squares):
            beta = Extremity(i + 1, "h")
            gamma = Extremity(i + 2 if i + 1 < n_sq else 1, "t")
            vertex_ext[sq.u] = Extremity(beta.gid, beta.end, "a")
            vertex_ext[sq.uhat] = Extremity(beta.gid, beta.end, "b")
            vertex_ext[sq.v] = Extremity(gamma.gid, gamma.end, "a")
            vertex_ext[sq.vhat] = Extremity(gamma.gid, gamma.end, "b")
        s = Genome([Chromosome(CIRCULAR, [Gene(i) for i in range(1, n_sq + 1)])])
        d_adjs = [(vertex_ext[x], vertex_ext[y]) for x, y in graph.d_edges]
        d_check = genome_from_adjacencies(d_adjs, [])
    else:
        if len(graph.isolated) != graph.n_vertices - len(graph.isolated):
            raise GenomeError(
                "linear extraction needs one padding vertex per graph vertex"
            )
        n_star = 2 * n_sq
        vertex_ext = {}
        for i, sq in enumerate(graph.squares):
            beta = Extremity(2 * i + 1, "h")
            gamma = Extremity(2 * i + 2, "h")
            vertex_ext[sq.u] = Extremity(beta.gid, beta.end, "a")
            vertex_ext[sq.uhat] = Extremity(beta.gid, beta.end, "b")
            vertex_ext[sq.v] = Extremity(gamma.gid, gamma.end, "a")
            vertex_ext[sq.vhat] = Extremity(gamma.gid, gamma.end, "b")
        telos = []
        for j, v in enumerate(graph.isolated):
            gid = j // 2 + 1
            copy = "a" if j % 2 == 0 else "b"
            vertex_ext[v] = Extremity(gid, "t", copy)
            telos.append(vertex_ext[v])
        chroms = [
            Chromosome(LINEAR, [Gene(2 * i + 1), Gene(2 * i + 2, rev=True)])
            for i in range(n_sq)
        ]
        s = Genome(chroms)
        d_adjs = [(vertex_ext[x], vertex_ext[y]) for x, y in graph.d_edges]
        d_check = genome_from_adjacencies(d_adjs, telos)
        if len(s.identities) != n_star:
            raise RuntimeError(
                "linear extraction built %d genes, not %d" % (len(s.identities), n_star)
            )
    return s, d_check.erase_indices(), d_check
