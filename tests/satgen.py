"""Seeded generator of normalized restricted-SAT instances for tests."""

import random

from doubledist.reduction import SatInstance, check_normalized, normalize, parse_cnf

DEMO_CNF = "p cnf 4 5\n1 2 0\n1 3 0\n-1 -2 4 0\n2 3 0\n-3 -4 0\n"


def random_normalized_instance(n_vars: int, seed: int) -> SatInstance:
    """A random instance already in normalized form: every variable occurs
    pos-pos-neg or pos-neg, clauses have 2 or 3 distinct variables."""
    rng = random.Random(n_vars * 1000003 + seed)
    for _ in range(500):
        pool = []
        for v in range(1, n_vars + 1):
            pool.extend([v, v, -v] if rng.random() < 0.5 else [v, -v])
        total = len(pool)
        sizes = []
        t = total
        while t >= 5:
            s = rng.choice((2, 3))
            if t - s == 1:
                s = 5 - s
            sizes.append(s)
            t -= s
        if t == 4:
            sizes.extend((2, 2))
        else:
            sizes.append(t)
        rng.shuffle(pool)
        clauses = []
        ok = True
        for size in sizes:
            clause = []
            for lit in pool:
                if len(clause) == size:
                    break
                if all(abs(lit) != abs(c) for c in clause):
                    clause.append(lit)
            if len(clause) != size:
                ok = False
                break
            for lit in clause:
                pool.remove(lit)
            clauses.append(tuple(clause))
        if not ok or pool:
            continue
        rng.shuffle(clauses)
        inst = SatInstance(n_vars, tuple(clauses))
        try:
            check_normalized(inst)
        except Exception:
            continue
        return inst
    raise RuntimeError("could not generate an instance for n=%d seed=%d" % (n_vars, seed))


def unsat_instances():
    """Handcrafted unsatisfiable normalized instances."""
    # Clauses 1-2 force x1 true, clause 3 then needs x3 false, but
    # clauses 4-5 force x3 true.
    a = SatInstance(4, ((1, 2), (1, -2), (-1, -3), (3, 4), (3, -4)))
    # Same idea through a 3-clause: x1 true needs x3 or x4 false, both forced true.
    b = SatInstance(
        6, ((1, 2), (1, -2), (-1, -3, -4), (3, 5), (3, -5), (4, 6), (4, -6))
    )
    for inst in (a, b):
        check_normalized(inst)
    return [a, b]


def reduction_corpus():
    """The acceptance corpus of criteria 08 and 10: the demo formula, the
    unsatisfiable instances and 28 seeded ones of 3 to 10 variables."""
    insts = [normalize(parse_cnf(DEMO_CNF))]
    insts += unsat_instances()
    sizes = [3, 4, 5, 6, 7, 8, 9, 10]
    for seed in range(28):
        insts.append(random_normalized_instance(sizes[seed % len(sizes)], seed))
    return insts
