import random
from collections import Counter
from fractions import Fraction

import pytest

from doubledist import bpgraph
from doubledist.bpgraph import (
    INFINITY,
    BudgetExceeded,
    ComponentCensus,
    NotCanonicalError,
    build_breakpoint_graph,
    check_k,
    dcj_distance_bfs_oracle,
    distance,
    sigma,
)
from doubledist.genomes import parse_genome, random_cognate_pair, random_genome

S1 = parse_genome("(1 2)\n[3 -4]")
S2 = parse_genome("(1 -3 2)\n[4]")


def test_census_worked_example():
    bg = build_breakpoint_graph(S1, S2)
    assert bg.census == ComponentCensus({2: 1}, {0: 1, 4: 1})


def test_census_from_lengths_counts_each_list_once():
    rng = random.Random(24)
    for _ in range(300):
        cycles = [rng.randint(1, 12) for _ in range(rng.randint(0, 8))]
        paths = [rng.randint(0, 12) for _ in range(rng.randint(0, 8))]
        census = ComponentCensus.from_lengths(cycles, paths)
        assert type(census.c) is Counter and type(census.p) is Counter
        assert census.c == Counter(cycles) and census.p == Counter(paths)
        assert census == ComponentCensus(dict(Counter(cycles)), dict(Counter(paths)))
        for k in (2, 4, 8, INFINITY):
            assert census.sigma2x(k) == ComponentCensus(
                dict(Counter(cycles)), dict(Counter(paths))).sigma2x(k)


def test_census_identical_genomes():
    for text in ("(1 2)\n[3 -4]", "[1 2 3]", "(1)\n(2)"):
        g = parse_genome(text)
        bg = build_breakpoint_graph(g, g)
        n_adj = sum(g.adjacencies.values())
        n_tel = sum(g.telomeres.values())
        assert bg.census == ComponentCensus({2: n_adj}, {0: n_tel})


def test_census_swapped_linear_pair():
    bg = build_breakpoint_graph(parse_genome("[1 2]"), parse_genome("[2 1]"))
    assert bg.census == ComponentCensus({}, {1: 2})


def test_sigma_series_worked_example():
    census = build_breakpoint_graph(S1, S2).census
    assert sigma(census, 2) == Fraction(3, 2)
    assert sigma(census, 4) == Fraction(3, 2)
    assert sigma(census, 6) == 2
    assert sigma(census, INFINITY) == 2


def test_sigma_empty_and_cycles_only():
    empty = ComponentCensus()
    for k in (2, 4, 8, INFINITY):
        assert sigma(empty, k) == 0
    assert sigma(ComponentCensus({2: 4}, {}), 2) == 4


def test_sigma_rejects_bad_k():
    census = ComponentCensus({2: 1}, {})
    for bad in (3, 0, -2, 1.5, "inf", True):
        with pytest.raises(ValueError):
            sigma(census, bad)
    for good in (2, 100, INFINITY):
        check_k(good)


def test_distance_worked_example():
    assert distance(S1, S2, 2) == Fraction(5, 2)
    assert distance(S1, S2, INFINITY) == 2


def test_distance_zero_on_identity():
    g = parse_genome("(1 -3 2)\n[4]")
    for k in (2, 4, INFINITY):
        assert distance(g, g, k) == 0


def test_distance_rejects_non_canonical():
    with pytest.raises(NotCanonicalError):
        distance(parse_genome("[1 2]"), parse_genome("[1 1]"), 2)
    with pytest.raises(NotCanonicalError):
        distance(parse_genome("[1]"), parse_genome("[2]"), 2)


def test_distance_indexed_pair_allowed():
    b = parse_genome("[1.a 2.a]\n[1.b 2.b]")
    d = parse_genome("[1.a 2.b]\n[1.b 2.a]")
    assert distance(b, b, 2) == 0
    assert distance(b, d, 2) == 2
    assert distance(b, d, INFINITY) == 1


def test_sigma_saturates_at_two_n():
    for seed in range(10):
        s1, s2 = random_cognate_pair(4, wgd=False, ops=3, seed=seed)
        census = build_breakpoint_graph(s1, s2).census
        n = len(s1.identities)
        assert sigma(census, 2 * n) == sigma(census, INFINITY)


def test_distance_monotone_in_k():
    for seed in range(20):
        s1, s2 = random_cognate_pair(5, wgd=False, ops=4, seed=seed)
        values = [distance(s1, s2, k) for k in (2, 4, 6, 8, 10, INFINITY)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] >= 0


# === BFS oracle ===


def test_oracle_identity():
    g = parse_genome("(1 2 3)")
    assert dcj_distance_bfs_oracle(g, g) == 0


def test_oracle_worked_example():
    assert dcj_distance_bfs_oracle(S2, S1) == 2


def test_oracle_linearize_one_gene():
    assert dcj_distance_bfs_oracle(parse_genome("[1]"), parse_genome("(1)")) == 1
    assert dcj_distance_bfs_oracle(parse_genome("(1)"), parse_genome("[1]")) == 1


def test_oracle_split_needed():
    assert dcj_distance_bfs_oracle(parse_genome("(1 2)"), parse_genome("[1 2]")) == 1


def test_oracle_matches_formula_small_random():
    for seed in range(25):
        s1, s2 = random_cognate_pair(4, wgd=False, ops=3, seed=seed)
        assert dcj_distance_bfs_oracle(s1, s2) == distance(s1, s2, INFINITY)


def test_oracle_leaves_no_module_state():
    def sizes():
        return {
            name: len(value)
            for name, value in vars(bpgraph).items()
            if isinstance(value, (dict, list, set))
        }

    before = sizes()
    dcj_distance_bfs_oracle(S2, S1)
    assert sizes() == before


def test_oracle_budget():
    g1 = random_genome(6, 1, 0, seed=0)
    with pytest.raises(BudgetExceeded):
        dcj_distance_bfs_oracle(g1, g1)


def test_one_dcj_moves_distance_by_at_most_one():
    import random as _random

    from doubledist.genomes import apply_dcj

    rng = _random.Random(3)
    for seed in range(15):
        s1, s2 = random_cognate_pair(4, wgd=False, ops=2, seed=seed)
        adjs = sorted(s2.adjacencies)
        telos = sorted(s2.telomeres)
        elems = [("a", a) for a in adjs] + [("t", t) for t in telos]
        if len(elems) < 2:
            continue
        i, j = rng.sample(range(len(elems)), 2)
        (k1, c1), (k2, c2) = elems[i], elems[j]
        ends = (list(c1) if k1 == "a" else [c1]) + (list(c2) if k2 == "a" else [c2])
        rng.shuffle(ends)
        rejoin = []
        while len(ends) >= 2:
            rejoin.append((ends.pop(), ends.pop()))
        moved = apply_dcj(s2, c1, c2, rejoin)
        before = distance(s1, s2, INFINITY)
        after = distance(s1, moved, INFINITY)
        assert abs(before - after) <= 1


def test_sigma_nondecreasing_in_k():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(
        c=st.dictionaries(
            st.integers(min_value=1, max_value=10).map(lambda i: 2 * i),
            st.integers(min_value=1, max_value=4),
            max_size=5,
        ),
        p=st.dictionaries(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=4),
            max_size=5,
        ),
    )
    def check(c, p):
        census = ComponentCensus(c, p)
        values = [sigma(census, k) for k in (2, 4, 6, 8, 10, 12, INFINITY)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    check()
