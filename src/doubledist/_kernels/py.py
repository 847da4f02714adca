"""Pure-Python reference kernels for the hot graph loops.

All functions work on flat integer lists describing a (possibly ambiguous)
breakpoint graph:

- ``sq_id[v]``: index of the square containing vertex v, or -1,
- ``e_part[v]`` / ``t_part[v]``: the partner of v inside its square under
  choice 0 (solid pair) / choice 1 (complementary pair), or -1,
- ``d_part[v]``: the fixed-edge partner of v, or -1.

A resolved graph is described by two partner arrays ``pa``/``pb`` where
every vertex has at most one edge of each tag; components then are
alternating cycles and paths.

The compiled twin in ``_speedups`` implements the same signatures and
returns the same results; its cycle search does not prune, so it also serves
as an independent check of the pruned one here.
"""

from __future__ import annotations


def walk_components(pa, pb):
    """Component lengths of a resolved graph: (cycle_lengths, path_lengths)."""
    n = len(pa)
    seen = bytearray(n)
    cycles = []
    paths = []
    for v in range(n):
        if seen[v]:
            continue
        a = pa[v]
        b = pb[v]
        if a >= 0 and b >= 0:
            continue
        seen[v] = 1
        if a < 0 and b < 0:
            paths.append(0)
            continue
        length = 0
        cur = v
        use_a = a >= 0
        while True:
            nxt = pa[cur] if use_a else pb[cur]
            if nxt < 0:
                break
            length += 1
            cur = nxt
            seen[cur] = 1
            use_a = not use_a
        paths.append(length)
    for v in range(n):
        if seen[v]:
            continue
        length = 0
        cur = v
        use_a = True
        while True:
            seen[cur] = 1
            cur = pa[cur] if use_a else pb[cur]
            length += 1
            use_a = not use_a
            if cur == v and use_a:
                break
        cycles.append(length)
    return cycles, paths


def sigma2x_from_lengths(cycles, paths, kcap):
    """Doubled sigma value; kcap is the even cycle-length cap or -1 for unbounded."""
    total = 0
    if kcap < 0:
        for c in cycles:
            total += 2
        for p in paths:
            if p % 2 == 0:
                total += 1
    else:
        for c in cycles:
            if c <= kcap:
                total += 2
        pcap = kcap - 2
        for p in paths:
            if p % 2 == 0 and p <= pcap:
                total += 1
    return total


def best_resolution(sq_id, e_part, t_part, d_part, a_star, kcap, node_budget):
    """Exhaustively maximize doubled sigma over all 2^a_star resolutions.

    Returns (best_doubled_sigma, best_tau_int, explored) where bit i of
    best_tau_int is square i's choice.  Ties keep the lowest tau integer.
    explored < 2^a_star signals the node budget ran out.
    """
    n = len(sq_id)
    total = 1 << a_star
    best = -1
    best_tau = 0
    pa = [-1] * n
    square_verts = [v for v in range(n) if sq_id[v] >= 0]
    explored = 0
    for tau in range(total):
        if explored >= node_budget:
            break
        explored += 1
        for v in square_verts:
            pa[v] = t_part[v] if (tau >> sq_id[v]) & 1 else e_part[v]
        score = sigma2x_from_lengths(*walk_components(pa, d_part), kcap)
        if score > best:
            best = score
            best_tau = tau
    return best, best_tau, explored


def alternating_cycles(sq_id, e_part, t_part, d_part, kcap):
    """All alternating cycles of length <= kcap.

    Returns a list of (vertices, choices) with vertices in traversal order
    starting at the cycle's minimum vertex with its square edge, and choices
    as a sorted tuple of (square, bit).  Each cycle is listed exactly once.
    """
    n = len(sq_id)
    out = []
    half = kcap // 2
    for s in range(n):
        if sq_id[s] < 0:
            continue
        # The cycle closes through the last square edge into sd = d_part[s],
        # and no vertex below s is ever visited: skip starts that cannot close.
        sd = d_part[s]
        if sd <= s or sq_id[sd] < 0:
            continue
        last_sq = sq_id[sd]
        # DFS over (path, choices); steps alternate square edge then d-edge.
        # Only states with a square edge left and, when just one is left, at
        # a vertex of sd's square are pushed: no other state can close.
        stack = [(s, (), {}, 0)]  # vertex, path-so-far, choices, sq-edges used
        while stack:
            cur, path, choices, used = stack.pop()
            if used == half:
                continue
            sq = sq_id[cur]
            left = half - used - 1  # square edges left after this step
            forced = choices.get(sq)
            for bit in (0, 1) if forced is None else (forced,):
                partner = t_part[cur] if bit else e_part[cur]
                if partner <= s or partner in path:
                    continue
                nchoices = choices if forced is not None else {**choices, sq: bit}
                d = d_part[partner]
                if d < 0:
                    continue
                npath = path + (cur, partner)
                if d == s:
                    out.append((npath, tuple(sorted(nchoices.items()))))
                elif (d > s and left
                      and (sq_id[d] == last_sq if left == 1 else sq_id[d] >= 0)
                      and d not in npath):
                    stack.append((d, npath, nchoices, used + 1))
    return out


def alternating_even_paths(sq_id, e_part, t_part, d_part, kcap):
    """All alternating even paths of length <= kcap, walked from the
    endpoint that lies in no square.  Returns a list of (vertices, choices)."""
    n = len(sq_id)
    out = []
    if kcap < 2:
        return out
    for s in range(n):
        if sq_id[s] >= 0 or d_part[s] < 0:
            continue
        first = d_part[s]
        if sq_id[first] < 0:
            continue  # odd 1-path
        stack = [(first, (s,), {}, 1)]
        while stack:
            cur, path, choices, length = stack.pop()
            sq = sq_id[cur]
            forced = choices.get(sq)
            for bit in (0, 1) if forced is None else (forced,):
                partner = t_part[cur] if bit else e_part[cur]
                if partner in path:
                    continue
                nchoices = choices if forced is not None else {**choices, sq: bit}
                npath = path + (cur, partner)
                d = d_part[partner]
                if d < 0:
                    out.append((npath, tuple(sorted(nchoices.items()))))
                elif length + 2 <= kcap and d not in npath and sq_id[d] >= 0:
                    stack.append((d, npath, nchoices, length + 2))
    return out
