"""Kernels for the hot graph loops; callers reach them as `_kernels.<fn>`.

None of them calls another, so a wrapper set on an attribute of this module
sees every call the library makes.  `best_resolution` sweeps the resolutions,
one component of the free squares at a time, and scores them incrementally;
`walk_components` walks one resolved graph, for the re-score of a witness.

The functions read a (possibly ambiguous) breakpoint graph as its squares
and flat integer lists:

- ``squares``: the graph's squares, whose ``edges(bit)`` are the two edges
  choice bit places; square s is ``squares[s]``,
- ``sq_id[v]``: index of the square containing vertex v, or -1,
- ``e_part[v]`` / ``t_part[v]``: the partner of v inside its square under
  choice 0 (solid pair) / choice 1 (complementary pair), or -1,
- ``d_part[v]``: the fixed-edge partner of v, or -1.

`best_resolution` reads only ``d_part`` and the squares; the candidate walks
read the partner arrays.

A resolved graph is described by two partner arrays ``pa``/``pb`` where
every vertex has at most one edge of each tag; components then are
alternating cycles and paths.
"""

from __future__ import annotations


def walk_components(pa, pb):
    """Component lengths of a resolved graph: (cycle_lengths, path_lengths).
    A walk that meets a vertex again, other than the closing return to its
    start, shows that pa or pb is not an involution: it raises RuntimeError."""
    n = len(pa)
    seen = [0] * n  # a list, not a bytearray: CPython 3.11+ indexes lists faster
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
            if seen[nxt]:
                raise RuntimeError("path walk from %d met vertex %d again" % (v, nxt))
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
            if seen[cur]:
                if cur == v and use_a:
                    break
                raise RuntimeError("cycle walk from %d met vertex %d again" % (v, cur))
        cycles.append(length)
    return cycles, paths


def best_resolution(d_part, squares, kcap, forced, budget):
    """Maximize doubled sigma over the resolutions that keep the forced bits:
    forced[s] is square s's bit, or -1 when s is free.

    Returns (best_doubled_sigma, best_tau_int, explored, sizes): bit i of
    best_tau_int is square i's choice, the lowest tau integer on ties;
    sizes lists the free squares of each component, in the order of its
    lowest square; explored counts the resolutions scored, 2^size summed
    over the components (1 when no square is free).  When that is over
    budget, nothing is scored and explored is 0.

    The kernel keeps the path segments of the edges placed so far: at each
    segment end, the other end and the segment's length.  `place` puts a
    square edge x-y, which closes x's segment into a cycle or joins two
    segments into a path, scored once both its ends are final (have no
    square edge left to place); `unplace` undoes the latest place.

    The forced squares' edges are placed first, for good.  Every vertex of a
    free square then ends a segment, and two free squares share a component
    when a vertex of one ends a segment whose other end lies in the other.
    A square edge joins only segments whose ends are final or lie in its own
    component, so the score is the forced part plus one gain per component,
    each set by that component's bits alone.  A depth-first search sweeps
    each component, the highest square first, bit 0 before bit 1: it
    reaches the component's bits in ascending order and keeps the first
    best.

    The OR m of the components' bits is the lowest optimal tau.  A tau is
    optimal exactly when its bits in each component c are optimal for c,
    and m's are m_c, the lowest such.  For any other optimal tau t, the
    highest bit where t and m differ lies in some c, where it is also the
    highest bit where t's bits of c and m_c differ; as m_c is the lowest, t
    has a 1 there and m a 0, so t > m.
    """
    n = len(d_part)
    ccap = n if kcap < 0 else kcap  # no component has more than n edges
    pcap = n if kcap < 0 else kcap - 2
    other = list(range(n))  # at a segment end: the segment's other end
    size = [0] * n  # at a segment end: the segment's length
    final = bytearray(b"\x01") * n
    for sq in squares:
        for v in sq:
            final[v] = 0
    base = 0  # the score of the paths that hold no square vertex
    for v in range(n):
        w = d_part[v]
        if w >= 0:
            other[v] = w
            size[v] = 1
        elif final[v]:
            base += 1  # a lone vertex, an even path of length 0 <= k - 2
    joins = []  # per place: the two ends it joined and their lengths, or None

    def place(x, y):
        """Place the square edge x-y; returns the doubled score it adds."""
        final[x] = final[y] = 1
        a = other[x]
        if a == y:
            joins.append(None)
            return 2 if size[x] < ccap else 0
        b = other[y]
        joins.append((a, size[a], b, size[b]))
        length = size[a] + size[b] + 1
        other[a] = b
        other[b] = a
        size[a] = size[b] = length
        return 1 if final[a] and final[b] and not length & 1 and length <= pcap else 0

    def unplace(x, y):
        """Undo place(x, y), the latest place not undone."""
        final[x] = final[y] = 0
        join = joins.pop()
        if join:
            a, la, b, lb = join
            other[a] = x
            size[a] = la
            other[b] = y
            size[b] = lb

    tau = 0
    owner = {}  # a free square's vertex -> the square
    for s, bit in enumerate(forced):
        if bit < 0:
            for v in squares[s]:
                owner[v] = s
        else:
            tau |= bit << s
            for x, y in squares[s].edges(bit):
                base += place(x, y)
    joins.clear()
    comps = []
    seen = set()
    for s, bit in enumerate(forced):
        if bit >= 0 or s in seen:
            continue
        seen.add(s)
        comp = [s]
        for t in comp:  # comp grows while it is read: a breadth-first search
            for v in squares[t]:
                u = owner.get(other[v], -1)
                if u >= 0 and u not in seen:
                    seen.add(u)
                    comp.append(u)
        comp.sort()
        comps.append(comp)
    sizes = [len(comp) for comp in comps]
    explored = sum(1 << f for f in sizes) or 1
    if explored > budget:
        return -1, 0, 0, sizes
    top = top_bits = 0

    def visit(comp, i, bits, gain):
        """Try both bits of square comp[i] below the choices in bits."""
        nonlocal top, top_bits
        s = comp[i]
        for bit in (0, 1):
            (x1, y1), (x2, y2) = squares[s].edges(bit)
            score = gain + place(x1, y1) + place(x2, y2)
            if i:
                visit(comp, i - 1, bits | bit << s, score)
            elif score > top:
                top = score
                top_bits = bits | bit << s
            unplace(x2, y2)
            unplace(x1, y1)

    for comp in comps:
        top = -1
        visit(comp, len(comp) - 1, 0, 0)
        base += top
        tau |= top_bits
    # visit reaches itself through its closure; unbinding it lets the search
    # state go at return instead of waiting for the cycle collector
    del visit
    return base, tau, explored, sizes


def alternating_cycles(sq_id, e_part, t_part, d_part, kcap, forced=None):
    """All alternating cycles of length <= kcap whose square choices keep the
    forced bits: forced[s] is square s's bit, or -1 when s is free (None
    leaves every square free).

    Returns (cycles, settled2x).  cycles is a list of (vertices, choices)
    with vertices in traversal order starting at the cycle's minimum vertex
    with its square edge, and choices as a sorted tuple of (square, bit) over
    the cycle's free squares; each cycle is listed exactly once.  A cycle
    whose squares are all forced is not listed: settled2x sums 2 for each.

    A walk is cut once it cannot close: a walk must end in the square of
    its start's fixed-edge partner, so one with 1 square edge left must
    stand in that square, one with 2 left must be in it or reach it in one
    hop, and one with 3 left within two hops (a hop being a square edge,
    either bit, and the fixed edge after it).
    """
    n = len(sq_id)
    out = []
    settled2x = 0
    if kcap < 2:
        return out, settled2x
    if forced is None:
        forced = (-1,) * n  # a graph has fewer than n squares
    # The cycle closes through the last square edge into d_part[s], and no
    # vertex below s is ever visited.  So a start is a square vertex whose
    # fixed-edge partner is a larger square vertex, with a first square edge,
    # under either bit, to a larger vertex whose fixed edge does not go
    # below s.  The tests ignore the bits, so the starts kept are a superset
    # of those from which a cycle closes under the forced bits.
    starts = [
        s for s in range(n)
        if d_part[s] > s and sq_id[s] >= 0 and sq_id[d_part[s]] >= 0
        and (e_part[s] > s and d_part[e_part[s]] >= s
             or t_part[s] > s and d_part[t_part[s]] >= s)
    ]
    for s in starts:
        last_sq = sq_id[d_part[s]]
        # DFS over (path, choices); steps alternate square edge then d-edge.
        # A hop is a square edge and the fixed edge after it.  The cycle's
        # last square edge ends at d_part[s], so it starts in last_sq: a walk
        # that may take j more square edges can close only if it reaches
        # that square within j - 1 hops (or fewer: it may close early).
        # Only states with a square edge left are pushed, and, for j <= 3,
        # only those that pass this test with bits and visited vertices
        # ignored, a superset of the states that close.
        # choices holds the free squares' bits only; a forced square's bit is
        # read from forced, so a walk never contradicts it.  A state is
        # (vertex, path so far, choices, square edges left after this step).
        stack = [(s, (), {}, kcap // 2 - 1)]
        while stack:
            cur, path, choices, left = stack.pop()
            sq = sq_id[cur]
            known = choices.get(sq, forced[sq])
            for bit in (0, 1) if known < 0 else (known,):
                partner = t_part[cur] if bit else e_part[cur]
                if partner <= s or partner in path:
                    continue
                nchoices = choices if known >= 0 else {**choices, sq: bit}
                d = d_part[partner]
                if d < 0:
                    continue
                npath = path + (cur, partner)
                if d == s:
                    if nchoices:
                        out.append((npath, tuple(sorted(nchoices.items()))))
                    else:
                        settled2x += 2
                elif d > s and left and sq_id[d] >= 0 and d not in npath:
                    if sq_id[d] != last_sq:
                        if left == 1:
                            continue
                        if left <= 3:
                            # the one-hop ends from d, x and y
                            x = d_part[e_part[d]]
                            y = d_part[t_part[d]]
                            if not ((x >= 0 and sq_id[x] == last_sq)
                                    or (y >= 0 and sq_id[y] == last_sq)):
                                if left == 2:
                                    continue
                                # with 3 left, a second hop from x or y
                                for z in (x, y):
                                    if z >= 0 and sq_id[z] >= 0:
                                        x2 = d_part[e_part[z]]
                                        y2 = d_part[t_part[z]]
                                        if ((x2 >= 0 and sq_id[x2] == last_sq)
                                                or (y2 >= 0 and sq_id[y2] == last_sq)):
                                            break
                                else:
                                    continue
                    stack.append((d, npath, nchoices, left - 1))
    return out, settled2x


def alternating_even_paths(sq_id, e_part, t_part, d_part, kcap, forced=None):
    """All alternating even paths of length <= kcap whose square choices keep
    the forced bits, walked from the endpoint that lies in no square.
    Returns (paths, settled2x) as `alternating_cycles` does; a path whose
    squares are all forced adds 1 to settled2x."""
    n = len(sq_id)
    out = []
    settled2x = 0
    if kcap < 2:
        return out, settled2x
    if forced is None:
        forced = (-1,) * n
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
            known = choices.get(sq, forced[sq])
            for bit in (0, 1) if known < 0 else (known,):
                partner = t_part[cur] if bit else e_part[cur]
                if partner in path:
                    continue
                nchoices = choices if known >= 0 else {**choices, sq: bit}
                npath = path + (cur, partner)
                d = d_part[partner]
                if d < 0:
                    if nchoices:
                        out.append((npath, tuple(sorted(nchoices.items()))))
                    else:
                        settled2x += 1
                elif length + 2 <= kcap and d not in npath and sq_id[d] >= 0:
                    stack.append((d, npath, nchoices, length + 2))
    return out, settled2x
