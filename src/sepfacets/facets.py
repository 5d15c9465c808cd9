"""Exact facet counting for symmetric edge polytopes of connected graphs.

A facet corresponds, up to adding a constant, to an integer vertex
labeling f such that every edge uv has |f(u) - f(v)| <= 1 and the
unit-difference edges E_f = {uv : |f(u) - f(v)| = 1} form a spanning
connected subgraph.  Labelings are normalized so their minimum value is 0.

There are three paths to these labelings; the two counters never share
search code and must always agree (on graphs that fold completely,
facet_count reduces to the closed forms' binomials, so there the second
path is the independent check):

* :func:`facet_count` counts the labelings without listing them.  It
  first folds away every vertex of degree <= 2: leaves, chains and
  parallel gadgets become factors and weighted edges, whose weights count
  the labelings of the vertices inside them (chains by binomials, as the
  closed forms do).  A frontier dynamic program over a greedy vertex order
  then counts the weighted core that is left.  A state is the labels of
  the frontier (placed vertices with unplaced neighbors), shifted to
  minimum 0, together with the partition of the frontier into
  unit-difference components; its work grows with the frontier width of
  the core, not with the number of facets.

* :func:`facet_functions` lists the labelings by its own depth-first walk
  along a breadth-first vertex order rooted at vertex 0.  A branch carries
  its unit-difference components as bitmasks and dies when one of them has
  no vertex left with an unlabelled neighbor, so nothing is undone.

* :func:`facet_count_via_subgraphs` multiplies over the biconnected
  blocks of the graph, since facet labelings of the blocks glue uniquely
  up to a shift at the cut vertices.  In each block it lists the maximal
  connected spanning bipartite subgraphs (every E_f is one of these) by
  its own pruned walk over 2-colourings, which carries the colour classes
  and the bichromatic components as bitmasks.  It contracts the remaining
  edges by masks and counts the labelings in which *every* edge of the
  contraction is a unit step: 2 per edge of a tree, 2 per peeled leaf,
  C(L, L/2) for a cycle of even length L, and otherwise a frontier DP
  over unit steps whose results are cached per block, keyed by the size
  and packed edge set of the relabelled core.  Its work follows the
  number of subgraphs per block, not the number of facets.

All arithmetic is exact integer arithmetic; nothing here touches floats.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import accumulate
from operator import add, mul

from .formulas import _binom_slice, cycle_count
from .graph import Graph, GuardExceeded, adjacency, bfs_order, biconnected_blocks

# facet_count raises GuardExceeded once one DP step holds more states than
# this; with the step before, that is about 1 GB (figures in README)
MAX_FRONTIER_STATES = 2_000_000


def _walk_facet_labelings(g: Graph, on_leaf) -> None:
    """Call on_leaf(f) for each labeling f of g with f(0) = 0, no step above
    1 on any edge, and unit-difference edges that span and connect g.

    The vertices are labelled along a breadth-first order, and a partial
    labeling carries its unit-difference components as masks: placing v at
    x joins it to every component that holds a placed neighbor at x - 1 or
    x + 1.  A component that misses the open mask of a position (the placed
    vertices with a neighbor still to come) can never grow, so the branch
    is dead unless that position is the last.  f is written only at the
    vertex being placed and read only at placed vertices, so nothing is
    undone on the way back.  Pruning only skips labelings the final check
    would reject; it never changes the enumerated set.
    """
    n = g.n
    if g.m < n - 1 or not n:  # fewer edges cannot connect; before any allocation
        raise ValueError("facet counting needs a connected graph with >= 1 vertex")
    if n == 1:  # one vertex, one labeling
        return on_leaf([0])
    adj = adjacency(g)
    order = bfs_order(adj)
    if len(order) != n:
        raise ValueError("graph must be connected")
    pos = {v: i for i, v in enumerate(order)}
    prev = [[(u, 1 << u) for u in adj[v] if pos[u] < pos[v]] for v in order]
    done = [max([pos[u] for u in adj[v]]) for v in range(n)]  # position of v's last neighbor
    opens = [sum([1 << v for v in order[:i + 1] if done[v] > i]) for i in range(n)]
    f = [0] * n
    last = n - 1

    def rec(i: int, comps: list[int]) -> None:
        v, ps, op = order[i], prev[i], opens[i]
        labels = [f[u] for u, _ in ps]
        for x in range(max(labels) - 1, min(labels) + 2):
            f[v] = x
            unit = 0  # placed neighbors one label away: |f(u) - x| <= 1 by the range
            for u, b in ps:
                if f[u] != x:
                    unit |= b
            merged, kept = 1 << v, []
            for c in comps:
                if c & unit:
                    merged |= c
                else:
                    kept.append(c)
            if i == last:
                if not kept:
                    on_leaf(f)
            elif merged & op and all([c & op for c in kept]):
                kept.append(merged)
                rec(i + 1, kept)

    rec(1, [1])  # bfs_order starts at vertex 0, labelled 0; n >= 2 here


def facet_functions(g: Graph) -> list[tuple[int, ...]]:
    """All facet-defining labelings of g, normalized to minimum value 0,
    in lexicographic order.  Each facet appears exactly once."""
    out: list[tuple[int, ...]] = []

    def keep(f: list[int]) -> None:
        mn = min(f)
        out.append(tuple(x - mn for x in f))

    _walk_facet_labelings(g, keep)
    out.sort()
    for a, b in zip(out, out[1:]):
        if a == b:
            raise RuntimeError("duplicate facet labeling; normalization is broken")
    # unit steps span a connected graph, so no labeling spans more than n - 1
    if any(max(f) > g.n - 1 for f in out):
        raise RuntimeError("facet labeling spans more than n - 1; the walk is broken")
    return out


def _order_width(adj: list[list[int]], order: list[int]) -> int:
    """Most vertices on the frontier at once along order: placed, with a
    neighbor still to come."""
    pos = {v: i for i, v in enumerate(order)}
    steps = [0] * len(order)
    for v, i in pos.items():  # on from i until its last neighbor is placed
        steps[i] += 1
        steps[max(i, *[pos[u] for u in adj[v]])] -= 1
    return max(accumulate(steps))


def _frontier_order(adj: list[list[int]]) -> list[int]:
    """Vertex order for the frontier count over the neighbor lists adj.
    It starts at a vertex of maximum degree and always places next a vertex
    with a placed neighbor, choosing the one that grows the frontier least;
    ties go to the vertex with more placed neighbors, then to the smaller
    index.  Raises if the graph is disconnected."""
    n = len(adj)
    undeg = [len(a) for a in adj]  # unplaced-neighbor counts
    ones = [0] * n  # placed neighbors whose only unplaced neighbor this is
    placed = [False] * n
    heap = []  # keys only fall, so a vertex's live key pops before stale ones
    v = max(range(n), key=lambda x: (undeg[x], -x))
    order = []
    while True:
        order.append(v)
        placed[v] = True
        touched = [v] if undeg[v] == 1 else []
        for u in adj[v]:
            undeg[u] -= 1
            if not placed[u] or undeg[u] == 1:
                touched.append(u)
        if len(order) == n:
            return order
        for w in touched:
            if placed[w]:  # w is left with one unplaced neighbor: re-key that one
                w = next(x for x in adj[w] if not placed[x])
                ones[w] += 1
            heappush(heap, ((undeg[w] > 0) - ones[w], undeg[w] - len(adj[w]), w))
        while heap and placed[heap[0][2]]:
            heappop(heap)
        if not heap:
            raise ValueError("graph must be connected")
        v = heappop(heap)[2]


# ---------------------------------------------------------------------------
# facet_count: series-parallel folding, then a frontier DP on the core
# ---------------------------------------------------------------------------
#
# An edge of the folded graph stands for a gadget of plain edges between its
# ends u and w: an int L is a chain of L plain edges, and a triple
# (s, conn, split) holds two lists indexed by d + s for d = f(w) - f(u) in
# -s..s.  conn[d] counts the labelings of the inner vertices that put all
# of them in the unit-step component joining u and w; split[d] counts those
# in which u and w are not joined through the gadget and every inner vertex
# is joined to one of them.  Both are even in d, so an edge has no direction.

def _span(e) -> int:
    return e if isinstance(e, int) else e[0]


def _weights(e, r: int) -> tuple[list[int], list[int]]:
    """conn and split of edge e at d = -r..r, for 1 <= r <= its span.  A
    chain of L edges has conn[d] = binom(L, (L+d)/2) (every step a unit
    step) and split[d] = L*binom(L-1, (L-1+d)/2) (exactly one flat step)."""
    if not isinstance(e, int):
        s, conn, split = e
        return conn[s - r:s + r + 1], split[s - r:s + r + 1]
    p = (e + r) % 2  # conn lives on d = -r + p, -r + p + 2, ...
    conn = [0] * (2 * r + 1)
    split = conn[:]
    conn[p::2] = _binom_slice(e, (e - r + p) // 2, r + 1 - p)
    split[1 - p::2] = [e * b for b in _binom_slice(e - 1, (e - r - p) // 2, r + p)]
    return conn, split


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _series(e1, e2):
    """e1 and e2 joined at a vertex of degree 2, which joins both ends or
    hangs off one of them through the other edge.  Two chains make one."""
    if isinstance(e1, int) and isinstance(e2, int):
        return e1 + e2
    (c1, s1), (c2, s2) = _weights(e1, _span(e1)), _weights(e2, _span(e2))
    split = list(map(add, _convolve(s1, c2), _convolve(c1, s2)))
    return (_span(e1) + _span(e2), _convolve(c1, c2), split)


def _parallel(e1, e2):
    """e1 and e2 between the same two ends: joined when either is, split
    only when both are."""
    r = min(_span(e1), _span(e2))
    (c1, s1), (c2, s2) = _weights(e1, r), _weights(e2, r)
    conn = [a * (b + q) + p * b for a, p, b, q in zip(c1, s1, c2, s2)]
    return (r, conn, list(map(mul, s1, s2)))


def _fold(g: Graph) -> tuple[int, list]:
    """Fold the series-parallel structure out of g, starting from plain
    edges (chains of length 1), until every vertex left has degree >= 3 or
    is isolated.  Returns the product of what left the graph and, per
    vertex, None if it left, else its neighbor -> edge map:

    * a leaf takes the sum of its edge's conn (2^L for a chain);
    * a vertex of degree 2 leaves, its two edges joined by :func:`_series`;
    * an edge parallel to an old one merges with it by :func:`_parallel`,
      and if that leaves one end hanging, the two close a cycle through the
      other end, which takes the sum of the merged conn (cycle_count(L1 +
      L2) for two chains).

    Each connected part of g keeps at least one vertex.  Degree-2 vertices
    next to a weighted edge wait until the chains have folded, so a long
    chain is convolved once, not edge by edge."""
    nb: list = [{} for _ in range(g.n)]
    for u, v in g.edges:
        nb[u][v] = nb[v][u] = 1
    factor, shift = 1, 0  # pendant chains give powers of 2
    todo = [v for v in range(g.n) if len(nb[v]) <= 2]
    later = []
    while todo or later:
        deferred = not todo
        v = (todo or later).pop()
        ends = nb[v]
        if not ends:  # gone, or isolated
            continue
        if not deferred and len(ends) == 2 and not all(isinstance(e, int) for e in ends.values()):
            later.append(v)
            continue
        nb[v] = None
        if len(ends) == 1:
            (u, e), = ends.items()
            del nb[u][v]
            if isinstance(e, int):
                shift += e
            else:
                factor *= sum(e[1])
            touched = (u,)
        else:
            (u, e1), (w, e2) = ends.items()
            del nb[u][v], nb[w][v]
            e = _series(e1, e2)
            old = nb[u].get(w)
            if old is None:
                nb[u][w] = nb[w][u] = e
                continue
            if len(nb[u]) == 1:
                u, w = w, u
            if len(nb[w]) == 1:  # w hangs off u
                if isinstance(e, int) and isinstance(old, int):
                    factor *= cycle_count(e + old)
                else:
                    factor *= sum(_parallel(e, old)[1])
                nb[w] = None
                del nb[u][w]
                touched = (u,)
            else:
                nb[u][w] = nb[w][u] = _parallel(e, old)
                touched = (u, w)
        todo += [t for t in touched if len(nb[t]) <= 2]
    return factor << shift, nb


def facet_count(g: Graph) -> int:
    """Number of facets of the symmetric edge polytope of g (exact).

    :func:`_fold` removes every vertex of degree <= 2 into weighted edges
    and a factor.  If more than one vertex is left, the frontier DP counts
    the labelings of that core: its vertices are placed in
    :func:`_frontier_order`, keeping per frontier state the exact number of
    partial labelings that reach it.  A state maps the frontier positions
    to labels shifted to minimum 0 (labelings are counted up to an additive
    constant) and to unit-step component ids numbered by first occurrence.
    A placed vertex takes every label whose difference d to each placed
    neighbor has a nonzero weight on their edge, times conn[d], joining the
    two components, or split[d], keeping them apart.  A plain edge never
    offers both.  A component with no member left on the frontier can never
    grow again, so the state dies unless that was the last vertex; at the
    last vertex only the labelings that leave one component count.  A step
    that passes MAX_FRONTIER_STATES states raises GuardExceeded.
    """
    if g.m < g.n - 1 or not g.n:  # fewer edges cannot connect; before any allocation
        raise ValueError("facet counting needs a connected graph with >= 1 vertex")
    factor, nb = _fold(g)
    core = [v for v in range(g.n) if nb[v] is not None]
    if len(core) == 1:
        return factor
    index = {v: i for i, v in enumerate(core)}
    adj = [[index[u] for u in nb[v]] for v in core]
    weight = [{index[u]: (_span(e), *_weights(e, _span(e))) for u, e in nb[v].items()} for v in core]
    n = len(core)
    order = _frontier_order(adj)  # raises if g, and so the core, is disconnected
    remaining = [len(a) for a in adj]  # unplaced-neighbor counts
    for u in adj[order[0]]:
        remaining[u] -= 1
    frontier = [order[0]]
    slot = [-1] * n  # frontier positions; placed neighbors of unplaced vertices stay on it
    states = {((0,), (0,)): 1}
    total = 0
    for i in range(1, n):
        v = order[i]
        for p, u in enumerate(frontier):
            slot[u] = p
        nbs = [(slot[u], *weight[v][u]) for u in adj[v] if slot[u] >= 0]
        for u in adj[v]:
            remaining[u] -= 1
        kept = [p for p, u in enumerate(frontier) if remaining[u]]
        stays = remaining[v] > 0
        last = i == n - 1
        new: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        canon: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        for (labels, comps), cnt in states.items():
            ncomp = max(comps) + 1
            kl = [labels[p] for p in kept]
            kc = [comps[p] for p in kept]
            lo = max([labels[p] - s for p, s, _, _ in nbs])
            hi = min([labels[p] + s for p, s, _, _ in nbs])
            for x in range(lo, hi + 1):
                w, joined, forks = cnt, set(), []
                for p, s, conn, split in nbs:
                    d = x - labels[p] + s
                    a, b = conn[d], split[d]
                    if a and b:
                        forks.append((comps[p], a, b))
                    elif a:
                        w *= a
                        joined.add(comps[p])
                    elif b:
                        w *= b
                    else:
                        break
                else:
                    ways = [(w, joined)]
                    for c, a, b in forks:
                        ways = [(w * a, j | {c}) for w, j in ways] + [(w * b, j) for w, j in ways]
                    for w, merged in ways:
                        if last:  # every frontier vertex neighbors v
                            if len(merged) == ncomp:
                                total += w
                            continue
                        raw = tuple([-1 if c in merged else c for c in kc])  # -1: v's component
                        if stays:
                            raw += (-1,)
                        hit = canon.get(raw)
                        if hit is None:
                            ids: dict[int, int] = {}
                            hit = canon[raw] = (tuple([ids.setdefault(c, len(ids)) for c in raw]), len(ids))
                        if hit[1] != ncomp - len(merged) + 1:
                            continue  # a component left the frontier for good
                        labs = kl + [x] if stays else kl
                        m = min(labs)
                        key = (tuple([l - m for l in labs]) if m else tuple(labs), hit[0])
                        new[key] = new.get(key, 0) + w
            if len(new) > MAX_FRONTIER_STATES:  # once per source state, off the per-label path
                raise GuardExceeded(f"frontier count of a {n}-vertex core at order width "
                                    f"{_order_width(adj, order)} passed {MAX_FRONTIER_STATES} states")
        frontier = [frontier[p] for p in kept] + ([v] if stays else [])
        states = new
    return factor * total


# ---------------------------------------------------------------------------
# second, independent counting path
# ---------------------------------------------------------------------------

def _unit_order(adj: list[list[int]]) -> list[int]:
    """Vertex order for :func:`_count_all_unit_labelings` over the neighbor
    lists adj of a connected graph.  It starts at a vertex of least degree
    and always places next a vertex with a placed neighbor, choosing the
    one that grows the frontier least; ties go to the vertex with more
    placed neighbors, then to the smaller index.  Each step scans every
    candidate, which is cheap on the contractions of one block."""
    undeg = [len(a) for a in adj]  # unplaced-neighbor counts
    placed = [False] * len(adj)
    v = min(range(len(adj)), key=undeg.__getitem__)
    order: list[int] = []
    near: set[int] = set()
    while True:
        order.append(v)
        placed[v] = True
        near.discard(v)
        for u in adj[v]:
            undeg[u] -= 1
            if not placed[u]:
                near.add(u)
        if len(order) == len(adj):
            return order
        v = min(near, key=lambda w: ((undeg[w] > 0) - sum([placed[u] and undeg[u] == 1 for u in adj[w]]),
                                     undeg[w] - len(adj[w]), w))


def _count_all_unit_labelings(k: int, edges) -> int:
    """Labelings of a connected graph on 0..k-1, up to an additive
    constant, in which every edge is a unit step.  A frontier dynamic
    program along :func:`_unit_order`: a state is the labels of the placed
    vertices with unplaced neighbors, shifted to minimum 0, and holds the
    number of partial labelings that reach it.  A vertex takes every label
    one step from each of its placed neighbors: two if their labels agree,
    the middle one if they are two apart with none in the middle, else
    none."""
    adj: list[list[int]] = [[] for _ in range(k)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = _unit_order(adj)
    remaining = [len(a) for a in adj]  # unplaced-neighbor counts
    for u in adj[order[0]]:
        remaining[u] -= 1
    frontier = [order[0]]
    slot = [-1] * k  # frontier positions; placed neighbors of unplaced vertices stay on it
    states = {(0,): 1}
    for v in order[1:]:
        for p, u in enumerate(frontier):
            slot[u] = p
        nbs = [slot[u] for u in adj[v] if slot[u] >= 0]
        for u in adj[v]:
            remaining[u] -= 1
        kept = [p for p, u in enumerate(frontier) if remaining[u]]
        stays = remaining[v] > 0
        new: dict[tuple[int, ...], int] = {}
        for labels, cnt in states.items():
            ls = [labels[p] for p in nbs]
            lo, hi = min(ls), max(ls)
            if lo == hi:
                xs = (lo - 1, lo + 1)
            elif hi - lo == 2 and lo + 1 not in ls:
                xs = (lo + 1,)
            else:
                continue
            kl = [labels[p] for p in kept]
            for x in xs:
                labs = kl + [x] if stays else kl
                m = min(labs, default=0)
                key = tuple([l - m for l in labs]) if m else tuple(labs)
                new[key] = new.get(key, 0) + cnt
        frontier = [frontier[p] for p in kept] + ([v] if stays else [])
        states = new
    return sum(states.values())


def _unit_count(k: int, unit, cache: dict) -> int:
    """Labelings of the connected graph with edge set unit on 0..k-1, up to
    an additive constant, in which every edge is a unit step.  A tree has
    2 per edge.  Otherwise each peeled leaf doubles the count of what is
    left, a single cycle of length L has C(L, L/2) (0 if L is odd), and any
    other core is counted by :func:`_count_all_unit_labelings` once per
    distinct relabelled edge set, keyed in cache by its size and its edges
    packed into one int (bit a * size + b for an edge a < b)."""
    if len(unit) == k - 1:
        return 1 << len(unit)
    nb: list[list[int]] = [[] for _ in range(k)]
    for a, b in unit:
        nb[a].append(b)
        nb[b].append(a)
    deg = [len(x) for x in nb]
    leaves = [v for v in range(k) if deg[v] == 1]
    for v in leaves:  # grows while it is walked; a connected non-tree keeps a core
        deg[v] = 0
        for u in nb[v]:
            if deg[u]:
                deg[u] -= 1
                if deg[u] == 1:
                    leaves.append(u)
    core = [v for v in range(k) if deg[v]]
    size = len(core)
    if len(unit) - len(leaves) == size:  # every core vertex has degree 2
        return 0 if size % 2 else math.comb(size, size // 2) << len(leaves)
    index = {v: i for i, v in enumerate(core)}
    edges = [(index[a], index[b]) for a, b in unit if deg[a] and deg[b]]
    key = (size, sum([1 << (a * size + b) for a, b in edges]))
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _count_all_unit_labelings(size, edges)
    return hit << len(leaves)


def _walk_two_colourings(nb: list[int], on_leaf) -> None:
    """Call on_leaf(ones) for each 2-colouring of the connected graph with
    neighbor masks nb and at least two vertices, vertex 0 coloured 0, whose
    bichromatic edges span and connect it; ones is the mask of the colour-1
    vertices.  Those edges form a maximal connected spanning bipartite
    subgraph, which fixes the colouring, so each such subgraph is listed
    exactly once.

    The vertices are coloured along a breadth-first order, and a partial
    colouring carries its bichromatic components as masks: placing v joins
    it to every component that holds a placed neighbor of the other colour.
    A component that misses the open mask of a position (the placed
    vertices with a neighbor still to come) can never grow, so the branch
    is dead unless that position is the last.  The open masks do not
    depend on the colours, so nothing is undone on the way back."""
    k = len(nb)
    order, seen = [0], 1  # bfs_order over masks: building its lists costs k^2 per block
    for v in order:  # order grows while it is walked: it is the queue
        new = nb[v] & ~seen
        seen |= new
        while new:
            low = new & -new
            order.append(low.bit_length() - 1)
            new ^= low
    if len(order) != k:
        raise ValueError("graph must be connected")
    prev, opens, placed = [], [], 0
    for i, v in enumerate(order):
        prev.append(nb[v] & placed)
        placed |= 1 << v
        later = ((1 << k) - 1) ^ placed
        opens.append(sum(1 << u for u in order[:i + 1] if nb[u] & later))
    last = k - 1

    def rec(i: int, ones: int, comps: list[int]) -> None:
        bit, op = 1 << order[i], opens[i]
        nb1 = prev[i] & ones  # placed neighbors of colour 1
        for other, grown in ((nb1, ones), (prev[i] ^ nb1, ones | bit)):  # v coloured 0, then 1
            merged, kept = bit, []
            for c in comps:
                if c & other:
                    merged |= c
                else:
                    kept.append(c)
            if i == last:
                if not kept:
                    on_leaf(grown)
            elif merged & op and all([c & op for c in kept]):
                kept.append(merged)
                rec(i + 1, grown, kept)

    rec(1, 0, [1])


def _contract(nb: list[int], ones: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Contract the monochromatic edges of the 2-colouring with colour-1
    mask ones, over the neighbor masks nb.  Returns the parts, the
    components of each colour class as masks (colour 0 first), and the
    unit edges as pairs (a, b) of part indices with a < b: two parts are
    joined when the neighbor mask of one meets the other.  Monochromatic
    paths join only vertices of one colour, so no bichromatic edge becomes
    a self-loop."""
    parts, reach = [], []
    for cls in (((1 << len(nb)) - 1) ^ ones, ones):
        first = len(parts)
        while cls:
            part, near, todo = 0, 0, cls & -cls
            while todo:
                low = todo & -todo
                part |= low
                near |= nb[low.bit_length() - 1]
                todo = (todo | near & cls) & ~part
            cls ^= part
            parts.append(part)
            reach.append(near)
    unit = [(a, b) for a in range(first) for b in range(first, len(parts)) if reach[a] & parts[b]]
    return parts, unit


def _block_count_via_subgraphs(k: int, edges: list[tuple[int, int]]) -> int:
    """Facet count of a biconnected block on 0..k-1 with at least two edges.
    Each leaf of :func:`_walk_two_colourings` is the one colouring of a
    maximal connected spanning bipartite subgraph; :func:`_contract` turns
    it into a connected graph whose all-unit-step labelings
    :func:`_unit_count` adds, with a cache that lives for this call only."""
    nb = [0] * k
    for u, v in edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    total = 0
    cache: dict[tuple[int, int], int] = {}

    def leaf(ones: int) -> None:
        nonlocal total
        parts, unit = _contract(nb, ones)
        total += _unit_count(len(parts), unit, cache)

    _walk_two_colourings(nb, leaf)
    return total


def facet_count_via_subgraphs(g: Graph) -> int:
    """Facet count as a product over the biconnected blocks of g: 2 per
    bridge (it steps up or down) and :func:`_block_count_via_subgraphs` per
    other block, relabelled to 0..k-1.  Labelings of the blocks glue
    uniquely, up to a shift, at the cut vertices.  The block split raises
    if g is disconnected.  Always equals facet_count(g)."""
    if g.m < g.n - 1 or not g.n:  # fewer edges cannot connect; before any allocation
        raise ValueError("facet counting needs a connected graph with >= 1 vertex")
    total = 1
    for block in biconnected_blocks(g):
        if len(block) == 1:
            total *= 2
        else:
            index = {v: i for i, v in enumerate(sorted({v for e in block for v in e}))}
            total *= _block_count_via_subgraphs(len(index), [(index[u], index[v]) for u, v in block])
    return total
