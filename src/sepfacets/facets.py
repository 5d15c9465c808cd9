"""Exact facet counting for symmetric edge polytopes of connected graphs.

A facet corresponds, up to adding a constant, to an integer vertex
labeling f such that every edge uv has |f(u) - f(v)| <= 1 and the
unit-difference edges E_f = {uv : |f(u) - f(v)| = 1} form a spanning
connected subgraph.  Labelings are normalized so their minimum value is 0.

There are three paths to these labelings; the two counters never share
search code and must always agree:

* :func:`facet_count` counts the labelings without listing them, by a
  frontier dynamic program over a greedy vertex order.  A state is the
  labels of the frontier (placed vertices with unplaced neighbors),
  shifted to minimum 0, together with the partition of the frontier into
  unit-difference components; its work grows with the frontier width,
  not with the number of facets.

* :func:`facet_functions` lists the labelings by depth-first assignment
  along a breadth-first vertex order rooted at vertex 0, pruning branches
  whose unit-difference components can no longer be reconnected by the
  unassigned vertices.

* :func:`facet_count_via_subgraphs` first lists the maximal connected
  spanning bipartite subgraphs (every E_f is one of these), contracts the
  remaining edges, and counts the labelings in which *every* edge of the
  contraction is a unit step.

All arithmetic is exact integer arithmetic; nothing here touches floats.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph, adjacency, is_connected


def _bfs_order(adj: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Breadth-first vertex order from 0 over the neighbor lists adj plus,
    per position, the neighbors already placed.  Raises if the graph is
    disconnected."""
    pos = {0: 0}
    order = [0]
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in pos:
                pos[w] = len(order)
                order.append(w)
                queue.append(w)
    if len(order) != len(adj):
        raise ValueError("graph must be connected")
    prev = [[u for u in adj[v] if pos[u] < pos[v]] for v in order]
    return order, prev


def _walk_facet_labelings(g: Graph, on_leaf) -> None:
    """Drive the DFS over candidate labelings, calling on_leaf(f) for each
    labeling whose unit-difference edge set spans and connects g.

    The union-find over unit-difference edges is maintained incrementally
    with a rollback trail.  A component all of whose members have no
    unassigned neighbors can never grow, so if one exists before the last
    vertex is placed the branch is dead.  Pruning only skips labelings the
    final check would reject; it never changes the enumerated set.
    """
    n = g.n
    if n < 1 or not g.edges:
        raise ValueError("facet counting needs a connected graph with >= 1 edge")
    adj = adjacency(g)
    order, prev = _bfs_order(adj)

    f = [0] * n
    assigned = [False] * n
    undeg = [len(adj[v]) for v in range(n)]  # unassigned-neighbor counts
    parent = list(range(n))
    size = [1] * n
    open_cnt = [0] * n  # per root: members that still have unassigned neighbors
    trail: list[tuple[list, int, int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        trail.append((parent, rb, rb))
        parent[rb] = ra
        trail.append((size, ra, size[ra]))
        size[ra] += size[rb]
        trail.append((open_cnt, ra, open_cnt[ra]))
        open_cnt[ra] += open_cnt[rb]

    def assign(v: int, label: int, last: bool) -> bool:
        """Place label on v; return False when the branch is already dead."""
        f[v] = label
        touched = []
        for u in adj[v]:
            trail.append((undeg, u, undeg[u]))
            undeg[u] -= 1
            if assigned[u] and undeg[u] == 0:
                ru = find(u)
                trail.append((open_cnt, ru, open_cnt[ru]))
                open_cnt[ru] -= 1
                touched.append(u)
        trail.append((assigned, v, False))
        assigned[v] = True
        trail.append((open_cnt, v, open_cnt[v]))
        open_cnt[v] = 1 if undeg[v] > 0 else 0
        for u in adj[v]:
            if assigned[u] and abs(f[u] - label) == 1:
                union(v, u)
        if last:
            return True
        if open_cnt[find(v)] == 0:
            return False
        for u in touched:
            if open_cnt[find(u)] == 0:
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            arr, i, old = trail.pop()
            arr[i] = old

    def rec(idx: int) -> None:
        v = order[idx]
        ps = prev[idx]
        lo, hi = f[ps[0]] - 1, f[ps[0]] + 1
        for u in ps[1:]:
            fu = f[u]
            if fu - 1 > lo:
                lo = fu - 1
            if fu + 1 < hi:
                hi = fu + 1
        last = idx + 1 == n
        for label in range(lo, hi + 1):
            mark = len(trail)
            if assign(v, label, last):
                if last:
                    if size[find(0)] == n:
                        on_leaf(f)
                else:
                    rec(idx + 1)
            undo(mark)

    mark0 = len(trail)
    if assign(order[0], 0, False):  # n >= 2 whenever there is an edge
        rec(1)
    undo(mark0)


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


def _frontier_order(adj: list[list[int]]) -> list[int]:
    """Vertex order for the frontier count over the neighbor lists adj.
    It starts at a vertex of maximum degree and always places next a vertex
    with a placed neighbor, choosing the one that grows the frontier least;
    ties go to the vertex with more placed neighbors, then to the smaller
    index.  Raises if the graph is disconnected."""
    n = len(adj)
    undeg = [len(a) for a in adj]  # unplaced-neighbor counts
    placed = [False] * n
    v = max(range(n), key=lambda x: (undeg[x], -x))
    order = []
    while True:
        order.append(v)
        placed[v] = True
        for u in adj[v]:
            undeg[u] -= 1
        if len(order) == n:
            return order
        best = None
        for w in range(n):
            if placed[w] or undeg[w] == len(adj[w]):
                continue  # placed already, or not yet next to a placed vertex
            grow = (undeg[w] > 0) - sum(1 for u in adj[w] if placed[u] and undeg[u] == 1)
            key = (grow, undeg[w] - len(adj[w]), w)
            if best is None or key < best:
                best = key
        if best is None:
            raise ValueError("graph must be connected")
        v = best[2]


def facet_count(g: Graph) -> int:
    """Number of facets of the symmetric edge polytope of g (exact).

    Places the vertices in :func:`_frontier_order` and keeps, per frontier
    state, the exact number of partial labelings that reach it.  A state
    maps the frontier positions to labels shifted to minimum 0 (labelings
    are counted up to an additive constant) and to unit-difference
    component ids numbered by first occurrence.  A placed vertex takes
    every label within 1 of all its placed neighbors and joins the
    components of the neighbors it differs from by exactly 1.  A component
    with no member left on the frontier can never grow again, so the state
    dies unless that was the last vertex; at the last vertex only the
    labelings whose unit-difference edges form one component count.
    """
    n = g.n
    if g.m < max(n - 1, 1):  # fewer edges cannot connect; before any allocation
        raise ValueError("facet counting needs a connected graph with >= 1 edge")
    adj = adjacency(g)
    order = _frontier_order(adj)
    remaining = [len(a) for a in adj]  # unplaced-neighbor counts
    for u in adj[order[0]]:
        remaining[u] -= 1
    frontier = [order[0]]
    states = {((0,), (0,)): 1}
    total = 0
    for i in range(1, n):
        v = order[i]
        nbs = [p for p, u in enumerate(frontier) if v in adj[u]]
        for u in adj[v]:
            remaining[u] -= 1
        kept = [p for p, u in enumerate(frontier) if remaining[u]]
        stays = remaining[v] > 0
        last = i == n - 1
        new: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        canon: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        for (labels, comps), cnt in states.items():
            nl = [labels[p] for p in nbs]
            nc = [comps[p] for p in nbs]
            ncomp = max(comps) + 1
            if last:  # every frontier vertex neighbors v
                for x in range(max(nl) - 1, min(nl) + 2):
                    if len({c for l, c in zip(nl, nc) if l - x in (1, -1)}) == ncomp:
                        total += cnt
                continue
            kl = [labels[p] for p in kept]
            kc = [comps[p] for p in kept]
            for x in range(max(nl) - 1, min(nl) + 2):
                merged = {c for l, c in zip(nl, nc) if l - x in (1, -1)}
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
                new[key] = new.get(key, 0) + cnt
        frontier = [frontier[p] for p in kept] + ([v] if stays else [])
        states = new
    return total


# ---------------------------------------------------------------------------
# second, independent counting path
# ---------------------------------------------------------------------------

def facet_subgraphs(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """Maximal connected spanning bipartite subgraphs of g, each exactly once.

    Such a subgraph is determined by the 2-coloring it induces: it is the
    full bichromatic edge set of a vertex coloring under which it comes out
    spanning and connected.  So it suffices to scan the 2^(n-1) colorings
    with vertex 0 pinned to color 0.  Results are ordered by edge bitmask
    (bit i = presence of g.edges[i]).
    """
    n = g.n
    if n == 1:
        return [()]
    if not is_connected(g):
        raise ValueError("facet subgraphs are defined for connected graphs")
    edge_index = {e: i for i, e in enumerate(g.edges)}
    adj = adjacency(g)
    found: dict[int, tuple[tuple[int, int], ...]] = {}
    for mask in range(1 << (n - 1)):
        color = [0] * n
        for i in range(n - 1):
            color[i + 1] = (mask >> i) & 1
        sub = [(u, v) for u, v in g.edges if color[u] != color[v]]
        if len(sub) < n - 1:
            continue  # too few edges to span
        # connectivity over all n vertices using only bichromatic edges
        nbr: list[list[int]] = [[] for _ in range(n)]
        for u, v in sub:
            nbr[u].append(v)
            nbr[v].append(u)
        seen = [False] * n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            v = stack.pop()
            for w in nbr[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        if count != n:
            continue
        key = 0
        for e in sub:
            key |= 1 << edge_index[e]
        found[key] = tuple(sub)
    return [found[k] for k in sorted(found)]


def _contract_flat_edges(g: Graph, sub: tuple[tuple[int, int], ...]):
    """Contract every edge of g outside ``sub``; return the reduced simple
    edge set on 0..k-1.  A facet subgraph never loses an edge to the
    contraction (that would force a unit step between identified vertices)."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    keep = set(sub)
    for e in g.edges:
        if e not in keep:
            ra, rb = find(e[0]), find(e[1])
            if ra != rb:
                parent[ra] = rb
    roots = sorted({find(v) for v in range(g.n)})
    index = {r: i for i, r in enumerate(roots)}
    edges = set()
    for u, v in sub:
        a, b = index[find(u)], index[find(v)]
        if a == b:
            raise RuntimeError("contraction produced a self-loop; not a facet subgraph")
        edges.add((min(a, b), max(a, b)))
    return len(roots), sorted(edges)


def _count_all_unit_labelings(k: int, edges: list[tuple[int, int]]) -> int:
    """Labelings of a connected k-vertex graph in which every edge is a
    unit step, root pinned to 0 (i.e. counted up to an additive constant)."""
    if k == 1:
        return 1
    adj: list[list[int]] = [[] for _ in range(k)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, prev = _bfs_order(adj)
    f = [0] * k
    total = 0

    def rec(idx: int) -> None:
        nonlocal total
        ps = prev[idx]
        base = f[ps[0]]
        for label in (base - 1, base + 1):
            if any(abs(f[u] - label) != 1 for u in ps[1:]):
                continue
            f[order[idx]] = label
            if idx + 1 == k:
                total += 1
            else:
                rec(idx + 1)

    rec(1)
    return total


def facet_count_via_subgraphs(g: Graph) -> int:
    """Facet count obtained by summing, over every maximal connected
    spanning bipartite subgraph, the all-unit-step labelings of the graph
    with the remaining edges contracted.  Always equals facet_count(g)."""
    if g.m < max(g.n - 1, 1):  # fewer edges cannot connect; before any allocation
        raise ValueError("facet counting needs a connected graph with >= 1 edge")
    total = 0
    for sub in facet_subgraphs(g):
        k, edges = _contract_flat_edges(g, sub)
        total += _count_all_unit_labelings(k, edges)
    return total
