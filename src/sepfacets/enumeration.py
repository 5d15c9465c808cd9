"""Exhaustive enumeration of small connected graphs, one per isomorphism
class, with a canonical form found by a pruned search.

The canonical form of a graph is the lexicographically smallest adjacency
encoding over the vertex relabelings that keep its refined color order.
Color refinement (degrees, then iterated neighbor-color multisets) splits
the vertices into classes first.  The search places them in class order
with prefix pruning, and tries one vertex per twin class at each position:
swapping two twins is an automorphism, so their subtrees repeat.  Stars
cost linear time, but other symmetry (a windmill's triangles) costs
factorial time, so n <= 8 is the supported regime, enforced by a guard.

Classes are generated level by level: trees by leaf augmentation, then one
extra edge at a time, one candidate per orbit of the twin swaps.  A
candidate is built only if no deletable edge outranks its new edge under
the key (deg x + deg y, min(deg x, deg y)), ties broken by the same pair
over s x and s y, the sums of x's and y's neighbors' degrees (McKay's
canonical augmentation, J. Algorithms 26, 1998).  Every part of the key
is an isomorphism invariant, so each class keeps the candidate whose new
edge is its deletable edge of largest key; `_level` gives the argument.
The survivors are still deduplicated by canonical form.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph, GuardExceeded, adjacency

DEFAULT_GUARD = 8  # largest n enumerated or swept exhaustively by default


CanonicalForm = tuple[int, tuple[int, ...]]


def _refine_colors(nbrs: list[list[int]]) -> list[int]:
    """Iterated color refinement of the graph with these neighbor lists;
    returns a canonical color id per vertex.  Each round ranks the vertices
    by their color, then their neighbors' colors in increasing order."""
    n = len(nbrs)
    colors = [len(nb) for nb in nbrs]
    count = len(set(colors))
    for _ in range(n):
        # vertices of one color have equal degrees, so keys of one color
        # have equal lengths; appending in color order sorts each key
        keys = [[c] for c in colors]
        for w in sorted(range(n), key=colors.__getitem__):
            c = colors[w]
            for z in nbrs[w]:
                keys[z].append(c)
        keys = list(map(tuple, keys))
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = list(map(rank.__getitem__, keys))
        # a discrete partition is stable: another round would rank it the same
        if len(rank) == count or len(rank) == n:
            break
        count = len(rank)
    return colors


def _masks(g: Graph) -> list[int]:
    """Neighbor bitmask per vertex."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _twins(adj: list[int]) -> list[int]:
    """The least twin of each vertex (itself if none).  v and w are twins
    when adj[v] and adj[w] agree off {v, w}; swapping them is an
    automorphism that fixes every other vertex.  False twins have equal
    neighbor sets, true twins equal closed ones; no vertex has both."""
    tw, by_open, by_closed = [], {}, {}
    for v, av in enumerate(adj):
        w = by_open.setdefault(av, v)
        tw.append(w if w != v else by_closed.setdefault(av | 1 << v, v))
    return tw


def canonical_form(g: Graph) -> CanonicalForm:
    """Smallest adjacency encoding of g over the relabelings in refined color order.

    The encoding is (n, rows) where rows[p-1] packs the adjacency between
    the vertex placed at position p and positions 0..p-1, earliest position
    in the highest bit.  Equal forms mean isomorphic graphs and vice versa.
    """
    n = g.n
    if n <= 1:
        return (n, ())
    adj, nbrs = _masks(g), adjacency(g)
    colors = _refine_colors(nbrs)
    tw = _twins(adj)
    # position p must hold a vertex of block_color[p]; blocks in color order
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    block_color = sorted(colors)  # the colors are the ranks 0, 1, ...

    infinity = 1 << (n + 1)
    best = [infinity] * (n - 1)
    # placing a vertex at position q sets bit n - 1 - q of its neighbors'
    # entries, so a vertex's row at position p is its entry >> (n - p)
    above = [0] * n
    used = [False] * n

    def dfs(pos: int) -> None:
        shift, slot = n - pos, pos - 1
        bit = 1 << (shift - 1)
        tried = 0  # twin classes placed at pos so far: a twin's subtree repeats
        for v in by_color[block_color[pos]]:
            if used[v] or tried >> tw[v] & 1:
                continue
            tried |= 1 << tw[v]
            row = above[v] >> shift
            if row > best[slot]:
                continue
            if row < best[slot]:
                best[slot] = row
                for k in range(pos, n - 1):
                    best[k] = infinity
            if pos + 1 < n:  # at the last position best already holds the minimum
                used[v] = True
                for w in nbrs[v]:
                    above[w] |= bit
                dfs(pos + 1)
                for w in nbrs[v]:
                    above[w] ^= bit
                used[v] = False

    # position 0 carries no row; try one vertex per twin class of the first block
    top = 1 << (n - 1)
    for v0 in {tw[v]: v for v in by_color[block_color[0]]}.values():
        used[v0] = True
        for w in nbrs[v0]:
            above[w] |= top
        dfs(1)
        for w in nbrs[v0]:
            above[w] ^= top
        used[v0] = False
    return (n, tuple(best))


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled representative of g's isomorphism class."""
    n, rows = canonical_form(g)
    edges = []
    for p, row in enumerate(rows, start=1):
        while row:  # bit p - 1 - q of the row is the edge qp
            low = row & -row
            edges.append((p - low.bit_length(), p))
            row ^= low
    return Graph(n, tuple(edges))


def _encoding(g: Graph) -> CanonicalForm:
    """The adjacency encoding of g under its own labelling, packed as in
    canonical_form.  On a canonical_graph result this is its canonical
    form, without a second search."""
    rows = [0] * max(g.n - 1, 0)
    for q, p in g.edges:
        rows[p - 1] |= 1 << (p - 1 - q)
    return (g.n, tuple(rows))


# ---------------------------------------------------------------------------
# class generation
# ---------------------------------------------------------------------------

_LEVELS: dict[tuple[int, int], tuple[Graph, ...]] = {(1, 0): (Graph(1, ()),)}


def _classes(candidates) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class among the
    candidate graphs, all on the same vertices, in canonical-form order.
    Canonical graphs on n vertices are equal exactly when their forms are,
    so they are told apart by their edges and encoded only to be sorted."""
    seen: dict[tuple[tuple[int, int], ...], Graph] = {}
    for g in candidates:
        cg = canonical_graph(g)
        seen.setdefault(cg.edges, cg)
    return tuple(sorted(seen.values(), key=_encoding))


def connected_graphs(n: int, e: int, guard: int | None = DEFAULT_GUARD):
    """Yield one canonical representative per isomorphism class of
    connected simple graphs with n vertices and e edges.

    Results are cached per (n, e) level and streamed in canonical-form
    order, so repeat sweeps are cheap and deterministic.  The default
    guard refuses n > 8; pass a larger guard (or None) to override.
    """
    if n < 1 or e < 0:
        raise ValueError(f"need n >= 1 and e >= 0, got n={n}, e={e}")
    if guard is not None and n > guard:
        raise GuardExceeded(f"connected-graph enumeration at n={n} exceeds the guard ({guard})")
    if e < n - 1 or e > n * (n - 1) // 2:
        return
    yield from _level(n, e)


def _missing_edges(g: Graph):
    """One missing edge of g per orbit of the twin swaps, which swap the
    pairs between two twin classes, or inside one, onto each other."""
    adj = _masks(g)
    tw = _twins(adj)
    pairs = combinations(range(g.n), 2)
    return {frozenset((tw[u], tw[v])): (u, v) for u, v in pairs if not adj[u] >> v & 1}.values()


def _reaches(adj: list[int], x: int, y: int) -> bool:
    """Whether y is reachable from x without the edge xy (bitmask BFS)."""
    seen, frontier = 1 << x, adj[x] & ~(1 << y)
    while frontier and not frontier >> y & 1:
        seen |= frontier
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
    return frontier != 0


def _deleted_last(adj: list[int], deg: list[int], ranked, u: int, v: int, tree: bool) -> bool:
    """Whether no deletable edge of g + uv has a larger key than uv, for g
    with neighbor masks adj and degrees deg, and ranked holding each edge
    xy of g as (deg x + deg y, x, y), largest sum first.  Edge xy has key
    (deg x + deg y, min(deg x, deg y)) in g + uv; ties are broken by
    (s x + s y, min(s x, s y)), where s w sums the degrees of w's neighbors
    in g + uv.  It is deletable if it is a leaf edge of a tree, or if
    deleting it leaves a graph above a tree connected."""
    deg = deg.copy()
    deg[u] += 1
    deg[v] += 1
    top = (deg[u] + deg[v], min(deg[u], deg[v]))
    s = plus = None  # the s w and the masks of g + uv, when needed
    for total, x, y in ranked:
        if total + 1 < top[0]:  # adding uv raises no other edge's sum by more than one
            break
        key = (deg[x] + deg[y], min(deg[x], deg[y]))
        if key < top or tree and key[1] > 1:
            continue
        if key == top:
            if s is None:
                s = [0] * len(deg)
                for _, a, b in ranked:
                    s[a] += deg[b]
                    s[b] += deg[a]
                s[u] += deg[v]
                s[v] += deg[u]
            if (s[x] + s[y], min(s[x], s[y])) <= (s[u] + s[v], min(s[u], s[v])):
                continue
        if tree:
            return False
        if plus is None:
            plus = adj.copy()
            plus[u] |= 1 << v
            plus[v] |= 1 << u
        if _reaches(plus, x, y):
            return False
    return True


def _level(n: int, e: int) -> tuple[Graph, ...]:
    """The (n, e) classes from the level below: a leaf n - 1 on one vertex
    per twin class of each tree, or one missing edge per orbit of the twin
    swaps of each graph, kept only if _deleted_last holds for the new edge.

    No class is lost.  Take G in the level and a deletable edge of largest
    key.  Deleting it (in a tree, with its leaf) leaves a graph isomorphic
    to a representative R below, and R plus the image of the edge is
    isomorphic to G.  A twin swap, an automorphism of R, maps that image to
    the candidate built for its orbit, so that candidate is isomorphic to G
    with the edge mapped to its new one.  Keys (degrees, then neighbor
    degree sums on a tie) and deletability are invariant under isomorphism,
    so no deletable edge outranks the new one, and the candidate is kept.
    Candidates that still coincide are merged by canonical form, so the
    level does not depend on the rule.
    """
    key = (n, e)
    if key not in _LEVELS:
        tree = e == n - 1

        def candidates():
            for g in _level(n - 1, n - 2) if tree else _level(n, e - 1):
                adj = _masks(g) + [0] * (n - g.n)
                deg = [a.bit_count() for a in adj]  # once per parent, as is ranked
                ranked = sorted(((deg[x] + deg[y], x, y) for x, y in g.edges), reverse=True)
                for uv in [(v, n - 1) for v in set(_twins(adj[:-1]))] if tree else _missing_edges(g):
                    if _deleted_last(adj, deg, ranked, *uv, tree):
                        yield Graph(n, g.edges + (uv,))

        _LEVELS[key] = _classes(candidates())
    return _LEVELS[key]
