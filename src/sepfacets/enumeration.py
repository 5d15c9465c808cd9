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
candidate is built only if its new element is one a fixed, isomorphism-
invariant deletion rule could remove last (McKay's canonical augmentation,
J. Algorithms 26, 1998); `_level` gives the rule and why it loses no class.
The survivors are still deduplicated by canonical form.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph

DEFAULT_GUARD = 8  # largest n enumerated or swept exhaustively by default


class GuardExceeded(RuntimeError):
    """A desk-scale resource guard refused the request (CLI exit code 3)."""


CanonicalForm = tuple[int, tuple[int, ...]]


def _refine_colors(n: int, adj: list[int]) -> list[int]:
    """Iterated color refinement; returns a canonical color id per vertex."""
    nbrs = [[w for w in range(n) if av >> w & 1] for av in adj]
    colors = [len(nb) for nb in nbrs]
    count = len(set(colors))
    for _ in range(n):
        get = colors.__getitem__
        keys = [(colors[v], tuple(sorted(map(get, nb)))) for v, nb in enumerate(nbrs)]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [rank[k] for k in keys]
        if len(rank) == count:
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
    adj = _masks(g)
    colors = _refine_colors(n, adj)
    tw = _twins(adj)
    # position p must hold a vertex of block_color[p]; blocks in color order
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    block_color = []
    for c in sorted(by_color):
        block_color += [c] * len(by_color[c])

    infinity = 1 << (n + 1)
    best = [infinity] * (n - 1)
    placed = [0] * n  # placed[p] = vertex at position p
    used = [False] * n

    def dfs(pos: int) -> None:
        prev_mask_bits = placed[:pos]
        tried = 0  # twin classes placed at pos so far: a twin's subtree repeats
        for v in by_color[block_color[pos]]:
            if used[v] or tried >> tw[v] & 1:
                continue
            tried |= 1 << tw[v]
            row = 0
            av = adj[v]
            for q in range(pos):
                row = (row << 1) | ((av >> prev_mask_bits[q]) & 1)
            slot = pos - 1
            if row > best[slot]:
                continue
            if row < best[slot]:
                best[slot] = row
                for k in range(pos, n - 1):
                    best[k] = infinity
            used[v] = True
            placed[pos] = v
            if pos + 1 < n:  # at the last position best already holds the minimum
                dfs(pos + 1)
            used[v] = False

    # position 0 carries no row; try one vertex per twin class of the first block
    for v0 in {tw[v]: v for v in by_color[block_color[0]]}.values():
        used[v0] = True
        placed[0] = v0
        dfs(1)
        used[v0] = False
    return (n, tuple(best))


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled representative of g's isomorphism class."""
    n, rows = canonical_form(g)
    edges = []
    for p, row in enumerate(rows, start=1):
        for q in range(p):
            if (row >> (p - 1 - q)) & 1:
                edges.append((q, p))
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
    candidate graphs, in canonical-form order."""
    seen: dict[CanonicalForm, Graph] = {}
    for g in candidates:
        cg = canonical_graph(g)
        seen.setdefault(_encoding(cg), cg)
    return tuple(seen[key] for key in sorted(seen))


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


def _deleted_last(adj: list[int], edges, u: int, v: int, tree: bool) -> bool:
    """Whether no deletable edge of g + uv has a larger key than uv, for g
    with neighbor masks adj and the given edges.  Edge xy has key (deg x +
    deg y, min(deg x, deg y)) in g + uv; it is deletable if it is a leaf
    edge of a tree, or if deleting it leaves a graph above a tree connected."""
    adj = adj.copy()
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    deg = [a.bit_count() for a in adj]
    top = (deg[u] + deg[v], min(deg[u], deg[v]))
    for x, y in edges:
        low = min(deg[x], deg[y])
        if (deg[x] + deg[y], low) > top and (low == 1 if tree else _reaches(adj, x, y)):
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
    with the edge mapped to its new one.  Keys and deletability are
    invariant, so the candidate is kept.  Candidates that still coincide
    are merged by canonical form, so the level does not depend on the rule.
    """
    key = (n, e)
    if key not in _LEVELS:
        tree = e == n - 1
        _LEVELS[key] = _classes(
            Graph(n, g.edges + (uv,))
            for g in (_level(n - 1, n - 2) if tree else _level(n, e - 1))
            for adj in [_masks(g) + [0] * (n - g.n)]
            for uv in ([(v, n - 1) for v in set(_twins(adj[:-1]))] if tree else _missing_edges(g))
            if _deleted_last(adj, g.edges, *uv, tree)
        )
    return _LEVELS[key]
