"""Exhaustive enumeration of small connected graphs, one per isomorphism
class, with a brute-force canonical form.

The canonical form of a graph is the lexicographically smallest adjacency
encoding over all vertex relabelings.  Color refinement (degrees, then
iterated neighbor-color multisets) splits the vertices into classes first,
and only relabelings that keep the class order need to be searched, with
prefix pruning.  This is quadratic-ish in practice at desk scale and is
deliberately simple; n <= 8 is the supported regime, enforced by a guard.

Classes are generated level by level: trees by leaf augmentation, then one
extra edge at a time.  Every connected graph above a tree has a non-bridge
edge whose removal stays connected, so augmenting every representative by
every missing edge reaches every class.
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
    nbrs = [[w for w in range(n) if (adj[v] >> w) & 1] for v in range(n)]
    colors = [len(nbrs[v]) for v in range(n)]
    for _ in range(n):
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in nbrs[v]))) for v in range(n)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if len(set(new)) == len(set(colors)):
            colors = new
            break
        colors = new
    return colors


def canonical_form(g: Graph) -> CanonicalForm:
    """Smallest adjacency encoding of g over all relabelings.

    The encoding is (n, rows) where rows[p-1] packs the adjacency between
    the vertex placed at position p and positions 0..p-1, earliest position
    in the highest bit.  Equal forms mean isomorphic graphs and vice versa.
    """
    n = g.n
    if n == 0:
        return (0, ())
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if n == 1:
        return (1, ())
    colors = _refine_colors(n, adj)
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
        want = block_color[pos]
        for v in by_color[want]:
            if used[v]:
                continue
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

    # position 0 carries no row; try each vertex of the first block there
    first_block = by_color[block_color[0]]
    for v0 in first_block:
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

_TREES: dict[int, tuple[Graph, ...]] = {1: (Graph(1, ()),)}
_LEVELS: dict[tuple[int, int], tuple[Graph, ...]] = {}


def _classes(candidates) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class among the
    candidate graphs, in canonical-form order."""
    seen: dict[CanonicalForm, Graph] = {}
    for g in candidates:
        cg = canonical_graph(g)
        seen.setdefault(_encoding(cg), cg)
    return tuple(seen[key] for key in sorted(seen))


def trees(n: int) -> tuple[Graph, ...]:
    """All trees on n vertices, one canonical representative per class."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for k in range(2, n + 1):
        if k not in _TREES:
            _TREES[k] = _classes(
                Graph(k, t.edges + ((v, k - 1),)) for t in _TREES[k - 1] for v in range(t.n)
            )
    return _TREES[n]


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


def _level(n: int, e: int) -> tuple[Graph, ...]:
    if e == n - 1:
        return trees(n)
    key = (n, e)
    if key not in _LEVELS:
        _LEVELS[key] = _classes(
            Graph(n, g.edges + (uv,))
            for g in _level(n, e - 1)
            for uv in combinations(range(n), 2)
            if uv not in g.edges
        )
    return _LEVELS[key]
