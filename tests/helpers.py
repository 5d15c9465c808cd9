"""Independent brute-force oracles used to pin expected values, and small
graph utilities that only tests need.

The oracles recompute facet data from first principles with the dumbest
possible method (full product scans, powerset scans), sharing no search
code with the package, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from random import Random

from sepfacets.formulas import _paths
from sepfacets.graph import Graph, adjacency, is_connected
from sepfacets.sampler import _ChainState


def _spans_connected(n: int, edges) -> bool:
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def reference_facet_labelings(g: Graph) -> list[tuple[int, ...]]:
    """Scan every labeling with f(0) = 0 and values in [-(n-1), n-1]."""
    n = g.n
    out = []
    for rest in itertools.product(range(-(n - 1), n), repeat=n - 1):
        f = (0,) + rest
        if any(abs(f[u] - f[v]) > 1 for u, v in g.edges):
            continue
        unit = [(u, v) for u, v in g.edges if abs(f[u] - f[v]) == 1]
        if _spans_connected(n, unit):
            mn = min(f)
            out.append(tuple(x - mn for x in f))
    return sorted(out)


def reference_facet_count(g: Graph) -> int:
    return len(reference_facet_labelings(g))


def reference_facet_subgraphs(g: Graph) -> set[tuple[tuple[int, int], ...]]:
    """All maximal connected spanning bipartite edge subsets, by powerset
    scan plus an explicit maximality filter."""
    candidates = []
    for r in range(g.n - 1, g.m + 1):
        for sub in itertools.combinations(g.edges, r):
            if not _spans_connected(g.n, sub):
                continue
            color = {0: 0}
            stack = [0]
            adj = {v: [] for v in range(g.n)}
            for u, v in sub:
                adj[u].append(v)
                adj[v].append(u)
            ok = True
            while stack and ok:
                v = stack.pop()
                for w in adj[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        ok = False
                        break
            if ok:
                candidates.append(frozenset(sub))
    maximal = [
        c for c in candidates if not any(c < other for other in candidates)
    ]
    return {tuple(sorted(c)) for c in maximal}


def random_connected_graph(rng: Random, max_n: int = 6) -> Graph:
    """A uniform-ish random connected graph with 2..max_n vertices."""
    while True:
        n = rng.randint(2, max_n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = tuple(p for p in pairs if rng.random() < 0.5)
        g = Graph(n, edges)
        if edges and _spans_connected(n, edges):
            return g


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Apply the vertex relabeling v -> perm[v]."""
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def two_coloring(g: Graph) -> tuple[int, ...] | None:
    """A proper 2-coloring (tuple of 0/1 per vertex) if g is bipartite, else None."""
    adj = adjacency(g)
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return tuple(color)


def is_bipartite(g: Graph) -> bool:
    return two_coloring(g) is not None


def mcmc_step(g: Graph, rng: Random) -> Graph:
    """One single-edge-replacement step of the sampling chain from g;
    returns g itself when the proposal is rejected or no non-edge exists."""
    if not is_connected(g):
        raise ValueError("chain states must be connected")
    state = _ChainState(g.n, g)
    return state.graph() if state.step(rng) else g


def parallel_paths_bound(c: list[int]):
    """lengths -> an upper bound on parallel_paths_count(lengths), for
    unvalidated lengths >= 1 below len(c), c[m] = binom(m, m//2): the
    per-triple ceiling the triple sweeps prune with, one dispatch per call.
    Each binomial of a same-parity sum is at most its central value and
    sum_j binom(mt, j) = 2^mt, so the dispatch takes 2^mt * prod_{k != t}
    c[mk] for each such sum."""
    same = lambda ls: math.prod(map(c.__getitem__, sorted(ls)[1:])) << min(ls)
    return lambda lengths: _paths(lengths, same)


def reference_frontier_order(adj: list[list[int]]) -> list[int]:
    """The frontier vertex order by a full scan of every vertex for each
    placement: the key (grow, placed-neighbor count, index) of each
    unplaced vertex with a placed neighbor, minimum first."""
    n = len(adj)
    undeg = [len(a) for a in adj]
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
                continue
            grow = (undeg[w] > 0) - sum(1 for u in adj[w] if placed[u] and undeg[u] == 1)
            key = (grow, undeg[w] - len(adj[w]), w)
            if best is None or key < best:
                best = key
        if best is None:
            raise ValueError("graph must be connected")
        v = best[2]
