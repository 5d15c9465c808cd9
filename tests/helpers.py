"""Independent brute-force oracles used to pin expected values, and small
graph utilities that only tests need.

The oracles recompute facet data from first principles with the dumbest
possible method (full product scans, powerset scans), sharing no search
code with the package, so agreement is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import insort
from collections import deque
from random import Random
from typing import Iterator

from sepfacets import conjectures
from sepfacets.enumeration import CanonicalForm, _refine_colors
from sepfacets.facets import _walk_two_colourings
from sepfacets.formulas import _paths
from sepfacets.graph import Graph, adjacency, is_connected
from sepfacets.sampler import ChainConfig, default_initial, figure_csv_lines, records_jsonl_lines


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


def neighbor_masks(n: int, edges) -> list[int]:
    """Per vertex, the bitmask of its neighbors."""
    nb = [0] * n
    for u, v in edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    return nb


def facet_subgraphs(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """Maximal connected spanning bipartite subgraphs of g, each exactly once.

    Such a subgraph is the full bichromatic edge set of the one 2-colouring
    (vertex 0 coloured 0) under which it spans and connects g, so the
    two-colour walk lists each exactly once.  Results are ordered by edge
    bitmask (bit i = presence of g.edges[i]).
    """
    if g.n == 1:
        return [()]
    found: dict[int, tuple[tuple[int, int], ...]] = {}

    def keep(ones: int) -> None:
        bits = [(ones >> u ^ ones >> v) & 1 for u, v in g.edges]
        found[sum(1 << i for i, b in enumerate(bits) if b)] = tuple(itertools.compress(g.edges, bits))

    _walk_two_colourings(neighbor_masks(g.n, g.edges), keep)
    return [found[k] for k in sorted(found)]


def reference_contraction(n: int, edges, ones: int) -> tuple[set[frozenset[int]], set[frozenset[frozenset[int]]]]:
    """Contract the monochromatic edges of the 2-colouring with colour-1
    mask ones by a plain union-find.  Returns the parts as vertex sets and
    the unit edges as unordered pairs of parts."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    colour = [ones >> v & 1 for v in range(n)]
    for u, v in edges:
        if colour[u] == colour[v]:
            parent[find(u)] = find(v)
    members: dict[int, set[int]] = {}
    for v in range(n):
        members.setdefault(find(v), set()).add(v)
    part = {v: frozenset(members[find(v)]) for v in range(n)}
    unit = {frozenset((part[u], part[v])) for u, v in edges if colour[u] != colour[v]}
    return set(part.values()), unit


def reference_unit_count(n: int, edges) -> int:
    """Labelings of a connected graph on 0..n-1, up to an additive
    constant, in which every edge is a unit step: every +-1 labeling of a
    breadth-first spanning tree from vertex 0, kept if every edge is a
    unit step."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = {0: None}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    if len(parent) != n:
        raise ValueError("graph must be connected")
    order = list(parent)  # insertion order is breadth-first: parents come first
    count = 0
    for steps in itertools.product((-1, 1), repeat=n - 1):
        f = {0: 0}
        for v, s in zip(order[1:], steps):
            f[v] = f[parent[v]] + s
        count += all(abs(f[u] - f[v]) == 1 for u, v in edges)
    return count


def random_connected_graph(rng: Random, max_n: int = 6) -> Graph:
    """A uniform-ish random connected graph with 2..max_n vertices."""
    while True:
        n = rng.randint(2, max_n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = tuple(p for p in pairs if rng.random() < 0.5)
        g = Graph(n, edges)
        if edges and _spans_connected(n, edges):
            return g


def reference_blocks(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """The biconnected blocks of g by an iterative Tarjan search over every
    vertex from vertex 0, with no pendant peel; raises ValueError("graph
    must be connected") when the search misses a vertex."""
    if g.n <= 1:
        return []
    adj = adjacency(g)
    disc, low, nxt, parent = [0] * g.n, [0] * g.n, [0] * g.n, [-1] * g.n
    disc[0] = low[0] = 1
    timer = 2
    blocks: list[tuple[tuple[int, int], ...]] = []
    edge_stack: list[tuple[int, int]] = []
    stack = [0]
    while stack:
        v = stack[-1]
        if nxt[v] < len(adj[v]):
            w = adj[v][nxt[v]]
            nxt[v] += 1
            if w == parent[v]:
                continue
            if not disc[w]:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                edge_stack.append((min(v, w), max(v, w)))
                stack.append(w)
            elif disc[w] < disc[v]:  # a back edge, pushed once, from below
                edge_stack.append((min(v, w), max(v, w)))
                low[v] = min(low[v], disc[w])
            continue
        stack.pop()
        if stack:
            u = stack[-1]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:  # u separates v's subtree
                block = []
                while edge_stack:
                    block.append(edge_stack.pop())
                    if block[-1] == (min(u, v), max(u, v)):
                        break
                blocks.append(tuple(sorted(block)))
    if timer <= g.n:
        raise ValueError("graph must be connected")
    return blocks


def bridge_side(g: Graph, a: int, b: int) -> set[int]:
    """The vertices on a's side of the bridge ab of the connected graph g:
    a, and each v that reconnects g - ab when joined to b, by is_connected."""
    rest = set(g.edges) - {(min(a, b), max(a, b))}
    return {a} | {
        v
        for v in range(g.n)
        if v not in (a, b) and is_connected(Graph(g.n, tuple(rest | {(min(v, b), max(v, b))})))
    }


def swap_class(g: Graph, e: tuple[int, int], f: tuple[int, int]) -> str:
    """The kind of chain proposal that removes the edge e = (a, b) from the
    connected graph g and adds the non-edge f: e on a triangle, e on a
    cycle but on no triangle, or e a bridge (a 1-edge block of
    reference_blocks), pendant or not, that f crosses or not."""
    a, b = e
    adj = adjacency(g)
    if set(adj[a]) & set(adj[b]):
        return "triangle"
    if (e,) not in reference_blocks(g):
        return "cycle"
    side = bridge_side(g, a, b)
    crosses = (f[0] in side) != (f[1] in side)
    if len(side) in (1, g.n - 1):
        return "pendant, f on the leaf" if crosses else "pendant, f off the leaf"
    return "bridge, f crossing" if crosses else "bridge, f not crossing"


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


def degree(g: Graph, v: int) -> int:
    return sum(1 for a, b in g.edges if v in (a, b))


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def mask_graph(n: int, mask: int) -> Graph:
    """The graph on n vertices whose edges are the pairs (u, v), u < v in
    lexicographic order, that the bits of an edge mask select."""
    return Graph(n, tuple(p for i, p in enumerate(_pairs(n)) if mask >> i & 1))


def reference_walk(g: Graph, rng: Random) -> Iterator[int]:
    """The chain in its per-step form, kept as the reference for the kernel:
    the edge mask of g, then the mask after each step, forever.  Draws go
    through rng.randrange; a proposal is accepted when a breadth-first
    search from one end of the removed edge, over a list of neighbour
    bitmasks, reaches the other end."""
    n = g.n
    pairs = _pairs(n)
    have = set(g.edges)
    edges = [i for i, p in enumerate(pairs) if p in have]
    non_edges = [i for i, p in enumerate(pairs) if p not in have]
    mask = sum(1 << i for i in edges)
    adj = [0] * n

    def flip(u: int, v: int) -> None:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u

    def reaches(a: int, b: int) -> bool:
        seen = frontier = 1 << a
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            if nxt >> b & 1:
                return True
            frontier = nxt & ~seen
            seen |= frontier
        return False

    for u, v in g.edges:
        flip(u, v)
    while True:
        yield mask
        if not non_edges:
            continue  # complete graph: the chain is frozen
        e_at = rng.randrange(len(edges))
        f_at = rng.randrange(len(non_edges))
        e_idx, f_idx = edges[e_at], non_edges[f_at]
        (a, b), (c, d) = pairs[e_idx], pairs[f_idx]
        flip(a, b)
        flip(c, d)
        if not reaches(a, b):
            flip(a, b)
            flip(c, d)
            continue
        mask ^= (1 << e_idx) | (1 << f_idx)
        edges.pop(e_at)
        insort(edges, f_idx)
        non_edges.pop(f_at)
        insort(non_edges, e_idx)


def reference_chain(cfg: ChainConfig) -> Iterator[int]:
    """The reference masks of a configured chain: the initial state's, then
    the mask after each of its cfg.steps steps."""
    start = cfg.initial if cfg.initial is not None else default_initial(cfg.n, cfg.e)
    return itertools.islice(reference_walk(start, Random(cfg.seed)), cfg.steps + 1)


def mcmc_step(g: Graph, rng: Random) -> Graph:
    """One single-edge-replacement step of the sampling chain from g, by
    the reference walk; returns g itself when the proposal is rejected or
    no non-edge exists."""
    if not is_connected(g):
        raise ValueError("chain states must be connected")
    walk = reference_walk(g, rng)
    next(walk)  # g's own mask; the step draws on the next call
    return mask_graph(g.n, next(walk))


def parallel_paths_bound(c: list[int]):
    """lengths -> an upper bound on parallel_paths_count(lengths), for
    unvalidated lengths >= 1 below len(c), c[m] = binom(m, m//2): the
    per-triple ceiling the triple sweeps prune with, one dispatch per call.
    Each binomial of a same-parity sum is at most its central value and
    sum_j binom(mt, j) = 2^mt, so the dispatch takes 2^mt * prod_{k != t}
    c[mk] for each such sum."""
    same = lambda ls: math.prod(map(c.__getitem__, sorted(ls)[1:])) << min(ls)
    return lambda lengths: _paths(lengths, same)


def reference_path_runs(c: list[int], total: int, same_parity: bool):
    """formulas.path_runs as it first read its caps: for a run whose x and
    y differ in parity, the larger end of c[x]*c[y] times the larger end
    of Q.  path_runs must yield the same tuples, bit for bit."""
    for z in range(1, total // 3 + 1):
        hi, w, one = (total - z) // 2, z << (z - 1), 1 << z
        if (total - z) % 2 == 0:  # a = total - z - b has b's parity
            a, k = total - 2 * z, (hi - z) // 2 + 1
            yield a, z, z, k, c[a] * c[z] << z
            if same_parity or z + 1 > hi:
                continue
            a, b, j = a - 1, z + 1, (hi - z - 1) // 2
            t1 = ((a + 1) // 2 - j) * ((b + 1) // 2 + j) * c[a - 2 * j] * c[b + 2 * j]
            yield a, b, z, j + 1, (t1 << z) + w * c[a] * c[b]
        elif not same_parity:  # a and b differ; the one of z's parity weighs w
            for b, ka, kb in ((z, one, w), (z + 1, w, one)):
                if b > hi:
                    break
                a, k = total - z - b, (hi - b) // 2 + 1
                j, ha, hb = k - 1, (a + 1) // 2, (b + 1) // 2
                q = max(ka * ha + kb * hb, ka * (ha - j) + kb * (hb + j))
                yield a, b, z, k, max(c[a] * c[b], c[a - 2 * j] * c[b + 2 * j]) * q


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


def reference_canonical_form(g: Graph) -> CanonicalForm:
    """The canonical form by the unpruned search: every relabeling that
    keeps the refined color order, with prefix pruning only, so it costs
    factorial time on stars.  It shares enumeration._refine_colors, whose
    color order defines the form, and nothing of the search."""
    n = g.n
    if n <= 1:
        return (n, ())
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    colors = _refine_colors(adjacency(g))
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    block_color = [c for c in sorted(by_color) for _ in by_color[c]]
    infinity = 1 << (n + 1)
    best = [infinity] * (n - 1)
    placed = [0] * n
    used = [False] * n

    def dfs(pos: int) -> None:
        for v in by_color[block_color[pos]]:
            if used[v]:
                continue
            row = 0
            for q in range(pos):
                row = (row << 1) | ((adj[v] >> placed[q]) & 1)
            if row > best[pos - 1]:
                continue
            if row < best[pos - 1]:
                best[pos - 1] = row
                best[pos:] = [infinity] * (n - 1 - pos)
            used[v] = True
            placed[pos] = v
            if pos + 1 < n:
                dfs(pos + 1)
            used[v] = False

    for v0 in by_color[block_color[0]]:
        used[v0] = True
        placed[0] = v0
        dfs(1)
        used[v0] = False
    return (n, tuple(best))


def _form_graph(form: CanonicalForm) -> Graph:
    """The graph whose own encoding is form: row p - 1 holds the edges
    from position p back to positions 0..p-1, position 0 in its top bit."""
    n, rows = form
    return Graph(n, tuple((q, p) for p, row in enumerate(rows, 1) for q in range(p)
                          if row >> (p - 1 - q) & 1))


@functools.lru_cache(maxsize=None)
def reference_level(n: int, e: int) -> tuple[Graph, ...]:
    """The connected (n, e) classes by the unpruned augmentation: a leaf on
    every vertex of every (n - 1)-vertex tree, or every missing edge of
    every (n, e - 1) class, deduplicated and sorted by
    reference_canonical_form, one graph per form."""
    if e == n - 1 == 0:
        return (Graph(1, ()),)
    if e == n - 1:
        candidates = [Graph(n, t.edges + ((v, n - 1),))
                      for t in reference_level(n - 1, n - 2) for v in range(n - 1)]
    else:
        candidates = [Graph(n, g.edges + (p,))
                      for g in reference_level(n, e - 1) for p in _pairs(n) if p not in g.edges]
    return tuple(map(_form_graph, sorted({reference_canonical_form(h) for h in candidates})))


def swap_orbits(g: Graph, leaf: bool) -> list[set[frozenset[int]]]:
    """Orbits of g's vertices (leaf) or of its missing edges under the
    group generated by every transposition of two vertices that maps g
    onto itself; the transpositions are found by relabeling g."""
    swaps = []
    for v, w in itertools.combinations(range(g.n), 2):
        perm = list(range(g.n))
        perm[v], perm[w] = w, v
        if relabel(g, perm) == g:
            swaps.append({v: w, w: v})
    items = [frozenset({v}) for v in range(g.n)] if leaf else [
        frozenset(p) for p in _pairs(g.n) if p not in g.edges]
    orbits, seen = [], set()
    for start in items:
        if start in seen:
            continue
        orbit, stack = {start}, [start]
        while stack:
            item = stack.pop()
            for t in swaps:
                image = frozenset(t.get(x, x) for x in item)
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def reference_last_element(h: Graph, new: tuple[int, int]) -> bool:
    """The deletion rule of canonical augmentation for the edge `new` just
    added to h, from degrees and connectivity alone.  Edge xy has key
    (deg x + deg y, min(deg x, deg y), s x + s y, min(s x, s y)), where
    s w sums the degrees of w's neighbors.  In a tree (the new leaf is
    new[1]) no leaf edge may have a larger key than `new`.  Otherwise no
    edge whose deletion leaves h connected may have a larger key."""
    deg = [degree(h, v) for v in range(h.n)]
    s = [0] * h.n
    for x, y in h.edges:
        s[x] += deg[y]
        s[y] += deg[x]

    def key(x: int, y: int) -> tuple[int, int, int, int]:
        return deg[x] + deg[y], min(deg[x], deg[y]), s[x] + s[y], min(s[x], s[y])

    if h.m == h.n - 1:
        return not any(key(x, y) > key(*new) for x, y in h.edges if min(deg[x], deg[y]) == 1)
    return not any(key(x, y) > key(*new)
                   and is_connected(Graph(h.n, tuple(p for p in h.edges if p != (x, y))))
                   for x, y in h.edges)


def figure_csv(records, mode, cfg) -> str:
    """The whole of sampler.figure_csv_lines as one string."""
    return "".join(figure_csv_lines(records, mode, cfg))


def records_jsonl(records, cfg) -> str:
    """The whole of sampler.records_jsonl_lines as one string."""
    return "".join(records_jsonl_lines(records, cfg))


def all_triples(total: int):
    """Ordered triples x1 >= x2 >= x3 >= 1 summing to total."""
    for x3 in range(1, total // 3 + 1):
        for x2 in range(x3, (total - x3) // 2 + 1):
            x1 = total - x2 - x3
            if x1 >= x2:
                yield (x1, x2, x3)


def same_parity_triples(total: int):
    """The triples of all_triples(total) whose entries share one parity."""
    return (t for t in all_triples(total) if t[0] % 2 == t[1] % 2 == t[2] % 2)


def reference_f_bounds(n: int) -> dict:
    """check_f_bounds(n)'s report without elapsed_ms, from a dict of every
    same-parity count of the sum.  Counts come from
    conjectures.same_parity_count, so a monkeypatch there reaches both."""
    rep = {"id": "fbounds", "params": {"n": n}, "status": "verified", "max": "0", "witnesses": []}
    expected_arg = (n - 1, 1, 1) if n % 2 == 0 else (n - 3, 2, 2)
    values = {t: conjectures.same_parity_count(t) for t in same_parity_triples(n + 1)}
    mx = max(values.values())
    rep["max"] = str(mx)
    if values.get(expected_arg) != mx:
        rep["status"] = "counterexample"
        rep["witnesses"] = [f"argmax {max(values, key=values.get)} beats {expected_arg}"]
        return rep
    rep["witnesses"] = [str(expected_arg)]
    for (x1, x2, x3), v in values.items():
        if x3 >= 3:
            if v > values[(x1 + 2, x2, x3 - 2)]:
                rep["status"] = "counterexample"
                rep["witnesses"] = [f"F{(x1, x2, x3)} > F{(x1 + 2, x2, x3 - 2)}"]
                return rep
            if x2 - 2 >= x3 and v > values[(x1 + 2, x2 - 2, x3)]:
                rep["status"] = "counterexample"
                rep["witnesses"] = [f"F{(x1, x2, x3)} > F{(x1 + 2, x2 - 2, x3)}"]
                return rep
    rep["params"]["triples"] = len(values)
    return rep


def cactus_blocks(n: int, j: int) -> list[int]:
    """The sorted block sizes, in edges, of the cactus conjectured to
    maximize the facet count at (n, n - 1 + j), 1 <= j <= (n - 1) / 2: j odd
    cycles whose values of (l - 1)/2 differ by at most 1 and spend the even
    part of the budget n - 1, plus (n - 1) mod 2 bridges."""
    h, longer = divmod((n - 1) // 2, j)
    return sorted([2 * h + 3] * longer + [2 * h + 1] * (j - longer) + [1] * ((n - 1) % 2))


def wheel(k: int) -> Graph:
    """The wheel W_k: the cycle 0..k-1 and a hub k joined to each of its
    vertices.  Every rim vertex has degree 3, so nothing folds."""
    return Graph(k + 1, tuple((i, (i + 1) % k) for i in range(k)) + tuple((i, k) for i in range(k)))


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid graph, vertex r * cols + c at row r, column c."""
    at = lambda r, c: r * cols + c
    return Graph(rows * cols, tuple((at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1))
                 + tuple((at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)))
