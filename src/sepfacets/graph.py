"""Simple undirected graphs and the sparse graph families used throughout.

Vertices are labeled 0..n-1.  Edges are stored canonically (each pair
ordered so u < v, the whole tuple sorted), so equal graphs compare equal,
hash equal, and serialize identically.  Graph values are immutable; every
builder and predicate here is a pure function, safe to share across
workers.

The families built here -- cycles, paths, wedges, a cycle with a pendant
path, two cycles with a tail, parallel-path ("theta"-like) graphs, and
windmills -- are exactly the shapes whose symmetric edge polytope facet
counts have closed forms in :mod:`sepfacets.formulas`.
"""

from __future__ import annotations

from operator import attrgetter


class Fields:
    """Equality and repr over the fields named in __slots__, in order: plain
    classes, as importing dataclasses costs every run a few ms of start-up."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:  # Frozen itself adds none
            cls._values = property(attrgetter(*cls.__slots__))  # the field tuple

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Fields):
    """Fields that are set once, in __init__, and hash as their tuple."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__qualname__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values


class GuardExceeded(RuntimeError):
    """A desk-scale resource guard refused the request (CLI exit code 3)."""


class MultigraphError(ValueError):
    """A requested construction would need parallel edges."""


class ParseError(ValueError):
    """Malformed graph input; carries the offending 1-based line number for
    edge-list text and None for JSON."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class Graph(Frozen):
    """Simple undirected graph on vertices 0..n-1 with a canonical edge tuple."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not 0 <= u < v < n:
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.append((u, v))
        deduped = tuple(sorted(set(canon)))
        if len(deduped) != len(canon):
            raise ValueError("duplicate edge")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", deduped)

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self.edges)


def adjacency(g: Graph) -> list[list[int]]:
    """Neighbor lists indexed by vertex."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def path_lengths(lengths) -> tuple[int, ...]:
    """Path lengths m1 >= m2 >= ... >= mt, all positive, as a tuple.

    Any length vector is a legal *formula* argument.  Realizing it as a
    simple graph additionally requires at most one entry equal to 1
    (two unit paths between the same endpoints would be parallel edges);
    :func:`parallel_paths` enforces that.
    """
    lengths = tuple(lengths)
    if not lengths:
        raise ValueError("at least one path length required")
    if any(x < 1 for x in lengths):
        raise ValueError(f"path lengths must be >= 1, got {lengths}")
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------

def cycle(m: int) -> Graph:
    """Cycle with m vertices and m edges.  Needs m >= 3 to be a simple graph."""
    if m < 3:
        raise ValueError(f"a simple cycle needs at least 3 edges, got {m}")
    return Graph(m, tuple((i, (i + 1) % m) for i in range(m)))


def path(m: int) -> Graph:
    """Path with m edges (m+1 vertices)."""
    if m < 1:
        raise ValueError(f"a path needs at least 1 edge, got {m}")
    return Graph(m + 1, tuple((i, i + 1) for i in range(m)))


def wedge(g: Graph, h: Graph, u: int, v: int) -> Graph:
    """Glue g and h into one graph by identifying vertex u of g with vertex v of h.

    The result has g.n + h.n - 1 vertices: g keeps its labels, and the
    remaining vertices of h are appended in label order.
    """
    if g.n < 1 or h.n < 1:
        raise ValueError("wedge needs nonempty graphs")
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} not in first graph (n={g.n})")
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} not in second graph (n={h.n})")
    label = {}
    nxt = g.n
    for w in range(h.n):
        if w == v:
            label[w] = u
        else:
            label[w] = nxt
            nxt += 1
    edges = list(g.edges) + [(label[a], label[b]) for a, b in h.edges]
    return Graph(g.n + h.n - 1, tuple(edges))


def cycle_with_tail(n: int, m: int) -> Graph:
    """m-cycle wedged with a path on n-m edges: n vertices, n edges in total.

    The degenerate case m == n (empty tail) is the plain cycle.  The wedge
    point is the lowest-labeled vertex of each part, so builds are
    reproducible.
    """
    if not 3 <= m <= n:
        raise ValueError(f"need 3 <= m <= n, got m={m}, n={n}")
    if m == n:
        return cycle(m)
    return wedge(cycle(m), path(n - m), 0, 0)


def double_cycle(n: int, i: int, j: int) -> Graph:
    """Two edge-disjoint cycles of lengths i and j plus a pendant path,
    all wedged at one vertex: n vertices, n+1 edges."""
    if i < 3 or j < 3:
        raise ValueError(f"cycle lengths must be >= 3, got {i}, {j}")
    if i + j > n + 1:
        raise ValueError(f"cycles of lengths {i}, {j} do not fit in n={n}")
    g = wedge(cycle(i), cycle(j), 0, 0)
    tail = n + 1 - (i + j)
    if tail:
        g = wedge(g, path(tail), 0, 0)
    return g


def parallel_paths(lengths) -> Graph:
    """Internally disjoint paths of the given lengths joining two endpoints.

    For lengths (m1, ..., mt) the graph has sum(mi) - t + 2 vertices and
    sum(mi) edges; the two endpoints have degree t.  At most one length may
    equal 1: a second unit path would be a parallel edge, which raises
    MultigraphError (use the closed forms for those shapes instead).
    """
    pv = path_lengths(lengths)
    if len(pv) < 2:
        raise ValueError("need at least two paths between the endpoints")
    if pv.count(1) > 1:
        raise MultigraphError(f"{pv} has more than one unit path; not a simple graph")
    top, bottom = 0, 1
    edges = []
    nxt = 2
    for length in pv:
        prev = top
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, bottom))
    return Graph(nxt, tuple(edges))


def theta(m: int, t: int) -> Graph:
    """t parallel paths of equal length m (the classical theta graph)."""
    if m < 2 and t >= 2:
        raise MultigraphError(f"theta with unit paths (m={m}, t={t}) is a multigraph")
    if t < 2:
        raise ValueError(f"theta needs at least 2 paths, got t={t}")
    return parallel_paths([m] * t)


def windmill(n: int, r: int) -> Graph:
    """r triangles and n-1-2r pendant edges, all wedged at one hub vertex.

    n vertices, n-1+r edges; the hub (vertex 0) has degree n-1.
    """
    if n < 1 or r < 0 or 2 * r > n - 1:
        raise ValueError(f"need n >= 1 and 0 <= r <= (n-1)/2, got n={n}, r={r}")
    edges = []
    nxt = 1
    for _ in range(r):
        a, b = nxt, nxt + 1
        edges += [(0, a), (0, b), (a, b)]
        nxt += 2
    while nxt < n:
        edges.append((0, nxt))
        nxt += 1
    return Graph(n, tuple(edges))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def bfs_order(adj: list[list[int]]) -> list[int]:
    """The vertices reachable from 0 over the neighbor lists adj, in
    breadth-first order."""
    seen = [False] * len(adj)
    seen[0] = True
    order = [0]
    for v in order:  # order grows while it is walked: it is the queue
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
    return order


def is_connected(g: Graph) -> bool:
    """True when g has a single component (the empty graph is connected iff n <= 1)."""
    return g.n <= 1 or len(bfs_order(adjacency(g))) == g.n


def biconnected_blocks(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """Edge sets of the biconnected components; bridges show up as 1-edge blocks.

    The block decomposition is exactly the iterated-wedge structure of the
    graph, which is why facet counts multiply across blocks.  One iterative
    depth-first search from vertex 0 (Hopcroft-Tarjan) splits every block
    off the edge stack as it closes.  A vertex the search does not reach
    means g is disconnected, and raises.
    """
    if g.n <= 1:
        return []
    disc = [0] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    todo = [iter(ws) for ws in adjacency(g)]  # each vertex's neighbours not yet scanned
    disc[0] = low[0] = 1
    timer = 2
    blocks: list[tuple[tuple[int, int], ...]] = []
    edge_stack: list[tuple[int, int]] = []
    stack = [0]
    while stack:
        v = stack[-1]
        for w in todo[v]:
            if w == parent[v]:
                continue
            if not disc[w]:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                edge_stack.append((v, w) if v < w else (w, v))
                stack.append(w)
                break
            if disc[w] < disc[v]:
                # back edge to an ancestor; pushed once, from below
                edge_stack.append((v, w) if v < w else (w, v))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    # u separates v's subtree: everything above (u,v) is one block
                    block = []
                    key = (u, v) if u < v else (v, u)
                    while edge_stack:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == key:
                            break
                    blocks.append(tuple(sorted(block)))
    if timer - 1 != g.n:  # the search reached fewer than n vertices
        raise ValueError("graph must be connected")
    return blocks


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
#
# Edge-list text format: first line "n"; each non-empty line after that is
# "u v" with 0 <= u < v < n; '#' starts a comment.  JSON alternative:
# {"n": int, "edges": [[u, v], ...]}.

def parse_graph(text: str) -> Graph:
    """Parse the edge-list text format, reporting errors with line numbers."""
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ParseError(f"expected vertex count, got {line!r}", lineno)
            try:
                n = int(parts[0])
            except ValueError:
                raise ParseError(f"vertex count {parts[0]!r} is not an integer", lineno)
            if n < 0:
                raise ParseError(f"vertex count must be nonnegative, got {n}", lineno)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        if u > v:
            u, v = v, u
        if not 0 <= u < v < n:
            raise ParseError(f"edge ({u},{v}) out of range for n={n}", lineno)
        if (u, v) in seen:
            raise ParseError(f"duplicate edge ({u},{v})", lineno)
        seen.add((u, v))
        edges.append((u, v))
    if n is None:
        raise ParseError("empty input; expected a vertex count line", 1)
    return Graph(n, tuple(edges))


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text; parse_graph(serialize_graph(g)) == g."""
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(obj) -> Graph:
    """Inverse of graph_to_json; a malformed value raises ParseError naming
    the bad field."""
    if not isinstance(obj, dict):
        raise ParseError(f"JSON graph must be an object, got {type(obj).__name__}")
    if not _is_int(obj.get("n")):
        raise ParseError("JSON graph needs an integer field 'n'")
    edges = obj.get("edges")
    if not isinstance(edges, (list, tuple)):
        raise ParseError("JSON graph needs a field 'edges' holding a list of [u, v] pairs")
    for i, e in enumerate(edges):
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e))):
            raise ParseError(f"JSON field 'edges[{i}]' must be a pair of integers, got {e!r:.40}")
    return Graph(obj["n"], tuple(map(tuple, edges)))
