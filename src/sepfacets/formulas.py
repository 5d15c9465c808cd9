"""Closed-form facet counts for the graph families, exact over big integers.

Every function returns the facet count of the symmetric edge polytope of
the named family member.  The counts grow like central binomials, so all
arithmetic stays in Python integers; callers that need text should format
with str().  Conventions: binom(a, b) = 0 when b < 0 or b > a, and a
"cycle" of length 2 counts 2 (a doubled edge has the same facet-defining
labelings as a single edge), which lets wedge-of-cycles expressions stay
total on the degenerate shapes the recursions produce.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import add, mul

from .graph import (
    Graph,
    MultigraphError,
    as_path_vector,
    biconnected_blocks,
    cycle,
    cycle_with_tail,
    double_cycle,
    is_connected,
    parallel_paths,
    path,
    theta,
    wedge,
    windmill,
)


def binom(a: int, b: int) -> int:
    """Binomial coefficient, zero outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def cycle_count(m: int) -> int:
    """Facets of the m-cycle: binom(m, m/2) for even m, m*binom(m-1, (m-1)/2)
    for odd m.  m = 2 is the doubled-edge convention and returns 2."""
    if m < 2:
        raise ValueError(f"cycle length must be >= 2, got {m}")
    if m % 2 == 0:
        return binom(m, m // 2)
    return m * binom(m - 1, (m - 1) // 2)


def tree_count(n: int) -> int:
    """Any tree on n vertices has 2^(n-1) facets (each edge contributes a
    factor 2 through the wedge product)."""
    if n < 1:
        raise ValueError(f"tree needs >= 1 vertex, got {n}")
    return 1 << (n - 1)


def wedge_count(parts) -> int:
    """Facet counts multiply when graphs are glued at a single vertex."""
    parts = list(parts)
    if not parts:
        raise ValueError("wedge_count needs at least one factor")
    return _prod(parts)


def cycle_with_tail_count(n: int, m: int) -> int:
    """Facets of the m-cycle with a pendant path, n vertices total."""
    if not 3 <= m <= n:
        raise ValueError(f"need 3 <= m <= n, got m={m}, n={n}")
    return cycle_count(m) << (n - m)


def double_cycle_count(n: int, i: int, j: int) -> int:
    """Facets of two wedged cycles of lengths i, j plus a pendant path,
    n vertices and n+1 edges total."""
    if i < 3 or j < 3 or i + j > n + 1:
        raise ValueError(f"invalid double-cycle parameters n={n}, i={i}, j={j}")
    return (cycle_count(i) * cycle_count(j)) << (n + 1 - i - j)


def double_cycle_max(n: int) -> int:
    """Largest facet count among n-vertex graphs made of two edge-disjoint
    cycles (n+1 edges): two odd cycles as equal as possible, wedged, plus a
    pendant edge when n is even.

    Closed form with k = (n+1)/2 for odd n: (k+1)(k-1)*binom(k,k/2)*
    binom(k-2,(k-2)/2) for even k, and k^2*binom(k-1,(k-1)/2)^2 for odd k;
    even n doubles the previous value.  The small case k = 2 degenerates to
    a 1-cycle factor and is covered by binom(0, 0) = 1.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n % 2 == 0:
        return 2 * double_cycle_max(n - 1)
    k = (n + 1) // 2
    if k % 2 == 0:
        return (k + 1) * (k - 1) * binom(k, k // 2) * binom(k - 2, (k - 2) // 2)
    return k * k * binom(k - 1, (k - 1) // 2) ** 2


# Pascal rows 0..len-1, built by addition only and grown on demand.  Rows
# up to PASCAL_ROWS_MAX cover every length the acceptance sweeps reach
# (triples summing to 535) at about 14 MB when full; longer rows are never
# stored, so the table stays bounded whatever lengths callers pass.
PASCAL_ROWS_MAX = 600
_PASCAL: list[list[int]] = [[1]]


def _binom_slice(m: int, start: int, width: int) -> list[int]:
    """binom(m, start + i) for i = 0..width-1, with start + width - 1 <= m."""
    if m <= PASCAL_ROWS_MAX:
        while len(_PASCAL) <= m:
            prev = _PASCAL[-1]
            _PASCAL.append([1, *map(add, prev, prev[1:]), 1])
        return _PASCAL[m][start:start + width]
    # past the table: one comb(), then exact multiplicative steps
    out = [math.comb(m, start)]
    for b in range(start, start + width - 1):
        out.append(out[-1] * (m - b) // (b + 1))
    return out


def _same_parity(lengths) -> int:
    """same_parity_count without validation: lengths are >= 1, of one
    parity, in any order."""
    mt = min(lengths)
    terms = last = None
    for mk in lengths:
        if mk != last:  # equal neighbours share one slice
            row, last = _binom_slice(mk, (mk - mt) // 2, mt + 1), mk
        terms = row if terms is None else map(mul, terms, row)
    return sum(terms)


def same_parity_count(lengths) -> int:
    """Facets of parallel paths whose lengths all share one parity.

    With lengths m1 >= ... >= mt, sums binom(mt, j) * prod_k binom(mk,
    (mk - mt)/2 + j) over j = 0..mt: each facet is an assignment of +-1
    steps to the edges making every path climb by the same total.
    """
    pv = as_path_vector(lengths)
    if len({x % 2 for x in pv}) > 1:
        raise ValueError(
            f"{pv.lengths} mixes parities; use parallel_paths_count instead"
        )
    return _same_parity(pv.lengths)


def theta_count(m: int, t: int) -> int:
    """Facets of t parallel paths of equal length m: sum_j binom(m, j)^t."""
    if m < 1 or t < 1:
        raise ValueError(f"need m >= 1 and t >= 1, got m={m}, t={t}")
    return sum(binom(m, j) ** t for j in range(m + 1))


def parallel_paths_count(lengths) -> int:
    """Facets of parallel paths of arbitrary lengths (the general dispatch).

    Same-parity vectors go straight to the same-parity sum.  Mixed vectors
    split by which parity class donates the flat edge: either one edge of
    every even path goes flat (contract it, leaving an all-odd vector), or
    one edge of every odd path does.  Unit odd paths contract to nothing,
    collapsing the endpoints, so that branch becomes a wedge of cycles.
    """
    pv = as_path_vector(lengths)
    if len(pv) == 1:
        return tree_count(pv.lengths[0] + 1)
    evens = [x for x in pv if x % 2 == 0]
    odds = [x for x in pv if x % 2 == 1]
    if not evens or not odds:
        return _same_parity(pv.lengths)
    total = _prod(evens) * _same_parity([x - 1 for x in evens] + odds)
    big_odds = [x for x in odds if x > 1]
    if len(big_odds) == len(odds):
        total += _prod(odds) * _same_parity(evens + [x - 1 for x in odds])
    else:
        cycles = _prod(cycle_count(x) for x in evens)
        cycles *= _prod(cycle_count(x - 1) for x in big_odds)
        total += _prod(odds) * cycles
    return total


def windmill_count(n: int, r: int) -> int:
    """Facets of r triangles plus n-1-2r pendant edges at one hub:
    6^r * 2^(n-1-2r)."""
    if n < 1 or r < 0 or 2 * r > n - 1:
        raise ValueError(f"invalid windmill parameters n={n}, r={r}")
    return 6**r << (n - 1 - 2 * r)


# ---------------------------------------------------------------------------
# recognizing formula-covered graphs
# ---------------------------------------------------------------------------

def _multipath_lengths(block: tuple[tuple[int, int], ...]) -> list[int] | None:
    """If the 2-connected block consists of internally disjoint paths
    between two branch vertices, return the path lengths, else None."""
    deg = Counter()
    for u, v in block:
        deg[u] += 1
        deg[v] += 1
    hubs = [v for v, d in deg.items() if d > 2]
    if len(hubs) != 2:
        return None
    a, b = hubs
    nbr: dict[int, list[int]] = {v: [] for v in deg}
    for u, v in block:
        nbr[u].append(v)
        nbr[v].append(u)
    lengths = []
    for start in nbr[a]:
        steps = 1
        prev, cur = a, start
        while cur not in (a, b):
            if deg[cur] != 2:
                return None
            nxt = nbr[cur][0] if nbr[cur][0] != prev else nbr[cur][1]
            prev, cur = cur, nxt
            steps += 1
        if cur == a:
            return None
        lengths.append(steps)
    if sum(lengths) != len(block):
        return None
    return lengths


def _block_count(block: tuple[tuple[int, int], ...]) -> int | None:
    m = len(block)
    if m == 1:
        return 2
    deg = Counter()
    for u, v in block:
        deg[u] += 1
        deg[v] += 1
    if m == len(deg) and all(d == 2 for d in deg.values()):
        return cycle_count(m)
    lengths = _multipath_lengths(block)
    if lengths is not None:
        return parallel_paths_count(lengths)
    return None


def closed_form_count(g: Graph) -> int | None:
    """Facet count by formula when every biconnected block of g is a
    bridge, a cycle, or a parallel-paths graph; None otherwise.

    Blocks glue at cut vertices, i.e. the graph is an iterated wedge of its
    blocks, so facet counts multiply across them.  This covers trees,
    unicyclic graphs, windmills, wedges of cycles, and theta-like shapes
    with trees attached -- every family with a closed form here.
    """
    if not is_connected(g):
        raise ValueError("closed_form_count needs a connected graph")
    total = 1
    for block in biconnected_blocks(g):
        c = _block_count(block)
        if c is None:
            return None
        total *= c
    return total


# ---------------------------------------------------------------------------
# family specs for the command line
# ---------------------------------------------------------------------------

_FAMILY_ARITY = {
    "cycle": 1,        # m
    "tree": 1,         # n
    "cycle-path": 2,   # n, m
    "two-cycles": 3,   # n, i, j
    "paths": None,     # m1 m2 ...
    "theta": 2,        # m, t
    "windmill": 2,     # n, r
    "wedge-cycles": None,  # cycle lengths (>= 2 each), plus optional tail edges
    "max-bicyclic": 1,  # n
}


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance: a formula evaluation and, when the
    parameters describe a simple graph, a concrete Graph to build."""

    kind: str
    params: tuple[int, ...]
    tail: int = 0  # trailing pendant edges, wedge-cycles only

    def __post_init__(self):
        if self.kind not in _FAMILY_ARITY:
            raise ValueError(
                f"unknown family {self.kind!r}; choose from {sorted(_FAMILY_ARITY)}"
            )
        arity = _FAMILY_ARITY[self.kind]
        if arity is not None and len(self.params) != arity:
            raise ValueError(
                f"family {self.kind!r} takes {arity} parameters, got {len(self.params)}"
            )
        if not self.params:
            raise ValueError(f"family {self.kind!r} needs parameters")
        if self.tail < 0:
            raise ValueError("tail edge count must be nonnegative")
        if self.tail and self.kind != "wedge-cycles":
            raise ValueError("tail edges only apply to wedge-cycles")

    def count(self) -> int:
        p = self.params
        if self.kind == "cycle":
            return cycle_count(p[0])
        if self.kind == "tree":
            return tree_count(p[0])
        if self.kind == "cycle-path":
            return cycle_with_tail_count(*p)
        if self.kind == "two-cycles":
            return double_cycle_count(*p)
        if self.kind == "paths":
            return parallel_paths_count(p)
        if self.kind == "theta":
            return theta_count(*p)
        if self.kind == "windmill":
            return windmill_count(*p)
        if self.kind == "wedge-cycles":
            return _prod(cycle_count(c) for c in p) << self.tail
        return double_cycle_max(p[0])

    def graph(self) -> Graph:
        p = self.params
        if self.kind == "cycle":
            return cycle(p[0])
        if self.kind == "tree":
            if p[0] == 1:
                return Graph(1, ())
            return path(p[0] - 1)
        if self.kind == "cycle-path":
            return cycle_with_tail(*p)
        if self.kind == "two-cycles":
            return double_cycle(*p)
        if self.kind == "paths":
            return parallel_paths(p)
        if self.kind == "theta":
            return theta(*p)
        if self.kind == "windmill":
            return windmill(*p)
        if self.kind == "wedge-cycles":
            if any(c < 3 for c in p):
                raise MultigraphError(
                    f"cycle lengths {p} include a degenerate cycle; formula only"
                )
            g = cycle(p[0])
            for c in p[1:]:
                g = wedge(g, cycle(c), 0, 0)
            if self.tail:
                g = wedge(g, path(self.tail), 0, 0)
            return g
        raise ValueError(f"family {self.kind!r} is formula-only")

    @classmethod
    def parse(cls, tokens: list[str], tail: int = 0) -> "FamilySpec":
        if not tokens:
            raise ValueError("empty family spec")
        kind, *rest = tokens
        try:
            params = tuple(int(x) for x in rest)
        except ValueError:
            raise ValueError(f"family parameters must be integers, got {rest}")
        return cls(kind, params, tail)
