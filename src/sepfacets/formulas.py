"""Closed-form facet counts for the graph families, exact over big integers.

Every function returns the facet count of the symmetric edge polytope of
the named family member.  The counts grow like central binomials, so all
arithmetic stays in Python integers; callers that need text should format
with decimal().  Conventions: binom(a, b) = 0 when b < 0 or b > a, and a
"cycle" of length 2 counts 2 (a doubled edge has the same facet-defining
labelings as a single edge), which lets wedge-of-cycles expressions stay
total on the degenerate shapes the recursions produce.
"""

from __future__ import annotations

import math
from decimal import Decimal
from itertools import accumulate
from operator import add, mul

from .graph import (
    Frozen,
    Graph,
    GuardExceeded,
    MultigraphError,
    biconnected_blocks,
    cycle,
    cycle_with_tail,
    double_cycle,
    parallel_paths,
    path,
    path_lengths,
    theta,
    wedge,
    windmill,
)


def decimal(v: int) -> str:
    """v in decimal, however long.  str() refuses ints of more than
    sys.get_int_max_str_digits() digits (4300 by default), a limit that
    stays in force for parsing input."""
    return str(Decimal(v))


def binom(a: int, b: int) -> int:
    """Binomial coefficient, zero outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


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


def _binom_slice(m: int, start: int, width: int):
    """binom(m, start + i) for i = 0..width-1, with start + width - 1 <= m:
    a list up to PASCAL_ROWS_MAX, past it an iterator that holds one value
    at a time.  Empty for width <= 0."""
    if width <= 0:
        return []
    if m <= PASCAL_ROWS_MAX:
        while len(_PASCAL) <= m:
            prev = _PASCAL[-1]
            _PASCAL.append([1, *map(add, prev, prev[1:]), 1])
        return _PASCAL[m][start:start + width]
    # past the table: one comb(), then exact multiplicative steps
    step = lambda b, i: b * (m - i) // (i + 1)
    return accumulate(range(start, start + width - 1), step, initial=math.comb(m, start))


def _same_parity(lengths) -> int:
    """same_parity_count without validation: lengths are >= 1, of one
    parity, in any order."""
    if len(lengths) == 2:  # Vandermonde: two paths close one (a + b)-cycle
        return math.comb(sum(lengths), sum(lengths) // 2)
    mt = min(lengths)
    terms = None
    for i, mk in enumerate(lengths, 1):
        row = _binom_slice(mk, (mk - mt) // 2, mt + 1)
        terms = row if terms is None else map(mul, terms, row)
        if i % 1024 == 0:  # sum() recurses through the lazy products; a
            terms = list(terms)  # chain of about 65000 overflows the C stack
    return sum(terms)


def same_parity_count(lengths) -> int:
    """Facets of parallel paths whose lengths all share one parity.

    With lengths m1 >= ... >= mt, sums binom(mt, j) * prod_k binom(mk,
    (mk - mt)/2 + j) over j = 0..mt: each facet is an assignment of +-1
    steps to the edges making every path climb by the same total.
    """
    pv = path_lengths(lengths)
    if len({x % 2 for x in pv}) > 1:
        raise ValueError(f"{pv} mixes parities; use parallel_paths_count instead")
    return _same_parity(pv)


def theta_count(m: int, t: int) -> int:
    """Facets of t parallel paths of equal length m: sum_j binom(m, j)^t."""
    if m < 1 or t < 1:
        raise ValueError(f"need m >= 1 and t >= 1, got m={m}, t={t}")
    return sum(b ** t for b in _binom_slice(m, 0, m + 1))


def parallel_paths_count(lengths) -> int:
    """Facets of parallel paths of arbitrary lengths (the general dispatch).

    Same-parity vectors go straight to the same-parity sum.  Mixed vectors
    split by which parity class donates the flat edge: either one edge of
    every even path goes flat (contract it, leaving an all-odd vector), or
    one edge of every odd path does.  Unit odd paths contract to nothing,
    collapsing the endpoints, so that branch becomes a wedge of cycles.
    """
    return _paths(path_lengths(lengths), _same_parity)


def path_runs(c: list[int], total: int, same_parity: bool):
    """Yield (a, b, z, k, cap) for each run of the triple sweeps at this
    sum: the k triples (a - 2i, b + 2i, z), i < k, with third entry z and
    middle entry of b's parity, over every z (only the all-same-parity runs
    if same_parity), in ascending z and then b.  c[m] = binom(m, m//2) up
    to total.  cap is at least each ceiling of path_run_ceilings on the
    run, and equals the ceiling when k = 1; it reads only the run's ends.

    The ceiling of (x, y, z) is P*Q with P = c[x]*c[y] (see
    path_run_ceilings).  c[m+2]*(ceil(m/2) + 1) = c[m]*(4*ceil(m/2) + 2),
    so a step (x, y) -> (x - 2, y + 2) with h = ceil(x/2), g = ceil(y/2)
    scales P by h(2g + 1)/((2h - 1)(g + 1)) and T1 = h*g*P by
    (h - 1)(2g + 1)/(g(2h - 1)).  When x and y share a parity, a step
    inside a run has x >= y + 4, so h >= g + 1: P never rises and T1
    never falls.  Hence each cap reads a factor at the end where it peaks:
    - all three of one parity, ceiling 2^z*P: cap 2^z*P(0);
    - x and y of one parity, z of the other, ceiling 2^z*T1 +
      z*2^(z-1)*P: cap 2^z*T1(k-1) + z*2^(z-1)*P(0);
    - x and y of different parities, ceiling P*(K_x*ceil(x/2) +
      K_y*ceil(y/2)) (see path_run_ceilings): P is log-convex along the
      run (c[m+2]/c[m] grows with m) and Q is linear in i, so cap is the
      larger end of P times the larger end of Q."""
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


def path_run_ceilings(c: list[int], a: int, b: int, z: int, k: int):
    """An upper bound on each triple's parallel_paths_count, in order, for
    the run of k triples (a - 2i, b + 2i, z), i < k, with a - 2k + 2 >=
    b + 2k - 2 >= z >= 1 and c[m] = binom(m, m//2) up to a.

    The dispatch takes 2^mt * prod_{k != t} c[mk] for each same-parity sum
    (each binomial is at most its central value; sum_j binom(mt, j) =
    2^mt).  As m*c[m-1] = ceil(m/2)*c[m], that is c[x]*c[y]*Q for (x, y,
    z), with Q = 2^z if all three share a parity and otherwise the sum
    over p in (0, 1) of K_p * prod ceil(w/2) over the w in (x, y) with
    w % 2 == p, where K_p = z*2^(z-1) if z % 2 == p, else 2^z.  The
    result is one pipeline of C-level maps, with no Python function per
    triple: c[x]*c[y] from two stride-2 slices of c, times Q from ranges
    of ceil(x/2) and ceil(y/2) (each scaled by its weight)."""
    central = map(mul, c[a - 2 * k + 2:a + 1:2][::-1], c[b:b + 2 * k:2])
    ha, hb, one = (a + 1) // 2, (b + 1) // 2, 1 << z
    if a % 2 == b % 2 == z % 2:
        return map(one.__mul__, central)
    if a % 2 == b % 2:  # Q - z*2^(z-1) = 2^z * ceil(x/2) * ceil(y/2)
        q = map((z << (z - 1)).__add__, map(mul, range(ha, ha - k, -1), range(one * hb, one * (hb + k), one)))
    else:
        ka, kb = (z << (z - 1), one) if a % 2 == z % 2 else (one, z << (z - 1))
        q = map(add, range(ka * ha, ka * (ha - k), -ka), range(kb * hb, kb * (hb + k), kb))
    return map(mul, central, q)


def _paths(lengths, same) -> int:
    """The parallel_paths_count dispatch, with same for the same-parity sum."""
    if len(lengths) == 1:
        return tree_count(lengths[0] + 1)
    evens = [x for x in lengths if x % 2 == 0]
    odds = [x for x in lengths if x % 2 == 1]
    if not evens or not odds:
        return same(lengths)
    total = math.prod(evens) * same([x - 1 for x in evens] + odds)
    if 1 not in odds:
        total += math.prod(odds) * same(evens + [x - 1 for x in odds])
    else:
        cycles = math.prod(map(cycle_count, evens))
        cycles *= math.prod(cycle_count(x - 1) for x in odds if x > 1)
        total += math.prod(odds) * cycles
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

def _block_count(block: tuple[tuple[int, int], ...]) -> int | None:
    """Facet count of a biconnected block that is a bridge, a cycle, or
    internally disjoint paths between two branch vertices; None otherwise."""
    m = len(block)
    if m == 1:
        return 2
    nbr: dict[int, list[int]] = {}
    for u, v in block:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    hubs = [v for v, ws in nbr.items() if len(ws) > 2]
    if not hubs:  # a connected 2-regular graph
        return cycle_count(m)
    if len(hubs) != 2:
        return None
    a, b = hubs
    lengths = []
    for start in nbr[a]:
        steps = 1
        prev, cur = a, start
        while cur not in (a, b):
            if len(nbr[cur]) != 2:
                return None
            nxt = nbr[cur][0] if nbr[cur][0] != prev else nbr[cur][1]
            prev, cur = cur, nxt
            steps += 1
        if cur == a:
            return None
        lengths.append(steps)
    if sum(lengths) != m:
        return None
    return parallel_paths_count(lengths)


def closed_form_count(g: Graph) -> int | None:
    """Facet count by formula when every biconnected block of g is a
    bridge, a cycle, or a parallel-paths graph; None otherwise.

    Blocks glue at cut vertices, i.e. the graph is an iterated wedge of its
    blocks, so facet counts multiply across them.  This covers trees,
    unicyclic graphs, windmills, wedges of cycles, and theta-like shapes
    with trees attached -- every family with a closed form here.  The
    block split raises if g is disconnected.
    """
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

def _tree(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"tree needs >= 1 vertex, got {n}")
    return path(n - 1) if n > 1 else Graph(1, ())


def _wedge_cycles(*lengths: int) -> Graph:
    if any(c < 3 for c in lengths):
        raise MultigraphError(f"cycle lengths {lengths} include a degenerate cycle; formula only")
    g = cycle(lengths[0])
    for c in lengths[1:]:
        g = wedge(g, cycle(c), 0, 0)
    return g


# name -> (parameter count or None for any, vertex count, count, graph
# builder or None for formula-only), each called with the parameters; a
# length counts by absolute value, so a negative one cannot offset a huge one
_FAMILIES = {
    "cycle": (1, lambda m: m, cycle_count, cycle),  # m
    "tree": (1, lambda n: n, tree_count, _tree),  # n
    "cycle-path": (2, lambda n, m: n, cycle_with_tail_count, cycle_with_tail),  # n, m
    "two-cycles": (3, lambda n, i, j: n, double_cycle_count, double_cycle),  # n, i, j
    "paths": (None, lambda *m: 2 + sum(abs(x - 1) for x in m),
              lambda *m: parallel_paths_count(m), lambda *m: parallel_paths(m)),
    "theta": (2, lambda m, t: 2 + abs(t * (m - 1)), theta_count, theta),  # m, t
    "windmill": (2, lambda n, r: n, windmill_count, windmill),  # n, r
    # cycle lengths (>= 2 each); a length of 2 is a pendant edge (factor 2, one vertex)
    "wedge-cycles": (None, lambda *c: 1 + sum(abs(x - 1) for x in c),
                     lambda *c: math.prod(map(cycle_count, c)), _wedge_cycles),
    "max-bicyclic": (1, lambda n: n, double_cycle_max, None),  # n
}

# Largest member, in vertices, that `formula` evaluates and `count --family`
# builds (`paths` with 100000 lengths of 2 just fits).  At the cap, `count
# --family` on a cycle, tree, windmill or short paths peaks under 100 MB,
# long parallel paths hold O(M) weights of O(M) bits, and the slowest
# formulas (three or four long paths of mixed parity) take about 50-55 s at
# 16 MB on a 2-core host; a count has at most 1.6e5 bits.
MAX_FAMILY_VERTICES = 100_002


class FamilySpec(Frozen):
    """A named graph family instance: a formula evaluation and, when the
    parameters describe a simple graph, a concrete Graph to build."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[int, ...]):
        super().__init__(kind, params)
        if self.kind not in _FAMILIES:
            raise ValueError(
                f"unknown family {self.kind!r}; choose from {sorted(_FAMILIES)}"
            )
        arity = _FAMILIES[self.kind][0]
        if arity is not None and len(self.params) != arity:
            raise ValueError(
                f"family {self.kind!r} takes {arity} parameters, got {len(self.params)}"
            )
        if not self.params:
            raise ValueError(f"family {self.kind!r} needs parameters")
        vertices = _FAMILIES[self.kind][1](*self.params)
        if vertices > MAX_FAMILY_VERTICES:
            raise GuardExceeded(f"family {self.kind!r} member has {vertices} vertices "
                                f"(cap {MAX_FAMILY_VERTICES})")

    def count(self) -> int:
        return _FAMILIES[self.kind][2](*self.params)

    def graph(self) -> Graph:
        build = _FAMILIES[self.kind][3]
        if build is None:
            raise ValueError(f"family {self.kind!r} is formula-only")
        return build(*self.params)

    @classmethod
    def parse(cls, tokens: list[str]) -> "FamilySpec":
        if not tokens:
            raise ValueError("empty family spec")
        kind, *rest = tokens
        try:
            params = tuple(int(x) for x in rest)
        except ValueError:
            raise ValueError(f"family parameters must be integers, got {rest}")
        return cls(kind, params)
