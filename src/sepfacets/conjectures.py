"""Desk-scale re-verification of the known facet-maximizer results and
sweeps probing the open conjectures, with machine-readable reports.

Two kinds of evidence are produced: exhaustive searches over all
isomorphism classes of small connected graphs (ground truth from the facet
engine), and exact big-integer sweeps of the closed forms at much larger
parameters.  Nothing below assumes any conjecture is true: a violated
inequality halts the sweep and is reported as a counterexample together
with a reproducible witness.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import attrgetter, le

from .enumeration import DEFAULT_GUARD, GuardExceeded, connected_graphs
from .facets import facet_count
from .formulas import (
    closed_form_count,
    cycle_with_tail_count,
    decimal,
    double_cycle_count,
    double_cycle_max,
    parallel_paths_count,
    path_run_ceilings,
    path_runs,
    same_parity_count,
    windmill_count,
)
from .graph import Fields, biconnected_blocks, serialize_graph, windmill
from .sampler import ChainConfig, run_chain

# The formula sweeps that tabulate big integers (central binomials up to
# length L, about L*L/2 bits; nnmax's n counts of up to n bits) refuse a
# table past this many bits before building it.  tracemalloc peaks:
# check_identities(10000) 7.0 MB, _central_binomials(30002) 61 MB, the
# nnmax table at n = 10001 14.2 MB.
MAX_TABLE_BITS = 1 << 29  # 64 MiB


class ConjectureReport(Fields):
    """Outcome of one verification sweep; mutable, so unhashable.

    status is "verified", "counterexample", or "partial" (sampling-based
    evidence only).  A counterexample always carries a witness that
    reproduces it: a serialized graph or a parameter tuple.  elapsed_ms
    stays 0 unless the command line stamps the check's wall time.
    """

    __slots__ = ("id", "params", "status", "max", "witnesses", "elapsed_ms")

    def __init__(self, id: str, params: dict, status: str, max: str,
                 witnesses: list[str] | None = None, elapsed_ms: int = 0):
        self.id, self.params, self.status, self.max = id, params, status, max
        self.witnesses, self.elapsed_ms = [] if witnesses is None else witnesses, elapsed_ms

    def to_json(self) -> dict:
        from copy import deepcopy  # only output needs it; start-up would pay for it
        return {name: deepcopy(getattr(self, name)) for name in self.__slots__}


def _refuse_table(what: str, bits: int) -> None:
    if bits > MAX_TABLE_BITS:
        cap = MAX_TABLE_BITS >> 23
        raise GuardExceeded(f"{what} would tabulate {bits >> 23} MiB of big integers (cap {cap} MiB)")


def _exhaustive_max(rep: ConjectureReport, n: int, j: int, bound: int) -> None:
    """The row of level (n, n - 1 + j), j independent cycles: _bounded_max
    over every connected class, each count cross-checked against its
    closed form where one applies.  Every winner becomes a witness.  A
    maximum below bound, or a winner with a block that is neither a bridge
    nor an odd cycle (as many vertices as edges), makes rep partial."""
    classes = list(connected_graphs(n, n - 1 + j, guard=None))
    if not classes:
        raise ValueError(f"no connected graphs with n={n}, e={n - 1 + j}")

    def count(g):
        c = facet_count(g)
        if closed_form_count(g) not in (None, c):
            raise AssertionError(f"formula/engine disagreement on {g}")
        return c

    found = _bounded_max(rep, classes, count, bound, serialize_graph)
    if found is not None:
        best, winners, _ = found
        rep.witnesses = [serialize_graph(g) for g in winners]
        if best < bound or any(len(b) > 1 and (len(b) % 2 == 0 or len({*sum(b, ())}) != len(b))
                               for g in winners for b in biconnected_blocks(g)):
            rep.status = "partial"


def _bounded_max(rep: ConjectureReport, items, value, bound: int, label, seed=None):
    """Evaluate value(t) for each item t in order.  The first value above
    bound makes rep a counterexample with witness label(t) and returns
    None; otherwise rep.max is set and (maximum, every item attaining it in
    order, item count or None) is returned.

    With a seed, items(floor) = (kept, count): kept holds, in order, the
    seed and every item t with value(t) >= floor (maybe others), count is
    the number of all items.  The seed is evaluated first, then kept for
    floor = min(value(seed), bound + 1), reusing the seed's value.  An item
    left out is below the maximum and within bound: the outcome is as if
    every item were swept."""
    count = None
    if seed is not None:
        floor = min(seen := value(seed), bound + 1)
        items, count = items(floor)
    best, args = -1, []
    for t in items:
        v = seen if t == seed else value(t)
        if v > bound:
            rep.status = "counterexample"
            rep.max = decimal(v)
            rep.witnesses = [label(t)]
            return None
        if v > best:
            best, args = v, [t]
        elif v == best:
            args.append(t)
    rep.max = decimal(best)
    return best, args, count


def _triple_survivors(total: int, same_parity: bool, seed):
    """The items function of _bounded_max over the triples x1 >= x2 >= x3
    >= 1 summing to total, or their same-parity share, for this seed.  A
    run of path_runs whose cap is below floor drops out whole; otherwise
    each triple whose path_run_ceilings ceiling is below floor does.  The
    kept triples and the seed come back ordered by x3, then x2."""
    _refuse_table(f"the triple sweep at sum {total}", total * total // 2)
    c = _central_binomials(total)

    def survivors(floor: int):
        kept, count, floors = {(seed[2], seed[1])}, 0, repeat(floor)
        for a, b, z, k, cap in path_runs(c, total, same_parity):
            count += k
            if cap >= floor:
                bs = compress(range(b, b + 2 * k, 2), map(le, floors, path_run_ceilings(c, a, b, z, k)))
                kept.update(zip(repeat(z), bs))
        return [(total - z - b, b, z) for z, b in sorted(kept)], count

    return survivors


# ---------------------------------------------------------------------------
# n vertices, n edges: the unique-cycle maximizer
# ---------------------------------------------------------------------------

def check_nn_max(n: int) -> ConjectureReport:
    """Among connected (n, n)-graphs the facet maximum is the largest odd
    cycle with a pendant path: C(n, n) for odd n, C(n, n-1) for even n.

    Exhaustive over isomorphism classes for n <= DEFAULT_GUARD; via the
    closed-form chain N(C(n, 2k)) < N(C(n, 2k-1)) < N(C(n, 2k+1)) for
    larger n.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n > DEFAULT_GUARD:
        _refuse_table(f"nnmax at n={n}", n * n)
    best_m = n if n % 2 == 1 else n - 1
    expected = cycle_with_tail_count(n, best_m)
    rep = ConjectureReport("nnmax", {"n": n}, "verified", decimal(expected))
    if n <= DEFAULT_GUARD:
        _exhaustive_max(rep, n, 1, expected)
        rep.params["mode"] = "exhaustive"
    else:
        c = _central_binomials(n)
        values = {m: _cycle_count(c, m) << (n - m) for m in range(3, n + 1)}
        for m in [*range(3, n + 1, 97), best_m, n]:  # a check that shares no code with c
            if values[m] != cycle_with_tail_count(n, m):
                raise AssertionError(f"central-binomial table disagrees with the formulas at n={n}, m={m}")
        for m in range(4, n + 1):
            a, b = (m, m - 1) if m % 2 == 0 else (m - 2, m)
            if values[a] >= values[b]:
                rep.status = "counterexample"
                rep.witnesses = [f"C({n},{a}) >= C({n},{b})"]
                break
        else:
            rep.witnesses = [f"C({n},{best_m})"]
        rep.params["mode"] = "formula"
    return rep


# ---------------------------------------------------------------------------
# n vertices, n+1 edges
# ---------------------------------------------------------------------------

def check_disjoint_cycle_bound(n: int) -> ConjectureReport:
    """Every two-edge-disjoint-cycle graph on n vertices and n+1 edges has
    at most double_cycle_max(n) facets; sweeps all cycle-length pairs."""
    if n < 5:
        raise ValueError(f"need n >= 5 for two disjoint cycles, got {n}")
    # about n^2/4 pair counts of up to n bits: the cap bounds work, not a table
    _refuse_table(f"disjoint at n={n}", n ** 3 // 4)
    bound = double_cycle_max(n)
    rep = ConjectureReport("disjoint", {"n": n}, "verified", "0")
    pairs = ((i, j) for i in range(3, n - 1) for j in range(i, n + 2 - i))
    label = lambda ij: f"G({n},{ij[0]},{ij[1]})"
    found = _bounded_max(rep, pairs, lambda ij: double_cycle_count(n, *ij), bound, label)
    if found is not None:
        arg = found[1][0]
        rep.witnesses = [label(arg)]
        rep.params["argmax"] = list(arg)
        rep.params["bound"] = decimal(bound)
    return rep


def check_nn1_exhaustive(n: int) -> ConjectureReport:
    """Exhaustively verify that no connected (n, n+1)-graph beats
    double_cycle_max(n), and that some class attains it."""
    if n > DEFAULT_GUARD:
        raise GuardExceeded(f"exhaustive sweep at n={n} exceeds the guard ({DEFAULT_GUARD})")
    bound = double_cycle_max(n)
    rep = ConjectureReport("nn1", {"n": n, "bound": decimal(bound)}, "verified", "0")
    _exhaustive_max(rep, n, 2, bound)
    return rep


# ---------------------------------------------------------------------------
# same-parity path triples
# ---------------------------------------------------------------------------

def check_f_bounds(n: int) -> ConjectureReport:
    """The same-parity triple count is maximized at (n-1, 1, 1) for even n
    and (n-3, 2, 2) for odd n, and moving 2 from a smaller entry to the
    largest never decreases it."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    # about (n+1)^2/48 counts of up to n + 1 bits each; the sweep holds two
    # rows of x3, but the cap still bounds its work
    _refuse_table(f"fbounds at n={n}", (n + 1) ** 3 // 48)
    rep = ConjectureReport("fbounds", {"n": n}, "verified", "0")
    expected_arg = (n - 1, 1, 1) if n % 2 == 0 else (n - 3, 2, 2)
    # Rows of x3 come in steps of 2, so a move reads row x3 - 2 or the row
    # so far.  A failed argmax check outranks the first failed move.
    mx, argmax, move, row = -1, None, None, {}
    total, triples = n + 1, 0
    for x3 in range(2 - total % 2, total // 3 + 1, 2):
        prev, row = row, {}
        for x2 in range(x3, (total - x3) // 2 + 1, 2):
            x1 = total - x2 - x3
            t = (x1, x2, x3)
            triples += 1
            v = row[x2] = same_parity_count(t)
            if v > mx:
                mx, argmax = v, t
            if move is None and x3 >= 3:
                if v > prev[x2]:
                    move = f"F{t} > F{(x1 + 2, x2, x3 - 2)}"
                elif x2 - 2 >= x3 and v > row[x2 - 2]:
                    move = f"F{t} > F{(x1 + 2, x2 - 2, x3)}"
    rep.max = decimal(mx)
    if same_parity_count(expected_arg) != mx:
        rep.status = "counterexample"
        rep.witnesses = [f"argmax {argmax} beats {expected_arg}"]
    elif move is not None:
        rep.status = "counterexample"
        rep.witnesses = [move]
    else:
        rep.witnesses = [str(expected_arg)]
        rep.params["triples"] = triples
    return rep


def check_general_f_leq_m(n: int) -> ConjectureReport:
    """Every same-parity triple summing to n+1 satisfies F <= double_cycle_max(n)."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    seed = (n - 1, 1, 1) if n % 2 == 0 else (n - 3, 2, 2)
    survivors = _triple_survivors(n + 1, True, seed)
    bound = double_cycle_max(n)
    rep = ConjectureReport("f-leq-m", {"n": n, "bound": decimal(bound)}, "verified", "0")
    found = _bounded_max(rep, survivors, same_parity_count, bound, str, seed)
    if found is not None:
        rep.params["triples"] = found[2]
    return rep


# ---------------------------------------------------------------------------
# mixed-parity path triples
# ---------------------------------------------------------------------------

def conjectured_cb_maximizer(n: int) -> tuple[int, int, int]:
    """The conjectured facet-maximizing path triple among all triples
    summing to n+1, by the parity of n and of the half-count k."""
    if n % 2 == 0:
        k = n // 2
        return (k, k, 1) if k % 2 == 0 else (k + 1, k - 1, 1)
    k = (n + 1) // 2
    return (k - 1, k - 1, 2) if k % 2 == 0 else (k, k - 2, 2)


def check_mixed_cb(n: int) -> ConjectureReport:
    """Sweep every path triple summing to n+1 (all parities): each count
    must stay within double_cycle_max(n) and the maximum must land on the
    conjectured triple.  That triple is evaluated first; a triple whose
    path_run_ceilings ceiling is below min(that count, M(n) + 1) is
    skipped."""
    if n < 10:
        raise ValueError(f"need n >= 10, got {n}")
    expected_arg = conjectured_cb_maximizer(n)
    survivors = _triple_survivors(n + 1, False, expected_arg)
    bound = double_cycle_max(n)
    rep = ConjectureReport("mixed-cb", {"n": n, "bound": decimal(bound)}, "verified", "0")
    found = _bounded_max(rep, survivors, parallel_paths_count, bound, str, expected_arg)
    if found is not None:
        _, args, rep.params["triples"] = found
        rep.witnesses = [str(a) for a in args]
        rep.params["conjectured"] = list(expected_arg)
        if expected_arg not in args:
            rep.status = "counterexample"
    return rep


def check_cb_maximizer_bound(max_n: int) -> ConjectureReport:
    """For every n in [10, max_n], the conjectured maximizing triple's
    count stays within double_cycle_max(n).  Exact integers throughout;
    this is the long-range companion to the per-n triple sweep.

    Both sides come from one table of central binomials.  At every 97th n
    and at max_n they are checked against parallel_paths_count and
    double_cycle_max, which share no code with the table.
    """
    if max_n < 10:
        raise ValueError(f"need max_n >= start (10), got {max_n}")
    rep = ConjectureReport(
        "mixed-cb", {"mode": "bound-only", "start": 10, "max_n": max_n}, "verified", "0"
    )
    length = max_n // 2 + 2
    _refuse_table(f"the bound scan to max_n={max_n}", length * length // 2)
    c = _central_binomials(length)
    for n in range(10, max_n + 1):
        v, bound = _cb_maximizer_count(c, n), _double_cycle_max(c, n)
        if (n - 10) % 97 == 0 or n == max_n:
            t = conjectured_cb_maximizer(n)
            if v != parallel_paths_count(t) or bound != double_cycle_max(n):
                raise AssertionError(f"central-binomial table disagrees with the formulas at n={n}")
        if v > bound:
            rep.status = "counterexample"
            rep.max = decimal(v)
            rep.witnesses = [f"n={n} {conjectured_cb_maximizer(n)}"]
            return rep
    rep.max = decimal(v)
    return rep


# ---------------------------------------------------------------------------
# windmills
# ---------------------------------------------------------------------------

def check_windmill(n: int, samples: int = 200, seed: int = 2022) -> ConjectureReport:
    """For odd n and e = 3(n-1)/2 edges, no graph beats the wedge of
    (n-1)/2 triangles, whose count is 6^((n-1)/2).

    Exhaustive for n <= DEFAULT_GUARD (also confirming every maximizer's
    blocks are odd cycles and bridges, which at this level means triangles);
    beyond that, a seeded edge-replacement chain started at the full
    windmill samples the space and checks the bound, giving "partial"
    (sampling) evidence rather than a verification.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError(f"windmill check needs odd n >= 3, got {n}")
    r = (n - 1) // 2
    e = 3 * r
    expected = windmill_count(n, r)
    rep = ConjectureReport("windmill", {"n": n, "e": e}, "verified", decimal(expected))
    if n <= DEFAULT_GUARD:
        _exhaustive_max(rep, n, r, expected)
        rep.params["mode"] = "exhaustive"
    else:
        cfg = ChainConfig.for_samples(n, e, samples, seed=seed, burn_in=0, initial=windmill(n, r))
        label = lambda record: serialize_graph(record.graph)
        if _bounded_max(rep, run_chain(cfg), attrgetter("count"), expected, label) is not None:
            rep.status = "partial"
            rep.params.update(mode="sampled", samples=samples, seed=seed, sample_max=rep.max)
    return rep


# ---------------------------------------------------------------------------
# exact identity ledger
# ---------------------------------------------------------------------------

# c[m] = binom(m, m//2), shared by every sweep and grown on demand up to
# CENTRAL_MAX (about 1 MiB when full).  A longer request extends a copy, so
# the shared table stays bounded whatever limits callers pass; callers
# refuse a table past MAX_TABLE_BITS before asking for it.
CENTRAL_MAX = 4096
_CENTRAL: list[int] = [1]


def _central_binomials(limit: int) -> list[int]:
    """c[m] = binom(m, m//2) for 0 <= m <= limit, a list the caller owns."""
    c = _CENTRAL if limit <= CENTRAL_MAX else _CENTRAL[:]
    for m in range(len(c), limit + 1):
        c.append(2 * c[-1] if m % 2 == 0 else c[-1] * m // ((m + 1) // 2))
    return c[:limit + 1]


def _cycle_count(c: list[int], m: int) -> int:
    """cycle_count(m) for m >= 2, from the table c of _central_binomials."""
    return c[m] if m % 2 == 0 else m * c[m - 1]


def _double_cycle_max(c: list[int], n: int) -> int:
    """double_cycle_max(n) for n >= 3, from the table c of _central_binomials."""
    if n % 2 == 0:
        return 2 * _double_cycle_max(c, n - 1)
    k = (n + 1) // 2
    if k % 2 == 0:
        return (k + 1) * (k - 1) * c[k] * c[k - 2]
    return k * k * c[k - 1] ** 2


def _cb_maximizer_count(c: list[int], n: int) -> int:
    """parallel_paths_count(conjectured_cb_maximizer(n)) for n >= 10, from
    the table c of _central_binomials.

    parallel_paths_count splits on which parity class takes the flat
    edges.  At even n, flat edges on the two even paths leave
    F(a, b, 1) = 2*c[a]*c[b] for odd a, b, and a flat unit path leaves a
    wedge of two even cycles.  At odd n, a flat edge on the length-2 path
    leaves 2*F(a, b, 1), and flat edges on the two odd paths leave
    F(2, a, b) = 2*(c[a]*c[b] + below(a)*below(b)) for even a, b, where
    below(a) = binom(a, a/2 - 1).
    """

    def below(a: int) -> int:
        h = a // 2
        return c[a] * h // (h + 1)

    if n % 2 == 0:
        k = n // 2
        if k % 2 == 0:  # (k, k, 1)
            return 2 * k * k * c[k - 1] ** 2 + c[k] ** 2
        # (k+1, k-1, 1)
        return 2 * (k + 1) * (k - 1) * c[k] * c[k - 2] + c[k + 1] * c[k - 1]
    k = (n + 1) // 2
    if k % 2 == 0:  # (k-1, k-1, 2)
        a = k - 2
        return 4 * c[k - 1] ** 2 + 2 * (k - 1) ** 2 * (c[a] ** 2 + below(a) ** 2)
    # (k, k-2, 2)
    a, b = k - 1, k - 3
    return 4 * c[k] * c[k - 2] + 2 * k * (k - 2) * (c[a] * c[b] + below(a) * below(b))


def check_identities(k_max: int = 10000) -> ConjectureReport:
    """Cross-multiplied exact identities tying the closed forms together,
    for all valid k up to k_max, plus the strict doubling law
    2*double_cycle_max(n) < double_cycle_max(n+1) at even n (at odd n the
    table's even branch makes it an equality by definition).

    Everything is verified over big integers; no division is performed.
    """
    if k_max < 3:  # the ledger reaches both parities of k from k_max = 3
        raise ValueError(f"need k_max >= 3, got {k_max}")
    _refuse_table(f"identities to k_max={k_max}", (k_max + 2) ** 2 // 2)
    rep = ConjectureReport("identities", {"k_max": k_max}, "verified", "0")
    c = _central_binomials(k_max + 2)

    def m_any(n: int) -> int:
        return _double_cycle_max(c, n)

    def f_kk1(a: int, b: int) -> int:
        # F(a, b, 1) for odd a >= b: both j-terms hit central binomials
        return 2 * c[a] * c[b]

    def fail(msg: str) -> ConjectureReport:
        rep.status = "counterexample"
        rep.witnesses = [msg]
        return rep

    # the doubling law first: the M(2k-2) vs M(2k-1) identities imply it
    for n in range(4, k_max + 1, 2):
        if 2 * m_any(n) >= m_any(n + 1):
            return fail(f"n={n}: doubling is not strict at even n")

    for k in range(2, k_max + 1):
        if k % 2 == 0:
            # 4*M(2k) = (k+2)*k*F(k+1, k-1, 1)
            if 4 * m_any(2 * k) != (k + 2) * k * f_kk1(k + 1, k - 1):
                return fail(f"k={k}: M(2k) vs F(k+1,k-1,1)")
            if k >= 4:
                # k*N(C_k) = 4*N(C_{k-1})
                if k * _cycle_count(c, k) != 4 * _cycle_count(c, k - 1):
                    return fail(f"k={k}: cycle ratio")
            if k >= 3:
                # 2(k+1)*M(2k-2) = k*M(2k-1)
                if 2 * (k + 1) * m_any(2 * k - 2) != k * m_any(2 * k - 1):
                    return fail(f"k={k}: M(2k-2) vs M(2k-1)")
        else:
            if k >= 3:
                # 4*M(2k) = (k+1)^2*F(k, k, 1)
                if 4 * m_any(2 * k) != (k + 1) ** 2 * f_kk1(k, k):
                    return fail(f"k={k}: M(2k) vs F(k,k,1)")
                # 2k*M(2k-2) = (k-1)*M(2k-1)
                if 2 * k * m_any(2 * k - 2) != (k - 1) * m_any(2 * k - 1):
                    return fail(f"k={k}: M(2k-2) vs M(2k-1)")

    rep.max = decimal(m_any(k_max))
    rep.params["doubling_n_max"] = k_max
    return rep
