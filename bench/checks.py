"""Output checks made apart from the program, and their self-test.

Each workload's checker takes the ops of a run (plain dicts, see
workloads.py) and returns failures as (op index or None, check name,
detail).  References come from the paper's formulas, evaluated here with
math.comb, and from published sequences -- never from the code under test,
except for the second counting path the audit compares against.

The self-test corrupts real outputs one way at a time and requires the
named check to catch each corruption, so no check can be vacuous.
"""

from __future__ import annotations

import math
from collections import defaultdict

from workloads import SPARSE_LEVELS, WINDMILL_E, WINDMILL_N, WINDMILL_RECORDS

WINDMILL_CEILING = 6**6  # windmill(13, 6): six triangles at one hub

# Connected isomorphism classes per level, n = 3..9.
TREES = dict(zip(range(3, 10), (1, 2, 3, 6, 11, 23, 47)))  # OEIS A000055
UNICYCLIC = dict(zip(range(3, 10), (1, 2, 5, 13, 33, 89, 240)))  # OEIS A001429
BICYCLIC = {3: 0, **dict(zip(range(4, 10), (1, 5, 19, 67, 236, 797)))}  # OEIS A001435
NN1_MAX = dict(zip(range(4, 10), (12, 36, 72, 180, 360, 900)))


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def three_part_partitions(total: int) -> int:
    """Partitions of total into three positive parts: round(total^2 / 12)."""
    return (total * total + 6) // 12


def double_cycle_max(n: int) -> int:
    """The paper's M(n): two balanced odd cycles wedged, doubled at even n."""
    if n % 2 == 0:
        return 2 * double_cycle_max(n - 1)
    k = (n + 1) // 2
    if k % 2 == 0:
        return (k + 1) * (k - 1) * math.comb(k, k // 2) * math.comb(k - 2, (k - 2) // 2)
    return k * k * math.comb(k - 1, (k - 1) // 2) ** 2


def conjectured_triple(n: int) -> tuple[int, int, int]:
    """The paper's conjectured maximizing path triple summing to n + 1."""
    if n % 2 == 0:
        k = n // 2
        return (k, k, 1) if k % 2 == 0 else (k + 1, k - 1, 1)
    k = (n + 1) // 2
    return (k - 1, k - 1, 2) if k % 2 == 0 else (k, k - 2, 2)


def parallel_paths_facets(lengths) -> int:
    """Facets of parallel paths between two vertices, as a direct sum.

    Fix the labels of the two ends at 0 and d.  A path of length m whose
    parity matches d climbs by d in unit steps: C(m, (m + d)/2) ways.
    Otherwise it needs exactly one flat edge: m * C(m - 1, (m - 1 + d)/2)
    ways.  Unit steps span and connect the graph unless every path has a
    flat edge, which is subtracted.
    """
    total = 0
    top = max(lengths)
    for d in range(-top, top + 1):
        ways, all_flat = 1, 1
        for m in lengths:
            if (m - d) % 2 == 0:
                ways *= math.comb(m, (m + d) // 2) if abs(d) <= m else 0
                all_flat = 0
            else:
                flat = m * math.comb(m - 1, (m - 1 + d) // 2) if abs(d) < m else 0
                ways *= flat
                all_flat *= flat
        total += ways - all_flat
    return total


def level_max(n: int, e: int) -> int:
    """Largest facet count over connected (n, e) graphs, e - n + 1 <= 2."""
    if e == n - 1:
        return 2 ** (n - 1)
    if e == n:
        m = n if n % 2 else n - 1
        return m * math.comb(m - 1, (m - 1) // 2) * 2 ** (n - m)
    return NN1_MAX[n]


def level_size(n: int, e: int) -> int:
    return {n - 1: TREES, n: UNICYCLIC, n + 1: BICYCLIC}[e][n]


def shape_problem(n_want: int, e_want: int, n: int, edges) -> str | None:
    """None when edges form a connected simple graph of the wanted size."""
    if n != n_want or len(edges) != e_want:
        return f"{n} vertices and {len(edges)} edges"
    if len(set(edges)) != len(edges) or any(not 0 <= u < v < n for u, v in edges):
        return "not a simple graph on 0..n-1"
    nbr = defaultdict(list)
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in nbr[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return None if len(seen) == n else "disconnected"


def is_windmill(edges) -> bool:
    """A hub joined to all twelve other vertices, which pair off into
    triangles with it: the degrees are 12 once and 2 everywhere else."""
    degree = defaultdict(int)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return len(edges) == 18 and sorted(degree.values()) == [2] * 12 + [12]


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def formula_failures(ops, _ref=None) -> list:
    out = []
    for i, op in enumerate(ops):
        n = op["n"]
        if op["status"] != "verified":
            out.append((i, "status", f"n={n}: {op['status']}"))
        if op["triples"] != three_part_partitions(n + 1):
            out.append((i, "triples", f"n={n}: {op['triples']} triples"))
        if op["max"] > double_cycle_max(n):
            out.append((i, "bound", f"n={n}: max exceeds M(n)"))
        if op["max"] != parallel_paths_facets(conjectured_triple(n)):
            out.append((i, "conjectured", f"n={n}: max is not the conjectured triple's count"))
    return out


def windmill_failures(ops, ref) -> list:
    """ref(edges) is the record's count by the program's second counting path."""
    out = []
    rounds = defaultdict(list)
    for i, op in enumerate(ops):
        rounds[op["round"]].append(i)
        index = op["index"]
        if index == 0 and (op["count"] != WINDMILL_CEILING or not is_windmill(op["edges"])):
            out.append((i, "first-record", f"count {op['count']}"))
        problem = shape_problem(WINDMILL_N, WINDMILL_E, op["n"], op["edges"])
        if problem:
            out.append((i, "shape", f"record {index}: {problem}"))
        if op["count"] % 2:
            out.append((i, "even", f"record {index}: count {op['count']}"))
        if op["count"] > WINDMILL_CEILING:
            out.append((i, "ceiling", f"record {index}: count {op['count']}"))
        if not problem and op["count"] != ref(op["edges"]):
            out.append((i, "subgraphs", f"record {index}: the two counting paths differ"))
    first = rounds.get(0, [])
    if [ops[i]["index"] for i in first] != list(range(WINDMILL_RECORDS)):
        out.append((first or None, "records", f"round 0 has {len(first)} records"))
    if len(rounds) < 2:
        out.append((None, "replay", "no second round of the same seed to compare"))
    fields = ("index", "step", "count", "edges")
    for r, members in rounds.items():
        for i, want in zip(members, first):
            if any(ops[i][f] != ops[want][f] for f in fields):
                out.append((i, "replay", f"round {r}, record {ops[i]['index']} differs"))
    return out


def sparse_failures(ops, _ref=None) -> list:
    out = []
    levels = defaultdict(list)
    for i, op in enumerate(ops):
        levels[op["round"], op["n"], op["e"]].append(i)
        n, e, walk, sub, closed = op["n"], op["e"], op["walk"], op["subgraphs"], op["closed"]
        problem = shape_problem(n, e, n, op["edges"])
        if problem:
            out.append((i, "shape", f"({n},{e}) class: {problem}"))
        if walk != sub:
            out.append((i, "paths-agree", f"({n},{e}): walk {walk}, subgraphs {sub}"))
        if walk % 2 or sub % 2:
            out.append((i, "even", f"({n},{e}): odd count"))
        if closed is not None and closed != walk:
            out.append((i, "closed-form", f"({n},{e}): closed form {closed}, walk {walk}"))
    for r in sorted({op["round"] for op in ops}):
        for n, e in SPARSE_LEVELS:
            members = levels.get((r, n, e), [])
            if len(members) != level_size(n, e):
                out.append((members or None, "level-size", f"({n},{e}): {len(members)} classes"))
            if members and max(ops[i]["walk"] for i in members) != level_max(n, e):
                out.append((members, "level-max", f"({n},{e}): maximum is not the closed form"))
    return out


CHECKERS = {
    "formula-sweep": formula_failures,
    "windmill-sampling": windmill_failures,
    "sparse-classes": sparse_failures,
}


def failed_ops(failures) -> int:
    """Ops with at least one failed check; a failure tied to no op counts one."""
    ids, loose = set(), 0
    for where, _name, _detail in failures:
        if where is None:
            loose += 1
        elif isinstance(where, list):
            ids.update(where)
        else:
            ids.add(where)
    return len(ids) + loose


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def _bump(op, **delta):
    op = dict(op)
    for k, d in delta.items():
        op[k] = op[k] + d
    return op


def _set(op, **values):
    return {**op, **values}


def _first(ops, pred):
    return next(i for i, op in enumerate(ops) if pred(op))


def corruptions(workload: str, ops):
    """(check that must fire, corrupted copy of ops) for one workload."""
    def edit(i, new):
        return ops[:i] + [new] + ops[i + 1:]

    if workload == "formula-sweep":
        n = ops[0]["n"]
        yield "status", edit(0, _set(ops[0], status="counterexample"))
        yield "triples", edit(0, _bump(ops[0], triples=1))
        yield "bound", edit(0, _set(ops[0], max=double_cycle_max(n) + 2))
        yield "conjectured", edit(0, _bump(ops[0], max=-2))
    elif workload == "windmill-sampling":
        i = _first(ops, lambda op: op["index"] == 1)
        last = max(op["round"] for op in ops)
        j = _first(ops, lambda op: op["round"] == last and op["index"] == 1)
        yield "first-record", edit(0, _bump(ops[0], count=-2))
        yield "first-record", edit(0, _set(ops[0], edges=ops[i]["edges"]))
        yield "shape", edit(i, _set(ops[i], edges=ops[i]["edges"][:-1]))
        yield "even", edit(i, _bump(ops[i], count=1))
        yield "ceiling", edit(i, _set(ops[i], count=WINDMILL_CEILING + 2))
        yield "subgraphs", edit(i, _bump(ops[i], count=2))
        yield "replay", edit(j, _bump(ops[j], count=2))
        yield "records", ops[:WINDMILL_RECORDS - 1] + ops[WINDMILL_RECORDS:]  # a dropped record
    else:
        big = _first(ops, lambda op: (op["n"], op["e"]) == (9, 10))
        covered = _first(ops, lambda op: op["closed"] is not None and op["e"] == op["n"])
        level = [i for i, op in enumerate(ops) if (op["round"], op["n"], op["e"]) == (0, 9, 10)]
        top = max(level, key=lambda i: ops[i]["walk"])
        yield "level-size", ops[:big] + ops[big + 1:]  # a dropped class
        yield "shape", edit(big, _set(ops[big], edges=ops[big]["edges"][:-1]))
        yield "paths-agree", edit(big, _bump(ops[big], subgraphs=2))
        yield "even", edit(big, _bump(ops[big], walk=1, subgraphs=1))
        yield "closed-form", edit(covered, _bump(ops[covered], closed=2))
        yield "level-max", edit(top, _bump(ops[top], walk=2, subgraphs=2))


def self_test(workload: str, ops, ref) -> tuple[int, list[str]]:
    """Corruptions tried, and the names of those the checks let through."""
    check = CHECKERS[workload]
    tried, missed = 0, []
    for name, bad in corruptions(workload, ops):
        tried += 1
        if name not in {c for _w, c, _d in check(bad, ref)}:
            missed.append(name)
    return tried, missed
