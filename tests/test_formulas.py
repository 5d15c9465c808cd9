import functools
import math
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from helpers import parallel_paths_bound
from sepfacets import formulas
from sepfacets.facets import facet_count
from sepfacets.formulas import (
    FamilySpec,
    binom,
    closed_form_count,
    cycle_count,
    cycle_with_tail_count,
    double_cycle_count,
    double_cycle_max,
    parallel_paths_count,
    path_run_ceilings,
    path_runs,
    same_parity_count,
    theta_count,
    tree_count,
    windmill_count,
)
from sepfacets.graph import (
    Graph,
    MultigraphError,
    cycle,
    double_cycle,
    parallel_paths,
    path,
    wedge,
    windmill,
)
from sepfacets.sampler import default_initial


def test_binom_conventions():
    assert binom(0, 0) == 1
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(6, 3) == 20


def test_cycle_count_values():
    assert cycle_count(2) == 2  # doubled-edge convention
    assert cycle_count(3) == 6
    assert cycle_count(4) == 6
    assert cycle_count(5) == 30
    assert cycle_count(7) == 140
    with pytest.raises(ValueError):
        cycle_count(1)


def test_tree_count_values():
    assert tree_count(1) == 1
    assert tree_count(3) == 4
    assert tree_count(6) == 32


def test_cycle_with_tail_count_values():
    assert cycle_with_tail_count(7, 5) == 120
    assert cycle_with_tail_count(5, 5) == 30
    assert cycle_with_tail_count(6, 5) == 60
    with pytest.raises(ValueError):
        cycle_with_tail_count(4, 5)


def test_double_cycle_max_values():
    assert double_cycle_max(3) == 6
    assert double_cycle_max(4) == 12
    assert double_cycle_max(5) == 36
    assert double_cycle_max(6) == 72
    assert double_cycle_max(7) == 180
    assert double_cycle_max(8) == 360
    with pytest.raises(ValueError):
        double_cycle_max(2)


def test_same_parity_values():
    assert same_parity_count([4, 2, 2]) == 32
    assert same_parity_count([1, 1, 1]) == 2
    assert same_parity_count([3, 3, 1]) == 18
    assert same_parity_count([7, 1, 1]) == 70
    with pytest.raises(ValueError):
        same_parity_count([3, 2, 1])


def test_two_length_sums_match_the_term_by_term_sum():
    # Vandermonde: the two paths of lengths a, b close one (a + b)-cycle
    for a in range(1, 41):
        for b in range(a % 2 or 2, a + 1, 2):
            want = sum(math.comb(b, j) * math.comb(a, (a - b) // 2 + j) for j in range(b + 1))
            assert same_parity_count([a, b]) == same_parity_count([b, a]) == want, (a, b)


def test_two_long_paths_count_in_a_child_process():
    # the term-by-term sum took about 105 s here; the child's timeout
    # stops a return to it
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import time; from sepfacets.formulas import cycle_count, parallel_paths_count; "
        "t = time.perf_counter(); ok = parallel_paths_count([50001, 50000]) == cycle_count(100001); "
        "print(ok, time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    ok, seconds = proc.stdout.split()
    assert ok == "True"
    assert float(seconds) < 20


def _reference_f(lengths):
    """The paper's F(m1, ..., mt) = sum_j prod_k binom(mk, (mk - mt)/2 + j),
    straight from math.comb; a zero length is a contracted path."""
    mt = min(lengths)
    return sum(
        math.prod(math.comb(mk, (mk - mt) // 2 + j) for mk in lengths)
        for j in range(mt + 1)
    )


def _reference_paths(lengths):
    """Mixed parities: one edge of every even path, or of every odd path,
    goes flat and is contracted."""
    evens = [x for x in lengths if x % 2 == 0]
    odds = [x for x in lengths if x % 2 == 1]
    if not evens or not odds:
        return _reference_f(lengths)
    flat_even = math.prod(evens) * _reference_f([x - 1 for x in evens] + odds)
    flat_odd = math.prod(odds) * _reference_f(evens + [x - 1 for x in odds])
    return flat_even + flat_odd


def _triples(total):
    return [
        (total - b - c, b, c)
        for c in range(1, total // 3 + 1)
        for b in range(c, (total - c) // 2 + 1)
        if total - b - c >= b
    ]


def test_path_kernel_matches_reference_on_small_triples():
    for total in range(11, 42):
        for t in _triples(total):
            want = _reference_paths(t)
            assert parallel_paths_count(t) == want, t
            if t[0] % 2 == t[1] % 2 == t[2] % 2:
                assert same_parity_count(t) == want, t


def test_path_kernel_matches_reference_across_the_row_cap():
    cap = formulas.PASCAL_ROWS_MAX
    for t in [
        (cap + 1, cap - 1, 2),
        (cap + 3, cap + 1, 4),
        (cap, cap, 1),
        (cap + 1, cap, 3),
        (cap + 2, 2, 2),
    ]:
        assert parallel_paths_count(t) == _reference_paths(t), t
    for t in [(cap + 2, cap, 2), (cap + 1, cap - 1, 3), (cap + 1, cap + 1, cap + 1)]:
        assert same_parity_count(t) == _reference_f(t), t
    for m in (1, 2, 7, cap, cap + 1):
        for t in (1, 2, 3, 4):
            assert theta_count(m, t) == same_parity_count([m] * t), (m, t)


@functools.cache
def _central_binomial(m):
    return math.comb(m, m // 2)


def _central(limit):
    # cached per m: the lemma and the large-triple runs share lengths to 5000
    return [_central_binomial(m) for m in range(limit + 1)]


def _runs(total):
    """The runs of the triple sweeps: (a, b, z, k) for the k triples
    (a - 2i, b + 2i, z), i < k, of _triples(total) with third entry z and
    middle entry of b's parity."""
    for z in range(1, total // 3 + 1):
        hi = (total - z) // 2
        for b in (z, z + 1):
            if b <= hi:
                yield total - z - b, b, z, (hi - b) // 2 + 1


def test_path_bound_covers_every_small_triple():
    # the certified ceiling the triple sweeps prune with, on every triple
    # of every parity mix with sum <= 160
    bound = parallel_paths_bound(_central(160))
    for total in range(3, 161):
        for t in _triples(total):
            assert bound(t) >= parallel_paths_count(t), t


def test_run_ceilings_match_the_reference_bound():
    # every triple with sum <= 200 lies in exactly one run; its factored
    # ceiling equals the per-triple dispatch bound, and the run's cap is at
    # least each ceiling of the run
    c = _central(200)
    bound = parallel_paths_bound(c)
    for total in range(3, 201):
        seen = []
        runs = list(path_runs(c, total, False))
        assert [r[:4] for r in runs] == list(_runs(total)), total
        for a, b, z, k, cap in runs:
            run = [(a - 2 * i, b + 2 * i, z) for i in range(k)]
            want = [bound(t) for t in run]
            assert list(path_run_ceilings(c, a, b, z, k)) == want, run
            assert cap >= max(want), run
            seen += run
        assert sorted(seen) == sorted(_triples(total)), total
        # the same-parity sweep gets exactly the runs of one parity
        same = [r for r in runs if r[0] % 2 == r[1] % 2 == r[2] % 2]
        assert list(path_runs(c, total, True)) == same, total


def test_run_certificate_lemma():
    # c[m+2] / c[m] = 4 - 2/(ceil(m/2) + 1) grows with m, so log c is
    # convex along steps of 2: the run cap may read only a run's ends
    c = _central(5002)
    for m in range(2, 5001):
        assert c[m + 2] * c[m - 2] >= c[m] ** 2, m
        assert c[m + 2] * ((m + 1) // 2 + 1) == c[m] * (4 * ((m + 1) // 2) + 2), m


def _product_of_ends_cap(c, a, b, z, k):
    """The run cap as the larger end of c[x]*c[y] times the larger end of
    Q, for every run shape: the looser cap that path_runs improves on."""
    j, ha, hb = k - 1, (a + 1) // 2, (b + 1) // 2
    if a % 2 == b % 2 == z % 2:
        q = 1 << z
    elif a % 2 == b % 2:
        q = (max(ha * hb, (ha - j) * (hb + j)) << z) + (z << (z - 1))
    else:
        ka, kb = (z << (z - 1), 1 << z) if a % 2 == z % 2 else (1 << z, z << (z - 1))
        q = max(ka * ha + kb * hb, ka * (ha - j) + kb * (hb + j))
    return max(c[a] * c[b], c[a - 2 * j] * c[b + 2 * j]) * q


def test_run_caps_read_each_factor_at_its_peak():
    # along a run with x and y of one parity, P = c[x]*c[y] never rises and
    # T1 = ceil(x/2)*ceil(y/2)*P never falls, so a cap may read P at the
    # first triple and T1 at the last; exact integers, every run to sum 200
    c = _central(200)
    bound = parallel_paths_bound(c)
    for total in range(3, 201):
        for a, b, z, k, cap in path_runs(c, total, False):
            run = [(a - 2 * i, b + 2 * i, z) for i in range(k)]
            if a % 2 == b % 2:
                p = [c[x] * c[y] for x, y, _ in run]
                t1 = [(x + 1) // 2 * ((y + 1) // 2) * c[x] * c[y] for x, y, _ in run]
                assert p == sorted(p, reverse=True) and t1 == sorted(t1), run
            ceilings = [bound(t) for t in run]
            assert cap >= max(ceilings), run
            assert k > 1 or cap == ceilings[0], run
            assert cap <= _product_of_ends_cap(c, a, b, z, k), run


def test_path_bound_covers_large_triples():
    cap = formulas.PASCAL_ROWS_MAX
    rng = Random(8)
    triples = [(cap + 1, cap - 1, 1), (cap + 2, cap, 2), (cap + 1, cap + 1, cap + 1)]
    triples += [tuple(rng.randint(1, 3 * cap) for _ in range(3)) for _ in range(40)]
    c = _central(9 * cap + 3)
    bound = parallel_paths_bound(c)
    for t in triples:
        assert bound(t) >= parallel_paths_count(t), t
        # the factored ceiling of the one-triple run agrees, and so does the
        # ceiling of t in its run of the sweep, under the run's cap; every
        # one-triple run of the sum has its ceiling as its cap
        x, y, z = sorted(t, reverse=True)
        assert list(path_run_ceilings(c, x, y, z, 1)) == [bound(t)], t
        runs = list(path_runs(c, x + y + z, False))
        a, b, _, k, top = next(r for r in runs if r[2] == z and r[1] % 2 == y % 2)
        ceilings = list(path_run_ceilings(c, a, b, z, k))
        assert ceilings[(y - b) // 2] == bound(t) and top >= max(ceilings), t
        singles = [r for r in runs if r[3] == 1]
        assert singles and [r[4] for r in singles] == [bound(r[:3]) for r in singles], t
    # order-free, and exact on a single path
    assert bound((1, 5, 2)) == bound((5, 2, 1))
    assert bound((7,)) == parallel_paths_count((7,)) == 128
    # the worked example: (16, 14, 1) has Q = 2*8*7 + 1 = 113, exactly
    top = c[16] * c[14] * 113
    assert list(path_run_ceilings(c, 16, 14, 1, 1)) == [top]
    assert top == 4991191920 == parallel_paths_count((16, 14, 1))
    # it ends the run (28, 2, 1), ..., (16, 14, 1), whose cap takes T1 =
    # 8*7*c[16]*c[14] there and P = c[28]*c[2] at the run's start
    assert (28, 2, 1, 7, (2 * 8 * 7 * c[16] * c[14]) + c[28] * c[2]) in path_runs(c, 31, False)


def test_pascal_table_stays_bounded():
    cap = formulas.PASCAL_ROWS_MAX
    parallel_paths_count((cap, cap - 2, 2))  # fills the table up to the cap
    t = (5001, 4999, 1)
    assert parallel_paths_count(t) == _reference_paths(t)
    assert len(formulas._PASCAL) == cap + 1


@pytest.mark.parametrize("m", [10, 700])  # inside and past the Pascal table
@pytest.mark.parametrize("width", [0, 1, 5])
def test_binom_slice_widths(m, width):
    assert 10 <= formulas.PASCAL_ROWS_MAX < 700
    got = list(formulas._binom_slice(m, 3, width))
    assert got == [math.comb(m, 3 + i) for i in range(width)]


def test_theta_count_values():
    assert theta_count(2, 3) == 10
    assert theta_count(5, 1) == 32
    assert theta_count(2, 2) == 6
    assert theta_count(3, 3) == 56


def test_parallel_paths_count_values():
    assert parallel_paths_count([3, 3, 2]) == 126
    assert parallel_paths_count([3, 3, 2]) == 2 * same_parity_count([3, 3, 1]) + 9 * same_parity_count([2, 2, 2])
    assert parallel_paths_count([2, 1, 1]) == 6
    assert parallel_paths_count([4, 2, 1]) == 60
    assert parallel_paths_count([5]) == 32  # a lone path is a tree


def test_double_cycle_count_values():
    assert double_cycle_count(7, 3, 3) == 144
    assert double_cycle_count(7, 5, 3) == 180
    assert double_cycle_count(9, 3, 3) == 576
    with pytest.raises(ValueError):
        double_cycle_count(6, 5, 3)


def test_windmill_count_values():
    assert windmill_count(7, 3) == 216
    assert windmill_count(7, 2) == 144
    assert windmill_count(5, 0) == 16


def test_formulas_match_engine_on_instances():
    cases = [
        (cycle(6), cycle_count(6)),
        (path(4), tree_count(5)),
        (cycle(7), cycle_count(7)),
        (parallel_paths([4, 2, 2]), same_parity_count([4, 2, 2])),
        (parallel_paths([3, 3, 3]), theta_count(3, 3)),
        (parallel_paths([4, 2, 1]), parallel_paths_count([4, 2, 1])),
        (double_cycle(8, 3, 3), double_cycle_count(8, 3, 3)),
        (windmill(7, 2), windmill_count(7, 2)),
        (wedge(cycle(5), cycle(3), 0, 0), double_cycle_max(7)),
    ]
    for g, want in cases:
        assert facet_count(g) == want


def test_same_parity_collapsed_doubled_edge():
    # two unit paths are a doubled edge; the formula still gives the count
    # of the underlying simple graph (a triangle once a 2-path is added)
    assert parallel_paths_count([2, 1, 1]) == facet_count(cycle(3))


@given(
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5).map(
        lambda xs: [2 * x for x in xs]
    )
)
def test_same_parity_is_permutation_invariant_even(xs):
    rng = Random(0)
    shuffled = xs[:]
    rng.shuffle(shuffled)
    assert same_parity_count(xs) == same_parity_count(shuffled)


@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5).map(
        lambda xs: [2 * x + 1 for x in xs]
    )
)
def test_same_parity_is_permutation_invariant_odd(xs):
    rng = Random(1)
    shuffled = xs[:]
    rng.shuffle(shuffled)
    assert same_parity_count(xs) == same_parity_count(shuffled)


@given(st.integers(min_value=1, max_value=14), st.integers(min_value=1, max_value=4))
def test_theta_specializes_same_parity(m, t):
    assert theta_count(m, t) == same_parity_count([m] * t)


def test_odd_cycle_with_tail_beats_neighbors():
    # N(C(n,2k)) < N(C(n,2k-1)) < N(C(n,2k+1)) wherever defined
    for n in range(5, 201):
        for k in range(2, n // 2 + 1):
            if 2 * k <= n:
                assert cycle_with_tail_count(n, 2 * k) < cycle_with_tail_count(n, 2 * k - 1)
            if 2 * k + 1 <= n:
                assert cycle_with_tail_count(n, 2 * k - 1) < cycle_with_tail_count(n, 2 * k + 1)


def test_odd_cycle_beats_even_in_double_cycles():
    for n in range(7, 101):
        for j in range(3, n - 2):
            for i in range(4, n + 2 - j, 2):
                assert double_cycle_count(n, i, j) < double_cycle_count(n, i - 1, j)


def test_balanced_odd_cycles_beat_spread_ones():
    for total in range(8, 201, 2):
        odd_pairs = [
            (i, total - i)
            for i in range(3, total // 2 + 1, 2)
            if (total - i) % 2 == 1 and i <= total - i
        ]
        for (m, l), (i, j) in zip(odd_pairs, odd_pairs[1:]):
            # (i, j) is strictly more balanced than (m, l)
            assert cycle_count(m) * cycle_count(l) < cycle_count(i) * cycle_count(j)


def test_doubling_identity_small():
    for n in range(3, 400):
        lhs, rhs = 2 * double_cycle_max(n), double_cycle_max(n + 1)
        if n % 2 == 1:
            assert lhs == rhs
        else:
            assert lhs < rhs


def test_closed_form_count_families():
    cases = [
        (path(4), 16),
        (windmill(7, 2), 144),
        (parallel_paths([4, 2, 1]), 60),
        (double_cycle(9, 3, 3), 576),
        (wedge(cycle(5), cycle(3), 0, 0), 180),
        (wedge(parallel_paths([2, 2, 2]), path(2), 3, 0), 40),
    ]
    # members at the family cap: a recursive block split or one that loses
    # a vertex fails here
    for kind, params in (("tree", (100002,)), ("cycle", (100002,)), ("windmill", (100001, 50000))):
        spec = FamilySpec(kind, params)
        cases.append((spec.graph(), spec.count()))
    for g, want in cases:
        assert closed_form_count(g) == want


def test_closed_form_count_unknown_block():
    k4 = Graph(4, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
    assert closed_form_count(k4) is None
    # the last two have m >= n - 1 and a closed form for every block, so
    # only the block split can notice that they are disconnected
    two_triangles = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    triangle_edge_isolated = Graph(5, ((0, 1), (0, 2), (1, 2), (0, 3)))
    for g in (Graph(4, ((0, 1), (2, 3))), two_triangles, triangle_edge_isolated):
        with pytest.raises(ValueError, match="connected"):
            closed_form_count(g)


def test_family_spec_counts():
    assert FamilySpec.parse(["cycle", "7"]).count() == 140
    assert FamilySpec.parse(["windmill", "7", "3"]).count() == 216
    assert FamilySpec.parse(["paths", "4", "2", "2"]).count() == 32
    assert FamilySpec.parse(["theta", "2", "3"]).count() == 10
    assert FamilySpec.parse(["two-cycles", "7", "5", "3"]).count() == 180
    assert FamilySpec.parse(["cycle-path", "7", "5"]).count() == 120
    assert FamilySpec.parse(["tree", "6"]).count() == 32
    assert FamilySpec.parse(["max-bicyclic", "8"]).count() == 360
    assert FamilySpec("wedge-cycles", (5, 3, 2)).count() == 360
    assert FamilySpec("wedge-cycles", (2, 4)).count() == 12


def test_family_spec_graphs_agree_with_counts():
    for tokens in [
        ["cycle", "6"],
        ["tree", "5"],
        ["cycle-path", "6", "4"],
        ["two-cycles", "7", "3", "3"],
        ["paths", "3", "2", "2"],
        ["theta", "2", "3"],
        ["windmill", "7", "2"],
    ]:
        spec = FamilySpec.parse(tokens)
        assert facet_count(spec.graph()) == spec.count()
    spec = FamilySpec("wedge-cycles", (5, 3, 4))
    assert facet_count(spec.graph()) == spec.count()


def test_a_length_of_two_counts_as_a_pendant_edge():
    # the formula takes pendant edges as cycle lengths of 2: each doubles
    # the count and adds one vertex, as a pendant edge does
    for lengths, tail in [((5, 3), 1), ((7, 3), 4), ((4,), 2)]:
        g = wedge(FamilySpec("wedge-cycles", lengths).graph(), path(tail), 0, 0)
        spec = FamilySpec("wedge-cycles", lengths + (2,) * tail)
        assert facet_count(g) == spec.count() == FamilySpec("wedge-cycles", lengths).count() << tail
        assert g.n == 1 + sum(c - 1 for c in spec.params)
    assert FamilySpec("wedge-cycles", (7, 3, 2, 2, 2, 2)).count() == 13440


def test_paths_come_from_one_builder():
    # the tree family and the chain's start at e = n - 1 are path(n - 1)
    assert FamilySpec("tree", (1,)).graph() == Graph(1, ())
    assert FamilySpec("tree", (6,)).graph() == path(5) == default_initial(6, 5)
    assert path(5).edges == tuple((i, i + 1) for i in range(5))


def test_family_spec_errors():
    with pytest.raises(ValueError):
        FamilySpec.parse(["nonsense", "3"])
    with pytest.raises(ValueError):
        FamilySpec.parse(["cycle"])
    with pytest.raises(ValueError):
        FamilySpec.parse(["cycle", "3", "4"])
    with pytest.raises(MultigraphError):
        FamilySpec("wedge-cycles", (2, 4)).graph()
    with pytest.raises(MultigraphError):
        FamilySpec.parse(["paths", "2", "1", "1"]).graph()
