import math
from random import Random

import pytest
from hypothesis import given, strategies as st

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


def test_pascal_table_stays_bounded():
    cap = formulas.PASCAL_ROWS_MAX
    parallel_paths_count((cap, cap - 2, 2))  # fills the table up to the cap
    t = (5001, 4999, 1)
    assert parallel_paths_count(t) == _reference_paths(t)
    assert len(formulas._PASCAL) == cap + 1


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
    for g, want in cases:
        assert closed_form_count(g) == want


def test_closed_form_count_unknown_block():
    k4 = Graph(4, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
    assert closed_form_count(k4) is None
    with pytest.raises(ValueError):
        closed_form_count(Graph(4, ((0, 1), (2, 3))))


def test_family_spec_counts():
    assert FamilySpec.parse(["cycle", "7"]).count() == 140
    assert FamilySpec.parse(["windmill", "7", "3"]).count() == 216
    assert FamilySpec.parse(["paths", "4", "2", "2"]).count() == 32
    assert FamilySpec.parse(["theta", "2", "3"]).count() == 10
    assert FamilySpec.parse(["two-cycles", "7", "5", "3"]).count() == 180
    assert FamilySpec.parse(["cycle-path", "7", "5"]).count() == 120
    assert FamilySpec.parse(["tree", "6"]).count() == 32
    assert FamilySpec.parse(["max-bicyclic", "8"]).count() == 360
    assert FamilySpec("wedge-cycles", (5, 3), tail=1).count() == 360
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
    spec = FamilySpec("wedge-cycles", (5, 3), tail=1)
    assert facet_count(spec.graph()) == spec.count()


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
