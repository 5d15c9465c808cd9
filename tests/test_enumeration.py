import itertools

import pytest
from hypothesis import given, strategies as st

from helpers import relabel
from sepfacets.enumeration import (
    GuardExceeded,
    canonical_form,
    canonical_graph,
    connected_graphs,
    trees,
)
from sepfacets.graph import Graph, is_connected


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, tuple(picks))


@given(labeled_graphs(), st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g) == canonical_form(relabel(g, perm))


@given(labeled_graphs())
def test_canonical_graph_is_idempotent(g):
    cg = canonical_graph(g)
    assert canonical_form(cg) == canonical_form(g)
    assert canonical_graph(cg) == cg


def test_canonical_form_separates_non_isomorphic():
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    p3 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    assert canonical_form(star) != canonical_form(p3)


def test_tree_class_counts():
    assert [len(trees(n)) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]


def _oracle_class_count(n, e):
    """Independent path: scan every labeled graph and deduplicate."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    seen = set()
    for sub in itertools.combinations(pairs, e):
        g = Graph(n, sub)
        if is_connected(g):
            seen.add(canonical_form(g))
    return len(seen)


@pytest.mark.parametrize("n", range(2, 6))
def test_connected_classes_match_labeled_scan(n):
    for e in range(n - 1, n * (n - 1) // 2 + 1):
        mine = list(connected_graphs(n, e))
        assert len(mine) == _oracle_class_count(n, e)
        assert len({canonical_form(g) for g in mine}) == len(mine)
        assert all(is_connected(g) and g.m == e and g.n == n for g in mine)


def test_small_class_counts_frozen():
    assert sum(1 for _ in connected_graphs(3, 3)) == 1
    assert sum(1 for _ in connected_graphs(4, 3)) == 2
    assert sum(1 for _ in connected_graphs(5, 6)) == 5
    total6 = sum(
        sum(1 for _ in connected_graphs(6, e)) for e in range(5, 16)
    )
    assert total6 == 112


def test_out_of_range_edges_yield_nothing():
    assert list(connected_graphs(4, 2)) == []
    assert list(connected_graphs(4, 7)) == []


def test_guard_refuses_large_n():
    with pytest.raises(GuardExceeded):
        list(connected_graphs(9, 9))
    with pytest.raises(GuardExceeded):
        list(connected_graphs(9, 9, guard=8))
