from random import Random

import pytest

from helpers import (
    is_bipartite,
    random_connected_graph,
    reference_facet_count,
    reference_facet_labelings,
    reference_facet_subgraphs,
)
from sepfacets.enumeration import connected_graphs
from sepfacets.facets import (
    _contract_flat_edges,
    facet_count,
    facet_count_via_subgraphs,
    facet_functions,
    facet_subgraphs,
)
from sepfacets.formulas import cycle_count, parallel_paths_count, theta_count
from sepfacets.graph import (
    Graph,
    cycle,
    double_cycle,
    parallel_paths,
    path,
    theta,
    wedge,
    windmill,
)

# expected values below were produced by the brute-force oracle in
# helpers.py (full labeling scan) and frozen here
KNOWN_COUNTS = {
    "path(1)": (path(1), 2),
    "path(2)": (path(2), 4),
    "path(3)": (path(3), 8),
    "path(5)": (path(5), 32),
    "cycle(3)": (cycle(3), 6),
    "cycle(4)": (cycle(4), 6),
    "cycle(5)": (cycle(5), 30),
    "bowtie": (wedge(cycle(3), cycle(3), 0, 0), 36),
    "K_{2,3}": (theta(2, 3), 10),
    "diamond": (parallel_paths([2, 2, 1]), 12),
    "CB(4,2,2)": (parallel_paths([4, 2, 2]), 32),
    "CB(3,3,2)": (parallel_paths([3, 3, 2]), 126),
    "CB(4,2,1)": (parallel_paths([4, 2, 1]), 60),
    "C5 v C3": (wedge(cycle(5), cycle(3), 0, 0), 180),
    "G(7,3,3)": (double_cycle(7, 3, 3), 144),
    "G(7,5,3)": (double_cycle(7, 5, 3), 180),
    "WM(7,2)": (windmill(7, 2), 144),
    "WM(7,3)": (windmill(7, 3), 216),
    "star(5)": (windmill(5, 0), 16),
    "cycle(7)": (cycle(7), 140),
}


@pytest.mark.parametrize("name", sorted(KNOWN_COUNTS))
def test_known_counts_both_paths(name):
    g, want = KNOWN_COUNTS[name]
    assert facet_count(g) == want
    assert facet_count_via_subgraphs(g) == want


@pytest.mark.parametrize(
    "name", [n for n, (g, _) in sorted(KNOWN_COUNTS.items()) if g.n <= 6]
)
def test_known_counts_match_reference_scan(name):
    g, want = KNOWN_COUNTS[name]
    assert reference_facet_count(g) == want


def test_three_vertex_path_labelings():
    assert facet_functions(path(2)) == [(0, 1, 0), (0, 1, 2), (1, 0, 1), (2, 1, 0)]


def test_single_edge_labelings():
    assert facet_functions(path(1)) == [(0, 1), (1, 0)]


def test_triangle_has_six_labelings():
    assert len(facet_functions(cycle(3))) == 6


def test_enumeration_matches_reference_labelings():
    rng = Random(31)
    for _ in range(40):
        g = random_connected_graph(rng, max_n=5)
        assert facet_functions(g) == reference_facet_labelings(g)


def test_disconnected_input_rejected():
    with pytest.raises(ValueError):
        facet_count(Graph(4, ((0, 1), (2, 3))))
    with pytest.raises(ValueError):
        facet_count(Graph(5, ((0, 1), (1, 2), (1, 3))))  # vertex 4 is isolated
    with pytest.raises(ValueError):
        facet_count(Graph(2, ()))
    with pytest.raises(ValueError):
        facet_count(Graph(1, ()))
    with pytest.raises(ValueError):
        facet_subgraphs(Graph(4, ((0, 1), (2, 3))))
    with pytest.raises(ValueError):
        facet_count_via_subgraphs(Graph(4, ((0, 1), (2, 3))))


def test_too_few_edges_rejected_before_allocation(monkeypatch):
    from sepfacets import facets

    def no_allocation(*args):
        raise AssertionError("per-vertex structures built for a disconnected graph")

    monkeypatch.setattr(facets, "adjacency", no_allocation)
    monkeypatch.setattr(facets, "is_connected", no_allocation)
    huge = Graph(10**9, ((0, 1),))
    for count in (facet_count, facet_count_via_subgraphs):
        with pytest.raises(ValueError, match="connected"):
            count(huge)


def test_out_of_range_labeling_is_caught(monkeypatch):
    from sepfacets import facets

    # a labeling spanning 5 on 3 vertices cannot come from unit steps
    monkeypatch.setattr(facets, "_walk_facet_labelings", lambda g, on_leaf: on_leaf([0, 5, 1]))
    with pytest.raises(RuntimeError, match="n - 1"):
        facet_functions(path(2))


def test_negation_is_fixed_point_free_involution():
    rng = Random(5)
    for _ in range(30):
        g = random_connected_graph(rng, max_n=6)
        fs = facet_functions(g)
        assert len(fs) % 2 == 0
        seen = set(fs)
        for f in fs:
            neg = tuple(max(f) - x for x in f)  # renormalized negation
            assert neg in seen
            assert neg != f


def test_bipartite_graphs_use_only_unit_steps():
    for g in [cycle(4), cycle(6), theta(2, 3), path(4), parallel_paths([3, 3, 3])]:
        assert is_bipartite(g)
        for f in facet_functions(g):
            assert all(abs(f[u] - f[v]) == 1 for u, v in g.edges)


def test_facet_subgraph_examples():
    assert facet_subgraphs(cycle(4)) == [cycle(4).edges]
    subs = facet_subgraphs(cycle(3))
    assert len(subs) == 3
    assert all(len(s) == 2 for s in subs)
    # diamond: drop the cross edge, or one edge from each square side
    diamond = parallel_paths([2, 2, 1])
    assert len(facet_subgraphs(diamond)) == 5


def test_facet_subgraphs_ordered_by_edge_bitmask():
    g = parallel_paths([2, 2, 1])
    idx = {e: i for i, e in enumerate(g.edges)}
    keys = [sum(1 << idx[e] for e in sub) for sub in facet_subgraphs(g)]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_facet_functions_are_lexicographically_sorted():
    rng = Random(17)
    for _ in range(10):
        g = random_connected_graph(rng, max_n=6)
        fs = facet_functions(g)
        assert fs == sorted(fs)


def test_facet_subgraphs_match_reference_powerset():
    rng = Random(12)
    for _ in range(25):
        g = random_connected_graph(rng, max_n=5)
        assert set(facet_subgraphs(g)) == reference_facet_subgraphs(g)


def test_unit_edge_sets_are_exactly_the_facet_subgraphs():
    rng = Random(99)
    for _ in range(20):
        g = random_connected_graph(rng, max_n=5)
        subs = set(facet_subgraphs(g))
        seen = set()
        for f in facet_functions(g):
            ef = tuple((u, v) for u, v in g.edges if abs(f[u] - f[v]) == 1)
            assert ef in subs
            seen.add(ef)
        assert seen == subs


def test_counts_agree_on_random_graphs():
    rng = Random(2)
    for _ in range(60):
        g = random_connected_graph(rng, max_n=6)
        assert facet_count(g) == facet_count_via_subgraphs(g)


def test_wedge_multiplicativity_random_identification():
    rng = Random(8)
    for _ in range(25):
        g = random_connected_graph(rng, max_n=5)
        h = random_connected_graph(rng, max_n=5)
        u = rng.randrange(g.n)
        v = rng.randrange(h.n)
        assert facet_count(wedge(g, h, u, v)) == facet_count(g) * facet_count(h)


def test_labeling_values_stay_within_radius():
    for g in [cycle(7), windmill(7, 3), parallel_paths([4, 2, 1])]:
        for f in facet_functions(g):
            assert max(f) - min(f) <= g.n - 1


def test_three_paths_agree_on_every_class_up_to_seven_vertices():
    classes = [
        g
        for n in range(2, 8)
        for e in range(n - 1, n * (n - 1) // 2 + 1)
        for g in connected_graphs(n, e)
    ]
    assert len(classes) == 995
    for g in classes:
        assert facet_count(g) == len(facet_functions(g)) == facet_count_via_subgraphs(g), g


def test_count_matches_reference_scan_on_random_graphs():
    rng = Random(41)
    for _ in range(300):
        g = random_connected_graph(rng)
        assert facet_count(g) == reference_facet_count(g), g


@pytest.mark.parametrize(
    "g, want",
    [
        (windmill(31, 15), 6**15),
        (cycle(40), cycle_count(40)),
        (theta(8, 5), theta_count(8, 5)),
        (parallel_paths([7, 4, 3, 2]), parallel_paths_count([7, 4, 3, 2])),
    ],
    ids=["windmill(31,15)", "cycle(40)", "theta(8,5)", "paths(7,4,3,2)"],
)
def test_count_matches_closed_forms_on_large_families(g, want):
    assert facet_count(g) == want


def test_complete_graph_on_eight_vertices():
    k8 = Graph(8, tuple((u, v) for u in range(8) for v in range(u + 1, 8)))
    assert facet_count(k8) == 254


def test_contracting_a_non_facet_subgraph_raises():
    # keeping only one triangle edge contracts its endpoints together
    with pytest.raises(RuntimeError):
        _contract_flat_edges(cycle(3), ((0, 1),))
