import hashlib
import math
from collections import Counter
from random import Random

import pytest

from helpers import (
    facet_subgraphs,
    is_bipartite,
    neighbor_masks,
    random_connected_graph,
    reference_contraction,
    reference_facet_count,
    reference_facet_labelings,
    reference_facet_subgraphs,
    reference_frontier_order,
    reference_unit_count,
    relabel,
)
from sepfacets.enumeration import connected_graphs
from sepfacets.facets import (
    _block_count_via_subgraphs,
    _contract,
    _count_all_unit_labelings,
    _frontier_order,
    _unit_count,
    facet_count,
    facet_count_via_subgraphs,
    facet_functions,
)
from sepfacets.formulas import (
    closed_form_count,
    cycle_count,
    parallel_paths_count,
    theta_count,
    tree_count,
    windmill_count,
)
from sepfacets.graph import (
    Graph,
    adjacency,
    cycle,
    double_cycle,
    parallel_paths,
    path,
    theta,
    wedge,
    windmill,
)
from sepfacets.sampler import ChainConfig, run_chain

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


# regression pins, taken from the union-find walk that listed labelings
# before the mask walk: a sha256 over repr(facet_functions(g)) per graph
FACET_FUNCTION_DIGESTS = {
    "995 classes": "1a02f5ef00ca092a9ca33f67e1db16bd2428c6af2a530885567c293898cad4b8",
    "windmill(13, 6)": "d3690c1d31da18a027d22e9ac3ae9db1ee345386828185d5e37aa103a174c5d0",
    "16-vertex tree": "de4b45b7ba7a50ec84e45dd2fe16152bf43b22c47d4bd68a79ced78d9ba79b7e",
}


def _seeded_tree(n: int, seed: int) -> Graph:
    rng = Random(seed)
    return Graph(n, tuple((rng.randrange(v), v) for v in range(1, n)))


def test_facet_functions_match_pinned_digests():
    classes = [
        g
        for n in range(2, 8)
        for e in range(n - 1, n * (n - 1) // 2 + 1)
        for g in connected_graphs(n, e)
    ]
    assert len(classes) == 995
    groups = {"995 classes": classes, "windmill(13, 6)": [windmill(13, 6)], "16-vertex tree": [_seeded_tree(16, 16)]}
    for name, graphs in groups.items():
        h = hashlib.sha256()
        for g in graphs:
            h.update(repr(facet_functions(g)).encode())
        assert h.hexdigest() == FACET_FUNCTION_DIGESTS[name], name
    assert len(facet_functions(windmill(13, 6))) == windmill_count(13, 6) == 46656
    assert len(facet_functions(_seeded_tree(16, 16))) == 2**15


def test_disconnected_input_rejected():
    with pytest.raises(ValueError):
        facet_count(Graph(4, ((0, 1), (2, 3))))
    with pytest.raises(ValueError):
        facet_count(Graph(5, ((0, 1), (1, 2), (1, 3))))  # vertex 4 is isolated
    with pytest.raises(ValueError):
        facet_count(Graph(2, ()))
    with pytest.raises(ValueError):
        facet_count(Graph(0, ()))
    with pytest.raises(ValueError):
        facet_subgraphs(Graph(4, ((0, 1), (2, 3))))
    with pytest.raises(ValueError):
        facet_count_via_subgraphs(Graph(4, ((0, 1), (2, 3))))


def test_one_vertex_has_one_facet():
    # the empty edge set spans and connects one vertex: one labeling, 2^0,
    # as tree_count(1) says
    g = Graph(1, ())
    assert facet_count(g) == facet_count_via_subgraphs(g) == tree_count(1) == 1
    assert facet_functions(g) == [(0,)]
    assert facet_subgraphs(g) == [()]


# each passes the edge-count guard (m >= n - 1), and each part folds to a
# single vertex in facet_count, so the parts left over must be noticed
TWO_TRIANGLES = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
TRIANGLE_EDGE_ISOLATED = Graph(5, ((0, 1), (0, 2), (1, 2), (0, 3)))
PATH_AND_CYCLE = Graph(7, ((0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)))
TWO_K4 = Graph(8, tuple((u + k, v + k) for k in (0, 4) for u in range(4) for v in range(u + 1, 4)))


def test_disconnected_input_with_enough_edges_rejected():
    for g in (TWO_TRIANGLES, TRIANGLE_EDGE_ISOLATED, PATH_AND_CYCLE):
        for count in (facet_count, facet_count_via_subgraphs, facet_functions):
            with pytest.raises(ValueError, match="connected"):
                count(g)
    for g in (TWO_TRIANGLES, TRIANGLE_EDGE_ISOLATED, PATH_AND_CYCLE, TWO_K4):
        with pytest.raises(ValueError, match="^graph must be connected$"):
            facet_count(g)


def test_frontier_count_uses_no_block_split_or_bfs(monkeypatch):
    # the two counters stay independent: facet_count orders its own search
    from sepfacets import facets

    def forbidden(*args):
        raise AssertionError("facet_count reached the second path's helpers")

    for name in ("biconnected_blocks", "bfs_order", "_walk_two_colourings", "_contract", "_unit_count",
                 "_count_all_unit_labelings"):
        monkeypatch.setattr(facets, name, forbidden)
    assert facet_count(windmill(7, 2)) == windmill_count(7, 2)
    assert facet_count(theta(3, 3)) == theta_count(3, 3)
    assert facet_count(cycle(40)) == cycle_count(40)
    assert facet_count(parallel_paths([7, 4, 3, 2])) == parallel_paths_count([7, 4, 3, 2])
    assert facet_count(windmill(31, 15)) == windmill_count(31, 15)
    for g in (TWO_TRIANGLES, TRIANGLE_EDGE_ISOLATED, PATH_AND_CYCLE, TWO_K4):
        with pytest.raises(ValueError, match="^graph must be connected$"):
            facet_count(g)


def test_too_few_edges_rejected_before_allocation(monkeypatch):
    from sepfacets import facets

    def no_allocation(*args):
        raise AssertionError("per-vertex structures built for a disconnected graph")

    monkeypatch.setattr(facets, "adjacency", no_allocation)
    monkeypatch.setattr(facets, "biconnected_blocks", no_allocation)
    huge = Graph(10**9, ((0, 1),))
    for count in (facet_count, facet_count_via_subgraphs, facet_functions):
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
    graphs = [random_connected_graph(rng, max_n=5) for _ in range(25)]
    sparse = [g for n in range(3, 10) for e in (n - 1, n, n + 1) for g in connected_graphs(n, e, guard=None)]
    assert len(sparse) == 1601
    for g in graphs + sparse:
        subs = facet_subgraphs(g)
        assert set(subs) == reference_facet_subgraphs(g), g
        idx = {e: i for i, e in enumerate(g.edges)}
        keys = [sum(1 << idx[e] for e in sub) for sub in subs]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), g


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


def test_frontier_order_matches_full_scan():
    graphs = [
        g
        for n in range(1, 9)
        for e in range(n - 1, n * (n - 1) // 2 + 1)
        for g in connected_graphs(n, e)
    ]
    assert len(graphs) == 12113
    rng = Random(15)
    for _ in range(200):  # random trees with random extra edges, n up to 80
        n = rng.randint(2, 80)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, n))}
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(relabel(Graph(n, tuple(edges)), perm))
    graphs += [random_connected_graph(rng, max_n=14) for _ in range(200)]
    for g in graphs:
        adj = adjacency(g)
        assert _frontier_order(adj) == reference_frontier_order(adj), g


def test_frontier_order_matches_full_scan_around_hubs():
    # stars and windmills have one hub whose placed-neighbor counts move on
    # every step; the seeded graphs have several hubs sharing their leaves
    graphs = [windmill(n, r) for n in range(1, 302, 5) for r in {0, (n - 1) // 4, (n - 1) // 2}]
    rng = Random(9)
    for _ in range(60):
        hubs = rng.randint(2, 6)
        n = hubs + rng.randint(2, 120)
        edges = {(h, h + 1) for h in range(hubs - 1)}
        for v in range(hubs, n):
            edges |= {(h, v) for h in rng.sample(range(hubs), rng.randint(1, 2))}
        for _ in range(rng.randint(0, n // 8)):
            edges.add(tuple(sorted(rng.sample(range(hubs, n), 2))))
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(relabel(Graph(n, tuple(edges)), perm))
    for g in graphs:
        adj = adjacency(g)
        assert _frontier_order(adj) == reference_frontier_order(adj), g


def test_star_counts_at_4001_vertices():
    # around a 4000-leaf hub, where the order used to cost quadratic time;
    # the count folds the leaves away, so the order is run on its own too
    g = windmill(4001, 0)
    assert facet_count(g) == 2**4000
    order = _frontier_order(adjacency(g))
    assert order[0] == 0 and sorted(order) == list(range(4001))


def test_star_counts_at_8001_vertices():
    # the leaves fold one by one into a power of 2, kept as one shift
    assert facet_count(windmill(8001, 0)) == 2**8000


def test_count_matches_reference_scan_on_random_graphs():
    rng = Random(41)
    for _ in range(300):
        g = random_connected_graph(rng)
        assert facet_count(g) == reference_facet_count(g), g


K4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _grown_graph(rng: Random, n: int) -> Graph:
    """A connected graph on n vertices grown from one vertex, one edge or
    K4 by the shapes that facet_count folds: subdivided edges, pendant
    vertices, cycles hanging off one vertex and chains between two."""
    size, edges = rng.choice([(1, []), (2, [(0, 1)])] + [(4, list(K4))] * (n >= 4))
    while size < n:
        kind = rng.choice(["subdivide", "pendant", "cycle", "chain"])
        inner = rng.randint(1, n - size)
        if kind == "subdivide" and edges:
            u, w = edges.pop(rng.randrange(len(edges)))
            edges += [(u, size), (size, w)]
            size += 1
        elif kind == "pendant":
            edges.append((rng.randrange(size), size))
            size += 1
        elif kind in ("cycle", "chain") and inner >= (2 if kind == "cycle" else 1) and size >= 1 + (kind == "chain"):
            ends = [rng.randrange(size)] * 2 if kind == "cycle" else rng.sample(range(size), 2)
            walk = [ends[0], *range(size, size + inner), ends[1]]
            edges += zip(walk, walk[1:])
            size += inner
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, tuple(edges)), perm)


def _fold_spies(monkeypatch) -> Counter:
    """Count the folding rules that facet_count applies."""
    from sepfacets import facets

    fired: Counter = Counter()

    def spy(name, kind):
        fn = getattr(facets, name)

        def wrapped(*args):
            fired[kind(*args)] += 1
            return fn(*args)

        monkeypatch.setattr(facets, name, wrapped)

    spy("_series", lambda a, b: "chain series" if isinstance(a, int) and isinstance(b, int) else "weighted series")
    spy("_parallel", lambda a, b: "parallel")
    spy("cycle_count", lambda m: "chain cycle")
    spy("_frontier_order", lambda adj: "core")
    return fired


def test_count_matches_reference_scan_on_grown_graphs(monkeypatch):
    # the folding rules checked against the labeling scan, which shares
    # nothing with them; K4 with edge 01 subdivided and a chain parallel to
    # edge 23 folds to a core with plain, chain and weighted edges; two
    # triangles on edges 01 and 03, joined by edge 13, fold through
    # weighted edges in series
    from sepfacets.facets import _fold

    mixed = Graph(6, K4[1:] + ((0, 4), (4, 1), (2, 5), (5, 3)))
    _, nb = _fold(mixed)
    assert sorted(map(str, nb[0].values())) == ["1", "1", "2"]
    assert isinstance(nb[2][3], tuple)
    fired = _fold_spies(monkeypatch)
    rng = Random(17)
    two_triangles = Graph(5, ((0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (0, 4), (1, 3)))
    graphs = [mixed, two_triangles] + [_grown_graph(rng, rng.randint(3, 6)) for _ in range(60)]
    for g in graphs:
        assert facet_count(g) == reference_facet_count(g), g
    assert set(fired) == {"chain series", "weighted series", "parallel", "chain cycle", "core"}


def test_counts_agree_on_grown_graphs(monkeypatch):
    # larger graphs of the same shapes, against the second path
    fired = _fold_spies(monkeypatch)
    rng = Random(23)
    for _ in range(150):
        g = _grown_graph(rng, rng.randint(5, 14))
        assert facet_count(g) == facet_count_via_subgraphs(g), g
    assert set(fired) == {"chain series", "weighted series", "parallel", "chain cycle", "core"}


def test_core_count_takes_a_kernel_straight_from_chain_lengths():
    # K4, the one j = 3 kernel that does not fold: each edge a chain of 1..4
    # plain edges, one of them with a parallel chain merged by _parallel;
    # counted from that 4-vertex map, against the second path on the graph
    # built out in full
    from sepfacets.facets import _core_count, _parallel

    rng = Random(29)
    for _ in range(6):
        lengths = [rng.randint(1, 4) for _ in K4]
        doubled, extra = rng.randrange(len(K4)), rng.randint(2, 4)
        edges: list[dict] = [{} for _ in range(4)]
        for (u, w), length in zip(K4, lengths):
            edges[u][w] = edges[w][u] = length
        u, w = K4[doubled]
        edges[u][w] = edges[w][u] = _parallel(lengths[doubled], extra)
        built, n = [], 4
        for (u, w), length in [*zip(K4, lengths), (K4[doubled], extra)]:
            walk = [u, *range(n, n + length - 1), w]
            built += zip(walk, walk[1:])
            n += length - 1
        count = _core_count(edges, _frontier_order([list(e) for e in edges]))
        assert count == facet_count_via_subgraphs(Graph(n, tuple(built))), (lengths, doubled, extra)


def test_counts_agree_on_sparse_classes():
    # with at most two independent cycles there is no K4 minor, so each
    # class folds to one vertex and only the second path searches
    from sepfacets.facets import _fold

    sparse = [g for n in range(3, 10) for e in (n - 1, n, n + 1) for g in connected_graphs(n, e, guard=None)]
    assert len(sparse) == 1601
    for g in sparse:
        assert sum(ends is not None for ends in _fold(g)[1]) == 1, g
        c = facet_count(g)
        assert c == facet_count_via_subgraphs(g), g
        closed = closed_form_count(g)
        assert closed is None or closed == c, g


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


def test_second_path_checks_chain_states_at_21_vertices():
    # records 2-4 of a seeded (21, 30) chain: each has about 10^3 facet
    # subgraphs but a count above 2.9 * 10^6; the windmill start is checked
    # in test_second_path_counts_windmills_block_by_block
    cfg = ChainConfig.for_samples(21, 30, 4, seed=7, burn_in=0, initial=windmill(21, 10))
    records = list(run_chain(cfg))[1:]
    assert [r.count for r in records] == [3096096, 2916096, 3720384]
    for r in records:
        assert facet_count_via_subgraphs(r.graph) == r.count, r.graph  # r.count is facet_count
        closed = closed_form_count(r.graph)
        assert closed is None or closed == r.count, r.graph


def test_second_path_checks_chain_states_at_31_vertices():
    # records 2-4 of the seeded (31, 45) chain: one block of 27-29 vertices
    # each, with 1.2 * 10^5 to 3.1 * 10^5 facet subgraphs
    cfg = ChainConfig.for_samples(31, 45, 4, seed=7, burn_in=0, initial=windmill(31, 15))
    graphs = [r.graph for r in list(run_chain(cfg))[1:]]
    for g, want in zip(graphs, [6631759872, 8990548992, 5359842960], strict=True):
        assert facet_count(g) == facet_count_via_subgraphs(g) == want, g


@pytest.mark.parametrize("n, r", [(21, 10), (31, 15), (61, 30)])
def test_second_path_counts_windmills_block_by_block(n, r):
    # a walk over the whole graph would reach 3^r colourings; one walk per
    # triangle reaches 3r
    assert facet_count_via_subgraphs(windmill(n, r)) == windmill_count(n, r)


def test_second_path_walks_each_block_once(monkeypatch):
    from sepfacets import facets

    walk = facets._walk_two_colourings
    leaves = []

    def counting_walk(nb, on_leaf):
        def leaf(ones):
            leaves.append(len(nb))
            on_leaf(ones)

        walk(nb, leaf)

    monkeypatch.setattr(facets, "_walk_two_colourings", counting_walk)
    # C5 on 0..4 and C7 on 5..11, joined by the bridge (0, 5)
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
    g = Graph(12, tuple(edges) + ((0, 5),))
    want = 2 * 5 * math.comb(4, 2) * 7 * math.comb(6, 3)
    assert facet_count_via_subgraphs(g) == want
    assert sorted(leaves) == [5] * 5 + [7] * 7  # 5 + 7 leaves, not 5 * 7
    assert facet_count(g) == closed_form_count(g) == want


def test_mask_contraction_matches_union_find_reference():
    # every colouring with vertex 0 coloured 0, walk leaf or not: the parts
    # and unit edges must match the union-find's up to relabelling
    rng = Random(19)
    graphs = [random_connected_graph(rng, max_n=8) for _ in range(40)]
    graphs += [g for n in range(2, 8) for e in range(n - 1, n * (n - 1) // 2 + 1) for g in connected_graphs(n, e)]
    assert len(graphs) == 40 + 995
    for g in graphs:
        nb = neighbor_masks(g.n, g.edges)
        for ones in range(0, 1 << g.n, 2):
            parts, unit = _contract(nb, ones)
            sets = [frozenset(v for v in range(g.n) if part >> v & 1) for part in parts]
            want_parts, want_unit = reference_contraction(g.n, g.edges, ones)
            assert len(parts) == len(want_parts) and set(sets) == want_parts, (g, ones)
            assert all(a < b for a, b in unit) and len(set(unit)) == len(unit) == len(want_unit), (g, ones)
            assert {frozenset((sets[a], sets[b])) for a, b in unit} == want_unit, (g, ones)
    with pytest.raises(ValueError, match="^graph must be connected$"):
        _block_count_via_subgraphs(6, list(TWO_TRIANGLES.edges))


UNIT_STEP_GRAPHS = {
    "path(1)": path(1),
    "path(6)": path(6),
    "star(6)": windmill(7, 0),
    "caterpillar": Graph(7, ((0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (2, 6))),
    "cycle(4)": cycle(4),
    "cycle(8)": cycle(8),
    "cycle(3)": cycle(3),
    "cycle(7)": cycle(7),
    "C4 v C6": wedge(cycle(4), cycle(6), 0, 0),
    "C4 v C5": wedge(cycle(4), cycle(5), 0, 0),
    "theta(3, 3)": theta(3, 3),
    "paths(4, 2, 2)": parallel_paths([4, 2, 2]),
    "K_{2,3}": theta(2, 3),
    "K4": Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "C6 + pendant": Graph(7, tuple(cycle(6).edges) + ((2, 6),)),
    "K_{2,3} + tail": Graph(7, tuple(theta(2, 3).edges) + ((4, 5), (5, 6))),
}


@pytest.mark.parametrize("name", sorted(UNIT_STEP_GRAPHS))
def test_unit_step_kernel_matches_reference_scan(name):
    g = UNIT_STEP_GRAPHS[name]
    want = reference_unit_count(g.n, g.edges)
    assert _count_all_unit_labelings(g.n, g.edges) == want
    cache = {}
    assert _unit_count(g.n, set(g.edges), cache) == want
    assert _unit_count(g.n, set(g.edges), cache) == want  # from the cache, if it used one


def test_unit_step_kernel_closed_values():
    assert reference_unit_count(8, cycle(8).edges) == math.comb(8, 4)
    for name in ("cycle(3)", "cycle(7)", "C4 v C5", "K4"):  # an odd cycle admits no unit-step labeling
        assert reference_unit_count(UNIT_STEP_GRAPHS[name].n, UNIT_STEP_GRAPHS[name].edges) == 0
    assert reference_unit_count(7, UNIT_STEP_GRAPHS["caterpillar"].edges) == 2**6
    # a bipartite graph has no flat edge, so every facet is a unit-step labeling
    assert reference_unit_count(5, theta(2, 3).edges) == theta_count(2, 3) == 10


def test_unit_step_kernel_matches_reference_scan_on_random_graphs():
    # a random tree plus up to four edges, for half the graphs only edges
    # that keep it bipartite: dense random graphs almost all hold an odd
    # cycle and count 0
    rng = Random(18)
    nonzero = 0
    for _ in range(100):
        n = rng.randint(2, 8)
        side = [0] * n
        edges = set()
        for v in range(1, n):
            u = rng.randrange(v)
            side[v] = 1 - side[u]
            edges.add((u, v))
        bipartite = rng.random() < 0.5
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in edges and (side[u] != side[v] or not bipartite)
        ]
        edges |= set(rng.sample(pairs, min(len(pairs), rng.randint(0, 4))))
        want = reference_unit_count(n, edges)
        assert _count_all_unit_labelings(n, sorted(edges)) == want, (n, edges)
        assert _unit_count(n, edges, {}) == want, (n, edges)
        nonzero += want > 0
    assert nonzero >= 50


def test_unit_step_kernel_matches_reference_scan_on_every_class_up_to_seven_vertices():
    # each class as enumerated and reversed, so the DP meets other orders
    classes = [g for n in range(2, 8) for e in range(n - 1, n * (n - 1) // 2 + 1) for g in connected_graphs(n, e)]
    for g in classes:
        for h in (g, relabel(g, list(range(g.n))[::-1])):
            want = reference_unit_count(h.n, h.edges)
            assert _count_all_unit_labelings(h.n, h.edges) == want, h
            assert _unit_count(h.n, set(h.edges), {}) == want, h


def test_unit_count_branches_fire_and_the_cache_stays_local(monkeypatch):
    from types import SimpleNamespace

    from sepfacets import facets

    real_count, real_dp = facets._unit_count, facets._count_all_unit_labelings
    fired = Counter()

    def dp(k, edges):
        fired["miss"] += 1
        return real_dp(k, edges)

    def comb(a, b):
        fired["comb"] += 1
        return math.comb(a, b)

    def unit_count(k, unit, cache):
        before, misses, combs = len(cache), fired["miss"], fired["comb"]
        got = real_count(k, unit, cache)
        missed, closed = fired["miss"] - misses, fired["comb"] - combs
        degree = Counter(v for e in unit for v in e)
        if len(unit) == k - 1:
            branch = "tree"
        elif closed:
            branch = "cycle"
        else:
            branch = "miss" if missed else "hit"
        if len(unit) >= k and 1 in degree.values():
            fired["peel"] += 1
        fired[branch + " calls"] += 1
        assert len(cache) == before + (branch == "miss"), branch
        assert missed == (branch == "miss") and closed == (branch == "cycle"), branch
        assert all(type(key) is tuple and len(key) == 2 and all(type(x) is int for x in key) for key in cache)
        return got

    monkeypatch.setattr(facets, "_count_all_unit_labelings", dp)
    monkeypatch.setattr(facets, "_unit_count", unit_count)
    monkeypatch.setattr(facets, "math", SimpleNamespace(comb=comb))
    sparse = [g for n in range(3, 10) for e in (n - 1, n, n + 1) for g in connected_graphs(n, e, guard=None)]
    for g in sparse:
        facet_count_via_subgraphs(g)
    cfg = ChainConfig.for_samples(21, 30, 2, seed=7, burn_in=0, initial=windmill(21, 10))
    record = list(run_chain(cfg))[1].graph
    dicts = {name: len(v) for name, v in vars(facets).items() if isinstance(v, dict)}
    misses = fired["miss"]
    assert facet_count_via_subgraphs(record) == 3096096
    first = fired["miss"] - misses
    assert first > 0
    assert facet_count_via_subgraphs(record) == 3096096
    assert fired["miss"] - misses == 2 * first  # the second call starts from an empty cache
    assert {name: len(v) for name, v in vars(facets).items() if isinstance(v, dict)} == dicts
    for branch in ("tree calls", "peel", "cycle calls", "hit calls", "miss calls"):
        assert fired[branch] > 0, (branch, fired)


# facet_count_via_subgraphs on 50 seeded sparse classes (Random(18).sample
# of the 1601), as facet_count gives them
SAMPLED_SPARSE_COUNTS = [
    288, 96, 576, 384, 384, 288, 192, 144, 576, 288, 288, 432, 480, 576, 256, 72, 256,
    288, 192, 384, 144, 120, 432, 192, 192, 80, 240, 192, 384, 192, 128, 288, 192, 240,
    576, 144, 288, 384, 256, 30, 480, 432, 80, 480, 384, 432, 384, 384, 432, 400,
]


def test_second_path_calls_nothing_from_the_first(monkeypatch):
    from sepfacets import facets

    sparse = [g for n in range(3, 10) for e in (n - 1, n, n + 1) for g in connected_graphs(n, e, guard=None)]
    cfg = ChainConfig.for_samples(21, 30, 4, seed=7, burn_in=0, initial=windmill(21, 10))
    graphs = Random(18).sample(sparse, 50) + [r.graph for r in list(run_chain(cfg))[1:]] + [windmill(31, 15)]

    def forbidden(*args):
        raise AssertionError("the second path reached the first path's code")

    for name in ("facet_count", "_fold", "_weights", "_frontier_order", "_core_count", "_binom_slice",
                 "cycle_count", "_walk_facet_labelings"):
        monkeypatch.setattr(facets, name, forbidden)
    counts = [facet_count_via_subgraphs(g) for g in graphs]
    assert counts == SAMPLED_SPARSE_COUNTS + [3096096, 2916096, 3720384, 6**15]


def test_third_path_calls_nothing_from_the_counters(monkeypatch):
    from sepfacets import facets

    small = [g for n in range(2, 6) for e in range(n - 1, n * (n - 1) // 2 + 1) for g in connected_graphs(n, e)]
    six = [g for e in range(5, 16) for g in connected_graphs(6, e)]
    graphs = small + Random(23).sample(six, 4)

    def forbidden(*args):
        raise AssertionError("facet_functions reached a counting path's code")

    for name in ("_walk_two_colourings", "_contract", "_unit_count", "_count_all_unit_labelings",
                 "_fold", "_frontier_order", "_core_count", "facet_count"):
        monkeypatch.setattr(facets, name, forbidden)
    for g in graphs:
        assert facet_functions(g) == reference_facet_labelings(g), g
    assert len(facet_functions(windmill(13, 6))) == windmill_count(13, 6)
