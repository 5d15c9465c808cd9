import pickle
from random import Random

import pytest
from hypothesis import given, strategies as st

from helpers import is_bipartite, reference_blocks, two_coloring
from sepfacets.conjectures import ConjectureReport
from sepfacets.enumeration import connected_graphs
from sepfacets.formulas import FamilySpec
from sepfacets.graph import (
    Graph,
    MultigraphError,
    ParseError,
    adjacency,
    bfs_order,
    biconnected_blocks,
    cycle,
    cycle_with_tail,
    double_cycle,
    graph_from_json,
    graph_to_json,
    is_connected,
    parallel_paths,
    parse_graph,
    path,
    path_lengths,
    serialize_graph,
    theta,
    wedge,
    windmill,
)
from sepfacets.sampler import ChainConfig, SampleRecord


def test_graph_canonicalizes_edges():
    g = Graph(3, ((2, 1), (0, 1)))
    assert g.edges == ((0, 1), (1, 2))
    assert g == Graph(3, ((1, 0), (1, 2)))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_cycle_shapes():
    tri = cycle(3)
    assert tri.n == 3 and tri.m == 3
    assert tri.edges == ((0, 1), (0, 2), (1, 2))
    c5 = cycle(5)
    assert c5.n == c5.m == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    assert is_connected(c5)
    assert not is_bipartite(c5)
    assert is_bipartite(cycle(4))
    with pytest.raises(ValueError):
        cycle(2)


def test_path_shapes():
    assert path(1).edges == ((0, 1),)
    p2 = path(2)
    assert p2.n == 3 and p2.m == 2
    assert path(4).n == 5 and path(4).m == 4
    with pytest.raises(ValueError):
        path(0)


def test_wedge_counts_and_errors():
    bowtie = wedge(cycle(3), cycle(3), 0, 0)
    assert bowtie.n == 5 and bowtie.m == 6
    joined = wedge(path(1), path(1), 1, 0)
    assert joined.n == 3 and joined.m == 2
    g = wedge(cycle(5), cycle(3), 2, 1)
    assert g.n == 7 and g.m == 8
    with pytest.raises(ValueError):
        wedge(cycle(3), cycle(3), 5, 0)
    with pytest.raises(ValueError):
        wedge(cycle(3), cycle(3), 0, -1)


@given(
    st.integers(min_value=3, max_value=7),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_wedge_bookkeeping_law(m, k, data):
    g, h = cycle(m), path(k)
    u = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    v = data.draw(st.integers(min_value=0, max_value=h.n - 1))
    joined = wedge(g, h, u, v)
    assert joined.n == g.n + h.n - 1
    assert joined.m == g.m + h.m


def test_cycle_with_tail():
    g = cycle_with_tail(7, 5)
    assert g.n == 7 and g.m == 7
    assert cycle_with_tail(5, 5) == cycle(5)
    g = cycle_with_tail(5, 3)
    assert g.n == 5 and g.m == 5
    with pytest.raises(ValueError):
        cycle_with_tail(4, 5)


def test_double_cycle():
    g = double_cycle(7, 3, 3)
    assert g.n == 7 and g.m == 8
    g = double_cycle(7, 5, 3)
    assert g.n == 7 and g.m == 8
    g = double_cycle(9, 3, 3)
    assert g.n == 9 and g.m == 10
    with pytest.raises(ValueError):
        double_cycle(6, 5, 3)


def test_parallel_paths_bookkeeping():
    g = parallel_paths([4, 2, 2])
    assert g.n == 7 and g.m == 8
    hubs = [v for v in range(g.n) if g.degree(v) == 3]
    assert sorted(hubs) == [0, 1]
    k23 = parallel_paths([2, 2, 2])
    assert k23.n == 5 and k23.m == 6
    g = parallel_paths([3, 3, 2])
    assert g.n == 7 and g.m == 8
    with pytest.raises(MultigraphError):
        parallel_paths([2, 1, 1])
    with pytest.raises(ValueError):
        parallel_paths([3])


def test_theta_equals_parallel_paths():
    assert theta(2, 3) == parallel_paths([2, 2, 2])
    assert theta(3, 3) == parallel_paths([3, 3, 3])
    assert theta(3, 3).n == 8 and theta(3, 3).m == 9
    assert theta(2, 2).n == 4 and theta(2, 2).m == 4
    with pytest.raises(MultigraphError):
        theta(1, 3)


def test_windmill_shapes():
    g = windmill(7, 2)
    assert g.n == 7 and g.m == 8
    assert g.degree(0) == 6
    full = windmill(7, 3)
    assert full.m == 9
    star = windmill(5, 0)
    assert star.m == 4 and star.degree(0) == 4
    with pytest.raises(ValueError):
        windmill(7, 4)


def test_path_vector_sorts_and_validates():
    assert path_lengths((2, 4, 2)) == (4, 2, 2)
    with pytest.raises(ValueError, match="at least one"):
        path_lengths(())
    with pytest.raises(ValueError, match=r"got \(3, 0\)"):
        path_lengths((3, 0))


def test_connectivity_and_coloring():
    two_edges = Graph(4, ((0, 1), (2, 3)))
    assert not is_connected(two_edges)
    assert bfs_order(adjacency(two_edges)) == [0, 1]
    assert is_connected(Graph(1, ()))
    assert bfs_order(adjacency(Graph(1, ()))) == [0]
    assert is_connected(cycle(6))
    assert bfs_order(adjacency(cycle(6))) == [0, 1, 5, 2, 4, 3]
    assert is_bipartite(cycle(6))
    col = two_coloring(cycle(6))
    assert col is not None
    assert all(col[u] != col[v] for u, v in cycle(6).edges)
    assert two_coloring(cycle(5)) is None


def test_blocks_decomposition():
    bowtie = wedge(cycle(3), cycle(3), 0, 0)
    blocks = biconnected_blocks(bowtie)
    assert sorted(len(b) for b in blocks) == [3, 3]
    blocks = biconnected_blocks(path(3))
    assert sorted(len(b) for b in blocks) == [1, 1, 1]
    blocks = biconnected_blocks(windmill(7, 2))
    assert sorted(len(b) for b in blocks) == [1, 1, 3, 3]
    # every edge lands in exactly one block
    assert sorted(e for b in blocks for e in b) == sorted(windmill(7, 2).edges)
    assert biconnected_blocks(Graph(1, ())) == []


def test_blocks_reject_disconnected_graphs():
    # each part on its own splits into blocks; the search from vertex 0
    # must notice the vertices it never reached
    two_triangles = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    triangle_edge_isolated = Graph(5, ((0, 1), (0, 2), (1, 2), (0, 3)))
    for g in (two_triangles, triangle_edge_isolated, Graph(4, ((0, 1), (2, 3)))):
        with pytest.raises(ValueError, match="connected"):
            biconnected_blocks(g)


def _blocks_or_error(split, g: Graph):
    try:
        return sorted(split(g))
    except ValueError as err:
        return str(err)


def test_blocks_match_the_reference_split():
    # the single search from vertex 0 gives the blocks the reference split
    # gives, in some order, and the same error on every disconnected graph
    graphs = [g for n in range(1, 8) for e in range(n - 1, n * (n - 1) // 2 + 1)
              for g in connected_graphs(n, e, guard=None)]
    assert len(graphs) == 996
    rng = Random(20)
    for _ in range(400):
        n = rng.randint(2, 12)
        p = rng.choice((0.15, 0.25, 0.4))
        graphs.append(Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)))
    graphs += [
        Graph(2, ()),
        Graph(3, ((0, 1),)),  # an isolated vertex next to a tree
        Graph(4, ((0, 1), (2, 3))),  # a forest of two separate edges
        Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5))),
        Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))),
        Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (4, 5))),  # a pendant tree off the core, a stray edge
        Graph(7, ((0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6))),
    ]
    disconnected = 0
    for g in graphs:
        want = _blocks_or_error(reference_blocks, g)
        assert _blocks_or_error(biconnected_blocks, g) == want, g
        disconnected += want == "graph must be connected"
    assert disconnected > 100


def test_parse_basic():
    g = parse_graph("3\n0 1\n1 2\n")
    assert g == path(2)
    g = parse_graph("# comment\n3\n0 1  # trailing\n\n1 2")
    assert g == path(2)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_graph("2\n0 0\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_graph("2\n0 1\n0 1\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_graph("2\n0 5\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_graph("2\nnope\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_graph("")


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, tuple(picks))


@given(graphs())
def test_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g
    assert graph_from_json(graph_to_json(g)) == g


@given(graphs())
def test_serialization_is_canonical(g):
    # re-serializing a parsed graph reproduces the bytes exactly
    text = serialize_graph(g)
    assert serialize_graph(parse_graph(text)) == text


_C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


@pytest.mark.parametrize(
    "make, names, fields, other, text",
    [
        (lambda: Graph(2, ((1, 0),)), "n edges", (2, ((0, 1),)), Graph(3, ((0, 1),)),
         "Graph(n=2, edges=((0, 1),))"),
        (lambda: FamilySpec("wedge-cycles", (3, 5), 2), "kind params tail",
         ("wedge-cycles", (3, 5), 2), FamilySpec("wedge-cycles", (3, 5)),
         "FamilySpec(kind='wedge-cycles', params=(3, 5), tail=2)"),
        (lambda: ChainConfig(4, 4, 10, 2, 2, 7, _C4), "n e steps burn_in thin seed initial",
         (4, 4, 10, 2, 2, 7, _C4), ChainConfig(4, 4, 10, 2, 2, 8, _C4),
         "ChainConfig(n=4, e=4, steps=10, burn_in=2, thin=2, seed=7, "
         "initial=Graph(n=4, edges=((0, 1), (0, 3), (1, 2), (2, 3))))"),
        (lambda: SampleRecord(3, 6, Graph(3, ((0, 1), (1, 2)))), "step count graph",
         (3, 6, path(2)), SampleRecord(4, 6, path(2)),
         "SampleRecord(step=3, count=6, graph=Graph(n=3, edges=((0, 1), (1, 2))))"),
    ],
    ids=["Graph", "FamilySpec", "ChainConfig", "SampleRecord"],
)
def test_value_classes_keep_frozen_dataclass_semantics(make, names, fields, other, text):
    # equal by fields within one class only, hashed as the field tuple,
    # shown as name=value in field order, read-only, and picklable
    a, b = make(), make()
    assert a == b and a is not b and hash(a) == hash(b) == hash(fields)
    assert a != other and a != fields
    assert repr(a) == text
    for name in names.split():
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, name) for name in names.split()) == fields
    assert pickle.loads(pickle.dumps(a)) == a


def test_conjecture_report_is_mutable_and_json_copies_it():
    rep = ConjectureReport("fbounds", {"n": 8}, "verified", "70", ["(7, 1, 1)"])
    assert rep == ConjectureReport("fbounds", {"n": 8}, "verified", "70", ["(7, 1, 1)"])
    assert rep != ConjectureReport("fbounds", {"n": 8}, "verified", "70")
    with pytest.raises(TypeError):
        hash(rep)
    assert repr(rep) == ("ConjectureReport(id='fbounds', params={'n': 8}, status='verified', "
                         "max='70', witnesses=['(7, 1, 1)'], elapsed_ms=0)")
    out = rep.to_json()
    assert list(out) == ["id", "params", "status", "max", "witnesses", "elapsed_ms"]
    assert out == {"id": "fbounds", "params": {"n": 8}, "status": "verified", "max": "70",
                   "witnesses": ["(7, 1, 1)"], "elapsed_ms": 0}
    out["params"]["n"] = 9
    out["witnesses"].append("x")
    assert rep.params == {"n": 8} and rep.witnesses == ["(7, 1, 1)"]
    rep.status, rep.elapsed_ms = "counterexample", 5
    assert rep.to_json()["status"] == "counterexample" and rep.to_json()["elapsed_ms"] == 5
    # each report gets its own witness list
    fresh = ConjectureReport("nn1", {}, "verified", "0")
    fresh.witnesses.append("w")
    assert ConjectureReport("nn1", {}, "verified", "0").witnesses == []
