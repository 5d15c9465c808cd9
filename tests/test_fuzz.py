"""Fuzzing of graph input: whatever the text or JSON, parsing returns a
Graph or raises ParseError/ValueError, and `count --edges` exits 0 or 1
with no traceback.  Generated graphs stay small so every count is cheap."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from sepfacets.cli import main
from sepfacets.graph import Graph, ParseError, graph_from_json, parse_graph

small = st.integers(min_value=-2, max_value=9)
json_values = st.recursive(
    st.none() | st.booleans() | small | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
# JSON shaped like a graph, so that most examples reach the Graph checks
graph_like = st.fixed_dictionaries(
    {"n": small | json_values, "edges": st.lists(st.lists(small, max_size=3), max_size=8) | json_values}
)
# edge-list lines: a vertex count, then mostly "u v" lines with stray tokens
lines = st.lists(
    st.one_of(
        st.tuples(small, small).map(lambda e: f"{e[0]} {e[1]}"),
        st.sampled_from(["", "# note", "x", "1 2 3", "10000000000", "0 1 # edge"]),
    ),
    max_size=10,
)
# 10**5 vertices stays cheap even if the early connectivity refusal regresses
edge_lists = st.tuples(small | st.just(10**5), lines).map(
    lambda t: "\n".join([str(t[0]), *t[1]]) + "\n"
)


@given(st.text(max_size=60) | edge_lists)
def test_parse_graph_returns_graph_or_parse_error(text):
    try:
        assert isinstance(parse_graph(text), Graph)
    except ValueError:  # ParseError is a ValueError
        pass


@given(json_values | graph_like)
def test_graph_from_json_returns_graph_or_value_error(obj):
    try:
        assert isinstance(graph_from_json(obj), Graph)
    except (ParseError, ValueError):
        pass


@settings(max_examples=150, deadline=None)
@given(
    st.binary(max_size=40)
    | (st.text(max_size=60) | edge_lists).map(str.encode)
    | (json_values | graph_like).map(lambda o: json.dumps(o).encode())
)
def test_count_edges_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "g"
        f.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["count", "--edges", str(f)])
    assert rc in (0, 1)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) == (rc == 1)
