import json
import math
from collections import Counter
from random import Random

import pytest

from helpers import figure_csv, mask_graph, mcmc_step, records_jsonl, reference_chain, swap_class
from sepfacets.enumeration import GuardExceeded
from sepfacets.facets import facet_count
from sepfacets.graph import (
    Graph,
    cycle,
    graph_from_json,
    is_connected,
    parse_graph,
    serialize_graph,
    windmill,
)
from sepfacets.sampler import (
    MAX_CHAIN_VERTICES,
    ChainConfig,
    _ChainState,
    _start,
    default_initial,
    iter_states,
    run_chain,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(n=5, e=3, steps=10, burn_in=0, thin=1, seed=0)  # e < n-1
    with pytest.raises(ValueError):
        ChainConfig(n=5, e=11, steps=10, burn_in=0, thin=1, seed=0)
    with pytest.raises(ValueError):
        ChainConfig(n=5, e=6, steps=10, burn_in=11, thin=1, seed=0)
    with pytest.raises(ValueError):
        ChainConfig(n=5, e=6, steps=10, burn_in=0, thin=0, seed=0)
    with pytest.raises(ValueError):
        ChainConfig(n=5, e=6, steps=10, burn_in=0, thin=1, seed=0, initial=cycle(5))
    cfg = ChainConfig.for_samples(5, 6, 10, seed=1, burn_in=7, thin=3)
    assert cfg.steps == 7 + 9 * 3


def test_config_refuses_more_than_max_chain_vertices():
    # refused before the C(n, 2) pair table is built
    n = MAX_CHAIN_VERTICES + 1
    assert n == 1025
    with pytest.raises(GuardExceeded):
        ChainConfig(n=n, e=n - 1, steps=1, burn_in=0, thin=1, seed=0)
    with pytest.raises(GuardExceeded):
        ChainConfig.for_samples(n, n, 5, seed=0)


def test_default_initial_states():
    g = default_initial(5, 6)
    assert g.n == 5 and g.m == 6 and is_connected(g)
    assert set(cycle(5).edges) <= set(g.edges)  # cycle plus smallest chords
    t = default_initial(6, 5)
    assert t.m == 5 and is_connected(t)  # spanning path when no room for a cycle


def test_complete_graph_chain_is_frozen():
    tri = cycle(3)
    rng = Random(0)
    for _ in range(5):
        assert mcmc_step(tri, rng) == tri


def test_three_vertex_two_edge_moves_always_accept():
    g = Graph(3, ((0, 1), (1, 2)))
    rng = Random(4)
    seen = set()
    for _ in range(50):
        h = mcmc_step(g, rng)
        assert h != g  # the only non-edge always reconnects
        seen.add(h.edges)
    assert seen == {((0, 1), (0, 2)), ((0, 2), (1, 2))}


def test_steps_preserve_the_state_space():
    rng = Random(9)
    g = default_initial(6, 8)
    for _ in range(200):
        g = mcmc_step(g, rng)
        assert g.n == 6 and g.m == 8 and is_connected(g)


def test_moves_are_reversible():
    rng = Random(3)
    g = default_initial(6, 7)
    for _ in range(100):
        h = mcmc_step(g, rng)
        if h != g:
            # the inverse swap is a legal accepted move
            back_edge = set(g.edges) - set(h.edges)
            fwd_edge = set(h.edges) - set(g.edges)
            assert len(back_edge) == len(fwd_edge) == 1
            assert is_connected(g)
        g = h


@pytest.mark.parametrize("n, r", [(13, 6), (21, 10)])
def test_chain_accepts_exactly_the_connected_swaps(n, r):
    # the oracle redraws each proposal from a copy of the generator and
    # tests the swapped graph with graph.is_connected, not with the chain's
    # own search
    state = _ChainState(n, windmill(n, r))
    rng = Random(7)
    outcomes = Counter()
    for _ in range(3000):
        before = state.graph()
        twin = Random()
        twin.setstate(rng.getstate())
        e = state.pairs[state.edges[twin.randrange(len(state.edges))]]
        f = state.pairs[state.non_edges[twin.randrange(len(state.non_edges))]]
        swapped = Graph(n, tuple(set(before.edges) - {e} | {f}))
        want = is_connected(swapped)
        assert (state.advance(rng, 1) == 1) == want
        assert state.graph() == (swapped if want else before)
        outcomes[want] += 1
    assert outcomes[True] and outcomes[False]
    # the neighbour bitmasks, written only on accept, agree with the edge mask
    adj = [0] * n
    for i, (u, v) in enumerate(state.pairs):
        if state.mask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    assert state.adj == {1 << v: adj[v] for v in range(n)}


def test_chain_decides_each_kind_of_swap_as_is_connected_does():
    # each proposal is classified from the graph alone (bridges by the
    # reference block split, sides by is_connected), never by the kernel
    seen = Counter()
    for g, seed in [(default_initial(12, 11), 9), (windmill(13, 6), 7), (default_initial(8, 20), 6)]:
        state, rng = _ChainState(g.n, g), Random(seed)
        for _ in range(2000):
            before = state.graph()
            twin = Random()
            twin.setstate(rng.getstate())
            e = state.pairs[state.edges[twin.randrange(len(state.edges))]]
            f = state.pairs[state.non_edges[twin.randrange(len(state.non_edges))]]
            kind = swap_class(before, e, f)
            want = is_connected(Graph(g.n, tuple(set(before.edges) - {e} | {f})))
            assert (state.advance(rng, 1) == 1) == want, (kind, before, e, f)
            seen[kind, want] += 1
    assert set(seen) == {
        ("triangle", True),
        ("cycle", True),
        ("pendant, f on the leaf", True),
        ("pendant, f off the leaf", False),
        ("bridge, f crossing", True),
        ("bridge, f not crossing", False),
    }, seen


REFERENCE_CHAINS = [
    ChainConfig(5, 6, 20_000, 0, 1, 3),
    ChainConfig(13, 18, 30_000, 0, 1, 7, windmill(13, 6)),
    ChainConfig(21, 30, 20_000, 0, 1, 8),
    ChainConfig(12, 11, 20_000, 0, 1, 9),  # trees: every removed edge is a bridge
    ChainConfig(8, 20, 20_000, 0, 1, 6),
    ChainConfig(4, 6, 200, 0, 1, 5),  # complete: frozen
]


@pytest.mark.parametrize("cfg", REFERENCE_CHAINS, ids=lambda c: f"n{c.n}e{c.e}")
def test_advance_matches_the_reference_walk(cfg):
    want = list(reference_chain(cfg))
    assert [mask for _step, mask, _pairs in iter_states(cfg)] == want
    # the same masks when advance runs many proposals per call
    (state, rng), chunks = _start(cfg), Random(cfg.n)
    step = 0
    while step < cfg.steps:
        k = min(chunks.randint(0, 300), cfg.steps - step)
        moved = sum(a != b for a, b in zip(want[step : step + k], want[step + 1 : step + k + 1]))
        assert state.advance(rng, k) == moved
        step += k
        assert state.mask == want[step]
        assert state.graph() == mask_graph(cfg.n, want[step])


@pytest.mark.parametrize(
    "burn_in, thin, steps",
    [(0, 1, 30), (0, 50, 400), (17, 29, 1000), (400, 1, 420), (333, 100, 1200), (1000, 1000, 1000)],
)
def test_run_chain_records_match_the_reference_walk(burn_in, thin, steps):
    # 1000 and 1200 are not burn_in plus a multiple of thin for (17, 29) and (333, 100)
    cfg = ChainConfig(9, 12, steps, burn_in, thin, 4, windmill(9, 4))
    masks = list(reference_chain(cfg))
    want = [
        (step, mask_graph(9, masks[step]))
        for step in range(burn_in, steps + 1)
        if (step - burn_in) % thin == 0
    ]
    records = list(run_chain(cfg))
    assert [(r.step, r.graph) for r in records] == want
    assert all(r.count == facet_count(r.graph) for r in records)


def test_getrandbits_loop_is_randrange():
    # advance draws below m with getrandbits(m.bit_length()) until one falls
    # below m, which is how CPython's randrange(m) consumes the stream
    for m in range(1, 201):
        ours, theirs = Random(m), Random(m)
        k = m.bit_length()
        for _ in range(2000):
            r = ours.getrandbits(k)
            while r >= m:
                r = ours.getrandbits(k)
            assert r == theirs.randrange(m)


def test_bench_chain_accepts_199406_moves():
    # the windmill-sampling chain of the benchmark at seed 1: 159 calls of thin steps
    cfg = ChainConfig.for_samples(13, 18, 160, seed=1, burn_in=0, initial=windmill(13, 6))
    state, rng = _start(cfg)
    accepted = sum(state.advance(rng, cfg.thin) for _ in range(159))
    assert (cfg.steps, accepted) == (223236, 199406)


def test_proposal_pair_count_matches_degree_formula():
    # the move graph on the (n, e) slice is regular with degree e*(C(n,2)-e)
    n, e = 7, 9
    assert e * (math.comb(n, 2) - e) == 108
    cfg = ChainConfig(n=n, e=e, steps=40, burn_in=0, thin=1, seed=5)
    for _step, mask, pairs in iter_states(cfg):
        edges = bin(mask).count("1")
        assert edges == e
        assert e * (len(pairs) - e) == 108


def test_run_chain_emits_requested_samples():
    cfg = ChainConfig.for_samples(6, 7, 12, seed=10, burn_in=5, thin=4)
    records = list(run_chain(cfg))
    assert len(records) == 12
    assert [r.step for r in records] == [5 + 4 * i for i in range(12)]
    for r in records:
        assert r.graph.n == 6 and r.graph.m == 7
        assert r.count == facet_count(r.graph)
    # recount every record from its serialized graph
    assert all(facet_count(parse_graph(serialize_graph(r.graph))) == r.count for r in records)


def test_burn_in_zero_includes_initial_state():
    start = windmill(9, 4)
    cfg = ChainConfig.for_samples(9, 12, 3, seed=0, burn_in=0, thin=50, initial=start)
    records = list(run_chain(cfg))
    assert records[0].step == 0
    assert records[0].graph == start
    assert records[0].count == 6**4


def test_same_seed_identical_streams():
    cfg = ChainConfig.for_samples(6, 8, 8, seed=77, burn_in=3, thin=5)
    a = list(run_chain(cfg))
    b = list(run_chain(cfg))
    assert a == b
    c = list(run_chain(ChainConfig.for_samples(6, 8, 8, seed=78, burn_in=3, thin=5)))
    assert c != a


def test_figure_csv_scatter_and_histogram():
    cfg = ChainConfig.for_samples(7, 9, 6, seed=1, burn_in=0, thin=10,
                                  initial=windmill(7, 3))
    records = list(run_chain(cfg))
    csv = figure_csv(records, "scatter", cfg, deterministic=True)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("# rng=python-random-mt19937 seed=1")
    assert lines[1] == "n,log10_facets,ref_log10"
    first = lines[2].split(",")
    assert first[0] == "7"
    assert abs(float(first[1]) - math.log10(216)) < 1e-6
    assert abs(float(first[2]) - 3 * math.log10(6)) < 1e-6

    hist = figure_csv(records, "histogram", cfg, deterministic=True)
    rows = hist.strip().splitlines()
    assert rows[1] == "facet_count,frequency"
    counts = Counter(r.count for r in records)
    parsed = {int(a): int(b) for a, b in (row.split(",") for row in rows[2:])}
    assert parsed == counts  # empty buckets never appear

    with pytest.raises(ValueError):
        figure_csv(records, "pie", cfg)
    with pytest.raises(ValueError):
        figure_csv([], "scatter", cfg)


def test_timestamp_suppression():
    cfg = ChainConfig.for_samples(5, 6, 4, seed=3, burn_in=0, thin=2)
    records = list(run_chain(cfg))
    det = figure_csv(records, "scatter", cfg, deterministic=True)
    assert "generated=" not in det
    assert "generated=" in figure_csv(records, "scatter", cfg, deterministic=False)


def test_records_jsonl_round_trip():
    cfg = ChainConfig.for_samples(6, 7, 5, seed=2, burn_in=2, thin=3)
    records = list(run_chain(cfg))
    text = records_jsonl(records, cfg, deterministic=True)
    lines = text.strip().splitlines()
    meta = json.loads(lines[0])["meta"]
    assert meta["seed"] == 2 and meta["rng"] == "python-random-mt19937"
    for line, rec in zip(lines[1:], records):
        obj = json.loads(line)
        assert int(obj["count"]) == rec.count
        assert graph_from_json(obj["graph"]) == rec.graph


def test_windmill_start_never_beats_the_ceiling():
    cfg = ChainConfig.for_samples(
        7, 9, 50, seed=14, burn_in=0, thin=30, initial=windmill(7, 3)
    )
    records = list(run_chain(cfg))
    assert records[0].count == 216
    assert all(r.count <= 216 for r in records)


def test_quick_uniformity_on_tiny_slice():
    # (4, 4): 15 labeled connected states (4 cycles + ... verified below)
    import itertools

    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    states = [
        s
        for s in itertools.combinations(pairs, 4)
        if is_connected(Graph(4, s))
    ]
    cfg = ChainConfig(n=4, e=4, steps=120_000, burn_in=2_000, thin=1, seed=6)
    seen = Counter()
    for step, mask, ps in iter_states(cfg):
        if step > cfg.burn_in:
            seen[mask] += 1
    assert len(seen) == len(states)
    total = sum(seen.values())
    tv = 0.5 * sum(abs(c / total - 1 / len(states)) for c in seen.values())
    assert tv < 0.05
