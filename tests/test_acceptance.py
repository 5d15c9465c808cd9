"""Acceptance gate: every release-blocking property, one test per
criterion, each printing its own PASS/FAIL line (run with -s to watch).

The expensive sweeps run at their full advertised caps, so this module is
the slow part of the suite (roughly 10-20 minutes single-threaded).
"""

import time
from contextlib import contextmanager
from random import Random

from helpers import figure_csv, random_connected_graph
from sepfacets import conjectures as cj
from sepfacets.enumeration import connected_graphs
from sepfacets.facets import facet_count, facet_count_via_subgraphs, facet_functions
from sepfacets.formulas import closed_form_count, cycle_with_tail_count, windmill_count
from sepfacets.graph import Graph, is_connected, path, wedge
from sepfacets.sampler import ChainConfig, iter_states, run_chain


@contextmanager
def criterion(num: int, detail: str):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {detail}", flush=True)
        raise
    print(f"PASS criterion {num}: {detail} [{time.time() - t0:.1f}s]", flush=True)


def _sweep_classes(max_n: int = 7):
    for n in range(2, max_n + 1):
        for e in range(n - 1, n * (n - 1) // 2 + 1):
            yield from connected_graphs(n, e)


def test_c1_three_vertex_path():
    with criterion(1, "3-vertex path has exactly 4 facets in under 1 ms"):
        g = path(2)
        assert facet_count(g) == 4
        best = min(
            _timed(lambda: facet_count(g)) for _ in range(10)
        )
        assert best < 1e-3, f"counting took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_c2_c3_exhaustive_agreement_parity_involution():
    classes = 0
    covered = 0
    with criterion(
        2, "direct and subgraph counts agree on every connected class "
           "on <= 7 vertices, matching closed forms where they apply"
    ):
        for g in _sweep_classes(7):
            c = facet_count(g)
            assert c == facet_count_via_subgraphs(g), g
            cf = closed_form_count(g)
            if cf is not None:
                assert cf == c, g
                covered += 1
            classes += 1
        assert classes == 995 and covered >= 200
    with criterion(
        3, "every count above is even and negation is a fixed-point-free "
           "involution on the enumerated labelings"
    ):
        for g in _sweep_classes(7):
            fs = facet_functions(g)
            assert len(fs) % 2 == 0
            seen = set(fs)
            for f in fs:
                neg = tuple(max(f) - x for x in f)
                assert neg in seen and neg != f, (g, f)


def test_c4_wedge_multiplicativity():
    with criterion(4, "500 random wedges obey the exact product law"):
        rng = Random(2024)
        for _ in range(500):
            g = random_connected_graph(rng, 6)
            h = random_connected_graph(rng, 6)
            u, v = rng.randrange(g.n), rng.randrange(h.n)
            assert facet_count(wedge(g, h, u, v)) == facet_count(g) * facet_count(h)


def test_c5_exhaustive_maximizers():
    with criterion(
        5, "exhaustive maxima: largest odd cycle family for (n, n) up to "
           "n = 8; 36/72/180 for (n, n+1) at n = 5, 6, 7"
    ):
        for n in range(3, 9):
            rep = cj.check_nn_max(n, guard=8)
            assert rep.status == "verified", rep.to_json()
            best_m = n if n % 2 else n - 1
            assert rep.max == str(cycle_with_tail_count(n, best_m))
        for n, want in [(5, 36), (6, 72), (7, 180)]:
            rep = cj.check_nn1_exhaustive(n)
            assert rep.status == "verified", rep.to_json()
            assert rep.max == str(want)


def test_c6_formula_sweeps_full_caps():
    with criterion(6, "triple-maximizer sweep verified for all n <= 399"):
        for n in range(4, 400):
            assert cj.check_f_bounds(n).status == "verified", n
    with criterion(6, "triple bound F <= M verified for all n <= 200"):
        for n in range(4, 201):
            assert cj.check_general_f_leq_m(n).status == "verified", n
    with criterion(6, "all path triples with sum <= 535 stay within the bound "
                      "and peak at the conjectured triple"):
        for n in range(10, 535):
            assert cj.check_mixed_cb(n).status == "verified", n
    with criterion(6, "conjectured maximizer stays within the bound for all "
                      "n <= 10000 (both parities)"):
        assert cj.check_cb_maximizer_bound(10000).status == "verified"
    with criterion(6, "identity ledger exact for k <= 10000 incl. doubling law"):
        rep = cj.check_identities(10000)
        assert rep.status == "verified"
        assert rep.params["doubling_n_max"] == 10000


def test_c7_windmill():
    with criterion(7, "exhaustive n = 7: maximum 216 attained only by "
                      "triangle joins"):
        rep = cj.check_windmill(7)
        assert rep.status == "verified", rep.to_json()
        assert rep.max == "216"
    with criterion(7, "chains at n = 13, e = 18 (200 samples x 3 seeds) never "
                      "beat 46656 and attain it"):
        bound = windmill_count(13, 6)
        assert bound == 46656
        attained = False
        for seed in (101, 202, 303):
            rep = cj.check_windmill(13, samples=200, seed=seed)
            assert rep.status == "partial", rep.to_json()  # bound held
            assert int(rep.params["sample_max"]) <= bound
            attained = attained or int(rep.params["sample_max"]) == bound
        assert attained


def test_c8_chain_uniformity():
    with criterion(8, "chain visits the 205 connected (5, 6) states uniformly "
                      "(TV < 0.05 over 2e6 steps)"):
        import itertools

        pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        states = {
            sum(1 << i for i, p in enumerate(pairs) if p in set(sub))
            for sub in itertools.combinations(pairs, 6)
            if is_connected(Graph(5, sub))
        }
        assert len(states) == 205
        cfg = ChainConfig(n=5, e=6, steps=2_010_000, burn_in=10_000, thin=1, seed=11)
        visits = {}
        for step, mask, _ in iter_states(cfg):
            if step > cfg.burn_in:
                visits[mask] = visits.get(mask, 0) + 1
        assert set(visits) <= states
        total = sum(visits.values())
        tv = 0.5 * sum(
            abs(visits.get(m, 0) / total - 1 / len(states)) for m in states
        )
        assert tv < 0.05, f"TV distance {tv:.4f}"


def test_c9_seed_determinism():
    with criterion(9, "equal seeds give byte-identical deterministic CSVs"):
        cfg = ChainConfig.for_samples(7, 9, 25, seed=12345, burn_in=50, thin=20)
        a = figure_csv(list(run_chain(cfg)), "scatter", cfg, deterministic=True)
        b = figure_csv(list(run_chain(cfg)), "scatter", cfg, deterministic=True)
        assert a == b
        assert a.encode() == b.encode()
