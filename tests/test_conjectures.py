import ast
import hashlib
import json
import math
from collections import Counter

import pytest

from helpers import (
    all_triples,
    cactus_blocks,
    parallel_paths_bound,
    reference_blocks,
    reference_f_bounds,
    same_parity_triples,
)
from sepfacets import conjectures as cj
from sepfacets.enumeration import GuardExceeded, canonical_form, connected_graphs
from sepfacets.facets import facet_count
from sepfacets.formulas import cycle_count, cycle_with_tail_count, double_cycle_max, parallel_paths_count
from sepfacets.graph import cycle, cycle_with_tail, parse_graph, serialize_graph, wedge, windmill
from sepfacets.sampler import SampleRecord


def _roundtrips(report):
    data = json.loads(json.dumps(report.to_json()))
    assert set(data) == {"id", "params", "status", "max", "witnesses", "elapsed_ms"}
    assert isinstance(data["max"], str)
    assert all(isinstance(w, str) for w in data["witnesses"])
    return data


def test_nn_max_exhaustive_small():
    for n, want in [(5, 30), (6, 60), (7, 140)]:
        rep = cj.check_nn_max(n)
        assert rep.status == "verified"
        assert rep.max == str(want)
        # witnesses re-verify against the engine
        for w in rep.witnesses:
            g = parse_graph(w)
            assert facet_count(g) == want
        _roundtrips(rep)
    # C5 is the only (5, 5) class with 30 facets
    rep = cj.check_nn_max(5)
    assert [canonical_form(parse_graph(w)) for w in rep.witnesses] == [canonical_form(cycle(5))]


@pytest.mark.parametrize(
    "sweep", [cj.check_nn_max, cj.check_nn1_exhaustive, cj.check_windmill]
)
def test_exhaustive_sweeps_cross_check_closed_forms(monkeypatch, sweep):
    monkeypatch.setattr(cj, "closed_form_count", lambda g: 1)
    with pytest.raises(AssertionError, match="formula/engine disagreement"):
        sweep(5)


def test_nn_max_witness_is_the_expected_family_member():
    rep = cj.check_nn_max(7)
    forms = {canonical_form(parse_graph(w)) for w in rep.witnesses}
    assert canonical_form(cycle(7)) in forms
    rep = cj.check_nn_max(6)
    forms = {canonical_form(parse_graph(w)) for w in rep.witnesses}
    assert canonical_form(cycle_with_tail(6, 5)) in forms


def test_nn_max_formula_mode():
    rep = cj.check_nn_max(50)
    assert rep.status == "verified"
    assert rep.params["mode"] == "formula"
    rep = cj.check_nn_max(51)
    assert rep.witnesses == ["C(51,51)"]


def test_disjoint_cycle_bound():
    rep = cj.check_disjoint_cycle_bound(7)
    assert rep.status == "verified"
    assert rep.max == "180" and rep.params["argmax"] == [3, 5]
    rep = cj.check_disjoint_cycle_bound(9)
    assert rep.max == "900" and rep.params["argmax"] == [5, 5]
    rep = cj.check_disjoint_cycle_bound(60)
    assert rep.status == "verified"
    assert rep.max == rep.params["bound"]  # the family attains its bound


def test_f_bounds_small():
    rep = cj.check_f_bounds(8)
    assert rep.status == "verified" and rep.max == "70"
    assert rep.witnesses == ["(7, 1, 1)"]
    rep = cj.check_f_bounds(9)
    assert rep.status == "verified" and rep.max == "110"
    assert rep.witnesses == ["(6, 2, 2)"]


def _fbounds_json(n: int) -> dict:
    out = cj.check_f_bounds(n).to_json()
    del out["elapsed_ms"]
    return out


def test_f_bounds_matches_the_whole_table_reference():
    # the sweep holds two rows of x3; the reference holds every count
    for n in range(4, 81):
        assert _fbounds_json(n) == reference_f_bounds(n), n


def test_f_bounds_reports_injected_violations_like_the_reference(monkeypatch):
    # zeroing one count breaks the moves into it (or the argmax, at the
    # expected argmax); inflating one makes it the argmax, which must win
    # over the move it also breaks
    real = cj.same_parity_count
    kinds = set()
    for n in (12, 13, 30, 31):
        for target in list(same_parity_triples(n + 1)):
            for scale in (0, 10**9):
                monkeypatch.setattr(cj, "same_parity_count",
                                    lambda t: real(t) * (scale if t == target else 1))
                got = _fbounds_json(n)
                assert got == reference_f_bounds(n), (n, target, scale)
                w = got["witnesses"][0]
                if w.startswith("argmax"):
                    kinds.add("argmax")
                elif got["status"] == "counterexample":
                    left, right = (ast.literal_eval(f[1:]) for f in w.split(" > "))
                    kinds.add("same row" if left[2] == right[2] else "row below")
    assert kinds == {"argmax", "row below", "same row"}


def test_f_leq_m_small():
    for n in (10, 29, 30):
        rep = cj.check_general_f_leq_m(n)
        assert rep.status == "verified"
        assert int(rep.max) <= int(rep.params["bound"])


def test_mixed_cb_small():
    rep = cj.check_mixed_cb(10)
    assert rep.status == "verified"
    assert rep.witnesses == ["(6, 4, 1)"]
    rep = cj.check_mixed_cb(11)
    assert rep.status == "verified"
    assert rep.witnesses == ["(5, 5, 2)"]
    with pytest.raises(ValueError):
        cj.check_mixed_cb(9)


@pytest.mark.parametrize(
    "sweep, value, n, at, witness",
    [
        (cj.check_disjoint_cycle_bound, "double_cycle_count", 12, (12, 5, 6), "G(12,5,6)"),
        (cj.check_general_f_leq_m, "same_parity_count", 30, ((13, 9, 9),), "(13, 9, 9)"),
        (cj.check_mixed_cb, "parallel_paths_count", 30, ((14, 9, 8),), "(14, 9, 8)"),
    ],
)
def test_bounded_sweeps_halt_on_first_excess(monkeypatch, sweep, value, n, at, witness):
    # the pruning would skip these spikes (their ceilings are below the
    # seed's value), so this test runs the sweeps with the ceiling off
    _ceiling_off(monkeypatch)
    real = getattr(cj, value)
    bound = double_cycle_max(n)
    calls = []

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cj, value, recorded)
    assert sweep(n).status == "verified"
    full, calls[:] = calls[:], []
    assert at in full and full[-1] != at  # the spike is not the last item

    def spiked(*args):
        calls.append(args)
        return bound + 1 if args == at else real(*args)

    monkeypatch.setattr(cj, value, spiked)
    rep = sweep(n)
    assert rep.status == "counterexample"
    assert rep.max == str(bound + 1)
    assert rep.witnesses == [witness]
    # the sweep halts at the spike: no later item is evaluated
    assert calls == full[: full.index(at) + 1]


def _ceiling_off(monkeypatch):
    """Make every triple's ceiling (and every run's cap) infinite, so that
    the triple sweeps evaluate every triple exactly (the seed once, first)."""
    runs = cj.path_runs
    monkeypatch.setattr(cj, "path_runs", lambda *args: ((*r[:4], math.inf) for r in runs(*args)))
    monkeypatch.setattr(cj, "path_run_ceilings", lambda c, a, b, z, k: [math.inf] * k)


def _bare(reports):
    return [{k: v for k, v in r.to_json().items() if k != "elapsed_ms"} for r in reports]


@pytest.mark.parametrize(
    "sweep, value, ns",
    [
        (cj.check_mixed_cb, "parallel_paths_count", range(10, 201)),
        (cj.check_general_f_leq_m, "same_parity_count", range(4, 201)),
    ],
)
def test_pruned_sweeps_match_unpruned(monkeypatch, sweep, value, ns):
    real, calls = getattr(cj, value), []

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(cj, value, counted)
    pruned = _bare(map(sweep, ns))
    exact, calls[:] = len(calls), []
    _ceiling_off(monkeypatch)
    assert _bare(map(sweep, ns)) == pruned
    # without the ceiling every triple is evaluated once (the seed first)
    assert len(calls) == sum(r["params"]["triples"] for r in pruned)
    assert exact < len(calls) // 50


@pytest.mark.parametrize(
    "sweep, value, seed",
    [
        (cj.check_general_f_leq_m, "same_parity_count", (29, 1, 1)),
        (cj.check_mixed_cb, "parallel_paths_count", (16, 14, 1)),
    ],
)
def test_pruned_sweeps_report_a_spiked_seed(monkeypatch, sweep, value, seed):
    # a seed above the bound raises the floor to bound + 1; the sweep must
    # still meet it in order and report it as the unpruned sweep does
    real, bound = getattr(cj, value), double_cycle_max(30)
    monkeypatch.setattr(cj, value, lambda t: bound + 1 if t == seed else real(t))
    rep = sweep(30)
    assert rep.status == "counterexample"
    assert rep.max == str(bound + 1) and rep.witnesses == [str(seed)]
    _ceiling_off(monkeypatch)
    assert _bare([rep]) == _bare([sweep(30)])


def test_mixed_cb_exact_evaluations_on_the_bench_band(monkeypatch):
    # the benchmark's formula-sweep band: 484 of its 129197 triples are
    # evaluated exactly; a weaker ceiling would evaluate more.  Regression
    # pins: of its 5783 runs, 100 pass their cap, and the evaluated triples
    # and their order are those of the product-of-ends cap
    calls, runs, passed = [], [], []
    real, real_runs, real_ceilings = cj.parallel_paths_count, cj.path_runs, cj.path_run_ceilings
    monkeypatch.setattr(cj, "parallel_paths_count", lambda t: calls.append(t) or real(t))
    monkeypatch.setattr(cj, "path_runs", lambda *args: (runs.append(r) or r for r in real_runs(*args)))
    monkeypatch.setattr(cj, "path_run_ceilings", lambda *args: passed.append(args[1:]) or real_ceilings(*args))
    reports = [cj.check_mixed_cb(n) for n in range(150, 200)]
    assert sum(r.params["triples"] for r in reports) == 129197
    assert len(calls) == 484
    assert len(runs) == 5783 and len(passed) == 100
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == "0e4c7af37c74024869557738baa215172af81b2f9ff9195313bdbfba552207bd"


@pytest.mark.parametrize(
    "sweep, value",
    [(cj.check_mixed_cb, "parallel_paths_count"), (cj.check_general_f_leq_m, "same_parity_count")],
)
def test_triple_sweeps_reach_the_traced_module_attributes(monkeypatch, sweep, value):
    # the bench trace wraps conjectures.parallel_paths_count and
    # conjectures.double_cycle_max and refuses a formula-sweep run in which
    # either sees no call, so each triple sweep must look its count and its
    # bound up on the module: the bound once per n, the count at least for
    # the seed
    calls = Counter()
    for name in (value, "double_cycle_max"):
        def traced(arg, fn=getattr(cj, name), name=name):
            calls[name] += 1
            return fn(arg)

        monkeypatch.setattr(cj, name, traced)
    ns = range(150, 155)
    for n in ns:
        sweep(n)
    assert calls["double_cycle_max"] == len(ns) and calls[value] >= len(ns)


@pytest.mark.parametrize(
    "sweep, value, ns, triples",
    [
        (cj.check_mixed_cb, "parallel_paths_count", range(10, 201), all_triples),
        (cj.check_general_f_leq_m, "same_parity_count", range(4, 201), same_parity_triples),
    ],
)
def test_exact_evaluations_match_the_per_triple_bound(monkeypatch, sweep, value, ns, triples):
    # the run ceilings pick, in order, the very triples the per-triple
    # dispatch bound picks: the seed first, then every other triple whose
    # bound reaches min(value(seed), M(n) + 1), in sweep order
    real, calls = getattr(cj, value), []
    monkeypatch.setattr(cj, value, lambda t: calls.append(t) or real(t))
    for n in ns:
        calls.clear()
        rep = sweep(n)
        seed = calls[0]
        floor = min(real(seed), double_cycle_max(n) + 1)
        bound = parallel_paths_bound(cj._central_binomials(n + 1))
        want = [t for t in triples(n + 1) if t != seed and bound(t) >= floor]
        assert calls == [seed, *want], n
        assert rep.params["triples"] == sum(1 for _ in triples(n + 1)), n


def test_nn_max_table_matches_the_formula():
    c = cj._central_binomials(300)
    for n in range(3, 301):
        for m in range(3, n + 1):
            assert cj._cycle_count(c, m) << (n - m) == cycle_with_tail_count(n, m), (n, m)


@pytest.mark.parametrize("n", [50, 51])
def test_nn_max_table_cross_check_fires(monkeypatch, n):
    real = cj._central_binomials

    def patched(limit):
        c = real(limit)
        c[50] += 1  # feeds the length-n count for n = 50 and 51
        return c

    monkeypatch.setattr(cj, "_central_binomials", patched)
    with pytest.raises(AssertionError, match=f"at n={n}, m={n}"):
        cj.check_nn_max(n)


def test_nn_max_table_fault_at_the_maximizer_raises(monkeypatch):
    # c[58] feeds the lengths 58 and 59, and 59 is the maximizer at n = 60:
    # a table fault there must raise, never report the theorem refuted
    real = cj._central_binomials

    def patched(limit):
        c = real(limit)
        c[58] += 1
        return c

    monkeypatch.setattr(cj, "_central_binomials", patched)
    with pytest.raises(AssertionError, match="at n=60, m=59"):
        cj.check_nn_max(60)


def test_central_table_is_shared_and_bounded():
    # every request, in any order, reads c[m] = binom(m, m//2); the caller
    # owns what it gets, and the shared table stops at CENTRAL_MAX
    for limit in (300, 60, 500, 0, 61, cj.CENTRAL_MAX + 500):
        c = cj._central_binomials(limit)
        assert c == [math.comb(m, m // 2) for m in range(limit + 1)], limit
        c[-1] += 1
    assert cj._central_binomials(cj.CENTRAL_MAX) == [math.comb(m, m // 2) for m in range(cj.CENTRAL_MAX + 1)]
    assert len(cj._CENTRAL) == cj.CENTRAL_MAX + 1


def test_refused_tables_leave_the_central_table_alone():
    before = len(cj._CENTRAL)
    for sweep, arg in [(cj.check_identities, 32767), (cj.check_cb_maximizer_bound, 65534),
                       (cj.check_mixed_cb, 10**6), (cj.check_general_f_leq_m, 10**6)]:
        with pytest.raises(GuardExceeded, match="cap 64 MiB"):
            sweep(arg)
    assert len(cj._CENTRAL) == before


def test_conjectured_cb_maximizer_cases():
    assert cj.conjectured_cb_maximizer(10) == (6, 4, 1)   # even n, odd half
    assert cj.conjectured_cb_maximizer(12) == (6, 6, 1)   # even n, even half
    assert cj.conjectured_cb_maximizer(11) == (5, 5, 2)   # odd n, even half
    assert cj.conjectured_cb_maximizer(13) == (7, 5, 2)   # odd n, odd half


def test_cb_maximizer_bound_scan():
    rep = cj.check_cb_maximizer_bound(200)
    assert rep.status == "verified"
    assert rep.max == str(parallel_paths_count(cj.conjectured_cb_maximizer(200)))
    with pytest.raises(ValueError, match="max_n"):
        cj.check_cb_maximizer_bound(9)  # empty range: nothing would be checked


def test_cb_maximizer_table_matches_formulas():
    c = cj._central_binomials(502)
    for n in range(10, 1001):
        t = cj.conjectured_cb_maximizer(n)
        assert cj._cb_maximizer_count(c, n) == parallel_paths_count(t), n
        assert cj._double_cycle_max(c, n) == double_cycle_max(n), n


def test_cb_maximizer_bound_cross_check_fires(monkeypatch):
    monkeypatch.setattr(cj, "parallel_paths_count", lambda t: 0)
    with pytest.raises(AssertionError):
        cj.check_cb_maximizer_bound(20)


def test_nn1_exhaustive_small():
    for n, want in [(5, 36), (6, 72)]:
        rep = cj.check_nn1_exhaustive(n)
        assert rep.status == "verified"
        assert rep.max == str(want) == rep.params["bound"]
        for w in rep.witnesses:
            assert facet_count(parse_graph(w)) == want


@pytest.mark.parametrize("shift, status", [(-1, "counterexample"), (1, "partial")])
def test_nn1_reports_a_maximum_off_the_bound(monkeypatch, shift, status):
    # a class above the bound refutes it; a bound that no class reaches
    # leaves the conjecture's tightness unshown
    monkeypatch.setattr(cj, "double_cycle_max", lambda n: double_cycle_max(n) + shift)
    rep = cj.check_nn1_exhaustive(6)
    assert rep.status == status
    assert rep.max == "72" and rep.params["bound"] == str(72 + shift)


def test_nn1_guard():
    with pytest.raises(GuardExceeded):
        cj.check_nn1_exhaustive(9)


def test_windmill_exhaustive_small():
    rep = cj.check_windmill(5)
    assert rep.status == "verified" and rep.max == "36"
    # the bowtie is the only (5, 6) class with 36 facets
    bowtie = wedge(cycle(3), cycle(3), 0, 0)
    assert [canonical_form(parse_graph(w)) for w in rep.witnesses] == [canonical_form(bowtie)]


def test_windmill_sampled_mode():
    rep = cj.check_windmill(9, samples=20, seed=7)
    assert rep.status == "partial"
    assert rep.params["mode"] == "sampled"
    assert int(rep.params["sample_max"]) <= int(rep.max)
    assert int(rep.params["sample_max"]) == 6**4  # chain starts at the windmill


def test_identities_small():
    rep = cj.check_identities(500)
    assert rep.status == "verified"
    assert rep.params["doubling_n_max"] == 500
    # the doubling law starts at n = 3, so a smaller k_max would check nothing
    for k_max in (0, 1, 2):
        with pytest.raises(ValueError, match="k_max >= 3"):
            cj.check_identities(k_max)
    rep = cj.check_identities(3)
    assert (rep.status, rep.max, rep.params["doubling_n_max"]) == ("verified", "6", 3)


class _Reached(Exception):
    pass


@pytest.mark.parametrize(
    "sweep, table, admitted",
    [
        (cj.check_identities, "_central_binomials", 32766),
        (cj.check_cb_maximizer_bound, "_central_binomials", 65533),
        (cj.check_nn_max, "cycle_with_tail_count", 23170),
    ],
)
def test_table_cap_boundary(monkeypatch, sweep, table, admitted):
    # the largest admitted request reaches its table; one more is refused
    # first.  The table function raises, so nothing is built either way.
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(cj, table, reached)
    with pytest.raises(_Reached):
        sweep(admitted)
    with pytest.raises(GuardExceeded, match="cap 64 MiB"):
        sweep(admitted + 1)


def test_identities_central_binomials():
    from math import comb

    c = cj._central_binomials(60)
    assert all(c[m] == comb(m, m // 2) for m in range(61))


def test_disjoint_work_cap_boundary(monkeypatch):
    # n^3/4 bits of work admits n = 1290; one more is refused before the
    # bound or any pair is evaluated
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(cj, "double_cycle_max", reached)
    monkeypatch.setattr(cj, "double_cycle_count", reached)
    with pytest.raises(_Reached):
        cj.check_disjoint_cycle_bound(1290)
    with pytest.raises(GuardExceeded, match="cap 64 MiB"):
        cj.check_disjoint_cycle_bound(1291)


@pytest.mark.parametrize(
    "table, reference, at, fault, witness",
    [
        ("_cycle_count", cycle_count, 8, lambda f: f(8) + 1, "k=8: cycle ratio"),
        ("_double_cycle_max", double_cycle_max, 8, lambda f: f(8) + 1, "k=4: M(2k) vs F(k+1,k-1,1)"),
        ("_double_cycle_max", double_cycle_max, 10, lambda f: f(10) + 1, "k=5: M(2k) vs F(k,k,1)"),
        ("_double_cycle_max", double_cycle_max, 7, lambda f: f(7) + 1, "k=4: M(2k-2) vs M(2k-1)"),
        ("_double_cycle_max", double_cycle_max, 9, lambda f: f(9) + 1, "k=5: M(2k-2) vs M(2k-1)"),
        ("_double_cycle_max", double_cycle_max, 13, lambda f: 2 * f(12), "n=12: doubling is not strict at even n"),
    ],
    ids=["cycle-ratio", "m-vs-f-even-k", "m-vs-f-odd-k", "m-ratio-even-k", "m-ratio-odd-k", "doubling"],
)
def test_identities_fire_under_a_fault_at_one_argument(monkeypatch, table, reference, at, fault, witness):
    # the table function becomes its closed form, which calls nothing back,
    # so a fault stays at one argument; each kind of comparison catches one
    monkeypatch.setattr(cj, table, lambda c, m: reference(m))
    assert cj.check_identities(20).status == "verified"
    monkeypatch.setattr(cj, table, lambda c, m: fault(reference) if m == at else reference(m))
    rep = cj.check_identities(20)
    assert (rep.status, rep.witnesses) == ("counterexample", [witness])


def test_nn_max_without_its_maximizer_is_partial(monkeypatch):
    # C(6, 5) filtered out of level (6, 6): the maximum falls below the
    # theorem's value, which leaves the theorem unshown, not refuted
    missing = canonical_form(cycle_with_tail(6, 5))
    level = cj.connected_graphs
    monkeypatch.setattr(cj, "connected_graphs", lambda n, e, guard: [
        g for g in level(n, e, guard=guard) if canonical_form(g) != missing])
    rep = cj.check_nn_max(6)
    assert rep.status == "partial"
    assert int(rep.max) < 60 == cycle_with_tail_count(6, 5)


@pytest.mark.parametrize(
    "block, status",
    [
        (((0, 1), (0, 3), (1, 2), (2, 3)), "partial"),  # an even cycle
        (((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)), "partial"),  # odd, but 4 vertices to 5 edges
        (((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)), "verified"),  # an odd cycle
    ],
    ids=["c4", "diamond", "c5"],
)
def test_exhaustive_rows_require_odd_cycles_and_bridges(monkeypatch, block, status):
    # every winner's blocks are read through the module, so one fake block
    # stands for each winner's decomposition
    monkeypatch.setattr(cj, "biconnected_blocks", lambda g: [block, ((4, 5),)])
    assert cj.check_nn_max(6).status == status
    assert cj.check_nn1_exhaustive(6).status == status
    assert cj.check_windmill(7).status == status


def test_nn1_counterexample_names_the_first_class_above_the_bound(monkeypatch):
    monkeypatch.setattr(cj, "double_cycle_max", lambda n: 71)
    rep = cj.check_nn1_exhaustive(6)
    first = next(g for g in connected_graphs(6, 7) if facet_count(g) == 72)
    assert (rep.status, rep.max) == ("counterexample", "72")
    assert rep.witnesses == [serialize_graph(first)]


def test_sampled_windmill_decides_through_the_bounded_kernel(monkeypatch):
    start, above = windmill(9, 4), cycle_with_tail(9, 7)
    records = [SampleRecord(0, 1296, start), SampleRecord(1, 1297, above), SampleRecord(2, 1298, start)]
    monkeypatch.setattr(cj, "run_chain", lambda cfg: iter(records))
    rep = cj.check_windmill(9, samples=2, seed=7)
    assert (rep.status, rep.max, rep.witnesses) == ("counterexample", "1297", [serialize_graph(above)])
    assert "mode" not in rep.params
    records[:] = [SampleRecord(0, 1000, start), SampleRecord(1, 1200, above)]
    rep = cj.check_windmill(9, samples=1, seed=7)
    assert (rep.status, rep.max, rep.witnesses) == ("partial", "1200", [])
    assert rep.params == {"n": 9, "e": 12, "mode": "sampled", "samples": 1, "seed": 7, "sample_max": "1200"}


@pytest.mark.parametrize(
    "n, j", [(n, j) for n in range(3, 10) for j in range(1, (n - 1) // 2 + 1)]
)
def test_every_row_maximum_is_the_odd_cycle_cactus(n, j):
    # ROADMAP item 1's claim on every level (n, n - 1 + j) with n <= 9, the
    # bound read off the cactus and every winner's blocks found by the
    # reference split; (8, 10) and (9, 11) are covered by no check
    sizes = cactus_blocks(n, j)
    bound = math.prod(cycle_count(size) if size > 1 else 2 for size in sizes)
    rep = cj.ConjectureReport("row", {}, "verified", "0")
    cj._exhaustive_max(rep, n, j, bound)
    assert (rep.status, rep.max) == ("verified", str(bound))
    for w in rep.witnesses:
        assert sorted(map(len, reference_blocks(parse_graph(w)))) == sizes, w
