import json

import pytest

from sepfacets import conjectures as cj
from sepfacets.enumeration import GuardExceeded, canonical_form
from sepfacets.facets import facet_count
from sepfacets.formulas import double_cycle_max, parallel_paths_count
from sepfacets.graph import cycle, cycle_with_tail, parse_graph, wedge


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


def test_conjectured_cb_maximizer_cases():
    assert cj.conjectured_cb_maximizer(10) == (6, 4, 1)   # even n, odd half
    assert cj.conjectured_cb_maximizer(12) == (6, 6, 1)   # even n, even half
    assert cj.conjectured_cb_maximizer(11) == (5, 5, 2)   # odd n, even half
    assert cj.conjectured_cb_maximizer(13) == (7, 5, 2)   # odd n, odd half


def test_cb_maximizer_bound_scan():
    rep = cj.check_cb_maximizer_bound(200)
    assert rep.status == "verified"
    assert rep.max == str(parallel_paths_count(cj.conjectured_cb_maximizer(200)))
    with pytest.raises(ValueError):
        cj.check_cb_maximizer_bound(200, start=9)
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


def test_nn1_leaf_shortcut_agrees():
    full = cj.check_nn1_exhaustive(6)
    short = cj.check_nn1_exhaustive(6, skip_leaves=True)
    assert short.status == "verified"
    assert short.max == full.max
    # leafless maximizers are a subset of all maximizers
    assert set(short.witnesses) <= set(full.witnesses)


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
    assert cj.check_identities(1).params["doubling_n_max"] == 1
    with pytest.raises(ValueError):
        cj.check_identities(0)


def test_identities_central_binomials():
    from math import comb

    c = cj._central_binomials(60)
    assert all(c[m] == comb(m, m // 2) for m in range(61))
