import json
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

from sepfacets import conjectures
from sepfacets.cli import main
from sepfacets.graph import serialize_graph, windmill


def test_count_from_edge_list(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("3\n0 1\n1 2\n")
    assert main(["count", "--edges", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_count_from_json(tmp_path, capsys):
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    assert main(["count", "--edges", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_count_family(capsys):
    assert main(["count", "--family", "windmill", "7", "3"]) == 0
    assert capsys.readouterr().out.strip() == "216"


def test_count_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2\n0 0\n")
    assert main(["count", "--edges", str(f)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n": 3}', "'edges'"),
        ('{"n": 3, "edges": [[0]]}', "edges[0]"),
        ("[]", "object"),
        ('{"n": "3", "edges": []}', "'n'"),
        ('{"n": 2.5, "edges": [[0, 1]]}', "'n'"),
        ('{"n": 3, "edges": [[0, true]]}', "edges[0]"),
        pytest.param("[" * 100000, "nested", id="deep-nesting"),
    ],
)
def test_count_json_shape_errors(tmp_path, capsys, text, field):
    f = tmp_path / "g.json"
    f.write_text(text)
    assert main(["count", "--edges", str(f)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert field in err
    assert "Traceback" not in err


def test_count_huge_vertex_count_with_one_edge(tmp_path, capsys, monkeypatch):
    from sepfacets import facets

    def no_allocation(*args):
        raise AssertionError("adjacency built for a disconnected graph")

    monkeypatch.setattr(facets, "adjacency", no_allocation)
    f = tmp_path / "g.txt"
    f.write_text("1000000000\n0 1\n")
    assert f.stat().st_size == 15
    assert main(["count", "--edges", str(f)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "connected" in err


def test_frontier_state_cap_exits_three(tmp_path, capsys, monkeypatch):
    # a 6x6 grid folds its four corners into a 32-vertex core; its DP is
    # refused once one step holds more states than the cap
    from sepfacets import facets

    k = 6
    edges = [(v, v + 1) for v in range(k * k) if v % k < k - 1] + [(v, v + k) for v in range(k * k - k)]
    f = tmp_path / "grid.txt"
    f.write_text(f"{k * k}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    real, orders = facets._frontier_order, []

    def frontier_order(adj):
        orders.append((adj, real(adj)))
        return orders[-1][1]

    monkeypatch.setattr(facets, "_frontier_order", frontier_order)
    monkeypatch.setattr(facets, "MAX_FRONTIER_STATES", 50)
    assert main(["count", "--edges", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    adj, order = orders[-1]
    # the order's width: placed vertices with a neighbor still to come
    width = max(
        sum(any(u not in order[:i + 1] for u in adj[v]) for v in order[:i + 1]) for i in range(len(order))
    )
    assert captured.err == f"sepfacets: frontier count of a 32-vertex core at order width {width} passed 50 states\n"
    monkeypatch.undo()
    assert main(["count", "--edges", str(f)]) == 0


def test_formula_commands(capsys):
    assert main(["formula", "windmill", "7", "3"]) == 0
    assert capsys.readouterr().out.strip() == "216"
    assert main(["formula", "max-bicyclic", "7"]) == 0
    assert capsys.readouterr().out.strip() == "180"
    assert main(["formula", "wedge-cycles", "5", "3", "2"]) == 0
    assert capsys.readouterr().out.strip() == "360"
    assert main(["formula", "paths", "3", "3", "2"]) == 0
    assert capsys.readouterr().out.strip() == "126"


def test_formula_bad_family(capsys):
    assert main(["formula", "dodecahedron", "1"]) == 1
    assert "unknown family" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_tree_below_one_vertex_is_refused_by_both_commands(capsys, n):
    for argv in (["formula", "tree", n], ["count", "--family", "tree", n]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"sepfacets: tree needs >= 1 vertex, got {n}\n"


def test_tree_of_one_vertex_counts_one_in_both_commands(capsys):
    for argv in (["formula", "tree", "1"], ["count", "--family", "tree", "1"]):
        assert main(argv) == 0
        assert capsys.readouterr().out == "1\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["count"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["verify", "everything"])
    assert e.value.code == 1


def test_verify_nn1(capsys):
    assert main(["verify", "nn1", "--n", "6"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["id"] == "nn1" and rep["status"] == "verified"
    assert rep["max"] == "72"


def test_verify_range_emits_one_report_per_n(capsys):
    assert main(["verify", "fbounds", "--n", "8", "--max-n", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(l)["params"]["n"] for l in lines] == [8, 9, 10]


def test_verify_guard_exit_code(capsys):
    assert main(["verify", "nn1", "--n", "9"]) == 3
    assert "guard" in capsys.readouterr().err


def test_verify_missing_n(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "nn1"])
    assert e.value.code == 1


def test_counterexample_maps_to_exit_two(monkeypatch, capsys):
    from sepfacets.conjectures import ConjectureReport

    def fake_check(n):
        return ConjectureReport("fbounds", {"n": n}, "counterexample", "9", ["(1, 1, 1)"])

    monkeypatch.setattr("sepfacets.cli.conjectures.check_f_bounds", fake_check)
    assert main(["verify", "fbounds", "--n", "8"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "counterexample" and rep["witnesses"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "disjoint", "--n", "5", "--max-n", "3"], "--max-n"),
        (["verify", "cb-bound", "--max-n", "5"], "max_n"),
        # the doubling law starts at n = 3
        (["verify", "identities", "--max-n", "2"], "k_max"),
        # no connected graph has 3 vertices and 4 edges
        pytest.param(["verify", "nn1", "--n", "3"], "n=3, e=4", id="nn1-level-without-graphs"),
        # windmill classes exist only at odd n; refused before any sweep
        pytest.param(["verify", "windmill", "--n", "6", "--max-n", "9"], "got 6", id="windmill-even-n"),
    ],
)
def test_verify_empty_range_is_an_error(capsys, argv, flag):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert flag in captured.err


def _no_sweep(k):
    raise AssertionError("the sweep ran")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identities", "--n", "5"],
        ["verify", "cb-bound", "--n", "50", "--max-n", "60"],
    ],
    ids=["identities", "mixed-cb-bound-only"],
)
def test_verify_modes_without_n_refuse_it(monkeypatch, capsys, argv):
    # these sweeps read only --max-n, so their parsers refuse an --n
    for name in ("check_identities", "check_cb_maximizer_bound"):
        monkeypatch.setattr(conjectures, name, _no_sweep)
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "--n" in captured.err


# the options each verify check reads, and a valid argv for it; every other
# option of the old shared bag must be refused, not ignored
_PER_N = ("nnmax", "disjoint", "fbounds", "f-leq-m", "mixed-cb", "nn1")
_READS = {
    **{check: ({"--n", "--max-n"}, ["--n", "5"]) for check in _PER_N},
    "windmill": ({"--n", "--max-n", "--samples", "--seed"}, ["--n", "5"]),
    "cb-bound": ({"--max-n"}, ["--max-n", "60"]),
    "identities": ({"--max-n"}, ["--max-n", "300"]),
}
_OPTIONS = {"--n": ["5"], "--max-n": ["7"], "--bound-only": [], "--samples": ["3"], "--seed": ["1"]}


def test_the_option_table_covers_every_verify_check():
    from sepfacets import cli

    assert set(_READS) == set(cli.PER_N) | {"cb-bound", "identities"}


@pytest.mark.parametrize(
    "argv, option",
    [
        pytest.param(["verify", check, *base, option, *_OPTIONS[option]], option, id=f"{check}{option}")
        for check, (reads, base) in _READS.items()
        for option in _OPTIONS
        if option not in reads
    ]
    + [
        pytest.param(
            ["sample", "--n", "5", "--edges", "6", "--samples", "1", "--seed", "1", "--out", os.devnull,
             "--format", "jsonl", "--mode", "histogram"],
            "--mode",
            id="sample--mode",
        )
    ],
)
def test_no_command_accepts_an_option_it_does_not_read(monkeypatch, capsys, argv, option):
    for name in dir(conjectures):
        if name.startswith("check_"):
            monkeypatch.setattr(conjectures, name, _no_sweep)
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error" in captured.err and option in captured.err


def test_verify_identities(capsys):
    assert main(["verify", "identities", "--max-n", "300"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "verified"


def test_verify_mixed_cb_bound_only(capsys):
    assert main(["verify", "cb-bound", "--max-n", "60"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["params"]["mode"] == "bound-only"


def test_sample_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = [
        "sample", "--n", "6", "--edges", "8", "--samples", "5",
        "--burn-in", "10", "--thin", "7", "--seed", "99",
        "--deterministic", "--out",
    ]
    assert main(base + [str(out1)]) == 0
    assert main(base + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[1] == "n,log10_facets,ref_log10"


def test_sample_histogram_jsonl_and_initial(tmp_path):
    start = tmp_path / "wm.txt"
    start.write_text(serialize_graph(windmill(7, 3)))
    out = tmp_path / "s.jsonl"
    rc = main(
        [
            "sample", "--n", "7", "--edges", "9", "--samples", "4",
            "--burn-in", "0", "--thin", "5", "--seed", "1",
            "--initial", str(start), "--format", "jsonl",
            "--deterministic", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert json.loads(lines[0])["meta"]["n"] == 7
    assert json.loads(lines[1])["count"] == "216"  # starts at the windmill


def test_sample_memory_does_not_grow_with_samples(tmp_path):
    # each record is written as it arrives, so 4x the records may not cost
    # 4x the memory; holding them all took about 7 MB more at 20k than 5k
    peaks = []
    for fmt, lines in (("scatter", 20002), ("histogram", 3), ("jsonl", 20001)):
        for samples in (5000, 20000):
            argv = ["sample", "--n", "2", "--edges", "1", "--samples", str(samples), "--seed", "1",
                    "--format", fmt, "--deterministic", "--out", str(tmp_path / "s")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len((tmp_path / "s").read_text().splitlines()) == lines
        assert peaks[-1] - peaks[-2] < 1 << 20, (fmt, peaks[-2:])


def test_chain_without_edges_is_refused(tmp_path, capsys):
    # the default thinning e * C(n, 2) is 0 here; the edge check comes first
    out = tmp_path / "x.csv"
    argv = ["sample", "--n", "1", "--edges", "0", "--samples", "2", "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "at least one edge" in err
    assert "thin" not in err and "Traceback" not in err
    assert not out.exists()


def test_chain_vertex_limit_exit_code(tmp_path, capsys):
    # refused before the chain allocates its C(n, 2) pair table; zero
    # burn-in keeps even an unrefused run to one record
    out = tmp_path / "x.csv"
    argv = ["sample", "--n", "1025", "--edges", "1024", "--samples", "1",
            "--burn-in", "0", "--seed", "0", "--out", str(out)]
    assert main(argv) == 3
    assert "1024" in capsys.readouterr().err
    assert not out.exists()
    assert main(["verify", "windmill", "--n", "1025", "--samples", "1"]) == 3
    assert "1024" in capsys.readouterr().err


def test_sample_infeasible_config(tmp_path, capsys):
    rc = main(
        ["sample", "--n", "5", "--edges", "3", "--samples", "2",
         "--seed", "0", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 1


def test_enumerate_writes_jsonl(tmp_path):
    out = tmp_path / "classes.jsonl"
    assert main(["enumerate", "--n", "5", "--edges", "6", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        obj = json.loads(line)
        assert obj["n"] == 5 and len(obj["edges"]) == 6


def test_enumerate_default_guard_admits_n8(tmp_path):
    out = tmp_path / "classes.jsonl"
    assert main(["enumerate", "--n", "8", "--edges", "8", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 89


def test_enumerate_guard(tmp_path, capsys):
    rc = main(["enumerate", "--n", "9", "--edges", "9", "--out", str(tmp_path / "x")])
    assert rc == 3


def test_guard_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SEP_FACETS_GUARD", "5")
    assert main(["verify", "nn1", "--n", "6"]) == 3
    monkeypatch.setenv("SEP_FACETS_GUARD", "6")
    assert main(["verify", "nn1", "--n", "6"]) == 0


@pytest.mark.parametrize(
    "value, argv",
    [
        ("-5", ["verify", "nnmax", "--n", "3"]),
        ("abc", ["verify", "nnmax", "--n", "3"]),
        ("12", ["verify", "nnmax", "--n", "12"]),
    ],
)
def test_guard_env_rejects_bad_values(monkeypatch, capsys, value, argv):
    monkeypatch.setenv("SEP_FACETS_GUARD", value)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "SEP_FACETS_GUARD" in captured.err


def test_counts_print_past_the_str_digit_limit(capsys):
    # 2^14999 has 4516 digits; str() refuses more than 4300 by default
    assert main(["formula", "tree", "15000"]) == 0
    captured = capsys.readouterr()
    out = captured.out.strip()
    assert len(out) == 4516 > sys.get_int_max_str_digits()
    assert int(Decimal(out)) == 1 << 14999
    assert captured.err == ""
    assert main(["verify", "cb-bound", "--max-n", "15000"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "verified"
    assert len(rep["max"]) > 4300


def test_long_digit_strings_are_still_refused_as_input(capsys):
    with pytest.raises(ValueError):
        int("1" * 5000)  # the parsing limit stays in force
    with pytest.raises(SystemExit) as e:
        main(["formula", "tree", "1" * 5000])
    assert e.value.code == 1


@pytest.mark.parametrize(
    "argv, table",
    [
        (["verify", "identities", "--max-n", "1000000000"], "_central_binomials"),
        (["verify", "cb-bound", "--max-n", "2000000000"], "_central_binomials"),
        (["verify", "nnmax", "--n", "1000000"], "cycle_with_tail_count"),
        (["verify", "mixed-cb", "--n", "1000000"], "_central_binomials"),
        (["verify", "f-leq-m", "--n", "1000000"], "_central_binomials"),
        (["verify", "fbounds", "--n", "4000"], "same_parity_count"),
    ],
)
def test_formula_tables_past_the_cap_are_refused(monkeypatch, capsys, argv, table):
    from sepfacets import conjectures

    def no_allocation(*args):
        raise AssertionError("table built past the cap")

    monkeypatch.setattr(conjectures, table, no_allocation)
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "MiB" in captured.err and "Traceback" not in captured.err


def test_formula_paths_with_many_lengths_prints():
    # a chain of one lazy product per length used to overflow the C stack,
    # so the command runs in a child process
    from sepfacets.formulas import decimal, theta_count

    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sepfacets.cli", "formula", "paths", *["2"] * 100000],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == decimal((1 << 100000) + 2) + "\n"
    assert proc.stdout == decimal(theta_count(2, 100000)) + "\n"


@pytest.mark.parametrize(
    "family",
    [["cycle", "100002"], ["tree", "100002"], ["windmill", "100001", "50000"],
     ["paths", "200", "200", "200"], ["paths", *["2"] * 100000]],
    ids=["cycle", "tree", "windmill", "paths-200x3", "paths-2x100000"],
)
def test_count_family_at_the_cap_matches_formula(family):
    # counting folds the chains of these members away, so each finishes
    # within a minute; child processes, as the paths formula needs one
    src = Path(__file__).resolve().parent.parent / "src"

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "sepfacets.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert run("count", "--family", *family) == run("formula", *family)


@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "tree", "100000000000"],
        ["formula", "windmill", "100000000001", "3"],
        ["count", "--family", "tree", "100000000"],
        ["formula", "tree", "1000000000000000000000"],
        ["formula", "theta", "3", "1000000000"],
        ["formula", "paths", "100001", "2"],
        ["formula", "wedge-cycles", "5", "3", "100000"],
        ["count", "--family", "wedge-cycles", "100000000000", "-100000000000"],
    ],
)
def test_family_members_past_the_cap_are_refused(monkeypatch, capsys, argv):
    from sepfacets import formulas

    def not_called(*args):
        raise AssertionError("family member evaluated or built past the cap")

    families = {
        kind: (arity, vertices, not_called, not_called)
        for kind, (arity, vertices, _, _) in formulas._FAMILIES.items()
    }
    monkeypatch.setattr(formulas, "_FAMILIES", families)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "vertices" in captured.err and "Traceback" not in captured.err


def test_family_members_at_the_cap_are_evaluated(capsys):
    from sepfacets.formulas import MAX_FAMILY_VERTICES, decimal

    assert main(["formula", "tree", str(MAX_FAMILY_VERTICES)]) == 0
    assert capsys.readouterr().out == decimal(1 << (MAX_FAMILY_VERTICES - 1)) + "\n"
    assert main(["formula", "tree", str(MAX_FAMILY_VERTICES + 1)]) == 3
