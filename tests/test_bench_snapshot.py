"""The perf-trajectory wrapper's diff, on hand-made snapshots (the
wrapper itself runs the benchmark, which is too slow for the suite)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diff_lists_every_metric_of_either_snapshot():
    tool = _load()
    old = {"label": "7", "workloads": {
        "formula-sweep": {"end_to_end": {"ops_per_s": 20.0}, "per_layer": {"formulas.triples": 129197}},
    }}
    new = {"label": "8", "workloads": {
        "formula-sweep": {"end_to_end": {"ops_per_s": 70.0}, "per_layer": {"formulas.triples": 484}},
        "sparse-classes": {"end_to_end": {"ops_per_s": 300.0}, "per_layer": {}},
    }}
    lines = tool.diff_lines(old, new)
    assert lines[0] == "7 -> 8"
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:]}
    assert rows[("formula-sweep", "ops_per_s")] == ["20", "70", "x3.500"]
    assert rows[("formula-sweep", "formulas.triples")] == ["129197", "484", "x0.004"]
    assert rows[("sparse-classes", "ops_per_s")] == ["-", "300", "-"]
    assert len(rows) == 3
