"""The alternating-pairs comparison, with bench/run.py replaced by canned
results (the real runs are too slow for the suite)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdicts_follow_wins_medians_and_bounds():
    verdict = _load().verdict
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]
    faster = [x + 10 for x in parent]
    assert verdict(parent, faster, "higher", 0.2) == ("gain", 10)
    # lower is better: the same values are now a 10% loss, within a 20% bound
    assert verdict(parent, faster, "lower", 0.2) == ("no change shown", 0)
    assert verdict(parent, faster, "lower", 0.05) == ("worse", 0)
    # eight wins of ten are not enough, however large the step
    mixed = faster[:8] + parent[8:]
    assert verdict(parent, mixed, "higher", 0.2) == ("no change shown", 8)
    # a win in every pair that stays inside the parent's spread is no gain
    assert verdict(parent, [x + 0.1 for x in parent], "higher", 0.2) == ("no change shown", 10)
    wide = [50.0, 150.0, 60.0, 140.0, 100.0, 100.0]
    assert verdict(wide, wide, "higher", 0.2) == ("unresolved", 0)


def test_pairs_alternate_and_summarise(monkeypatch, capsys):
    tool = _load()
    calls = []

    def fake(root, workload, seed, seconds):
        calls.append(root.name)
        base = 200.0 if root.name == "new" else 100.0
        return {"ops_per_s": base + len(calls), "op_ms_p50": 1000 / base,
                "setup_s": 0.1, "peak_rss_mb": 18.0}

    monkeypatch.setattr(tool, "run_bench", fake)
    assert tool.main(["old", "new", "--workload", "formula-sweep", "--pairs", "4"]) == 0
    assert calls == ["old", "new", "new", "old", "old", "new", "new", "old"]
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("# pair ") for line in out) == 4
    rows = {line.split()[0]: line for line in out if not line.startswith(("#", "formula-sweep"))}
    assert set(rows) == {"ops_per_s", "op_ms_p50", "setup_s", "peak_rss_mb"}
    assert rows["ops_per_s"].endswith("wins 4/4  gain")
    assert rows["op_ms_p50"].endswith("wins 4/4  gain")
    assert rows["setup_s"].endswith("wins 0/4  no change shown")
