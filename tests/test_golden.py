"""Byte-for-byte comparison of deterministic CLI outputs with checked-in
golden files.  The files were produced before the frontier counting engine
replaced the labeling walk in facet_count, so they pin that no count,
sample or class listing changed with the engine."""

from pathlib import Path

from sepfacets.cli import main
from sepfacets.graph import serialize_graph, windmill

GOLDEN = Path(__file__).parent / "golden"


def test_sample_windmill_chain_jsonl(tmp_path):
    start = tmp_path / "wm.txt"
    start.write_text(serialize_graph(windmill(13, 6)))
    out = tmp_path / "s.jsonl"
    rc = main(
        [
            "sample", "--n", "13", "--edges", "18", "--samples", "40",
            "--seed", "7", "--initial", str(start), "--format", "jsonl",
            "--deterministic", "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "sample_wm13_e18_s7.jsonl").read_bytes()


def test_count_windmill_21_10(capsys):
    assert main(["count", "--family", "windmill", "21", "10"]) == 0
    got = capsys.readouterr().out.encode()
    assert got == (GOLDEN / "count_windmill_21_10.txt").read_bytes()


def test_enumerate_6_7(tmp_path):
    out = tmp_path / "classes.jsonl"
    assert main(["enumerate", "--n", "6", "--edges", "7", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "enumerate_6_7.jsonl").read_bytes()
