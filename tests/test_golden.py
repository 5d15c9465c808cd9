"""Byte-for-byte comparison of deterministic CLI outputs with checked-in
golden files.  The sample, count and enumerate files were produced before
the frontier counting engine replaced the labeling walk in facet_count, so
they pin that no count, sample or class listing changed with the engine.

The formula, count --family and verify transcripts pin every family and
every check: each command is written as "$ argv", its exit code, its
stdout and its stderr lines prefixed "! ".  Report lines lose only their
wall-clock field elapsed_ms.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

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
            "--out", str(out),
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


FORMULA = [
    "cycle 7", "tree 9", "cycle-path 9 5", "two-cycles 9 5 5", "paths 7 4 3 2",
    "theta 5 4", "windmill 13 6", "wedge-cycles 5 3 2", "wedge-cycles 2 4",
    "max-bicyclic 1001",
]
COUNT_FAMILY = [
    "cycle 7", "tree 9", "cycle-path 9 5", "two-cycles 9 3 5", "paths 7 4 3 2",
    "theta 4 3", "windmill 9 4", "wedge-cycles 5 3 4",
]
VERIFY = [
    "nnmax --n 3 --max-n 7", "nnmax --n 9", "nn1 --n 5 --max-n 7",
    "windmill --n 5 --max-n 7", "windmill --n 5", "windmill --n 7",
    "windmill --n 9 --samples 20 --seed 7", "disjoint --n 5 --max-n 12",
    "fbounds --n 4 --max-n 30", "f-leq-m --n 4 --max-n 30", "mixed-cb --n 10 --max-n 30",
    "cb-bound --max-n 500", "identities --max-n 300",
    "windmill --n 21 --samples 40 --seed 7", "nnmax --n 8", "nn1 --n 8",
    "windmill --n 31 --samples 8 --seed 7",
]
ELAPSED = re.compile(r'"elapsed_ms": \d+, ')


def _transcript(prefix, commands):
    parts = []
    for command in commands:
        argv = prefix + command.split()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        parts.append(f"$ {' '.join(argv)}\n[exit {rc}]\n" + ELAPSED.sub("", out.getvalue()))
        parts.extend(f"! {line}\n" for line in err.getvalue().splitlines())
    return "".join(parts)


@pytest.mark.parametrize(
    "name, prefix, commands",
    [
        ("formula", ["formula"], FORMULA),
        ("count_family", ["count", "--family"], COUNT_FAMILY),
        ("verify", ["verify"], VERIFY),
    ],
)
def test_transcript(name, prefix, commands):
    got = _transcript(prefix, commands)
    assert got.encode() == (GOLDEN / f"{name}.txt").read_bytes()
