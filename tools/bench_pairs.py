"""Compare two checkouts on one workload in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed N]

Runs bench/run.py --trace 0 in each checkout, once per side in each pair:
the parent first in odd pairs and the change first in even ones, so drift
on the host falls on both sides alike.  Every run uses the same seed and
the run_seconds of BENCHMARK.json.  A run that exits nonzero or reports a
failed or incorrect op stops the comparison.

After the pairs, one line per end-to-end metric of BENCHMARK.json gives
each side's median and quartiles, the ratio of the medians, and how many
pairs the change won (ties count for neither side).  The verdict is
"gain" only when the change wins at least nine tenths of the pairs and
its median is better than the parent's by more than the parent's
interquartile range; "worse" when the change's median is worse than the
parent's by more than the metric's bound; "unresolved" when the parent's
own spread is wider than that bound; otherwise "no change shown".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(root: Path, workload: str, seed: int, seconds: int) -> dict[str, float]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd[1:])} in {root} exited {done.returncode}: "
                 f"{done.stderr.strip()}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_pairs: {workload} in {root}: {result['failed']} of "
                 f"{result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """The verdict on one metric and the change's win count, for values
    paired by index."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, mid, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (statistics.median(change) - mid)
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return "gain", wins
    if -gain > bound * mid:
        return "worse", wins
    if q3 - q1 > bound * mid:
        return "unresolved", wins
    return "no change shown", wins


def summary_lines(metrics: list[dict], runs: list[tuple[dict, dict]]) -> list[str]:
    """One line per metric spec of BENCHMARK.json's end_to_end list."""
    lines = []
    for spec in metrics:
        name = spec["name"]
        parent = [p[name] for p, _ in runs]
        change = [c[name] for _, c in runs]
        (pq1, pmid, pq3), (cq1, cmid, cq3) = (statistics.quantiles(v, n=4) for v in (parent, change))
        word, wins = verdict(parent, change, spec["better"], spec["bound"])
        lines.append(f"{name:12s} parent {pmid:.6g} [{pq1:.6g}, {pq3:.6g}]  change {cmid:.6g} "
                     f"[{cq1:.6g}, {cq3:.6g}]  x{cmid / pmid:.3f}  wins {wins}/{len(runs)}  {word}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_bench(getattr(args, side), args.workload, args.seed, seconds) for side in order}
        runs.append((got["parent"], got["change"]))
        print(f"# pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{name} {got['parent'][name]:.6g}/{got['change'][name]:.6g}" for name in got["parent"]),
            flush=True)
    print(f"{args.workload} seed={args.seed} seconds={seconds} pairs={args.pairs} (parent/change above)")
    print("\n".join(summary_lines(spec["end_to_end"], runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
