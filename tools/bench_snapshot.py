"""Write one point of the performance trajectory: BENCH_<label>.json.

    python3 tools/bench_snapshot.py LABEL [--against BENCH_<prev>.json]

Runs bench/run.py on every workload of BENCHMARK.json, for its run_seconds
and with seed 1, once with --trace 0 (end-to-end metrics) and once with
--trace 1 (per-layer metrics), in the checkout this file lives in.  The
snapshot records the metrics, each run's correctness, the machine, the
Python version and the git commit, and is written to the root of the
checkout.  With --against it also prints, per workload and
metric, the previous value, the new one and their ratio.  Compare only
snapshots taken on the same machine class: bench/run.py normalises for
load on one host, not across hosts.

A snapshot is one run per workload, and a diff compares two runs taken
at different times.  The drift between such runs exceeds the effects a
change usually has: `setup_s` alone spreads about 12% (IQR) between runs
of the same code, and the traced layers of unchanged code have read
about x1.3 apart between two snapshots.  So a diff shows a trajectory,
not a gain.  To claim a gain, run bench/run.py on the old and the new
tree in alternating pairs on one host and compare the medians against
the spread of the old tree's runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run_bench(workload: str, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_snapshot: {' '.join(cmd[1:])} exited {done.returncode}: "
                 f"{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def snapshot(label: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_bench(workload, seconds, trace)
            entry[key] = {name: m["value"] for name, m in result["metrics"].items()}
            entry[f"{key}_run"] = {k: result[k] for k in ("correct", "attempted", "failed")}
        workloads[workload] = entry
    return {
        "label": label,
        "commit": git("rev-parse", "HEAD"),
        # true when src/ or bench/ differ from that commit
        "dirty": bool(git("status", "--porcelain", "--", "src", "bench")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": workloads,
    }


def diff_lines(old: dict, new: dict) -> list[str]:
    """One line per workload and metric present in either snapshot."""
    lines = [f"{old.get('label')} -> {new.get('label')}"]
    for workload in sorted(set(old["workloads"]) | set(new["workloads"])):
        a, b = old["workloads"].get(workload, {}), new["workloads"].get(workload, {})
        for key in ("end_to_end", "per_layer"):
            ma, mb = a.get(key, {}), b.get(key, {})
            for name in sorted(set(ma) | set(mb)):
                va, vb = ma.get(name), mb.get(name)
                ratio = f"x{vb / va:.3f}" if va and vb is not None else "-"
                lines.append(f"{workload:18s} {name:28s} {_fmt(va):>14s} {_fmt(vb):>14s}  {ratio}")
    return lines


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("label")
    p.add_argument("--against", type=Path, help="an earlier BENCH_*.json to diff against")
    args = p.parse_args(argv)
    old = json.loads(args.against.read_text()) if args.against else None
    snap = snapshot(args.label)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    if old is not None:
        print("\n".join(diff_lines(old, snap)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
