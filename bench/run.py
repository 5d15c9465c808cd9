"""Host-normalised benchmark of sepfacets.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sepfacets is imported from its
src/ directory.  Workloads: formula-sweep, windmill-sampling,
sparse-classes (see README.md).  With --trace 0 the run repeats whole
rounds of its workload for about S seconds and reports the end-to-end
metrics; with --trace 1 it runs one round untraced and the same round
traced, reports the per-layer metrics and prints the tracing overhead.
Every output is checked outside the timed regions; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostref import NOMINAL_START_S, HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median raw and normalised time from spawning a fresh interpreter to
    its first op being ready.

    Start-up is mostly file and memory work that the kernel does not track,
    so its reference is the start of a bare interpreter, spawned right
    before each probe: (median probe) * NOMINAL_START_S / (median start).
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)]
    bare = [sys.executable, "-c", "import time; print(time.perf_counter())"]

    def ready(cmd) -> float:
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout.split()[-1]) - t0  # perf_counter is system-wide here

    starts, probes = [], []
    for _ in range(SETUP_PROBES):
        starts.append(ready(bare))
        probes.append(ready(probe))
    mid = statistics.median(probes)
    return mid, mid * NOMINAL_START_S / statistics.median(starts)


def tag(rnd, index: int) -> list[dict]:
    for op in rnd.ops:
        op["round"] = index
    return rnd.ops


def normalised(clock, ops) -> list[float]:
    return [clock.norm(op["raw"], op["group"]) for op in ops]


def check(workload: str, ops) -> tuple[int, list]:
    """Failed-op count and failures; exits when a check proves vacuous.
    The second counting path comes from an import no tracer has wrapped."""
    from checks import CHECKERS, failed_ops, self_test
    from workloads import WINDMILL_N, fresh_sepfacets

    ref = None
    if workload == "windmill-sampling":
        mods = fresh_sepfacets()
        cache: dict = {}

        def ref(edges):
            if edges not in cache:
                g = mods.graph.Graph(WINDMILL_N, edges)
                cache[edges] = mods.facets.facet_count_via_subgraphs(g)
            return cache[edges]

    failures = CHECKERS[workload](ops, ref)
    caught, missed = self_test(workload, ops, ref)
    if missed:
        sys.exit(f"bench: checks missed corrupted results: {', '.join(missed)}")
    print(f"# self-test: the checks caught all {caught} corrupted results")
    return failed_ops(failures), failures


def accepted_moves(seed: int) -> tuple[int, int]:
    """Replay a windmill round's chain through iter_states: (steps, accepted moves)."""
    from workloads import fresh_sepfacets, inputs

    mods = fresh_sepfacets()
    cfg = inputs("windmill-sampling", seed, mods)
    steps = accepted = 0
    last = None
    for step, mask, _pairs in mods.sampler.iter_states(cfg):
        if last is not None:
            steps += 1
            accepted += mask != last
        last = mask
    return steps, accepted


def report_failures(failures) -> None:
    for _where, name, detail in failures:
        print(f"# FAILED {name}: {detail}")


def run_plain(args, clock) -> dict:
    from workloads import WINDMILL_REPLAY, run_round

    setup_raw, setup_norm = setup_seconds(args.workload, args.seed)
    rounds = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(args.workload, args.seed, clock))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if len(rounds) == 1:  # later rounds re-import and only add allocator slack
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if now - start + longest > args.seconds:
            break
    ops = [op for i, rnd in enumerate(rounds) for op in tag(rnd, i)]
    if args.workload == "windmill-sampling" and len(rounds) < 2:
        replay = run_round(args.workload, args.seed, HostClock(), records=WINDMILL_REPLAY)
        ops += tag(replay, 1)  # untimed: only checked against the first round
    failed, failures = check(args.workload, ops)
    timed = [op for rnd in rounds for op in rnd.ops]
    op_norm = normalised(clock, timed)
    seg_raw = [raw for rnd in rounds for raw, _g in rnd.segments]
    seg_norm = [clock.norm(raw, g) for rnd in rounds for raw, g in rnd.segments]
    busy_norm = sum(op_norm) + sum(seg_norm)
    busy_raw = sum(op["raw"] for op in timed) + sum(seg_raw)
    p50_norm = statistics.median(op_norm)
    p50_raw = statistics.median(op["raw"] for op in timed)
    print(f"# {args.workload} seed={args.seed}: {len(rounds)} round(s), {len(timed)} ops, "
          f"{len(clock.refs)} reference timings, median {statistics.median(clock.refs):.5f} s")
    print(f"#   ops_per_s    norm {len(timed) / busy_norm:.4f}  raw {len(timed) / busy_raw:.4f}"
          f"  scale {busy_raw / busy_norm:.4f} (raw s per normalised s)")
    print(f"#   op_ms_p50    norm {1000 * p50_norm:.4f}  raw {1000 * p50_raw:.4f}"
          f"  scale {p50_raw / p50_norm:.4f}")
    print(f"#   setup_s      norm {setup_norm:.5f}  raw {setup_raw:.5f}"
          f"  scale {setup_raw / setup_norm:.4f}")
    print(f"#   peak_rss_mb  {rss_mb:.3f}")
    report_failures(failures)
    return {
        "correct": not failures, "attempted": len(timed), "failed": failed,
        "metrics": {
            "ops_per_s": {"value": len(timed) / busy_norm, "unit": "1/s"},
            "op_ms_p50": {"value": 1000 * p50_norm, "unit": "ms"},
            "setup_s": {"value": setup_norm, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


def run_traced(args, clock) -> dict:
    from tracing import METRICS, Tracer, layer_metrics
    from workloads import run_round

    plain = run_round(args.workload, args.seed, clock)
    tracer = Tracer(clock)
    traced = run_round(args.workload, args.seed, clock, on_import=tracer.install)
    tracer.require(args.workload)

    def segments_s(rnd) -> float:
        return float(sum(clock.norm(raw, g) for raw, g in rnd.segments))

    steps = accepted = 0
    if args.workload == "windmill-sampling":
        steps, accepted = accepted_moves(args.seed)
    values = layer_metrics(
        args.workload, tracer,
        op_s=sum(normalised(clock, traced.ops)),
        level_s=segments_s(traced),
        classes=len(traced.ops) if args.workload == "sparse-classes" else 0,
        steps=steps, accepted=accepted,
    )
    failed, failures = check(args.workload, tag(plain, 0) + tag(traced, 1))
    untraced_s = sum(normalised(clock, plain.ops)) + segments_s(plain)
    traced_s = sum(normalised(clock, traced.ops)) + segments_s(traced)
    print(f"# {args.workload} seed={args.seed}: tracing overhead "
          f"{traced_s - untraced_s:+.4f} s on {untraced_s:.4f} s "
          f"({100 * (traced_s / untraced_s - 1):+.2f}%), normalised")
    for name in METRICS:
        print(f"#   {name:28s} {values[name]}")
    report_failures(failures)
    return {
        "correct": not failures, "attempted": len(plain.ops) + len(traced.ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sepfacets" / "__init__.py").is_file():
        print(f"bench: no sepfacets sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, fresh_sepfacets, inputs

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.probe:
        inputs(args.workload, args.seed, fresh_sepfacets())
        print(time.perf_counter())
        return 0
    from tracing import TraceError

    try:
        result = (run_traced if args.trace else run_plain)(args, HostClock())
    except TraceError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
