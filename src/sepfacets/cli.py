"""Command-line front end: counting, family formulas, conjecture sweeps,
chain sampling, and class enumeration.

Exit codes: 0 success / everything verified; 1 usage or input error;
2 a verification sweep found a counterexample; 3 a resource guard refused
the request.  Counts are always printed as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import conjectures
from .enumeration import DEFAULT_GUARD, GuardExceeded, connected_graphs
from .facets import facet_count
from .formulas import FamilySpec, decimal
from .graph import ParseError, graph_from_json, graph_to_json, parse_graph
from .sampler import ChainConfig, figure_csv_lines, records_jsonl_lines, run_chain

GUARD_ENV = "SEP_FACETS_GUARD"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_graph(path: str):
    text = Path(path).read_text()
    if text.lstrip().startswith(("{", "[")):
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ParseError("JSON graph is nested too deeply") from None
        return graph_from_json(obj)
    return parse_graph(text)


def _effective_guard() -> int:
    env = os.environ.get(GUARD_ENV)
    if env:
        try:
            guard = int(env)
        except ValueError:
            guard = 0
        if not 1 <= guard <= DEFAULT_GUARD:
            raise ValueError(f"{GUARD_ENV} must be an integer from 1 to {DEFAULT_GUARD}, got {env!r}")
        return guard
    return DEFAULT_GUARD


def _build_parser() -> _Parser:
    p = _Parser(prog="sepfacets", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("count", help="facet count of one graph")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--edges", metavar="FILE", help="edge-list or JSON graph file")
    src.add_argument(
        "--family",
        nargs="+",
        metavar="SPEC",
        help="family name and integer parameters, e.g. --family windmill 7 3",
    )

    f = sub.add_parser("formula", help="closed-form family count")
    f.add_argument("family", help="family name, e.g. cycle, theta, windmill")
    f.add_argument("params", nargs="+", type=int, help="family parameters")

    v = sub.add_parser("verify", help="run a verification sweep")
    checks = v.add_subparsers(dest="check", required=True, parser_class=_Parser)
    for name in PER_N:
        c = checks.add_parser(name)
        c.add_argument("--n", type=int, required=True, help="first (or only) parameter value")
        c.add_argument("--max-n", type=int, help="sweep up to this value inclusive")
        if name == "windmill":
            c.add_argument("--samples", type=int, default=200, help="sampling size beyond the guard")
            c.add_argument("--seed", type=int, default=2022, help="sampling seed beyond the guard")
    checks.add_parser("cb-bound").add_argument("--max-n", type=int, required=True, help="scan n = 10..max-n")
    checks.add_parser("identities").add_argument("--max-n", type=int, default=10000, help="k_max")

    s = sub.add_parser("sample", help="run a seeded sampling chain")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--edges", type=int, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--burn-in", type=int, default=None)
    s.add_argument("--thin", type=int, default=None)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--format", choices=["scatter", "histogram", "jsonl"], default="scatter")
    s.add_argument("--initial", metavar="FILE", help="starting graph (edge-list or JSON)")
    s.add_argument(
        "--deterministic",
        action="store_true",
        help="suppress the timestamp so equal seeds give byte-identical output",
    )

    e = sub.add_parser("enumerate", help="list isomorphism classes")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--edges", type=int, required=True)
    e.add_argument("--out", required=True)
    return p


# per-n check name -> check(n, args, guard); each looks its conjectures.check_*
# up at call time
PER_N = {
    "nnmax": lambda n, a, guard: conjectures.check_nn_max(n, guard=guard),
    "disjoint": lambda n, a, guard: conjectures.check_disjoint_cycle_bound(n),
    "fbounds": lambda n, a, guard: conjectures.check_f_bounds(n),
    "f-leq-m": lambda n, a, guard: conjectures.check_general_f_leq_m(n),
    "mixed-cb": lambda n, a, guard: conjectures.check_mixed_cb(n),
    "nn1": lambda n, a, guard: conjectures.check_nn1_exhaustive(n, guard=guard),
    "windmill": lambda n, a, guard: conjectures.check_windmill(n, guard=guard, samples=a.samples, seed=a.seed),
}


def _timed(check, *args) -> conjectures.ConjectureReport:
    """check(*args), with its wall time stamped in elapsed_ms."""
    t0 = time.perf_counter()
    rep = check(*args)
    rep.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return rep


def _run_verify(args) -> int:
    guard = _effective_guard()
    if args.check == "cb-bound":
        reports = [_timed(conjectures.check_cb_maximizer_bound, args.max_n)]
    elif args.check == "identities":
        reports = [_timed(conjectures.check_identities, args.max_n)]
    else:
        last = args.n if args.max_n is None else args.max_n
        if last < args.n:
            raise ValueError(f"--max-n ({last}) is below --n ({args.n})")
        # windmill classes exist only at odd n, so an odd --n walks n, n+2,
        # ... and an even --n fails on its first check
        step = 2 if args.check == "windmill" else 1
        reports = [_timed(PER_N[args.check], n, args, guard) for n in range(args.n, last + 1, step)]
    for rep in reports:
        print(json.dumps(rep.to_json(), sort_keys=True))
    return 2 if any(r.status == "counterexample" for r in reports) else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "count":
            if args.edges:
                g = _load_graph(args.edges)
            else:
                g = FamilySpec.parse(args.family).graph()
            print(decimal(facet_count(g)))
            return 0
        if args.command == "formula":
            spec = FamilySpec(args.family, tuple(args.params))
            print(decimal(spec.count()))
            return 0
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "sample":
            initial = _load_graph(args.initial) if args.initial else None
            cfg = ChainConfig.for_samples(
                args.n,
                args.edges,
                args.samples,
                seed=args.seed,
                burn_in=args.burn_in,
                thin=args.thin,
                initial=initial,
            )
            if args.format == "jsonl":
                lines = records_jsonl_lines(run_chain(cfg), cfg, args.deterministic)
            else:
                lines = figure_csv_lines(run_chain(cfg), args.format, cfg, args.deterministic)
            with open(args.out, "w") as out:  # each line goes out as its record arrives
                out.writelines(lines)
            return 0
        if args.command == "enumerate":
            lines = [
                json.dumps(graph_to_json(g))
                for g in connected_graphs(args.n, args.edges, guard=_effective_guard())
            ]
            Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""))
            return 0
    except GuardExceeded as exc:
        print(f"sepfacets: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ParseError and MultigraphError too
        print(f"sepfacets: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
