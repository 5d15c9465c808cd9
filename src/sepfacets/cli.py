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
from pathlib import Path

from . import conjectures
from .enumeration import DEFAULT_GUARD, GuardExceeded, connected_graphs
from .facets import facet_count
from .formulas import FamilySpec, decimal
from .graph import ParseError, graph_from_json, graph_to_json, parse_graph
from .sampler import ChainConfig, figure_csv, records_jsonl, run_chain

GUARD_ENV = "SEP_FACETS_GUARD"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
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
    f.add_argument("--tail", type=int, default=0, help="trailing pendant edges (wedge-cycles)")

    v = sub.add_parser("verify", help="run a verification sweep")
    v.add_argument("check", choices=list(CHECKS))
    v.add_argument("--n", type=int, help="first (or only) parameter value")
    v.add_argument("--max-n", type=int, help="sweep up to this value inclusive")
    v.add_argument("--skip-leaves", action="store_true", help="nn1: skip classes with a leaf")
    v.add_argument("--bound-only", action="store_true", help="mixed-cb: maximizer-vs-bound scan only")
    v.add_argument("--samples", type=int, default=200, help="windmill sampling size beyond the guard")
    v.add_argument("--seed", type=int, default=2022, help="windmill sampling seed")

    s = sub.add_parser("sample", help="run a seeded sampling chain")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--edges", type=int, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--burn-in", type=int, default=None)
    s.add_argument("--thin", type=int, default=None)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    s.add_argument("--mode", choices=["scatter", "histogram"], default="scatter")
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


def _per_n(check, stride=1):
    """Runner calling check(n, args, guard) for n = --n, --n + stride, ...
    up to --max-n."""

    def run(args, guard):
        if args.n is None:
            raise ValueError(f"--n is required for {args.check}")
        last = args.max_n if args.max_n is not None else args.n
        if last < args.n:
            raise ValueError(f"--max-n ({last}) is below --n ({args.n})")
        return [check(n, args, guard) for n in range(args.n, last + 1, stride)]

    return run


def _mixed_cb(args, guard):
    if not args.bound_only:
        return _per_n(lambda n, a, guard: conjectures.check_mixed_cb(n))(args, guard)
    if args.max_n is None:
        raise ValueError("--max-n is required for --bound-only")
    return [conjectures.check_cb_maximizer_bound(args.max_n)]


# check name -> runner(args, guard) returning the reports; every runner
# looks its conjectures.check_* up at call time
CHECKS = {
    "nnmax": _per_n(lambda n, a, guard: conjectures.check_nn_max(n, guard=guard)),
    "disjoint": _per_n(lambda n, a, guard: conjectures.check_disjoint_cycle_bound(n)),
    "fbounds": _per_n(lambda n, a, guard: conjectures.check_f_bounds(n)),
    "f-leq-m": _per_n(lambda n, a, guard: conjectures.check_general_f_leq_m(n)),
    "mixed-cb": _mixed_cb,
    "nn1": _per_n(
        lambda n, a, guard: conjectures.check_nn1_exhaustive(
            n, guard=guard, skip_leaves=a.skip_leaves
        )
    ),
    # windmill classes exist only at odd n, so an odd --n walks n, n+2, ...
    # and an even --n fails on its first check
    "windmill": _per_n(
        lambda n, a, guard: conjectures.check_windmill(
            n, guard=guard, samples=a.samples, seed=a.seed
        ),
        stride=2,
    ),
    "identities": lambda a, guard: [
        conjectures.check_identities(a.max_n if a.max_n is not None else 10000)
    ],
}


def _run_verify(args) -> int:
    reports = CHECKS[args.check](args, _effective_guard())
    for rep in reports:
        print(json.dumps(rep.to_json(), sort_keys=True))
    if any(r.status == "counterexample" for r in reports):
        return 2
    return 0


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
            spec = FamilySpec(args.family, tuple(args.params), args.tail)
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
            records = list(run_chain(cfg))
            if args.format == "csv":
                text = figure_csv(records, args.mode, cfg, args.deterministic)
            else:
                text = records_jsonl(records, cfg, args.deterministic)
            Path(args.out).write_text(text)
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
