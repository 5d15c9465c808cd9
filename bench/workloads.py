"""The three workloads: inputs made from the seed, and one round of ops.

Every round starts from a fresh import of sepfacets, so no module-level
cache carries over from one round to the next, and every round of a run
attempts the same ops.  Ops call the library's public functions, looked up
through their modules at call time so that the traced run can wrap them.
Outputs are copied into plain tuples and dicts: graphs from different
rounds come from different imports and do not compare equal as objects.
"""

from __future__ import annotations

import gc
import importlib
import random
import sys
from types import SimpleNamespace

WORKLOADS = ("formula-sweep", "windmill-sampling", "sparse-classes")

FORMULA_BAND = range(150, 200)  # check_mixed_cb(n); cost grows about as n^3
WINDMILL_N, WINDMILL_E, WINDMILL_R = 13, 18, 6
WINDMILL_RECORDS = 160  # records per round: one chain from the windmill
WINDMILL_REPLAY = 20  # records replayed when only one round fitted
SPARSE_LEVELS = tuple((n, e) for n in range(3, 10) for e in (n - 1, n, n + 1))


def fresh_sepfacets() -> SimpleNamespace:
    """Import sepfacets anew, dropping every module of an earlier import."""
    for name in [m for m in sys.modules if m == "sepfacets" or m.startswith("sepfacets.")]:
        del sys.modules[name]
    gc.collect()
    mods = SimpleNamespace()
    for name in ("graph", "facets", "formulas", "enumeration", "conjectures", "sampler"):
        setattr(mods, name, importlib.import_module(f"sepfacets.{name}"))
    return mods


def inputs(workload: str, seed: int, mods: SimpleNamespace):
    """What one round runs on; the same seed always gives the same inputs."""
    rng = random.Random(seed)
    if workload == "formula-sweep":
        band = list(FORMULA_BAND)
        rng.shuffle(band)  # the order only: every seed sweeps the same band
        return band
    if workload == "windmill-sampling":
        start = mods.graph.windmill(WINDMILL_N, WINDMILL_R)
        return mods.sampler.ChainConfig.for_samples(
            WINDMILL_N, WINDMILL_E, WINDMILL_RECORDS, seed=seed, burn_in=0, initial=start
        )
    if workload == "sparse-classes":
        return rng.getrandbits(64)  # shuffles the audit order inside each level
    raise ValueError(f"unknown workload {workload!r}")


def run_round(workload: str, seed: int, clock, on_import=None,
              records: int = WINDMILL_RECORDS) -> SimpleNamespace:
    """One round from a fresh import.

    Returns ``ops`` (a dict per op with its raw time, group and outputs)
    and ``segments`` (untimed-as-op work that still counts towards
    throughput: class enumeration).  ``on_import`` sees the fresh modules
    before the first op, which is where the tracer wraps them.  ``records``
    shortens a windmill round to a prefix of its chain.
    """
    mods = fresh_sepfacets()
    if on_import is not None:
        on_import(mods)
    data = inputs(workload, seed, mods)
    clock.close()  # the first op starts right after a reference timing
    ops: list[dict] = []
    segments: list[tuple[float, int]] = []
    if workload == "formula-sweep":
        for n in data:
            rep, raw, g = clock.measure(mods.conjectures.check_mixed_cb, n)
            ops.append({
                "raw": raw, "group": g, "n": n, "status": rep.status,
                "max": int(rep.max), "triples": rep.params.get("triples"),
            })
    elif workload == "windmill-sampling":
        chain = mods.sampler.run_chain(data)
        for index in range(records):
            rec, raw, g = clock.measure(next, chain)
            ops.append({
                "raw": raw, "group": g, "index": index, "step": rec.step,
                "count": rec.count, "n": rec.graph.n, "edges": tuple(rec.graph.edges),
            })
    else:
        rng = random.Random(data)

        def level(n: int, e: int) -> list:
            return list(mods.enumeration.connected_graphs(n, e, guard=None))

        def audit(g):
            return (
                mods.facets.facet_count(g),
                mods.facets.facet_count_via_subgraphs(g),
                mods.formulas.closed_form_count(g),
            )

        for n, e in SPARSE_LEVELS:
            classes, raw, g = clock.measure(level, n, e)
            segments.append((raw, g))
            rng.shuffle(classes)
            for cls in classes:
                (walk, sub, closed), raw, g = clock.measure(audit, cls)
                ops.append({
                    "raw": raw, "group": g, "n": n, "e": e, "edges": tuple(cls.edges),
                    "walk": walk, "subgraphs": sub, "closed": closed,
                })
    clock.close()
    return SimpleNamespace(ops=ops, segments=segments)
