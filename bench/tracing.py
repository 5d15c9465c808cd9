"""Per-layer timing for the traced run.

Layer functions are wrapped at the module attributes through which their
callers look them up, right after each fresh import.  A target that no
longer exists, or a layer that should work on a workload but saw no call,
stops the run: a layer is never reported as zero because its wrapper
missed the call path.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# layer -> the "module.attribute" names its callers use
TARGETS = {
    "facets.count": ("facets.facet_count", "sampler.facet_count"),
    "facets.subgraph": ("facets.facet_count_via_subgraphs",),
    "formulas.closed_form": ("formulas.closed_form_count",),
    "formulas.paths": ("conjectures.parallel_paths_count",),
    "formulas.double_cycle_max": ("conjectures.double_cycle_max",),
    "enumeration.canonical_form": ("enumeration.canonical_form",),
    "enumeration.canonical_graph": ("enumeration.canonical_graph",),
}

# layers that must see calls on each workload
ACTIVE = {
    "formula-sweep": ("formulas.paths", "formulas.double_cycle_max"),
    "windmill-sampling": ("facets.count",),
    "sparse-classes": (
        "facets.count", "facets.subgraph", "formulas.closed_form",
        "enumeration.canonical_form", "enumeration.canonical_graph",
    ),
}

# name -> unit; layers that do no work on a workload report 0
METRICS = {
    "facets.count_s": "s",
    "facets.us_per_facet": "us",
    "facets.facets": "count",
    "facets.subgraph_s": "s",
    "enumeration.level_s": "s",
    "enumeration.canonical_calls": "count",
    "enumeration.canonical_us": "us",
    "enumeration.classes": "count",
    "enumeration.dedupe_ratio": "ratio",
    "formulas.triples": "count",
    "formulas.us_per_triple": "us",
    "formulas.closed_form_s": "s",
    "conjectures.self_s": "s",
    "sampler.steps": "count",
    "sampler.steps_per_s": "1/s",
    "sampler.accept_ratio": "ratio",
}


class TraceError(RuntimeError):
    pass


class Tracer:
    """Calls, normalised seconds and summed integer results per layer."""

    def __init__(self, clock):
        self.clock = clock
        self.calls: Counter = Counter()
        self.results: Counter = Counter()
        self._raw = defaultdict(lambda: defaultdict(float))  # layer -> group -> s

    def install(self, mods) -> None:
        for layer, targets in TARGETS.items():
            for target in targets:
                module_name, attr = target.split(".")
                module = getattr(mods, module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise TraceError(f"trace target sepfacets.{target} no longer exists")
                setattr(module, attr, self._wrap(layer, fn))

    def _wrap(self, layer: str, fn):
        clock, calls, results, raw = self.clock, self.calls, self.results, self._raw

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            raw[layer][clock.group] += time.perf_counter() - t0
            calls[layer] += 1
            if type(out) is int:
                results[layer] += out
            return out

        return traced

    def seconds(self, layer: str) -> float:
        return float(sum(self.clock.norm(s, g) for g, s in self._raw[layer].items()))

    def require(self, workload: str) -> None:
        idle = [layer for layer in ACTIVE[workload] if not self.calls[layer]]
        if idle:
            raise TraceError(f"{workload}: no calls reached {', '.join(idle)}")


def layer_metrics(workload: str, tracer: Tracer, op_s: float, level_s: float,
                  classes: int, steps: int, accepted: int) -> dict:
    """Per-layer figures of one traced round.

    op_s is the round's normalised op time, level_s its enumeration time;
    classes, steps and accepted are counted by the benchmark itself.
    """
    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls, sec = tracer.calls, tracer.seconds
    count_s = sec("facets.count")
    facets = tracer.results["facets.count"]
    paths_s = sec("formulas.paths")
    sweep_s = op_s - paths_s - sec("formulas.double_cycle_max") if workload == "formula-sweep" else 0.0
    chain_s = op_s - count_s if workload == "windmill-sampling" else 0.0
    return {
        "facets.count_s": count_s,
        "facets.us_per_facet": per(count_s * 1e6, facets),
        "facets.facets": facets,
        "facets.subgraph_s": sec("facets.subgraph"),
        "enumeration.level_s": level_s,
        "enumeration.canonical_calls": calls["enumeration.canonical_form"],
        "enumeration.canonical_us": per(sec("enumeration.canonical_form") * 1e6,
                                        calls["enumeration.canonical_form"]),
        "enumeration.classes": classes,
        "enumeration.dedupe_ratio": per(classes, calls["enumeration.canonical_graph"]),
        "formulas.triples": calls["formulas.paths"],
        "formulas.us_per_triple": per(paths_s * 1e6, calls["formulas.paths"]),
        "formulas.closed_form_s": sec("formulas.closed_form"),
        "conjectures.self_s": sweep_s,
        "sampler.steps": steps,
        "sampler.steps_per_s": per(steps, chain_s),
        "sampler.accept_ratio": per(accepted, steps),
    }
