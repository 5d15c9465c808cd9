"""The benchmark's call paths into sepfacets still resolve.

The traced benchmark wraps module attributes named in bench/tracing.py
and steps the chain through sampler.iter_states; a rename or a dropped
import there breaks `bench/run.py --trace 1` long after the change."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_and_chain_steps_resolve():
    tracing = _load_tracing()
    targets = [t for layer in tracing.TARGETS.values() for t in layer]
    targets.append("sampler.iter_states")
    before = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "sepfacets"}
    try:
        for name in before:  # import afresh, as each benchmark round does
            del sys.modules[name]
        missing = []
        for target in targets:
            module_name, attr = target.split(".")
            module = importlib.import_module(f"sepfacets.{module_name}")
            if not callable(getattr(module, attr, None)):
                missing.append(target)
        assert missing == []
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] == "sepfacets"]:
            del sys.modules[name]
        sys.modules.update(before)
