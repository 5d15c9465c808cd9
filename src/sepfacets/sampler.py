"""Seeded Markov-chain sampling of connected graphs with fixed vertex and
edge counts, by single-edge replacement.

One step: draw an edge e uniformly from the graph and a non-edge f
uniformly from its complement; if swapping e for f leaves the graph
connected, move there, otherwise stay put.  Rejections and frozen states
(complete graphs have no non-edges) still advance the step counter, so the
chain is lazy.  The move graph on any (n, e) slice is regular, symmetric
(each swap is its own inverse) and connected, which makes the stationary
distribution uniform over labeled connected graphs.

Determinism: a chain is fully determined by its config, including the
64-bit seed.  The generator is Python's Mersenne Twister used through
integer draws only (no floats), recorded in output metadata as
"python-random-mt19937".
"""

from __future__ import annotations

import datetime
import json
import math
from bisect import insort
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .facets import facet_count
from .enumeration import GuardExceeded
from .graph import Graph, cycle, graph_to_json, is_connected, path

RNG_ID = "python-random-mt19937"

_CONNECTIVITY_CACHE_CAP = 1 << 18

# A chain state holds all C(n, 2) vertex pairs (about 166 MB at n = 1024),
# so larger n is refused before anything is allocated.
MAX_CHAIN_VERTICES = 1024


def default_burn_in(n: int, e: int) -> int:
    """Heuristic default: 10 sweeps of e * C(n, 2) proposals."""
    return 10 * e * (n * (n - 1) // 2)


def default_thinning(n: int, e: int) -> int:
    """Heuristic default: one sweep of e * C(n, 2) proposals per sample."""
    return e * (n * (n - 1) // 2)


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of one chain run; immutable and fully reproducible."""

    n: int
    e: int
    steps: int
    burn_in: int
    thin: int
    seed: int
    initial: Graph | None = None

    def __post_init__(self):
        if self.n > MAX_CHAIN_VERTICES:
            raise GuardExceeded(
                f"a chain on n={self.n} vertices exceeds the limit of {MAX_CHAIN_VERTICES}"
            )
        max_e = self.n * (self.n - 1) // 2
        if self.n < 1 or not self.n - 1 <= self.e <= max_e:
            raise ValueError(
                f"no connected graphs with n={self.n}, e={self.e}"
            )
        if self.thin < 1:
            raise ValueError(f"thinning must be >= 1, got {self.thin}")
        if not 0 <= self.burn_in <= self.steps:
            raise ValueError(
                f"burn-in must lie in [0, steps], got {self.burn_in} of {self.steps}"
            )
        if self.initial is not None:
            if self.initial.n != self.n or self.initial.m != self.e:
                raise ValueError("initial graph does not match (n, e)")
            if not is_connected(self.initial):
                raise ValueError("initial graph must be connected")

    @classmethod
    def for_samples(
        cls,
        n: int,
        e: int,
        samples: int,
        seed: int,
        burn_in: int | None = None,
        thin: int | None = None,
        initial: Graph | None = None,
    ) -> "ChainConfig":
        """Config sized to emit exactly `samples` records: one at the end
        of burn-in and one every `thin` steps after that."""
        if samples < 1:
            raise ValueError(f"need >= 1 samples, got {samples}")
        if burn_in is None:
            burn_in = default_burn_in(n, e)
        if thin is None:
            thin = default_thinning(n, e)
        steps = burn_in + (samples - 1) * thin
        return cls(n, e, steps, burn_in, thin, seed, initial)

    def metadata(self) -> dict:
        return {
            "rng": RNG_ID,
            "seed": self.seed,
            "n": self.n,
            "e": self.e,
            "steps": self.steps,
            "burn_in": self.burn_in,
            "thin": self.thin,
        }


@dataclass(frozen=True)
class SampleRecord:
    """One emitted state: the step index at which it was recorded, its
    exact facet count, and the graph itself."""

    step: int
    count: int
    graph: Graph

    @property
    def log10_count(self) -> float:
        """Base-10 log of the facet count; display only, never used in checks."""
        return math.log10(self.count)


def default_initial(n: int, e: int) -> Graph:
    """Deterministic starting state: a cycle plus the lexicographically
    smallest chords (a path when e = n - 1 leaves no room for a cycle)."""
    if n == 1:
        return Graph(1, ())
    if e == n - 1:
        return path(n - 1) if n >= 2 else Graph(1, ())
    if n == 2:
        return path(1)
    base = list(cycle(n).edges)
    have = set(base)
    for u in range(n):
        if len(base) == e:
            break
        for v in range(u + 1, n):
            if (u, v) not in have:
                base.append((u, v))
                have.add((u, v))
                if len(base) == e:
                    break
    return Graph(n, tuple(base))


class _ChainState:
    """Edge set as a bitmask over the C(n, 2) vertex pairs, with sorted
    index lists for uniform edge / non-edge draws."""

    def __init__(self, n: int, g: Graph):
        self.n = n
        self.pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        self.index = {p: i for i, p in enumerate(self.pairs)}
        self.edges = sorted(self.index[e] for e in g.edges)
        self.non_edges = sorted(set(range(len(self.pairs))) - set(self.edges))
        self.mask = 0
        for i in self.edges:
            self.mask |= 1 << i
        self._connected_memo: dict[int, bool] = {}

    def graph(self) -> Graph:
        return Graph(self.n, tuple(self.pairs[i] for i in self.edges))

    def _connected_mask(self, mask: int) -> bool:
        memo = self._connected_memo
        hit = memo.get(mask)
        if hit is not None:
            return hit
        adj = [0] * self.n
        m = mask
        while m:
            low = m & -m
            u, v = self.pairs[low.bit_length() - 1]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            m ^= low
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & ~seen
            seen |= frontier
        ok = seen == (1 << self.n) - 1
        if len(memo) < _CONNECTIVITY_CACHE_CAP:
            memo[mask] = ok
        return ok

    def step(self, rng: Random) -> bool:
        """One edge-replacement proposal; True when the move was accepted."""
        if not self.non_edges:
            return False  # complete graph: the chain is frozen
        e_at = rng.randrange(len(self.edges))
        f_at = rng.randrange(len(self.non_edges))
        e_idx = self.edges[e_at]
        f_idx = self.non_edges[f_at]
        new_mask = (self.mask ^ (1 << e_idx)) | (1 << f_idx)
        if not self._connected_mask(new_mask):
            return False
        self.mask = new_mask
        self.edges.pop(e_at)
        insort(self.edges, f_idx)
        self.non_edges.pop(f_at)
        insort(self.non_edges, e_idx)
        return True


def iter_states(cfg: ChainConfig) -> Iterator[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """Every chain state in order: (step, edge bitmask, pair table is
    implied by n).  Step 0 is the initial state; facet counts are not
    computed here, so uniformity tests can consume millions of steps."""
    start = cfg.initial if cfg.initial is not None else default_initial(cfg.n, cfg.e)
    state = _ChainState(cfg.n, start)
    rng = Random(cfg.seed)
    pairs = tuple(state.pairs)
    yield 0, state.mask, pairs
    for step in range(1, cfg.steps + 1):
        state.step(rng)
        yield step, state.mask, pairs


def run_chain(cfg: ChainConfig) -> Iterator[SampleRecord]:
    """Run the chain, emitting a record at the end of burn-in and then one
    every `thin` steps, each with its exact facet count."""
    start = cfg.initial if cfg.initial is not None else default_initial(cfg.n, cfg.e)
    state = _ChainState(cfg.n, start)
    rng = Random(cfg.seed)

    def emit(step: int) -> SampleRecord:
        g = state.graph()
        return SampleRecord(step, facet_count(g), g)

    if cfg.burn_in == 0:
        yield emit(0)
    for step in range(1, cfg.steps + 1):
        state.step(rng)
        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
            yield emit(step)


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def _meta_lines(cfg: ChainConfig | None, deterministic: bool) -> list[str]:
    lines = []
    if cfg is not None:
        meta = cfg.metadata()
        lines.append("# " + " ".join(f"{k}={meta[k]}" for k in meta))
    if not deterministic:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        lines.append(f"# generated={stamp}")
    return lines


def figure_csv(
    records: list[SampleRecord],
    mode: str,
    cfg: ChainConfig | None = None,
    deterministic: bool = False,
) -> str:
    """CSV for plotting: per-sample scatter rows or an exact histogram.

    scatter: n, log10 of the facet count, and the reference line value
    log10(6)/2 * (n-1) (the full windmill's count for that n).
    histogram: facet_count (decimal string), frequency; empty buckets are
    simply absent.
    """
    if not records:
        raise ValueError("no records to emit")
    lines = _meta_lines(cfg, deterministic)
    if mode == "scatter":
        lines.append("n,log10_facets,ref_log10")
        for r in records:
            ref = math.log10(6) / 2 * (r.graph.n - 1)
            lines.append(f"{r.graph.n},{r.log10_count:.6f},{ref:.6f}")
    elif mode == "histogram":
        freq: dict[int, int] = {}
        for r in records:
            freq[r.count] = freq.get(r.count, 0) + 1
        lines.append("facet_count,frequency")
        for count in sorted(freq):
            lines.append(f"{count},{freq[count]}")
    else:
        raise ValueError(f"unknown figure mode {mode!r}")
    return "\n".join(lines) + "\n"


def records_jsonl(
    records: list[SampleRecord],
    cfg: ChainConfig | None = None,
    deterministic: bool = False,
) -> str:
    """JSON-lines dump with full graph serializations; counts are decimal
    strings since they outgrow doubles quickly."""
    out = []
    if cfg is not None:
        meta = dict(cfg.metadata())
        if not deterministic:
            meta["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        out.append(json.dumps({"meta": meta}, sort_keys=True))
    for r in records:
        out.append(
            json.dumps(
                {
                    "step": r.step,
                    "count": str(r.count),
                    "log10": round(r.log10_count, 6),
                    "graph": graph_to_json(r.graph),
                },
                sort_keys=True,
            )
        )
    return "\n".join(out) + "\n"
