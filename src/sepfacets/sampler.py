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
from .graph import Graph, adjacency, cycle, graph_to_json, is_connected

RNG_ID = "python-random-mt19937"

# A chain state holds all C(n, 2) vertex pairs (about 54 MB at n = 1024),
# so larger n is refused before anything is allocated.
MAX_CHAIN_VERTICES = 1024


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
        if self.e < 1:
            raise ValueError(f"a chain needs at least one edge to move, got e={self.e}")
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
        of burn-in and one every `thin` steps after that.  By default one
        sweep is e * C(n, 2) proposals; burn-in runs 10 sweeps and each
        sample is one sweep after the last."""
        if samples < 1:
            raise ValueError(f"need >= 1 samples, got {samples}")
        sweep = e * (n * (n - 1) // 2)
        if burn_in is None:
            burn_in = 10 * sweep
        if thin is None:
            thin = sweep
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
    if e == n - 1:
        return Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    ring = set(cycle(n).edges)
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in ring]
    return Graph(n, tuple(ring) + tuple(chords[: e - n]))


class _ChainState:
    """Edge set as a bitmask over the C(n, 2) vertex pairs, with sorted
    index lists for uniform edge / non-edge draws and, for the
    connectivity test, one neighbour bitmask per vertex keyed by that
    vertex's own bit."""

    def __init__(self, n: int, g: Graph):
        self.n = n
        vs = list(range(n))  # one int object per vertex, shared by all its pairs
        self.pairs = tuple((u, v) for u in vs for v in vs[u + 1 :])
        have = set(g.edges)
        self.edges: list[int] = []
        self.non_edges: list[int] = []
        for i, p in enumerate(self.pairs):
            (self.edges if p in have else self.non_edges).append(i)
        self.mask = sum(1 << i for i in self.edges)
        self.bit = [1 << v for v in vs]
        self.adj = {1 << v: sum(1 << u for u in nb) for v, nb in enumerate(adjacency(g))}

    def graph(self) -> Graph:
        return Graph(self.n, tuple(self.pairs[i] for i in self.edges))

    def advance(self, rng: Random, steps: int) -> int:
        """Run `steps` edge-replacement proposals; return how many were accepted.

        Each draw spells out CPython's `rng.randrange(length)`, so the random
        stream is the same.  The current graph is connected, so the swap keeps
        it connected exactly when the removed edge's ends a, b still meet: at
        a common neighbour, or when balls grown around a and b level by level
        (the smaller frontier first) touch before either stops growing."""
        edges, non_edges = self.edges, self.non_edges
        if not non_edges:
            return 0  # complete graph: the chain is frozen
        pairs, bit, adj = self.pairs, self.bit, self.adj
        getrandbits = rng.getrandbits
        n_e, n_f = len(edges), len(non_edges)
        k_e, k_f = n_e.bit_length(), n_f.bit_length()
        flips = accepted = 0
        for _ in range(steps):
            e_at, f_at = n_e, n_f
            while e_at >= n_e:
                e_at = getrandbits(k_e)
            while f_at >= n_f:
                f_at = getrandbits(k_f)
            e_idx, f_idx = edges[e_at], non_edges[f_at]
            (a, b), (c, d) = pairs[e_idx], pairs[f_idx]
            A, B, C, D = bit[a], bit[b], bit[c], bit[d]
            adj[A], adj[B] = adj[A] ^ B, adj[B] ^ A
            adj[C], adj[D] = adj[C] ^ D, adj[D] ^ C
            near, far = adj[A], adj[B]
            if not near & far:
                seen_near, seen_far = near | A, far | B
                while near and far:
                    if near.bit_count() > far.bit_count():
                        near, far, seen_near, seen_far = far, near, seen_far, seen_near
                    nxt = 0
                    while near:
                        low = near & -near
                        nxt |= adj[low]
                        near ^= low
                    if nxt & seen_far:
                        break
                    near = nxt & ~seen_near
                    seen_near |= near
                else:  # one ball stopped growing: a and b are cut apart
                    adj[A], adj[B] = adj[A] ^ B, adj[B] ^ A
                    adj[C], adj[D] = adj[C] ^ D, adj[D] ^ C
                    continue
            flips ^= (1 << e_idx) | (1 << f_idx)
            accepted += 1
            edges.pop(e_at)
            insort(edges, f_idx)
            non_edges.pop(f_at)
            insort(non_edges, e_idx)
        self.mask ^= flips
        return accepted


def _start(cfg: ChainConfig) -> tuple[_ChainState, Random]:
    """The one chain set-up: the initial state and the seeded generator."""
    start = cfg.initial if cfg.initial is not None else default_initial(cfg.n, cfg.e)
    return _ChainState(cfg.n, start), Random(cfg.seed)


def iter_states(cfg: ChainConfig) -> Iterator[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """Every chain state in order: (step, edge bitmask, the pair table
    that the bitmask indexes).  Step 0 is the initial state; facet counts are not
    computed here, so uniformity tests can consume millions of steps."""
    state, rng = _start(cfg)
    yield 0, state.mask, state.pairs
    for step in range(1, cfg.steps + 1):
        state.advance(rng, 1)
        yield step, state.mask, state.pairs


def run_chain(cfg: ChainConfig) -> Iterator[SampleRecord]:
    """Run the chain, emitting a record at the end of burn-in and then one
    every `thin` steps, each with its exact facet count."""
    state, rng = _start(cfg)
    for step in range(cfg.burn_in, cfg.steps + 1, cfg.thin):
        state.advance(rng, cfg.thin if step > cfg.burn_in else step)
        g = state.graph()
        yield SampleRecord(step, facet_count(g), g)


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
