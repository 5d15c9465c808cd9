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

import functools
import json
import math
from bisect import insort
from collections.abc import Iterable, Iterator
from itertools import chain
from random import Random

from .facets import facet_count
from .graph import Frozen, Graph, GuardExceeded, adjacency, cycle, graph_to_json, is_connected, path

RNG_ID = "python-random-mt19937"

# A chain state holds all C(n, 2) vertex pairs (about 54 MB at n = 1024),
# so larger n is refused before anything is allocated.
MAX_CHAIN_VERTICES = 1024


class ChainConfig(Frozen):
    """Parameters of one chain run; immutable and fully reproducible."""

    __slots__ = ("n", "e", "steps", "burn_in", "thin", "seed", "initial")

    def __init__(self, n: int, e: int, steps: int, burn_in: int, thin: int, seed: int,
                 initial: Graph | None = None):
        super().__init__(n, e, steps, burn_in, thin, seed, initial)
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


class SampleRecord(Frozen):
    """One emitted state: the step index at which it was recorded, its
    exact facet count, and the graph itself."""

    __slots__ = ("step", "count", "graph")

    def __init__(self, step: int, count: int, graph: Graph):
        super().__init__(step, count, graph)

    @property
    def log10_count(self) -> float:
        """Base-10 log of the facet count; display only, never used in checks."""
        return math.log10(self.count)


def default_initial(n: int, e: int) -> Graph:
    """Deterministic starting state: a cycle plus the lexicographically
    smallest chords (a path when e = n - 1 leaves no room for a cycle)."""
    if e == n - 1:
        return path(n - 1)
    ring = set(cycle(n).edges)
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in ring]
    return Graph(n, tuple(ring) + tuple(chords[: e - n]))


def _edge_mask(edges: list[int]) -> int:
    """The edge set as a bitmask over the pair indices."""
    mask = 0
    for i in edges:
        mask |= 1 << i
    return mask


class _ChainState:
    """Edge set as sorted index lists over the C(n, 2) vertex pairs, for
    uniform edge / non-edge draws, with each pair stored as its two vertex
    bits and, for the connectivity test, one neighbour bitmask per vertex
    keyed by that vertex's own bit."""

    def __init__(self, n: int, g: Graph):
        self.n = n
        bits = [1 << v for v in range(n)]  # one int object per vertex, shared by all its pairs
        self.bit_pairs = tuple((bu, bv) for u, bu in enumerate(bits) for bv in bits[u + 1 :])
        have = {(1 << u, 1 << v) for u, v in g.edges}
        self.edges: list[int] = []
        self.non_edges: list[int] = []
        for i, p in enumerate(self.bit_pairs):
            (self.edges if p in have else self.non_edges).append(i)
        n_e, n_f = len(self.edges), len(self.non_edges)  # fixed, so each draw's bit length is too
        self.draws = n_e, n_e.bit_length(), n_f, n_f.bit_length()
        self.adj = {bits[v]: sum(1 << u for u in nb) for v, nb in enumerate(adjacency(g))}

    @functools.cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (u, v) pair of each index, built on first use."""
        vs = list(range(self.n))
        return tuple((u, v) for u in vs for v in vs[u + 1 :])

    @property
    def mask(self) -> int:
        return _edge_mask(self.edges)

    def graph(self) -> Graph:
        ends = map(self.bit_pairs.__getitem__, self.edges)
        return Graph(self.n, tuple((a.bit_length() - 1, b.bit_length() - 1) for a, b in ends))

    def advance(self, rng: Random, steps: int) -> int:
        """Run `steps` edge-replacement proposals; return how many were accepted.

        Each draw spells out CPython's `rng.randrange(length)`, so the random
        stream is the same.  A proposal removes ab, adds cd and writes nothing
        unless accepted.  It is accepted when a and b meet in G - ab: at a
        common neighbour, or when balls grown level by level around them (the
        smaller frontier first, never expanding a or b) touch.  A ball that
        stops first is one side of the bridge ab, and then cd must cross it."""
        edges, non_edges = self.edges, self.non_edges
        if not non_edges:
            return 0  # complete graph: the chain is frozen
        bit_pairs, adj = self.bit_pairs, self.adj
        getrandbits = rng.getrandbits
        n_e, k_e, n_f, k_f = self.draws
        accepted = 0
        for _ in range(steps):
            e_at, f_at = n_e, n_f
            while e_at >= n_e:
                e_at = getrandbits(k_e)
            while f_at >= n_f:
                f_at = getrandbits(k_f)
            e_idx, f_idx = edges[e_at], non_edges[f_at]
            (A, B), (C, D) = bit_pairs[e_idx], bit_pairs[f_idx]
            na, nb = adj[A] ^ B, adj[B] ^ A
            if not na & nb:
                near, far, seen_near, seen_far = na, nb, na | A, nb | B
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
                else:  # ab is a bridge and the stopped ball is one side of it
                    side = seen_far if near else seen_near
                    if (not C & side) == (not D & side):
                        continue
            accepted += 1
            adj[A], adj[B] = na, nb
            adj[C] ^= D
            adj[D] ^= C
            edges.pop(e_at)
            insort(edges, f_idx)
            non_edges.pop(f_at)
            insort(non_edges, e_idx)
        return accepted


def _start(cfg: ChainConfig) -> tuple[_ChainState, Random]:
    """The one chain set-up: the initial state and the seeded generator."""
    start = cfg.initial if cfg.initial is not None else default_initial(cfg.n, cfg.e)
    return _ChainState(cfg.n, start), Random(cfg.seed)


def iter_states(cfg: ChainConfig) -> Iterator[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """Every chain state in order: (step, edge bitmask, the pair table
    that the bitmask indexes).  Step 0 is the initial state; facet counts are not
    computed here, so uniformity tests can consume millions of steps.  The
    mask is read from the edge list only after an accepted move."""
    state, rng = _start(cfg)
    mask, pairs = state.mask, state.pairs
    yield 0, mask, pairs
    for step in range(1, cfg.steps + 1):
        if state.advance(rng, 1):
            mask = _edge_mask(state.edges)
        yield step, mask, pairs


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

def _metadata(cfg: ChainConfig, deterministic: bool) -> dict:
    """The config's metadata plus, unless deterministic, the UTC time as
    'generated'."""
    meta = cfg.metadata()
    if not deterministic:
        import datetime  # here, not at the top: start-up would pay for it on every run
        meta["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def figure_csv_lines(
    records: Iterable[SampleRecord],
    mode: str,
    cfg: ChainConfig,
    deterministic: bool = False,
) -> Iterator[str]:
    """CSV for plotting, one newline-terminated line at a time: per-sample
    scatter rows or an exact histogram.  Records are read as they arrive,
    so a scatter holds one record at a time and a histogram only its
    frequencies.

    scatter: n, log10 of the facet count, and the reference line value
    log10(6)/2 * (n-1) (the full windmill's count for that n).
    histogram: facet_count (decimal string), frequency; empty buckets are
    simply absent.
    """
    if mode not in ("scatter", "histogram"):
        raise ValueError(f"unknown figure mode {mode!r}")
    records = iter(records)
    first = next(records, None)
    if first is None:
        raise ValueError("no records to emit")
    records = chain((first,), records)
    meta = _metadata(cfg, deterministic)
    stamp = meta.pop("generated", None)
    yield "# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n"
    if stamp is not None:
        yield f"# generated={stamp}\n"
    if mode == "scatter":
        yield "n,log10_facets,ref_log10\n"
        for r in records:
            ref = math.log10(6) / 2 * (r.graph.n - 1)
            yield f"{r.graph.n},{r.log10_count:.6f},{ref:.6f}\n"
    else:
        freq: dict[int, int] = {}
        for r in records:
            freq[r.count] = freq.get(r.count, 0) + 1
        yield "facet_count,frequency\n"
        for count in sorted(freq):
            yield f"{count},{freq[count]}\n"


def records_jsonl_lines(
    records: Iterable[SampleRecord],
    cfg: ChainConfig,
    deterministic: bool = False,
) -> Iterator[str]:
    """JSON-lines dump with full graph serializations, one newline-terminated
    line per record as it arrives; counts are decimal strings since they
    outgrow doubles quickly."""
    yield json.dumps({"meta": _metadata(cfg, deterministic)}, sort_keys=True) + "\n"
    for r in records:
        yield json.dumps(
            {
                "step": r.step,
                "count": str(r.count),
                "log10": round(r.log10_count, 6),
                "graph": graph_to_json(r.graph),
            },
            sort_keys=True,
        ) + "\n"
