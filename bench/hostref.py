"""Host-speed reference and the clock that divides it out.

On a shared machine the same pure-Python work can take half again as long
from one minute to the next.  A fixed reference kernel, timed between
groups of operations, measures how fast the host runs right now; each
group's wall time is multiplied by NOMINAL_REF_S / (the mean of the two
reference times that bracket it).  A change to sepfacets cannot move the
reference, while host drift moves both together.
"""

from __future__ import annotations

import time

# The kernel's result; a mismatch means the kernel was edited and
# NOMINAL_REF_S no longer describes it.
REF_CHECKSUM = 3225896045
# Median kernel time on the reference machine (see README.md).  Normalised
# seconds are seconds on that machine at that speed.
NOMINAL_REF_S = 0.031

# Median time from spawning a bare interpreter to its first statement on
# the reference machine: the reference for set-up time.
NOMINAL_START_S = 0.05

GROUP_S = 0.75  # close a group, and time the kernel, after this much work


def _lcg(iters: int) -> int:
    x, acc, i = 0x2545F491, 0, iters
    while i:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc ^= x >> 5
        i -= 1
    return acc


# Distinct int objects, built once at import: enough to leave L1 behind.
_TABLE = tuple(range(100_000, 100_000 + (1 << 14)))


def _table_reads(iters: int) -> int:
    x, acc, i, table = 0x3C6EF372, 0, iters, _TABLE
    while i:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += table[x & 0x3FFF]
        i -= 1
    return acc


def _binomial_rows(lo: int, hi: int) -> int:
    acc = 0
    for m in range(lo, hi):
        c = 1
        for j in range(m // 2):
            c = c * (m - j) // (j + 1)
            acc ^= c & 0xFFFFF
    return acc


def reference_kernel() -> int:
    """Three fixed pure-Python integer loops, about a third of the time
    each: a linear congruential walk, random reads of a fixed table and
    big-integer binomial rows.  Of the candidate loops tried, this mix
    followed the slowdowns of all three workloads most closely.

    Integers are never tracked by the garbage collector and the loops build
    no containers (range iterators are untracked too), so the size of the
    program's heap cannot change the kernel's time.
    """
    return _lcg(40_000) ^ _table_reads(30_000) ^ _binomial_rows(150, 450)


def time_reference() -> float:
    t0 = time.perf_counter()
    result = reference_kernel()
    dt = time.perf_counter() - t0
    if result != REF_CHECKSUM:
        raise RuntimeError(f"reference kernel returned {result}, expected {REF_CHECKSUM}")
    return dt


class HostClock:
    """Wall-clock op times grouped between reference timings.

    ``measure`` files an op's raw duration under the open group and returns
    the group's index; ``scales[g]`` turns raw seconds of group g into
    normalised seconds once the group is closed.
    """

    def __init__(self) -> None:
        reference_kernel()  # the first call specialises the bytecode
        self.refs = [time_reference()]
        self.scales: list[float] = []
        self._open_raw = 0.0

    @property
    def group(self) -> int:
        return len(self.scales)

    def measure(self, fn, *args):
        """Run fn(*args); return (result, raw seconds, group index)."""
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        g = self.group
        self._open_raw += raw
        if self._open_raw >= GROUP_S:
            self.close()
        return result, raw, g

    def close(self) -> None:
        """Time the kernel and fix the scale of the open group."""
        ref = time_reference()
        self.scales.append(NOMINAL_REF_S / ((self.refs[-1] + ref) / 2))
        self.refs.append(ref)
        self._open_raw = 0.0

    def norm(self, raw: float, g: int) -> float:
        return raw * self.scales[g]
