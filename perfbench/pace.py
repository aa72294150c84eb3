"""Machine pace: a fixed piece of pure-Python work, timed between ops.

On a shared host the speed of a core drifts by a third or more, over a
few seconds and for whole runs at a time, and a run's median or best
time reads whichever speed held.  So the benchmark runs this module's
piece every ``EVERY_S`` seconds between (and, on ``suite``, inside) its
timed ops, and scales each op's time by ``REF_S`` over the median time
of the ``NEAREST`` pieces run closest to it.  A scaled time is the op's
time at the pace of the host the benchmark was written on, where the
piece's median time was ``REF_S``.  The piece does the same kind of
interpreted work as the package's pure kernel (bitmask breadth-first
search, geodesic layers, small lists and ints) and never calls the
package, and the garbage collector is off while it runs, so a change to
the program (such as one that keeps more objects alive) cannot move it.
Raw times are recorded beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from array import array

REF_S = 0.0021  # the piece's median time on the 2-CPU host where this was written
EVERY_S = 0.05
NEAREST = 9
WARM = 8  # pieces run before the first op

_N = 24
_ADJ = [(1 << (v + 1) % _N) | (1 << (v - 1) % _N) | (1 << (v + 5) % _N) | (1 << (v - 5) % _N)
        for v in range(_N)]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def piece():
    """Distances by breadth-first search over neighbour bitmasks, then for
    every pair the layered reach along its geodesics.  Returns a checksum
    (so nothing is optimised away, and the piece is the same every time)."""
    n, adj = _N, _ADJ
    dist = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in _bits(adj[x]):
                    if row[y] < 0:
                        row[y] = row[x] + 1
                        nxt.append(y)
            frontier = nxt
        dist.append(row)
    total = 0
    for u in range(n):
        du = dist[u]
        for v in range(u + 2, n):
            d = du[v]
            reach = 1 << u
            for t in range(1, d):
                layer = 0
                for x in _bits(reach):
                    layer |= adj[x]
                reach = 0
                for y in _bits(layer):
                    if du[y] == t and dist[y][v] == d - t:
                        reach |= 1 << y
            total += reach.bit_count()
    return total


CHECKSUM = piece()


class Pace:
    """The pieces run during one process: when each ran and how long it took."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.last = float("-inf")

    def tick(self, count=1):
        for _ in range(count):
            collecting = gc.isenabled()
            gc.disable()
            t0 = time.perf_counter()
            total = piece()
            t1 = time.perf_counter()
            if collecting:
                gc.enable()
            if total != CHECKSUM:
                raise RuntimeError("pace piece returned a wrong checksum")
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)
            self.last = t1

    def due(self):
        return time.perf_counter() - self.last >= EVERY_S

    def maybe(self):
        """One piece if ``EVERY_S`` has passed since the last one."""
        if self.due():
            self.tick()

    def scale(self, t0, t1):
        """``REF_S`` over the median time of the ``NEAREST`` pieces around
        the interval from ``t0`` to ``t1``."""
        at = bisect.bisect(self.at, (t0 + t1) / 2)
        lo = max(0, min(at - NEAREST // 2, len(self.at) - NEAREST))
        return REF_S / statistics.median(self.took[lo:lo + NEAREST])

    def scaled(self, t0, dt):
        return dt * self.scale(t0, t0 + dt)

    def median(self):
        return statistics.median(self.took)
