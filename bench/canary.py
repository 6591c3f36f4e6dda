"""A fixed, memory-bound Python loop that measures the machine's current speed.

The machine this benchmark was defined on has phases, from about a second to
more than half a minute long, in which the same Python code runs up to twice
as slowly. The canary is BFS over a fixed random graph stored as a dict of
sets: the same kind of work as the program. Its time, divided by
`REFERENCE_NS`, is the machine's slow-down factor at that moment. The factor
follows the program's own slow-down to within about 5%.
"""

from __future__ import annotations

import gc
import random
from collections import deque
from time import perf_counter_ns

# Fastest canary time seen on an Intel Xeon (2 vCPUs, Python 3.11) over a
# quiet minute. It only sets the scale: run_s is wall time at this speed.
REFERENCE_NS = 20_000_000

_VERTICES = 3_000
_EDGES = 9_000
_SOURCES = 12


class Canary:
    def __init__(self):
        rng = random.Random(0)
        self.adj = {v: set() for v in range(_VERTICES)}
        for _ in range(_EDGES):
            a, b = rng.randrange(_VERTICES), rng.randrange(_VERTICES)
            self.adj[a].add(b)
            self.adj[b].add(a)

    def measure(self):
        """Nanoseconds for a fixed batch of BFS runs, with the collector paused."""
        adj = self.adj
        gc.disable()
        try:
            start = perf_counter_ns()
            for source in range(_SOURCES):
                dist = {source: 0}
                queue = deque([source])
                while queue:
                    x = queue.popleft()
                    for y in adj[x]:
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            queue.append(y)
            return perf_counter_ns() - start
        finally:
            gc.enable()
