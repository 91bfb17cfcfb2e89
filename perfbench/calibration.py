"""Host-speed calibration: a fixed task timed beside the program.

This host's cores are shared with other tenants, and their speed drifts
by up to 2x over minutes, which moves every host time the benchmark
takes by as much as a real regression would. So this task, which uses
no ``repro`` code and never changes, is timed between the cells of every
grid, and the benchmark reports the grid's time relative to the mean of
those timings: a grid that took 200 times the calibration's time is
reported as ``200 * REFERENCE_S`` seconds, whatever the host's speed at
the moment. Timing it between cells, rather than once per grid, makes
it share the spells that slowed the grid, which last from under a
second to minutes.

The task mixes the two kinds of work the program does: unpickling an
object graph (what a result-cache load does) and a generator-driven
event loop over a heap (what the simulation kernel does). The garbage
collector is off while it runs, so that collector settings made by the
program cannot change it.
"""

from __future__ import annotations

import gc
import heapq
import pickle
import random
import statistics
from time import perf_counter

__all__ = ["REFERENCE_S", "seconds", "median_seconds"]

#: the calibration's seconds on the 2-core x86 box the benchmark was
#: tuned on, so that normalised times read as seconds on that box
REFERENCE_S = 0.012

_EVENTS = 4000
_PROCESSES = 64


class _Node:
    def __init__(self, i: int, rng: random.Random) -> None:
        self.name = f"region{i % 97}"
        self.count = i
        self.times = [rng.random() for _ in range(6)]
        self.attrs = {f"k{j}": rng.random() for j in range(4)}
        self.children = []


def _blob() -> bytes:
    rng = random.Random(3)
    nodes = [_Node(i, rng) for i in range(1500)]
    for i, node in enumerate(nodes[1:], 1):
        nodes[(i - 1) // 4].children.append(node)
    return pickle.dumps(nodes[0], protocol=pickle.HIGHEST_PROTOCOL)


_BLOB = _blob()


def _event_loop() -> None:
    rng = random.Random(1)
    tally = {}

    def process(i):
        done = 0
        while True:
            yield rng.random() * 2.0
            done += 1
            tally[i % 16] = tally.get(i % 16, 0) + done

    processes = [process(i) for i in range(_PROCESSES)]
    heap = [(next(p), i, i) for i, p in enumerate(processes)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(_EVENTS):
        now, _, i = heapq.heappop(heap)
        heapq.heappush(heap, (now + next(processes[i]), seq, i))
        seq += 1


def seconds() -> float:
    """Host seconds the calibration task takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(2):
            pickle.loads(_BLOB)
        _event_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def median_seconds(times: int = 5) -> float:
    """Median of several calibration timings."""
    return statistics.median(seconds() for _ in range(times))
