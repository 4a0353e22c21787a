"""Host-speed probe timed between the program's calls.

The benchmark runs on a few cores of a shared host whose speed drifts: on
the 2-core development VM the same pure-Python work took a third longer a
few minutes later, and every wall-clock metric drifted with it.  A
:class:`SpeedProbe` runs a fixed piece of pure-Python work (a bounded
breadth-first search over a fixed random graph) between the program's
calls, so it samples the host at the same moments as the program does.
:meth:`SpeedProbe.factor_near` turns the mean time of the ticks around a
sample into a factor that scales the sample's measured seconds to seconds
on a host that runs a tick in :data:`TICK_NOMINAL_S`.

A tick keeps no container object alive (its loop iterators are freed as
soon as they are made), so it does not advance the cyclic garbage
collector towards a collection, and its time does not depend on the
program's heap.
"""

from __future__ import annotations

import random
import time
from typing import List

VERTICES = 20000
DEGREE = 6
EXPANSIONS = 1000
#: Ticks on each side of a sample that give its factor: a fraction of a
#: second of queries or a few seconds of batches, short enough to follow
#: the host's drift, long enough to average the tick-to-tick jitter.
WINDOW = 5
#: Seconds one tick takes at reference speed; roughly the mean tick time of
#: the 2-core development VM, so scaled times stay close to measured ones.
TICK_NOMINAL_S = 0.002


class SpeedProbe:
    """Fixed pure-Python work whose time measures the host's current speed."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.adjacency = [
            tuple(rng.randrange(VERTICES) for _ in range(DEGREE)) for _ in range(VERTICES)
        ]
        self.marks = bytearray(VERTICES)
        self.queue: List[int] = []
        self.counts = dict.fromkeys(range(1024), 0)
        self.source = 0
        self.samples: List[float] = []

    def tick(self) -> None:
        """Search ``EXPANSIONS`` vertices from the next source; record the time."""
        adjacency, marks, queue, counts = self.adjacency, self.marks, self.queue, self.counts
        started = time.perf_counter()
        queue.append(self.source)
        marks[self.source] = 1
        head = 0
        while head < len(queue) and head < EXPANSIONS:
            vertex = queue[head]
            head += 1
            counts[vertex & 1023] += 1
            for neighbour in adjacency[vertex]:
                if not marks[neighbour]:
                    marks[neighbour] = 1
                    queue.append(neighbour)
        for vertex in queue:
            marks[vertex] = 0
        del queue[:]
        self.samples.append(time.perf_counter() - started)
        self.source = (self.source + 7919) % VERTICES

    def factor(self, since: int = 0) -> float:
        """Reference seconds per measured second over the ticks from ``since`` on."""
        return _factor(self.samples[since:])

    def factor_near(self, index: int, since: int = 0) -> float:
        """The factor over the ``WINDOW`` ticks on each side of tick ``index``.

        Ticks before ``since`` are left out, so a round's samples are scaled
        by that round's ticks only.
        """
        return _factor(self.samples[max(since, index - WINDOW) : index + WINDOW + 1])


def _factor(samples: List[float]) -> float:
    return TICK_NOMINAL_S * len(samples) / sum(samples)
