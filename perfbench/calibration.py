"""Host-speed calibration: express timings in reference-speed seconds.

The shared hosts this benchmark runs on change speed by a fifth or more,
over seconds and over minutes (other tenants contend for the cores and
their caches). That is far more than the few percent a later change must
be able to show, so a raw time mostly measures the host. The benchmark
therefore samples the host's speed while it measures: a fixed,
program-independent snippet (heap operations, dict updates, float
arithmetic; interpreter-bound like the program) is timed

- from a ``SIGALRM`` handler every :data:`INTERVAL_S` during a pass, and
- :data:`BRACKET` times right before and right after the pass,

and the pass is reported as ``wall * REFERENCE_S / mean(snippet times)``:
the time it would have taken on a host that runs the snippet in
:data:`REFERENCE_S`. A host slowdown stretches the pass and the snippet
alike and cancels; a change to the program moves only the pass. The
snippet costs under 1% of a pass. Raw times are printed on standard
error beside the result.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import signal
import statistics
import time
from typing import Any, Iterator

#: Seconds the snippet takes on the reference host (a 2-vCPU Xeon VM).
REFERENCE_S = 0.0004

#: Seconds between in-pass samples.
INTERVAL_S = 0.05

#: Samples taken right before and right after every pass.
BRACKET = 8


def snippet(iterations: int = 400) -> float:
    """Run the fixed calibration snippet once; return its wall time."""
    started = time.perf_counter()
    heap: list[tuple[float, int]] = []
    totals: dict[int, float] = {}
    for index in range(iterations):
        heapq.heappush(heap, (((index * 7919) % 1000) * 0.001, index))
        if len(heap) > 32:
            value, key = heapq.heappop(heap)
            totals[key & 63] = totals.get(key & 63, 0.0) + value
    return time.perf_counter() - started


def pin_to_one_cpu() -> None:
    """Run this process (and the children it starts) on one CPU.

    The fleet workload's client, worker and store threads then hand off
    on one CPU instead of waking an idle one for every round trip, and
    every pass meets the same core. The highest-numbered allowed CPU is
    used, as the one least likely to carry interrupts and daemons.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedProbe:
    """Samples the host's speed around and during one timed step.

    ::

        with SpeedProbe().sampling() as probe:
            step()
        seconds = elapsed * probe.scale()
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_alarm(self, _signum: int, _frame: Any) -> None:
        self.samples.append(snippet())

    def _bracket(self) -> None:
        self.samples.extend(snippet() for _ in range(BRACKET))

    @contextlib.contextmanager
    def sampling(self, *, in_step: bool = True) -> Iterator["SpeedProbe"]:
        """Bracket the step; with ``in_step`` also sample during it."""
        self._bracket()
        previous = None
        if in_step:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            if in_step:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self._bracket()

    def scale(self) -> float:
        """Factor from host seconds to reference seconds."""
        return REFERENCE_S / statistics.mean(self.samples)
