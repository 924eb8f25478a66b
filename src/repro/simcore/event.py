"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot synchronization point: processes wait on it,
and when it is *succeeded* (or *failed*) every waiter is resumed. The
:class:`EventQueue` is the simulator's time-ordered agenda; ties are broken
by insertion order so the schedule is fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue", "ScheduledEntry"]


class Event:
    """A one-shot event with an optional payload value.

    States: *pending* → *succeeded* | *failed*. Triggering twice is an
    error; this catches double-completion bugs in protocol models early.
    """

    __slots__ = ("name", "_value", "_ok", "_done", "callbacks")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value: Any = None
        self._ok: bool = True
        self._done: bool = False
        self.callbacks: list[Callable[["Event"], None]] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"Event({self.name!r}, {state})"

    @property
    def triggered(self) -> bool:
        """Whether the event has completed (successfully or not)."""
        return self._done

    @property
    def ok(self) -> bool:
        """Whether the event completed successfully."""
        if not self._done:
            raise SimulationError(f"event {self.name!r} has not triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` or :meth:`fail`."""
        if not self._done:
            raise SimulationError(f"event {self.name!r} has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and remember its payload."""
        self._trigger(value, ok=True)
        return self

    def fail(self, error: BaseException) -> "Event":
        """Mark the event failed; waiters will see the exception re-raised."""
        self._trigger(error, ok=False)
        return self

    def _trigger(self, value: Any, *, ok: bool) -> None:
        if self._done:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._done = True
        self._ok = ok
        self._value = value
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class ScheduledEntry:
    """A scheduled callback; set ``cancelled`` to drop it from the agenda."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False


class EventQueue:
    """Time-ordered agenda with deterministic FIFO tie-breaking.

    The heap holds ``(time, sequence, entry)`` tuples, so ordering is a
    C-level tuple comparison; ``sequence`` is unique, so a comparison never
    reaches ``entry``. :meth:`repro.simcore.engine.Simulator.run` walks the
    heap directly instead of calling :meth:`pop`.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, ScheduledEntry]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for _, _, entry in self._heap if not entry.cancelled)

    def push(self, time: float, callback: Callable[[], None]) -> ScheduledEntry:
        """Schedule ``callback`` to run at absolute virtual ``time``."""
        if time != time:  # NaN guard
            raise SimulationError("cannot schedule an event at NaN time")
        entry = ScheduledEntry(time, callback)
        heapq.heappush(self._heap, (time, next(self._counter), entry))
        return entry

    def pop(self) -> Optional[ScheduledEntry]:
        """Pop the earliest non-cancelled entry, or None when empty."""
        while self._heap:
            entry = heapq.heappop(self._heap)[2]
            if not entry.cancelled:
                return entry
        return None

    def peek_time(self) -> Optional[float]:
        """The virtual time of the next pending entry, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
