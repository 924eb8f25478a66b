"""Workload base classes."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.platforms.base import Platform
from repro.rng import RngStream

__all__ = ["Workload", "WorkloadResult"]


@dataclass(frozen=True)
class WorkloadResult:
    """Generic result wrapper: named metrics plus free-form metadata."""

    workload: str
    platform: str
    metrics: dict[str, float]
    metadata: dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str) -> float:
        """Fetch one metric by name."""
        return self.metrics[name]


class Workload(abc.ABC):
    """Base class for all benchmark workloads.

    Subclasses implement :meth:`run`, which draws any run-to-run variation
    from the supplied :class:`~repro.rng.RngStream` so that repetitions and
    error bars are reproducible.
    """

    #: Registry key and figure label.
    name: str = "workload"

    #: The fixed names every :meth:`run` passes to ``rng.child``. Plan
    #: lowering derives these children per cell and seeds them in the
    #: same batch as the cell streams; the draws are the same either way.
    stream_children: tuple[str, ...] = ()

    def check_supported(self, platform: Platform) -> None:
        """Raise :class:`UnsupportedOperationError` when the platform
        cannot run this workload (overridden where the paper excludes
        platforms)."""

    @abc.abstractmethod
    def run(self, platform: Platform, rng: RngStream) -> Any:
        """Execute one repetition and return the workload's result type."""
