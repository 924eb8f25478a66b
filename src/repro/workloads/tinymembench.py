"""Tinymembench — memory latency (Figure 6) and throughput (Figure 7).

* Latency: average time to access a random element in buffers of size
  2^16..2^26 bytes, reported as the *extra* time over the L1 floor. The
  growth comes from cache-level spill and a rising TLB-miss fraction; the
  platform's memory profile contributes the nested-paging walk penalty and
  the vm-memory-crate factor (with its characteristic dispersion).
* Throughput: single-threaded sequential copy using regular and SSE2
  instructions.

The hugepage variant reproduces the Section 3.2 aside: ~30 % lower access
latency on large buffers, equal relative platform ranking, and Kata
excluded (no hugepage support).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.platforms.base import Platform
from repro.rng import RngStream
from repro.units import seconds_to_ns, to_mib_per_s
from repro.workloads.base import Workload

__all__ = [
    "TinymembenchLatencyWorkload",
    "TinymembenchThroughputWorkload",
    "LatencyPoint",
    "ThroughputResult",
    "DEFAULT_BUFFER_EXPONENTS",
]

#: Figure 6 sweeps buffers 2^16 .. 2^26 bytes.
DEFAULT_BUFFER_EXPONENTS = tuple(range(16, 27))


@dataclass(frozen=True)
class LatencyPoint:
    """Latency at one buffer size."""

    platform: str
    buffer_bytes: int
    extra_latency_s: float
    huge_pages: bool

    @property
    def extra_latency_ns(self) -> float:
        """Figure 6's y-axis: extra time over L1 latency, nanoseconds."""
        return seconds_to_ns(self.extra_latency_s)


@dataclass(frozen=True)
class ThroughputResult:
    """Sequential copy bandwidth, regular and SSE2."""

    platform: str
    copy_bytes_per_s: float
    sse2_copy_bytes_per_s: float

    @property
    def copy_mib_per_s(self) -> float:
        return to_mib_per_s(self.copy_bytes_per_s)

    @property
    def sse2_mib_per_s(self) -> float:
        return to_mib_per_s(self.sse2_copy_bytes_per_s)


def _dram_fraction(platform: Platform, buffer_bytes: int) -> float:
    """Fraction of random accesses served from DRAM for this buffer."""
    rows = platform.machine.memory.caches.hit_fractions(buffer_bytes)
    return sum(fraction for name, fraction, _ in rows if name == "DRAM")


class TinymembenchLatencyWorkload(Workload):
    """Random-access latency sweep over buffer sizes."""

    name = "tinymembench-latency"

    def __init__(
        self,
        buffer_exponents: tuple[int, ...] = DEFAULT_BUFFER_EXPONENTS,
        *,
        huge_pages: bool = False,
    ) -> None:
        if not buffer_exponents:
            raise ConfigurationError("need at least one buffer size")
        if min(buffer_exponents) < 10 or max(buffer_exponents) > 40:
            raise ConfigurationError("buffer exponents out of sane range")
        self.buffer_exponents = tuple(buffer_exponents)
        self.huge_pages = huge_pages

    def check_supported(self, platform: Platform) -> None:
        if self.huge_pages and not platform.memory_profile().supports_hugepages:
            raise UnsupportedOperationError(
                f"{platform.name} does not support hugepages (Section 3.2)"
            )

    def run(self, platform: Platform, rng: RngStream) -> list[LatencyPoint]:
        self.check_supported(platform)
        profile = platform.memory_profile()
        memory = platform.machine.memory
        points: list[LatencyPoint] = []
        for exponent in self.buffer_exponents:
            size = 1 << exponent
            extra = memory.extra_latency_over_l1(
                size,
                huge_pages=self.huge_pages,
                nested_paging=profile.effective_nested,
            )
            # The VMM memory-path factor (vm-memory crate) applies to the
            # DRAM-bound share of accesses only: small buffers stay in cache
            # and are untouched by the hypervisor.
            dram_share = _dram_fraction(platform, size)
            extra *= 1.0 + (profile.dram_latency_factor - 1.0) * dram_share
            extra *= rng.child(f"buf-{exponent}").gaussian_factor(profile.latency_std)
            points.append(
                LatencyPoint(
                    platform=platform.name,
                    buffer_bytes=size,
                    extra_latency_s=extra,
                    huge_pages=self.huge_pages,
                )
            )
        return points


class TinymembenchThroughputWorkload(Workload):
    """Single-threaded sequential copy bandwidth (regular + SSE2)."""

    name = "tinymembench-throughput"
    stream_children = ("sse2",)

    def run(self, platform: Platform, rng: RngStream) -> ThroughputResult:
        profile = platform.memory_profile()
        memory = platform.machine.memory
        noise = rng.gaussian_factor(profile.bandwidth_std)
        noise_sse = rng.child("sse2").gaussian_factor(profile.bandwidth_std)
        return ThroughputResult(
            platform=platform.name,
            copy_bytes_per_s=memory.copy_bandwidth() * profile.bandwidth_factor * noise,
            sse2_copy_bytes_per_s=memory.copy_bandwidth(sse2=True)
            * profile.bandwidth_factor
            * noise_sse,
        )
