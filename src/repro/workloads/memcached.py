"""Memcached under YCSB — Figure 16.

Memcached holds small values entirely in memory; under YCSB workload-a the
benchmark stresses the network and memory subsystems (Section 3.6). The
model runs a closed-loop client/server simulation on the discrete-event
engine:

* ``clients`` YCSB threads each loop: think -> request over the platform's
  network round trip -> service at the memcached worker pool -> response;
* worker service time scales with the platform's memory-latency factor and
  syscall-interception factor;
* the platform's small-packet rate ceiling (virtqueue/agent crossings)
  throttles the guest/host boundary — the mechanism behind Kata's
  surprisingly low score (Finding 18).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.platforms.base import Platform
from repro.rng import RngStream
from repro.simcore.engine import Simulator, Timeout
from repro.simcore.resources import Resource
from repro.units import us
from repro.workloads.base import Workload
from repro.workloads.ycsb import WORKLOAD_A, YcsbWorkloadSpec

__all__ = ["MemcachedYcsbWorkload", "MemcachedResult"]

#: Memcached per-operation service time on one native core (hash lookup,
#: slab access, response serialization).
_BASE_SERVICE_S = us(10.0)

#: Updates touch the slab allocator and LRU bookkeeping.
_UPDATE_SERVICE_FACTOR = 1.25

#: YCSB client-side record selection/serialization per op.
_CLIENT_THINK_S = us(100.0)


@dataclass(frozen=True)
class MemcachedResult:
    """One YCSB run against memcached."""

    platform: str
    throughput_ops_per_s: float
    mean_latency_s: float
    operations: int
    workload: str


class MemcachedYcsbWorkload(Workload):
    """YCSB workload-a against memcached (closed loop)."""

    name = "memcached-ycsb"

    def __init__(
        self,
        spec: YcsbWorkloadSpec = WORKLOAD_A,
        clients: int = 48,
        ops_per_client: int = 120,
        server_threads: int = 8,
    ) -> None:
        if clients < 1 or ops_per_client < 1 or server_threads < 1:
            raise ConfigurationError("clients, ops and threads must be >= 1")
        self.spec = spec
        self.clients = clients
        self.ops_per_client = ops_per_client
        self.server_threads = server_threads

    # --- per-platform coefficients --------------------------------------------

    def _round_trip(self, platform: Platform) -> float:
        profile = platform.net_profile()
        return platform.machine.nic.base_rtt_s + 2.0 * profile.added_latency()

    def _service_time(self, platform: Platform, *, update: bool) -> float:
        memory = platform.memory_profile()
        service = _BASE_SERVICE_S
        service *= memory.dram_latency_factor
        service *= platform.syscall_overhead_factor()
        if update:
            service *= _UPDATE_SERVICE_FACTOR
        return service

    # --- simulation -------------------------------------------------------------

    def run(self, platform: Platform, rng: RngStream) -> MemcachedResult:
        simulator = Simulator()
        workers = Resource(simulator, self.server_threads, "memcached-workers")
        # Everything per-run is hoisted out of the per-op loop. Each client
        # interleaves uniform and lognormal draws on one stream, so the
        # draws themselves stay scalar and in this exact order.
        half_trip = self._round_trip(platform) / 2.0
        read_service = self._service_time(platform, update=False)
        update_service = self._service_time(platform, update=True)
        is_update = self.spec.is_update
        ops_per_client = self.ops_per_client
        latencies: list[float] = []

        def client(index: int):
            client_rng = rng.child(f"client-{index}")
            lognormal = client_rng.lognormal_factor
            uniform = client_rng.uniform
            for _ in range(ops_per_client):
                yield Timeout(_CLIENT_THINK_S * lognormal(0.2))
                started = simulator.now
                # Request travels to the guest...
                yield Timeout(half_trip * lognormal(0.1))
                yield from workers.acquire()
                try:
                    service = update_service if is_update(uniform()) else read_service
                    yield Timeout(service * lognormal(0.15))
                finally:
                    workers.release()
                # ...and the response travels back.
                yield Timeout(half_trip * lognormal(0.1))
                latencies.append(simulator.now - started)
            return None

        processes = [
            simulator.spawn(client(index), name=f"ycsb-{index}")
            for index in range(self.clients)
        ]
        simulator.run()
        if not all(process.finished for process in processes):
            raise ConfigurationError("memcached simulation deadlocked")

        operations = self.clients * self.ops_per_client
        throughput = operations / simulator.now

        # Guest/host boundary ceiling: one request + one response packet per op.
        ceiling = platform.packet_rate_capacity()
        if ceiling is not None:
            throughput = min(throughput, ceiling / 2.0)
        throughput *= rng.child("run-noise").gaussian_factor(0.03)

        return MemcachedResult(
            platform=platform.name,
            throughput_ops_per_s=throughput,
            mean_latency_s=sum(latencies) / len(latencies),
            operations=operations,
            workload=self.spec.name,
        )
