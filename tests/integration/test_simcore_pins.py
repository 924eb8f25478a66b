"""Exact pins for every result the discrete-event engine produces.

``test_golden_values.py`` guards calibration with tolerances; these guard
*bit-identity*. The startup figures (fig13-15), memcached (fig16) and the
packet-level iperf cross-check all run on :mod:`repro.simcore`, so any
change to event ordering, clock arithmetic or the order in which a model
consumes its random draws moves one of these values. A change that is
*meant* to move results re-records them on purpose.

A figure digest is the comparable result (provenance stripped) as
canonical JSON, hashed with blake2b — the same digest the benchmark's
reference table uses.
"""

import hashlib
import json

import pytest

from repro.core.figures import (
    fig13_container_boot,
    fig14_hypervisor_boot,
    fig15_osv_boot,
    fig16_memcached,
)
from repro.platforms import get_platform
from repro.rng import RngStream
from repro.workloads.iperf import IperfWorkload
from repro.workloads.memcached import MemcachedYcsbWorkload

SEED = 42


def comparable_digest(result) -> str:
    text = json.dumps(result.comparable_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


@pytest.mark.parametrize(
    "figure, kwargs, expected",
    [
        (fig13_container_boot, {"startups": 40}, "47b33ae301e1b73a"),
        (fig14_hypervisor_boot, {"startups": 40}, "ed6d7496473bea9f"),
        (fig15_osv_boot, {"startups": 40}, "dc64cd4c6db7abd3"),
        (fig16_memcached, {"repetitions": 1}, "63970f4924a6a4c8"),
    ],
    ids=["fig13", "fig14", "fig15", "fig16"],
)
def test_figure_digest_is_pinned(figure, kwargs, expected):
    assert comparable_digest(figure(SEED, **kwargs)) == expected


@pytest.mark.parametrize(
    "platform, expected_ops_per_s, expected_latency_s",
    [
        ("native", 36602.04421042464, 4.72414925158208e-05),
        ("kata", 35198.87632438743, 5.3895312626098835e-05),
    ],
)
def test_memcached_run_is_pinned(platform, expected_ops_per_s, expected_latency_s):
    workload = MemcachedYcsbWorkload(clients=6, ops_per_client=10, server_threads=2)
    result = workload.run(get_platform(platform), RngStream(SEED).child("mc"))
    assert result.throughput_ops_per_s == expected_ops_per_s
    assert result.mean_latency_s == expected_latency_s


@pytest.mark.parametrize(
    "platform, burst_bytes, expected_bytes_per_s",
    [
        ("native", 64 * 1024, 4666163200.0),
        ("kata", 16 * 1024, 3129344000.0),
        ("gvisor", 9000, 283687200.0),
        ("firecracker", 4096, 3311616000.0),
    ],
)
def test_iperf_simulated_is_pinned(platform, burst_bytes, expected_bytes_per_s):
    # The Store + TokenBucket path: a sender process feeding a wire process.
    result = IperfWorkload().run_simulated(
        get_platform(platform), RngStream(SEED).child("iperf-sim"), burst_bytes=burst_bytes
    )
    assert result.throughput_bytes_per_s == expected_bytes_per_s
