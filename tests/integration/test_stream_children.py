"""Pre-seeded workload child streams change no draw.

Plan lowering derives the children each workload declares in
``Workload.stream_children`` and seeds them in one batch with the cell
streams. These tests pin the figures whose cells draw from such
children, exactly, at a width where the batch path is taken; the digests
were recorded when every child was still derived and seeded at first
use. A figure digest is the comparable result (provenance stripped) as
canonical JSON, hashed with blake2b — the same digest as in
``test_simcore_pins.py``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil

import pytest

import repro.workloads
from repro.core.figures import fig07_memory_throughput, fig09_fio_throughput
from repro.platforms import get_platform
from repro.rng import RngStream
from repro.workloads.base import Workload
from repro.workloads.fio import FioLatencyWorkload, FioThroughputWorkload
from repro.workloads.tinymembench import TinymembenchThroughputWorkload

SEED = 42


def comparable_digest(result) -> str:
    text = json.dumps(result.comparable_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


@pytest.mark.parametrize(
    "figure, expected",
    [
        (fig07_memory_throughput, "c10127f954509c72"),
        (fig09_fio_throughput, "7658c29f91e2c211"),
    ],
    ids=["fig07", "fig09"],
)
def test_figure_digest_is_pinned(figure, expected):
    assert comparable_digest(figure(SEED, repetitions=200)) == expected


#: A supported platform for every workload that declares stream children.
DECLARING = {
    FioThroughputWorkload: "native",
    FioLatencyWorkload: "native",
    TinymembenchThroughputWorkload: "native",
}


def _workload_classes() -> set[type[Workload]]:
    for module in pkgutil.iter_modules(repro.workloads.__path__):
        importlib.import_module(f"repro.workloads.{module.name}")
    found, pending = set(), [Workload]
    while pending:
        for subclass in pending.pop().__subclasses__():
            found.add(subclass)
            pending.append(subclass)
    return found


def test_every_declaring_workload_is_covered():
    declaring = {cls for cls in _workload_classes() if cls.stream_children}
    assert declaring == set(DECLARING)


@pytest.mark.parametrize("cls", list(DECLARING), ids=lambda cls: cls.__name__)
def test_declared_children_are_all_consumed(cls):
    workload = cls()
    stream = RngStream(SEED, "consumed")
    stream.preseed_children(workload.stream_children)
    workload.run(get_platform(DECLARING[cls]), stream)
    # child() hands each pre-seeded stream back once; none may be left.
    assert stream._preseeded is None
