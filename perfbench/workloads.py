"""The benchmark's three workloads, driven through the program's public API.

Each workload owns its set-up (:meth:`Workload.setup`), one repeatable
timed unit of work (:meth:`Workload.run_pass`) and its tear-down. A pass
is made of figure requests; every figure request is one operation, and it
fails when it raises or its comparable digest differs from the reference.

* ``paper`` — all 15 figures at paper-scale repetitions, serial, no
  store. ``simcore`` (fig16's memcached model) does most of the work.
* ``grid-sweep`` — the five cheap-cell figures at many repetitions,
  serial. Plan lowering (cell tokens, stream seeding) does most of the
  host work; ``simcore`` does none.
* ``fleet-store`` — the same cheap figures on the remote grid backend
  against an in-process ``StoreServer`` and one inline ``WorkerServer``.
  Every round has a cold client (claim, run, put per cell), an extending
  client (half lease hits) and a rerunning client (figure-level hits).

The program only ever receives generated inputs: a seed derived from the
benchmark's workload seed, figure ids and repetition overrides.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.figures import FIGURES
from repro.core.results import FigureResult
from repro.core.scheduler import ExecutionPolicy, ExperimentScheduler, SchedulerReport
from repro.core.remote import WorkerServer
from repro.core.storenet import DEFAULT_CELL_CAPACITY, StoreServer

#: Figures whose cells are cheap: the grid is many tiny cells, no simcore.
CHEAP_FIGURES = ("fig05", "cpu-prime", "fig07", "fig09", "fig11")

#: Grid cells per repetition over :data:`CHEAP_FIGURES` (9+9+10+7+10).
CHEAP_CELLS_PER_REP = 45

#: Figures reported individually by ``scheduler.job_s.<figure>``.
HEAVY_FIGURES = ("fig16", "fig13", "fig14", "fig15", "fig18")


def derive_seed(seed: int, *labels: object) -> int:
    """A program seed derived from the workload seed and a label path."""
    path = "/".join(str(label) for label in ("perfbench", *labels, seed))
    digest = hashlib.blake2b(path.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


def result_digest(result: FigureResult) -> str:
    """Comparable digest: the result minus provenance, canonically hashed."""
    text = json.dumps(result.comparable_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


@dataclass
class PassResult:
    """One timed pass: its phase times and every figure request's verdict."""

    wall: float
    phases: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    #: Failed operation (``label/figure``) -> the first reason it failed.
    failures: dict[str, str] = field(default_factory=dict)
    reports: list[SchedulerReport] = field(default_factory=list)
    #: Host seconds -> reference seconds (see :mod:`perfbench.calibration`).
    scale: float = 1.0

    def fail(self, operation: str, reason: str) -> None:
        self.failures.setdefault(operation, reason)


@dataclass(frozen=True)
class Request:
    """One ``ExperimentScheduler.run`` call: figures plus overrides."""

    figures: tuple[str, ...]
    overrides: dict[str, dict[str, Any]]


def _check(
    report: SchedulerReport,
    request: Request,
    expected: dict[str, str] | None,
    label: str,
    out: PassResult,
) -> dict[str, str]:
    """Count the request's figures as operations; return their digests."""
    digests: dict[str, str] = {}
    for figure_id in request.figures:
        out.attempted += 1
        error = report.errors.get(figure_id)
        result = report.results.get(figure_id)
        if error is not None or result is None:
            out.fail(f"{label}/{figure_id}", error or "no result")
            continue
        digests[figure_id] = result_digest(result)
        if expected is not None and expected.get(figure_id) != digests[figure_id]:
            out.fail(
                f"{label}/{figure_id}",
                f"digest {digests[figure_id]} != reference {expected.get(figure_id)}",
            )
    return digests


class Workload:
    """Base class: set-up, repeatable timed passes, tear-down."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Build everything the timed passes need."""

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    def run_pass(self, index: int, tracer: Any = None) -> PassResult:
        """Run pass ``index``; ``tracer`` (a context manager) wraps its timed part."""
        raise NotImplementedError

    def __enter__(self) -> "Workload":
        self.setup()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.teardown()


class SerialWorkload(Workload):
    """One request, repeated every pass on the serial backend, no store.

    Every pass must reproduce the recorded reference digests when the
    seed has them, and otherwise the digests of the run's first pass.
    """

    def __init__(
        self,
        seed: int,
        request: Request,
        *,
        references: dict[str, str] | None = None,
    ) -> None:
        super().__init__(seed)
        #: Recorded reference digests for this (workload, seed), if any.
        self.references = references
        self.request = request
        self.program_seed = derive_seed(seed, self.name)
        self.scheduler: ExperimentScheduler | None = None
        self._first: dict[str, str] | None = None

    def setup(self) -> None:
        self.scheduler = ExperimentScheduler(seed=self.program_seed)

    def run_pass(self, index: int, tracer: Any = None) -> PassResult:
        assert self.scheduler is not None, "setup() first"
        with tracer or contextlib.nullcontext():
            started = time.perf_counter()
            report = self.scheduler.run(self.request.figures, self.request.overrides)
            wall = time.perf_counter() - started
        out = PassResult(wall=wall, reports=[report])
        expected = self.references if self.references is not None else self._first
        digests = _check(report, self.request, expected, self.name, out)
        if self._first is None:
            self._first = digests
        return out

    def reference_digests(self) -> dict[str, str]:
        """Digests of one serial run of the request (reference recording)."""
        scheduler = ExperimentScheduler(seed=self.program_seed)
        report = scheduler.run(self.request.figures, self.request.overrides)
        report.raise_for_errors()
        return {fid: result_digest(report.results[fid]) for fid in self.request.figures}


class PaperWorkload(SerialWorkload):
    """Every figure at its paper-scale default repetitions."""

    name = "paper"

    def __init__(
        self,
        seed: int,
        *,
        figures: tuple[str, ...] | None = None,
        overrides: dict[str, dict[str, Any]] | None = None,
        references: dict[str, str] | None = None,
    ) -> None:
        request = Request(tuple(figures or FIGURES), dict(overrides or {}))
        super().__init__(seed, request, references=references)


class GridSweepWorkload(SerialWorkload):
    """The cheap-cell figures at many repetitions: a precision sweep."""

    name = "grid-sweep"
    REPETITIONS = 1500

    def __init__(
        self,
        seed: int,
        *,
        repetitions: int = REPETITIONS,
        references: dict[str, str] | None = None,
    ) -> None:
        request = Request(
            CHEAP_FIGURES, {fid: {"repetitions": repetitions} for fid in CHEAP_FIGURES}
        )
        super().__init__(seed, request, references=references)


class FleetStoreWorkload(Workload):
    """A store-aware remote fleet: cold, extending and rerunning clients.

    One in-process ``StoreServer`` (fresh temp dir, default capacities)
    and one inline ``WorkerServer(workers=1)`` on loopback serve every
    round. Round ``r`` runs on its own program seed, so rounds never hit
    each other's figures or cells:

    * A runs the cheap figures at R repetitions: every cell claims, runs
      and puts (the cold phase);
    * B extends them to 2R: the figure key misses, and exactly the first
      R repetitions of every platform are lease hits;
    * C reruns A's request: every figure is a ``hit-remote`` read.

    A and B together put ``2 * 45 * R`` cells, which must fit the cell
    tier, so no cell of the round is evicted before B claims it.
    Digests must equal a serial run of the same request, computed before
    the round and outside its timing.
    """

    name = "fleet-store"
    REPETITIONS = 40

    def __init__(
        self,
        seed: int,
        *,
        repetitions: int = REPETITIONS,
        workdir: pathlib.Path | None = None,
    ) -> None:
        super().__init__(seed)
        if 2 * CHEAP_CELLS_PER_REP * repetitions > DEFAULT_CELL_CAPACITY:
            raise ValueError(
                f"{repetitions} repetitions overflow the cell tier's "
                f"{DEFAULT_CELL_CAPACITY} entries"
            )
        self.workdir = workdir
        self.cold = Request(
            CHEAP_FIGURES, {fid: {"repetitions": repetitions} for fid in CHEAP_FIGURES}
        )
        self.extend = Request(
            CHEAP_FIGURES, {fid: {"repetitions": 2 * repetitions} for fid in CHEAP_FIGURES}
        )
        self.store_server: StoreServer | None = None
        self.worker: WorkerServer | None = None
        self._tmp: pathlib.Path | None = None

    def setup(self) -> None:
        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
        self._tmp = pathlib.Path(tempfile.mkdtemp(prefix="fleet-store-", dir=self.workdir))
        try:
            self.store_server = StoreServer(port=0, root=self._tmp / "store").start()
            self.worker = WorkerServer(port=0, workers=1).start()
        except BaseException:
            self.teardown()
            raise

    def teardown(self) -> None:
        for server in (self.worker, self.store_server):
            if server is not None:
                server.stop()
        self.worker = self.store_server = None
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    def policy(self) -> ExecutionPolicy:
        assert self.worker is not None and self.store_server is not None, "setup() first"
        return ExecutionPolicy(
            workers=(self.worker.address_string,),
            store_url=self.store_server.address_string,
        )

    def round_seed(self, index: int) -> int:
        return derive_seed(self.seed, self.name, "round", index)

    def serial_digests(self, program_seed: int) -> tuple[dict[str, str], dict[str, str]]:
        """Serial reference digests of the round's A and B requests."""
        scheduler = ExperimentScheduler(seed=program_seed)
        digests = []
        for request in (self.cold, self.extend):
            report = scheduler.run(request.figures, request.overrides)
            report.raise_for_errors()
            digests.append(
                {fid: result_digest(report.results[fid]) for fid in request.figures}
            )
        return digests[0], digests[1]

    def run_pass(self, index: int, tracer: Any = None) -> PassResult:
        assert self.store_server is not None, "setup() first"
        program_seed = self.round_seed(index)
        cold_ref, extend_ref = self.serial_digests(program_seed)
        before = self.store_server.cell_stats()
        scheduler = ExperimentScheduler(seed=program_seed, policy=self.policy())
        try:
            with tracer or contextlib.nullcontext():
                started = time.perf_counter()
                cold = scheduler.run(self.cold.figures, self.cold.overrides)
                split = time.perf_counter()
                extend = scheduler.run(self.extend.figures, self.extend.overrides)
                rerun = scheduler.run(self.cold.figures, self.cold.overrides)
                ended = time.perf_counter()
        finally:
            scheduler.store.close()
        out = PassResult(
            wall=ended - started,
            phases={"cold_s": split - started, "warm_s": ended - split},
            reports=[cold, extend, rerun],
        )
        _check(cold, self.cold, cold_ref, "A", out)
        _check(extend, self.extend, extend_ref, "B", out)
        _check(rerun, self.cold, cold_ref, "C", out)
        self._check_dispositions(cold, extend, rerun, out)
        after = self.store_server.cell_stats()
        repeats = after["put_repeats"] - before["put_repeats"]
        if repeats:
            for label, request in (("A", self.cold), ("B", self.extend)):
                for figure_id in request.figures:
                    out.fail(f"{label}/{figure_id}", f"{repeats} cell put(s) repeated")
        return out

    def _check_dispositions(
        self,
        cold: SchedulerReport,
        extend: SchedulerReport,
        rerun: SchedulerReport,
        out: PassResult,
    ) -> None:
        """Each phase must take the cache path its design promises."""
        for label, report, cache in (("A", cold, "miss"), ("B", extend, "miss"),
                                     ("C", rerun, "hit-remote")):
            for record in report.records:
                if record.error is None and record.cache != cache:
                    out.fail(f"{label}/{record.figure_id}",
                             f"cache {record.cache}, expected {cache}")
        for label, report, hit_share in (("A", cold, 0), ("B", extend, 2)):
            for record in report.records:
                if record.error is not None or record.grid_width is None:
                    continue
                hits = (record.dedupe or {}).get("store_hits", 0)
                expected = record.grid_width // hit_share if hit_share else 0
                if hits != expected:
                    out.fail(f"{label}/{record.figure_id}",
                             f"{hits} lease hits of {record.grid_width} cells, "
                             f"expected {expected}")


WORKLOADS: dict[str, type[Workload]] = {
    PaperWorkload.name: PaperWorkload,
    GridSweepWorkload.name: GridSweepWorkload,
    FleetStoreWorkload.name: FleetStoreWorkload,
}
