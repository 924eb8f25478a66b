"""Tests for the benchmark itself, at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import calibration, report
from perfbench.tracing import Tracer, nesting_violations
from perfbench.workloads import (
    CHEAP_CELLS_PER_REP,
    CHEAP_FIGURES,
    FleetStoreWorkload,
    GridSweepWorkload,
    PaperWorkload,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Per-layer metrics that are counts: they must repeat exactly for a seed.
COUNTS = (
    "plan.cells", "simcore.runs", "remote.frames", "store.gets", "store.get_hits",
    "store.puts", "storenet.claims", "storenet.claim_hits", "storenet.claim_runs",
    "storenet.claim_waits", "storenet.cell_puts", "storenet.put_repeats",
    "storenet.evicted", "trace.spans",
)


def tiny_paper(seed: int) -> PaperWorkload:
    """A paper-shaped request small enough for a test: one figure per layer."""
    return PaperWorkload(
        seed,
        figures=("fig05", "fig13", "fig18"),
        overrides={"fig05": {"repetitions": 2}, "fig13": {"startups": 4}},
    )


def tiny(name: str, seed: int, tmp_path: pathlib.Path):
    if name == "paper":
        return tiny_paper(seed)
    if name == "grid-sweep":
        return GridSweepWorkload(seed, repetitions=2)
    return FleetStoreWorkload(seed, repetitions=2, workdir=tmp_path)


def traced_metrics(workload) -> tuple[dict[str, float], Tracer]:
    """One traced pass then one untraced pass, as ``run.py --trace 1`` does."""
    tracer = Tracer()
    with workload:
        server = getattr(workload, "store_server", None)
        before = server.cell_stats() if server is not None else None
        traced = workload.run_pass(0, tracer=tracer)
        after = server.cell_stats() if server is not None else None
        untraced = [workload.run_pass(1)]
    assert not traced.failures and not untraced[0].failures
    cells = {k: after[k] - before[k] for k in before} if before is not None else None
    return report.per_layer(tracer, traced, untraced, cells), tracer


@pytest.mark.parametrize("name", ["paper", "grid-sweep", "fleet-store"])
def test_every_workload_runs(name, tmp_path):
    with tiny(name, 3, tmp_path) as workload:
        passes = [workload.run_pass(index) for index in range(2)]
    for result in passes:
        assert result.failures == {}
        assert result.wall > 0
        assert result.attempted == {"paper": 3, "grid-sweep": 5, "fleet-store": 15}[name]
    metrics = report.end_to_end(passes, [0.5, 0.4, 0.6])
    assert set(metrics) == {"wall_s", "setup_s", "peak_rss_mb", "cold_s", "warm_s"}
    assert all(value > 0 for value in metrics.values())
    assert metrics["setup_s"] == 0.5


def test_fleet_store_extension_is_half_lease_hits(tmp_path):
    metrics, _ = traced_metrics(FleetStoreWorkload(5, repetitions=2, workdir=tmp_path))
    cold_cells = CHEAP_CELLS_PER_REP * 2
    assert metrics["storenet.claims"] == cold_cells + 2 * cold_cells
    assert metrics["storenet.claim_hits"] == cold_cells
    assert metrics["storenet.cell_puts"] == 2 * cold_cells
    assert metrics["storenet.put_repeats"] == 0
    assert metrics["store.get_hits"] == len(CHEAP_FIGURES)


@pytest.mark.parametrize("name", ["paper", "fleet-store"])
def test_spans_nest_and_account_for_the_wall(name, tmp_path):
    metrics, tracer = traced_metrics(tiny(name, 2, tmp_path))
    assert nesting_violations(tracer.spans) == []
    assert report.ACCOUNTED_MIN <= metrics["trace.accounted"] <= 1.0 + 1e-9
    assert metrics["layer.outside.self_s"] >= -1e-9
    names = {span.name for span in tracer.spans}
    if name == "paper":
        assert {"Simulator.run", "FigurePlan.lower", "run_rep_job"} <= names
        assert metrics["simcore.runs"] > 0
    else:
        assert {"RemoteStore.cell_claim", "RemoteStore.cell_put", "store.get"} <= names
        claims = [s for s in tracer.spans if s.name == "RemoteStore.cell_claim"]
        # Worker-thread spans hang off the client's open grid dispatch.
        parents = {s.span_id: s for s in tracer.spans}
        assert all(parents[s.parent].name == "LoweredGrid.execute" for s in claims)
        assert all(s.figure in CHEAP_FIGURES for s in claims)


def test_traced_metrics_match_the_declared_per_layer_metrics(tmp_path):
    metrics, _ = traced_metrics(tiny("fleet-store", 2, tmp_path))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    block = report.metric_block(metrics)
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in block.items()
    }


def test_tracer_restores_every_entry_point():
    from repro.core import plan, runner
    from repro.core.scheduler import ExperimentScheduler

    originals = (ExperimentScheduler.run, plan.cell_token, runner.run_rep_job,
                 plan.run_rep_job)
    with Tracer():
        assert ExperimentScheduler.run is not originals[0]
        assert plan.run_rep_job is runner.run_rep_job
    assert (ExperimentScheduler.run, plan.cell_token, runner.run_rep_job,
            plan.run_rep_job) == originals


def test_per_layer_counts_repeat_for_a_seed(tmp_path):
    first, _ = traced_metrics(FleetStoreWorkload(7, repetitions=2, workdir=tmp_path))
    second, _ = traced_metrics(FleetStoreWorkload(7, repetitions=2, workdir=tmp_path))
    other, _ = traced_metrics(FleetStoreWorkload(8, repetitions=2, workdir=tmp_path))
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    for name in ("plan.cells", "storenet.claim_hits"):
        assert first[name] == other[name]


def test_per_layer_counts_repeat_on_the_serial_path():
    first, _ = traced_metrics(tiny_paper(4))
    second, _ = traced_metrics(tiny_paper(4))
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_corrupted_reference_digest_fails_one_operation():
    workload = GridSweepWorkload(6, repetitions=2)
    references = workload.reference_digests()
    with GridSweepWorkload(6, repetitions=2, references=dict(references)) as clean:
        assert clean.run_pass(0).failures == {}
    references["fig07"] = "0" * 16
    with GridSweepWorkload(6, repetitions=2, references=references) as corrupted:
        result = corrupted.run_pass(0)
    assert result.attempted == 5
    assert list(result.failures) == ["grid-sweep/fig07"]


def test_a_pass_that_disagrees_with_the_first_fails(monkeypatch):
    with GridSweepWorkload(6, repetitions=2) as workload:
        assert workload.run_pass(0).failures == {}
        workload._first["fig05"] = "f" * 16
        assert list(workload.run_pass(1).failures) == ["grid-sweep/fig05"]


def test_speed_probe_samples_during_the_step_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with calibration.SpeedProbe().sampling() as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) > 2 * calibration.BRACKET
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.scale() > 0


def test_fleet_store_rejects_rounds_that_overflow_the_cell_tier(tmp_path):
    with pytest.raises(ValueError):
        FleetStoreWorkload(1, repetitions=46, workdir=tmp_path)


def test_command_prints_the_result_line():
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sweep", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
