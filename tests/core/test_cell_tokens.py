"""Cell tokens: minted only for a store-aware dispatch, and never changed.

A cell token is the content address the fleet's shared store dedupes
cells by (:func:`repro.core.plan.cell_token`). Only a remote dispatch
with a ``store_url`` uses it, so lowering and every local backend must
never mint one, while the store-aware path must mint exactly the tokens
the store already knows. The token pins below were recorded when tokens
were still minted eagerly during lowering; a change that moves them
would make a shared store serve stale or foreign cells.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.core import plan as plan_module
from repro.core.figures import plan_fig05, plan_fig13
from repro.core.scheduler import ExecutionPolicy, ExperimentScheduler, _CountingMapper
from repro.core.storenet import StoreServer

SEED = 42


class StoreAwareRecorder:
    """A serial mapper that claims to be store-aware and records tokens."""

    store_url = "127.0.0.1:1"

    def __init__(self) -> None:
        self.tokens: list[str | None] = []

    def __call__(self, fn, items):
        items = list(items)
        self.tokens.extend(item.token for item in items)
        return [fn(item) for item in items]


def token_digest(tokens) -> str:
    return hashlib.blake2b("\n".join(tokens).encode("utf-8"), digest_size=8).hexdigest()


@pytest.fixture
def token_calls(monkeypatch):
    """Count every ``plan.cell_token`` call made during the test."""
    calls = []
    original = plan_module.cell_token

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(plan_module, "cell_token", counting)
    return calls


class TestTokenPins:
    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda: plan_fig05(3), "d68d3068a254373e"),
            (lambda: plan_fig13(5), "0bd2a6d578333906"),
        ],
        ids=["fig05", "fig13"],
    )
    def test_store_aware_dispatch_mints_the_pinned_tokens(self, build, expected):
        grid = build().lower(SEED)
        recorder = StoreAwareRecorder()
        grid.execute(recorder)
        assert len(recorder.tokens) == grid.width
        assert all(recorder.tokens)
        assert token_digest(recorder.tokens) == expected

    def test_docker_and_docker_oci_cells_get_distinct_tokens(self):
        # Both roster entries build a platform named "docker" with equal
        # stream paths; only the roster name tells their cells apart.
        grid = plan_fig13(5).lower(SEED)
        recorder = StoreAwareRecorder()
        grid.execute(recorder)
        by_roster = {cell.platform: token for cell, token in zip(grid.cells, recorder.tokens)}
        docker = next(c for c in grid.cells if c.platform == "docker").job
        oci = next(c for c in grid.cells if c.platform == "docker-oci").job
        assert docker.platform.name == oci.platform.name
        assert by_roster["docker"] != by_roster["docker-oci"]


class TestNoTokensOffTheStorePath:
    def test_lowering_mints_no_tokens(self, token_calls):
        grid = plan_fig05(3).lower(SEED)
        assert all(cell.job.token is None for cell in grid.cells)
        assert token_calls == []

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_local_backends_mint_no_tokens(self, backend, token_calls):
        policy = ExecutionPolicy(
            grid_backend=backend, grid_jobs=1 if backend == "serial" else 2
        )
        report = ExperimentScheduler(SEED, quick=True, policy=policy).run(["fig05"])
        report.raise_for_errors()
        assert report.record_for("fig05").grid_width > 0
        assert token_calls == []

    def test_plan_command_mints_no_tokens(self, token_calls, capsys):
        assert main(["plan", "fig09", "--quick"]) == 0
        assert "fig09" in capsys.readouterr().out
        assert token_calls == []


class TestStoreAwareDispatch:
    def test_counting_mapper_forwards_store_url(self):
        recorder = StoreAwareRecorder()
        assert _CountingMapper(recorder).store_url == recorder.store_url
        assert _CountingMapper(lambda fn, items: []).store_url is None

    def test_fig13_store_aware_run_equals_serial(self, loopback_worker, tmp_path, token_calls):
        overrides = {"fig13": {"startups": 5}}
        serial = ExperimentScheduler(SEED).run(["fig13"], overrides)
        with StoreServer(port=0, root=tmp_path / "store") as store:
            policy = ExecutionPolicy(
                workers=(loopback_worker.address_string,),
                store_url=store.address_string,
            )
            scheduler = ExperimentScheduler(SEED, policy=policy)
            try:
                report = scheduler.run(["fig13"], overrides)
            finally:
                scheduler.store.close()
            cells = store.cell_stats()
        report.raise_for_errors()
        assert (report.results["fig13"].comparable_dict()
                == serial.results["fig13"].comparable_dict())
        width = report.record_for("fig13").grid_width
        assert len(token_calls) == width
        assert cells["runs"] == cells["puts"] == width
        assert cells["put_repeats"] == 0

    def test_scheduler_driven_run_dedupes_through_the_store(self, loopback_worker, tmp_path):
        # An extending client: the figure key misses, and the first half of
        # every platform's repetitions are lease hits from the first run.
        reps = 3
        with StoreServer(port=0, root=tmp_path / "store") as store:
            policy = ExecutionPolicy(
                workers=(loopback_worker.address_string,),
                store_url=store.address_string,
            )
            scheduler = ExperimentScheduler(SEED, policy=policy)
            try:
                first = scheduler.run(["fig05"], {"fig05": {"repetitions": reps}})
                second = scheduler.run(["fig05"], {"fig05": {"repetitions": 2 * reps}})
            finally:
                scheduler.store.close()
            cells = store.cell_stats()
        for report in (first, second):
            report.raise_for_errors()
            assert report.record_for("fig05").cache == "miss"
        record = second.record_for("fig05")
        assert record.dedupe["store_hits"] == record.grid_width // 2 > 0
        assert cells["put_repeats"] == 0
