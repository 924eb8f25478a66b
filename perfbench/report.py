"""Turn timed passes and a traced pass into the benchmark's metrics."""

from __future__ import annotations

import resource
import statistics
from typing import Any

from perfbench.tracing import (
    LAYERS,
    OUTSIDE,
    Span,
    Tracer,
    layer_self_times,
    nesting_violations,
    self_summed,
    summed,
)
from perfbench.workloads import HEAVY_FIGURES, PassResult


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: list[PassResult], setup_samples: list[float]) -> dict[str, float]:
    """Medians over the untraced passes, plus set-up and memory.

    Times are in reference seconds: each pass scaled by its own
    calibration factor; ``setup_samples`` arrive scaled already.

    ``cold_s``/``warm_s`` are the pass's phases where the workload has
    them (fleet-store: the cold client, then the extending and rerunning
    clients). A serial workload reuses nothing, so its cold phase is the
    whole pass and its warm phase is the same pass once the process is
    warm: the median over every pass after the first.
    """
    walls = [p.wall * p.scale for p in passes]
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    if passes and passes[0].phases:
        for phase in ("cold_s", "warm_s"):
            metrics[phase] = _median([p.phases[phase] * p.scale for p in passes])
    else:
        metrics["cold_s"] = metrics["wall_s"]
        metrics["warm_s"] = _median(walls[1:] or walls)
    return metrics


def job_times(passes: list[PassResult]) -> dict[str, float]:
    """``scheduler.job_s.<figure>``: median per-pass ``JobRecord`` time."""
    metrics = {}
    for figure_id in HEAVY_FIGURES:
        per_pass = [
            p.scale * sum(record.wall_time_s for report in p.reports
                          for record in report.records if record.figure_id == figure_id)
            for p in passes
        ]
        metrics[f"scheduler.job_s.{figure_id}"] = _median(per_pass)
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    tracer: Tracer,
    traced: PassResult,
    untraced: list[PassResult],
    cell_stats: dict[str, int] | None,
) -> dict[str, float]:
    """Every per-layer metric, from one traced pass and the untraced passes.

    Span times are scaled by the traced pass's calibration factor, the
    ``JobRecord`` times and the untraced median by their own passes'
    factors, so every time is in reference seconds like the end-to-end
    metrics; counts and shares are not scaled.
    """
    spans = tracer.spans
    counts = tracer.counts
    wall = traced.wall
    cells = counts["plan.cells"]
    kinds = tracer.cell_kinds

    def cell_time(kind: str) -> float:
        return sum(s.duration for s in spans
                   if s.name == "run_rep_job" and kinds.get(s.span_id) == kind)

    memcached_s = cell_time("MemcachedYcsbWorkload")
    lower_s = summed(spans, "FigurePlan.lower")
    cell = cell_stats or {}
    claims = cell.get("claims", 0)
    metrics: dict[str, float] = {
        **job_times(untraced),
        "scheduler.self_s": self_summed(spans, "ExperimentScheduler.run"),
        "plan.cells": cells,
        "plan.lower_s": lower_s,
        "plan.lower_us_per_cell": _ratio(lower_s, cells) * 1e6,
        "plan.cell_token_s": summed(spans, "plan.cell_token"),
        "rng.materialize_s": summed(spans, "rng.materialize_streams"),
        "plan.assemble_s": summed(spans, "FigurePlan.assemble"),
        "execute.cell_s": summed(spans, "run_rep_job"),
        "execute.dispatch_s": self_summed(spans, "LoweredGrid.execute"),
        "remote.frames": counts["remote.frames"],
        "remote.bytes_per_cell": _ratio(counts["remote.bytes"], counts["remote.cells"]),
        "remote.chunk_size": _median([float(c) for c in tracer.chunk_sizes]),
        "simcore.run_s": summed(spans, "Simulator.run"),
        "simcore.runs": sum(1 for s in spans if s.name == "Simulator.run"),
        "workloads.memcached.cell_s": memcached_s,
        "workloads.startup.cell_s": cell_time("StartupWorkload"),
        "workloads.memcached.sim_ops_per_s": _ratio(counts["memcached.operations"],
                                                    memcached_s),
        "store.gets": sum(1 for s in spans if s.name == "store.get"),
        "store.get_hits": counts["store.get_hits"],
        "store.get_s": summed(spans, "store.get"),
        "store.puts": sum(1 for s in spans if s.name == "store.put"),
        "store.put_s": summed(spans, "store.put"),
        "storenet.claims": claims,
        "storenet.claim_hits": cell.get("hits", 0),
        "storenet.claim_runs": cell.get("runs", 0),
        "storenet.claim_waits": cell.get("waits", 0),
        "storenet.cell_puts": cell.get("puts", 0),
        "storenet.put_repeats": cell.get("put_repeats", 0),
        "storenet.evicted": cell.get("evicted", 0),
        "storenet.hit_ratio": _ratio(cell.get("hits", 0), claims),
        "storenet.claim_s": summed(spans, "RemoteStore.cell_claim"),
        "storenet.cell_put_s": summed(spans, "RemoteStore.cell_put"),
    }
    layers = layer_self_times(spans, wall)
    for layer, seconds in layers.items():
        metrics[f"layer.{layer}.self_s"] = seconds
        metrics[f"layer.{layer}.share"] = _ratio(seconds, wall)
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = len(spans)
    metrics["trace.accounted"] = _ratio(wall - layers[OUTSIDE], wall)
    metrics["trace.host_scale"] = traced.scale
    for name, value in metrics.items():
        unit = unit_of(name)
        if unit in ("s", "us/cell") and not name.startswith("scheduler.job_s."):
            metrics[name] = value * traced.scale
        elif unit == "ops/s":
            metrics[name] = value / traced.scale
    untraced_wall = _median([p.wall * p.scale for p in untraced])
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    return metrics


#: Per-layer metric units; a name not listed here is a time in seconds.
UNITS = {
    "plan.cells": "count",
    "plan.lower_us_per_cell": "us/cell",
    "remote.frames": "count",
    "remote.bytes_per_cell": "B/cell",
    "remote.chunk_size": "cells",
    "simcore.runs": "count",
    "workloads.memcached.sim_ops_per_s": "ops/s",
    "store.gets": "count",
    "store.get_hits": "count",
    "store.puts": "count",
    "storenet.claims": "count",
    "storenet.claim_hits": "count",
    "storenet.claim_runs": "count",
    "storenet.claim_waits": "count",
    "storenet.cell_puts": "count",
    "storenet.put_repeats": "count",
    "storenet.evicted": "count",
    "storenet.hit_ratio": "ratio",
    "trace.spans": "count",
    "trace.accounted": "ratio",
    "trace.host_scale": "ratio",
    "peak_rss_mb": "MiB",
}


#: Least share of the traced wall the layers' self times must explain.
ACCOUNTED_MIN = 0.95


def unit_of(name: str) -> str:
    if name.endswith(".share"):
        return "ratio"
    return UNITS.get(name, "s")


def attribution(workload: str, metrics: dict[str, float], spans: list[Span]) -> str:
    """The human-readable attribution report of one traced pass."""
    wall = metrics["trace.wall_s"]
    lines = [
        f"attribution for {workload} (reference seconds): traced wall {wall:.4f} s, "
        f"untraced median {metrics['trace.untraced_wall_s']:.4f} s, tracing overhead "
        f"{metrics['trace.overhead_s']:+.4f} s, {len(spans)} spans",
        f"  {'layer':<10} {'self_s':>10} {'share':>7}  modules",
    ]
    for layer in (*LAYERS, OUTSIDE):
        seconds = metrics[f"layer.{layer}.self_s"]
        lines.append(
            f"  {layer:<10} {seconds:>10.4f} {metrics[f'layer.{layer}.share']:>7.1%}  "
            f"{LAYERS.get(layer, 'no span: the benchmark loop')}"
        )
    accounted = metrics["trace.accounted"]
    verdict = "ok" if ACCOUNTED_MIN <= accounted <= 1.0 + 1e-9 else "MISMATCH"
    lines.append(f"  layer self times account for {accounted:.4%} of the traced wall: {verdict}")
    problems = nesting_violations(spans)
    lines.append(f"  spans escaping their parent: {len(problems)}")
    lines.extend(f"    {problem}" for problem in problems[:10])
    return "\n".join(lines)


def metric_block(values: dict[str, float]) -> dict[str, Any]:
    """``{name: {"value": v, "unit": u}}`` as the result line carries it."""
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
