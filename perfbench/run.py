"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: timed
passes repeat until ``--seconds`` have passed, and every time is the
median over the passes. ``setup_s`` is the median of several fresh
interpreters, each timed from its start until the workload is ready for
its first timed call. ``--trace 1`` runs one traced pass first and then
untraced passes for the rest of the time, and reports the per-layer
metrics plus the attribution report (on standard error).

The run pins itself to one CPU, and every time is in reference seconds:
scaled by the host speed sampled around and during the step it times
(see ``calibration.py``).

The last line of standard output is the result object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Without the program's sources
next to the benchmark (``src/repro``) it exits with status 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 5

#: Seconds a set-up probe may take before the run gives up on it.
PROBE_TIMEOUT_S = 60

#: Scratch space for temp dirs, inside the checkout.
WORKDIR = ROOT / ".perfbench-work"

READY = "perfbench-ready"


def _load_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {source}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(source)):
        if path not in sys.path:
            sys.path.insert(0, path)


def build_workload(name: str, seed: int):
    """The named workload, with its recorded reference digests if any."""
    from perfbench.references import load_references
    from perfbench.workloads import FleetStoreWorkload, WORKLOADS

    cls = WORKLOADS[name]
    if cls is FleetStoreWorkload:
        return cls(seed, workdir=WORKDIR)
    return cls(seed, references=load_references(name, seed))


def probe_setup(workload: str, seed: int) -> float:
    """Time one fresh interpreter from start until the workload is set up."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed), "--setup-probe"]
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
        finally:
            try:
                child.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    if child.returncode != 0 or line.strip() != READY:
        raise RuntimeError(f"set-up probe failed (status {child.returncode})")
    return elapsed


def measure(workload, seconds: float, trace: bool) -> dict:
    """Timed passes until ``seconds`` have passed; metrics of the run.

    Every pass is scaled to reference seconds by the host speed sampled
    around and during it, and every set-up probe by the speed sampled
    around it (see :mod:`perfbench.calibration`).
    """
    from perfbench import report
    from perfbench.calibration import SpeedProbe
    from perfbench.tracing import Tracer

    passes = []
    traced = tracer = cell_stats = None
    deadline = time.perf_counter() + seconds
    with workload:
        index = 0
        if trace:
            tracer = Tracer()
            before = _cell_stats(workload)
            with SpeedProbe().sampling() as probe:
                traced = workload.run_pass(index, tracer=tracer)
            traced.scale = probe.scale()
            after = _cell_stats(workload)
            if before is not None:
                cell_stats = {key: after[key] - before[key] for key in before}
            index += 1
        while not passes or time.perf_counter() < deadline:
            with SpeedProbe().sampling() as probe:
                result = workload.run_pass(index)
            result.scale = probe.scale()
            passes.append(result)
            index += 1
    everything = passes + ([traced] if traced is not None else [])
    attempted = sum(p.attempted for p in everything)
    failures = {f"pass{i}/{op}": why for i, p in enumerate(everything)
                for op, why in p.failures.items()}
    raw = [p.wall for p in passes]
    print(f"perfbench: {len(passes)} untraced passes, raw wall s min {min(raw):.4f} "
          f"median {statistics.median(raw):.4f} max {max(raw):.4f}; host scale "
          f"{min(p.scale for p in passes):.3f}..{max(p.scale for p in passes):.3f}",
          file=sys.stderr)
    if trace:
        metrics = report.per_layer(tracer, traced, passes, cell_stats)
        print(report.attribution(workload.name, metrics, tracer.spans), file=sys.stderr)
    else:
        samples = []
        for _ in range(SETUP_SAMPLES):
            # Bracketed only: the probe runs in a child on this same CPU,
            # and a sample taken here would compete with it.
            with SpeedProbe().sampling(in_step=False) as probe:
                elapsed = probe_setup(workload.name, workload.seed)
            samples.append(elapsed * probe.scale())
        metrics = report.end_to_end(passes, samples)
    for op, why in sorted(failures.items())[:20]:
        print(f"perfbench: failed {op}: {why}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report.metric_block(metrics),
    }


def _cell_stats(workload) -> dict | None:
    server = getattr(workload, "store_server", None)
    return server.cell_stats() if server is not None else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if not args.setup_probe:
        from perfbench.calibration import pin_to_one_cpu

        pin_to_one_cpu()
    workload = build_workload(args.workload, args.seed)
    if args.setup_probe:
        with workload:
            print(READY, flush=True)
        return 0
    try:
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
