"""End-to-end benchmark of the repository: one workload per invocation.

    python3 perfbench/run.py --workload mine-paper --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
— the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Lines before it give sample counts and
stage times.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for bundles, checkpoints and trace files (git-ignored).
WORK = ROOT / ".perfbench"

#: End-to-end metric units, in report order (BENCHMARK.json lists them).
END_TO_END = {
    "setup_s": "s",
    "mine_s": "s",
    "query_s": "s",
    "precision": "ratio",
    "recall": "ratio",
    "events_per_s": "1/s",
    "batch_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    # a run is a fixed number of rounds (workloads.ROUNDS), sized to the
    # run_seconds of BENCHMARK.json; the length is accepted and not used
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(run) -> dict[str, float | None]:
    """Reduce a run's samples to the end-to-end metrics.

    A metric without samples (its operations failed) is ``None`` and
    makes the run incorrect.
    """
    import figures

    def median(name: str, series) -> float | None:
        run.check(bool(series), f"{name}: no samples")
        return statistics.median(series) if series else None

    values = {
        name: median(name, run.samples[name])
        for name in ("setup_s", "mine_s", "query_s", "precision", "recall",
                     "events_per_s")
    }
    p50 = median("batch_p50_ms", run.latencies)
    values["batch_p50_ms"] = p50 * 1e3 if p50 is not None else None
    # ingest-http works in its server child, which reports its own VmHWM
    values["peak_rss_mb"] = (
        median("peak_rss_mb", run.samples["peak_rss_mb"])
        if run.workload == "ingest-http"
        else figures.peak_rss_mb()
    )
    # reported but not gated: the p99 follows host hiccups and, over
    # HTTP, the synchronous snapshot's fsync (README, "Dropped metric")
    try:
        p99, beyond = figures.tail_percentile(run.latencies)
        print(
            f"batch latency: {len(run.latencies)} samples, "
            f"p99 {p99 * 1e3:.3f} ms with {beyond} beyond"
        )
    except ValueError as exc:
        print(f"batch latency: {len(run.latencies)} samples, no p99: {exc}")
    for name, series in sorted(run.samples.items()):
        print(f"{name}: {len(series)} samples: " + " ".join(f"{v:.4g}" for v in series))
    return values


def _round(workload, run) -> float:
    """Run one workload; an exception the workload did not count as a
    failed operation makes the run incorrect instead of ending it."""
    started = time.perf_counter()
    try:
        workload(run)
    except Exception as exc:  # noqa: BLE001 - reported in the result line
        traceback.print_exc(file=sys.stderr)
        run.check(False, f"workload stopped early: {exc!r}")
    return time.perf_counter() - started


def per_layer(run, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced round (plus any server children)."""
    import layers

    tracer = run.tracer
    metrics = layers.layer_metrics(tracer)
    metrics["trace.records"] = len(tracer.spans) + len(tracer.aggregates)
    server_s = 0.0
    for report in run.child_reports:
        for name, value in report.get("layers", {}).items():
            metrics[name] = metrics.get(name, 0.0) + value
        metrics["trace.records"] += report.get("records", 0)
        server_s += report.get("server_s", 0.0)
    if run.child_reports:
        metrics["http.transport_s"] = run.client_busy - server_s
        metrics["http.request_bytes"] = run.bytes_out
        metrics["http.response_bytes"] = run.bytes_in
    metrics["fleet.tenants"] = run.tenants
    layers.finish_ratios(metrics)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            # one round untraced, traced, untraced: the traced round
            # minus the mean of the two around it is the tracing
            # overhead, measured in a warm process and free of drift
            before, traced, after = (
                workloads.Run(args.workload, args.seed, workdir, rounds=1)
                for _ in range(3)
            )
            before_s = _round(workload, before)
            traced.tracer = Tracer()
            layers.install(traced.tracer)
            try:
                traced_s = _round(workload, traced)
            finally:
                traced.tracer.restore()
            after_s = _round(workload, after)
            traced.tracer.dump(workdir.parent / f"trace-{args.workload}-{args.seed}.jsonl")
            metrics = per_layer(traced, (before_s + after_s) / 2, traced_s)
            units = layers.LAYER_METRICS
            runs = (before, traced, after)
        else:
            run = workloads.Run(args.workload, args.seed, workdir)
            _round(workload, run)
            metrics = end_to_end(run)
            units = END_TO_END
            runs = (run,)
        from repro.core.buffers import backend_name

        print(f"python {sys.version.split()[0]}, match-join backend {backend_name()}")
        for r in runs:
            print(
                f"stages ({'traced' if r.tracer else 'untraced'}): "
                + ", ".join(f"{k}={v:.3f}s" for k, v in r.stage_seconds.items())
            )
        result = {
            "correct": not any(r.problems for r in runs),
            "attempted": sum(r.attempted for r in runs),
            "failed": sum(r.failed for r in runs),
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result["attempted"] == 0:
        print("error: the run attempted no operation", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
