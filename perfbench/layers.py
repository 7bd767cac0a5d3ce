"""Which program names the traced run wraps, and the per-layer metrics.

Each entry of :data:`PATCHES` names a module or class attribute that a
caller looks up at run time, the layer it belongs to, and whether calls
are kept as single spans or as per-parent aggregates (hot leaves).  The
same table serves the benchmark process and the HTTP server child.
"""

from __future__ import annotations

import importlib
import os

from tracing import Tracer

from repro.syscall.behaviors import BEHAVIOR_NAMES


def _metric_name(behavior: str) -> str:
    """Behavior name as a metric-name suffix (``+`` is not allowed)."""
    return behavior.replace("+", "p")


#: Per-layer metric names and units, in report order (BENCHMARK.json
#: ``per_layer`` lists the same names).
LAYER_METRICS: dict[str, str] = {
    "syscall.generate_s": "s",
    "graph.freeze_s": "s",
    "graph.edges": "count",
    "kernel.build_s": "s",
    "growth.seed_s": "s",
    "growth.extend_s": "s",
    "growth.extend_calls": "count",
    "residual.summarize_s": "s",
    "residual.summarize_calls": "count",
    "subgraph.mapping_s": "s",
    "subgraph.mapping_calls": "count",
    "index.check_s": "s",
    "index.checks": "count",
    "index.skips": "count",
    "index.skip_ratio": "ratio",
    "miner.self_s": "s",
    "miner.patterns_explored": "count",
    "miner.subgraph_tests": "count",
    "miner.subgraph_prunes": "count",
    "miner.supergraph_prunes": "count",
    "miner.upper_bound_prunes": "count",
    "miner.residual_tests": "count",
    **{f"mine_s.{_metric_name(name)}": "s" for name in BEHAVIOR_NAMES},
    "ranking.fit_s": "s",
    "ranking.rank_s": "s",
    "model.save_s": "s",
    "model.load_s": "s",
    "model.bundle_bytes": "bytes",
    "engine.build_s": "s",
    "engine.search_s": "s",
    "engine.spans": "count",
    "join.find_matches_s": "s",
    "join.calls": "count",
    "streaming.ingest_s": "s",
    "streaming.evicted": "count",
    "registry.survivors_s": "s",
    "registry.prefilter_ratio": "ratio",
    "service.ingest_s": "s",
    "service.detections": "count",
    "fleet.route_s": "s",
    "fleet.tenants": "count",
    "checkpoint.append_s": "s",
    "checkpoint.snapshot_s": "s",
    "checkpoint.snapshots": "count",
    "checkpoint.wal_bytes": "bytes",
    "checkpoint.snapshot_bytes": "bytes",
    "http.handle_ingest_s": "s",
    "http.codec_s": "s",
    "http.client_s": "s",
    "http.transport_s": "s",
    "http.request_bytes": "bytes",
    "http.response_bytes": "bytes",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.records": "count",
}

#: Layer (span) name -> the ``*_s`` self-time metric it feeds.
SELF_TIME_METRIC = {
    "syscall.generate": "syscall.generate_s",
    "graph.freeze": "graph.freeze_s",
    "kernel.build": "kernel.build_s",
    "growth.seed": "growth.seed_s",
    "growth.extend": "growth.extend_s",
    "residual.summarize": "residual.summarize_s",
    "subgraph.mapping": "subgraph.mapping_s",
    "index.check": "index.check_s",
    "miner.mine": "miner.self_s",
    "ranking.fit": "ranking.fit_s",
    "ranking.rank": "ranking.rank_s",
    "model.save": "model.save_s",
    "model.load": "model.load_s",
    "engine.build": "engine.build_s",
    "engine.search": "engine.search_s",
    "join.find_matches": "join.find_matches_s",
    "streaming.ingest": "streaming.ingest_s",
    "registry.survivors": "registry.survivors_s",
    "service.ingest": "service.ingest_s",
    "fleet.route": "fleet.route_s",
    "checkpoint.append": "checkpoint.append_s",
    "checkpoint.snapshot": "checkpoint.snapshot_s",
    "http.handle_ingest": "http.handle_ingest_s",
    "http.codec": "http.codec_s",
    "http.request": "http.client_s",
}

#: Call counts reported beside self times.
CALL_METRIC = {
    "growth.extend": "growth.extend_calls",
    "residual.summarize": "residual.summarize_calls",
    "subgraph.mapping": "subgraph.mapping_calls",
    "index.check": "index.checks",
    "join.find_matches": "join.calls",
    "checkpoint.snapshot": "checkpoint.snapshots",
}


# ----------------------------------------------------------------------
# result hooks feeding counters
# ----------------------------------------------------------------------
def _count_edges(tracer, args, _kwargs, graph):
    tracer.counters["graph.edges"] += graph.num_edges


def _count_skip(tracer, _args, _kwargs, admitted):
    if not admitted:
        tracer.counters["index.skips"] += 1


def _miner_stats(tracer, _args, _kwargs, result):
    stats = result.stats
    counters = tracer.counters
    counters["miner.patterns_explored"] += stats.patterns_explored
    counters["miner.subgraph_tests"] += stats.subgraph_tests
    counters["miner.subgraph_prunes"] += stats.subgraph_pruning_triggers
    counters["miner.supergraph_prunes"] += stats.supergraph_pruning_triggers
    counters["miner.upper_bound_prunes"] += stats.upper_bound_prunes
    counters["miner.residual_tests"] += stats.residual_equivalence_tests


def _bundle_bytes(tracer, _args, _kwargs, path):
    tracer.counters["model.bundle_bytes"] += os.path.getsize(path)


def _count_spans(tracer, _args, _kwargs, spans):
    tracer.counters["engine.spans"] += len(spans)


def _stream_delta(tracer, _args, _kwargs, delta):
    tracer.counters["streaming.evicted"] += delta.evicted


def _survivors(tracer, args, _kwargs, alive):
    tracer.counters["registry.offered"] += len(args[0])
    tracer.counters["registry.passed"] += len(alive)


def _detections(tracer, _args, _kwargs, found):
    tracer.counters["service.detections"] += len(found)


def _wal_bytes(tracer, args, _kwargs, offset):
    store = args[0]
    size = os.path.getsize(store.wal_path(store.generation))
    tracer.counters["checkpoint.wal_bytes"] += size - offset


def _snapshot_bytes(tracer, args, _kwargs, generation):
    store = args[0]
    tracer.counters["checkpoint.snapshot_bytes"] += os.path.getsize(
        store.snapshot_path(generation)
    )


def _behavior(args, _kwargs):
    """Tag a ``TGMiner.mine`` span with the behavior it mines.

    Training graphs are named ``<behavior>/run<k>`` by the simulator.
    """
    positives = args[1]
    return {"behavior": positives[0].name.partition("/")[0]} if positives else {}


#: (module, attribute path, layer, options) — "Class.method" paths
#: patch the class attribute every instance looks up.
PATCHES = (
    ("repro.api.workspace", "build_training_data", "syscall.generate", {}),
    ("repro.api.workspace", "build_test_data", "syscall.generate", {}),
    ("repro.core.graph", "TemporalGraph.freeze", "graph.freeze",
     {"on_result": _count_edges}),
    ("repro.core.miner", "build_kernels", "kernel.build", {}),
    ("repro.core.miner", "seed_patterns", "growth.seed", {}),
    ("repro.core.miner", "extend_embeddings", "growth.extend",
     {"aggregate": True}),
    ("repro.core.miner", "summarize_residuals", "residual.summarize",
     {"aggregate": True}),
    ("repro.core.subgraph", "SequenceSubgraphTester.mapping",
     "subgraph.mapping", {"aggregate": True}),
    ("repro.core.graph_index", "CandidateFilter.pattern_vs_pattern",
     "index.check", {"aggregate": True, "on_result": _count_skip}),
    ("repro.core.graph_index", "CandidateFilter.pattern_vs_graph",
     "index.check", {"aggregate": True, "on_result": _count_skip}),
    ("repro.core.miner", "TGMiner.mine", "miner.mine",
     {"on_result": _miner_stats, "attrs": _behavior}),
    ("repro.core.ranking", "InterestModel.fit", "ranking.fit", {}),
    ("repro.api.workspace", "rank_patterns", "ranking.rank", {}),
    ("repro.api.model", "BehaviorModel.save", "model.save",
     {"on_result": _bundle_bytes}),
    ("repro.api.model", "BehaviorModel.load", "model.load", {}),
    ("repro.query.engine", "QueryEngine.__init__", "engine.build", {}),
    ("repro.query.engine", "QueryEngine.search_query", "engine.search",
     {"on_result": _count_spans}),
    ("repro.query.engine", "find_matches", "join.find_matches", {}),
    ("repro.serving.service", "find_matches", "join.find_matches", {}),
    ("repro.serving.streaming", "StreamingGraph.ingest", "streaming.ingest",
     {"aggregate": True, "on_result": _stream_delta}),
    ("repro.serving.registry", "QueryRegistry.survivors", "registry.survivors",
     {"aggregate": True, "on_result": _survivors}),
    ("repro.serving.service", "DetectionService.ingest", "service.ingest",
     {"on_result": _detections}),
    ("repro.serving.fleet", "DetectionFleet.ingest", "fleet.route", {}),
    ("repro.serving.checkpoint", "CheckpointStore.append", "checkpoint.append",
     {"aggregate": True, "on_result": _wal_bytes}),
    ("repro.serving.checkpoint", "CheckpointStore.snapshot",
     "checkpoint.snapshot", {"aggregate": True, "on_result": _snapshot_bytes}),
    ("repro.serving.http", "DetectionServer.handle_ingest", "http.handle_ingest",
     {}),
    ("repro.serving.http", "_RequestHandler.do_POST", "http.codec", {}),
)


def install(tracer: Tracer) -> None:
    """Wrap every :data:`PATCHES` entry on ``tracer``."""
    for module_name, path, layer, options in PATCHES:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        tracer.patch(owner, attr, layer, **options)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times, call counts and counters of every traced layer."""
    out = {name: 0.0 for name in LAYER_METRICS}
    for layer, seconds in tracer.self_times().items():
        metric = SELF_TIME_METRIC.get(layer)
        if metric is not None:
            out[metric] += seconds
        elif layer.startswith("stage."):
            out["bench.self_s"] += seconds
    for layer, (_total, calls) in tracer.totals().items():
        metric = CALL_METRIC.get(layer)
        if metric is not None:
            out[metric] += calls
    for name, value in tracer.counters.items():
        if name in out:
            out[name] += value
    for _span_id, record in tracer.find("miner.mine"):
        behavior = record[4].get("behavior")
        if behavior:
            out[f"mine_s.{_metric_name(behavior)}"] += record[2] - record[1]
    out["registry.offered"] = tracer.counters.get("registry.offered", 0.0)
    out["registry.passed"] = tracer.counters.get("registry.passed", 0.0)
    return out


def finish_ratios(metrics: dict[str, float]) -> None:
    """Derive the ratio metrics from summed counts (in place)."""
    checks = metrics["index.checks"]
    metrics["index.skip_ratio"] = metrics["index.skips"] / checks if checks else 0.0
    offered = metrics.pop("registry.offered", 0.0)
    passed = metrics.pop("registry.passed", 0.0)
    metrics["registry.prefilter_ratio"] = (
        1.0 - passed / offered if offered else 0.0
    )
