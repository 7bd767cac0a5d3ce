"""Tests of the benchmark's own arithmetic, checker and seed plumbing."""

from __future__ import annotations

import json
import math

import pytest

import checker
import figures
import run as bench_run
import workloads
from tracing import Tracer

from repro.api import Workspace


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_p99_needs_ten_samples_beyond():
    value, beyond = figures.tail_percentile([float(i) for i in range(1000)])
    assert (value, beyond) == (989.0, 10)
    with pytest.raises(ValueError, match="999 samples leaves 9"):
        figures.tail_percentile([0.0] * 999)


def test_tail_percentile_reports_sample_count_beyond():
    samples = [float(i) for i in range(2000)]
    value, beyond = figures.tail_percentile(samples)
    assert beyond == 20
    assert sum(1 for s in samples if s > value) == beyond


def test_spread_matches_quartile_definition():
    med, q1, q3, rel = figures.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5)
    assert math.isclose(rel, 1.0)


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_times_of_nested_spans_and_aggregates_sum_to_root():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(0.5)

    hot = tracer.wrap(leaf, "hot", aggregate=True)

    def middle():
        clock.advance(1.0)
        hot()
        hot()
        clock.advance(0.25)

    traced_middle = tracer.wrap(middle, "middle")
    with tracer.span("stage.root") as root:
        clock.advance(2.0)
        traced_middle()
        traced_middle()
        clock.advance(3.0)

    assert tracer.duration(root.id) == pytest.approx(2.0 + 2 * 2.25 + 3.0)
    times = tracer.self_times(root.id)
    assert times["stage.root"] == pytest.approx(5.0)
    assert times["middle"] == pytest.approx(2 * 1.25)
    assert times["hot"] == pytest.approx(4 * 0.5)
    assert sum(times.values()) == pytest.approx(tracer.duration(root.id))
    assert tracer.totals()["hot"] == (pytest.approx(2.0), 4)
    # two middle spans each anchor their own aggregate
    assert len(tracer.aggregates) == 2


def test_calls_beneath_an_aggregate_nest_by_path():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap(lambda: clock.advance(0.1), "inner", aggregate=True)

    def outer():
        clock.advance(1.0)
        inner()

    traced_outer = tracer.wrap(outer, "outer", aggregate=True)
    with tracer.span("stage.s") as root:
        traced_outer()
    assert set(path for _a, path in tracer.aggregates) == {"outer", "outer/inner"}
    times = tracer.self_times(root.id)
    assert times["outer"] == pytest.approx(1.0)
    assert times["inner"] == pytest.approx(0.1)
    assert times["stage.s"] == pytest.approx(0.0)


def test_generator_time_excludes_the_consumer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def produce():
        for _ in range(3):
            clock.advance(0.2)
            yield 1

    traced = tracer.wrap(produce, "gen")
    with tracer.span("stage.s") as root:
        for _item in traced():
            clock.advance(1.0)
    times = tracer.self_times(root.id)
    assert times["gen"] == pytest.approx(0.6)
    assert times["stage.s"] == pytest.approx(3.0)


def test_patch_and_restore_keep_descriptor_kinds():
    class Target:
        @classmethod
        def build(cls):
            return cls

        def method(self):
            return 7

    tracer = Tracer()
    original = Target.__dict__["build"]
    tracer.patch(Target, "build", "b")
    tracer.patch(Target, "method", "m")
    assert Target.build() is Target
    assert Target().method() == 7
    assert tracer.totals()["b"][1] == 1
    tracer.restore()
    assert Target.__dict__["build"] is original


# ----------------------------------------------------------------------
# checker on hand-built graphs
# ----------------------------------------------------------------------
# nodes: 0 a, 1 b, 2 c, 3 b
GRAPH = checker.PlainGraph(
    ["a", "b", "c", "b"],
    [(0, 1, 1), (1, 2, 2), (0, 3, 3), (3, 2, 5)],
)


def test_matcher_preserves_edge_order():
    # a->b then b->c: edges at t=1,2 (and t=3,5)
    assert checker.contains(("a", "b", "c"), ((0, 1), (1, 2)), GRAPH)
    # b->c strictly before a->b on the same b: t=2 < 3 but b differs; the
    # only order-preserving pair would need a->b after b->c on one b node
    assert not checker.contains(("b", "c", "a"), ((0, 1), (2, 0)), GRAPH)


def test_matcher_is_injective():
    # a->b, a->b' needs two distinct b nodes: present (t=1, t=3)
    assert checker.contains(("a", "b", "b"), ((0, 1), (0, 2)), GRAPH)
    # three b-children of one a do not exist
    assert not checker.contains(
        ("a", "b", "b", "b"), ((0, 1), (0, 2), (0, 3)), GRAPH
    )


def test_matcher_respects_labels_and_shared_nodes():
    # a->b->c on the same b node: (0,1,1),(1,2,2) qualifies
    assert checker.contains(("a", "b", "c"), ((0, 1), (1, 2)), GRAPH)
    # c has no out-edges
    assert not checker.contains(("c", "a"), ((0, 1),), GRAPH)


def test_frequency_and_log_ratio():
    other = checker.PlainGraph(["a", "b"], [(0, 1, 4)])
    graphs = [GRAPH, other]
    assert checker.frequency(("a", "b"), ((0, 1),), graphs) == 1.0
    assert checker.frequency(("b", "c"), ((0, 1),), graphs) == 0.5
    assert checker.log_ratio(0.5, 0.0) == pytest.approx(math.log(0.5 / 1e-6))
    assert checker.log_ratio(0.0, 0.5) == float("-inf")


def test_section_6_2_counts():
    truth = [(10, 20), (30, 40)]
    spans = [(11, 19), (12, 21), (31, 35), (31, 35)]
    counts = checker.score_spans(spans, truth)
    assert counts == (3, 2, 2, 2)
    assert checker.precision_recall(counts) == (2 / 3, 1.0)
    assert checker.precision_recall((0, 0, 0, 0)) == (1.0, 1.0)


def test_shift_moves_whole_detections():
    found = {("q#1", 1, 2), ("q#2", 5, 9)}
    assert checker.shift(found, 100) == {("q#1", 101, 102), ("q#2", 105, 109)}


# ----------------------------------------------------------------------
# failed operations
# ----------------------------------------------------------------------
class _Handle:
    def __init__(self, fail_on=()):
        self.fail_on = fail_on
        self.closed = False

    def ingest(self, batch):
        if batch in self.fail_on:
            raise RuntimeError("refused")
        return [("t", "q#1", batch, batch + 1)]

    def close(self):
        self.closed = True
        return {"closed": True}


def test_failed_batches_and_deployments_are_counted_not_raised(tmp_path):
    run = workloads.Run("mine-paper", 1, tmp_path)
    handle = _Handle(fail_on=(2,))
    found, closed = workloads._serve_pass(
        run, True, None, [1, 2, 3], 3, lambda d: d, handle=handle
    )
    assert found == {("t", "q#1", 1, 2), ("t", "q#1", 3, 4)}
    assert closed == {"closed": True} and handle.closed
    assert (run.attempted, run.failed) == (4, 1)  # 3 batches + the close

    def refuse():
        raise RuntimeError("no deployment")

    assert workloads._serve_pass(run, True, refuse, [1], 1, lambda d: d) == (None, None)
    assert (run.attempted, run.failed) == (5, 2)


def test_a_run_without_samples_still_reports_and_is_incorrect(tmp_path):
    run = workloads.Run("ingest-http", 1, tmp_path)

    def stops(r):
        r.attempt(12, lambda: None)
        raise RuntimeError("stage broke")

    bench_run._round(stops, run)
    values = bench_run.end_to_end(run)
    assert set(values) == set(bench_run.END_TO_END)
    assert all(value is None for value in values.values())
    assert run.problems and (run.attempted, run.failed) == (12, 0)


# ----------------------------------------------------------------------
# seed plumbing
# ----------------------------------------------------------------------
def test_seed_argument_reaches_the_run():
    args = bench_run._parse(
        ["--workload", "mine-paper", "--seed", "17", "--seconds", "3", "--trace", "1"]
    )
    assert (args.workload, args.seed, args.seconds, args.trace) == (
        "mine-paper", 17, 3.0, 1
    )


def test_fleet_inputs_follow_the_seed():
    ws = Workspace()
    tests_a, events_a = workloads.fleet_inputs(ws, 3, tenants=2, instances=2)
    tests_b, events_b = workloads.fleet_inputs(ws, 3, tenants=2, instances=2)
    _tests_c, events_c = workloads.fleet_inputs(ws, 4, tenants=2, instances=2)
    assert events_a == events_b
    assert events_a != events_c
    assert {e.src_key.partition("|")[0] for e in events_a} == {"tenant-00", "tenant-01"}
    assert [t.config.seed for t in tests_a] == [3000, 3001]
    # 32-event chunks alternate between the tenants
    assert {e.src_key.partition("|")[0] for e in events_a[:32]} == {"tenant-00"}
    assert {e.src_key.partition("|")[0] for e in events_a[32:64]} == {"tenant-01"}


def test_http_inputs_follow_the_seed_and_cycle_the_hosts():
    ws = Workspace()
    bases, offset, bodies = workloads.http_inputs(ws, 5, hosts=2, instances=2, days=3)
    again = workloads.http_inputs(ws, 5, hosts=2, instances=2, days=3)
    other = workloads.http_inputs(ws, 6, hosts=2, instances=2, days=3)
    assert bodies == again[2]
    assert bodies != other[2]
    assert [b.config.seed for b in bases] == [5000, 5001]
    assert offset > 2 * max(b.events[-1].time for b in bases)
    per_day = [math.ceil(len(bases[d % 2].events) / workloads.BATCH) for d in range(3)]
    assert len(bodies) == sum(per_day)
    # day 2 replays host 0, two day offsets later
    day2 = json.loads(bodies[sum(per_day[:2])])["events"][0]
    assert day2["time"] == bases[0].events[0].time + 2 * offset


def test_benchmark_json_lists_every_reported_metric():
    import layers
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
