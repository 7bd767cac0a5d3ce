"""The benchmark workloads: set-up, timed stages, output checks.

Every workload prints the same end-to-end metrics (see ``README.md``):
each one mines a model, bundles it, batch-queries seeded logs with it
and serves a seeded event stream with it, but the two put their weight
on different layers:

* ``mine-paper`` — the paper's Table 2 protocol at full scale; mining
  at depth 6 is most of the work.  Its queries then serve 24 tenants'
  logs through a 2-shard inline fleet: streaming window, prefilter,
  delta join and routing over many small windows.
* ``ingest-http`` — 6 days of three busy hosts POSTed to a durable HTTP
  server child; WAL, snapshots and the wire codec join the service.

The model is always mined from one fixed training corpus (generator
seed :data:`TRAIN_SEED`): mining time moves 5x between generator seeds
at this scale (README, "Seeds"), so ``--seed`` drives the monitored
logs only.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import checker
from tracing import Tracer

from repro.api import BehaviorModel, Workspace
from repro.core.miner import MinerConfig
from repro.datasets.io import event_to_dict
from repro.serving.fleet import interleave_streams, tag_tenant_events
from repro.syscall.events import SyscallEvent

HERE = Path(__file__).resolve().parent

#: Generator seed of the training corpus every model is mined from.
TRAIN_SEED = 7
#: Table 2 scale (ROADMAP full scale).
TRAIN_INSTANCES = 8
BACKGROUND_GRAPHS = 24
TOP_K = 5
PAPER_CONFIG = MinerConfig(max_edges=6, min_pos_support=0.7)
#: ingest-http's query slate: 12 behaviors x top-5, shallow.
SLATE_CONFIG = MinerConfig(max_edges=4, min_pos_support=0.7)
#: Accuracy bar of the paper and ROADMAP (Table 2).
MIN_PRECISION = 0.90
MIN_RECALL = 0.80

#: mine-paper serves its queries to 24 tenants, each an 8-instance
#: busy-host log, through a 2-shard inline fleet.
PAPER_TENANTS = 24
TENANT_INSTANCES = 8
FLEET_CHUNK = 32
#: ingest-http replays three 48-instance busy-host logs as 6 days:
#: recall over one 48-instance log moves in steps of 1/48 between seeds.
TEST_INSTANCES = 48
HTTP_HOSTS = 3
HTTP_DAYS = 6
BATCH = 64

#: Rounds per run.  The host's speed swings by 15-80% over tens of
#: seconds, so every round takes samples of each stage and the samples
#: of a metric are spread over the whole run instead of one stretch.
ROUNDS = 4
#: Batch-query repeats per round (``query_s`` is the median).
QUERY_REPEATS = 3
#: Timed serving passes per round, each on a fresh deployment; round 0
#: first runs one untimed warm-up pass.
SERVE_PASSES = {"mine-paper": 4, "ingest-http": 2}


class Run:
    """One benchmark invocation: samples, operation counts, checks."""

    def __init__(
        self, workload: str, seed: int, workdir: Path, rounds: int = ROUNDS
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: Tracer | None = None
        self.stage_seconds: dict[str, float] = defaultdict(float)
        self.rounds = rounds
        self.client_busy = 0.0
        self.child_reports: list[dict] = []
        self.bytes_out = self.bytes_in = 0
        self.tenants = 0
        self.first: dict[str, object] = {}

    @contextmanager
    def stage(self, name: str):
        """Time one stage; under tracing it is also a root span."""
        box = {"seconds": 0.0}
        started = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.span(f"stage.{name}"):
                yield box
        else:
            yield box
        box["seconds"] = time.perf_counter() - started
        self.stage_seconds[name] += box["seconds"]

    def attempt(self, count: int, fn, *args, **kwargs):
        """Run ``count`` operations as one call; failures are counted."""
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - counted, reported, run goes on
            self.failed += count
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# shared stages
# ----------------------------------------------------------------------
def _train(ws: Workspace):
    return ws.generate(
        instances_per_behavior=TRAIN_INSTANCES,
        background_graphs=BACKGROUND_GRAPHS,
        seed=TRAIN_SEED,
    )


def _mine(run: Run, ws: Workspace, train, config: MinerConfig):
    names = list(train.config.behaviors)
    with run.stage("mine") as box:
        model = run.attempt(
            len(names), ws.mine, train, config=config, workers=1, top_k=TOP_K
        )
    run.samples["mine_s"].append(box["seconds"])
    return model


def _save_load(model: BehaviorModel, path: Path) -> BehaviorModel:
    model.save(path)
    return BehaviorModel.load(path)


def _bundle(run: Run, model: BehaviorModel) -> BehaviorModel:
    """Save and reload the model (one operation); the reload must be the
    same model.  Should the round trip fail, the mined model serves."""
    with run.stage("bundle"):
        loaded = run.attempt(1, _save_load, model, run.workdir / "model.tgm")
    if loaded is None:
        return model
    run.check(loaded == model, "reloaded bundle differs from the mined model")
    run.check(
        loaded.queries() == model.queries(),
        "reloaded bundle yields different queries",
    )
    return loaded


def _query(run: Run, ws: Workspace, model: BehaviorModel, tests: list) -> list:
    """Batch-query every log once; returns the reports."""
    n_queries = len(model.queries())
    with run.stage("query") as box:
        reports = [run.attempt(n_queries, ws.query, model, test) for test in tests]
    run.samples["query_s"].append(box["seconds"])
    _same(run, "batch query reports", [r.as_dict() if r else None for r in reports])
    return reports


def _interleave(run: Run, rnd: int, query, serve_pass) -> tuple:
    """One round's batch queries and timed serving passes, alternating.

    Round 0 starts with an untimed warm-up pass.  Returns the last
    reports and detections.
    """
    if rnd == 0:
        serve_pass(False)
    passes = SERVE_PASSES[run.workload]
    reports = found = None
    for k in range(max(QUERY_REPEATS, passes)):
        if k < QUERY_REPEATS:
            reports = query()
        if k < passes:
            found = serve_pass(True)
    return reports, found


def _same(run: Run, what: str, value) -> None:
    """Check ``value`` equals the first value seen under ``what``."""
    first = run.first.setdefault(what, value)
    run.check(value == first, f"{what} differ between rounds")


def _pooled(detections) -> dict[str, set]:
    """(key, behavior) -> span set of ``(key, query, start, end)`` tuples."""
    out: dict = defaultdict(set)
    for key, query, start, end in detections:
        out[(key, query.partition("#")[0])].add((start, end))
    return out


def _accuracy(run: Run, program_counts: dict, spans_by_behavior: dict, truth: dict):
    """Average per-behavior precision/recall; checker vs program counts.

    ``program_counts`` maps behavior -> summed program
    ``(identified, correct, discovered, instances)``;
    ``spans_by_behavior`` maps behavior -> list of (spans, truth key)
    pairs the checker scores against ``truth[truth key][behavior]``.
    """
    precisions, recalls = [], []
    for behavior, counts in sorted(program_counts.items()):
        mine = [0, 0, 0, 0]
        for spans, key in spans_by_behavior.get(behavior, ()):
            scored = checker.score_spans(spans, truth[key].get(behavior, ()))
            mine = [a + b for a, b in zip(mine, scored)]
        run.check(
            tuple(mine) == tuple(counts),
            f"{behavior}: checker counts {mine} != program counts {counts}",
        )
        precision, recall = checker.precision_recall(mine)
        precisions.append(precision)
        recalls.append(recall)
    precision = sum(precisions) / len(precisions)
    recall = sum(recalls) / len(recalls)
    run.check(precision >= MIN_PRECISION, f"precision {precision:.3f} < {MIN_PRECISION}")
    run.check(recall >= MIN_RECALL, f"recall {recall:.3f} < {MIN_RECALL}")
    run.samples["precision"].append(precision)
    run.samples["recall"].append(recall)


def _truth(test) -> dict[str, list]:
    out: dict[str, list] = defaultdict(list)
    for gt in test.instances:
        out[gt.behavior].append((gt.start, gt.end))
    return out


def _program_counts(reports) -> dict[str, list[int]]:
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for report in reports:
        for name, ev in report.behaviors.items():
            acc = ev.accuracy
            row = counts[name]
            for i, value in enumerate(
                (acc.identified, acc.correct, acc.discovered, acc.total_instances)
            ):
                row[i] += value
    return counts


def _replay(run: Run, ingest, batches, record: bool, key_of) -> tuple[set, float]:
    """Closed-loop replay; returns detections and seconds inside ingest."""
    found: set = set()
    busy = 0.0
    for batch in batches:
        run.attempted += 1
        started = time.perf_counter()
        try:
            detections = ingest(batch)
        except Exception:  # noqa: BLE001 - a failed batch is counted
            run.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        elapsed = time.perf_counter() - started
        busy += elapsed
        run.client_busy += elapsed
        if record:
            run.latencies.append(elapsed)
        found.update(key_of(d) for d in detections)
    return found, busy


def _serve_pass(
    run: Run, timed: bool, deploy, batches, events: int, key_of, handle=None
) -> tuple[set | None, object]:
    """One closed-loop pass on a fresh deployment.

    ``deploy()`` starts the deployment unless ``handle`` is one already
    started.  Starting and closing count as one operation each.  Returns
    the pass's detections (``None`` if the deployment did not start) and
    what closing returned.  Every timed pass must detect the same set as
    the first one.
    """
    with run.stage("serve"):
        gc.collect()
        if handle is None:
            handle = run.attempt(1, deploy)
        if handle is None:
            return None, None
        try:
            found, busy = _replay(run, handle.ingest, batches, timed, key_of)
        finally:
            closed = run.attempt(1, handle.close)
    if timed:
        _same(run, "served detections", found)
        if busy > 0:
            run.samples["events_per_s"].append(events / busy)
    return found, closed


def _complete(run: Run, reports, found) -> bool:
    """Whether the last queries and pass left outputs to check."""
    ok = found is not None and all(r is not None for r in reports)
    run.check(ok, "a failed operation left no outputs to cross-check")
    return ok


def _batches(events) -> list:
    return [events[i : i + BATCH] for i in range(0, len(events), BATCH)]


def host_logs(ws: Workspace, seed: int, hosts: int, instances: int) -> list:
    """Busy-host test logs with ground truth, seeds ``seed * 1000 + h``."""
    return [
        ws.generate_test(instances=instances, seed=seed * 1000 + h)
        for h in range(hosts)
    ]


# ----------------------------------------------------------------------
# mine-paper
# ----------------------------------------------------------------------
def mine_paper(run: Run) -> None:
    ws = Workspace()
    loaded = None
    run.tenants = PAPER_TENANTS
    for rnd in range(run.rounds):
        train = tests = events = None
        gc.collect()
        with run.stage("setup") as box:
            train = _train(ws)
            tests, events = fleet_inputs(ws, run.seed)
        run.samples["setup_s"].append(box["seconds"])
        if loaded is None:
            model = _mine(run, ws, train, PAPER_CONFIG)
            if model is None:
                # nothing to query or serve: the result line reports the
                # failed behaviors and the metrics left without samples
                return
            loaded = _bundle(run, model)
            _check_patterns(run, train, model)
        batches = _batches(events)
        reports, found = _interleave(
            run, rnd,
            lambda: _query(run, ws, loaded, tests),
            lambda timed: _serve_pass(
                run, timed, lambda: ws.serve(loaded, shards=2, runner="inline"),
                batches, len(events), lambda d: (d.tenant, d.query, d.start, d.end),
            )[0],
        )
    if not _complete(run, reports, found):
        return
    pooled = _pooled(found)
    expected = {}
    for t, report in enumerate(reports):
        for name, ev in report.behaviors.items():
            if ev.spans:
                expected[(_tenant(t), name)] = set(ev.spans)
    run.check(
        {k: v for k, v in pooled.items() if v} == expected,
        "fleet detections differ from the union of per-tenant batch queries",
    )
    truth = {_tenant(t): _truth(test) for t, test in enumerate(tests)}
    by_behavior: dict = defaultdict(list)
    for tenant in truth:
        for name in loaded.behaviors:
            by_behavior[name].append((pooled.get((tenant, name), ()), tenant))
    _accuracy(run, _program_counts(reports), by_behavior, truth)


def _check_patterns(run: Run, train, model: BehaviorModel) -> None:
    """Recompute every top-5 pattern's frequencies and score."""
    background = [checker.PlainGraph.from_program(g) for g in train.background]
    for name, record in model.records.items():
        positives = [checker.PlainGraph.from_program(g) for g in train.behavior(name)]
        run.check(len(record.patterns) == TOP_K, f"{name}: {len(record.patterns)} queries")
        for mined in record.patterns:
            labels, edges = mined.pattern.labels, mined.pattern.edges
            pos = checker.frequency(labels, edges, positives)
            neg = checker.frequency(labels, edges, background)
            score = checker.log_ratio(pos, neg)
            run.check(
                pos == mined.pos_freq and neg == mined.neg_freq,
                f"{name}: frequencies ({mined.pos_freq}, {mined.neg_freq}) "
                f"recomputed as ({pos}, {neg})",
            )
            run.check(
                math.isclose(score, mined.score, rel_tol=1e-12),
                f"{name}: score {mined.score} recomputed as {score}",
            )
            run.check(
                pos >= PAPER_CONFIG.min_pos_support,
                f"{name}: positive support {pos} below {PAPER_CONFIG.min_pos_support}",
            )


def _tenant(t: int) -> str:
    return f"tenant-{t:02d}"


def fleet_inputs(
    ws: Workspace, seed: int, tenants: int = PAPER_TENANTS,
    instances: int = TENANT_INSTANCES,
) -> tuple[list, list]:
    """Per-tenant test logs (seeds ``seed * 1000 + t``) and their
    tenant-tagged events interleaved in 32-event chunks."""
    tests = host_logs(ws, seed, tenants, instances)
    events = interleave_streams(
        [tag_tenant_events(_tenant(t), test.events) for t, test in enumerate(tests)],
        chunk=FLEET_CHUNK,
    )
    return tests, events


# ----------------------------------------------------------------------
# ingest-http
# ----------------------------------------------------------------------
#: Health probes (10 ms apart) before a server child counts as failed.
HEALTHZ_TRIES = 1000


class ServerChild:
    """The HTTP server child process (``httpchild.py``) and its client."""

    def __init__(self, run: Run, bundle: Path, cpu: int) -> None:
        self.run = run
        # a fresh directory: pointed at an old one, the server would
        # resume that deployment's window instead of starting empty
        ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=run.workdir)
        cmd = [
            sys.executable, str(HERE / "httpchild.py"),
            "--bundle", str(bundle), "--checkpoint-dir", str(ckpt),
            "--cpu", str(cpu),
        ]
        if run.tracer is not None:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.conn = None
        if run.tracer is not None:
            # the client's side of each request, so that the serve
            # stage's self times still add up in the benchmark process
            self.ingest = run.tracer.wrap(self.ingest, "http.request", aggregate=True)
        try:
            line = self.proc.stdout.readline()
            self.port = json.loads(line)["port"]
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            for _ in range(HEALTHZ_TRIES):
                self.conn.request("GET", "/v1/healthz")
                response = self.conn.getresponse()
                response.read()
                if response.status == 200:
                    break
                time.sleep(0.01)
            else:
                raise RuntimeError("server never answered /v1/healthz with 200")
        except Exception:
            self.kill()
            raise

    def ingest(self, body: bytes) -> list:
        """POST one pre-encoded batch; a non-200 answer raises."""
        self.conn.request(
            "POST", "/v1/ingest", body, {"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {payload[:200]!r}")
        self.run.bytes_out += len(body)
        self.run.bytes_in += len(payload)
        return json.loads(payload)["detections"]

    def close(self) -> dict:
        """Stop the server (drain + final snapshot); returns its report."""
        if self.conn is not None:
            self.conn.close()
        try:
            out, _ = self.proc.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"server child exited {self.proc.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
        self.run.child_reports.append(report)
        return report

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


def http_inputs(
    ws: Workspace, seed: int, hosts: int = HTTP_HOSTS,
    instances: int = TEST_INSTANCES, days: int = HTTP_DAYS,
) -> tuple:
    """Base logs, the day offset, and every day's request bodies.

    Day ``k`` replays base log ``k % hosts`` shifted ``k * offset``
    later; the gap between days (at least one log long) exceeds every
    query span, so no match crosses a day boundary.
    """
    bases = host_logs(ws, seed, hosts, instances)
    offset = 2 * max(base.events[-1].time + 1 for base in bases)
    bodies = []
    for day in range(days):
        shift = day * offset
        events = [
            SyscallEvent(
                time=e.time + shift, syscall=e.syscall,
                src_key=e.src_key, src_label=e.src_label,
                dst_key=e.dst_key, dst_label=e.dst_label,
            )
            for e in bases[day % hosts].events
        ]
        bodies.extend(
            json.dumps({"events": [event_to_dict(e) for e in batch]}).encode("utf-8")
            for batch in _batches(events)
        )
    return bases, offset, bodies


def ingest_http(run: Run) -> None:
    ws = Workspace()
    # client and server share one CPU: a request is then a context
    # switch, while a wake-up across the VM's two vCPUs costs a latency
    # that swings with the host (events_per_s 17-20k split vs 23k shared
    # in back-to-back runs)
    cpu = min(os.sched_getaffinity(0))
    bundle = run.workdir / "model.tgm"
    child = None
    saved_affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        for rnd in range(run.rounds):
            bases = bodies = train = model = None
            gc.collect()
            with run.stage("setup") as box:
                bases, offset, bodies = http_inputs(ws, run.seed)
                train = _train(ws)
            setup_s = box["seconds"]
            model = _mine(run, ws, train, SLATE_CONFIG)
            if model is None:
                # nothing to serve: the result line reports the failed
                # behaviors and the metrics left without samples
                return
            _same(run, "mined slates", model.queries())
            with run.stage("deploy") as box:
                # save, then start the first pass's server: one operation each
                run.attempt(1, model.save, bundle)
                child = run.attempt(1, ServerChild, run, bundle, cpu)
            run.samples["setup_s"].append(setup_s + box["seconds"])
            n_events = sum(len(bases[d % HTTP_HOSTS].events) for d in range(HTTP_DAYS))

            def serve_pass(timed: bool) -> set | None:
                nonlocal child
                started, child = child, None
                found, report = _serve_pass(
                    run, timed, lambda: ServerChild(run, bundle, cpu), bodies, n_events,
                    lambda d: (d["start"] // offset, d["query"], d["start"], d["end"]),
                    handle=started,
                )
                if timed and report is not None:
                    run.samples["peak_rss_mb"].append(report["peak_rss_mb"])
                return found

            reports, found = _interleave(
                run, rnd, lambda: _query(run, ws, model, bases), serve_pass
            )
        if not _complete(run, reports, found):
            return
        run.check(
            offset // 2 > max(q.max_span for q in model.queries()),
            "day gap does not exceed the widest query span",
        )
        # day k replays base log k % hosts, so it must detect exactly
        # what day k % hosts detected, shifted by whole day offsets
        by_day: dict[int, set] = defaultdict(set)
        for day, query, start, end in found:
            by_day[day].add((query, start, end))
        run.check(
            sorted(by_day) == list(range(HTTP_DAYS)),
            f"detections fall on days {sorted(by_day)}",
        )
        for day, spans in by_day.items():
            first = day % HTTP_HOSTS
            shift = (day - first) * offset
            run.check(
                spans == checker.shift(by_day[first], shift),
                f"day {day} detections differ from day {first} shifted",
            )
        pooled = _pooled(
            (day, q, s - day * offset, e - day * offset)
            for day in range(HTTP_HOSTS)
            for q, s, e in by_day.get(day, ())
        )
        spans = defaultdict(list)
        for h, report in enumerate(reports):
            for name, ev in report.behaviors.items():
                run.check(
                    pooled.get((h, name), set()) == set(ev.spans),
                    f"day {h} {name}: HTTP spans differ from batch query spans",
                )
                spans[name].append((pooled.get((h, name), set()), h))
        _accuracy(
            run, _program_counts(reports), spans,
            {h: _truth(base) for h, base in enumerate(bases)},
        )
    finally:
        if child is not None:
            child.kill()
        os.sched_setaffinity(0, saved_affinity)


WORKLOADS = {
    "mine-paper": mine_paper,
    "ingest-http": ingest_http,
}
