"""In-memory span tracer for the benchmark's traced run.

The tracer records spans from the benchmark's own files: it replaces the
names each caller looks up (a module global such as the
``extend_embeddings`` that ``repro.core.miner`` imported, or a method on
a class) with timing wrappers, and restores them afterwards.  The
program itself is not edited.

Two kinds of record are kept, both in memory until :meth:`Tracer.dump`:

* a **span** per call of a coarse layer: ``(id, name, start, end,
  parent)`` plus optional attributes;
* an **aggregate** per ``(anchor span, path)`` for hot leaves that fire
  hundreds of thousands of times (``subgraph.mapping`` fires ~870k times
  in one mine-paper run): a running total and a call count instead of
  one record per call.  Everything called beneath an aggregate is
  aggregated too, under a ``/``-joined path.

A layer's self time is its span time minus the time its direct children
cover, so within a root span the self times of every record beneath it
add up to the root's duration (:meth:`Tracer.self_times`).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator


class Tracer:
    """Span and aggregate recorder with patch/restore of callee names."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: span id -> [name, start, end, parent id or None, attrs]
        self.spans: dict[int, list] = {}
        #: (anchor span id or None, path) -> [total seconds, calls]
        self.aggregates: dict[tuple[int | None, str], list] = {}
        #: additive counters fed by result hooks
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[tuple] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str, aggregate: bool) -> tuple:
        top = self._stack[-1] if self._stack else None
        if top is not None and top[0] == "agg":
            return ("agg", top[1], f"{top[2]}/{name}")
        anchor = top[1] if top is not None else None
        if aggregate:
            return ("agg", anchor, name)
        span_id = self._next_id
        self._next_id += 1
        self.spans[span_id] = [name, 0.0, 0.0, anchor, {}]
        return ("span", span_id)

    def _close(self, frame: tuple, started: float, ended: float) -> None:
        if frame[0] == "span":
            record = self.spans[frame[1]]
            record[1], record[2] = started, ended
            return
        key = (frame[1], frame[2])
        acc = self.aggregates.get(key)
        if acc is None:
            self.aggregates[key] = [ended - started, 1]
        else:
            acc[0] += ended - started
            acc[1] += 1

    def span(self, name: str, **attrs) -> "_SpanContext":
        """Context manager recording one span (never aggregated)."""
        return _SpanContext(self, name, attrs)

    def wrap(
        self,
        fn: Callable,
        name: str,
        aggregate: bool = False,
        on_result: Callable | None = None,
        attrs: Callable | None = None,
    ) -> Callable:
        """A timing wrapper around ``fn``.

        ``on_result(tracer, args, kwargs, result)`` runs after each call
        (outside the timed interval) to feed counters; ``attrs(args,
        kwargs)`` tags a span with attributes.  Generator functions are
        timed step by step, so the time a caller spends between steps is
        not charged to the callee.
        """
        tracer = self
        clock = self.clock
        stack = self._stack

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                frame = tracer._open(name, aggregate=True)
                key = (frame[1], frame[2])
                it = fn(*args, **kwargs)
                total = 0.0
                try:
                    while True:
                        stack.append(frame)
                        started = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            total += clock() - started
                            stack.pop()
                        yield item
                finally:
                    acc = tracer.aggregates.get(key)
                    if acc is None:
                        tracer.aggregates[key] = [total, 1]
                    else:
                        acc[0] += total
                        acc[1] += 1

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name, aggregate)
            if attrs is not None and frame[0] == "span":
                tracer.spans[frame[1]][4].update(attrs(args, kwargs))
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                tracer._close(frame, started, ended)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a timing wrapper (see :meth:`wrap`).

        Class attributes keep their descriptor kind: a classmethod stays
        a classmethod, a plain function becomes a method again.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, **options))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, **options))
        else:
            replacement = self.wrap(raw, name, **options)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def children(self) -> dict[int | None, list[int]]:
        """Span id -> ids of its direct child spans."""
        out: dict[int | None, list[int]] = defaultdict(list)
        for span_id, record in self.spans.items():
            out[record[3]].append(span_id)
        return out

    def subtree(self, root: int) -> list[int]:
        """``root`` and every span beneath it."""
        kids = self.children()
        out, todo = [], [root]
        while todo:
            span_id = todo.pop()
            out.append(span_id)
            todo.extend(kids.get(span_id, ()))
        return out

    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Layer name -> summed self time, over ``root``'s subtree or all.

        A span's self time is its duration minus its direct child spans
        and the top-level aggregates anchored on it; an aggregate's self
        time is its total minus the aggregates one path level below it.
        """
        ids = set(self.subtree(root)) if root is not None else set(self.spans)
        out: dict[str, float] = defaultdict(float)
        for span_id in ids:
            name, start, end, _parent, _attrs = self.spans[span_id]
            out[name] += end - start
        for span_id in ids:
            parent = self.spans[span_id][3]
            if parent in ids:
                record = self.spans[span_id]
                out[self.spans[parent][0]] -= record[2] - record[1]
        for (anchor, path), (total, _calls) in self.aggregates.items():
            if anchor not in ids and not (root is None and anchor is None):
                continue
            head, _, leaf = path.rpartition("/")
            out[leaf] += total
            if head:
                out[head.rpartition("/")[2]] -= total
            elif anchor is not None:
                out[self.spans[anchor][0]] -= total
        return dict(out)

    def totals(self) -> dict[str, tuple[float, int]]:
        """Layer name -> (inclusive seconds, calls) over every record."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, start, end, _parent, _attrs in self.spans.values():
            out[name][0] += end - start
            out[name][1] += 1
        for (_anchor, path), (total, calls) in self.aggregates.items():
            leaf = path.rpartition("/")[2]
            out[leaf][0] += total
            out[leaf][1] += calls
        return {name: (acc[0], acc[1]) for name, acc in out.items()}

    def find(self, name: str) -> Iterator[tuple[int, list]]:
        """Spans with this name, in recording order."""
        for span_id, record in self.spans.items():
            if record[0] == name:
                yield span_id, record

    def duration(self, span_id: int) -> float:
        record = self.spans[span_id]
        return record[2] - record[1]

    def dump(self, path: Path) -> int:
        """Write every span and aggregate as JSON lines; returns lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = 0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, attrs) in self.spans.items():
                fh.write(json.dumps({
                    "kind": "span", "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "attrs": attrs,
                }) + "\n")
                lines += 1
            for (anchor, path_name), (total, calls) in self.aggregates.items():
                fh.write(json.dumps({
                    "kind": "aggregate", "parent": anchor, "path": path_name,
                    "total": total, "calls": calls,
                }) + "\n")
                lines += 1
        return lines


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id: int | None = None

    def __enter__(self) -> "_SpanContext":
        frame = self.tracer._open(self.name, aggregate=False)
        if frame[0] == "span":
            self.id = frame[1]
            self.tracer.spans[frame[1]][4].update(self.attrs)
        self.frame = frame
        self.tracer._stack.append(frame)
        self.started = self.tracer.clock()
        return self

    def __exit__(self, *_exc) -> None:
        ended = self.tracer.clock()
        self.tracer._stack.pop()
        self.tracer._close(self.frame, self.started, ended)
