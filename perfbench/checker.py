"""Independent output checks for the benchmark workloads.

Nothing here calls the program's matchers, scorers or evaluators: the
checks recompute what the program reports from plain data (label lists,
``(src, dst, time)`` edge tuples, spans, ground-truth intervals) and
compare.

* :func:`contains` — a short order-preserving temporal matcher: pattern
  edge ``i`` maps to a data edge with a strictly larger timestamp than
  pattern edge ``i - 1``, node mapping injective and label-preserving.
* :func:`frequency` / :func:`log_ratio` — a pattern's support over a
  graph set and the paper's discriminative score
  ``log(pos / (neg + 1e-6))``.
* :func:`precision_recall` — paper Section 6.2: a span is correct when
  it lies inside a true instance of the behavior; an instance is
  discovered when a correct span lies inside it.
* :func:`shift` — the day-shift comparison of the HTTP workload.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

#: ε of the log-ratio score (paper Section 6.1).
EPSILON = 1e-6

Edge = tuple[int, int, int]  # (src node, dst node, time)
Span = tuple[int, int]


class PlainGraph:
    """A temporal graph as plain data: node labels and time-sorted edges."""

    __slots__ = ("labels", "edges", "by_pair")

    def __init__(self, labels: Sequence[str], edges: Iterable[Edge]) -> None:
        self.labels = tuple(labels)
        self.edges = sorted(edges, key=lambda e: e[2])
        self.by_pair: dict[tuple[str, str], list[Edge]] = defaultdict(list)
        for edge in self.edges:
            self.by_pair[(self.labels[edge[0]], self.labels[edge[1]])].append(edge)

    @classmethod
    def from_program(cls, graph) -> "PlainGraph":
        """Copy a program graph through its public ``labels``/``edges``."""
        return cls(graph.labels, ((e.src, e.dst, e.time) for e in graph.edges))


def contains(
    labels: Sequence[str], edges: Sequence[tuple[int, int]], graph: PlainGraph
) -> bool:
    """Whether the pattern ``(labels, edges)`` has a temporal match.

    ``edges`` lists pattern edges in their temporal order.
    """
    assignment: dict[int, int] = {}
    used: set[int] = set()
    candidates = [graph.by_pair.get((labels[u], labels[v]), []) for u, v in edges]
    if any(not c for c in candidates):
        return False

    def search(position: int, after: int) -> bool:
        if position == len(edges):
            return True
        u, v = edges[position]
        for src, dst, t in candidates[position]:
            if t <= after:
                continue
            bound_u, bound_v = assignment.get(u), assignment.get(v)
            if bound_u is not None and bound_u != src:
                continue
            if bound_v is not None and bound_v != dst:
                continue
            new = []
            if bound_u is None:
                if src in used:
                    continue
                new.append((u, src))
            if bound_v is None:
                if dst in used or (bound_u is None and src == dst):
                    continue
                new.append((v, dst))
            for node, data in new:
                assignment[node] = data
                used.add(data)
            if search(position + 1, t):
                return True
            for node, data in new:
                del assignment[node]
                used.discard(data)
        return False

    return search(0, -1)


def frequency(
    labels: Sequence[str],
    edges: Sequence[tuple[int, int]],
    graphs: Sequence[PlainGraph],
) -> float:
    """Fraction of ``graphs`` holding a match of the pattern."""
    if not graphs:
        return 0.0
    return sum(contains(labels, edges, g) for g in graphs) / len(graphs)


def log_ratio(pos_freq: float, neg_freq: float) -> float:
    """The paper's discriminative score ``F(x, y) = log(x / (y + ε))``."""
    if pos_freq <= 0.0:
        return float("-inf")
    return math.log(pos_freq / (neg_freq + EPSILON))


def score_spans(
    spans: Iterable[Span], truth: Iterable[Span]
) -> tuple[int, int, int, int]:
    """Section 6.2 counts of one behavior's pooled spans.

    ``truth`` holds the execution intervals of the behavior's true
    instances only.  Returns ``(identified, correct, discovered,
    instances)``.
    """
    instances = sorted(truth)
    found = [False] * len(instances)
    identified = correct = 0
    for start, end in set(spans):
        identified += 1
        hit = False
        for k, (t_start, t_end) in enumerate(instances):
            if t_start <= start and end <= t_end:
                found[k] = hit = True
        correct += hit
    return identified, correct, sum(found), len(instances)


def precision_recall(counts: Sequence[int]) -> tuple[float, float]:
    """Precision and recall from :func:`score_spans` counts.

    No spans gives precision 1; no instances, recall 1.
    """
    identified, correct, discovered, instances = counts
    precision = correct / identified if identified else 1.0
    recall = discovered / instances if instances else 1.0
    return precision, recall


def shift(detections: Iterable[tuple[str, int, int]], offset: int) -> set:
    """Every ``(query, start, end)`` detection moved ``offset`` later."""
    return {(query, start + offset, end + offset) for query, start, end in detections}
