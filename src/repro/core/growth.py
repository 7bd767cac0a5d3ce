"""Consecutive pattern growth with embedding bookkeeping (paper Section 3).

Consecutive growth appends one edge with pattern timestamp ``|E|+1``; in
the data this means a match of the grown pattern extends a match of the
parent by one data edge whose timestamp is strictly larger than every
already-matched edge — i.e. an edge of the parent match's *residual
graph*.  The miner therefore never re-matches patterns from scratch: each
pattern carries its embedding table and children inherit extended
embeddings from one pass over the parent's residual edges — on the
default kernel path a CSR-adjacency walk touching only the edges
incident to each embedding (:mod:`repro.core.kernel`), on the retained
legacy path a linear scan of every residual edge.

Three growth options (Figure 5) keep T-connectivity and cover the whole
pattern space (Theorem 1):

* forward  — ``(u, v)`` with ``u`` mapped, ``v`` new;
* backward — ``(u, v)`` with ``u`` new, ``v`` mapped;
* inward   — both endpoints mapped (multi-edges allowed).

Extension keys identify children uniquely (Lemma 3): two distinct keys
always denote non-identical patterns, and each pattern has exactly one
parent (its edge-prefix), so the depth-first search is repetition-free
without canonical labeling.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple, Sequence

from repro.core.graph import TemporalGraph
from repro.core.kernel import GraphKernel
from repro.core.pattern import TemporalPattern

__all__ = [
    "Embedding",
    "EmbeddingTable",
    "ExtensionKey",
    "seed_patterns",
    "extend_embeddings",
    "child_pattern",
    "cut_points",
]


class Embedding(NamedTuple):
    """A match footprint: node images plus the last matched edge index."""

    nodes: tuple[int, ...]
    last_index: int


# graph index -> set of embeddings of one pattern in that graph.
EmbeddingTable = dict[int, set[Embedding]]

# ("f", src_pattern_node, new_dst_label) | ("b", new_src_label,
# dst_pattern_node) | ("i", src_pattern_node, dst_pattern_node)
ExtensionKey = tuple[str, object, object]


def seed_patterns(
    graphs: Sequence[TemporalGraph],
    use_index: bool = False,
) -> dict[tuple[str, str], EmbeddingTable]:
    """Enumerate one-edge patterns and their embeddings over ``graphs``.

    Returns a mapping from ``(src_label, dst_label)`` to the embedding
    table of the corresponding one-edge pattern.  Self-loop data edges are
    skipped: the pattern model has no self-loops (injective node mapping
    over two distinct pattern nodes can never cover one).

    With ``use_index`` the enumeration walks each frozen graph's one-edge
    label-pair index (:meth:`TemporalGraph.label_pair_index`) instead of
    scanning its edge list, grouping candidate edges per seed pattern
    directly; unfrozen graphs fall back to the scan.  Both paths produce
    identical tables.
    """
    seeds: dict[tuple[str, str], EmbeddingTable] = {}
    for gid, graph in enumerate(graphs):
        edges = graph.edges
        if use_index and graph.frozen:
            for key, idxs in graph.label_pair_index().items():
                for idx in idxs:
                    edge = edges[idx]
                    if edge.src == edge.dst:
                        continue
                    table = seeds.setdefault(key, {})
                    table.setdefault(gid, set()).add(
                        Embedding((edge.src, edge.dst), idx)
                    )
            continue
        labels = graph.labels
        for idx, edge in enumerate(edges):
            if edge.src == edge.dst:
                continue
            key = (labels[edge.src], labels[edge.dst])
            table = seeds.setdefault(key, {})
            table.setdefault(gid, set()).add(Embedding((edge.src, edge.dst), idx))
    return seeds


def extend_embeddings(
    graphs: Sequence[TemporalGraph],
    embeddings: EmbeddingTable,
    kernels: Sequence[GraphKernel] | None = None,
    *,
    use_kernel: bool = True,
) -> dict[ExtensionKey, EmbeddingTable]:
    """Produce all children's embeddings from the parents' residual edges.

    For every embedding, every data edge after its cut point that touches
    at least one mapped node yields a child embedding under the forward /
    backward / inward extension key describing it at pattern level.

    Two implementations produce identical tables:

    * the **kernel path** (default for frozen graphs) walks the CSR
      adjacency of the embedding's mapped nodes, bisecting each incident
      edge run to the cut point — work proportional to the *incident*
      residual edges, not the whole residual graph.  ``kernels`` supplies
      prebuilt per-graph kernels (the miner passes its dataset kernels);
      otherwise each frozen graph's cached kernel is used.
    * the **legacy scan** (``use_kernel=False``, and any unfrozen graph)
      visits every residual edge per embedding — kept callable for the
      cross-implementation equivalence tests and the kernel ablation.
    """
    out: dict[ExtensionKey, EmbeddingTable] = {}
    for gid, emb_set in embeddings.items():
        graph = graphs[gid]
        if use_kernel and graph.frozen:
            kernel = kernels[gid] if kernels is not None else graph.kernel()
            _extend_in_kernel(kernel, gid, emb_set, out)
        else:
            _extend_in_scan(graph, gid, emb_set, out)
    return out


def _extend_in_kernel(
    kernel: GraphKernel,
    gid: int,
    emb_set: set[Embedding],
    out: dict[ExtensionKey, EmbeddingTable],
) -> None:
    """Adjacency-driven extension over one graph's kernel arrays.

    Each edge incident to the embedding is reached exactly once: via the
    out-run of its (mapped) source for forward/inward growth, via the
    in-run of its (mapped) destination — with mapped sources skipped —
    for backward growth.  Self-loops are skipped as in the scan path.
    The far endpoint of each CSR slot is read from the kernel's
    ``out_dsts``/``in_srcs`` twin lists, not from the edge columns —
    list reads beat buffer scalar access in this loop (the columns'
    buffer layout earns its keep in the vectorized matcher and the
    shared-memory corpus, not here).

    Emission is the dominant cost at data scale, so the inner loops cut
    it down: rows are built through the C-level ``tuple.__new__`` (they
    are still :class:`Embedding` instances) and accumulated in a per-graph
    ``key -> rows`` dict that is folded into the shared output once at
    the end — one dict probe per row instead of two ``setdefault`` hops.

    Each distinct node tuple is walked once, from its smallest cut: a
    child row depends only on the node tuple and the data edge, and the
    residual edges after the smallest cut include those after every
    larger one, so the larger cuts would only re-add rows already there.
    """
    out_indptr = kernel.out_indptr
    out_indices = kernel.out_indices
    out_dsts = kernel.out_dsts
    in_indptr = kernel.in_indptr
    in_indices = kernel.in_indices
    in_srcs = kernel.in_srcs
    labels = kernel.node_labels
    row = tuple.__new__
    local: dict[ExtensionKey, set[Embedding]] = {}
    local_get = local.get
    smallest_cut: dict[tuple[int, ...], int] = {}
    seen_cut = smallest_cut.get
    for nodes, cut in emb_set:
        seen = seen_cut(nodes)
        if seen is None or cut < seen:
            smallest_cut[nodes] = cut
    for nodes, cut in smallest_cut.items():
        node_to_pattern = {dn: pi for pi, dn in enumerate(nodes)}
        mapped = node_to_pattern.get
        for pi, dn in enumerate(nodes):
            hi = out_indptr[dn + 1]
            for j in range(bisect_right(out_indices, cut, out_indptr[dn], hi), hi):
                dst = out_dsts[j]
                if dst == dn:
                    continue
                idx = out_indices[j]
                dst_p = mapped(dst)
                if dst_p is None:
                    key: ExtensionKey = ("f", pi, labels[dst])
                    new_nodes = nodes + (dst,)
                else:
                    key = ("i", pi, dst_p)
                    new_nodes = nodes
                rows = local_get(key)
                if rows is None:
                    rows = local[key] = set()
                rows.add(row(Embedding, (new_nodes, idx)))
            hi = in_indptr[dn + 1]
            for j in range(bisect_right(in_indices, cut, in_indptr[dn], hi), hi):
                src = in_srcs[j]
                if src == dn or mapped(src) is not None:
                    continue
                idx = in_indices[j]
                key = ("b", labels[src], pi)
                rows = local_get(key)
                if rows is None:
                    rows = local[key] = set()
                rows.add(row(Embedding, (nodes + (src,), idx)))
    for key, rows in local.items():
        out.setdefault(key, {})[gid] = rows


def _extend_in_scan(
    graph: TemporalGraph,
    gid: int,
    emb_set: set[Embedding],
    out: dict[ExtensionKey, EmbeddingTable],
) -> None:
    """Legacy object path: one scan over all residual edges per embedding."""
    edges = graph.edges
    labels = graph.labels
    n_edges = len(edges)
    for emb in emb_set:
        node_to_pattern = {dn: pi for pi, dn in enumerate(emb.nodes)}
        for idx in range(emb.last_index + 1, n_edges):
            edge = edges[idx]
            src_p = node_to_pattern.get(edge.src)
            dst_p = node_to_pattern.get(edge.dst)
            if src_p is None and dst_p is None:
                continue
            if edge.src == edge.dst:
                continue
            if dst_p is None:
                key: ExtensionKey = ("f", src_p, labels[edge.dst])
                new_nodes = emb.nodes + (edge.dst,)
            elif src_p is None:
                key = ("b", labels[edge.src], dst_p)
                new_nodes = emb.nodes + (edge.src,)
            else:
                key = ("i", src_p, dst_p)
                new_nodes = emb.nodes
            table = out.setdefault(key, {})
            table.setdefault(gid, set()).add(Embedding(new_nodes, idx))


def child_pattern(pattern: TemporalPattern, key: ExtensionKey) -> TemporalPattern:
    """Instantiate the child pattern denoted by an extension key."""
    kind, a, b = key
    if kind == "f":
        return pattern.grow_forward(int(a), str(b))
    if kind == "b":
        return pattern.grow_backward(str(a), int(b))
    if kind == "i":
        return pattern.grow_inward(int(a), int(b))
    raise ValueError(f"unknown extension kind {kind!r}")


def cut_points(embeddings: EmbeddingTable) -> Iterable[tuple[int, int]]:
    """Yield ``(graph id, last edge index)`` per embedding (with repeats).

    Rows are consumed positionally (``emb[1]``), which is both the fast
    path for the tuple-of-int rows and agnostic to whether a row was
    built by the kernel or the legacy extension.
    """
    for gid, emb_set in embeddings.items():
        for emb in emb_set:
            yield (gid, emb[1])


def sort_extension_keys(keys: Iterable[ExtensionKey]) -> list[ExtensionKey]:
    """Deterministic ordering of mixed int/str extension keys."""
    return sorted(keys, key=lambda k: (k[0], str(k[1]), str(k[2])))
