"""White-box tests of the miner's pruning machinery.

These pin down the *conditions* of Lemma 4 / Proposition 2 at the unit
level: when a pruning lookup may fire, what it records, and that the
residual-equivalence mode only changes cost, never results.
"""

import math
import random
from dataclasses import asdict

import pytest

from repro.core.graph import TemporalGraph
from repro.core.miner import (
    VARIANT_NAMES,
    MinerConfig,
    TGMiner,
    _HistoryBucket,
    _HistoryEntry,
    _MiningRun,
    miner_variant,
)
from repro.core.scoring import LogRatio
from repro.syscall import build_training_data

from conftest import build_graph, random_temporal_graph


def chain_graph(labels, noise_labels=(), t0=0):
    """A simple labeled chain with optional trailing noise edges."""
    g = TemporalGraph()
    ids = [g.add_node(l) for l in labels]
    t = t0
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b, t)
        t += 1
    for l in noise_labels:
        n = g.add_node(l)
        g.add_edge(ids[-1], n, t)
        t += 1
    return g.freeze()


class TestSubgraphPruningConditions:
    def test_pruning_never_changes_scores_across_modes(self):
        rng = random.Random(5)
        pos = [random_temporal_graph(rng, 5, 8, "ABC") for _ in range(4)]
        neg = [random_temporal_graph(rng, 5, 8, "ABC") for _ in range(4)]
        outcomes = set()
        for sub in (False, True):
            for sup in (False, True):
                result = TGMiner(
                    MinerConfig(
                        max_edges=3,
                        min_pos_support=0.5,
                        subgraph_pruning=sub,
                        supergraph_pruning=sup,
                        max_best_patterns=100_000,
                    )
                ).mine(pos, neg)
                outcomes.add(
                    (
                        round(result.best_score, 9),
                        frozenset(m.pattern.key() for m in result.best),
                    )
                )
        assert len(outcomes) == 1

    def test_subgraph_pruning_counter_fires_on_contaminated_branches(self):
        # Positives embed a clean chain; negatives share a prefix so the
        # prefix branches are contaminated (score < F*), creating real
        # subgraph-pruning opportunities among the sibling branches.
        pos = [
            chain_graph(("A", "B", "C", "D"), noise_labels=("X", "Y"))
            for _ in range(6)
        ]
        neg = [chain_graph(("A", "B", "X")) for _ in range(6)]
        result = TGMiner(MinerConfig(max_edges=4, min_pos_support=0.5)).mine(pos, neg)
        assert result.stats.patterns_explored > 0
        # the counters are consistent with the processed-pattern count
        total_triggers = (
            result.stats.subgraph_pruning_triggers
            + result.stats.supergraph_pruning_triggers
        )
        assert total_triggers <= result.stats.patterns_explored

    def test_residual_tests_counted(self):
        pos = [chain_graph(("A", "B", "C")) for _ in range(4)]
        neg = [chain_graph(("B", "C", "A")) for _ in range(4)]
        result = TGMiner(MinerConfig(max_edges=3, min_pos_support=0.5)).mine(pos, neg)
        # residual equivalence tests only happen when candidate entries
        # exist; the counter must never be negative and is bounded by
        # (patterns * history size), trivially sane here:
        assert result.stats.residual_equivalence_tests >= 0

    def test_history_isolated_between_runs(self):
        pos = [chain_graph(("A", "B", "C")) for _ in range(3)]
        miner = TGMiner(MinerConfig(max_edges=2, min_pos_support=0.5))
        first = miner.mine(pos, [])
        second = miner.mine(pos, [])
        assert first.best_score == second.best_score
        assert first.stats.patterns_explored == second.stats.patterns_explored


class TestUpperBoundPruning:
    def test_upper_bound_prunes_low_support_branches(self):
        # One perfect pattern (support 1.0) plus a rare structure: the
        # naive bound stops growth below the incumbent's score.
        pos = [chain_graph(("A", "B")) for _ in range(9)]
        pos.append(chain_graph(("Q", "R", "S")))
        result = TGMiner(MinerConfig(max_edges=3, min_pos_support=0.05)).mine(pos, [])
        assert result.stats.upper_bound_prunes > 0

    def test_disabling_upper_bound_explores_more(self):
        rng = random.Random(11)
        pos = [random_temporal_graph(rng, 5, 8, "AB") for _ in range(4)]
        neg = [random_temporal_graph(rng, 5, 8, "AB") for _ in range(4)]
        with_ub = TGMiner(
            MinerConfig(
                max_edges=3,
                min_pos_support=0.25,
                subgraph_pruning=False,
                supergraph_pruning=False,
            )
        ).mine(pos, neg)
        without_ub = TGMiner(
            MinerConfig(
                max_edges=3,
                min_pos_support=0.25,
                subgraph_pruning=False,
                supergraph_pruning=False,
                upper_bound_pruning=False,
            )
        ).mine(pos, neg)
        assert with_ub.stats.patterns_explored <= without_ub.stats.patterns_explored
        assert with_ub.best_score == without_ub.best_score


class TestMultiEdgePatterns:
    def test_multi_edge_core_mined(self):
        # positives repeat A->B twice in a row; the 2-multi-edge pattern
        # must be discovered and discriminate vs single-edge negatives
        g_pos = build_graph([(0, 1, 0), (0, 1, 1)], labels=["A", "B"])
        g_neg = build_graph([(0, 1, 0)], labels=["A", "B"])
        result = TGMiner(MinerConfig(max_edges=2, min_pos_support=1.0)).mine(
            [g_pos] * 4, [g_neg] * 4
        )
        best_keys = {m.pattern.key() for m in result.best}
        assert (("A", "B"), ((0, 1), (0, 1))) in best_keys

    def test_direction_matters(self):
        g_pos = build_graph([(0, 1, 0), (1, 0, 1)], labels=["A", "B"])
        g_neg = build_graph([(0, 1, 0), (0, 1, 1)], labels=["A", "B"])
        result = TGMiner(MinerConfig(max_edges=2, min_pos_support=1.0)).mine(
            [g_pos] * 4, [g_neg] * 4
        )
        best_keys = {m.pattern.key() for m in result.best}
        assert (("A", "B"), ((0, 1), (1, 0))) in best_keys


class TestTemporalOrderDiscrimination:
    def test_order_swap_is_discriminative(self):
        """The paper's core claim in miniature: same structure, different
        order is distinguishable temporally but not structurally."""
        pos = [chain_graph(("A", "B")) for _ in range(4)]
        neg = [chain_graph(("A", "B")) for _ in range(4)]
        # positives: A->B then B->C; negatives: B->C then A->B
        pos = [
            build_graph([(0, 1, 0), (1, 2, 1)], labels=["A", "B", "C"])
            for _ in range(4)
        ]
        neg = [
            build_graph([(1, 2, 0), (0, 1, 1)], labels=["A", "B", "C"])
            for _ in range(4)
        ]
        result = TGMiner(MinerConfig(max_edges=2, min_pos_support=1.0)).mine(pos, neg)
        top = max(result.best, key=lambda m: m.pattern.num_edges)
        assert top.pattern.num_edges == 2
        assert top.pos_freq == 1.0 and top.neg_freq == 0.0

        from repro.baselines.gspan import NonTemporalMiner, NonTemporalMinerConfig

        nt = NonTemporalMiner(NonTemporalMinerConfig(max_edges=2)).mine(pos, neg)
        # non-temporally the 2-edge structure exists in both classes
        two_edge = [m for m in nt.best if m.pattern.num_edges == 2]
        assert not two_edge or all(m.neg_freq == 1.0 for m in two_edge)


# ----------------------------------------------------------------------
# history buckets: the ready/pending split against a full scan
# ----------------------------------------------------------------------
class FullScanRun(_MiningRun):
    """A mining run whose pruning lookups scan every stored entry.

    History lives in plain insertion-ordered lists, and each lookup
    skips the entries whose branch bound is not below ``best_score``
    inline — the oracle the production ready/pending buckets must match
    entry for entry, counter for counter.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sub_lists: dict = {}
        self.super_lists: dict = {}

    def _remember(self, pattern, pos_res, neg_res, branch_ub) -> None:
        entry = _HistoryEntry(
            pattern,
            pattern.num_nodes,
            pattern.num_edges,
            pos_res,
            neg_res,
            branch_ub,
            seq=-1,
        )
        if self.config.subgraph_pruning:
            self.sub_lists.setdefault(self._sub_key(pos_res), []).append(entry)
        if self.config.supergraph_pruning:
            key = self._super_key(pos_res, neg_res, pattern.num_nodes)
            self.super_lists.setdefault(key, []).append(entry)

    def _try_subgraph_pruning(self, pattern, pos_res):
        for entry in self.sub_lists.get(self._sub_key(pos_res), ()):
            if entry.branch_upper_bound >= self.best_score:
                continue
            if entry.num_edges < pattern.num_edges:
                continue
            if not self._residuals_equal(pos_res, entry.pos_residuals):
                continue
            self.stats.subgraph_tests += 1
            mapping = self.tester.mapping(pattern, entry.pattern)
            if mapping is None:
                continue
            leftover = {
                self.interner.id_of(entry.pattern.label(n))
                for n in range(entry.num_nodes)
                if n not in mapping
            }
            if leftover & pos_res.label_set:
                continue
            return entry.branch_upper_bound
        return None

    def _try_supergraph_pruning(self, pattern, pos_res, neg_res):
        key = self._super_key(pos_res, neg_res, pattern.num_nodes)
        for entry in self.super_lists.get(key, ()):
            if entry.branch_upper_bound >= self.best_score:
                continue
            if entry.num_edges > pattern.num_edges:
                continue
            if not self._residuals_equal(pos_res, entry.pos_residuals):
                continue
            if not self._residuals_equal(neg_res, entry.neg_residuals):
                continue
            self.stats.subgraph_tests += 1
            if self.tester.mapping(entry.pattern, pattern) is None:
                continue
            return entry.branch_upper_bound
        return None


def outcome(result):
    """Everything a mining run reports, minus its wall-clock time."""
    stats = asdict(result.stats)
    del stats["elapsed_seconds"]

    def mined(m):
        # repr: exact for floats, and NaN scores compare equal
        return (m.pattern.key(), repr(m.score), m.pos_freq, m.neg_freq)

    return (
        [mined(m) for m in result.best],
        {size: mined(m) for size, m in result.best_by_size.items()},
        stats,
    )


def mine_both(config, pos, neg):
    production = TGMiner(config).mine(pos, neg)
    oracle = FullScanRun(config, pos, neg).execute()
    return outcome(production), outcome(oracle)


@pytest.fixture(scope="module")
def small_corpus():
    return build_training_data(instances_per_behavior=4, background_graphs=8, seed=7)


class TestHistoryBucketsMatchFullScan:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_variants_match_oracle(self, small_corpus, variant):
        config = miner_variant(variant, MinerConfig(max_edges=4, min_pos_support=0.7))
        prunes = 0
        for behavior in ("gcc-compile", "ftpd-login", "ssh-login"):
            pos = small_corpus.behavior(behavior)
            production, oracle = mine_both(config, pos, small_corpus.background)
            assert production == oracle
            stats = production[2]
            prunes += stats["subgraph_pruning_triggers"]
            prunes += stats["supergraph_pruning_triggers"]
        assert prunes > 0  # the lookups were exercised, not just empty

    def test_nan_bounds_stay_eligible(self, small_corpus):
        class NanWhenContaminated(LogRatio):
            """Log-ratio, but NaN for any pattern seen in a negative graph."""

            def score(self, pos_freq, neg_freq):
                if neg_freq > 0.0:
                    return math.nan
                return super().score(pos_freq, neg_freq)

        config = MinerConfig(
            max_edges=4, min_pos_support=0.7, score=NanWhenContaminated()
        )
        # scp-download's NaN-bounded entries do prune at this scale: a
        # bucket that parked them as never-eligible would miss tests
        pos = small_corpus.behavior("scp-download")
        production, oracle = mine_both(config, pos, small_corpus.background)
        assert production == oracle
        stats = production[2]
        assert stats["subgraph_pruning_triggers"] + stats["supergraph_pruning_triggers"]


def history_entry(bound, seq):
    return _HistoryEntry(None, 0, 0, None, None, bound, seq)


def scan(entries, best_score):
    """The eligible entries as a full scan finds them."""
    return [e for e in entries if not e.branch_upper_bound >= best_score]


class TestHistoryBucket:
    def test_rising_best_score_with_ties_and_infinities(self):
        bounds = [1.0, -math.inf, 3.0, math.nan, 2.0, 2.0]
        entries = [history_entry(b, seq) for seq, b in enumerate(bounds)]
        bucket = _HistoryBucket()
        for entry in entries:
            bucket.add(entry, -math.inf)

        def seqs(best_score):
            assert bucket.eligible(best_score) == scan(entries, best_score)
            return [e.seq for e in bucket.eligible(best_score)]

        # NaN never fails `>=`, so it is eligible from the start; -inf
        # ties the initial incumbent and waits
        assert seqs(-math.inf) == [3]
        # a bound equal to best_score stays ineligible
        assert seqs(1.0) == [1, 3]
        assert seqs(2.0) == [0, 1, 3]
        entries.append(history_entry(0.5, 6))
        bucket.add(entries[-1], 2.0)
        assert seqs(2.0) == [0, 1, 3, 6]
        assert seqs(2.5) == [0, 1, 3, 4, 5, 6]
        assert seqs(math.inf) == [0, 1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("seed", range(20))
    def test_random_interleaving_matches_scan(self, seed):
        rng = random.Random(seed)
        choices = [-math.inf, math.nan, math.inf, 0.0, 1.0, 2.0, 3.0]
        bucket = _HistoryBucket()
        entries = []
        best_score = -math.inf
        for seq in range(60):
            if rng.random() < 0.3:
                best_score = max(best_score, rng.choice([0.0, 0.5, 1.0, 2.0, 3.0]))
            if rng.random() < 0.6:
                bound = rng.choice(choices + [rng.uniform(0.0, 3.0)])
                entry = history_entry(bound, seq)
                entries.append(entry)
                bucket.add(entry, best_score)
            assert bucket.eligible(best_score) == scan(entries, best_score)
        assert len(bucket.ready) + len(bucket.pending) == len(entries)
