"""Grouping, matching, merging, order: oracles and conservation laws."""

import math

import numpy as np
import pytest

from mambapress.reduction import (
    GroupPartition,
    MergeMapping,
    Strategy,
    TokenSequence,
    apply_merge,
    group_size,
    match_sources,
    partition,
    reduce_layer,
)
from tests import oracles


def make_seq(rng, length, dim=4, cls_orig=None, weights=None) -> TokenSequence:
    feats = rng.standard_normal((length, dim)).astype(np.float32)
    weight = np.ones(length, dtype=np.int64) if weights is None else np.asarray(weights)
    return TokenSequence(feats, np.arange(length, dtype=np.int64), weight, cls_orig)


def match_and_merge(seq, part, weighted=True):
    """Bipartite soft matching followed by the merge, as reduce_layer runs them."""
    mapping = match_sources(seq, part)
    return apply_merge(seq, mapping, weighted), mapping


@pytest.mark.parametrize("weight", [0, -1])
def test_token_sequence_rejects_weights_below_one(weight):
    with pytest.raises(ValueError, match="weight must be >= 1"):
        make_seq(np.random.default_rng(0), 3, weights=[1, weight, 1])


class TestPartition:
    def test_sizes_quarter(self):
        scores = np.linspace(1, 0, 16).astype(np.float32)
        part = partition(scores, 0.25)
        assert (len(part.keep_idx), len(part.source_idx), len(part.target_idx)) == (4, 4, 8)

    def test_k_zero_all_target(self):
        part = partition(np.ones(10, dtype=np.float32), 0.0)
        assert len(part.keep_idx) == 0 and len(part.source_idx) == 0
        assert len(part.target_idx) == 10

    def test_floor_sizes(self):
        part = partition(np.arange(10, dtype=np.float32), 0.25)
        assert len(part.keep_idx) == 2 and len(part.target_idx) == 6

    def test_ordering(self):
        scores = np.array([0.3, 0.9, 0.1, 0.7, 0.5, 0.2], dtype=np.float32)
        part = partition(scores, 1 / 3)
        assert list(part.keep_idx) == [1, 3]
        assert list(part.source_idx) == [5, 2]
        assert list(part.target_idx) == [4, 0]

    def test_tie_break_prefers_earlier_row(self):
        part = partition(np.full(6, 0.5, dtype=np.float32), 1 / 3)
        assert list(part.keep_idx) == [0, 1]
        assert list(part.source_idx) == [4, 5]

    def test_rejects_half_and_above(self):
        with pytest.raises(ValueError, match=r"\[0, 0.5\)"):
            partition(np.ones(4, dtype=np.float32), 0.5)

    def test_cls_row_excluded_from_all_groups(self):
        scores = np.array([0.1, 99.0, 0.3, 0.2], dtype=np.float32)
        part = partition(scores, 0.34, cls_row=1)
        grouped = set(part.keep_idx) | set(part.target_idx) | set(part.source_idx)
        assert 1 not in grouped
        assert grouped == {0, 2, 3}
        assert len(part.keep_idx) == 1 == len(part.source_idx)

    def test_disjoint_union_covers_reducible(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            k = float(rng.uniform(0, 0.499))
            scores = rng.standard_normal(n).astype(np.float32)
            part = partition(scores, k)
            all_idx = np.concatenate([part.keep_idx, part.target_idx, part.source_idx])
            assert sorted(all_idx) == list(range(n))


class TestMatchAndMerge:
    def test_spec_case_nearest_target(self):
        feats = np.array(
            [[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]], dtype=np.float32
        )
        seq = TokenSequence.fresh(feats)
        part = GroupPartition(
            keep_idx=np.array([], dtype=np.int64),
            target_idx=np.array([1, 2], dtype=np.int64),
            source_idx=np.array([0], dtype=np.int64),
        )
        out, mapping = match_and_merge(seq, part)
        assert mapping.edges.tolist() == [[0, 1]]
        merged_row = np.nonzero(out.orig_index == 1)[0][0]
        assert np.allclose(out.features[merged_row], [1.0, 0.05], atol=1e-6)
        assert out.weight[merged_row] == 2

    def test_source_identical_to_target(self):
        v = np.array([0.3, -0.7, 1.1], dtype=np.float32)
        seq = TokenSequence.fresh(np.stack([v, v]))
        part = GroupPartition(
            keep_idx=np.array([], dtype=np.int64),
            target_idx=np.array([0], dtype=np.int64),
            source_idx=np.array([1], dtype=np.int64),
        )
        out, _ = match_and_merge(seq, part)
        assert np.array_equal(out.features[0], v)

    def test_two_sources_one_target(self):
        feats = np.array(
            [[1.0, 0.0], [0.9, 0.1], [0.95, 0.05], [0.0, 1.0]], dtype=np.float32
        )
        seq = TokenSequence.fresh(feats)
        part = GroupPartition(
            keep_idx=np.array([], dtype=np.int64),
            target_idx=np.array([0, 3], dtype=np.int64),
            source_idx=np.array([1, 2], dtype=np.int64),
        )
        out, mapping = match_and_merge(seq, part)
        assert sorted(mapping.edges.tolist()) == [[1, 0], [2, 0]]
        row = np.nonzero(out.orig_index == 0)[0][0]
        assert np.allclose(out.features[row], feats[[0, 1, 2]].mean(axis=0), atol=1e-6)
        assert out.weight[row] == 3
        assert len(out) == 2

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 25))
            seq = make_seq(rng, n, dim=int(rng.integers(2, 6)))
            k = float(rng.uniform(0.05, 0.45))
            part = partition(rng.standard_normal(n).astype(np.float32), k)
            if len(part.source_idx) == 0:
                continue
            mapping = match_sources(seq, part)
            # Exhaustive oracle: walk every target per source.
            for s_row, t_row in mapping.edges:
                best_sim, best_t = None, None
                for t in part.target_idx:
                    sim = oracles.cosine_similarity(seq.features[s_row], seq.features[t])
                    better = best_sim is None or sim > best_sim
                    tie_win = (
                        sim == best_sim and seq.orig_index[t] < seq.orig_index[best_t]
                    )
                    if better or tie_win:
                        best_sim, best_t = sim, t
                assert t_row == best_t

    def test_weighted_mean_tracks_multiplicity(self):
        feats = np.array([[0.0, 2.0], [0.0, 8.0]], dtype=np.float32)
        seq = TokenSequence(
            feats, np.arange(2, dtype=np.int64), np.array([3, 1], dtype=np.int64)
        )
        mapping = MergeMapping([(1, 0)])
        out = apply_merge(seq, mapping)
        # (3*2 + 1*8) / 4 = 3.5
        assert out.features[0, 1] == pytest.approx(3.5, abs=1e-6)
        assert out.weight[0] == 4

    def test_unweighted_flag_restores_plain_mean(self):
        feats = np.array([[0.0, 2.0], [0.0, 8.0]], dtype=np.float32)
        seq = TokenSequence(
            feats, np.arange(2, dtype=np.int64), np.array([3, 1], dtype=np.int64)
        )
        out = apply_merge(seq, MergeMapping([(1, 0)]), weighted=False)
        assert out.features[0, 1] == pytest.approx(5.0, abs=1e-6)
        assert out.weight[0] == 4  # multiplicity still tracked

    def test_empty_target_with_sources_rejected(self):
        seq = make_seq(np.random.default_rng(2), 3)
        part = GroupPartition(
            keep_idx=np.array([0], dtype=np.int64),
            target_idx=np.array([], dtype=np.int64),
            source_idx=np.array([1, 2], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="target group is empty"):
            match_sources(seq, part)

    def test_merge_linearity_under_fixed_mapping(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            base = make_seq(rng, n)
            part = partition(rng.standard_normal(n).astype(np.float32), 0.25)
            mapping = match_sources(base, part)
            fa = rng.standard_normal((n, 4)).astype(np.float32)
            fb = rng.standard_normal((n, 4)).astype(np.float32)
            seq_a = TokenSequence(fa, base.orig_index, base.weight)
            seq_b = TokenSequence(fb, base.orig_index, base.weight)
            seq_ab = TokenSequence(fa + fb, base.orig_index, base.weight)
            merged_ab = apply_merge(seq_ab, mapping).features
            merged_sum = apply_merge(seq_a, mapping).features + apply_merge(seq_b, mapping).features
            assert np.max(np.abs(merged_ab - merged_sum)) < 1e-5


class TestPruneAndHybrid:
    def test_prune_no_sources_is_identity(self):
        seq = make_seq(np.random.default_rng(4), 6)
        out, _ = reduce_layer(seq, np.arange(6, dtype=np.float32), 0.0, Strategy.PRUNE)
        assert np.array_equal(out.features, seq.features)
        assert np.array_equal(out.orig_index, seq.orig_index)

    def test_prune_drops_lowest_scored(self):
        rng = np.random.default_rng(5)
        seq = make_seq(rng, 6)
        scores = np.array([0.9, 0.1, 0.8, 0.05, 0.7, 0.6], dtype=np.float32)
        out, _ = reduce_layer(seq, scores, 1 / 3, Strategy.PRUNE)
        assert len(out) == 4
        assert set(out.orig_index) == {0, 2, 4, 5}

    def test_prune_survivors_match_merge_survivors_bitwise(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            seq = make_seq(rng, n)
            scores = rng.standard_normal(n).astype(np.float32)
            part = partition(scores, 0.3)
            pruned, _ = reduce_layer(seq, scores, 0.3, Strategy.PRUNE)
            merged, _ = reduce_layer(seq, scores, 0.3, Strategy.MERGE)
            keep_and_cls = sorted(set(int(i) for i in part.keep_idx))
            for row in keep_and_cls:
                orig = seq.orig_index[row]
                assert np.array_equal(
                    pruned.features[pruned.orig_index == orig],
                    merged.features[merged.orig_index == orig],
                )

    def test_hybrid_empty_source_is_identity(self):
        seq = make_seq(np.random.default_rng(7), 5)
        out, _ = reduce_layer(seq, np.arange(5, dtype=np.float32), 0.0, Strategy.HYBRID)
        assert np.array_equal(out.features, seq.features)

    def test_hybrid_single_source_merges(self):
        rng = np.random.default_rng(8)
        seq = make_seq(rng, 5)
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0], dtype=np.float32)
        out, _ = reduce_layer(seq, scores, 0.2, Strategy.HYBRID)  # one keep, one source
        assert len(out) == 4
        assert out.weight.sum() == 5  # floor(0.5*1)=0 pruned, so mass conserved

    def test_hybrid_splits_four_sources(self):
        rng = np.random.default_rng(9)
        seq = make_seq(rng, 12)
        scores = np.linspace(1.0, 0.0, 12).astype(np.float32)
        part = partition(scores, 1 / 3)
        assert len(part.source_idx) == 4
        out, _ = reduce_layer(seq, scores, 1 / 3, Strategy.HYBRID)
        assert len(out) == 8
        # Two lowest-scored pruned (weight lost), two merged (weight kept).
        assert out.weight.sum() == 10


class TestApplyMergeRejectsCorruptMappings:
    def seq(self):
        return make_seq(np.random.default_rng(20), 5)

    def test_pruned_rows_dropped_and_others_copied(self):
        seq = self.seq()
        out = apply_merge(seq, MergeMapping([(1, 0)]), pruned_rows=[3])
        assert list(out.orig_index) == [0, 2, 4]
        assert np.array_equal(out.features[1:], seq.features[[2, 4]])
        assert list(out.weight) == [2, 1, 1]

    def test_source_listed_twice(self):
        with pytest.raises(ValueError, match="source row 1 merged twice"):
            apply_merge(self.seq(), MergeMapping([(1, 0), (1, 2)]))

    def test_target_is_a_merged_source(self):
        with pytest.raises(ValueError, match="target row 1 is being dropped"):
            apply_merge(self.seq(), MergeMapping([(1, 0), (2, 1)]))

    def test_target_in_pruned_rows(self):
        with pytest.raises(ValueError, match="target row 0 is being dropped"):
            apply_merge(self.seq(), MergeMapping([(1, 0)]), pruned_rows=[0])

    def test_source_also_in_pruned_rows(self):
        with pytest.raises(ValueError, match="merged source row 1 is also pruned"):
            apply_merge(self.seq(), MergeMapping([(1, 0)]), pruned_rows=[1, 3])


class TestVectorisedAssembly:
    """apply_merge and match_sources against their one-row-at-a-time oracles."""

    @staticmethod
    def random_case(rng, trial):
        n, dim = int(rng.integers(2, 60)), int(rng.integers(1, 9))
        feats = (rng.standard_normal((n, dim)) * np.exp2(rng.integers(-30, 30, (n, dim))))
        feats = feats.astype(np.float32)
        feats[rng.random((n, dim)) < 0.3] = -0.0
        if trial % 2:  # repeated rows: cosine ties between targets
            feats[1::3] = feats[0]
        seq = TokenSequence(feats, rng.permutation(1000)[:n], rng.integers(1, 9, size=n))
        perm = rng.permutation(n)
        n_src = int(rng.integers(0, n // 2 + 1))
        n_tgt = int(rng.integers(1, n - n_src + 1))
        n_pruned = int(rng.integers(0, n - n_src - n_tgt + 1))
        src, tgt = perm[:n_src], perm[n_src : n_src + n_tgt]
        pruned = perm[n_src + n_tgt : n_src + n_tgt + n_pruned]
        return seq, GroupPartition(perm[:0], tgt, src), pruned

    def test_match_sources_matches_exhaustive_ties(self):
        rng = np.random.default_rng(30)
        for trial in range(60):
            seq, part, _ = self.random_case(rng, trial)
            mapping = match_sources(seq, part)
            assert [s for s, _ in mapping.edges] == list(part.source_idx)
            for s_row, t_row in mapping.edges:
                sims = [oracles.cosine_similarity(seq.features[s_row], seq.features[t])
                        for t in part.target_idx]
                best = [t for t, sim in zip(part.target_idx, sims) if sim == max(sims)]
                assert t_row == min(best, key=lambda t: seq.orig_index[t])

    @pytest.mark.parametrize("weighted", [True, False])
    def test_apply_merge_matches_group_loop(self, weighted):
        rng = np.random.default_rng(31)
        for trial in range(120):
            seq, part, pruned = self.random_case(rng, trial)
            mapping = match_sources(seq, part)
            if trial % 3 == 0 and len(mapping.edges):  # every source into one target
                mapping = MergeMapping([(s, int(part.target_idx[0])) for s, _ in mapping.edges])
            out = apply_merge(seq, mapping, weighted, pruned)
            features, orig, weight = oracles.apply_merge_loop(seq, mapping, weighted, pruned)
            assert np.array_equal(out.features.view(np.uint32), features.view(np.uint32))
            assert np.array_equal(out.orig_index, orig)
            assert np.array_equal(out.weight, weight)

    def test_rows_out_of_range_rejected(self):
        seq = make_seq(np.random.default_rng(32), 5)
        for mapping, pruned in [([(5, 0)], ()), ([(1, -1)], ()), ([(1, 0)], [7])]:
            with pytest.raises(ValueError, match="outside 0..4"):
                apply_merge(seq, MergeMapping(mapping), pruned_rows=pruned)


class TestFoldOrder:
    """Planted cases where the fold's order reaches the bits, compiled and on
    the fallback. On ordinary inputs every float64 sum of a group is exact,
    so any order gives the same bits."""

    BIG = 2.0**100

    @staticmethod
    def seq(rows, weights=None) -> TokenSequence:
        feats = np.array(rows, np.float32).reshape(len(rows), -1)
        weight = np.ones(len(rows), np.int64) if weights is None else np.array(weights)
        return TokenSequence(feats, np.arange(len(rows)), weight)

    @staticmethod
    def bits(x) -> list[int]:
        return np.asarray(x, np.float32).view(np.uint32).ravel().tolist()

    @pytest.mark.parametrize("weighted", [True, False])
    def test_sources_add_in_edge_order(self, path, weighted):
        # Target 2^100 with sources 1.0 and -2^100. In edge order the 1.0 is
        # absorbed by 2^100 and the group sums to 0; with the sources the
        # other way round 2^100 cancels first and the 1.0 survives. With
        # unit weights both modes divide by 3.
        seq = self.seq([[self.BIG], [1.0], [-self.BIG], [5.0]])
        out = apply_merge(seq, MergeMapping([(1, 0), (2, 0)]), weighted)
        assert self.bits(out.features) == self.bits([0.0, 5.0])
        out = apply_merge(seq, MergeMapping([(2, 0), (1, 0)]), weighted)
        assert self.bits(out.features) == self.bits([np.float32(1 / 3), 5.0])
        assert out.weight.tolist() == [3, 1]

    def test_unweighted_divides_by_member_count(self, path):
        # Weights 4, 2 and 1 make a weight sum of 7, which unweighted merging
        # stores but does not divide by: its terms are the plain rows.
        # Weighted, the terms are 4 * 2^100, -2^100 and then 2, which 3 * 2^100
        # absorbs.
        seq = self.seq([[self.BIG], [1.0], [-self.BIG], [5.0]], [4, 2, 1, 1])
        out = apply_merge(seq, MergeMapping([(2, 0), (1, 0)]), weighted=False)
        assert self.bits(out.features) == self.bits([np.float32(1 / 3), 5.0])
        assert out.weight.tolist() == [7, 1]
        out = apply_merge(seq, MergeMapping([(2, 0), (1, 0)]), weighted=True)
        assert self.bits(out.features) == self.bits([np.float32(3 * self.BIG / 7), 5.0])

    @pytest.mark.parametrize("weighted", [True, False])
    def test_negative_zero_group_sums_to_positive_zero(self, path, weighted):
        # The accumulator starts at +0.0, so a group of -0.0 rows comes out
        # +0.0, as zeros + terms gives; starting at the target's -0.0 term
        # would keep the sign. A row outside every group is copied bitwise.
        seq = self.seq([[-0.0, 1.0], [-0.0, -1.0], [-0.0, -0.0]], [3, 1, 2])
        out = apply_merge(seq, MergeMapping([(1, 0)]), weighted)
        assert self.bits(out.features[0]) == self.bits([0.0, 0.5 if weighted else 0.0])
        assert self.bits(out.features[1]) == self.bits([-0.0, -0.0])
        assert out.weight.tolist() == [4, 2]

    def test_pruned_rows_without_edges(self, path):
        seq = self.seq([[-0.0], [np.nan], [2.5], [np.inf]], [1, 2, 3, 4])
        out = apply_merge(seq, MergeMapping(), pruned_rows=[1, 3])
        assert self.bits(out.features) == self.bits([-0.0, 2.5])
        assert out.orig_index.tolist() == [0, 2] and out.weight.tolist() == [1, 3]
        out = apply_merge(seq, MergeMapping([(2, 0)]), pruned_rows=[1])
        assert self.bits(out.features) == self.bits([2.5 * 3 / 4, np.inf])
        assert out.orig_index.tolist() == [0, 3] and out.weight.tolist() == [4, 4]

    def test_k_zero_is_bitwise_identity(self, path):
        rng = np.random.default_rng(14)
        seq = make_seq(rng, 9, dim=5, cls_orig=4, weights=rng.integers(1, 9, 9))
        seq.features[0] = [-0.0, np.nan, np.inf, -np.inf, 1e-41]
        for out in (apply_merge(seq, MergeMapping()),
                    reduce_layer(seq, np.zeros(9, np.float32), 0.0, Strategy.MERGE)[0]):
            assert np.array_equal(out.features.view(np.uint32), seq.features.view(np.uint32))
            assert np.array_equal(out.orig_index, seq.orig_index)
            assert np.array_equal(out.weight, seq.weight)


class TestMergeMapping:
    @pytest.mark.parametrize("edges, want", [
        ([(1, 0), (3, 2)], [[1, 0], [3, 2]]),
        (np.array([[4, 1]], dtype=np.int32), [[4, 1]]),
        ([], []),
    ])
    def test_normalises_to_s_by_2_int64(self, edges, want):
        mapping = MergeMapping(edges)
        assert mapping.edges.dtype == np.int64 and mapping.edges.flags.c_contiguous
        assert mapping.edges.shape == (len(want), 2)
        assert mapping.edges.tolist() == want

    def test_default_is_empty(self):
        edges = MergeMapping().edges
        assert (edges.shape, edges.dtype) == ((0, 2), np.int64)

    @pytest.mark.parametrize("edges", [
        np.zeros((2, 3), dtype=np.int64), [1, 2, 3], [(1, 0), (2,)], np.zeros((0, 3))])
    def test_rejects_other_shapes(self, edges):
        with pytest.raises(ValueError):
            MergeMapping(edges)


def reference_reduce(seq, scores, k, strategy, cls_row=None):
    """Monolithic float64 re-statement of the whole reduction algorithm.

    Sort by score descending (stable), carve keep/source off both ends,
    match each source to its most cosine-similar target, merge by weighted
    mean (or prune), and sort survivors by original index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    rows = [r for r in range(len(seq)) if r != cls_row]
    rows.sort(key=lambda r: (-scores[r], r))
    n_k = math.floor(k * len(rows))
    keep, target, source = rows[:n_k], rows[n_k : len(rows) - n_k], rows[len(rows) - n_k :]

    if strategy == "prune":
        merge_src, pruned = [], source
    elif strategy == "hybrid":
        n_p = math.floor(0.5 * len(source))
        merge_src, pruned = source[: len(source) - n_p], source[len(source) - n_p :]
    else:
        merge_src, pruned = source, []

    feats = {r: seq.features[r].astype(np.float64) for r in range(len(seq))}
    weights = {r: int(seq.weight[r]) for r in range(len(seq))}
    groups = {t: [t] for t in target}
    for s in merge_src:
        sims = []
        for t in target:
            a, b = seq.features[s].astype(np.float64), seq.features[t].astype(np.float64)
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            sims.append(0.0 if na < 1e-12 or nb < 1e-12 else float(a @ b / (na * nb)))
        best = max(range(len(target)), key=lambda i: (sims[i], -seq.orig_index[target[i]]))
        groups[target[best]].append(s)

    survivors = []
    for r in keep + target + ([cls_row] if cls_row is not None else []):
        members = groups.get(r, [r])
        w = np.array([weights[m] for m in members], dtype=np.float64)
        f = np.stack([feats[m] for m in members])
        survivors.append(
            (int(seq.orig_index[r]), (f * w[:, None]).sum(axis=0) / w.sum(), int(w.sum()))
        )
    survivors.sort(key=lambda item: item[0])
    return survivors


class TestReduceLayer:
    def test_k_zero_is_bitwise_identity(self):
        rng = np.random.default_rng(13)
        seq = make_seq(rng, 9, cls_orig=4)
        scores = rng.standard_normal(9).astype(np.float32)
        out, record = reduce_layer(seq, scores, 0.0, Strategy.MERGE)
        assert np.array_equal(out.features, seq.features)
        assert np.array_equal(out.orig_index, seq.orig_index)
        assert np.array_equal(out.weight, seq.weight)
        assert len(record.kept_orig) == 0 and len(record.edges_orig) == 0

    @pytest.mark.parametrize("shape", [(6,), (14,), (10, 1)])
    def test_rejects_scores_not_one_per_token(self, shape):
        # Too few scores used to leave 9 of 10 tokens where the count law
        # gives 7, and too many raised IndexError while matching.
        seq = make_seq(np.random.default_rng(21), 10)
        scores = np.linspace(1, 0, math.prod(shape), dtype=np.float32).reshape(shape)
        with pytest.raises(ValueError, match=r"scores shape .* != \(10,\)"):
            reduce_layer(seq, scores, 0.3, Strategy.MERGE)

    def test_count_law_196(self):
        rng = np.random.default_rng(14)
        seq = make_seq(rng, 196)
        scores = rng.standard_normal(196).astype(np.float32)
        out, _ = reduce_layer(seq, scores, 0.1, Strategy.MERGE)
        assert len(out) == 177  # 196 - floor(19.6)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_matches_monolithic_reference(self, strategy):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            cls_orig = int(rng.integers(0, n)) if rng.random() < 0.5 else None
            seq = make_seq(
                rng, n, cls_orig=cls_orig, weights=rng.integers(1, 5, size=n)
            )
            scores = rng.standard_normal(n).astype(np.float32)
            k = float(rng.uniform(0, 0.49))
            out, _ = reduce_layer(seq, scores, k, strategy)
            want = reference_reduce(seq, scores, k, strategy.value, seq.cls_row)
            assert len(out) == len(want)
            for i, (orig, feat, weight) in enumerate(want):
                assert out.orig_index[i] == orig
                assert np.max(np.abs(out.features[i].astype(np.float64) - feat)) < 1e-5
                assert out.weight[i] == weight
            if strategy is Strategy.MERGE:
                assert out.weight.sum() == seq.weight.sum()

    def test_order_preserved_for_all_strategies(self):
        rng = np.random.default_rng(16)
        for strategy in Strategy:
            for _ in range(30):
                n = int(rng.integers(3, 50))
                seq = make_seq(rng, n, cls_orig=int(rng.integers(0, n)))
                scores = rng.standard_normal(n).astype(np.float32)
                out, _ = reduce_layer(seq, scores, float(rng.uniform(0, 0.49)), strategy)
                assert np.all(np.diff(out.orig_index) > 0)

    @pytest.mark.parametrize(
        "orig", [[0, 2, 1, 3, 4, 5], [5, 4, 3, 2, 1, 0], [0, 1, 1, 2, 3, 4]],
        ids=["swapped", "reversed", "repeated"],
    )
    def test_rejects_rows_out_of_original_order(self, orig):
        rng = np.random.default_rng(20)
        seq = TokenSequence(
            rng.standard_normal((6, 3)).astype(np.float32), np.array(orig), np.ones(6, np.int64)
        )
        scores = rng.standard_normal(6).astype(np.float32)
        for strategy in Strategy:
            for k in (0.0, 0.3):
                with pytest.raises(ValueError, match="strictly increasing"):
                    reduce_layer(seq, scores, k, strategy)

    def test_keep_rows_bitwise_unchanged(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(6, 40))
            seq = make_seq(rng, n)
            scores = rng.standard_normal(n).astype(np.float32)
            out, record = reduce_layer(seq, scores, 0.3, Strategy.MERGE)
            for orig in record.kept_orig:
                before = seq.features[seq.orig_index == orig]
                after = out.features[out.orig_index == orig]
                assert np.array_equal(before, after)

    def test_cls_survives_with_position(self):
        rng = np.random.default_rng(18)
        seq = make_seq(rng, 12, cls_orig=6)
        scores = rng.standard_normal(12).astype(np.float32)
        for strategy in Strategy:
            out, _ = reduce_layer(seq, scores, 0.4, strategy)
            assert 6 in out.orig_index
            assert out.cls_orig == 6

    def test_record_holds_int64_arrays(self):
        rng = np.random.default_rng(20)
        seq = make_seq(rng, 20, cls_orig=10)
        scores = rng.standard_normal(20).astype(np.float32)
        _, hybrid = reduce_layer(seq, scores, 0.4, Strategy.HYBRID)
        assert len(hybrid.edges_orig) and len(hybrid.pruned_orig)
        for strategy in Strategy:
            for k in (0.4, 0.0):
                _, record = reduce_layer(seq, scores, k, strategy)
                for name in ("kept_orig", "target_orig", "pruned_orig", "edges_orig"):
                    values = getattr(record, name)
                    assert type(values) is np.ndarray and values.dtype == np.int64
                    assert values.ndim == (2 if name == "edges_orig" else 1)
                assert record.edges_orig.shape[1:] == (2,)
                # PRUNE and k = 0 merge nothing: the edge array is (0, 2).
                if strategy is Strategy.PRUNE or k == 0:
                    assert record.edges_orig.shape == (0, 2)

    def test_record_accounts_for_every_source(self):
        rng = np.random.default_rng(19)
        seq = make_seq(rng, 20)
        scores = rng.standard_normal(20).astype(np.float32)
        for strategy in Strategy:
            out, record = reduce_layer(seq, scores, 0.25, strategy)
            n_k = group_size(0.25, 20)
            assert len(record.edges_orig) + len(record.pruned_orig) == n_k
            assert len(record.kept_orig) == n_k
            assert len(out) == 20 - n_k
