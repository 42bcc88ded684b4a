"""Indicator scoring: arithmetic examples, loop oracles, ordering properties."""

import numpy as np
import pytest

from mambapress import kernels
from mambapress.importance import (
    Indicator,
    score_cls_similarity,
    score_delta,
    score_hidden,
    score_projection,
)
from mambapress.ssm import ScanTrace
from tests import oracles


def trace_with_delta(delta: np.ndarray) -> ScanTrace:
    delta = np.asarray(delta, dtype=np.float32)
    zeros = np.zeros_like(delta)
    return ScanTrace(y=zeros, delta=delta, scan_input=zeros)


class TestScoreDelta:
    def test_two_head_arithmetic(self):
        t1 = trace_with_delta([[0.2, 0.4]])
        t2 = trace_with_delta([[0.1, 0.3]])
        out = score_delta([t1, t2])
        assert out.indicator is Indicator.DELTA
        assert out.scores[0] == pytest.approx(0.5, abs=1e-7)

    def test_uniform_delta_gives_identity_ranking(self):
        trace = trace_with_delta(np.full((6, 3), 0.7))
        out = score_delta([trace])
        assert np.allclose(out.scores, 0.7, atol=1e-7)
        assert list(kernels.argsort_desc(out.scores)) == list(range(6))

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        deltas = [rng.uniform(0.01, 2.0, size=(9, 5)).astype(np.float32) for _ in range(2)]
        out = score_delta([trace_with_delta(d) for d in deltas])
        for t in range(9):
            total = 0.0
            for e in range(5):
                total += float(deltas[0][t, e]) + float(deltas[1][t, e])
            assert abs(out.scores[t] - total / 5) < 1e-6

    def test_strictly_positive(self):
        rng = np.random.default_rng(1)
        delta = kernels.softplus(rng.standard_normal((30, 8)).astype(np.float32) * 5)
        out = score_delta([trace_with_delta(delta)])
        assert np.all(out.scores > 0.0)

    def test_head_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            score_delta([trace_with_delta(np.ones((3, 2))), trace_with_delta(np.ones((4, 2)))])

    def test_positive_rescale_preserves_order(self):
        rng = np.random.default_rng(2)
        delta = rng.uniform(0.01, 3.0, size=(12, 4)).astype(np.float32)
        base = score_delta([trace_with_delta(delta)])
        scaled = score_delta([trace_with_delta(delta * np.float32(7.5))])
        assert np.allclose(scaled.scores, 7.5 * base.scores, rtol=1e-5)
        assert np.array_equal(
            kernels.argsort_desc(base.scores), kernels.argsort_desc(scaled.scores)
        )

    def test_permutation_equivariance_on_traces(self):
        rng = np.random.default_rng(3)
        delta = rng.uniform(0.01, 3.0, size=(10, 4)).astype(np.float32)
        perm = rng.permutation(10)
        base = score_delta([trace_with_delta(delta)])
        permuted = score_delta([trace_with_delta(delta[perm])])
        assert np.array_equal(permuted.scores, base.scores[perm])


class TestScoreProjection:
    def test_zero_weights(self):
        x = np.random.default_rng(4).standard_normal((5, 3)).astype(np.float32)
        out = score_projection([x], [np.zeros((3, 2), np.float32)], Indicator.B_PROJ)
        assert np.array_equal(out.scores, np.zeros(5, dtype=np.float32))

    def test_selector_column(self):
        x = np.random.default_rng(5).standard_normal((4, 3)).astype(np.float32)
        w = np.zeros((3, 1), dtype=np.float32)
        w[0, 0] = 1.0
        out = score_projection([x], [w], Indicator.C_PROJ)
        assert np.allclose(out.scores, x[:, 0], atol=1e-7)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(6)
        xs = [rng.standard_normal((7, 4)).astype(np.float32) for _ in range(2)]
        ws = [rng.standard_normal((4, 3)).astype(np.float32) for _ in range(2)]
        out = score_projection(xs, ws, Indicator.B_PROJ)
        for t in range(7):
            acc = 0.0
            for n in range(3):
                for h in range(2):
                    acc += float(np.dot(xs[h][t].astype(np.float64), ws[h][:, n].astype(np.float64)))
            assert abs(out.scores[t] - acc / 3) < 1e-6

    def test_rejects_wrong_indicator(self):
        x = np.zeros((2, 2), np.float32)
        with pytest.raises(ValueError, match="cannot produce"):
            score_projection([x], [np.zeros((2, 1), np.float32)], Indicator.DELTA)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            score_projection(
                [np.zeros((2, 3), np.float32)], [np.zeros((4, 1), np.float32)], Indicator.B_PROJ
            )


class TestScoreHidden:
    def test_all_ones(self):
        out = score_hidden(np.ones((4, 6), dtype=np.float32))
        assert np.array_equal(out.scores, np.ones(4, dtype=np.float32))

    def test_row_mean(self):
        out = score_hidden(np.array([[2.0, 4.0]], dtype=np.float32))
        assert out.scores[0] == pytest.approx(3.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((11, 5)).astype(np.float32)
        out = score_hidden(x)
        for t in range(11):
            assert abs(out.scores[t] - sum(float(v) for v in x[t]) / 5) < 1e-6


class TestScoreClsSimilarity:
    def test_token_equal_to_cls(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 0.1]], dtype=np.float32)
        out = score_cls_similarity(x, 0)
        assert out.scores[1] == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_token(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        out = score_cls_similarity(x, 0)
        assert out.scores[1] == 0.0

    def test_cls_position_gets_sentinel(self):
        x = np.random.default_rng(8).standard_normal((5, 4)).astype(np.float32)
        out = score_cls_similarity(x, 2)
        assert np.isposinf(out.scores[2])

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 6)).astype(np.float32)
        out = score_cls_similarity(x, 3)
        for t in range(8):
            if t == 3:
                continue
            assert out.scores[t] == np.float32(oracles.cosine_similarity(x[3], x[t]))

    def test_bad_index(self):
        with pytest.raises(IndexError, match="out of range"):
            score_cls_similarity(np.zeros((3, 2), np.float32), 3)


class TestPermutationEquivariance:
    """Permuting tokens (and precomputed traces) permutes scores identically.

    The scan itself is order-sensitive, so only already-computed per-token
    quantities are permuted, never re-scanned inputs.
    """

    def test_projection(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((9, 4)).astype(np.float32)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        perm = rng.permutation(9)
        base = score_projection([x], [w], Indicator.B_PROJ)
        permuted = score_projection([x[perm]], [w], Indicator.B_PROJ)
        assert np.array_equal(permuted.scores, base.scores[perm])

    def test_hidden(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, 5)).astype(np.float32)
        perm = rng.permutation(7)
        assert np.array_equal(score_hidden(x[perm]).scores, score_hidden(x).scores[perm])

    def test_cls_similarity(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 3)).astype(np.float32)
        perm = rng.permutation(8)
        cls_index = 2
        base = score_cls_similarity(x, cls_index)
        new_cls = int(np.nonzero(perm == cls_index)[0][0])
        permuted = score_cls_similarity(x[perm], new_cls)
        assert np.array_equal(permuted.scores, base.scores[perm])
