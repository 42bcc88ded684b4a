"""Indicator scoring: arithmetic examples, loop oracles, ordering properties."""

from dataclasses import fields, replace

import numpy as np
import pytest

from mambapress import kernels
from mambapress.importance import Indicator, compute_scores, score_cls_similarity, score_delta
from mambapress.ssm import DIRECTIONS, ScanTrace, selective_scan
from tests import oracles
from tests.test_kernels import naive_matmul_f32
from tests.test_ssm import random_head


def trace_with_delta(delta: np.ndarray) -> ScanTrace:
    delta = np.asarray(delta, dtype=np.float32)
    zeros = np.zeros_like(delta)
    return ScanTrace(y=zeros, delta=delta, b=zeros, c=zeros)


def score(indicator, traces=(), x=None, cls_row=None) -> np.ndarray:
    """``compute_scores`` with ``x`` as both the block input and output."""
    return compute_scores(
        indicator, block_input=x, block_output=x, traces=traces, cls_row=cls_row
    ).scores


def projection_traces(xs, ws, indicator) -> list[ScanTrace]:
    """One scan per head, forward and backward in turn, whose B (or C)
    projection weights are ``ws``."""
    rng = np.random.default_rng(len(xs))
    name = "w_b" if indicator is Indicator.B_PROJ else "w_c"
    traces = []
    for i, (x, w) in enumerate(zip(xs, ws)):
        head = replace(random_head(rng, x.shape[1], w.shape[1], 1), **{name: w},
                       scan_direction=DIRECTIONS[i % 2])
        traces.append(selective_scan(x, head))
    return traces


class TestScoreDelta:
    def test_two_head_arithmetic(self):
        t1 = trace_with_delta([[0.2, 0.4]])
        t2 = trace_with_delta([[0.1, 0.3]])
        out = score_delta([t1, t2])
        assert np.array_equal(out.scores, score(Indicator.DELTA, [t1, t2]))
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
        traces = projection_traces([x], [np.zeros((3, 2), np.float32)], Indicator.B_PROJ)
        assert np.array_equal(score(Indicator.B_PROJ, traces), np.zeros(5, dtype=np.float32))

    def test_selector_column(self):
        x = np.random.default_rng(5).standard_normal((4, 3)).astype(np.float32)
        w = np.zeros((3, 1), dtype=np.float32)
        w[0, 0] = 1.0
        out = score(Indicator.C_PROJ, projection_traces([x], [w], Indicator.C_PROJ))
        assert np.allclose(out, x[:, 0], atol=1e-7)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(6)
        xs = [rng.standard_normal((7, 4)).astype(np.float32) for _ in range(2)]
        ws = [rng.standard_normal((4, 3)).astype(np.float32) for _ in range(2)]
        out = score(Indicator.B_PROJ, projection_traces(xs, ws, Indicator.B_PROJ))
        for t in range(7):
            acc = 0.0
            for n in range(3):
                for h in range(2):
                    acc += float(np.dot(xs[h][t].astype(np.float64), ws[h][:, n].astype(np.float64)))
            assert abs(out[t] - acc / 3) < 1e-6

    @pytest.mark.parametrize("indicator", [Indicator.B_PROJ, Indicator.C_PROJ])
    def test_books_nothing_and_keeps_bits(self, indicator):
        # A forward and a backward head: the backward trace's B and C are
        # reversed views, and still sum in original token order.
        rng = np.random.default_rng(7)
        xs = [rng.standard_normal((11, 6)).astype(np.float32) for _ in range(2)]
        ws = [rng.standard_normal((6, 4)).astype(np.float32) for _ in range(2)]
        traces = projection_traces(xs, ws, indicator)
        total = naive_matmul_f32(xs[0], ws[0]) + naive_matmul_f32(xs[1], ws[1])
        want = total.mean(axis=1, dtype=np.float32)
        with kernels.count_flops() as counter:
            out = score(indicator, traces)
            assert kernels._ACTIVE.get() is counter
        assert counter.total == 0 and not counter.by_op
        assert np.array_equal(out.view(np.uint32), want.view(np.uint32))

    def test_rejects_shape_mismatch(self):
        xs = [np.zeros((2, 3), np.float32), np.zeros((2, 3), np.float32)]
        ws = [np.zeros((3, 1), np.float32), np.zeros((3, 2), np.float32)]
        with pytest.raises(ValueError, match="differ"):
            score(Indicator.B_PROJ, projection_traces(xs, ws, Indicator.B_PROJ))


class TestScoreHidden:
    def test_all_ones(self):
        out = score(Indicator.HIDDEN_X, x=np.ones((4, 6), dtype=np.float32))
        assert np.array_equal(out, np.ones(4, dtype=np.float32))

    def test_row_mean(self):
        out = score(Indicator.HIDDEN_X, x=np.array([[2.0, 4.0]], dtype=np.float32))
        assert out[0] == pytest.approx(3.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((11, 5)).astype(np.float32)
        out = score(Indicator.HIDDEN_X, x=x)
        for t in range(11):
            assert abs(out[t] - sum(float(v) for v in x[t]) / 5) < 1e-6


class TestScoreClsSimilarity:
    def test_token_equal_to_cls(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 0.1]], dtype=np.float32)
        out = score_cls_similarity(x, 0)
        assert out.scores[1] == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_token(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        out = score_cls_similarity(x, 0)
        assert out.scores[1] == 0.0

    def test_overflowing_norm_raises(self):
        # The first token's squared norm overflows float32; scored, it would
        # rank every token 0.
        x = np.array([[1e20, 2e20], [0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        with pytest.raises(kernels.NumericError, match="squared norms overflow"):
            score_cls_similarity(x, 1)

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


class TestComputeScores:
    @pytest.mark.parametrize("indicator", [Indicator.DELTA, Indicator.B_PROJ, Indicator.C_PROJ])
    def test_reads_the_trace_field_its_value_names(self, indicator):
        assert indicator.value in {f.name for f in fields(ScanTrace)}
        values = {"delta": 1.0, "b": 2.0, "c": 3.0}
        trace = ScanTrace(y=np.zeros((3, 2), np.float32),
                          **{k: np.full((3, 2), v, np.float32) for k, v in values.items()})
        assert np.array_equal(score(indicator, [trace, trace]),
                              np.full(3, 2 * values[indicator.value], np.float32))

    def test_cls_needs_a_cls_token(self):
        x = np.ones((3, 2), np.float32)
        with pytest.raises(ValueError, match="cls similarity scoring needs a cls token"):
            score(Indicator.CLS_SIM, x=x, cls_row=None)

    def test_rejects_unknown_indicator(self):
        x = np.ones((3, 2), np.float32)
        with pytest.raises(ValueError, match="'z' is not a valid Indicator"):
            score("z", [trace_with_delta(x)], x=x)


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
        (trace,) = projection_traces([x], [w], Indicator.B_PROJ)
        base = score(Indicator.B_PROJ, [trace])
        permuted = score(Indicator.B_PROJ, [replace(trace, b=trace.b[perm])])
        assert np.array_equal(permuted, base[perm])

    def test_hidden(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, 5)).astype(np.float32)
        perm = rng.permutation(7)
        hidden = score(Indicator.HIDDEN_X, x=x)
        assert np.array_equal(score(Indicator.HIDDEN_X, x=x[perm]), hidden[perm])

    def test_cls_similarity(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 3)).astype(np.float32)
        perm = rng.permutation(8)
        cls_index = 2
        base = score_cls_similarity(x, cls_index)
        new_cls = int(np.nonzero(perm == cls_index)[0][0])
        permuted = score_cls_similarity(x[perm], new_cls)
        assert np.array_equal(permuted.scores, base.scores[perm])
