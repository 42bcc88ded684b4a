"""Kernel contracts: exact reproducibility, branch safety, tie rules."""

import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mambapress import kernels
from mambapress.flops import FlopsModel, default_reduction_layers, solve_k
from mambapress.model import ModelConfig, VisionModel, identity_plan
from mambapress.ppm import synthetic_image
from tests import oracles


def naive_matmul_f32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar triple loop accumulating left-to-right in float32."""
    m, k = a.shape
    p = b.shape[1]
    out = np.zeros((m, p), dtype=np.float32)
    for i in range(m):
        for j in range(p):
            acc = np.float32(0.0)
            for t in range(k):
                acc = np.float32(acc + np.float32(a[i, t] * b[t, j]))
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        assert np.array_equal(kernels.matmul(np.eye(2, dtype=np.float32), x), x)

    def test_selector(self):
        a = np.array([[1.0, 0.0]], dtype=np.float32)
        b = np.array([[0.0], [5.0]], dtype=np.float32)
        assert np.array_equal(kernels.matmul(a, b), np.array([[0.0]], dtype=np.float32))

    def test_matches_triple_loop_exactly(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((7, 5)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        assert np.array_equal(kernels.matmul(a, b), naive_matmul_f32(a, b))

    def test_matches_triple_loop_many_shapes(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m, k, p = rng.integers(1, 9, size=3)
            a = (rng.standard_normal((m, k)) * 4).astype(np.float32)
            b = (rng.standard_normal((k, p)) * 4).astype(np.float32)
            assert np.array_equal(kernels.matmul(a, b), naive_matmul_f32(a, b))

    def test_identity_property_random(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 6)).astype(np.float32)
        assert np.array_equal(kernels.matmul(np.eye(9, dtype=np.float32), x), x)

    def test_shape_mismatch_names_both_shapes(self):
        a = np.zeros((2, 3), dtype=np.float32)
        b = np.zeros((4, 2), dtype=np.float32)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            kernels.matmul(a, b)

    def test_finite_outputs(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 20)).astype(np.float32)
        b = rng.standard_normal((20, 4)).astype(np.float32)
        assert np.all(np.isfinite(kernels.matmul(a, b)))


class TestSoftplus:
    def test_zero(self):
        out = kernels.softplus(np.float32(0.0))
        assert abs(float(out) - np.log(2.0)) < 1e-6

    def test_large_input_uses_identity_branch(self):
        out = kernels.softplus(np.float32(30.0))
        assert abs(float(out) - 30.0) < 1e-6

    def test_very_negative_stays_positive(self):
        # High-precision reference: ln(1 + e^-30) evaluated in float64.
        expect = np.log1p(np.exp(np.float64(-30.0)))
        out = float(kernels.softplus(np.float32(-30.0)))
        assert out > 0.0
        assert abs(out - expect) < 1e-15

    def test_extreme_negative_clamped_positive(self):
        out = kernels.softplus(np.array([-200.0, -1000.0], dtype=np.float32))
        assert np.all(out > 0.0)

    @given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    def test_strictly_positive(self, x):
        assert float(kernels.softplus(np.float32(x))) > 0.0

    def test_monotone_on_grid(self):
        grid = np.linspace(-50, 50, 4001, dtype=np.float32)
        vals = kernels.softplus(grid)
        assert np.all(np.diff(vals) >= 0.0)


class TestCosineSimilarity:
    @staticmethod
    def cosine(a, b) -> float:
        """One entry of cosine_matrix, through 1-row inputs."""
        return float(kernels.cosine_matrix(np.atleast_2d(a), np.atleast_2d(b))[0, 0])

    def test_identical_direction(self):
        assert self.cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert self.cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_norm_guard(self):
        assert self.cosine([1.0, 0.0], [0.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            self.cosine([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = rng.standard_normal(rng.integers(1, 24)).astype(np.float32)
            b = rng.standard_normal(len(a)).astype(np.float32)
            c = self.cosine(a, b)
            assert -1.0 - 1e-6 <= c <= 1.0 + 1e-6

    def test_matrix_matches_scalar_bitwise(self):
        rng = np.random.default_rng(17)
        a = (rng.standard_normal((6, 9)) * 3).astype(np.float32)
        b = (rng.standard_normal((4, 9)) * 3).astype(np.float32)
        mat = kernels.cosine_matrix(a, b)
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                assert mat[i, j] == np.float32(oracles.cosine_similarity(a[i], b[j]))

    def test_matrix_zero_norm_rows(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32)
        b = np.array([[1.0, 1.0]], dtype=np.float32)
        mat = kernels.cosine_matrix(a, b)
        assert mat[0, 0] == 0.0
        assert mat[1, 0] != 0.0


def argsort_desc_oracle(values: np.ndarray) -> list[int]:
    """O(n^2) selection: repeatedly take the max, earliest index first."""
    vals = list(values)
    remaining = list(range(len(vals)))
    order = []
    while remaining:
        best = remaining[0]
        for idx in remaining[1:]:
            if vals[idx] > vals[best]:
                best = idx
        order.append(best)
        remaining.remove(best)
    return order


class TestArgsortDesc:
    def test_basic(self):
        assert list(kernels.argsort_desc([0.1, 0.9, 0.5])) == [1, 2, 0]

    def test_tie_stability(self):
        assert list(kernels.argsort_desc([0.5, 0.5, 0.5])) == [0, 1, 2]

    def test_against_selection_oracle(self):
        rng = np.random.default_rng(19)
        values = rng.choice([0.1, 0.2, 0.3, 0.7], size=100).astype(np.float32)
        assert list(kernels.argsort_desc(values)) == argsort_desc_oracle(values)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            kernels.argsort_desc([1.0, np.nan])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, width=32), max_size=40))
    @settings(max_examples=60)
    def test_is_permutation(self, values):
        order = kernels.argsort_desc(np.array(values, dtype=np.float32))
        assert sorted(order) == list(range(len(values)))


class TestConvAndNorm:
    def test_causal_conv_manual(self):
        # Single channel, taps [k0, k1]; out[t] = k1*x[t] + k0*x[t-1].
        x = np.array([[1.0], [2.0], [3.0]], dtype=np.float32)
        kernel = np.array([[10.0, 1.0]], dtype=np.float32)
        out = kernels.causal_conv(x, kernel)
        assert np.allclose(out[:, 0], [1.0, 12.0, 23.0])

    def test_causal_conv_zero_history(self):
        x = np.zeros((5, 3), dtype=np.float32)
        x[2] = 1.0
        kernel = np.ones((3, 4), dtype=np.float32)
        out = kernels.causal_conv(x, kernel)
        # The impulse at t=2 is visible for width=4 steps starting there.
        assert np.allclose(out[:, 0], [0, 0, 1, 1, 1])

    def test_layernorm_zero_mean_unit_var(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((4, 64)).astype(np.float32)
        out = kernels.layernorm(x, np.ones(64, np.float32), np.zeros(64, np.float32))
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-5)
        assert np.allclose(out.std(axis=1), 1.0, atol=1e-2)

    def test_rowdot_matches_einsum(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((8, 5)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        assert np.allclose(kernels.rowdot(a, b), np.einsum("ij,j->i", a, b), atol=1e-6)


class TestFlopCounter:
    def test_matmul_cost(self):
        with kernels.count_flops() as counter:
            kernels.matmul(np.zeros((3, 4), np.float32), np.zeros((4, 5), np.float32))
        assert counter.total == 2 * 3 * 4 * 5
        assert counter.by_op["matmul"] == counter.total

    def test_elementwise_costs(self):
        x = np.zeros((6, 7), np.float32)
        with kernels.count_flops() as counter:
            kernels.add(x, x)
            kernels.multiply(x, x)
            kernels.exp(x)
            kernels.silu(x)
            kernels.softplus(x)
            kernels.layernorm(x, np.ones(7, np.float32), np.zeros(7, np.float32))
            kernels.causal_conv(x, np.ones((7, 4), np.float32))
        n = x.size
        assert counter.by_op["add"] == n
        assert counter.by_op["multiply"] == n
        assert counter.by_op["exp"] == n
        assert counter.by_op["silu"] == n
        assert counter.by_op["softplus"] == n
        assert counter.by_op["layernorm"] == 7 * n
        assert counter.by_op["causal_conv"] == 2 * 4 * n

    def test_similarity_and_sorting_tally_nothing(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((5, 8)).astype(np.float32)
        with kernels.count_flops() as counter:
            kernels.cosine_matrix(a, a)
            kernels.cosine_matrix(a[:1], a[1:2])
            kernels.argsort_desc(a[:, 0])
        assert counter.total == 0

    def test_inactive_by_default(self):
        before = kernels._ACTIVE.get()
        kernels.matmul(np.zeros((2, 2), np.float32), np.zeros((2, 2), np.float32))
        assert kernels._ACTIVE.get() is before is None

    def test_nesting_rejected(self):
        with kernels.count_flops():
            with pytest.raises(RuntimeError, match="already active"):
                with kernels.count_flops():
                    pass

    def test_counter_ignores_other_threads(self):
        armed, release = threading.Event(), threading.Event()
        totals = []

        def counting():
            with kernels.count_flops() as counter:
                kernels.matmul(np.ones((2, 3), np.float32), np.ones((3, 4), np.float32))
                armed.set()
                release.wait(timeout=30)
            totals.append(counter.total)

        worker = threading.Thread(target=counting)
        worker.start()
        try:
            assert armed.wait(timeout=30)
            kernels.matmul(np.ones((5, 6), np.float32), np.ones((6, 7), np.float32))
        finally:
            release.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert totals == [2 * 2 * 3 * 4]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Bitwise equal outside NaNs, NaNs in the same places (payloads may differ)."""
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint32), want[~nan].view(np.uint32))


def _special_values():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((9, 7)).astype(np.float32)
    b = rng.standard_normal((7, 70)).astype(np.float32)
    a[0, 0] = np.inf
    b[0, 10] = 0.0  # inf * 0 puts a NaN at [0, 10]
    b[4, 5] = -np.inf
    a[1, :] = -0.0
    a[2, 3] = 1e-41  # denormal operand
    a[3, :] = 1e-20
    b[:, 9] = 3e-19  # products and sums in row 3, column 9 are denormal
    b[2, 66] = -0.0
    return a, b


def _strided():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((14, 30)).astype(np.float32)[::2, 1::3]
    b = rng.standard_normal((21, 150)).astype(np.float32)[1::2, ::2]
    return a, b


def _transposed():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((6, 5)).astype(np.float32)
    return a, rng.standard_normal((83, 5)).astype(np.float32).T


def _float64():
    rng = np.random.default_rng(53)
    return rng.standard_normal((5, 33)) * 1e3, rng.standard_normal((33, 17)) / 3


BIT_CASES = {
    "inf_denormal_negzero": _special_values,
    "empty_m": lambda: (np.ones((0, 5), np.float32), np.ones((5, 3), np.float32)),
    "empty_k": lambda: (np.ones((4, 0), np.float32), np.ones((0, 3), np.float32)),
    "empty_p": lambda: (np.ones((4, 5), np.float32), np.ones((5, 0), np.float32)),
    "transposed_b": _transposed,
    "strided_slices": _strided,
    "float64": _float64,
}


class TestCompiledMatmul:
    """The compiled kernel keeps the bits of the scalar loop and the numpy fallback."""

    def test_compiled_kernel_loads_where_gcc_exists(self):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH: the numpy fallback is the kernel")
        assert kernels._compiled_ltr() is not None

    @pytest.mark.parametrize("shape", [(1, 1), (8, 128)])
    def test_no_fused_multiply_add(self, shape):
        # A fused a*b+c rounds once and leaves 2**-24 here; two roundings give 0.
        m, p = shape
        a = np.tile(np.array([[-(1 + 2**-11), 1 + 2**-12]], np.float32), (m, 1))
        b = np.tile(np.array([[1], [1 + 2**-12]], np.float32), (1, p))
        assert np.array_equal(kernels.matmul(a, b), np.zeros((m, p), np.float32))
        assert np.array_equal(kernels._ltr_matmul_numpy(a, b), np.zeros((m, p), np.float32))

    @pytest.mark.parametrize("case", sorted(BIT_CASES))
    def test_matches_triple_loop_and_fallback(self, case):
        a, b = BIT_CASES[case]()
        a32, b32 = kernels.as_f32(a), kernels.as_f32(b)
        with np.errstate(all="ignore"):
            want = naive_matmul_f32(a32, b32)
            assert_same_bits(kernels.matmul(a, b), want)
            assert_same_bits(kernels._ltr_matmul_numpy(a32, b32), want)

    def test_toy_logits_same_with_fallback(self, monkeypatch):
        config = ModelConfig(image_size=224, patch_size=16, feat_dim=192, depth=24)
        model = VisionModel.seeded(config, seed=0)
        layers = default_reduction_layers(config.depth)
        image = synthetic_image(config.image_size, seed=5)
        plans = [identity_plan(layers), solve_k(FlopsModel.from_config(config), 0.4, layers)]
        compiled = [model.forward(image, plan, collect_diagnostics=False)[0] for plan in plans]
        monkeypatch.setattr(kernels, "_compiled_ltr", lambda: None)
        for plan, logits in zip(plans, compiled):
            fallback = model.forward(image, plan, collect_diagnostics=False)[0]
            assert np.array_equal(logits.view(np.uint32), fallback.view(np.uint32))

    def test_cold_cache_build(self, tmp_path):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH")
        cache = tmp_path / "cache"
        kernel = kernels._build_ltr(cache, "gcc")
        assert kernel is not None
        (built,) = cache.iterdir()  # the library only: no temporary left behind
        assert built.name.startswith("ltr_matmul-") and built.suffix == ".so"
        stamp = built.stat().st_mtime_ns
        assert kernels._build_ltr(cache, "gcc") is not None
        assert [p.stat().st_mtime_ns for p in cache.iterdir()] == [stamp]

        a, b = _special_values()
        out = np.empty((a.shape[0], b.shape[1]), np.float32)
        assert kernel(a, b, out, a.shape[0], a.shape[1], b.shape[1]) == 0
        with np.errstate(all="ignore"):
            assert_same_bits(out, naive_matmul_f32(a, b))

    def test_missing_compiler_falls_back(self, tmp_path, monkeypatch):
        assert kernels._build_ltr(tmp_path, str(tmp_path / "no-such-cc")) is None
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(kernels, "_ltr_compiled", None)
        a, b = _strided()
        assert np.array_equal(kernels.matmul(a, b), naive_matmul_f32(a, b))

    def test_concurrent_first_use_builds_once(self, tmp_path, monkeypatch):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(kernels, "_ltr_compiled", kernels._UNLOADED)
        builds = []
        build = kernels._build_ltr

        def counted_build(cache_dir, compiler):
            builds.append(cache_dir)
            return build(cache_dir, compiler)

        monkeypatch.setattr(kernels, "_build_ltr", counted_build)
        a, b = _strided()
        want = naive_matmul_f32(a, b)
        results = []

        def use():
            results.append(kernels.matmul(a, b))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=use) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert builds == [tmp_path / "mambapress"]
        assert len(results) == 6
        for out in results:
            assert np.array_equal(out, want)
