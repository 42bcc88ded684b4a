"""Kernel contracts: exact reproducibility, branch safety, tie rules."""

import ast
import ctypes
import dataclasses
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mambapress import kernels
from mambapress.flops import FlopsModel, default_reduction_layers, solve_k
from mambapress.model import ModelConfig, VisionModel, identity_plan
from mambapress.ppm import synthetic_image
from mambapress.reduction import Strategy
from tests import oracles
from tests.conftest import build_probe


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

    def test_overflow_is_silent(self, path):
        # Both paths give inf for a sum past the float32 range and NaN for
        # inf + -inf, and neither warns.
        a = np.full((1, 4), 3e38, np.float32)
        b = np.full((4, 2), 3e38, np.float32)
        b[1::2, 1] *= -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels.matmul(a, b)
        assert got[0, 0] == np.inf and np.isnan(got[0, 1])


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


def special_grid() -> np.ndarray:
    """Signed zeros, denormals, infinities, NaN, values on both sides of the
    softplus cutoff and of exp's overflow, and a dense normal range."""
    tiny = np.finfo(np.float32).tiny
    cutoff = np.float32(kernels.SOFTPLUS_CUTOFF)
    around = [np.nextafter(cutoff, np.float32(-np.inf)), cutoff,
              np.nextafter(cutoff, np.float32(np.inf))]
    values = [0.0, -0.0, 1e-45, -1e-45, 1e-41, -3e-39, tiny, -tiny, np.inf, -np.inf,
              np.nan, 88.7, 88.8, -88.8, -103.9, -104.0, 1e30, -1e30,
              *around, *(-v for v in around)]
    dense = np.linspace(-120, 120, 20001, dtype=np.float32)
    return np.concatenate([np.array(values, np.float32), dense])


class TestActivationsMatchOracles:
    """softplus and silu write one buffer in place with the bits of fresh arrays."""

    @pytest.mark.parametrize("name", ["softplus", "silu"])
    def test_bitwise_on_special_grid(self, name):
        grid = special_grid()
        with np.errstate(invalid="ignore"):
            for x in (grid, grid.reshape(-1, 5)[:, 1::2], grid[::-3]):
                got = getattr(kernels, name)(x)
                assert_same_bits(got, getattr(oracles, name)(x))
            assert float(getattr(kernels, name)(np.float32(0.5))) == float(
                getattr(oracles, name)(np.float32(0.5)))

    @pytest.mark.parametrize("name", ["softplus", "silu"])
    def test_input_untouched(self, name):
        x = special_grid()
        before = x.copy()
        with np.errstate(invalid="ignore"):
            getattr(kernels, name)(x)
        assert_same_bits(x, before)


def exp_inputs(stride: int, chunk: int = 2**18):
    """float32 inputs for the pinned exp, in chunks of at most ``chunk``:
    every ``stride``-th bit pattern of all 2**32, then signed zeros,
    infinities, quiet and signalling NaNs of both signs, the smallest and
    largest denormals of both signs, and the clamp edges -104 and 88.75
    with their neighbours."""
    for start in range(0, 2**32, stride * chunk):
        bits = np.arange(start, min(start + stride * chunk, 2**32), stride, dtype=np.uint64)
        yield bits.astype(np.uint32).view(np.float32)
    special = np.array([0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000,
                        0xFFC00000, 0x7F800001, 0xFFA00000, 0x00000001, 0x80000001,
                        0x007FFFFF, 0x807FFFFF], np.uint32).view(np.float32)
    edges = [np.float32(v) for v in (-104.0, 88.75)]
    near = [np.nextafter(v, np.float32(d)) for v in edges for d in (-np.inf, np.inf)]
    yield np.concatenate([special, np.array([*edges, *near], np.float32)])


def probe_lanes(export, x: np.ndarray) -> np.ndarray:
    """A probe export that maps float32 lanes, over the values of x."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    out = np.empty_like(x)
    export(x.ctypes.data, out.ctypes.data, x.size)
    return out


class TestPinnedExp:
    """The engine's own float32 exp: the C lanes and the numpy twin agree bit
    for bit, and both stay within one ULP of exp."""

    def test_compiled_matches_twin_on_a_bit_pattern_sweep(self, probe):
        if probe is None:
            pytest.skip("no gcc: the numpy twin is the exp")
        # An odd stride reaches every table entry and every exponent.
        for x in exp_inputs(stride=1021):
            assert_same_bits(probe_lanes(probe.probe_vexp, x), kernels._exp_numpy(x))

    def test_special_values(self, probe):
        x = np.array([-np.inf, -0.0, 0.0, np.inf, np.nan, -104.0, 88.75, -200.0, 1e4,
                      1e-45, -1e-45], np.float32)
        want = np.array([0.0, 1.0, 1.0, np.inf, np.nan, 0.0, np.inf, 0.0, np.inf, 1.0, 1.0],
                        np.float32)
        assert_same_bits(kernels._exp_numpy(x), want)
        if probe is not None:
            assert_same_bits(probe_lanes(probe.probe_vexp, x), want)
        assert kernels._exp_numpy(np.float32(0.5)).shape == ()
        assert kernels._exp_numpy(x.reshape(11, 1)[::2]).shape == (6, 1)

    def test_within_one_ulp_of_exp_over_the_normal_range(self):
        # Every 997th float32 whose exp is a normal float32: from ln(tiny)
        # up to ln(max). Over all such inputs the maximum is 0.9854 ULP.
        lo, hi = np.float32(-87.33654), np.float32(88.72283)
        worst = 0.0
        for sign, end in ((0, hi), (0x80000000, lo)):
            last = int(np.array(end).view(np.uint32)) - sign
            bits = np.arange(0, last + 1, 997, dtype=np.uint32) | np.uint32(sign)
            x = bits.view(np.float32)
            ref = np.exp(x.astype(np.float64))
            ulp = np.ldexp(1.0, np.frexp(ref)[1] - 24)
            err = np.abs(kernels._exp_numpy(x).astype(np.float64) - ref) / ulp
            worst = max(worst, float(err.max()))
        assert worst < 1.0

    def test_in_place_refuses_buffers_it_cannot_write_whole(self, path):
        # The compiled exp writes buf.size float32s from the first element:
        # a reversed view would write past its end, a strided one into its
        # gaps, and a float64 buffer would be read as float32 pairs.
        base = np.zeros(64, np.float32)
        wide = np.zeros(16)
        read_only = base[40:48]
        read_only.flags.writeable = False
        for buf in (base[8:24][::-1], base[8:40:2], wide, read_only):
            with pytest.raises(ValueError, match="exp_in_place"):
                kernels.exp_in_place(buf)
        assert base.tobytes() == bytes(base.nbytes) and wide.tobytes() == bytes(wide.nbytes)


def decay_arguments(stride: int, chunk: int = 2**18):
    """float32 arguments for the scan's decay, in chunks of at most
    ``chunk``: every ``stride``-th bit pattern with the sign bit set (every
    x <= 0, -inf and the NaNs with the sign bit set), then signed zeros,
    both infinities, quiet and signalling NaNs of both signs, positive
    values, and the flush edge -2016.5 and the clamp -2032 with their
    neighbours."""
    for start in range(2**31, 2**32, stride * chunk):
        bits = np.arange(start, min(start + stride * chunk, 2**32), stride, dtype=np.uint64)
        yield bits.astype(np.uint32).view(np.float32)
    special = np.array([0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000,
                        0xFFC00000, 0x7F800001, 0xFF800001, 0x7FA00000, 0xFFA00000,
                        0x00000001, 0x3F800000, 0x7F7FFFFF], np.uint32).view(np.float32)
    edges = [np.float32(v) for v in (-2016.5, -2032.0)]
    near = [np.nextafter(v, np.float32(d)) for v in edges for d in (-np.inf, np.inf)]
    yield np.concatenate([special, np.array([*edges, *near], np.float32)])


class TestDecayFrontEnd:
    """The scan's decay 2^(x/16), for x = delta * (a * 16/ln 2): the C lanes
    and the numpy twin agree bit for bit, and the decays stay within the
    stated bound of exp(delta * a)."""

    def test_compiled_matches_twin_on_a_bit_pattern_sweep(self, probe):
        if probe is None:
            pytest.skip("no gcc: the numpy twin is the decay")
        # An odd stride reaches every table entry and every exponent.
        for x in decay_arguments(stride=1021):
            assert_same_bits(probe_lanes(probe.probe_vdecay, x), kernels._decay_numpy(x))

    def test_special_values(self, probe):
        # x = -16m is 2^-m exactly, down to the smallest normal; below
        # -2016.5 the decay is 0, above 0 it is 1, and a NaN of either sign
        # stays a NaN.
        m = np.arange(127)
        powers = (-16.0 * m).astype(np.float32), np.ldexp(1.0, -m).astype(np.float32)
        nans = np.array([0x7FC00000, 0xFFC00000, 0x7FA00000, 0xFFA00000, 0xFFC12345],
                        np.uint32).view(np.float32)
        x = np.concatenate([
            powers[0], nans,
            np.array([-np.inf, -0.0, 0.0, -1e-45, 1e-45, 1.0, 1e30, np.inf, -2032.0, -1e30,
                      np.nextafter(np.float32(-2016.5), np.float32(-np.inf))], np.float32)])
        want = np.concatenate([
            powers[1], np.full(len(nans), np.nan, np.float32),
            np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0], np.float32)])
        paths = [kernels._decay_numpy]
        if probe is not None:
            paths.append(lambda v: probe_lanes(probe.probe_vdecay, v))
        for decay in paths:
            assert_same_bits(decay(x), want)
            edge = decay(np.float32([-2016.5]))[0]
            assert 0 < edge < np.finfo(np.float32).tiny
        assert kernels._decay_numpy(np.float32(-0.5)).shape == ()
        assert kernels._decay_numpy(x.reshape(-1, 1)[::2]).shape == ((len(x) + 1) // 2, 1)

    def test_error_bound_over_the_sweep(self):
        # delta in [1e-4, 30] and a in [-4, -0.5]. The argument is rounded
        # twice (a * 16/ln 2, then delta times that), and the float32 16/ln 2
        # is 0.224 ULP off, so the decay is within 2.25|delta*a| + 1.5 ULP of
        # exp of the exact product: at most 198 ULP where the decay is a
        # normal float32. Over these pairs the largest error is 131 ULP, the
        # 99th percentile 63. Where the rounded argument is below -2016.5,
        # the decay is 0.
        rng = np.random.default_rng(2024)
        delta = rng.uniform(1e-4, 30, 400_000).astype(np.float32)
        a = rng.uniform(-4, -0.5, 400_000).astype(np.float32)
        arg = delta * (a * kernels._EXP_SCALE)
        got = kernels._decay_numpy(arg).astype(np.float64)
        exact = delta.astype(np.float64) * a
        ref = np.exp(exact)
        ulp = np.maximum(np.ldexp(1.0, np.frexp(ref)[1] - 24), 2.0**-149)
        err = np.abs(got - ref) / ulp
        live = arg >= -2016.5
        assert np.all(err[live] <= 2.25 * np.abs(exact[live]) + 1.5)
        assert err[live].max() < 198
        assert np.all(got[~live] == 0) and (~live).any()


# Computes the pinned exp (both paths), the decay front end's twin, the
# decays' pre-scale, silu, layernorm (both paths) and one scan head on fixed
# inputs and saves them to the file named by argv[1].
_DISPATCH_PROBE = """
import sys
import numpy as np
from mambapress import kernels
rng = np.random.default_rng(3)
e, n, length = 40, 16, 50
delta = rng.uniform(0.01, 3.0, (length, e)).astype(np.float32)
a = -rng.uniform(0.1, 5.0, (e, n)).astype(np.float32)
x, u = (rng.standard_normal((length, e)).astype(np.float32) * 4 for _ in range(2))
b, c = (rng.standard_normal((length, n)).astype(np.float32) for _ in range(2))
y = kernels.ssm_scan(delta, a, x, b, c, np.ones(e, np.float32))
grid = np.arange(0, 2**32, 65537, dtype=np.uint64).astype(np.uint32).view(np.float32)
scaled = a * kernels._EXP_SCALE
rows = x.reshape(-1, 125) * np.exp2(np.arange(125, dtype=np.float32) % 23 - 11)
scale, bias = u[0, :25].repeat(5), u[1, :25].repeat(5)
saved = dict(y=y, silu=kernels.silu(u), twin=kernels._exp_numpy(grid),
             scaled=scaled, decay_twin=kernels._decay_numpy(grid),
             decays=kernels._decay_numpy(delta[:, :, None] * scaled),
             layernorm=kernels.layernorm(rows, scale, bias),
             layernorm_numpy=kernels._layernorm_numpy(rows, scale, bias))
lib = kernels._library()
if lib is not None:
    saved["compiled"] = np.empty_like(grid)
    lib.exp_f32(grid.ctypes.data, saved["compiled"].ctypes.data, grid.size)
np.savez(sys.argv[1], **saved)
"""


def test_bits_do_not_depend_on_numpy_dispatch(tmp_path):
    """The scan's output, silu, layernorm, the pinned exp, the decay front
    end's twin and the decays' pre-scale give the same bits when numpy runs
    at its X86_V2 baseline as at the default dispatch level. np.exp gives
    other bits for about 39% of float32 inputs there, so this failed while
    the scan's decays used it. Whole logits are not compared yet: softplus
    still takes numpy's log1p, whose bits depend on the dispatch level
    too."""
    src = str(Path(kernels.__file__).resolve().parents[1])
    runs = []
    for disabled in (None, "AVX512_SPR AVX512_ICL X86_V4 X86_V3"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        path = tmp_path / f"probe-{len(runs)}.npz"
        subprocess.run([sys.executable, "-c", _DISPATCH_PROBE, str(path)], env=env,
                       check=True, capture_output=True, timeout=300)
        with np.load(path) as saved:
            runs.append({k: saved[k] for k in saved.files})
    default, baseline = runs
    assert default.keys() == baseline.keys()
    for name in default:
        assert_same_bits(baseline[name], default[name])


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

    def test_matrix_nan_norm_rows_and_columns_are_zero(self):
        # A NaN norm fails the floor test as a tiny one does: +0.0, not NaN.
        a = np.array([[np.nan, 1.0], [1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
        b = np.array([[1.0, 1.0], [2.0, np.nan]], dtype=np.float32)
        mat = kernels.cosine_matrix(a, b)
        assert np.array_equal(mat.view(np.uint32), np.array(
            [[0.0, 0.0], [oracles.cosine_similarity(a[1], b[0]), 0.0], [0.0, 0.0]],
            dtype=np.float32).view(np.uint32))


def argmax_oracle(a, b) -> np.ndarray:
    """``cosine_matrix(a, b).argmax(axis=1)``, raising where the argmax finds a NaN."""
    with np.errstate(all="ignore"):
        sims = kernels.cosine_matrix(a, b)
    best = sims.argmax(axis=1)
    if np.isnan(sims[np.arange(len(best)), best]).any():
        raise ValueError("similarity is NaN")
    return best


class TestCosineArgmax:
    """cosine_argmax picks, index for index, what the argmax of cosine_matrix picks."""

    @staticmethod
    def check(a, b) -> np.ndarray:
        want = argmax_oracle(a, b)
        got = kernels.cosine_argmax(a, b)
        assert got.shape == want.shape and np.array_equal(got, want)
        return got

    def test_row_and_column_counts_around_the_tiles(self, path):
        # Rows run in blocks of 4 and columns in panels of 32, 16 and a padded
        # tail: cover every remainder, including fewer than 16 columns and 1.
        rng = np.random.default_rng(70)
        for m in (1, 2, 3, 4, 5, 7, 9):
            for p in (1, 2, 15, 16, 17, 31, 32, 33, 47, 48, 65, 100):
                for k in (0, 1, 3, 32):
                    a = rng.standard_normal((m, k)).astype(np.float32)
                    b = rng.standard_normal((p, k)).astype(np.float32)
                    self.check(a, b)
        assert kernels.cosine_argmax(np.ones((0, 3)), np.ones((5, 3))).shape == (0,)

    def test_duplicated_targets_go_to_the_lowest_column(self, path):
        rng = np.random.default_rng(71)
        a = rng.standard_normal((9, 6)).astype(np.float32)
        b = rng.standard_normal((70, 6)).astype(np.float32)
        b[1::3] = b[0]
        b[40:] = b[39]
        best = self.check(a, b)
        assert not np.isin(best, np.r_[1:40:3, 40:70]).any()
        assert np.array_equal(kernels.cosine_argmax(a, np.tile(a[:1], (35, 1))), np.zeros(9))

    def test_negative_zero_ties_positive_zero(self, path):
        # A tiny negative dot over a large norm rounds to -0.0; a zero dot or
        # a column under the norm floor gives +0.0. All are equal, so the
        # first column wins, on either side of a panel boundary.
        a = np.array([[1.0, 0.0], [0.0, 0.0]], np.float32)
        neg, pos, floor = [-1e-40, 1e10], [0.0, 1.0], [0.0, 0.0]
        for cols in ([neg, pos], [pos, neg], [floor, neg], [neg] * 17 + [pos] * 20):
            b = np.array(cols, np.float32)
            sims = kernels.cosine_matrix(a, b)
            assert (sims == 0).all() and np.signbit(sims[0]).any()
            assert list(self.check(a, b)) == [0, 0]

    def test_zero_and_nan_norms_score_zero(self, path):
        rng = np.random.default_rng(72)
        a = -np.abs(rng.standard_normal((6, 5))).astype(np.float32)
        b = np.abs(rng.standard_normal((21, 5))).astype(np.float32)
        a[1], a[4, 2] = 0.0, np.nan  # both rows pick column 0
        b[3], b[17, 0] = 0.0, np.nan  # both columns score 0, the best there is
        best = self.check(a, b)
        assert best[1] == best[4] == 0
        assert set(best[[0, 2, 3, 5]]) == {3}

    @pytest.mark.parametrize("where", ["source", "target", "both"])
    def test_infinite_features_raise(self, path, where):
        rng = np.random.default_rng(73)
        a = rng.standard_normal((5, 4)).astype(np.float32)
        b = rng.standard_normal((19, 4)).astype(np.float32)
        if where != "target":
            a[2, 1] = np.inf
        if where != "source":
            b[18, 3] = -np.inf
        with pytest.raises(ValueError, match="similarity is NaN"):
            argmax_oracle(a, b)
        with pytest.raises(ValueError, match="similarity is NaN"):
            kernels.cosine_argmax(a, b)

    def test_overflowing_norms_raise(self, path):
        # Finite features whose squared norm overflows float32: an infinite
        # norm would turn every similarity of the row to 0 or NaN.
        a = np.array([[1e20, 2e20]], np.float32)
        b = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
        assert list(kernels.cosine_argmax(a * np.float32(1e-19), b)) == [1]
        for x, y in ((a, b), (b, a)):
            with pytest.raises(kernels.NumericError, match="squared norms overflow"):
                kernels.cosine_argmax(x, y)
            with pytest.raises(kernels.NumericError, match="squared norms overflow"):
                kernels.cosine_matrix(x, y)

    def test_random_sweep_with_special_values(self, path):
        rng = np.random.default_rng(74)
        values = np.array([0.0, -0.0, 1e-41, -1e-30, 1.0, -1.0, 2.0, 1e15, np.nan],
                          np.float32)
        for trial in range(40):
            m, p, k = (int(v) for v in rng.integers(1, (12, 70, 9)))
            a = rng.choice(values, (m, k)) if trial % 2 else rng.standard_normal((m, k))
            b = rng.choice(values, (p, k)) if trial % 3 else rng.standard_normal((p, k))
            if trial % 4 == 0:
                b[::2] = b[0]
            self.check(kernels.as_f32(a), kernels.as_f32(b))

    def test_shape_errors(self, path):
        with pytest.raises(ValueError, match="mismatch"):
            kernels.cosine_argmax(np.ones((2, 3)), np.ones((2, 4)))
        for m in (2, 0):
            with pytest.raises(ValueError, match="at least one row"):
                kernels.cosine_argmax(np.ones((m, 3)), np.ones((0, 3)))
        # Zero bytes: the row count alone is over the limit.
        with pytest.raises(ValueError, match="under 2\\*\\*31"):
            kernels.cosine_argmax(np.ones((1, 0)), np.empty((2**31, 0), np.float32))

    @pytest.mark.parametrize("strategy", [Strategy.MERGE, Strategy.HYBRID])
    def test_dense_records_same_with_fallback(self, monkeypatch, strategy):
        """A small dense model reduced after every block: the logits, token
        counts and every reduction record are equal compiled and on the
        numpy fallback."""
        config = ModelConfig(image_size=64, patch_size=4, feat_dim=32, depth=4)
        model = VisionModel.seeded(config, seed=0)
        layers = tuple(range(config.depth))
        plan = solve_k(FlopsModel.from_config(config), 0.4, layers, strategy)
        images = [synthetic_image(config.image_size, seed=s) for s in (1, 2)]

        def runs():
            out = []
            for image in images:
                logits, diag = model.forward(image, plan)
                assert sorted(diag.reductions) == list(layers)
                out.append((logits.tobytes(), diag.token_counts, diag.reductions))
            return out

        compiled = runs()
        assert compiled[0][1][-1] < compiled[0][1][0] / 2
        monkeypatch.setattr(kernels, "_library", lambda: None)
        for got, want in zip(runs(), compiled, strict=True):
            assert got[:2] == want[:2]
            # Field by field: the repr of an array over 1000 entries elides them.
            for layer in layers:
                for f in dataclasses.fields(want[2][layer]):
                    assert np.array_equal(getattr(got[2][layer], f.name),
                                          getattr(want[2][layer], f.name)), (layer, f.name)


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

    def test_causal_conv_short_sequence(self):
        # Fewer tokens than taps: only the taps that reach the sequence count.
        x = np.array([[2.0], [3.0]], dtype=np.float32)
        kernel = np.array([[100.0, 10.0, 1.0, 0.5]], dtype=np.float32)
        assert np.array_equal(kernels.causal_conv(x, kernel)[:, 0], [1.0, 3.5])

    def test_layernorm_zero_mean_unit_var(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((4, 64)).astype(np.float32)
        out = kernels.layernorm(x, np.ones(64, np.float32), np.zeros(64, np.float32))
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-5)
        assert np.allclose(out.std(axis=1), 1.0, atol=1e-2)


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
            kernels.silu(x)
            kernels.softplus(x)
            kernels.layernorm(x, np.ones(7, np.float32), np.zeros(7, np.float32))
            kernels.causal_conv(x, np.ones((7, 4), np.float32))
        n = x.size
        assert counter.by_op["add"] == n
        assert counter.by_op["multiply"] == n
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
            kernels.cosine_argmax(a, a[:3])
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


def _scan_inputs():
    rng = np.random.default_rng(59)
    return (
        rng.uniform(0.01, 3.0, (23, 7)).astype(np.float32),
        -rng.uniform(0.1, 5.0, (7, 16)).astype(np.float32),
        rng.standard_normal((23, 7)).astype(np.float32),
        rng.standard_normal((23, 16)).astype(np.float32),
        rng.standard_normal((23, 16)).astype(np.float32),
        rng.standard_normal(7).astype(np.float32),
    )


def _conv_inputs():
    rng = np.random.default_rng(61)
    return rng.standard_normal((29, 21)).astype(np.float32), rng.standard_normal(
        (21, 4)).astype(np.float32)


def scan_fallback(delta, a, x, b, c, skip, reverse=False):
    """The numpy chain the compiled scan must reproduce; the C function
    reads the transpose of a * 16/ln 2."""
    abar = kernels._decay_numpy(delta[:, :, None] * (a * kernels._EXP_SCALE))
    return kernels._ssm_scan_numpy(abar, delta * x, b, c, reverse) + skip * x


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
        assert kernels._library() is not None

    @pytest.mark.parametrize("shape", [(1, 1), (8, 128)])
    def test_no_fused_multiply_add(self, shape):
        # A fused a*b+c rounds once and leaves 2**-24 here; two roundings give 0.
        m, p = shape
        a = np.tile(np.array([[-(1 + 2**-11), 1 + 2**-12]], np.float32), (m, 1))
        b = np.tile(np.array([[1], [1 + 2**-12]], np.float32), (1, p))
        assert np.array_equal(kernels.matmul(a, b), np.zeros((m, p), np.float32))
        assert np.array_equal(kernels._matmul_numpy(a, b), np.zeros((m, p), np.float32))

    @pytest.mark.parametrize("case", sorted(BIT_CASES))
    def test_matches_triple_loop_and_fallback(self, case):
        a, b = BIT_CASES[case]()
        a32, b32 = kernels.as_f32(a), kernels.as_f32(b)
        with np.errstate(all="ignore"):
            want = naive_matmul_f32(a32, b32)
            assert_same_bits(kernels.matmul(a, b), want)
            assert_same_bits(kernels._matmul_numpy(a32, b32), want)

    def test_toy_logits_same_with_fallback(self, monkeypatch):
        config = ModelConfig(image_size=224, patch_size=16, feat_dim=192, depth=24)
        model = VisionModel.seeded(config, seed=0)
        layers = default_reduction_layers(config.depth)
        image = synthetic_image(config.image_size, seed=5)
        plans = [identity_plan(layers), solve_k(FlopsModel.from_config(config), 0.4, layers)]
        compiled = [model.forward(image, plan, collect_diagnostics=False)[0] for plan in plans]
        monkeypatch.setattr(kernels, "_library", lambda: None)
        for plan, logits in zip(plans, compiled):
            fallback = model.forward(image, plan, collect_diagnostics=False)[0]
            assert np.array_equal(logits.view(np.uint32), fallback.view(np.uint32))

    def test_cold_cache_build(self, tmp_path):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH")
        cache = tmp_path / "cache"
        lib = kernels._build_library(cache, "gcc")
        assert lib is not None
        (built,) = cache.iterdir()  # the library only: no temporary left behind
        assert built.name.startswith("kernels-") and built.suffix == ".so"
        stamp = built.stat().st_mtime_ns
        assert kernels._build_library(cache, "gcc") is not None
        assert [p.stat().st_mtime_ns for p in cache.iterdir()] == [stamp]

        # Every function takes raw pointers to C-contiguous float32 buffers.
        a, b = _special_values()
        out = np.empty((a.shape[0], b.shape[1]), np.float32)
        assert lib.ltr_matmul(a.ctypes.data, b.ctypes.data, out.ctypes.data,
                              a.shape[0], a.shape[1], b.shape[1]) == 0
        with np.errstate(all="ignore"):
            assert_same_bits(out, naive_matmul_f32(a, b))

        # The scan, conv, exp and silu kernels come from the same library file.
        delta, a_state, x, bv, cv, skip = _scan_inputs()
        (length, e), n = delta.shape, a_state.shape[1]
        at = np.ascontiguousarray((a_state * kernels._EXP_SCALE).T)
        y = np.empty((length, e), np.float32)
        for reverse in (0, 1):
            assert lib.ssm_scan(delta.ctypes.data, at.ctypes.data, x.ctypes.data,
                                bv.ctypes.data, cv.ctypes.data, skip.ctypes.data,
                                y.ctypes.data, length, e, n, reverse) == 0
            assert_same_bits(y, scan_fallback(delta, a_state, x, bv, cv, skip, reverse))

        grid = special_grid()
        out = np.empty_like(grid)
        lib.exp_f32(grid.ctypes.data, out.ctypes.data, grid.size)
        assert_same_bits(out, kernels._exp_numpy(grid))
        lib.silu(grid.ctypes.data, out.ctypes.data, grid.size)
        with np.errstate(invalid="ignore"):
            assert_same_bits(out, oracles.silu(grid))

        x, kernel = _conv_inputs()
        kt = np.ascontiguousarray(kernel.T)
        out = np.empty_like(x)
        for reverse in (0, 1):
            lib.causal_conv(x.ctypes.data, kt.ctypes.data, out.ctypes.data, *x.shape, 4, reverse)
            assert_same_bits(out, kernels._causal_conv_numpy(x, kernel, reverse))

        # A warm cache loads without running the compiler.
        assert kernels._build_library(cache, str(tmp_path / "no-such-cc")) is not None
        assert [p.stat().st_mtime_ns for p in cache.iterdir()] == [stamp]

    def test_source_compiles_without_warnings(self, tmp_path):
        # The library's source and the test probe, each built from its file.
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH")
        warn = ("-Wall", "-Wextra", "-Werror")
        done = subprocess.run(["gcc", *kernels._CFLAGS, *warn, str(kernels._SOURCE),
                               "-o", str(tmp_path / "kernels.so")],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        done = build_probe(tmp_path / "probe.so", *warn)
        assert done.returncode == 0, done.stderr

    def test_missing_compiler_falls_back(self, tmp_path, monkeypatch):
        assert kernels._build_library(tmp_path, str(tmp_path / "no-such-cc")) is None
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(kernels, "_loaded", None)
        a, b = _strided()
        assert np.array_equal(kernels.matmul(a, b), naive_matmul_f32(a, b))

    def test_concurrent_first_use_builds_once(self, tmp_path, monkeypatch):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(kernels, "_loaded", kernels._UNLOADED)
        builds = []
        build = kernels._build_library

        def counted_build(cache_dir, compiler):
            builds.append(cache_dir)
            return build(cache_dir, compiler)

        monkeypatch.setattr(kernels, "_build_library", counted_build)
        a, b = _strided()
        want = naive_matmul_f32(a, b)
        scan = _scan_inputs()
        want_scan = scan_fallback(*scan)
        conv = _conv_inputs()
        want_conv = kernels._causal_conv_numpy(*conv)
        grid = special_grid()
        with np.errstate(invalid="ignore"):
            want_silu, want_softplus = oracles.silu(grid), oracles.softplus(grid)
        rows, cols = _strided()[0], _strided()[1].T
        want_best = [int(np.argmax([oracles.cosine_similarity(r, c) for c in cols])) for r in rows]
        results = []

        def use(i):
            # The threads reach the library first through one kernel or another.
            calls = [lambda: kernels.matmul(a, b), lambda: kernels.ssm_scan(*scan),
                     lambda: kernels.causal_conv(*conv), lambda: kernels.silu(grid),
                     lambda: kernels.softplus(grid), lambda: kernels.cosine_argmax(rows, cols)]
            with np.errstate(invalid="ignore"):
                got = {j: calls[j]() for j in ((i + step) % 6 for step in range(6))}
            results.append(tuple(got[j] for j in range(6)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=use, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert builds == [tmp_path / "mambapress"]
        assert len(results) == 6
        for out, y, convolved, activated, timescales, best in results:
            assert np.array_equal(out, want)
            assert_same_bits(y, want_scan)
            assert_same_bits(convolved, want_conv)
            assert_same_bits(activated, want_silu)
            assert_same_bits(timescales, want_softplus)
            assert best.tolist() == want_best


def fallback_conv(monkeypatch, x, kernel, reverse=False):
    with monkeypatch.context() as m:
        m.setattr(kernels, "_library", lambda: None)
        return kernels.causal_conv(x, kernel, reverse)


def conv_both_ways(monkeypatch, x, kernel):
    """Run the compiled conv forward and with ``reverse``: each must keep the
    fallback's bits, and ``reverse`` those of flipping the tokens,
    convolving forward and flipping the output back. Returns the forward
    fallback's output."""
    wants = []
    for reverse in (False, True):
        wants.append(fallback_conv(monkeypatch, x, kernel, reverse))
        assert_same_bits(kernels.causal_conv(x, kernel, reverse), wants[-1])
    assert_same_bits(wants[-1], kernels.causal_conv(x[::-1], kernel)[::-1])
    return wants[0]


class TestCompiledConv:
    """The compiled causal conv keeps the bits of the numpy tap loop."""

    @pytest.mark.parametrize("width", [1, 4, 7])
    def test_matches_fallback(self, monkeypatch, width):
        if kernels._library() is None:
            pytest.skip("no compiled library: the numpy fallback is the kernel")
        rng = np.random.default_rng(700 + width)
        for channels in (1, 13, 16, 33, 384):
            for length in (*range(1, width + 1), 29, 197):  # includes L < W
                x = (rng.standard_normal((length, channels))
                     * np.exp2(rng.integers(-30, 30, (length, channels)))).astype(np.float32)
                kernel = rng.standard_normal((channels, width)).astype(np.float32)
                conv_both_ways(monkeypatch, x, kernel)

    @pytest.mark.parametrize("width", [1, 4, 7])
    def test_signed_zeros_and_special_values(self, monkeypatch, width):
        # All-zero windows sum to +0.0 from either zero; a lone -0.0 product
        # added into 0.0 gives +0.0 too. Infinities and NaNs land in the same
        # places on both paths.
        rng = np.random.default_rng(800 + width)
        x = rng.choice(np.array([0.0, -0.0, 1e-41, -3e-39, 1.5, -2.0, np.inf, -np.inf, np.nan],
                                np.float32), size=(40, 19))
        x[:8] = -0.0
        kernel = rng.choice(np.array([0.0, -0.0, 0.5, -3.0, 1e-41], np.float32), size=(19, width))
        with np.errstate(all="ignore"):
            want = conv_both_ways(monkeypatch, x, kernel)
        assert np.isnan(want).any() and (want == 0).any()
        assert not np.signbit(want[:8]).any()

    def test_operand_layouts(self, monkeypatch):
        x, kernel = _conv_inputs()
        want = fallback_conv(monkeypatch, x, kernel)
        assert_same_bits(kernels.causal_conv(np.asfortranarray(x), kernel.T.copy().T), want)
        assert_same_bits(
            kernels.causal_conv(x.astype(np.float64), kernel.astype(np.float64)), want)
        assert kernels.causal_conv(x[:0], kernel).shape == (0, x.shape[1])


def layernorm_rows(rng, d: int) -> np.ndarray:
    """Rows of length d over a wide range of magnitudes, so sums in another
    order round differently, then rows holding -0.0, +-inf and NaN."""
    x = (rng.standard_normal((12, d)) * np.exp2(rng.integers(-20, 20, (12, d)))).astype(np.float32)
    x[0] = -0.0
    x[1, ::2] = -0.0
    x[2, d // 2] = np.inf
    x[3, 0] = -np.inf
    x[4, -1] = np.nan
    x[5, 0], x[5, -1] = np.inf, -np.inf
    return x


class TestCompiledLayernorm:
    """The one-pass layernorm keeps the bits of numpy's chain, whose means sum
    each row in pairwise order."""

    @pytest.mark.parametrize("d", [1, 7, 8, 9, 127, 128, 129, 192, 256, 257])
    def test_matches_numpy_chain(self, d):
        if kernels._library() is None:
            pytest.skip("no compiled library: the numpy chain is the kernel")
        rng = np.random.default_rng(900 + d)
        x = layernorm_rows(rng, d)
        scale = rng.standard_normal(d).astype(np.float32)
        bias = rng.standard_normal(d).astype(np.float32)
        with np.errstate(invalid="ignore"):
            want = kernels._layernorm_numpy(x, scale, bias)
            assert_same_bits(kernels.layernorm(x, scale, bias), want)
        assert np.isnan(want[2:6]).all()

    def test_layouts_and_shapes(self, path):
        rng = np.random.default_rng(950)
        x = layernorm_rows(rng, 129)[6:]
        scale, bias = np.full(129, 1.5, np.float32), rng.standard_normal(129)
        want = kernels.layernorm(x, scale, bias)
        assert_same_bits(kernels.layernorm(np.asfortranarray(x), scale, bias), want)
        assert_same_bits(kernels.layernorm(x.astype(np.float64), scale, bias), want)
        assert_same_bits(kernels.layernorm(x[1], scale, bias), want[1])
        assert kernels.layernorm(x[:0], scale, bias).shape == (0, 129)
        for bad in (np.float32(1.5), np.ones(1, np.float32), np.ones(130, np.float32)):
            with pytest.raises(ValueError, match="layernorm shape mismatch"):
                kernels.layernorm(x, bad, bias)
            with pytest.raises(ValueError, match="layernorm shape mismatch"):
                kernels.layernorm(x, scale, bad)


def gate_chain(z, ys):
    """The block gate as the chain of fresh float32 arrays it replaced."""
    y_sum = ys[0]
    for y in ys[1:]:
        y_sum = y_sum + y
    return oracles.silu(z) * y_sum


class TestGate:
    """The block gate keeps the bits of the add, silu and multiply chain and
    books what the chain books."""

    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_matches_chain(self, path, heads):
        rng = np.random.default_rng(960 + heads)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-41, 90.0, -110.0],
                           np.float32)
        for e in (1, 13, 16, 33, 40):
            length = 21
            uz = (rng.standard_normal((length, 2 * e)) * 6).astype(np.float32)
            uz[:4, e:] = rng.choice(special, (4, e))
            ys = [rng.standard_normal((length, e)).astype(np.float32) for _ in range(heads)]
            ys[-1][5] = rng.choice(special, e)
            z = uz[:, e:]  # strided: the row stride is 2e
            before = uz.copy()
            with np.errstate(invalid="ignore", over="ignore"):
                want = gate_chain(z, ys)
                for operand in (z, np.asfortranarray(z)):
                    with kernels.count_flops() as counter:
                        got = kernels.gate(operand, ys)
                    assert_same_bits(got, want)
                    size = length * e
                    booked = {"add": (heads - 1) * size} if heads > 1 else {}
                    assert dict(counter.by_op) == {**booked, "silu": size, "multiply": size}
                # A negative row stride, read in place too.
                got = kernels.gate(z[::-1], [y[::-1] for y in ys])
                assert_same_bits(got, want[::-1].copy())
            assert_same_bits(uz, before)

    def test_rejects_mismatched_heads(self):
        z = np.zeros((3, 4), np.float32)
        for ys in ([], [np.zeros((3, 4), np.float32), np.zeros((3, 5), np.float32)]):
            with pytest.raises(ValueError, match="gate expects"):
                kernels.gate(z, ys)


def test_merge_fold_rejects_edges_it_cannot_index(path):
    x, weight = np.ones((4, 3), np.float32), np.ones(4, np.int64)
    keep = np.array([True, False, True, True])
    for edges in ([(1, 4)], [(-1, 0)], [(1, 1)], [(1, 0), (3, 1)]):
        with pytest.raises(ValueError, match="rows in range and kept targets"):
            kernels.merge_fold(x, weight, keep, edges)
    with pytest.raises(ValueError, match="shape mismatch"):
        kernels.merge_fold(x[0], weight, keep, [(1, 0)])
    features, merged = kernels.merge_fold(x, weight, keep, [(1, 0)], weighted=False)
    assert features.tolist() == [[1.0] * 3] * 3 and merged.tolist() == [2, 1, 1]


def test_toy_pass_books_the_same_flops_by_op():
    # The FLOPs each op books on a toy pass at ratio 0 and at 40%, as
    # before the scan and the conv moved into C.
    config = ModelConfig(image_size=224, patch_size=16, feat_dim=192, depth=24)
    model = VisionModel.seeded(config, seed=0)
    layers = default_reduction_layers(config.depth)
    image = synthetic_image(config.image_size, seed=5)
    plans = [identity_plan(layers), solve_k(FlopsModel.from_config(config), 0.4, layers)]
    want = [
        {"add": 64489738, "causal_conv": 29048832, "exp": 58097664, "layernorm": 6355776,
         "matmul": 2556006144, "multiply": 183370752, "rowdot": 116195328,
         "silu": 5446656, "softplus": 3631104},
        {"add": 38139082, "causal_conv": 17172480, "exp": 34344960, "layernorm": 3757824,
         "matmul": 1534639872, "multiply": 108401280, "rowdot": 68689920,
         "silu": 3219840, "softplus": 2146560},
    ]
    for plan, by_op in zip(plans, want):
        with kernels.count_flops() as counter:
            model.forward(image, plan, collect_diagnostics=False)
        assert dict(counter.by_op) == by_op


# A function defined at the start of a line, not static: its return type,
# name and parameter list, as ctypes must type it.
C_DEFINITION = re.compile(r"^(?!static\b)(\w+)\s+(\w+)\(([^)]*)\)\s*\{", re.M)
C_TYPES = {"int": ctypes.c_int, "ptrdiff_t": ctypes.c_ssize_t, "float": ctypes.c_float}
# The dtype of the array a C pointer points at, by its pointee with any
# leading const dropped; gate's head table is an array of addresses.
C_POINTEES = {"float": np.float32, "int64_t": np.int64, "unsigned char": np.bool_,
              "ptrdiff_t": np.intp, "float *const": np.uintp}


def test_exports_match_the_ctypes_table():
    """Every exported C definition has the argument and return types that
    kernels._EXPORTS gives ctypes, and every array argument the dtype its
    pointer points at: a call typed otherwise is undefined behaviour, which
    no check of the results need catch. gate's z, read by its row stride,
    is the one raw pointer."""
    exports = {}
    for ret, name, params in C_DEFINITION.findall(kernels._SOURCE.read_text()):
        argtypes = []
        for param in params.replace("restrict", "").split(","):
            ctype, arg = re.fullmatch(r"\s*(.*?)\s*(\w+)", param).groups()
            if (name, arg) == ("gate", "z"):
                argtypes.append(ctypes.c_void_p)
            elif ctype.endswith("*"):
                argtypes.append(np.dtype(C_POINTEES[ctype[:-1].removeprefix("const").strip()]))
            else:
                argtypes.append(C_TYPES[ctype])
        exports[name] = (argtypes, None if ret == "void" else C_TYPES[ret])
    # By repr: a dtype compares equal to the ctypes type of its size.
    assert ({name: repr(types) for name, types in exports.items()}
            == {name: repr(types) for name, types in kernels._EXPORTS.items()})


def test_call_refuses_arrays_it_cannot_pass_raw():
    """_call checks the argument count and each array's dtype and layout
    before the library runs, and names the export."""
    out = np.zeros(16, np.float32)
    x = np.ones(8, np.float32)
    for args in ((x.astype(np.float64), out[:8], 8), (x, out[8:0:-1], 8), (x, out[:8])):
        with pytest.raises(ValueError, match="exp_f32"):
            kernels._call("exp_f32", *args)
    assert out.tobytes() == bytes(out.nbytes)


def test_only_call_takes_array_addresses():
    """In kernels.py only _call reads an array's .ctypes.data, besides gate
    for its strided z and its head table, and each export is called through
    _call once."""
    tree = ast.parse(Path(kernels.__file__).read_text())
    takers, called = set(), []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "data"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "ctypes"):
                takers.add(getattr(top, "name", None))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_call":
                called.append(node.args[0].value)
    assert takers == {"_call", "gate"}
    assert sorted(called) == sorted(kernels._EXPORTS)
