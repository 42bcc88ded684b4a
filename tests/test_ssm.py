"""Scan correctness against an unrolled float64 oracle, plus block contracts."""

import math
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from mambapress import kernels
from mambapress.model import TOP_ARRAYS, ModelConfig, ModelParams, VisionModel, init_params
from mambapress.ssm import (
    BLOCK_SHAPES,
    HEAD_SHAPES,
    NumericError,
    SsmBlockParams,
    SsmHeadParams,
    mamba_block,
    selective_scan,
)
from tests.oracles import decay, discretize, rowdot, scan_states
from tests.test_kernels import assert_same_bits


def random_head(rng, e, n, r, direction="forward", width=4, scale=1.0) -> SsmHeadParams:
    """Plausible random head; scale < 1 keeps outputs in the normalized
    activation regime, where absolute float32 tolerances are meaningful."""
    return SsmHeadParams(
        a_log=np.log(rng.uniform(0.5, 4.0, size=(e, n))).astype(np.float32),
        w_b=(scale * rng.standard_normal((e, n)) / math.sqrt(e)).astype(np.float32),
        w_c=(scale * rng.standard_normal((e, n)) / math.sqrt(e)).astype(np.float32),
        w_1=(scale * rng.standard_normal((e, r)) / math.sqrt(e)).astype(np.float32),
        w_2=(scale * rng.standard_normal((r, e)) / math.sqrt(r)).astype(np.float32),
        skip_d=(scale * rng.standard_normal(e)).astype(np.float32),
        conv_kernel=(scale * rng.standard_normal((e, width)) * 0.5).astype(np.float32),
        scan_direction=direction,
    )


def random_block(rng, d, e, n, r) -> SsmBlockParams:
    return SsmBlockParams(
        norm_scale=np.ones(d, dtype=np.float32),
        norm_bias=np.zeros(d, dtype=np.float32),
        in_proj=(rng.standard_normal((d, 2 * e)) / math.sqrt(d)).astype(np.float32),
        out_proj=(rng.standard_normal((e, d)) / math.sqrt(e)).astype(np.float32),
        heads=[random_head(rng, e, n, r, "forward"), random_head(rng, e, n, r, "backward")],
    )


def scan_oracle(x: np.ndarray, params: SsmHeadParams) -> np.ndarray:
    """Straightforward re-statement of the recurrence in plain numpy.

    Written against the math, not the implementation: dense per-step state
    update with explicitly materialized decay factors, BLAS products and
    numpy reductions. Stays in the engine's float32 regime so differences
    measure implementation order, not precision-regime mismatch.
    """
    xs = x.astype(np.float32)
    if params.scan_direction == "backward":
        xs = xs[::-1]
    a = (-np.exp(params.a_log)).astype(np.float32)
    raw = xs @ params.w_1 @ params.w_2
    delta = np.where(raw > 20.0, raw, np.log1p(np.exp(np.minimum(raw, 20.0)))).astype(np.float32)
    b = xs @ params.w_b
    c = xs @ params.w_c
    e, n = a.shape
    h = np.zeros((e, n), dtype=np.float32)
    ys = []
    for t in range(xs.shape[0]):
        abar = np.exp(delta[t][:, None] * a)
        h = abar * h + (delta[t] * xs[t])[:, None] * b[t][None, :]
        ys.append(h @ c[t] + params.skip_d * xs[t])
    y = np.stack(ys)
    if params.scan_direction == "backward":
        y = y[::-1]
    return y


def compiled_decays(probe, delta, a) -> np.ndarray:
    """The compiled decays exp(delta[t, i] * a[i, j]), (L, E, N): the C
    ``vdecay`` of the rounded products of delta and the rounded
    a * 16/ln 2, which the compiled scan forms in registers."""
    arg = np.ascontiguousarray(delta[:, :, None] * (a * kernels._EXP_SCALE)[None])
    out = np.empty_like(arg)
    probe.probe_vdecay(arg.ctypes.data, out.ctypes.data, arg.size)
    return out


def probe_scan(probe, delta, a, x, b, c, skip, reverse=False):
    """The compiled scan step by step through the probe: y (L, E) and the
    state after each token (L, E, N), both in token order."""
    delta, x, b, c, skip = (np.ascontiguousarray(v, dtype=np.float32)
                            for v in (delta, x, b, c, skip))
    at = np.ascontiguousarray((kernels.as_f32(a) * kernels._EXP_SCALE).T)
    (length, e), n = delta.shape, at.shape[0]
    y = np.empty((length, e), np.float32)
    states = np.empty((length, e, n), np.float32)
    assert probe.probe_scan_states(
        delta.ctypes.data, at.ctypes.data, x.ctypes.data, b.ctypes.data, c.ctypes.data,
        skip.ctypes.data, y.ctypes.data, states.ctypes.data, length, e, n, reverse) == 0
    return y, states


class TestDiscretize:
    """The oracle's discretization, and the compiled decays' bits against it."""

    def test_zero_limit(self):
        a = -np.ones((2, 3), dtype=np.float32)
        delta = np.full((4, 2), 1e-8, dtype=np.float32)
        assert np.allclose(discretize(a, delta), 1.0, atol=1e-6)

    def test_half_life(self):
        a = np.array([[-1.0]], dtype=np.float32)
        delta = np.array([[np.log(2.0)]], dtype=np.float32)
        assert discretize(a, delta)[0, 0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_range_open_unit_interval(self):
        rng = np.random.default_rng(0)
        a = -rng.uniform(0.1, 5.0, size=(4, 3)).astype(np.float32)
        delta = rng.uniform(0.01, 3.0, size=(6, 4)).astype(np.float32)
        abar = discretize(a, delta)
        assert np.all(abar > 0.0) and np.all(abar < 1.0)

    def test_bits_of_exp_of_product(self, probe):
        # The compiled decays are computed in registers; the bits are those
        # of the pinned exp's decay front end over the rounded product of
        # delta and the rounded a * 16/ln 2.
        rng = np.random.default_rng(1)
        a = -rng.uniform(0.1, 5.0, size=(37, 16)).astype(np.float32)
        delta = rng.uniform(0.01, 3.0, size=(29, 37)).astype(np.float32)
        want = kernels._decay_numpy(delta[:, :, None] * (a * kernels._EXP_SCALE)[None, :, :])
        assert np.array_equal(discretize(a, delta).view(np.uint32), want.view(np.uint32))
        if probe is not None:
            got = compiled_decays(probe, delta, a)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_rejects_nonpositive_delta(self):
        rng = np.random.default_rng(2)
        params = random_head(rng, e=3, n=2, r=1)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                discretize(params.a, np.full((2, 3), bad, dtype=np.float32))
        # A NaN timescale comes from a NaN weight or input: a numeric failure.
        params.w_1[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite timescales"):
            selective_scan(x, params)


class TestSelectiveScan:
    def test_contrived_geometric_accumulation(self):
        # Unit input, decay 1/2, unit injection, unit readout:
        # h follows h' = h/2 + 1, so y = 1, 1.5, 1.75.
        softplus_inv_one = math.log(math.e - 1.0)
        params = SsmHeadParams(
            a_log=np.array([[math.log(math.log(2.0))]], dtype=np.float32),
            w_b=np.array([[1.0]], dtype=np.float32),
            w_c=np.array([[1.0]], dtype=np.float32),
            w_1=np.array([[softplus_inv_one]], dtype=np.float32),
            w_2=np.array([[1.0]], dtype=np.float32),
            skip_d=np.array([0.0], dtype=np.float32),
            conv_kernel=np.zeros((1, 4), dtype=np.float32),
        )
        x = np.ones((3, 1), dtype=np.float32)
        trace = selective_scan(x, params)
        assert np.allclose(trace.y[:, 0], [1.0, 1.5, 1.75], atol=1e-5)
        assert np.allclose(trace.delta, 1.0, atol=1e-5)

    def test_zero_input(self):
        rng = np.random.default_rng(1)
        params = random_head(rng, e=3, n=2, r=1)
        trace = selective_scan(np.zeros((5, 3), dtype=np.float32), params)
        assert np.array_equal(trace.y, np.zeros((5, 3), dtype=np.float32))
        assert np.allclose(trace.delta, np.log(2.0), atol=1e-6)

    def test_matches_unrolled_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            e, n = rng.integers(1, 9), rng.integers(1, 5)
            length = rng.integers(1, 13)
            direction = "forward" if trial % 2 == 0 else "backward"
            params = random_head(rng, e, n, rng.integers(1, 4), direction, scale=0.5)
            x = rng.standard_normal((length, e)).astype(np.float32)
            got = selective_scan(x, params).y
            want = scan_oracle(x, params)
            assert np.max(np.abs(got - want.astype(np.float32))) < 1e-5

    def test_backward_is_reversed_forward(self):
        rng = np.random.default_rng(3)
        bwd = random_head(rng, e=4, n=3, r=2, direction="backward")
        fwd = SsmHeadParams(
            a_log=bwd.a_log, w_b=bwd.w_b, w_c=bwd.w_c, w_1=bwd.w_1, w_2=bwd.w_2,
            skip_d=bwd.skip_d, conv_kernel=bwd.conv_kernel, scan_direction="forward",
        )
        x = rng.standard_normal((7, 4)).astype(np.float32)
        got = selective_scan(x, bwd)
        via_reverse = selective_scan(np.ascontiguousarray(x[::-1]), fwd)
        for name in ("y", "delta", "b", "c"):
            assert_same_bits(getattr(got, name), getattr(via_reverse, name)[::-1])
            # The trace is the kernels' own arrays in token order, not reversed views.
            assert getattr(got, name).flags.c_contiguous, name

    def test_delta_recomputes_bitwise_from_scan_input(self, monkeypatch):
        # The trace's timescales, B and C are the scan input's projections,
        # row for row, in either direction; on the compiled path and on the
        # numpy fallback.
        rng = np.random.default_rng(4)
        for compiled in (True, False):
            with monkeypatch.context() as m:
                if not compiled:
                    m.setattr(kernels, "_library", lambda: None)
                for direction in ("forward", "backward"):
                    params = random_head(rng, e=5, n=3, r=2, direction=direction)
                    x = rng.standard_normal((6, 5)).astype(np.float32)
                    trace = selective_scan(x, params)
                    recomputed = kernels.softplus(
                        kernels.matmul(kernels.matmul(x, params.w_1), params.w_2)
                    )
                    assert_same_bits(trace.delta, recomputed)
                    assert np.all(trace.delta > 0.0)
                    assert_same_bits(trace.b, kernels.matmul(x, params.w_b))
                    assert_same_bits(trace.c, kernels.matmul(x, params.w_c))

    def test_state_contracts_after_inputs_stop(self):
        rng = np.random.default_rng(5)
        params = random_head(rng, e=3, n=2, r=1)
        x = rng.standard_normal((20, 3)).astype(np.float32)
        x[6:] = 0.0
        trace = selective_scan(x, params)
        states = scan_states(trace.delta, params.a, x, trace.b)
        norms = [np.linalg.norm(states[t]) for t in range(20)]
        for t in range(7, 20):
            assert norms[t] < norms[t - 1] or norms[t] == 0.0
        assert norms[-1] < 0.5 * norms[6]

    def test_shape_mismatch(self):
        rng = np.random.default_rng(6)
        params = random_head(rng, e=4, n=2, r=1)
        with pytest.raises(ValueError, match="shape mismatch"):
            selective_scan(np.zeros((5, 3), dtype=np.float32), params)


# A depth-2 model whose blocks are random_block(d=4, e=8, n=2, r=1).
SHAPES_CONFIG = ModelConfig(8, 4, 4, 2, expand=2, state_dim=2, delta_rank=1, class_count=3)


def with_entry(params: ModelParams, entry: str, arr) -> ModelParams:
    """A copy of ``params`` with the array of checkpoint entry ``entry``
    replaced, its head and block rebuilt."""
    parts = entry.split(".")
    if parts[0] != "blocks":
        name = next(n for n, (e, _) in TOP_ARRAYS.items() if e == entry)
        return replace(params, **{name: arr})
    blocks = list(params.blocks)
    block = blocks[int(parts[1])]
    if parts[2] == "heads":
        heads = list(block.heads)
        heads[int(parts[3])] = replace(heads[int(parts[3])], **{parts[4]: arr})
        block = replace(block, heads=heads)
    else:
        block = replace(block, **{parts[2]: arr})
    blocks[int(parts[1])] = block
    return replace(params, blocks=blocks)


def longer_axes(arr: np.ndarray) -> list[np.ndarray]:
    """One array per axis of ``arr``, that axis one longer."""
    return [np.ones(arr.shape[:i] + (arr.shape[i] + 1,) + arr.shape[i + 1:], np.float32)
            for i in range(arr.ndim)]


class TestParamShapes:
    """A model checks each array's rank and sizes once, at construction, at
    its config's sizes, and names a wrong one as its checkpoint entry. The
    params classes check none."""

    @pytest.mark.parametrize("name", list(HEAD_SHAPES))
    def test_head_rejects_a_scalar(self, name):
        params = init_params(SHAPES_CONFIG)
        entry = f"blocks.1.heads.1.{name}"
        with pytest.raises(ValueError, match=f"^{re.escape(entry)} shape \\(\\)"):
            VisionModel(SHAPES_CONFIG, with_entry(params, entry, np.float32(1.0)))

    @pytest.mark.parametrize("name", list(BLOCK_SHAPES))
    def test_block_rejects_a_scalar(self, name):
        params = init_params(SHAPES_CONFIG)
        entry = f"blocks.1.{name}"
        with pytest.raises(ValueError, match=f"^{re.escape(entry)} shape \\(\\)"):
            VisionModel(SHAPES_CONFIG, with_entry(params, entry, np.float32(1.0)))

    def test_block_checks_its_heads_at_its_sizes(self):
        rng = np.random.default_rng(9)
        params = init_params(SHAPES_CONFIG)
        block = random_block(rng, d=4, e=8, n=2, r=1)
        block.heads[1] = random_head(rng, e=6, n=2, r=1, direction="backward")
        params.blocks[0] = block
        with pytest.raises(ValueError, match=r"^blocks\.0\.heads\.1\.a_log shape \(6, 2\) "
                                             r"!= \(inner dim 8, state dim 2\)"):
            VisionModel(SHAPES_CONFIG, params)

    def test_block_in_projection_is_twice_the_inner_dim(self):
        params = init_params(SHAPES_CONFIG)
        narrow = params.blocks[0].in_proj[:, :14]
        with pytest.raises(ValueError, match=r"in_proj shape \(4, 14\) != "
                                             r"\(feat dim 4, in-projection width 16\)"):
            VisionModel(SHAPES_CONFIG, with_entry(params, "blocks.0.in_proj", narrow))

    def test_longer_axes_and_top_arrays_are_named(self, path):
        # Each array one longer on each axis, and each top array at 0-D.
        params = init_params(SHAPES_CONFIG)
        cases = [(entry, bad) for entry, _, arr in params.arrays()
                 for bad in longer_axes(arr)]
        cases += [(entry, np.float32(0.5)) for entry, _ in TOP_ARRAYS.values()]
        failures = []
        for entry, bad in cases:
            try:
                VisionModel(SHAPES_CONFIG, with_entry(params, entry, bad))
                failures.append((entry, bad.shape, "accepted"))
            except ValueError as err:
                if not str(err).startswith(f"{entry} shape {bad.shape} != ("):
                    failures.append((entry, bad.shape, str(err)))
        assert len(cases) == 9 + 2 * 32 + 7  # top axes, each block's axes, top arrays
        assert failures == []

    @pytest.mark.parametrize("kind", ["0-D", "first axis longer"])
    @pytest.mark.parametrize("name", list(BLOCK_SHAPES) + [f"heads.1.{n}" for n in HEAD_SHAPES])
    def test_block_used_directly_fails_in_a_kernel(self, path, name, kind):
        # Without a model to check it, a malformed array reaches the kernel
        # that reads it, which raises ValueError: no IndexError, no output.
        rng = np.random.default_rng(12)
        params = init_params(SHAPES_CONFIG)
        arr = next(a for e, _, a in params.arrays() if e == f"blocks.0.{name}")
        bad = np.float32(0.5) if kind == "0-D" else longer_axes(arr)[0]
        block = with_entry(params, f"blocks.0.{name}", bad).blocks[0]
        x = rng.standard_normal((5, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            mamba_block(x, block)

    def test_block_with_a_one_column_out_proj_raises(self, path):
        # The residual add broadcasts: a (L, 1) projection would be spread
        # over every feature and the block would return (L, D).
        params = init_params(SHAPES_CONFIG)
        out_proj = params.blocks[0].out_proj[:, :1]
        block = with_entry(params, "blocks.0.out_proj", out_proj).blocks[0]
        x = np.random.default_rng(13).standard_normal((5, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="out_proj output width 1 != input width 4"):
            mamba_block(x, block)


def scan_inputs(rng, length, e, n, special=False):
    """Random (delta, a, x, b, c, skip) for kernels.ssm_scan; ``special``
    plants signed zeros, denormals and infinities in every operand."""
    delta = rng.uniform(0.01, 3.0, (length, e)).astype(np.float32)
    a = -rng.uniform(0.1, 5.0, (e, n)).astype(np.float32)
    x = rng.standard_normal((length, e)).astype(np.float32)
    b = rng.standard_normal((length, n)) * np.exp2(rng.integers(-20, 20, (length, n)))
    b = b.astype(np.float32)
    c = rng.standard_normal((length, n)).astype(np.float32)
    skip = rng.standard_normal(e).astype(np.float32)
    inputs = (delta, a, x, b, c, skip)
    if special:
        values = np.array([0.0, -0.0, 1e-41, -3e-39, np.inf, -np.inf], np.float32)
        for arr in inputs:
            flat = arr.reshape(-1)
            count = min(flat.size, max(1, 4 * length * flat.size // (length * e)))
            spots = rng.choice(flat.size, size=count, replace=False)
            flat[spots] = rng.choice(values, len(spots))
    return inputs


def relayout(arrays, layout):
    """Equal values in another memory layout: a transposed copy's transpose,
    a strided view, or float64. A vector has no transpose: it is strided."""
    out = []
    for arr in arrays:
        if layout == "transposed" and arr.ndim > 1:
            out.append(np.ascontiguousarray(arr.T).T)
        elif layout in ("transposed", "strided"):
            wide = np.zeros((*arr.shape[:-1], 2 * arr.shape[-1]), np.float32)
            wide[..., 1::2] = arr
            out.append(wide[..., 1::2])
        else:
            out.append(arr.astype(np.float64))
        assert not out[-1].flags.c_contiguous or out[-1].dtype != np.float32
    return out


def fallback_scan(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(kernels, "_library", lambda: None)
        return kernels.ssm_scan(*args, **kwargs)


def scan_both_ways(monkeypatch, inputs, probe=None):
    """Run the compiled scan forward and with ``reverse``: each must keep the
    fallback's bits, and ``reverse`` those of flipping the tokens, scanning
    forward and flipping y back. With ``probe``, the compiled states after
    each token must keep the bits of the states oracle both ways, and the
    probe's y those of the scan. Returns the forward fallback's y and, with
    ``probe``, the forward states, else ``None``."""
    delta, a, x, b, c, skip = inputs
    wants, states = [], []
    for reverse in (False, True):
        y = kernels.ssm_scan(*inputs, reverse=reverse)
        wants.append(fallback_scan(monkeypatch, *inputs, reverse=reverse))
        assert_same_bits(y, wants[-1])
        if probe is not None:
            probe_y, got = probe_scan(probe, *inputs, reverse=reverse)
            assert_same_bits(probe_y, y)
            assert_same_bits(got, scan_states(delta, a, x, b, reverse))
            states.append(got)
    flipped_y = kernels.ssm_scan(delta[::-1], a, x[::-1], b[::-1], c[::-1], skip)
    assert_same_bits(y, flipped_y[::-1])
    return wants[0], states[0] if states else None


def needs_compiled_scan():
    if kernels._library() is None:
        pytest.skip("no compiled library: the numpy fallback is the kernel")


STATE_DIMS = [*range(1, 21), 64, 128, 129, 200, 256, 300]


def test_rowdot_matches_einsum():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((8, 5)).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    assert np.allclose(rowdot(a, b), np.einsum("ij,j->i", a, b), atol=1e-6)


class TestCompiledScan:
    """The compiled scan keeps the bits of the numpy fallback."""

    @pytest.mark.parametrize("n", STATE_DIMS)
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_selective_scan_matches_fallback(self, monkeypatch, n, direction):
        needs_compiled_scan()
        rng = np.random.default_rng(100 + n)
        for e in (13, 33):  # one partial channel block; two full blocks and a partial one
            params = random_head(rng, e=e, n=n, r=3, direction=direction)
            for length in (1, 300):
                x = rng.standard_normal((length, e)).astype(np.float32)
                got = selective_scan(x, params)
                with monkeypatch.context() as m:
                    m.setattr(kernels, "_library", lambda: None)
                    want = selective_scan(x, params)
                assert_same_bits(got.y, want.y)

    @pytest.mark.parametrize("n", STATE_DIMS)
    def test_kernel_matches_fallback_on_grid(self, monkeypatch, probe, n):
        # Channel counts below, at and beyond one 16-lane block and the toy
        # width. Grid points above 2**24 state elements are left out to bound
        # memory (the numpy fallback holds two such arrays); E = 384 still
        # runs at L = 1 and 29 for them. The states after each token are
        # compared up to 2**22 elements.
        needs_compiled_scan()
        rng = np.random.default_rng(600 + n)
        for e in (1, 13, 16, 17, 33, 384):
            for length in (1, 29, 300):
                if length * e * n > 2**24:
                    continue
                inputs = scan_inputs(rng, length, e, n)
                scan_both_ways(monkeypatch, inputs, probe if length * e * n <= 2**22 else None)

    @pytest.mark.parametrize("n", [1, 4, 7, 8, 16, 19, 129])
    def test_signed_zeros_denormals_and_infinities(self, monkeypatch, probe, n):
        needs_compiled_scan()
        rng = np.random.default_rng(200 + n)
        for e in (11, 37):
            inputs = scan_inputs(rng, 40, e, n, special=True)
            with np.errstate(all="ignore"):
                want_y, states = scan_both_ways(monkeypatch, inputs, probe)
            assert np.isnan(want_y).any() and np.isinf(states).any()

    @pytest.mark.parametrize("n", [1, 4, 16, 17])
    def test_decays_beyond_the_exp_clamp(self, monkeypatch, probe, n):
        # The decays' argument is delta * (a * 16/ln 2). Below -2016.5 it
        # decays to 0, below -2032 it is clamped, and above 0 it decays to 1.
        # On every fourth token (delta 1) it sits on and next to -2016.5 and
        # -2032: the two a values below scale to exactly those.
        needs_compiled_scan()
        rng = np.random.default_rng(900 + n)
        edges = [np.float32(-87.3582077), np.float32(-88.0296936)]
        near = [np.nextafter(v, np.float32(d)) for v in edges for d in (-np.inf, np.inf)]
        a_values = np.array([*edges, *near, -500.0, -60.0, -1.0, 30.0, 200.0], np.float32)
        for e in (13, 33):
            delta, _, x, b, c, skip = scan_inputs(rng, 40, e, n)
            a = np.resize(rng.permutation(a_values), (e, n))
            delta[::4] = 1.0
            with np.errstate(all="ignore"):
                scan_both_ways(monkeypatch, (delta, a, x, b, c, skip), probe)
                arg = delta[:, :, None] * (a * kernels._EXP_SCALE)
            for edge in (-2016.5, -2032.0):
                assert (arg == edge).any() and (arg < edge).any()
            assert (arg > 0).any()

    @pytest.mark.parametrize("n", [1, 4, 16, 17])
    def test_nans_and_infinities_in_delta_and_a(self, monkeypatch, probe, n):
        # Quiet and signalling NaNs of both signs, with and without a
        # payload, and both infinities reach the in-register exp through
        # delta and a; row 0 and state 0 hold only these values. NaN
        # payloads are not compared, NaN positions are.
        needs_compiled_scan()
        rng = np.random.default_rng(950 + n)
        nans = np.array([0x7FC00000, 0xFFC00000, 0x7FC12345, 0x7F800001, 0xFF800001,
                         0x7FA00000, 0xFFBFFFFF], np.uint32).view(np.float32)
        values = np.concatenate([nans, np.array([np.inf, -np.inf], np.float32)])
        for e in (13, 33):
            delta, a, x, b, c, skip = scan_inputs(rng, 40, e, n)
            for arr in (delta, a):
                flat = arr.reshape(-1)
                spots = rng.choice(flat.size, size=flat.size // 4, replace=False)
                flat[spots] = np.resize(values, len(spots))
            delta[0] = np.resize(rng.permutation(values), e)
            a[:, 0] = np.resize(rng.permutation(values), e)
            with np.errstate(all="ignore"):
                want_y, states = scan_both_ways(monkeypatch, (delta, a, x, b, c, skip), probe)
                product = delta[:, :, None] * a
            assert np.isnan(product).any() and np.isinf(product).any()
            assert (product == np.inf).any() and (product == -np.inf).any()
            assert np.isnan(want_y).any() and np.isnan(states).any()

    def test_hidden_layout_is_token_channel_state(self, probe):
        # State j of channel i after token t sits at states[t, i, j] of the
        # probe's copy, and the last state reads out the last output.
        needs_compiled_scan()
        inputs = scan_inputs(np.random.default_rng(15), 6, 19, 3)
        y, states = probe_scan(probe, *inputs)
        delta, a, x, b, c, skip = inputs
        h = np.zeros((19, 3), np.float32)
        for t in range(6):
            abar = kernels._decay_numpy(delta[t][:, None] * (a * kernels._EXP_SCALE))
            h = abar * h + (delta[t] * x[t])[:, None] * b[t]
            assert_same_bits(states[t], h)
        assert_same_bits(y[-1], rowdot(h, c[-1]) + skip * x[-1])

    def test_shape_mismatch(self):
        delta, a, x, b, c, skip = scan_inputs(np.random.default_rng(8), 5, 3, 4)
        with pytest.raises(ValueError, match="ssm_scan shape mismatch"):
            kernels.ssm_scan(delta, a, x, b, c[:4], skip)
        with pytest.raises(ValueError, match="ssm_scan shape mismatch"):
            kernels.ssm_scan(delta, a[:2], x, b, c, skip)
        with pytest.raises(ValueError, match="ssm_scan shape mismatch"):
            kernels.ssm_scan(delta, a, x, b, c, skip[:2])
        with pytest.raises(ValueError, match=r"\(L, E\)"):
            kernels.ssm_scan(delta[0], a, x, b, c, skip)
        assert kernels.ssm_scan(delta[:0], a, x[:0], b[:0], c[:0], skip).shape == (0, 3)

    def test_flops_by_op_same_on_both_paths(self, monkeypatch):
        rng = np.random.default_rng(9)
        params = random_head(rng, e=6, n=5, r=2, direction="backward")
        x = rng.standard_normal((17, 6)).astype(np.float32)
        with kernels.count_flops() as compiled:
            selective_scan(x, params)
        monkeypatch.setattr(kernels, "_library", lambda: None)
        with kernels.count_flops() as fallback:
            selective_scan(x, params)
        assert compiled.by_op == fallback.by_op
        with kernels.count_flops() as alone:
            kernels.ssm_scan(*scan_inputs(rng, 17, 6, 5))
        size, rows = 17 * 6 * 5, 17 * 6
        assert alone.by_op == {"multiply": 3 * size + 2 * rows, "exp": size,
                               "add": size + rows, "rowdot": 2 * size}

    @pytest.mark.parametrize("n", STATE_DIMS)
    def test_readout_order_is_rowdot(self, n):
        # With a = -inf every decay is exp(-inf) = 0, so every token starts
        # afresh, h[t] = x[t, :, None] * b[t] (delta = 1), and y[t] must be
        # rowdot(h[t], c[t]) + skip * x[t] bit for bit. Wide exponents make
        # the summation order visible. Tokens 0 and 40 have b = 0 and c < 0:
        # every product is -0.0, so the readout sums to -0.0, and with
        # skip = -0.0 only the (0 + readout) step makes y = +0.0, as rowdot does.
        needs_compiled_scan()
        rng = np.random.default_rng(300 + n)
        length, e = 64, 9
        b = rng.standard_normal((length, n)) * np.exp2(rng.integers(-24, 24, (length, n)))
        b = b.astype(np.float32)
        c = rng.standard_normal((length, n)).astype(np.float32)
        x = np.exp2(rng.integers(-3, 3, (length, e))).astype(np.float32)
        skip = np.full(e, -0.0, np.float32)
        for t in (0, 40):
            b[t], c[t] = 0.0, -1.0 - np.abs(c[t])
        y = kernels.ssm_scan(np.ones((length, e), np.float32),
                                np.full((e, n), -np.inf, np.float32), x, b, c, skip)
        h = x[:, :, None] * b[:, None, :]
        want = np.stack([rowdot(h[t], c[t]) + skip * x[t] for t in range(length)])
        assert_same_bits(y, want)
        assert not np.signbit(y[[0, 40]]).any()
        if n >= 8:  # the data tells numpy's pairwise order from a plain running sum
            running = np.cumsum(h * c[:, None, :], axis=2, dtype=np.float32)[:, :, -1]
            assert not np.array_equal(y, running)

    @pytest.mark.parametrize("layout", ["transposed", "strided", "float64"])
    def test_operand_layouts(self, monkeypatch, layout):
        # Each operand is converted to contiguous float32 before the kernel
        # reads it through a raw pointer.
        inputs = scan_inputs(np.random.default_rng(11), 23, 7, 16)
        want = fallback_scan(monkeypatch, *inputs)
        assert_same_bits(kernels.ssm_scan(*relayout(inputs, layout)), want)

    def test_concurrent_scans_keep_the_bits(self, monkeypatch):
        rng = np.random.default_rng(10)
        jobs = [scan_inputs(rng, 200, 40, 16) for _ in range(2)]
        want = [fallback_scan(monkeypatch, *job) for job in jobs]
        results: dict[int, list] = {0: [], 1: []}

        def run(i):
            for _ in range(10):
                results[i].append(kernels.ssm_scan(*jobs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(2):
            assert len(results[i]) == 10
            for y in results[i]:
                assert_same_bits(y, want[i])


def decay_inputs(rng, length, e, n, special=False):
    """Random (delta, a) for the decays; ``special`` plants signed zeros,
    denormals, values whose products fall below the decays' clamp or above
    0, and -inf in ``a``; no NaN in ``a``, and no non-finite timescale."""
    delta = rng.uniform(0.01, 3.0, (length, e)).astype(np.float32)
    a = -rng.uniform(0.1, 5.0, (e, n)).astype(np.float32)
    if special:
        planted = {0.0, -0.0, 1e-41, -3e-39}
        for arr, extra in ((delta, {200.0}), (a, {-np.inf, 50.0, np.inf})):
            values = np.array(sorted(planted | extra), np.float32)
            flat = arr.reshape(-1)
            spots = rng.choice(flat.size, size=max(len(values), flat.size // 3), replace=False)
            flat[spots] = np.resize(values, len(spots))  # every value at least once
        delta[0] = -0.0  # meets a's -inf: a NaN decay
    return delta, a


class TestDecayKernel:
    """The compiled scan's decays keep the bits of the oracle's broadcast
    multiply and the decay front end's numpy twin."""

    @pytest.mark.parametrize("n", [1, 4, 16, 17])
    @pytest.mark.parametrize("length", [1, 29])
    def test_matches_fallback_and_numpy(self, probe, n, length):
        needs_compiled_scan()
        delta, a = decay_inputs(np.random.default_rng(400 + n), length, 13, n)
        want = kernels._decay_numpy(delta[:, :, None] * (a * kernels._EXP_SCALE)[None])
        assert_same_bits(compiled_decays(probe, delta, a), want)
        assert_same_bits(decay(delta, a), want)
        assert_same_bits(discretize(a, delta), want)

    @pytest.mark.parametrize("n", [1, 4, 16, 17])
    def test_signed_zeros_denormals_infinities_and_nans(self, probe, n):
        needs_compiled_scan()
        delta, a = decay_inputs(np.random.default_rng(500 + n), 31, 13, n, special=True)
        with np.errstate(all="ignore"):
            product = delta[:, :, None] * (a * kernels._EXP_SCALE)[None]
            want = kernels._decay_numpy(product)
            got = compiled_decays(probe, delta, a)
            oracle = decay(delta, a)
        assert np.isnan(want).any() and (want == 0).any()
        assert (product < -2032).any() and (product > 0).any()
        assert np.all(want[product > 0] == 1) and np.all(want[product < -2032] == 0)
        assert (np.signbit(product) & (product == 0)).any()
        assert ((product != 0) & (np.abs(product) < np.finfo(np.float32).tiny)).any()
        assert_same_bits(got, want)
        assert_same_bits(oracle, want)

    def test_flops_by_op_same_on_both_paths(self, monkeypatch):
        # The decays book multiply L*E*N and exp L*E*N inside the scan, on
        # either path.
        inputs = scan_inputs(np.random.default_rng(13), 17, 6, 5)
        with kernels.count_flops() as compiled:
            kernels.ssm_scan(*inputs)
        with kernels.count_flops() as fallback:
            fallback_scan(monkeypatch, *inputs)
        assert compiled.by_op == fallback.by_op
        assert compiled.by_op["exp"] == 17 * 6 * 5

    def test_shapes(self):
        delta, a = decay_inputs(np.random.default_rng(14), 3, 4, 5)
        assert decay(delta[:0], a).shape == (0, 4, 5)
        with pytest.raises(ValueError, match="decay shape mismatch"):
            decay(delta, a[:3])
        with pytest.raises(ValueError, match="decay shape mismatch"):
            decay(delta[0], a)


class TestMambaBlock:
    def test_all_zero_weights_is_residual_identity(self):
        d, e = 4, 8
        zero_heads = [
            SsmHeadParams(
                a_log=np.zeros((e, 2), np.float32),
                w_b=np.zeros((e, 2), np.float32),
                w_c=np.zeros((e, 2), np.float32),
                w_1=np.zeros((e, 1), np.float32),
                w_2=np.zeros((1, e), np.float32),
                skip_d=np.zeros(e, np.float32),
                conv_kernel=np.zeros((e, 4), np.float32),
                scan_direction=direction,
            )
            for direction in ("forward", "backward")
        ]
        params = SsmBlockParams(
            norm_scale=np.ones(d, np.float32),
            norm_bias=np.zeros(d, np.float32),
            in_proj=np.zeros((d, 2 * e), np.float32),
            out_proj=np.zeros((e, d), np.float32),
            heads=zero_heads,
        )
        x = np.random.default_rng(7).standard_normal((6, d)).astype(np.float32)
        y, _ = mamba_block(x, params)
        assert np.array_equal(y, x)

    def test_zero_out_proj_is_residual_identity(self):
        rng = np.random.default_rng(8)
        params = random_block(rng, d=4, e=8, n=3, r=1)
        params.out_proj = np.zeros_like(params.out_proj)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        y, _ = mamba_block(x, params)
        assert np.array_equal(y, x)

    def test_single_token_single_head_matches_manual(self):
        rng = np.random.default_rng(9)
        d, e = 3, 6
        block = random_block(rng, d, e, n=2, r=1)
        block.heads = block.heads[:1]
        x = rng.standard_normal((1, d)).astype(np.float32)
        y, traces = mamba_block(x, block)

        normed = kernels.layernorm(x, block.norm_scale, block.norm_bias)
        uz = kernels.matmul(normed, block.in_proj)
        u, z = uz[:, :e], uz[:, e:]
        act = kernels.silu(kernels.causal_conv(u, block.heads[0].conv_kernel))
        trace = selective_scan(act, block.heads[0])
        manual = x + kernels.matmul(kernels.silu(z) * trace.y, block.out_proj)
        assert np.array_equal(y, manual)
        assert np.array_equal(traces[0].y, trace.y)

    def test_random_two_head_block_finite_positive_delta(self):
        rng = np.random.default_rng(10)
        params = random_block(rng, d=8, e=16, n=4, r=1)
        x = rng.standard_normal((10, 8)).astype(np.float32)
        y, traces = mamba_block(x, params)
        assert np.all(np.isfinite(y))
        assert len(traces) == 2
        for trace in traces:
            assert np.all(trace.delta > 0.0)
            assert trace.y.shape == (10, 16)

    def test_backward_head_conv_is_direction_aligned(self):
        # With a mirror-symmetric input, forward and backward heads built
        # from the same weights must produce mirrored outputs.
        rng = np.random.default_rng(11)
        d, e = 2, 4
        block = random_block(rng, d, e, n=2, r=1)
        fwd = block.heads[0]
        bwd = SsmHeadParams(
            a_log=fwd.a_log, w_b=fwd.w_b, w_c=fwd.w_c, w_1=fwd.w_1, w_2=fwd.w_2,
            skip_d=fwd.skip_d, conv_kernel=fwd.conv_kernel, scan_direction="backward",
        )
        block.heads = [fwd, bwd]
        half = rng.standard_normal((5, d)).astype(np.float32)
        x = np.concatenate([half, half[::-1]], axis=0)
        _, traces = mamba_block(x, block)
        assert np.allclose(traces[0].y, traces[1].y[::-1], atol=1e-6)
