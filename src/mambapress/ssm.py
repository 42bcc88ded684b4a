"""Selective state-space blocks with exposed per-token timescales.

One block normalizes its input, projects it into a gated stream pair,
runs one depthwise-convolved selective scan per direction (head), sums the
head outputs, gates, projects back out and adds the residual. Every head's
scan keeps its timescales and its input-dependent B and C in a
:class:`ScanTrace`, so the scoring stage reads them without recomputation.
A head's direction is passed to the two recurrences,
:func:`kernels.causal_conv` and :func:`kernels.ssm_scan`, as ``reverse``;
every other step and array is in original token order.

The params classes hold their arrays as float32 and check no shape. A
model checks every array once, against the shape tables at its config's
sizes (``model.ModelParams.validate_against``). A block used directly runs
at the sizes its arrays agree on, and the kernels raise ValueError on
operands they cannot combine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import NumericError, as_f32

# A block's scan heads, one per direction in this order, and the taps of
# each head's depthwise causal conv.
DIRECTIONS = ("forward", "backward")
CONV_WIDTH = 4

# The weight arrays of a scan head and of a block, in checkpoint file order,
# each with one axis letter per dimension. The letters, here and in
# model.TOP_ARRAYS, are named in AXES and sized by model.ModelConfig.dims.
HEAD_SHAPES = {"a_log": "EN", "w_b": "EN", "w_c": "EN", "w_1": "ER", "w_2": "RE",
               "skip_d": "E", "conv_kernel": "EW"}
BLOCK_SHAPES = {"norm_scale": "D", "norm_bias": "D", "in_proj": "DZ", "out_proj": "ED"}
AXES = {"P": "patch inputs", "D": "feat dim", "E": "inner dim", "Z": "in-projection width",
        "N": "state dim", "R": "timescale rank", "W": "conv width", "C": "classes"}


@dataclass
class SsmHeadParams:
    """Parameters of one directional scan head, cast to float32.

    The state decay matrix is stored as ``a_log`` with A = -exp(a_log), so
    A is strictly negative and the discretized decay lands in (0, 1) for
    any positive timescale. The arrays' shapes are HEAD_SHAPES.
    """

    a_log: np.ndarray  # log of the state decay rates
    w_b: np.ndarray  # input -> per-token B
    w_c: np.ndarray  # input -> per-token C
    w_1: np.ndarray  # low-rank timescale projection, stage 1
    w_2: np.ndarray  # low-rank timescale projection, stage 2
    skip_d: np.ndarray  # pass-through gain on the scan input
    conv_kernel: np.ndarray  # depthwise causal taps, current token last
    scan_direction: str = "forward"
    # Derived once at construction so per-token cost stays linear in L.
    a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in HEAD_SHAPES:
            setattr(self, name, as_f32(getattr(self, name)))
        if self.scan_direction not in DIRECTIONS:
            raise ValueError(f"unknown scan direction {self.scan_direction!r}")
        # The engine's own exp, as the scan uses, into a copy of a_log.
        self.a = -kernels.exp_in_place(np.array(self.a_log, order="C"))


@dataclass
class SsmBlockParams:
    """One block: shared norm and in/out projections plus its scan heads,
    cast to float32. The arrays' shapes are BLOCK_SHAPES."""

    norm_scale: np.ndarray
    norm_bias: np.ndarray
    in_proj: np.ndarray  # -> stream u and gate z
    out_proj: np.ndarray
    heads: list[SsmHeadParams]

    def __post_init__(self) -> None:
        for name in BLOCK_SHAPES:
            setattr(self, name, as_f32(getattr(self, name)))


@dataclass
class ScanTrace:
    """Per-head scan quantities, contiguous and in original token order.

    ``b`` and ``c`` are the input-dependent B and C the recurrence read: for
    the ``x`` given to :func:`selective_scan` they equal ``x @ w_b`` and
    ``x @ w_c`` bitwise, and ``delta`` equals ``softplus(x @ w_1 @ w_2)``,
    whichever direction the head runs.
    """

    y: np.ndarray  # (L, E)
    delta: np.ndarray  # (L, E), strictly positive
    b: np.ndarray  # (L, N)
    c: np.ndarray  # (L, N)


def selective_scan(x: np.ndarray, params: SsmHeadParams) -> ScanTrace:
    """Run one head's input-dependent recurrence over a token sequence.

    Per token: B, C and the timescale are projected from the input, the
    state decays by the discretized factor and absorbs the timescale-scaled
    input through B, and the output reads the state through C plus the
    skip path. Backward heads visit the tokens last to first; ``x`` and the
    trace stay in original token order either way.
    """
    x = as_f32(x)
    if x.ndim != 2 or len(x) < 1:
        raise ValueError(f"selective_scan needs (L, E) input of at least one token, got {x.shape}")
    delta = kernels.softplus(kernels.matmul(kernels.matmul(x, params.w_1), params.w_2))
    # softplus is at least the smallest normal float32 wherever its input is
    # a number, so only a NaN weight or input fails this check.
    if not np.all(delta > 0):
        raise NumericError(f"non-finite timescales in a {params.scan_direction} scan head")
    b = kernels.matmul(x, params.w_b)  # (L, N)
    c = kernels.matmul(x, params.w_c)  # (L, N)
    y = kernels.ssm_scan(delta, params.a, x, b, c, params.skip_d,
                         reverse=params.scan_direction == "backward")
    return ScanTrace(y=y, delta=delta, b=b, c=c)


def mamba_block(x: np.ndarray, params: SsmBlockParams) -> tuple[np.ndarray, list[ScanTrace]]:
    """Full block: norm, split projection, per-head conv + scan, gate, residual.

    Returns the block output (same shape as x) and one trace per head. The
    depthwise convolution is causal in each head's scan direction: a
    backward head's taps read the tokens after the current one.
    """
    x = as_f32(x)
    normed = kernels.layernorm(x, params.norm_scale, params.norm_bias)
    uz = kernels.matmul(normed, params.in_proj)
    e = uz.shape[1] // 2
    # One contiguous copy of u serves every head's conv, which would copy it otherwise.
    u, z = np.ascontiguousarray(uz[:, :e]), uz[:, e:]

    traces: list[ScanTrace] = []
    for head in params.heads:
        conv = kernels.causal_conv(u, head.conv_kernel, reverse=head.scan_direction == "backward")
        traces.append(selective_scan(kernels.silu(conv), head))

    gated = kernels.gate(z, [trace.y for trace in traces])
    out = kernels.matmul(gated, params.out_proj)
    if out.shape != x.shape:  # the residual add would broadcast it
        raise ValueError(f"out_proj output width {out.shape[1]} != input width {x.shape[1]}")
    return kernels.add(x, out), traces
