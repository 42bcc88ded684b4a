"""Selective state-space blocks with exposed per-token timescales.

One block normalizes its input, projects it into a gated stream pair,
runs one depthwise-convolved selective scan per direction (head), sums the
head outputs, gates, projects back out and adds the residual. Every head's
scan keeps its timescales and its input-dependent B and C in a
:class:`ScanTrace`, so the scoring stage reads them without recomputation.
A head's direction is passed to the two recurrences,
:func:`kernels.causal_conv` and :func:`kernels.ssm_scan`, as ``reverse``;
every other step and array is in original token order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import as_f32

# A block's scan heads, one per direction in this order, and the taps of
# each head's depthwise causal conv.
DIRECTIONS = ("forward", "backward")
CONV_WIDTH = 4

# The weight arrays of a scan head and of a block, in checkpoint file order.
HEAD_ARRAYS = ("a_log", "w_b", "w_c", "w_1", "w_2", "skip_d", "conv_kernel")
BLOCK_ARRAYS = ("norm_scale", "norm_bias", "in_proj", "out_proj")


class NumericError(RuntimeError):
    """Raised when a forward pass produces non-finite activations or logits."""


@dataclass
class SsmHeadParams:
    """Parameters of one directional scan head.

    The state decay matrix is stored as ``a_log`` with A = -exp(a_log), so
    A is strictly negative and the discretized decay lands in (0, 1) for
    any positive timescale.
    """

    a_log: np.ndarray  # (E, N)
    w_b: np.ndarray  # (E, N) input -> per-token B
    w_c: np.ndarray  # (E, N) input -> per-token C
    w_1: np.ndarray  # (E, R) low-rank timescale projection, stage 1
    w_2: np.ndarray  # (R, E) low-rank timescale projection, stage 2
    skip_d: np.ndarray  # (E,) pass-through gain on the scan input
    conv_kernel: np.ndarray  # (E, W) depthwise causal taps, current token last
    scan_direction: str = "forward"
    # Derived once at construction so per-token cost stays linear in L.
    a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in HEAD_ARRAYS:
            setattr(self, name, as_f32(getattr(self, name)))
        e, n = self.a_log.shape
        r = self.w_1.shape[1]
        if self.w_b.shape != (e, n) or self.w_c.shape != (e, n):
            raise ValueError(
                f"projection shapes {self.w_b.shape}/{self.w_c.shape} "
                f"inconsistent with state shape {(e, n)}"
            )
        if self.w_1.shape != (e, r) or self.w_2.shape != (r, e):
            raise ValueError(
                f"timescale projections {self.w_1.shape}/{self.w_2.shape} "
                f"inconsistent with feat_dim {e}"
            )
        if self.skip_d.shape != (e,):
            raise ValueError(f"skip vector shape {self.skip_d.shape} != ({e},)")
        if self.conv_kernel.ndim != 2 or self.conv_kernel.shape[0] != e:
            raise ValueError(f"conv kernel shape {self.conv_kernel.shape} != ({e}, W)")
        if self.scan_direction not in DIRECTIONS:
            raise ValueError(f"unknown scan direction {self.scan_direction!r}")
        self.a = -kernels._exp_numpy(self.a_log)  # the engine's own exp, as the scan uses

    @property
    def feat_dim(self) -> int:
        return self.a_log.shape[0]

    @property
    def state_dim(self) -> int:
        return self.a_log.shape[1]

    @property
    def delta_rank(self) -> int:
        return self.w_1.shape[1]


@dataclass
class SsmBlockParams:
    """One block: shared norm and in/out projections plus its scan heads."""

    norm_scale: np.ndarray  # (D,)
    norm_bias: np.ndarray  # (D,)
    in_proj: np.ndarray  # (D, 2E) -> stream u and gate z
    out_proj: np.ndarray  # (E, D)
    heads: list[SsmHeadParams]

    def __post_init__(self) -> None:
        for name in BLOCK_ARRAYS:
            setattr(self, name, as_f32(getattr(self, name)))
        if not self.heads:
            raise ValueError("a block needs at least one scan head")
        d = self.norm_scale.shape[0]
        e = self.out_proj.shape[0]
        if e < d:
            raise ValueError(f"inner dim {e} must be >= feat dim {d}")
        if self.in_proj.shape != (d, 2 * e):
            raise ValueError(f"in_proj shape {self.in_proj.shape} != ({d}, {2 * e})")
        if self.out_proj.shape != (e, d):
            raise ValueError(f"out_proj shape {self.out_proj.shape} != ({e}, {d})")
        for head in self.heads:
            if head.feat_dim != e:
                raise ValueError(
                    f"head feat_dim {head.feat_dim} inconsistent with block inner dim {e}"
                )

    @property
    def feat_dim(self) -> int:
        return self.norm_scale.shape[0]

    @property
    def inner_dim(self) -> int:
        return self.out_proj.shape[0]


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
    if x.ndim != 2 or x.shape[1] != params.feat_dim:
        raise ValueError(
            f"scan input shape {x.shape} inconsistent with feat_dim {params.feat_dim}"
        )
    length = x.shape[0]
    if length < 1:
        raise ValueError("selective_scan needs at least one token")
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
    if x.ndim != 2 or x.shape[1] != params.feat_dim:
        raise ValueError(
            f"block input shape {x.shape} inconsistent with feat_dim {params.feat_dim}"
        )
    e = params.inner_dim
    normed = kernels.layernorm(x, params.norm_scale, params.norm_bias)
    uz = kernels.matmul(normed, params.in_proj)
    # One contiguous copy of u serves every head's conv, which would copy it otherwise.
    u, z = np.ascontiguousarray(uz[:, :e]), uz[:, e:]

    traces: list[ScanTrace] = []
    for head in params.heads:
        conv = kernels.causal_conv(u, head.conv_kernel, reverse=head.scan_direction == "backward")
        traces.append(selective_scan(kernels.silu(conv), head))

    gated = kernels.gate(z, [trace.y for trace in traces])
    out = kernels.matmul(gated, params.out_proj)
    return kernels.add(x, out), traces
