"""Selective state-space blocks with exposed per-token timescales.

One block normalizes its input, projects it into a gated stream pair,
runs one depthwise-convolved selective scan per direction (head), sums the
head outputs, gates, projects back out and adds the residual. Every head's
scan keeps its timescales and its input-dependent B and C in a
:class:`ScanTrace`, so the scoring stage reads them without recomputation.
A head's direction is passed to the two recurrences,
:func:`kernels.causal_conv` and :func:`kernels.ssm_scan`, as ``reverse``;
every other step and array is in original token order. A block writes its
temporaries, traces and output into a :class:`Workspace`, which forward
passes keep per thread so that a warm pass allocates none of them.

The params classes hold their arrays as float32 and check no shape. A
model checks every array once, against the shape tables at its config's
sizes (``model.ModelParams.validate_against``). A block used directly runs
at the sizes its arrays agree on, and the kernels raise ValueError on
operands they cannot combine.
"""

from __future__ import annotations

import math
import threading
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


class Workspace(threading.local):
    """Float32 buffers that one thread's forward passes reuse, by name.

    Each buffer starts on a 64-byte line and is replaced by a larger one only
    when a shape outgrows it, so once the largest layer has run a pass
    allocates none of them. A ``threading.local``: one instance serves every
    thread, each with its own buffers. A buffer keeps what was written to it
    until the next :meth:`take` of its name is written; its users keep the
    lifetimes. The names: "patches", "proj" and a residual buffer for the
    patch embedding; "lane", "uz", "conv", "res0", "res1" and per head
    "y", "delta", "b" and "c" for a block; "head_sum" for scoring;
    "sources", "targets", "squares" and "merged" for a reduction.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous (shape) view of the start of buffer ``name``."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            raw = np.empty(size + 15, dtype=np.float32)
            start = -raw.ctypes.data % 64 // 4
            buf = self._buffers[name] = raw[start : start + size]
        return buf[:size].reshape(shape)

    def residual(self, shape: tuple[int, ...], avoid: np.ndarray | None = None) -> np.ndarray:
        """Whichever of the two residual buffers shares no memory with
        ``avoid``: a block's output never overwrites its input."""
        out = self.take("res0", shape)
        if avoid is not None and np.may_share_memory(out, avoid):
            out = self.take("res1", shape)
        return out


def _width(w: np.ndarray) -> int:
    """A weight's last axis, the width of its product; 0 for a 0-D weight,
    which the kernel that reads it refuses."""
    return w.shape[-1] if w.ndim else 0


def selective_scan(x: np.ndarray, params: SsmHeadParams, out: ScanTrace | None = None) -> ScanTrace:
    """Run one head's input-dependent recurrence over a token sequence.

    Per token: B, C and the timescale are projected from the input, the
    state decays by the discretized factor and absorbs the timescale-scaled
    input through B, and the output reads the state through C plus the
    skip path. Backward heads visit the tokens last to first; ``x`` and the
    trace stay in original token order either way. The trace is written
    into the arrays of ``out`` if given (its y holds the timescales before
    softplus until the scan writes it), else into new ones.
    """
    x = as_f32(x)
    if x.ndim != 2 or len(x) < 1:
        raise ValueError(f"selective_scan needs (L, E) input of at least one token, got {x.shape}")
    y, delta, b, c = (None,) * 4 if out is None else (out.y, out.delta, out.b, out.c)
    pre = kernels.matmul(kernels.matmul(x, params.w_1), params.w_2, out=y)
    delta = kernels.softplus(pre, out=delta)
    # softplus is at least the smallest normal float32 wherever its input is
    # a number, so only a NaN weight or input fails this check.
    if not np.all(delta > 0):
        raise NumericError(f"non-finite timescales in a {params.scan_direction} scan head")
    b = kernels.matmul(x, params.w_b, out=b)  # (L, N)
    c = kernels.matmul(x, params.w_c, out=c)  # (L, N)
    # The scan reads none of pre, so its output takes pre's buffer.
    y = kernels.ssm_scan(delta, params.a, x, b, c, params.skip_d,
                         reverse=params.scan_direction == "backward", out=pre)
    return ScanTrace(y=y, delta=delta, b=b, c=c)


def mamba_block(x: np.ndarray, params: SsmBlockParams,
                ws: Workspace | None = None) -> tuple[np.ndarray, list[ScanTrace]]:
    """Full block: norm, split projection, per-head conv + scan, gate, residual.

    Returns the block output (same shape as x) and one trace per head. The
    depthwise convolution is causal in each head's scan direction: a
    backward head's taps read the tokens after the current one.

    The output, the traces and every temporary of L rows but the (L, R)
    timescale projection are buffers of ``ws``, or of a new
    :class:`Workspace` when it is None, so that the arrays are the
    caller's. The traces hold until the next block runs in ``ws``. The
    output, a residual buffer that never shares memory with x, holds until
    the block after that.
    """
    x = as_f32(x)
    if x.ndim != 2:
        raise ValueError(f"mamba_block needs (L, D) tokens, got shape {x.shape}")
    if _width(params.out_proj) != x.shape[1]:  # the residual add would broadcast it
        raise ValueError(f"out_proj output width {_width(params.out_proj)} "
                         f"!= input width {x.shape[1]}")
    ws = Workspace() if ws is None else ws
    length, e = len(x), _width(params.in_proj) // 2
    # "lane" holds the normed input and then u; "conv" holds each head's
    # conv and silu in turn, and then the gate.
    normed = kernels.layernorm(x, params.norm_scale, params.norm_bias, out=ws.take("lane", x.shape))
    uz = kernels.matmul(normed, params.in_proj, out=ws.take("uz", (length, _width(params.in_proj))))
    # One contiguous copy of u serves every head's conv, which would copy it otherwise.
    u, z = ws.take("lane", (length, e)), uz[:, e:]
    np.copyto(u, uz[:, :e])

    traces: list[ScanTrace] = []
    for j, head in enumerate(params.heads):
        conv = kernels.causal_conv(u, head.conv_kernel, reverse=head.scan_direction == "backward",
                                   out=ws.take("conv", (length, e)))
        n = _width(head.w_b)
        out = ScanTrace(y=ws.take(f"y{j}", (length, e)), delta=ws.take(f"delta{j}", (length, e)),
                        b=ws.take(f"b{j}", (length, n)), c=ws.take(f"c{j}", (length, n)))
        traces.append(selective_scan(kernels.silu(conv, out=conv), head, out))

    gated = kernels.gate(z, [trace.y for trace in traces], out=ws.take("conv", (length, e)))
    res = kernels.matmul(gated, params.out_proj, out=ws.residual(x.shape, avoid=x))
    return kernels.add(x, res, out=res), traces
