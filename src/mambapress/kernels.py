"""Dense float32 kernels that every other module builds on.

All kernels take and return row-major float32 ndarrays and never mutate
their inputs unless an explicit ``out=`` buffer is passed. The reductions
that feed bit-reproducibility contracts (:func:`matmul` and
:func:`cosine_matrix`) accumulate strictly left to right in float32, so an
independently written scalar loop produces the exact same bits. BLAS is
free to reassociate sums, so it is not used.

The left-to-right matmul is a small C kernel (:data:`_LTR_SOURCE`). On first
use it is compiled with the local ``gcc`` (``-O3 -march=native
-ffp-contract=off``, no fast-math), cached under
``$XDG_CACHE_HOME/mambapress`` (default ``~/.cache/mambapress``) and loaded
through :mod:`ctypes`. The kernel tiles rows and columns only: every output
element still adds k = 0..K-1 in order, a float32 product and then a float32
add, never a fused multiply-add. Where no compiler or cached library is
available, :func:`_ltr_matmul_numpy` does the same arithmetic as a numpy loop
over K. Both give the bits of the scalar triple loop, except that a NaN
output may carry a different payload or sign; where NaNs appear does not
change.

A lightweight FLOP counter can be armed with :func:`count_flops`; while it
is active every kernel called from the same thread or task tallies its cost
under the accounting convention in ``docs/flops_accounting.md``
(multiply-adds count 2, elementwise ops count 1 per element). Similarity
and sorting kernels are bookkeeping for the reduction stage and
deliberately tally nothing.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

import numpy as np

F32 = np.float32

# Smallest positive normal float32; softplus clamps here so its output stays
# strictly positive even where exp() underflows.
_TINY = F32(np.finfo(np.float32).tiny)

# Above this threshold ln(1+e^x) and x agree to < 1e-9 relative error.
SOFTPLUS_CUTOFF = 20.0

# Vectors with a smaller norm are treated as directionless.
NORM_FLOOR = F32(1e-12)


class FlopCounter:
    """Running FLOP tally, grouped by kernel name."""

    def __init__(self) -> None:
        self.total = 0
        self.by_op: Counter[str] = Counter()

    def add(self, op: str, flops: int) -> None:
        self.total += flops
        self.by_op[op] += flops


# A context variable, not a global: a counter armed in one thread must not
# book the kernels that another thread runs at the same time.
_ACTIVE: ContextVar[FlopCounter | None] = ContextVar("mambapress_flops", default=None)


@contextmanager
def count_flops():
    """Arm a FLOP counter for the duration of the ``with`` block.

    Yields the :class:`FlopCounter`; nesting is rejected because a nested
    count would be double-booked.
    """
    if _ACTIVE.get() is not None:
        raise RuntimeError("a FLOP counter is already active")
    counter = FlopCounter()
    token = _ACTIVE.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE.reset(token)


def _tally(op: str, flops: int) -> None:
    counter = _ACTIVE.get()
    if counter is not None:
        counter.add(op, flops)


def as_f32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


_LTR_SOURCE = r"""
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#define VW 16
typedef float vf __attribute__((vector_size(VW * sizeof(float))));
typedef float vfu __attribute__((vector_size(VW * sizeof(float)), aligned(sizeof(float))));

/* One mr x (nv*VW) tile of c. Each element is summed over t = 0..k-1 in
   order, a float32 product then a float32 add (-ffp-contract=off: no FMA). */
static inline __attribute__((always_inline)) void
tile(const float *a, ptrdiff_t k, const float *b, ptrdiff_t ldb,
     float *c, ptrdiff_t ldc, ptrdiff_t ncols, const int mr, const int nv)
{
    vf acc[4][4];
    for (int r = 0; r < mr; r++)
        for (int v = 0; v < nv; v++)
            acc[r][v] = (vf){0};
    for (ptrdiff_t t = 0; t < k; t++) {
        vf bv[4];
        for (int v = 0; v < nv; v++)
            bv[v] = *(const vfu *)(b + t * ldb + v * VW);
        for (int r = 0; r < mr; r++) {
            float ar = a[r * k + t];
            for (int v = 0; v < nv; v++)
                acc[r][v] = acc[r][v] + ar * bv[v];
        }
    }
    for (int r = 0; r < mr; r++) {
        if (ncols == nv * VW) {
            for (int v = 0; v < nv; v++)
                *(vfu *)(c + r * ldc + v * VW) = acc[r][v];
        } else {
            memcpy(c + r * ldc, acc[r], (size_t)ncols * sizeof(float));
        }
    }
}

static void
panel(const float *a, ptrdiff_t m, ptrdiff_t k, const float *b, ptrdiff_t ldb,
      float *c, ptrdiff_t ldc, ptrdiff_t ncols, const int nv)
{
    ptrdiff_t i = 0;
    for (; i + 4 <= m; i += 4)
        tile(a + i * k, k, b, ldb, c + i * ldc, ldc, ncols, 4, nv);
    for (; i < m; i++)
        tile(a + i * k, k, b, ldb, c + i * ldc, ldc, ncols, 1, nv);
}

/* c (m x p) = a (m x k) @ b (k x p), all row-major and contiguous.
   Returns 0, or -1 when the padded tail panel cannot be allocated. */
int ltr_matmul(const float *a, const float *b, float *c,
               ptrdiff_t m, ptrdiff_t k, ptrdiff_t p)
{
    ptrdiff_t j = 0;
    for (; j + 4 * VW <= p; j += 4 * VW)
        panel(a, m, k, b + j, p, c + j, p, 4 * VW, 4);
    for (; j + VW <= p; j += VW)
        panel(a, m, k, b + j, p, c + j, p, VW, 1);
    if (j < p) {
        /* Copy the last < VW columns into a zero-padded k x VW panel. */
        ptrdiff_t rest = p - j;
        float *pad = calloc((size_t)(k > 0 ? k : 1) * VW, sizeof(float));
        if (pad == NULL)
            return -1;
        for (ptrdiff_t t = 0; t < k; t++)
            memcpy(pad + t * VW, b + t * p + j, (size_t)rest * sizeof(float));
        panel(a, m, k, pad, VW, c + j, p, rest, 1);
        free(pad);
    }
    return 0;
}
"""

# -ffp-contract=off keeps every product and add separately rounded; the
# default on some targets would fuse them and change the bits.
_LTR_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

_MATRIX = np.ctypeslib.ndpointer(np.float32, ndim=2, flags="C_CONTIGUOUS")


def _cpu_flags() -> str:
    """The CPU feature line, so a -march=native build is keyed to its CPU."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return ""


def _build_ltr(cache_dir: Path, compiler: str):
    """Compile (or reuse) the C matmul in ``cache_dir``; ``None`` on failure.

    The library is named by a hash of the source, the flags, the compiler
    version and the CPU flags. It is compiled to a temporary file and
    renamed into place, so a process racing on a cold cache never loads a
    half-written library.
    """
    try:
        version = subprocess.run(
            [compiler, "-dumpfullversion"], capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        key = hashlib.sha256(
            "\0".join((_LTR_SOURCE, *_LTR_CFLAGS, version, _cpu_flags())).encode()
        ).hexdigest()[:20]
        lib_path = cache_dir / f"ltr_matmul-{key}.so"
        if not lib_path.exists():
            cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".ltr_matmul-", suffix=".so")
            os.close(fd)
            try:
                subprocess.run(
                    [compiler, *_LTR_CFLAGS, "-x", "c", "-", "-o", tmp],
                    input=_LTR_SOURCE, capture_output=True, text=True,
                    check=True, timeout=120,
                )
                os.replace(tmp, lib_path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(lib_path))
    except (OSError, subprocess.SubprocessError):
        return None
    fn = lib.ltr_matmul
    fn.argtypes = [_MATRIX, _MATRIX, _MATRIX, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_ssize_t]
    fn.restype = ctypes.c_int
    return fn


_UNLOADED = object()
_ltr_compiled = _UNLOADED
_ltr_lock = threading.Lock()


def _compiled_ltr():
    """The compiled kernel, built or loaded on first call; ``None`` if unavailable."""
    global _ltr_compiled
    if _ltr_compiled is _UNLOADED:
        with _ltr_lock:
            if _ltr_compiled is _UNLOADED:
                cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
                _ltr_compiled = _build_ltr(Path(cache) / "mambapress", "gcc")
    return _ltr_compiled


def _ltr_matmul_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, _ = a.shape
    p = b.shape[1]
    acc = np.zeros((m, p), dtype=np.float32)
    if m == 0 or p == 0:
        return acc
    tmp = np.empty((m, p), dtype=np.float32)
    for i in range(a.shape[1]):
        np.multiply(a[:, i, None], b[i, :], out=tmp)
        np.add(acc, tmp, out=acc)
    return acc


def _ltr_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    kernel = _compiled_ltr()
    if kernel is None:
        return _ltr_matmul_numpy(a, b)
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    (m, k), p = a.shape, b.shape[1]
    if b.shape[0] != k:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = np.empty((m, p), dtype=np.float32)
    # ctypes releases the GIL for the call; a, b and out stay referenced here.
    if out.size and kernel(a, b, out, m, k, p) != 0:
        raise MemoryError("ltr_matmul could not allocate its tail panel")
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product with a fixed left-to-right summation order over K.

    The inner dimension is accumulated sequentially in float32, so the
    result is bit-identical to a naive scalar triple loop and reproducible
    across runs and platforms. Cost: 2*M*K*P.
    """
    a = as_f32(a)
    b = as_f32(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    _tally("matmul", 2 * a.shape[0] * a.shape[1] * b.shape[1])
    return _ltr_matmul(a, b)


def softplus(x) -> np.ndarray:
    """Elementwise ln(1+exp(x)) with an overflow-safe linear branch.

    For x > SOFTPLUS_CUTOFF the identity branch returns x directly. The
    result is clamped to the smallest positive normal float32 so it is
    strictly positive for every finite input, even where exp() underflows.
    """
    x = as_f32(x)
    _tally("softplus", x.size)
    cutoff = F32(SOFTPLUS_CUTOFF)
    out = np.log1p(np.exp(np.minimum(x, cutoff)))
    out = np.where(x > cutoff, x, out)
    return np.maximum(out, _TINY)


def silu(x) -> np.ndarray:
    """Elementwise x * sigmoid(x)."""
    x = as_f32(x)
    _tally("silu", x.size)
    with np.errstate(over="ignore"):
        return x / (F32(1.0) + np.exp(-x))


def exp(x) -> np.ndarray:
    x = as_f32(x)
    _tally("exp", x.size)
    return np.exp(x)


def add(a, b, out: np.ndarray | None = None) -> np.ndarray:
    r = np.add(a, b, out=out)
    _tally("add", r.size)
    return r


def multiply(a, b, out: np.ndarray | None = None) -> np.ndarray:
    r = np.multiply(a, b, out=out)
    _tally("multiply", r.size)
    return r


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot product: (M, N) against (N,) -> (M,). Cost 2*M*N."""
    _tally("rowdot", 2 * a.shape[0] * a.shape[1])
    return (a * b).sum(axis=1, dtype=np.float32)


def mean_rows(x: np.ndarray) -> np.ndarray:
    """Column means of a (L, D) matrix. Cost L*D."""
    _tally("mean_rows", x.size)
    return x.mean(axis=0, dtype=np.float32)


def layernorm(x, scale, bias, eps: float = 1e-5) -> np.ndarray:
    """Row-wise layer normalization. Cost convention: 7 per element."""
    x = as_f32(x)
    _tally("layernorm", 7 * x.size)
    mean = x.mean(axis=-1, keepdims=True, dtype=np.float32)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True, dtype=np.float32)
    inv = F32(1.0) / np.sqrt(var + F32(eps))
    return centered * inv * as_f32(scale) + as_f32(bias)


def causal_conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Depthwise causal convolution along the sequence axis.

    out[t, e] = sum_j kernel[e, j] * x[t - (W-1) + j, e], zero-padded before
    the sequence start; tap j = W-1 multiplies the current token. Cost
    2*W*L*E.
    """
    x = as_f32(x)
    kernel = as_f32(kernel)
    if x.ndim != 2 or kernel.ndim != 2 or x.shape[1] != kernel.shape[0]:
        raise ValueError(
            f"causal_conv shape mismatch: x {x.shape} vs kernel {kernel.shape}"
        )
    length, channels = x.shape
    width = kernel.shape[1]
    _tally("causal_conv", 2 * width * length * channels)
    out = np.zeros((length, channels), dtype=np.float32)
    for j in range(width):
        back = width - 1 - j
        if back == 0:
            out += kernel[:, j] * x
        elif back < length:
            out[back:] += kernel[:, j] * x[: length - back]
    return out


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarity of the rows of a (M, K) and b (P, K).

    Each entry is 0 where either row's norm is below 1e-12. Norms and dot
    products accumulate left to right in float32, so entry [i, j] is
    bitwise equal to a scalar loop over a[i] and b[j].
    """
    a = as_f32(a)
    b = as_f32(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"cosine_matrix shape mismatch: {a.shape} vs {b.shape}")
    ones = np.ones((a.shape[1], 1), dtype=np.float32)
    na = np.sqrt(_ltr_matmul(a * a, ones)[:, 0])
    nb = np.sqrt(_ltr_matmul(b * b, ones)[:, 0])
    dots = _ltr_matmul(a, b.T)
    denom = na[:, None] * nb[None, :]
    ok = (na >= NORM_FLOOR)[:, None] & (nb >= NORM_FLOOR)[None, :]
    out = np.zeros_like(dots)
    np.divide(dots, denom, out=out, where=ok)
    return out


def argsort_desc(values) -> np.ndarray:
    """Stable descending argsort; ties keep ascending original index."""
    v = as_f32(values)
    if v.ndim != 1:
        raise ValueError(f"argsort_desc expects a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("argsort_desc requires finite values")
    return np.argsort(-v, kind="stable")
