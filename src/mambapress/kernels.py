"""Dense float32 kernels that every other module builds on.

All kernels take and return row-major float32 ndarrays (the merge fold
also int64 weights) and never mutate their inputs. The reductions that
feed bit-reproducibility contracts (:func:`matmul` and
:func:`cosine_matrix`) accumulate strictly left to right in float32, so an
independently written scalar loop produces the exact same bits. BLAS is free to reassociate sums, so it is not used.

The kernels that write a forward pass's large arrays, :func:`matmul`,
:func:`layernorm`, :func:`causal_conv`, :func:`silu`, :func:`softplus`,
:func:`ssm_scan`, :func:`gate`, :func:`add`, :func:`multiply` and
:func:`merge_fold` (its features), take an optional ``out``: a writeable,
C-contiguous float32 array of the result's shape, which they fill with
the bits a new array would get and return. Any other ``out`` raises
ValueError before anything is written, as does one that overlaps an
operand, except that :func:`silu`, :func:`add` and :func:`multiply`,
elementwise, may write over an operand passed as ``out`` itself.
:func:`cosine_argmax` squares its rows in a workspace's buffer instead.

Nine kernels are C code in one small library. Its source is the file
``_kernels.c`` beside this module, and its exports are typed from one
table, :data:`_EXPORTS`. On first use it is compiled with the local
``gcc`` (``-O3 -march=native -ffp-contract=off``, no fast-math), cached as
``kernels-<key>.so`` under ``$XDG_CACHE_HOME/mambapress`` (default
``~/.cache/mambapress``) and loaded through :mod:`ctypes`; where no
compiler or cached library is available,
each kernel runs the same arithmetic in numpy. Both paths give the same
bits, except that a NaN output may carry a different payload or sign;
where NaNs appear does not change.

The C functions take raw pointers, which ctypes passes unchecked. So each
wrapper converts its operands with ``np.ascontiguousarray``, checks their
shapes and calls :func:`_call`, the one path that passes an array by its
address, which refuses one that is not C-contiguous with the dtype
:data:`_EXPORTS` gives it. A strided, transposed or float64 operand is
therefore copied, never read raw, except ``gate``'s z, read by row stride.

The engine has its own float32 exp, one recipe (Tang's table method,
ACM TOMS 15(2), 1989) with two front ends, each written twice: in C, per
vector lane, and as a numpy twin. All four use only rounded float32 adds
and multiplies and integer ops, each twin in the order of its C lanes, so
their bits are equal and do not depend on numpy's SIMD dispatch, as
``np.exp``'s do. Both front ends read t = 2^((n & 15)/16) from one
16-entry float32 table and find n = rint(...) by adding and subtracting
1.5*2^23, the bias of the scale factor folded into the integer part.

- Full range, ``vexp`` and :func:`_exp_numpy`, for ``silu``, ``softplus``
  and the state matrix: clamp x to [-104, 88.75] (a NaN passes); n =
  rint(16x/ln 2); r = x - n*C1 - n*C2 with ln 2/16 = C1 + C2 and n*C1
  exact; p = ((r*(1/24) + 1/6)*r + 1/2)*r*r + r, left to right, which is
  expm1(r); p = t*p + t; the result is (p*2^e1)*2^e2 with e1 + e2 =
  n >> 4, both factors normal, so a subnormal result is rounded once. It
  is within 0.986 ULP of exp over the normal range, exp(-inf) = 0,
  exp(+-0) = 1 and exp(+inf) = inf.
- Decays, ``vdecay`` and :func:`_decay_numpy`, for the scan only. The
  argument is x = delta*a', a rounded product, where ``ssm_scan`` has
  scaled a once per call to a' = a*(16/ln 2), rounded; the decay is
  2^(x/16). A positive x gives 1, x < -2032 is raised to -2032 (a NaN
  of either sign passes both); n = rint(x); r = x - n, exact, |r| <=
  1/2; p = ((C3*r + C2)*r + C1)*r, a degree-3 minimax fit of
  2^(r/16) - 1; p = t*p + t; the result is p*2^((n >> 4) - 127), one
  scale factor, which is +0 for x < -2016.5, so decays below
  2^(-126-1/32) flush to 0 and -inf gives 0, while a NaN p stays NaN.
  The front end is within 0.995 ULP of 2^(x/16) for x in [-2016, 0].
  The two roundings of the argument dominate: each decay is within
  2.25*|delta*a| + 1.5 ULP of exp of the exact product, so at most 198
  ULP where it is normal.

The C kernels, and what runs without the library:

- ``ltr_matmul`` (:func:`matmul`) tiles rows and columns only: every output
  element still adds k = 0..K-1 in order, a float32 product and then a
  float32 add, never a fused multiply-add, so it matches the scalar triple
  loop. Fallback: :func:`_matmul_numpy`, a numpy loop over K.
- ``ssm_scan`` (:func:`ssm_scan`) is one head's selective scan. It runs
  over tokens, first to last or (``reverse``) last to first, reading and
  writing every array in token order, and within a token over blocks of
  16 channels, one channel per vector lane, with the state held as
  (N, E). Per lane it rounds dx = delta*x, then for each state the decay
  abar = exp(delta*a) in registers (a rounded product with the pre-scaled
  a', then ``vdecay``; it reads a' transposed, (N, E)), h = abar*h and
  h + dx*b. It reads out sum(h*c) over the state in numpy's pairwise
  order for a contiguous float32 sum (so it matches
  ``(h * c).sum(axis=1, dtype=float32)``), and adds the skip path,
  y = (0 + readout) + skip*x, each a separate float32 operation.
  Fallback: :func:`_decay_numpy` of numpy's broadcast product, then
  :func:`_ssm_scan_numpy`, a numpy loop over tokens.
- ``causal_conv`` (:func:`causal_conv`) adds each output's taps in order
  into 0.0, a rounded product and then a rounded add, skipping taps that
  fall before the sequence start; with ``reverse`` the taps run back from
  the sequence end, tap j reading token t + (W-1) - j, and those past the
  end are skipped. Fallback: :func:`_causal_conv_numpy`, a numpy loop over
  taps. These two are the only kernels that know a head's scan direction.
- ``silu`` (:func:`silu`) is x / (1 + exp(-x)) in one pass, each step
  rounded. Fallback: the same chain in numpy over :func:`_exp_numpy`.
- ``exp_f32`` (:func:`exp_in_place`) is the exp of :func:`softplus` and
  of a scan head's state matrix, in place over its buffer. Fallback:
  :func:`_exp_numpy`. The rest of softplus is numpy, including
  ``np.log1p``, whose bits still depend on the SIMD dispatch.
- ``gate`` (:func:`gate`) is the block gate silu(z) * (y0 + y1 + ...) in
  one pass: it reads z in place with its row stride, adds the heads in
  order and multiplies, each step rounded. Fallback: :func:`add`,
  :func:`silu` and :func:`multiply` chained.
- ``layernorm`` (:func:`layernorm`) normalizes one row at a time. Both
  means sum the row in numpy's pairwise order for a contiguous float32 sum
  (``pairwise_sum``, the order of the scan's readout) and divide in
  float64, as ``np.mean`` does. Fallback: :func:`_layernorm_numpy`.
- ``merge_fold`` (:func:`merge_fold`) copies the kept rows and folds each
  merged source into its target: a float64 accumulator per target starts
  at 0.0, adds the target's term and then its sources' in edge order, and
  is divided once and rounded to float32. Fallback:
  :func:`_merge_fold_numpy`, ``np.unique`` and ``np.add.at``.
- ``cosine_argmax`` (:func:`cosine_argmax`) gives each row of a its most
  similar row of b without building the similarity matrix. It runs 4 rows
  against 32 columns at a time: it sums each dot as ``ltr_matmul`` does,
  divides it by the rounded product of the two norms, zeroes the columns
  and rows under the norm floor, and keeps a running first maximum per
  row and lane, so each pick equals the argmax of :func:`cosine_matrix`.
  Fallback: :func:`cosine_matrix` and ``argmax``.

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
# The message for an infinite norm and for a NaN similarity, which raise.
_NOT_FINITE = ("similarity is NaN: token features are not finite "
               "or their squared norms overflow float32")


class NumericError(RuntimeError, ValueError):
    """Raised when a pass meets values that are not finite: timescales,
    activations, logits, similarities or scores. It is a ValueError too,
    the error the kernels raise for operands they cannot use."""


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


# The C source of every compiled kernel, shipped beside this module.
_SOURCE = Path(__file__).with_name("_kernels.c")

# -ffp-contract=off keeps every product and add separately rounded; the
# default on some targets would fuse them and change the bits.
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

_PTR, _SIZE, _INT = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int
_F32, _I64, _BOOL, _INTP, _UINTP = map(np.dtype, (F32, np.int64, bool, np.intp, np.uintp))

# Each export of the library: its argument types and return type. An array
# argument is the dtype its C pointer points at (``gate``'s head table holds
# addresses), which :func:`_call` checks; ``gate``'s z is a raw pointer.
_EXPORTS = {
    "ltr_matmul": ([_F32] * 3 + [_SIZE] * 3, _INT),
    "ssm_scan": ([_F32] * 7 + [_SIZE] * 3 + [_INT], _INT),
    "causal_conv": ([_F32] * 3 + [_SIZE] * 3 + [_INT], None),
    "exp_f32": ([_F32, _F32, _SIZE], None),
    "silu": ([_F32, _F32, _SIZE], None),
    "gate": ([_PTR, _SIZE, _UINTP, _SIZE, _F32, _SIZE, _SIZE], None),
    "layernorm": ([_F32] * 4 + [_SIZE] * 2, None),
    "merge_fold": ([_F32, _I64, _BOOL, _I64, _F32, _I64] + [_SIZE] * 3 + [_INT], _INT),
    "cosine_argmax": ([_F32] * 4 + [ctypes.c_float, _INTP] + [_SIZE] * 3, _INT),
}
_ARRAYS = {name: [(i, t) for i, t in enumerate(params) if isinstance(t, np.dtype)]
           for name, (params, _) in _EXPORTS.items()}


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


def _build_library(cache_dir: Path, compiler: str):
    """Compile (or reuse) the C kernels in ``cache_dir``; ``None`` on failure.

    Returns the loaded library with every export in :data:`_EXPORTS` typed.
    The library is named by a hash of the source file's bytes, the flags and
    the CPU flags, so a warm cache loads without running the compiler; the
    compiler version cannot change the bits, which float32 IEEE rounding
    under ``-ffp-contract=off`` fixes. On a miss it is compiled to a
    temporary file and renamed into place, so a process racing on a cold
    cache never loads a half-written library.
    """
    try:
        key = hashlib.sha256(b"\0".join(
            [_SOURCE.read_bytes(), *(s.encode() for s in (*_CFLAGS, _cpu_flags()))]
        )).hexdigest()[:20]
        lib_path = cache_dir / f"kernels-{key}.so"
        if not lib_path.exists():
            cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".kernels-", suffix=".so")
            os.close(fd)
            try:
                subprocess.run([compiler, *_CFLAGS, str(_SOURCE), "-o", tmp, "-lm"],
                               capture_output=True, check=True, timeout=120)
                os.replace(tmp, lib_path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(lib_path))
    except (OSError, subprocess.SubprocessError):
        return None
    for name, (params, restype) in _EXPORTS.items():
        export = getattr(lib, name)
        export.argtypes = [_PTR if isinstance(t, np.dtype) else t for t in params]
        export.restype = restype
    return lib


_UNLOADED = object()
_loaded = _UNLOADED
_load_lock = threading.Lock()


def _library():
    """The compiled library, built or loaded on first call; ``None`` if unavailable."""
    global _loaded
    if _loaded is _UNLOADED:
        with _load_lock:
            if _loaded is _UNLOADED:
                cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
                _loaded = _build_library(Path(cache) / "mambapress", "gcc")
    return _loaded


def _call(name: str, *args):
    """Call export ``name`` with each array argument passed by address, and
    return its status: ValueError for an array not C-contiguous with the
    dtype :data:`_EXPORTS` gives it, MemoryError for -1, a failed
    allocation. ``args`` keeps the arrays alive across the GIL-free call."""
    if len(args) != len(_EXPORTS[name][0]):
        raise ValueError(f"{name} takes {len(_EXPORTS[name][0])} arguments, got {len(args)}")
    raw = list(args)
    for i, dtype in _ARRAYS[name]:
        arr = args[i]
        if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.flags.c_contiguous):
            raise ValueError(f"{name} argument {i} must be a C-contiguous {dtype} array")
        raw[i] = arr.ctypes.data
    status = getattr(_library(), name)(*raw)
    if status == -1:
        raise MemoryError(f"{name} could not allocate its scratch memory")
    return status


def _out(out, shape: tuple[int, ...], name: str, *inputs) -> np.ndarray:
    """``out`` checked to take a kernel's (shape) result, or a new array when
    it is None. ValueError, before anything is written, unless it is a
    writeable, C-contiguous float32 array of that shape that overlaps none of
    ``inputs``: the operands the kernel may not write over."""
    if out is None:
        return np.empty(shape, dtype=np.float32)
    if not (isinstance(out, np.ndarray) and out.dtype == _F32 and out.flags.carray):
        raise ValueError(f"{name} out must be a writeable, C-contiguous float32 array")
    if out.shape != shape:
        raise ValueError(f"{name} out shape {out.shape} != result shape {shape}")
    if any(np.may_share_memory(out, x) for x in inputs):
        raise ValueError(f"{name} out overlaps an operand it may not write over")
    return out


def _matmul_numpy(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    m, _ = a.shape
    p = b.shape[1]
    acc = np.empty((m, p), dtype=np.float32) if out is None else out
    acc.fill(0.0)
    if m == 0 or p == 0:
        return acc
    tmp = np.empty((m, p), dtype=np.float32)
    # Overflow gives inf or NaN silently, as in the compiled kernel.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(a.shape[1]):
            np.multiply(a[:, i, None], b[i, :], out=tmp)
            np.add(acc, tmp, out=acc)
    return acc


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The product of :func:`matmul`, without its FLOP tally, into ``out``
    (which :func:`matmul` has checked) or a new array."""
    if _library() is None:
        return _matmul_numpy(a, b, out)
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    (m, k), p = a.shape, b.shape[1]
    if b.shape[0] != k:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    if out is None:
        out = np.empty((m, p), dtype=np.float32)
    if out.size:
        _call("ltr_matmul", a, b, out, m, k, p)
    return out


def matmul(a, b, out=None) -> np.ndarray:
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
    out = _out(out, (a.shape[0], b.shape[1]), "matmul", a, b)
    _tally("matmul", 2 * a.shape[0] * a.shape[1] * b.shape[1])
    return _matmul(a, b, out)


# The constants of the C ``vexp``, spelled the same way.
_EXP2_SIXTEENTHS = np.array([float.fromhex(h) for h in (
    "0x1p+0", "0x1.0b5586p+0", "0x1.172b84p+0", "0x1.2387a6p+0",
    "0x1.306fe0p+0", "0x1.3dea64p+0", "0x1.4bfdaep+0", "0x1.5ab07ep+0",
    "0x1.6a09e6p+0", "0x1.7a1148p+0", "0x1.8ace54p+0", "0x1.9c4918p+0",
    "0x1.ae89fap+0", "0x1.c199bep+0", "0x1.d5818ep+0", "0x1.ea4afap+0",
)], dtype=np.float32)
_EXP_LO, _EXP_HI = F32(-104.0), F32(88.75)
_EXP_MAGIC = F32(float.fromhex("0x1.8p+23"))
_EXP_SCALE = F32(float.fromhex("0x1.715476p+4"))  # 16 / ln 2
_EXP_LN2_HI = F32(float.fromhex("0x1.62ep-5"))  # ln 2 / 16, in two parts
_EXP_LN2_LO = F32(float.fromhex("0x1.0bfbe8p-19"))
_EXP_C4 = F32(float.fromhex("0x1.555556p-5"))  # 1/24
_EXP_C3 = F32(float.fromhex("0x1.555556p-3"))  # 1/6


def _exp_numpy(x) -> np.ndarray:
    """The pinned float32 exp in numpy: the C ``vexp`` step for step, so the
    bits are equal and depend on no SIMD dispatch (see the module
    docstring). Books no FLOPs; its callers do."""
    x = as_f32(x)
    # A signalling NaN input raises "invalid" and a large x overflows, as
    # exp should; neither is an error. 1-D, so integer ops wrap silently.
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.clip(x.reshape(-1), _EXP_LO, _EXP_HI)
        km = v * _EXP_SCALE + _EXP_MAGIC
        k = km - _EXP_MAGIC
        n = km.view(np.int32) - np.int32(0x4B400000 - 254 * 16)
        r = v - k * _EXP_LN2_HI
        r = r - k * _EXP_LN2_LO
        p = r * _EXP_C4 + _EXP_C3
        p = p * r + F32(0.5)
        p = p * r
        p = p * r + r
        t = _EXP2_SIXTEENTHS[n & 15]
        p = t * p + t
        e = n >> 4
        e1 = e >> 1
        e2 = e - e1
        s1 = (e1.astype(np.uint32) << 23).view(np.float32)
        s2 = (e2.astype(np.uint32) << 23).view(np.float32)
        return ((p * s1) * s2).reshape(x.shape)


# The constants of the C ``vdecay``: its lower clamp, and the coefficients of
# 2^(r/16) - 1 = r*(_DECAY_C1 + r*(_DECAY_C2 + r*_DECAY_C3)) on |r| <= 1/2.
_DECAY_LO = F32(-2032.0)
_DECAY_C1 = F32(float.fromhex("0x1.62e43p-5"))
_DECAY_C2 = F32(float.fromhex("0x1.ebfff4p-11"))
_DECAY_C3 = F32(float.fromhex("0x1.c6b46ap-17"))


def _decay_numpy(x) -> np.ndarray:
    """The scan's decay 2^(x/16) in numpy, for x = delta * (a * 16/ln 2): the
    C ``vdecay`` step for step, so the bits are equal (see the module
    docstring). Books no FLOPs; the scan does."""
    x = as_f32(x)
    # A signalling NaN input raises "invalid"; it is no error. 1-D, so
    # integer ops wrap silently.
    with np.errstate(invalid="ignore"):
        v = x.reshape(-1)
        v = np.where(v > 0, F32(0.0), v)
        v = np.where(v < _DECAY_LO, _DECAY_LO, v)
        km = v + _EXP_MAGIC
        k = km - _EXP_MAGIC
        n = km.view(np.int32) - np.int32(0x4B400000 - 127 * 16)
        r = v - k
        p = r * _DECAY_C3 + _DECAY_C2
        p = p * r + _DECAY_C1
        p = p * r
        t = _EXP2_SIXTEENTHS[n & 15]
        p = t * p + t
        s = ((n >> 4).astype(np.uint32) << 23).view(np.float32)
        return (p * s).reshape(x.shape)


def _ssm_scan_numpy(abar, dx, b, c, reverse=False):
    length, e, n = abar.shape
    h = np.zeros((e, n), dtype=np.float32)
    y = np.empty((length, e), dtype=np.float32)
    dxb = dx[:, :, None] * b[:, None, :]
    for t in range(length - 1, -1, -1) if reverse else range(length):
        np.multiply(abar[t], h, out=h)
        np.add(h, dxb[t], out=h)
        y[t] = (h * c[t]).sum(axis=1, dtype=np.float32)
    return y


def ssm_scan(delta, a, x, b, c, skip, reverse: bool = False, out=None):
    """One head's selective scan from a zero state.

    ``delta`` and ``x`` (L, E) are the timescales and the scan input, ``a``
    (E, N) the state matrix, ``b`` and ``c`` (L, N) the per-token input and
    readout vectors and ``skip`` (E,) the pass-through gain. Per token t:
    abar = exp(delta[t, :, None] * a), dx = delta[t] * x[t], h = abar * h,
    then h = h + dx[:, None] * b[t], each a separately rounded float32
    operation, and y[t] = (h * c[t]).sum(axis=1) + skip * x[t]. Tokens are
    visited first to last, or last to first with ``reverse``; every array,
    in and out, stays in token order. Returns y (L, E).

    The decays come from the pinned exp's decay front end (module
    docstring): abar = 2^(delta * a'/16), with a' = a * (16/ln 2) rounded
    once per call. A positive delta * a gives 1; below about -87.36, and
    for -inf, the decay is 0; a NaN passes. Each decay is within
    2.25*|delta*a| + 1.5 ULP of exp of the exact product.

    Cost, as the numpy chain books it: decays multiply L*E*N and exp L*E*N;
    dx multiply L*E; state update multiply 2*L*E*N and add L*E*N; readout
    rowdot 2*L*E*N; skip path multiply L*E and add L*E. The pre-scale of
    ``a`` books nothing, like its transpose.
    """
    delta, x, b, c, skip = (np.ascontiguousarray(v, dtype=np.float32)
                            for v in (delta, x, b, c, skip))
    a = as_f32(a)
    if delta.ndim != 2 or a.ndim != 2:
        raise ValueError(f"ssm_scan expects (L, E) timescales and an (E, N) state "
                         f"matrix, got {delta.shape} and {a.shape}")
    (length, e), n = delta.shape, a.shape[1]
    if (a.shape[0] != e or x.shape != (length, e) or b.shape != (length, n)
            or c.shape != (length, n) or skip.shape != (e,)):
        raise ValueError(
            f"ssm_scan shape mismatch: delta {delta.shape}, a {a.shape}, x {x.shape}, "
            f"b {b.shape}, c {c.shape}, skip {skip.shape}"
        )
    out = _out(out, (length, e), "ssm_scan", delta, a, x, b, c, skip)
    size = length * e * n
    _tally("multiply", 3 * size + 2 * length * e)
    _tally("exp", size)
    _tally("add", size + length * e)
    _tally("rowdot", 2 * size)
    # Both paths read one rounded a * 16/ln 2, the decays' argument scale.
    a16 = a * _EXP_SCALE
    if _library() is None:
        abar = _decay_numpy(delta[:, :, None] * a16)
        return np.add(_ssm_scan_numpy(abar, delta * x, b, c, reverse), skip * x, out=out)
    at = np.ascontiguousarray(a16.T)
    if out.size:
        _call("ssm_scan", delta, at, x, b, c, skip, out, length, e, n, bool(reverse))
    return out


def exp_in_place(buf: np.ndarray) -> np.ndarray:
    """Overwrite a writeable, C-contiguous float32 array with the pinned exp
    of its values (any other raises ValueError), and return it: C ``exp_f32``
    or :func:`_exp_numpy`, the same bits. Books no FLOPs; its callers do."""
    if not (isinstance(buf, np.ndarray) and buf.dtype == _F32 and buf.flags.carray):
        raise ValueError("exp_in_place needs a writeable, C-contiguous float32 array")
    if _library() is None:
        buf[...] = _exp_numpy(buf)
    elif buf.size:
        _call("exp_f32", buf, buf, buf.size)
    return buf


def softplus(x, out=None) -> np.ndarray:
    """Elementwise ln(1+exp(x)) with an overflow-safe linear branch.

    For x > SOFTPLUS_CUTOFF the identity branch returns x directly. The
    result is clamped to the smallest positive normal float32 so it is
    strictly positive for every finite input, even where exp() underflows.
    The exp is the engine's own (:func:`exp_in_place`); ``np.log1p`` is
    numpy's. Every step writes one output buffer, ``out`` if given, which
    may not overlap x: the last step reads x again.
    """
    x = as_f32(x)
    out = _out(out, x.shape, "softplus", x)
    _tally("softplus", x.size)
    cutoff = F32(SOFTPLUS_CUTOFF)
    exp_in_place(np.minimum(x, cutoff, out=out))
    np.log1p(out, out=out)
    np.copyto(out, x, where=x > cutoff)
    return np.maximum(out, _TINY, out=out)


def silu(x, out=None) -> np.ndarray:
    """Elementwise x * sigmoid(x), as x / (1 + exp(-x)) with the pinned exp,
    each step a rounded float32 operation. ``out`` may be x itself, not
    another view of its memory."""
    x = as_f32(x)
    out = _out(out, x.shape, "silu", *(() if out is x else (x,)))
    _tally("silu", x.size)
    if _library() is None:
        denom = _exp_numpy(np.negative(x))
        np.add(F32(1.0), denom, out=denom)
        return np.divide(x, denom, out=out)
    if out.size:
        _call("silu", np.ascontiguousarray(x), out, out.size)
    return out


def gate(z, ys, out=None) -> np.ndarray:
    """The block gate silu(z) * (ys[0] + ys[1] + ...), the head outputs
    added in order, each step a rounded float32 operation: the bits of
    :func:`add`, :func:`silu` and :func:`multiply` chained, which is the
    fallback. ``z`` may be a strided column slice; the compiled kernel
    reads it in place. Books add (H-1)*L*E, silu L*E and multiply L*E, as
    the chain does."""
    z = as_f32(z)
    ys = [np.ascontiguousarray(y, dtype=np.float32) for y in ys]
    if not ys or z.ndim != 2 or any(y.shape != z.shape for y in ys):
        raise ValueError(f"gate expects (L, E) operands of one shape, got {z.shape} and "
                         f"{[y.shape for y in ys]}")
    out = _out(out, z.shape, "gate", z, *ys)
    if _library() is None:
        y_sum = ys[0]
        for y in ys[1:]:
            y_sum = add(y_sum, y)
        return multiply(silu(z), y_sum, out=out)
    if len(ys) > 1:
        _tally("add", (len(ys) - 1) * z.size)
    _tally("silu", z.size)
    _tally("multiply", z.size)
    if z.strides[1] != z.itemsize or z.strides[0] % z.itemsize:
        z = np.ascontiguousarray(z)
    ptrs = np.array([y.ctypes.data for y in ys], dtype=np.uintp)
    # z and ys, passed by address, stay referenced here for the call.
    if out.size:
        _call("gate", z.ctypes.data, z.strides[0] // z.itemsize, ptrs, len(ys), out, *z.shape)
    return out


def _elementwise(ufunc, a, b, out) -> np.ndarray:
    """``ufunc(a, b)``, booked one FLOP per element under its name, into
    ``out`` if given: ``out`` may be a or b itself, not another view of
    their memory."""
    if out is not None:
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        _out(out, shape, ufunc.__name__, *(v for v in (a, b) if v is not out))
    r = ufunc(a, b, out=out)
    _tally(ufunc.__name__, r.size)
    return r


def add(a, b, out=None) -> np.ndarray:
    return _elementwise(np.add, a, b, out)


def multiply(a, b, out=None) -> np.ndarray:
    return _elementwise(np.multiply, a, b, out)


def mean_rows(x: np.ndarray) -> np.ndarray:
    """Column means of a (L, D) matrix. Cost L*D."""
    _tally("mean_rows", x.size)
    return x.mean(axis=0, dtype=np.float32)


def _layernorm_numpy(x: np.ndarray, scale: np.ndarray, bias: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True, dtype=np.float32)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True, dtype=np.float32)
    inv = F32(1.0) / np.sqrt(var + F32(1e-5))
    return np.add(centered * inv * scale, bias, out=out)


def layernorm(x, scale, bias, out=None) -> np.ndarray:
    """Row-wise layer normalization with eps 1e-5, ``scale`` and ``bias`` of
    shape (D,) for rows of D. Cost convention: 7 per element.

    Both means sum a row in numpy's pairwise float32 order and divide in
    float64, as ``np.mean`` does; every other step is a rounded float32
    operation. The compiled kernel does one pass per row. Fallback:
    :func:`_layernorm_numpy`, numpy's chain over a C-contiguous copy, so
    the order of the sums does not depend on the input's layout.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim < 1:
        raise ValueError("layernorm expects rows, got a scalar")
    d = x.shape[-1]
    scale, bias = (np.ascontiguousarray(v, dtype=np.float32) for v in (scale, bias))
    if scale.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"layernorm shape mismatch: rows of {d}, scale {scale.shape}, "
                         f"bias {bias.shape}")
    out = _out(out, x.shape, "layernorm", x, scale, bias)
    _tally("layernorm", 7 * x.size)
    if _library() is None:
        return _layernorm_numpy(x, scale, bias, out)
    if out.size:
        _call("layernorm", x, scale, bias, out, x.size // d, d)
    return out


def _causal_conv_numpy(x: np.ndarray, kernel: np.ndarray, reverse: bool = False,
                       out: np.ndarray | None = None) -> np.ndarray:
    length, width = len(x), kernel.shape[1]
    out = np.empty(x.shape, dtype=np.float32) if out is None else out
    out.fill(0.0)
    for j in range(width):
        back = width - 1 - j
        if back == 0:
            out += kernel[:, j] * x
        elif back < length and reverse:
            out[: length - back] += kernel[:, j] * x[back:]
        elif back < length:
            out[back:] += kernel[:, j] * x[: length - back]
    return out


def causal_conv(x: np.ndarray, kernel: np.ndarray, reverse: bool = False,
                out=None) -> np.ndarray:
    """Depthwise causal convolution along the sequence axis.

    out[t, e] = sum_j kernel[e, j] * x[t - (W-1) + j, e], zero-padded before
    the sequence start; tap j = W-1 multiplies the current token. The taps
    are added in order j = 0..W-1 into 0.0, each product rounded before its
    add, and taps before the sequence start are skipped. With ``reverse``
    the convolution is causal from the end: tap j reads x[t + (W-1) - j],
    and taps past the sequence end are skipped. Cost 2*W*L*E.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    kernel = as_f32(kernel)
    if x.ndim != 2 or kernel.ndim != 2 or x.shape[1] != kernel.shape[0]:
        raise ValueError(
            f"causal_conv shape mismatch: x {x.shape} vs kernel {kernel.shape}"
        )
    length, channels = x.shape
    width = kernel.shape[1]
    out = _out(out, x.shape, "causal_conv", x, kernel)
    _tally("causal_conv", 2 * width * length * channels)
    if _library() is None:
        return _causal_conv_numpy(x, kernel, reverse, out)
    kt = np.ascontiguousarray(kernel.T)
    if out.size:
        _call("causal_conv", x, kt, out, length, channels, width, bool(reverse))
    return out


def _merge_fold_numpy(x, weight, keep, edges, weighted, features):
    src, tgt = edges[:, 0], edges[:, 1]
    out_weight = weight[keep]
    np.compress(keep, x, axis=0, out=features)
    if len(src) == 0:
        return features, out_weight
    new_row = np.cumsum(keep) - 1
    # Group g is targets[g] followed by its sources in edge order. add.at
    # applies the edges one at a time, so each group sums from +0.0 in that
    # order: the same float64 order as summing its rows along axis 0. Only
    # the rows that take part are widened and weighted.
    targets, group = np.unique(tgt, return_inverse=True)
    rows = np.concatenate([targets, src])
    terms = x[rows].astype(np.float64)
    if weighted:
        terms *= weight[rows, None]
    acc = np.zeros((len(targets), terms.shape[1]))
    acc += terms[: len(targets)]
    np.add.at(acc, group, terms[len(targets) :])
    wsum = weight[targets]
    np.add.at(wsum, group, weight[src])
    denom = wsum.astype(np.float64) if weighted else np.bincount(group) + 1.0
    features[new_row[targets]] = (acc / denom[:, None]).astype(np.float32)
    out_weight[new_row[targets]] = wsum
    return features, out_weight


def merge_fold(x, weight, keep, edges, weighted: bool = True, out=None):
    """Keep the rows of x (L, D) where ``keep`` is set and fold each merged
    source into its target; returns the kept rows and their weights.

    ``edges`` (S, 2) holds (source row, target row) pairs; each source
    should appear once and be dropped. A row out of range or a dropped
    target raises ``ValueError``.
    ``weight`` (L,) int64 counts the original tokens of each row. A target
    that receives sources becomes the float64 mean of its group, weighted
    by ``weight`` unless ``weighted`` is false, rounded to float32: its
    accumulator starts at 0.0 plus the target's term and adds the sources'
    terms in edge order, then is divided once. Its weight becomes the
    group's weight sum. Other kept rows are copied bitwise. Fallback:
    :func:`_merge_fold_numpy`, ``np.unique`` and ``np.add.at``, which add
    in the same order. Books no FLOPs: reduction bookkeeping.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    weight = np.ascontiguousarray(weight, dtype=np.int64)
    keep = np.ascontiguousarray(keep, dtype=bool)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    if (x.ndim != 2 or weight.shape != (len(x),) or keep.shape != weight.shape
            or edges.shape[1:] != (2,)):
        raise ValueError(f"merge_fold shape mismatch: x {x.shape}, weight {weight.shape}, "
                         f"keep {keep.shape}, edges {edges.shape}")
    n = len(x)
    # The compiled fold indexes rows by the edges and stores at each
    # target's output row: both must exist.
    if len(edges) and (edges.min() < 0 or edges.max() >= n or not keep[edges[:, 1]].all()):
        raise ValueError("merge_fold edges must hold rows in range and kept targets")
    m = int(np.count_nonzero(keep))
    features = _out(out, (m, x.shape[1]), "merge_fold", x)
    if _library() is None:
        return _merge_fold_numpy(x, weight, keep, edges, weighted, features)
    out_weight = np.empty(m, dtype=np.int64)
    _call("merge_fold", x, weight, keep, edges, features, out_weight, n, x.shape[1],
          len(edges), bool(weighted))
    return features, out_weight


def _row_norms(x: np.ndarray, ws=None) -> np.ndarray:
    """The Euclidean norm of each row of x, its squares summed left to right
    (squared into the buffer "squares" of a workspace ``ws``, if given).
    Raises :class:`NumericError` if one is infinite; a NaN norm is returned."""
    squares = None if ws is None else ws.take("squares", x.shape)
    with np.errstate(over="ignore"):
        squares = np.multiply(x, x, out=squares)
        norms = np.sqrt(_matmul(squares, np.ones((x.shape[1], 1), dtype=np.float32))[:, 0])
    if np.isposinf(norms).any():
        raise NumericError(_NOT_FINITE)
    return norms


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarity of the rows of a (M, K) and b (P, K).

    Each entry is 0 where either row's norm is below 1e-12; an infinite
    norm raises :class:`NumericError`. Norms and dot products accumulate
    left to right in float32, so entry [i, j] is bitwise equal to a scalar
    loop over a[i] and b[j].
    """
    a = as_f32(a)
    b = as_f32(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"cosine_matrix shape mismatch: {a.shape} vs {b.shape}")
    na, nb = _row_norms(a), _row_norms(b)
    # Dots may overflow, and rows or columns under the floor may divide by
    # zero; those rows and columns are zeroed next, as are NaN-norm ones.
    with np.errstate(all="ignore"):
        dots = _matmul(a, b.T)
        np.divide(dots, na[:, None] * nb[None, :], out=dots)
    dots[~(na >= NORM_FLOOR)] = 0.0
    dots[:, ~(nb >= NORM_FLOOR)] = 0.0
    return dots


def cosine_argmax(a: np.ndarray, b: np.ndarray, ws=None) -> np.ndarray:
    """For each row of a (M, K), the index of its most similar row of b (P, K).

    Equal to ``cosine_matrix(a, b).argmax(axis=1)`` index for index: the
    first of equal similarities wins, -0.0 and +0.0 included, and a row
    whose norm is under the floor picks row 0. The compiled kernel keeps
    each row's running maximum and never builds the (M, P) matrix; it
    reads b without a copy if b.T is C-contiguous, and with a workspace
    ``ws`` (``ssm.Workspace``) it squares the rows for their norms there.
    Raises :class:`NumericError` if any similarity is NaN, as it is for
    infinite features or for rows whose squared norms overflow float32.
    """
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = as_f32(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"cosine_argmax shape mismatch: {a.shape} vs {b.shape}")
    (m, k), p = a.shape, b.shape[0]
    if not p:
        raise ValueError("cosine_argmax needs at least one row of b")
    if p >= 2**31:
        raise ValueError(f"cosine_argmax takes under 2**31 rows of b, got {p}")
    if _library() is None:
        sims = cosine_matrix(a, b)
        best = sims.argmax(axis=1)
        nan = np.isnan(sims[np.arange(m), best]).any()
    else:
        na, nb = _row_norms(a, ws), _row_norms(b, ws)
        bt = np.ascontiguousarray(b.T)
        best = np.zeros(m, dtype=np.intp)
        nan = _call("cosine_argmax", a, bt, na, nb, NORM_FLOOR, best, m, k, p) == 1
    if nan:
        raise NumericError(_NOT_FINITE)
    return best


def argsort_desc(values) -> np.ndarray:
    """Stable descending argsort; ties keep ascending original index.
    Raises :class:`NumericError` on a NaN or infinite value."""
    v = as_f32(values)
    if v.ndim != 1:
        raise ValueError(f"argsort_desc expects a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NumericError("argsort_desc requires finite values")
    return np.argsort(-v, kind="stable")
