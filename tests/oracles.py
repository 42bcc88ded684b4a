"""Scalar reference implementations that the kernel tests compare against.

These are oracles, not program code: each restates one kernel contract as
the plainest loop that meets it, so a vectorised kernel can be checked
bit for bit.
"""

import numpy as np

from mambapress import kernels


def ltr_dot(a: np.ndarray, b: np.ndarray) -> np.float32:
    """Dot product accumulated strictly left to right in float32."""
    prod = a * b
    if prod.size == 0:
        return np.float32(0.0)
    return np.cumsum(prod, dtype=np.float32)[-1]


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot product (M, N) . (N,) -> (M,), summed in numpy's pairwise
    order for a contiguous float32 sum: the order of the scan's readout."""
    return (a * b).sum(axis=1, dtype=np.float32)


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors; 0 if either norm < 1e-12.

    Accumulates left to right in float32, so it is bit-identical to the
    matching entry of :func:`mambapress.kernels.cosine_matrix`.
    """
    a = kernels.as_f32(a)
    b = kernels.as_f32(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"cosine_similarity shape mismatch: {a.shape} vs {b.shape}")
    na = np.sqrt(ltr_dot(a, a))
    nb = np.sqrt(ltr_dot(b, b))
    if na < kernels.NORM_FLOOR or nb < kernels.NORM_FLOOR:
        return 0.0
    dot = ltr_dot(a, b)
    return float(np.float32(dot / np.float32(na * nb)))


def apply_merge_loop(seq, mapping, weighted=True, pruned_rows=()):
    """Row assembly one target group at a time, summing each group's rows
    along axis 0 in float64: the order :func:`mambapress.reduction.apply_merge`
    must reproduce bit for bit. Returns (features, orig_index, weight)."""
    drop = {s for s, _ in mapping.edges} | {int(r) for r in pruned_rows}
    groups: dict[int, list[int]] = {}
    for s_row, t_row in mapping.edges:
        groups.setdefault(t_row, []).append(s_row)
    survivors = [r for r in range(len(seq)) if r not in drop]
    features = seq.features[survivors]
    weight = seq.weight[survivors].copy()
    for t_row, s_rows in groups.items():
        members = [t_row, *s_rows]
        w = seq.weight[members].astype(np.float64)
        f = seq.features[members].astype(np.float64)
        merged = (f * w[:, None]).sum(axis=0) / w.sum() if weighted else f.mean(axis=0)
        features[survivors.index(t_row)] = merged.astype(np.float32)
        weight[survivors.index(t_row)] = seq.weight[members].sum()
    return features, seq.orig_index[survivors], weight


def decay(delta, a) -> np.ndarray:
    """Per-token decay factors exp(delta[t, i] * a[i, j]) -> (L, E, N): a
    scaled once by 16/ln 2 and rounded, one rounded float32 product per
    element, then the numpy twin of the pinned exp's decay front end. The
    compiled scan computes the same values in registers."""
    delta = kernels.as_f32(delta)
    a = kernels.as_f32(a)
    if delta.ndim != 2 or a.ndim != 2 or delta.shape[1] != a.shape[0]:
        raise ValueError(f"decay shape mismatch: delta {delta.shape}, a {a.shape}")
    return kernels._decay_numpy(delta[:, :, None] * (a * kernels._EXP_SCALE)[None, :, :])


def scan_states(delta, a, x, b, reverse=False) -> np.ndarray:
    """The state after each token of the selective scan, (L, E, N) in token
    order: per token, visited first to last or (``reverse``) last to first,
    h = decay * h, then h + (delta * x)[:, None] * b, each a rounded float32
    operation, as the compiled scan updates its state."""
    abar = decay(delta, a)
    dxb = (kernels.as_f32(delta) * kernels.as_f32(x))[:, :, None] * kernels.as_f32(b)[:, None, :]
    states = np.empty_like(abar)
    h = np.zeros(abar.shape[1:], np.float32)
    for t in range(len(abar) - 1, -1, -1) if reverse else range(len(abar)):
        h = abar[t] * h + dxb[t]
        states[t] = h
    return states


def discretize(a, delta) -> np.ndarray:
    """Zero-order-hold decays for strictly positive timescales."""
    if not np.all(kernels.as_f32(delta) > 0):
        raise ValueError("discretize requires strictly positive timescales")
    return decay(delta, a)


def softplus(x) -> np.ndarray:
    """ln(1+exp(x)) with the pinned exp, x itself above the cutoff, clamped
    to the smallest normal float32, one fresh array per step: the bits
    :func:`mambapress.kernels.softplus` must keep."""
    x = kernels.as_f32(x)
    cutoff = np.float32(kernels.SOFTPLUS_CUTOFF)
    out = np.log1p(kernels._exp_numpy(np.minimum(x, cutoff)))
    out = np.where(x > cutoff, x, out)
    return np.maximum(out, np.finfo(np.float32).tiny)


def silu(x) -> np.ndarray:
    """x / (1 + exp(-x)) with the pinned exp, in fresh arrays: the bits of
    :func:`mambapress.kernels.silu`."""
    x = kernels.as_f32(x)
    return x / (np.float32(1.0) + kernels._exp_numpy(-x))
