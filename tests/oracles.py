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
