"""Token-retention mask rendering.

Paints each patch of the input image by the group its token landed in at
one reduction layer: kept patches are tinted red, targets blue, absorbed
or pruned sources are blacked out. The classification token has no patch
and is ignored. A layer that removed nothing renders the image untouched.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

TINT = 0.45  # blend factor toward the group color
_RED = np.array([1.0, 0.0, 0.0], dtype=np.float32)
_BLUE = np.array([0.0, 0.0, 1.0], dtype=np.float32)


def render_mask(
    image: np.ndarray,
    patch_size: int,
    kept_orig: Iterable[int],
    target_orig: Iterable[int],
    source_orig: Iterable[int],
    cls_orig: int | None = None,
) -> np.ndarray:
    """Return a copy of the image with per-patch group tints applied.

    Original indices are mapped to raster patch positions, skipping over
    the classification slot when one exists.
    """
    image = np.asarray(image, dtype=np.float32)
    h, w = image.shape[:2]
    if h % patch_size or w % patch_size:
        raise ValueError(f"image {image.shape} not divisible into {patch_size}-pixel patches")
    grid_w = w // patch_size
    kept = [int(i) for i in kept_orig]
    target = [int(i) for i in target_orig]
    source = [int(i) for i in source_orig]
    if not kept and not source:
        return image.copy()  # nothing was removed at this layer

    out = image.copy()

    def patch_region(orig: int) -> tuple[slice, slice]:
        if orig == cls_orig:
            raise ValueError("classification token has no patch")
        after_cls = cls_orig is not None and orig > cls_orig
        row, col = divmod(orig - after_cls, grid_w)
        if not 0 <= row < h // patch_size:
            raise ValueError(f"original index {orig} outside the patch grid")
        return (
            slice(row * patch_size, (row + 1) * patch_size),
            slice(col * patch_size, (col + 1) * patch_size),
        )

    for orig in kept:
        rs, cs = patch_region(orig)
        out[rs, cs] = (1.0 - TINT) * out[rs, cs] + TINT * _RED
    for orig in target:
        rs, cs = patch_region(orig)
        out[rs, cs] = (1.0 - TINT) * out[rs, cs] + TINT * _BLUE
    for orig in source:
        rs, cs = patch_region(orig)
        out[rs, cs] = 0.0
    return out.astype(np.float32)
