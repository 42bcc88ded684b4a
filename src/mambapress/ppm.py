"""Binary PPM (P6) image input/output and seeded synthetic images.

P6 was picked because it is parseable in a dozen lines in any language:
no codec dependency, just a text header and raw RGB bytes.
"""

from __future__ import annotations

import numpy as np


class PpmError(Exception):
    """Malformed or unsupported PPM data."""


def _tokens(data: bytes):
    """Yield header tokens, skipping whitespace and # comments."""
    i = 0
    while i < len(data):
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            start = i
            while i < len(data) and not data[i : i + 1].isspace():
                i += 1
            yield start, data[start:i]
    return


def read_ppm(path) -> np.ndarray:
    """Read a P6 file into an (H, W, 3) float32 array in [0, 1]."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise OSError(f"cannot read image {path}: {err}") from err
    fields = []
    end = 0
    for start, tok in _tokens(data):
        fields.append(tok)
        end = start + len(tok)
        if len(fields) == 4:
            break
    if len(fields) < 4:
        raise PpmError(f"{path}: truncated PPM header")
    if fields[0] != b"P6":
        raise PpmError(f"{path}: not a P6 file (got {fields[0]!r})")
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError as err:
        raise PpmError(f"{path}: non-numeric PPM header") from err
    if width < 1 or height < 1:
        raise PpmError(f"{path}: width and height must be positive, got {width}x{height}")
    if maxval != 255:
        raise PpmError(f"{path}: only maxval 255 supported, got {maxval}")
    pixels = data[end + 1 :]  # single whitespace byte after maxval
    need = width * height * 3
    if len(pixels) < need:
        raise PpmError(f"{path}: expected {need} pixel bytes, found {len(pixels)}")
    img = np.frombuffer(pixels[:need], dtype=np.uint8).reshape(height, width, 3)
    return (img.astype(np.float32) / np.float32(255.0)).astype(np.float32)


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (H, W, 3) float array in [0, 1] as a P6 file."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"write_ppm expects (H, W, 3), got {image.shape}")
    h, w = image.shape[:2]
    raw = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(b"P6\n%d %d\n255\n" % (w, h))
            fh.write(raw.tobytes())
    except OSError as err:
        raise OSError(f"cannot write image {path}: {err}") from err


def synthetic_image(size: int, seed: int, channels: int = 3) -> np.ndarray:
    """Seeded random image in [0, 1); the zero-asset input mode."""
    rng = np.random.default_rng(seed)
    return rng.random((size, size, channels), dtype=np.float32)
