"""Bit-exact binary container for model weights and config.

Layout (all integers little-endian, no padding or alignment gaps):

    magic "MTRC" | u32 version = 1 | u32 meta length | meta JSON bytes
    | u32 entry count
    | per entry: u16 name length, name (ASCII), u8 ndim, u32 dims...,
      u64 payload byte length, raw float32 LE payload (row-major)

The full format reference lives in ``docs/checkpoint_format.md``. Files
are platform-independent; save->load and load->save are bitwise
identities. Both directions stream: neither holds more than one copy of
the weights.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, ModelParams, VisionModel

MAGIC = b"MTRC"
VERSION = 1
MAX_NAME_BYTES = 256
ALIGN = 64  # byte alignment of every loaded array (of memory, not of the file)

class CheckpointError(Exception):
    """Base class for checkpoint container problems."""


class FormatError(CheckpointError):
    """Wrong magic, unsupported version, or malformed structure."""


class TruncationError(CheckpointError):
    """The file ended before the advertised data did."""


class ShapeMismatchError(CheckpointError):
    """Entry payload or shape inconsistent with what was declared."""


@dataclass
class Checkpoint:
    """Ordered name -> float32 array map plus an embedded JSON meta blob."""

    entries: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _validate_name(name: str) -> bytes:
    try:
        raw = name.encode("ascii")
    except UnicodeEncodeError as err:
        raise FormatError(f"entry name {name!r} is not ASCII") from err
    if not 0 < len(raw) <= MAX_NAME_BYTES:
        raise FormatError(f"entry name {name!r} must be 1..{MAX_NAME_BYTES} bytes")
    return raw


def save(ckpt: Checkpoint, path) -> None:
    """Write the container, streaming each array from its own memory.

    Every entry is checked and converted before the file is opened, so a bad
    one leaves no file. An array that already is C-ordered little-endian
    float32 is written without a copy. I/O errors carry the path.
    """
    meta_bytes = json.dumps(ckpt.meta, sort_keys=True).encode("utf-8") if ckpt.meta else b""
    entries = []
    for name, arr in ckpt.entries.items():
        raw_name = _validate_name(name)
        arr = np.require(arr, "<f4", "C")  # unlike ascontiguousarray, keeps a 0-D shape
        header = struct.pack(f"<H{len(raw_name)}sB{arr.ndim}IQ",
                             len(raw_name), raw_name, arr.ndim, *arr.shape, arr.nbytes)
        entries.append((header, arr))
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<II", VERSION, len(meta_bytes)) + meta_bytes
                     + struct.pack("<I", len(entries)))
            for header, arr in entries:
                fh.write(header)
                fh.write(arr.data)
    except OSError as err:
        raise OSError(f"cannot write checkpoint {path}: {err}") from err


class _Reader:
    """Reads a file's fields in order, refusing one that runs past its end
    before reading or allocating anything for it."""

    def __init__(self, fh, size: int):
        self.fh = fh
        self.size = size
        self.pos = 0

    def _advance(self, n: int, what: str) -> int:
        if n > self.size - self.pos:
            raise TruncationError(
                f"file truncated while reading {what}: needed {n} bytes at "
                f"offset {self.pos}, have {self.size - self.pos}"
            )
        start, self.pos = self.pos, self.pos + n
        return start

    def take(self, n: int, what: str) -> bytes:
        self._advance(n, what)
        out = self.fh.read(n)
        if len(out) != n:  # the file shrank after it was measured
            raise TruncationError(f"file truncated while reading {what}")
        return out

    def skip(self, n: int, what: str) -> int:
        """Step over n bytes; returns the offset they start at."""
        start = self._advance(n, what)
        self.fh.seek(self.pos)
        return start

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def load(path) -> Checkpoint:
    """Exact inverse of :func:`save`; every corruption mode is a distinct error.

    The headers are read first, stepping over the payloads, so a malformed
    file is refused before any payload memory is allocated. The payloads are
    then read straight into one buffer, each at a 64-byte aligned offset:
    every array is a float32 view of it, and the file is never held whole.
    """
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if not stat.S_ISREG(st.st_mode):
                raise CheckpointError(
                    f"checkpoint {path} is not a regular file: its size must be known before reading")
            return _read(fh, st.st_size)
    except OSError as err:
        raise OSError(f"cannot read checkpoint {path}: {err}") from err


def _read(fh, size: int) -> Checkpoint:
    r = _Reader(fh, size)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}, expected {VERSION}")
    meta_len = r.u32("meta length")
    meta_bytes = r.take(meta_len, "meta JSON")
    try:
        meta = json.loads(meta_bytes.decode("utf-8")) if meta_len else {}
    except (ValueError, RecursionError) as err:  # bad UTF-8, bad JSON, nesting too deep
        raise FormatError(f"meta block is not valid UTF-8 JSON: {err}") from err

    # name -> (shape, payload offset in the file, offset in the buffer)
    index: dict[str, tuple[tuple[int, ...], int, int]] = {}
    buf_len = 0
    count = r.u32("entry count")
    for i in range(count):
        name_len = r.u16(f"entry {i} name length")
        raw_name = r.take(name_len, f"entry {i} name")
        try:
            name = raw_name.decode("ascii")
        except UnicodeDecodeError as err:
            raise FormatError(f"entry {i} name {raw_name!r} is not ASCII") from err
        _validate_name(name)  # what save refuses, load refuses
        ndim = r.u8(f"entry {name!r} ndim")
        shape = tuple(r.u32(f"entry {name!r} dim {d}") for d in range(ndim))
        payload_len = r.u64(f"entry {name!r} payload length")
        expected = math.prod(shape) * 4  # exact: a fixed-width product can wrap
        if payload_len != expected:
            raise ShapeMismatchError(
                f"entry {name!r}: payload {payload_len} bytes does not match "
                f"shape {shape} ({expected} bytes)"
            )
        file_at = r.skip(payload_len, f"entry {name!r} payload")
        if name in index:
            raise FormatError(f"duplicate entry name {name!r}")
        buf_at = -(-buf_len // ALIGN) * ALIGN
        index[name] = (shape, file_at, buf_at)
        buf_len = buf_at + payload_len
    if r.pos != size:
        raise FormatError(f"{size - r.pos} trailing bytes after last entry")

    raw = np.empty(buf_len + ALIGN - 1, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGN
    buf = raw[start : start + buf_len]
    entries: dict[str, np.ndarray] = {}
    for name, (shape, file_at, buf_at) in index.items():
        try:
            arr = np.ndarray(shape, "<f4", buffer=buf, offset=buf_at)
        except ValueError as err:  # over 64 dims, or a zero dim beside huge ones
            raise ShapeMismatchError(f"entry {name!r}: shape {shape} unusable: {err}") from err
        fh.seek(file_at)
        if fh.readinto(arr) != arr.nbytes:
            raise TruncationError(f"file truncated while reading entry {name!r} payload")
        entries[name] = arr.astype(np.float32, copy=False)  # a no-op on little-endian hosts
    return Checkpoint(entries=entries, meta=meta)


def model_to_checkpoint(model: VisionModel) -> Checkpoint:
    entries = {entry: arr for entry, _, arr in model.params.arrays()}
    return Checkpoint(entries=entries, meta=model.config.to_json())


def save_model(model: VisionModel, path) -> None:
    save(model_to_checkpoint(model), path)


def checkpoint_to_model(ckpt: Checkpoint) -> VisionModel:
    """Rebuild a model around the loaded arrays, copying none. A missing
    entry, one the model has no place for, or a wrong shape (named as the
    file names it) raises ShapeMismatchError."""
    if not isinstance(ckpt.meta, dict):
        raise FormatError(f"checkpoint meta must be a JSON object, got {type(ckpt.meta).__name__}")
    try:
        config = ModelConfig.from_json(ckpt.meta)
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"checkpoint meta does not describe a model config: {err}") from err
    try:
        params = ModelParams.from_entries(config, ckpt.entries)
    except ValueError as err:
        raise ShapeMismatchError(str(err)) from err
    try:
        return VisionModel(config, params)
    except ValueError as err:
        raise ShapeMismatchError(f"checkpoint entry {err}") from err


def load_model(path) -> VisionModel:
    return checkpoint_to_model(load(path))
