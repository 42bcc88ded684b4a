"""Bit-exact binary container for model weights and config.

Layout (all integers little-endian, no padding or alignment gaps):

    magic "MTRC" | u32 version = 1 | u32 meta length | meta JSON bytes
    | u32 entry count
    | per entry: u16 name length, name (ASCII), u8 ndim, u32 dims...,
      u64 payload byte length, raw float32 LE payload (row-major)

The full format reference lives in ``docs/checkpoint_format.md``. Files
are platform-independent; save->load and load->save are bitwise
identities.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, ModelParams, VisionModel
from .ssm import SsmBlockParams, SsmHeadParams

MAGIC = b"MTRC"
VERSION = 1
MAX_NAME_BYTES = 256


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
    """Write the container; surfaces I/O errors with the path attached."""
    meta_bytes = json.dumps(ckpt.meta, sort_keys=True).encode("utf-8") if ckpt.meta else b""
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    chunks.append(struct.pack("<I", len(meta_bytes)))
    chunks.append(meta_bytes)
    chunks.append(struct.pack("<I", len(ckpt.entries)))
    for name, arr in ckpt.entries.items():
        raw_name = _validate_name(name)
        arr = np.asarray(arr, dtype="<f4")
        payload = np.ascontiguousarray(arr).tobytes()
        chunks.append(struct.pack("<H", len(raw_name)))
        chunks.append(raw_name)
        chunks.append(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            chunks.append(struct.pack("<I", dim))
        chunks.append(struct.pack("<Q", len(payload)))
        chunks.append(payload)
    try:
        with open(path, "wb") as fh:
            fh.write(b"".join(chunks))
    except OSError as err:
        raise OSError(f"cannot write checkpoint {path}: {err}") from err


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncationError(
                f"file truncated while reading {what}: needed {n} bytes at "
                f"offset {self.pos}, have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def load(path) -> Checkpoint:
    """Exact inverse of :func:`save`; every corruption mode is a distinct error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise OSError(f"cannot read checkpoint {path}: {err}") from err

    r = _Reader(data)
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

    entries: dict[str, np.ndarray] = {}
    count = r.u32("entry count")
    for i in range(count):
        name_len = r.u16(f"entry {i} name length")
        raw_name = r.take(name_len, f"entry {i} name")
        try:
            name = raw_name.decode("ascii")
        except UnicodeDecodeError as err:
            raise FormatError(f"entry {i} name {raw_name!r} is not ASCII") from err
        ndim = r.u8(f"entry {name!r} ndim")
        shape = tuple(r.u32(f"entry {name!r} dim {d}") for d in range(ndim))
        payload_len = r.u64(f"entry {name!r} payload length")
        expected = math.prod(shape) * 4  # exact: a fixed-width product can wrap
        if payload_len != expected:
            raise ShapeMismatchError(
                f"entry {name!r}: payload {payload_len} bytes does not match "
                f"shape {shape} ({expected} bytes)"
            )
        payload = r.take(payload_len, f"entry {name!r} payload")
        if name in entries:
            raise FormatError(f"duplicate entry name {name!r}")
        try:
            arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
        except ValueError as err:  # over 64 dims, or a zero dim beside huge ones
            raise ShapeMismatchError(f"entry {name!r}: shape {shape} unusable: {err}") from err
        entries[name] = arr.astype(np.float32)  # owned, native-order copy
    if r.pos != len(data):
        raise FormatError(f"{len(data) - r.pos} trailing bytes after last entry")
    return Checkpoint(entries=entries, meta=meta)


def _flatten_params(params: ModelParams) -> dict[str, np.ndarray]:
    entries: dict[str, np.ndarray] = {
        "patch.w": params.patch_w,
        "patch.b": params.patch_b,
    }
    if params.cls_embed is not None:
        entries["cls"] = params.cls_embed
    for i, block in enumerate(params.blocks):
        prefix = f"blocks.{i}"
        entries[f"{prefix}.norm_scale"] = block.norm_scale
        entries[f"{prefix}.norm_bias"] = block.norm_bias
        entries[f"{prefix}.in_proj"] = block.in_proj
        entries[f"{prefix}.out_proj"] = block.out_proj
        for j, head in enumerate(block.heads):
            hp = f"{prefix}.heads.{j}"
            entries[f"{hp}.a_log"] = head.a_log
            entries[f"{hp}.w_b"] = head.w_b
            entries[f"{hp}.w_c"] = head.w_c
            entries[f"{hp}.w_1"] = head.w_1
            entries[f"{hp}.w_2"] = head.w_2
            entries[f"{hp}.skip_d"] = head.skip_d
            entries[f"{hp}.conv_kernel"] = head.conv_kernel
    entries["head.norm_scale"] = params.head_norm_scale
    entries["head.norm_bias"] = params.head_norm_bias
    entries["head.w"] = params.head_w
    entries["head.b"] = params.head_b
    return entries


def model_to_checkpoint(model: VisionModel) -> Checkpoint:
    return Checkpoint(entries=_flatten_params(model.params), meta=model.config.to_json())


def save_model(model: VisionModel, path) -> None:
    save(model_to_checkpoint(model), path)


def _take_entry(entries: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in entries:
        raise ShapeMismatchError(f"checkpoint is missing entry {name!r}")
    return entries[name]


def checkpoint_to_model(ckpt: Checkpoint) -> VisionModel:
    """Rebuild a model; shapes are validated against the embedded config."""
    if not isinstance(ckpt.meta, dict):
        raise FormatError(f"checkpoint meta must be a JSON object, got {type(ckpt.meta).__name__}")
    try:
        config = ModelConfig.from_json(ckpt.meta)
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"checkpoint meta does not describe a model config: {err}") from err
    e = ckpt.entries
    directions = ("forward", "backward")
    try:
        blocks = []
        for i in range(config.depth):
            prefix = f"blocks.{i}"
            heads = [
                SsmHeadParams(
                    a_log=_take_entry(e, f"{prefix}.heads.{j}.a_log"),
                    w_b=_take_entry(e, f"{prefix}.heads.{j}.w_b"),
                    w_c=_take_entry(e, f"{prefix}.heads.{j}.w_c"),
                    w_1=_take_entry(e, f"{prefix}.heads.{j}.w_1"),
                    w_2=_take_entry(e, f"{prefix}.heads.{j}.w_2"),
                    skip_d=_take_entry(e, f"{prefix}.heads.{j}.skip_d"),
                    conv_kernel=_take_entry(e, f"{prefix}.heads.{j}.conv_kernel"),
                    scan_direction=directions[j % 2],
                )
                for j in range(2)
            ]
            blocks.append(
                SsmBlockParams(
                    norm_scale=_take_entry(e, f"{prefix}.norm_scale"),
                    norm_bias=_take_entry(e, f"{prefix}.norm_bias"),
                    in_proj=_take_entry(e, f"{prefix}.in_proj"),
                    out_proj=_take_entry(e, f"{prefix}.out_proj"),
                    heads=heads,
                )
            )
        params = ModelParams(
            patch_w=_take_entry(e, "patch.w"),
            patch_b=_take_entry(e, "patch.b"),
            cls_embed=e.get("cls"),
            blocks=blocks,
            head_norm_scale=_take_entry(e, "head.norm_scale"),
            head_norm_bias=_take_entry(e, "head.norm_bias"),
            head_w=_take_entry(e, "head.w"),
            head_b=_take_entry(e, "head.b"),
        )
        return VisionModel(config, params)
    except ValueError as err:
        raise ShapeMismatchError(f"checkpoint shapes inconsistent with config: {err}") from err


def load_model(path) -> VisionModel:
    return checkpoint_to_model(load(path))
