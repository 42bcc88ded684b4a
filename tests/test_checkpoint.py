"""Container byte layout, round trips, and corruption diagnostics."""

import json
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from mambapress.checkpoint import (
    ALIGN,
    Checkpoint,
    FormatError,
    ShapeMismatchError,
    TruncationError,
    checkpoint_to_model,
    load,
    load_model,
    model_to_checkpoint,
    save,
    save_model,
)
from mambapress.model import CLS_POSITIONS, TOP_ARRAYS, ModelConfig, ModelParams, VisionModel
from mambapress.ssm import BLOCK_SHAPES, DIRECTIONS, HEAD_SHAPES, SsmBlockParams, SsmHeadParams


class TestByteLayout:
    def test_empty_checkpoint_is_exactly_16_bytes(self, tmp_path):
        path = tmp_path / "empty.bin"
        save(Checkpoint(), path)
        data = path.read_bytes()
        assert len(data) == 16
        assert data == b"MTRC" + struct.pack("<I", 1) + struct.pack("<I", 0) + struct.pack("<I", 0)

    def test_single_entry_fixture(self, tmp_path):
        path = tmp_path / "one.bin"
        save(Checkpoint(entries={"w": np.array([1.0, 2.0], dtype=np.float32)}), path)
        expected = (
            b"MTRC"
            + struct.pack("<I", 1)  # version
            + struct.pack("<I", 0)  # meta length
            + struct.pack("<I", 1)  # entry count
            + struct.pack("<H", 1)  # name length
            + b"w"
            + struct.pack("<B", 1)  # ndim
            + struct.pack("<I", 2)  # dim 0
            + struct.pack("<Q", 8)  # payload bytes
            + bytes([0x00, 0x00, 0x80, 0x3F, 0x00, 0x00, 0x00, 0x40])  # 1.0, 2.0 LE
        )
        assert path.read_bytes() == expected

    def test_meta_is_embedded_json(self, tmp_path):
        path = tmp_path / "meta.bin"
        save(Checkpoint(meta={"alpha": 1}), path)
        data = path.read_bytes()
        meta_len = struct.unpack("<I", data[8:12])[0]
        assert json.loads(data[12 : 12 + meta_len]) == {"alpha": 1}


class TestRoundTrip:
    def test_random_checkpoints_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(25):
            entries = {}
            for i in range(int(rng.integers(0, 8))):
                ndim = int(rng.integers(1, 4))
                shape = tuple(int(s) for s in rng.integers(1, 6, size=ndim))
                entries[f"entry.{trial}.{i}"] = rng.standard_normal(shape).astype(np.float32)
            ckpt = Checkpoint(entries=entries, meta={"trial": trial})
            path = tmp_path / f"rt{trial}.bin"
            save(ckpt, path)
            back = load(path)
            assert back.meta == ckpt.meta
            assert list(back.entries) == list(ckpt.entries)
            for name, arr in ckpt.entries.items():
                assert back.entries[name].shape == arr.shape
                assert np.array_equal(
                    back.entries[name].view(np.uint32), arr.view(np.uint32)
                )

    def test_save_load_save_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        ckpt = Checkpoint(
            entries={"a": rng.standard_normal((3, 4)).astype(np.float32)},
            meta={"k": [1, 2]},
        )
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save(ckpt, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_special_values_survive(self, tmp_path):
        vals = np.array([0.0, -0.0, 1e-38, -1e38, 3.14159], dtype=np.float32)
        path = tmp_path / "special.bin"
        save(Checkpoint(entries={"v": vals}), path)
        assert np.array_equal(load(path).entries["v"].view(np.uint32), vals.view(np.uint32))


class TestErrors:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            load(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v9.bin"
        path.write_bytes(b"MTRC" + struct.pack("<I", 9) + bytes(8))
        with pytest.raises(FormatError, match="version 9"):
            load(path)

    def test_truncated_payload_names_entry(self, tmp_path):
        good = tmp_path / "good.bin"
        save(Checkpoint(entries={"weights": np.ones((4, 4), dtype=np.float32)}), good)
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(good.read_bytes()[:-10])
        with pytest.raises(TruncationError, match="weights"):
            load(clipped)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.bin"
        path.write_bytes(b"MTRC\x01")
        with pytest.raises(TruncationError):
            load(path)

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "short.bin"
        body = (
            b"MTRC"
            + struct.pack("<I", 1)
            + struct.pack("<I", 0)
            + struct.pack("<I", 1)
            + struct.pack("<H", 1)
            + b"w"
            + struct.pack("<B", 1)
            + struct.pack("<I", 3)  # claims 3 floats
            + struct.pack("<Q", 8)  # but 8 payload bytes
            + bytes(8)
        )
        path.write_bytes(body)
        with pytest.raises(ShapeMismatchError, match="w"):
            load(path)

    @pytest.mark.parametrize("length", [0, 257])
    def test_entry_name_length_save_refuses(self, tmp_path, length):
        # save(load(f)) is the identity, so load refuses what save would.
        path = tmp_path / "name.bin"
        body = (b"MTRC" + struct.pack("<III", 1, 0, 1) + struct.pack("<H", length)
                + b"w" * length + struct.pack("<BIQ", 1, 1, 4) + bytes(4))
        path.write_bytes(body)
        with pytest.raises(FormatError, match=r"must be 1\.\.256 bytes"):
            load(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "extra.bin"
        save(Checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="nope.bin"):
            load(tmp_path / "nope.bin")


class TestModelCheckpoints:
    def test_model_round_trip_reproduces_logits_bitwise(self, tmp_path):
        cfg = ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=3, state_dim=4)
        model = VisionModel.seeded(cfg, seed=5)
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.config == cfg
        img = np.random.default_rng(6).random((16, 16, 3), dtype=np.float32)
        a, _ = model.forward(img)
        b, _ = back.forward(img)
        assert np.array_equal(a, b)

    def test_shape_inconsistency_detected(self, tmp_path):
        cfg = ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=2, state_dim=4)
        model = VisionModel.seeded(cfg, seed=7)
        path = tmp_path / "model.bin"
        save_model(model, path)
        ckpt = load(path)
        ckpt.entries["head.w"] = np.zeros((3, 3), dtype=np.float32)
        mangled = tmp_path / "mangled.bin"
        save(ckpt, mangled)
        with pytest.raises(ShapeMismatchError):
            load_model(mangled)

    def test_missing_entry_detected(self, tmp_path):
        cfg = ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=2, state_dim=4)
        model = VisionModel.seeded(cfg, seed=8)
        path = tmp_path / "model.bin"
        save_model(model, path)
        ckpt = load(path)
        del ckpt.entries["patch.b"]
        mangled = tmp_path / "mangled.bin"
        save(ckpt, mangled)
        with pytest.raises(ShapeMismatchError, match="patch.b"):
            load_model(mangled)


def array_fields(cls, *others: str) -> list[str]:
    return [f.name for f in fields(cls) if f.init and f.name not in others]


class TestShapeTables:
    """The shape tables list every weight array, so an array added to a
    params class without a table entry fails here."""

    def test_tables_name_the_array_fields_in_order(self):
        assert list(HEAD_SHAPES) == array_fields(SsmHeadParams, "scan_direction")
        assert list(BLOCK_SHAPES) == array_fields(SsmBlockParams, "heads")
        assert list(TOP_ARRAYS) == array_fields(ModelParams, "blocks")

    @pytest.mark.parametrize("cls_position", CLS_POSITIONS)
    def test_saved_entry_names_are_the_tables(self, cls_position):
        # The format document's names of the arrays outside the blocks; the
        # blocks sit where ModelParams has its blocks field.
        top_entries = {"patch_w": "patch.w", "patch_b": "patch.b", "cls_embed": "cls",
                       "head_norm_scale": "head.norm_scale", "head_norm_bias": "head.norm_bias",
                       "head_w": "head.w", "head_b": "head.b"}
        assert {name: entry for name, (entry, _) in TOP_ARRAYS.items()} == top_entries
        config = ModelConfig(16, 4, 8, 3, state_dim=4, cls_position=cls_position)
        names = []
        for field in array_fields(ModelParams):
            if field == "blocks":
                for i in range(config.depth):
                    names += [f"blocks.{i}.{f}" for f in BLOCK_SHAPES]
                    names += [f"blocks.{i}.heads.{j}.{f}"
                              for j in range(len(DIRECTIONS)) for f in HEAD_SHAPES]
            elif field != "cls_embed" or config.cls_slot is not None:
                names.append(top_entries[field])
        params = VisionModel.seeded(config, seed=11).params
        assert [entry for entry, _, _ in params.arrays()] == names


def allocated_at_peak(fn, *args):
    """fn(*args) and the most bytes it had allocated at once beyond what was
    live before it; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


MEMORY_CONFIG = ModelConfig(image_size=32, patch_size=4, feat_dim=64, depth=4, state_dim=8)


class TestMemory:
    """save and load each hold at most one copy of the weights."""

    def test_save_allocates_well_under_a_copy_of_the_weights(self, tmp_path):
        model = VisionModel.seeded(MEMORY_CONFIG, seed=1)
        weight_bytes = 4 * MEMORY_CONFIG.weight_count
        _, peak = allocated_at_peak(save_model, model, tmp_path / "m.bin")
        assert peak < weight_bytes / 4, (peak, weight_bytes)

    def test_load_allocates_the_payloads_and_a_little_slack(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(VisionModel.seeded(MEMORY_CONFIG, seed=1), path)
        ckpt, peak = allocated_at_peak(load, path)
        payload = sum(arr.nbytes for arr in ckpt.entries.values())
        assert payload == 4 * MEMORY_CONFIG.weight_count
        # Alignment pads each entry by under ALIGN bytes; the rest is the
        # entry objects and the headers, about 1 kB an entry.
        assert peak <= payload + (ALIGN + 1024) * (len(ckpt.entries) + 1), (peak, payload)

    def test_a_loaded_model_holds_the_loaded_arrays(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(VisionModel.seeded(MEMORY_CONFIG, seed=1), path)
        ckpt = load(path)
        model = checkpoint_to_model(ckpt)
        held = {entry: arr for entry, _, arr in model.params.arrays()}
        assert list(held) == list(ckpt.entries)
        assert all(held[entry] is arr for entry, arr in ckpt.entries.items())

    @pytest.mark.parametrize("body", [
        struct.pack("<III", 1, 0, 2**32 - 1),  # 2**32 - 1 entries, none present
        struct.pack("<III", 1, 2**32 - 1, 0),  # a 4 GiB meta block
        struct.pack("<III", 1, 0, 1) + struct.pack("<H", 1) + b"w"
        + struct.pack("<BIIQ", 2, 2**19, 2**19, 2**40),  # a 1 TiB payload
    ], ids=["entry-count", "meta-length", "payload-length"])
    def test_hostile_header_raises_without_a_large_allocation(self, tmp_path, body):
        path = tmp_path / "hostile.bin"
        path.write_bytes(b"MTRC" + body)
        assert 16 <= path.stat().st_size <= 64

        def load_error(p):
            with pytest.raises(TruncationError) as info:
                load(p)
            return info.value

        _, peak = allocated_at_peak(load_error, path)
        assert peak < 64 * 1024


class TestLayout:
    def test_loaded_arrays_are_aligned_writable_float32(self, tmp_path):
        entries = {**model_to_checkpoint(VisionModel.seeded(MEMORY_CONFIG, seed=2)).entries,
                   "scalar": np.float32(2.5), "empty": np.zeros((0, 3), np.float32),
                   "odd": np.arange(5, dtype=np.float32)}
        path = tmp_path / "m.bin"
        save(Checkpoint(entries=entries), path)
        back = load(path).entries
        for name, arr in entries.items():
            got = back[name]
            assert got.shape == np.shape(arr) and np.array_equal(got, arr), name
            assert got.dtype == np.float32, name
            assert got.flags.c_contiguous and got.flags.writeable, name
            assert got.ctypes.data % ALIGN == 0, name

    def test_save_converts_without_changing_the_bytes(self, tmp_path):
        # float64, big-endian, Fortran-ordered and strided arrays are written
        # as the C-ordered little-endian float32 values they hold.
        want = np.arange(6, dtype=np.float32).reshape(3, 2)
        paths = []
        for i, arr in enumerate([want, want.astype(np.float64), want.astype(">f4"),
                                 np.asfortranarray(want), np.repeat(want, 2, axis=1)[:, ::2]]):
            paths.append(tmp_path / f"{i}.bin")
            save(Checkpoint(entries={"w": arr}), paths[-1])
        assert len({p.read_bytes() for p in paths}) == 1
