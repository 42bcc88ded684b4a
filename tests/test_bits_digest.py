"""The output bits match the committed digest, compiled and on the numpy fallback.

``tests/bits_digest.json`` fingerprints the logits, token counts, FLOPs and
reduction records of a set of seeded cases (see ``make_bits_digest.py``). A
change that keeps the bits passes unchanged; one that moves them on purpose
regenerates the file and says why.
"""

import json
import struct

import numpy as np
import pytest

from mambapress import kernels
from mambapress.checkpoint import load_model, model_to_checkpoint, save_model
from mambapress.model import VisionModel
from tests.make_bits_digest import CASES, DIGEST_PATH, WEIGHT_SEED, digest

STORED = json.loads(DIGEST_PATH.read_text(encoding="utf-8"))


def check_case(name: str, model: VisionModel | None = None) -> None:
    # layernorm and mean_rows use numpy's own float32 reductions, whose bits
    # may change between numpy versions.
    assert np.__version__ == STORED["numpy"], (
        f"bits_digest.json was made with numpy {STORED['numpy']}, "
        f"this is numpy {np.__version__}")
    got, want = digest(CASES[name], model), STORED["cases"][name]
    for image, (g, w) in enumerate(zip(got, want, strict=True)):
        for key in w:
            assert g[key] == w[key], f"{name}, image {image}: {key} differs"


def test_every_case_is_stored():
    assert list(STORED["cases"]) == list(CASES)


@pytest.mark.parametrize("name", CASES)
def test_compiled(name):
    if kernels._library() is None:
        pytest.skip("no compiled library: the numpy fallback is the kernel")
    check_case(name)


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if case.fallback])
def test_fallback(name, monkeypatch):
    monkeypatch.setattr(kernels, "_library", lambda: None)
    check_case(name)


def format_document_bytes(model: VisionModel) -> bytes:
    """The model's checkpoint laid out as docs/checkpoint_format.md says,
    built without checkpoint.save."""
    ckpt = model_to_checkpoint(model)
    meta = json.dumps(ckpt.meta, sort_keys=True).encode("utf-8")
    out = [b"MTRC", struct.pack("<II", 1, len(meta)), meta, struct.pack("<I", len(ckpt.entries))]
    for name, arr in ckpt.entries.items():
        payload = arr.astype("<f4").tobytes()
        out += [struct.pack("<H", len(name)), name.encode("ascii"), struct.pack("<B", arr.ndim),
                struct.pack(f"<{arr.ndim}I", *arr.shape), struct.pack("<Q", len(payload)), payload]
    return b"".join(out)


@pytest.mark.parametrize("name", ["64-4-32-4-r30-hybrid", "small-r40-hybrid-cls"])
def test_loaded_from_a_checkpoint(name, path, tmp_path):
    # save writes the documented bytes, and a model loaded from them gives
    # the digest's bits, which were recorded from the seeded weights in memory.
    model = VisionModel.seeded(CASES[name].config, WEIGHT_SEED)
    documented, saved = tmp_path / "documented.bin", tmp_path / "saved.bin"
    documented.write_bytes(format_document_bytes(model))
    save_model(model, saved)
    assert saved.read_bytes() == documented.read_bytes()
    check_case(name, load_model(documented))
