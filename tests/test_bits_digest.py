"""The output bits match the committed digest, compiled and on the numpy fallback.

``tests/bits_digest.json`` fingerprints the logits, token counts, FLOPs and
reduction records of a set of seeded cases (see ``make_bits_digest.py``). A
change that keeps the bits passes unchanged; one that moves them on purpose
regenerates the file and says why.
"""

import json

import numpy as np
import pytest

from mambapress import kernels
from tests.make_bits_digest import CASES, DIGEST_PATH, digest

STORED = json.loads(DIGEST_PATH.read_text(encoding="utf-8"))


def check_case(name: str) -> None:
    # layernorm and mean_rows use numpy's own float32 reductions, whose bits
    # may change between numpy versions.
    assert np.__version__ == STORED["numpy"], (
        f"bits_digest.json was made with numpy {STORED['numpy']}, "
        f"this is numpy {np.__version__}")
    got, want = digest(CASES[name]), STORED["cases"][name]
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
