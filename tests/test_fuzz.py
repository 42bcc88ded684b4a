"""Byte-level fuzzing of the two parsers and of the CLI that feeds them.

Every byte string, arbitrary or a mutation of a valid file, either parses
into a well-formed object or raises the parser's own typed error, and
``mambapress run`` maps it to its documented exit code. A second strategy
edits the checkpoint's JSON meta field by field, which byte mutations that
keep the meta length cannot do.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mambapress import checkpoint, cli, ppm
from mambapress.model import ModelConfig, VisionModel

SMALL = ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=2, state_dim=4,
                    class_count=5)
FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """A valid checkpoint and a valid PPM for SMALL, and a scratch file path."""
    root = tmp_path_factory.mktemp("fuzz")
    ckpt = root / "small.bin"
    checkpoint.save_model(VisionModel.seeded(SMALL, seed=3), ckpt)
    image = root / "small.ppm"
    ppm.write_ppm(image, ppm.synthetic_image(SMALL.image_size, seed=4))
    return {"ckpt": ckpt, "ppm": image, "scratch": root / "fuzzed"}


# One edit of a byte string: (kind, offset, bytes). Offsets wrap around the
# length, and small ones, in the headers, come up most often.
EDITS = st.lists(
    st.tuples(st.sampled_from(["overwrite", "insert", "delete", "truncate"]),
              st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
    min_size=1, max_size=4,
)


def mutate(data: bytes, edits) -> bytes:
    for kind, offset, chunk in edits:
        at = offset % (len(data) + 1)
        if kind == "overwrite":
            data = data[:at] + chunk + data[at + len(chunk):]
        elif kind == "insert":
            data = data[:at] + chunk + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + len(chunk):]
        else:
            data = data[:at]
    return data


def fuzzed_bytes(seed_name: str):
    """Arbitrary bytes, or the named seed file with a few edits."""
    return st.one_of(
        st.binary(max_size=512).map(lambda raw: (None, raw)),
        EDITS.map(lambda edits: (seed_name, edits)),
    )


def materialise(seeds, drawn) -> bytes:
    name, payload = drawn
    data = payload if name is None else mutate(seeds[name].read_bytes(), payload)
    seeds["scratch"].write_bytes(data)
    return data


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def load_or_error(path):
    try:
        return checkpoint.load(path)
    except checkpoint.CheckpointError as err:
        return err


def read_or_error(path):
    try:
        return ppm.read_ppm(path)
    except ppm.PpmError as err:
        return err


@FUZZ
@given(drawn=fuzzed_bytes("ckpt"))
def test_checkpoint_load_returns_checkpoint_or_typed_error(seeds, drawn):
    materialise(seeds, drawn)
    got = load_or_error(seeds["scratch"])
    if isinstance(got, checkpoint.Checkpoint):
        for arr in got.entries.values():
            assert arr.dtype == np.float32 and arr.flags.c_contiguous


@FUZZ
@given(drawn=fuzzed_bytes("ppm"))
def test_read_ppm_returns_image_or_typed_error(seeds, drawn):
    materialise(seeds, drawn)
    got = read_or_error(seeds["scratch"])
    if isinstance(got, np.ndarray):
        assert got.dtype == np.float32 and got.ndim == 3 and got.shape[2] == 3
        assert got.size and np.all((got >= 0.0) & (got <= 1.0))


@settings(FUZZ, max_examples=60)
@given(drawn=fuzzed_bytes("ckpt"))
def test_run_with_fuzzed_checkpoint_exits_0_or_3(seeds, drawn):
    data = materialise(seeds, drawn)
    code = run_cli(["run", "--ckpt", str(seeds["scratch"]), "--synthetic", "1"])
    # Edits inside a float payload can make weights non-finite: a numeric
    # failure, exit 4. The parser itself only ever yields 0 or 3.
    if code == 4:
        assert isinstance(load_or_error(seeds["scratch"]), checkpoint.Checkpoint)
    else:
        assert code in (0, 3), data[:64]


@settings(FUZZ, max_examples=60)
@given(drawn=fuzzed_bytes("ppm"))
def test_run_with_fuzzed_image_exits_0_or_3(seeds, drawn):
    materialise(seeds, drawn)
    want = 3
    image = read_or_error(seeds["scratch"])
    if isinstance(image, np.ndarray):
        # A well-formed image of the wrong size is a flag error (exit 2).
        want = 0 if image.shape == (SMALL.image_size,) * 2 + (3,) else 2
    code = run_cli(["run", "--ckpt", str(seeds["ckpt"]), "--image", str(seeds["scratch"])])
    assert code == want


# Values a config field may be given: sizes at and around the limits
# (512 px at 4 px patches is the most patch tokens a config may ask for),
# other JSON types, and containers of them.
SIZES = [-1, 0, 1, 2, 3, 4, 5, 8, 16, 64, 512, 516, 2**20, 2**31, 2**40, 2**63, 2**64 + 1]
LEAVES = st.one_of(
    st.none(), st.booleans(), st.sampled_from(SIZES), st.floats(),
    st.text(max_size=8), st.sampled_from(["middle", "front", "none"]),
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
META_EDITS = st.lists(
    st.tuples(
        st.sampled_from([*sorted(SMALL.to_json()), "unknown_field"]),
        st.one_of(
            st.sampled_from(SIZES).map(lambda v: ("set", v)),
            VALUES.map(lambda v: ("set", v)),
            st.just(("delete", None)),
            st.integers(1, 5000).map(lambda depth: ("nest", depth)),
            st.integers(1, 1 << 17).map(lambda length: ("long", length)),
        ),
    ),
    min_size=1, max_size=3,
)


def edit_meta(data: bytes, edits) -> bytes:
    """A checkpoint's bytes with its meta edited field by field: a value set,
    the field deleted, nested ``depth`` lists deep, or a long string."""
    (meta_len,) = struct.unpack_from("<I", data, 8)
    doc = json.loads(data[12:12 + meta_len])
    nested = {}
    for name, (kind, arg) in edits:
        if kind == "set":
            doc[name] = arg
        elif kind == "delete":
            doc.pop(name, None)
        elif kind == "long":
            doc[name] = "x" * arg
        else:
            doc[name] = marker = f"@nest{len(nested)}@"
            nested[json.dumps(marker)] = "[" * arg + "1" + "]" * arg
    text = json.dumps(doc, sort_keys=True)
    for marker, value in nested.items():
        text = text.replace(marker, value)
    meta = text.encode()
    return data[:8] + struct.pack("<I", len(meta)) + meta + data[12 + meta_len:]


@settings(FUZZ, max_examples=60)
@given(edits=META_EDITS)
@example(edits=[("image_size", ("set", 2**20))])
@example(edits=[("image_size", ("set", 2**40))])
def test_run_with_edited_meta_exits_0_3_or_4(seeds, edits):
    data = edit_meta(seeds["ckpt"].read_bytes(), edits)
    seeds["scratch"].write_bytes(data)
    code = run_cli(["run", "--ckpt", str(seeds["scratch"]), "--synthetic", "1"])
    assert code in (0, 3, 4), data[12:200]
