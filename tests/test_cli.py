"""CLI surface: exit codes, report schema, CSV shape, mask rendering, PPM."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mambapress import cli, kernels
from mambapress.checkpoint import Checkpoint, CheckpointError, load, save, save_model
from mambapress.importance import Indicator
from mambapress.mask import TINT, render_mask
from mambapress.model import ModelConfig, VisionModel
from mambapress.ppm import PpmError, read_ppm, synthetic_image, write_ppm
from mambapress.reduction import Strategy

SMALL_FLAGS = [
    "--image-size", "16", "--patch-size", "4", "--dim", "8",
    "--depth", "4", "--state-dim", "4", "--classes", "5",
]

# The config of tests/test_fuzz.py.
FUZZ_CONFIG = ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=2, state_dim=4,
                          class_count=5)


@pytest.fixture()
def small_ckpt(tmp_path, capsys):
    path = tmp_path / "small.bin"
    assert cli.main(["init", "--out", str(path), *SMALL_FLAGS, "--seed", "3"]) == 0
    capsys.readouterr()  # drain the "wrote ..." line
    return path


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestPpm:
    def test_round_trip(self, tmp_path):
        img = synthetic_image(12, seed=1)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (12, 12, 3)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-6

    def test_write_read_exact_bytes(self, tmp_path):
        img = synthetic_image(8, seed=2)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(p1, img)
        write_ppm(p2, read_ppm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_comments_ok(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes([0, 0, 0, 255, 255, 255]))
        img = read_ppm(path)
        assert img.shape == (1, 2, 3)
        assert img[0, 1, 0] == pytest.approx(1.0)

    def test_rejects_non_p6(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(PpmError, match="P6"):
            read_ppm(path)

    def test_rejects_short_pixel_data(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(PpmError, match="pixel bytes"):
            read_ppm(path)

    @pytest.mark.parametrize("size", [b"-2 2", b"2 -2", b"0 2", b"2 0"])
    def test_rejects_non_positive_size(self, tmp_path, size):
        path = tmp_path / "size.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(12))
        with pytest.raises(PpmError, match="must be positive"):
            read_ppm(path)


def crafted_checkpoint(meta: bytes = b"", name: bytes = b"w", dims=(1,), payload_len=None) -> bytes:
    """One-entry container bytes with every field under the caller's control."""
    payload = bytes(4)
    entry = struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
    entry += b"".join(struct.pack("<I", d) for d in dims)
    entry += struct.pack("<Q", len(payload) if payload_len is None else payload_len) + payload
    header = b"MTRC" + struct.pack("<II", 1, len(meta)) + meta
    return header + struct.pack("<I", 1) + entry


class TestCraftedCheckpoints:
    """Malformed containers fail as I/O errors (exit 3), never as flag errors."""

    @pytest.mark.parametrize(
        "data",
        [
            # 65536**4 wraps a 64-bit product to 0, matching a 0-byte payload.
            crafted_checkpoint(dims=(65536,) * 4, payload_len=0),
            crafted_checkpoint(name=b"w\xe9"),
            crafted_checkpoint(meta=b'{"a": "\xff"}'),
            crafted_checkpoint(meta=b"[" * 200000),
            crafted_checkpoint(dims=(0,) + (2**32 - 1,) * 3, payload_len=0),
            crafted_checkpoint(dims=(1,) * 65),
            crafted_checkpoint(meta=b"[1, 2]"),
            crafted_checkpoint(meta=b'{"depth": 2, "feat_dim": 8, "image_size": 8, "patch_size": 0}'),
            crafted_checkpoint(meta=b'{"depth": 2.5, "feat_dim": 8, "image_size": 8, "patch_size": 4}'),
        ],
        ids=["dims_wrap_int64", "non_ascii_name", "meta_not_utf8", "meta_deep_nesting",
             "zero_dim_beside_huge", "more_than_64_dims", "meta_not_an_object",
             "config_patch_size_zero", "config_depth_not_int"],
    )
    def test_run_exits_3(self, capsys, tmp_path, data):
        path = tmp_path / "crafted.bin"
        path.write_bytes(data)
        assert cli.main(["run", "--ckpt", str(path)]) == 3
        assert "error" in capsys.readouterr().err


def with_meta(ckpt_path, **changes) -> bytes:
    """A valid checkpoint's bytes with fields of its config meta replaced."""
    data = ckpt_path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", data, 8)
    meta = json.loads(data[12:12 + meta_len])
    meta.update(changes)
    new_meta = json.dumps(meta, sort_keys=True).encode()
    return data[:8] + struct.pack("<I", len(new_meta)) + new_meta + data[12 + meta_len:]


class TestHugeImageSize:
    """No weight depends on the image size, so a config asking for a huge
    image passes every shape check; the patch-token bound rejects it."""

    @pytest.mark.parametrize("size", [2**20, 2**40])
    def test_run_synthetic_exits_3(self, capsys, small_ckpt, tmp_path, size):
        path = tmp_path / "huge.bin"
        path.write_bytes(with_meta(small_ckpt, image_size=size))
        assert cli.main(["run", "--ckpt", str(path), "--synthetic", "1"]) == 3
        assert "patch tokens" in capsys.readouterr().err


class TestHugePatchSize:
    """One patch token can still ask for huge weights: each patch input is a
    row of the patch projection, so the patch-input bound rejects the config
    before any weight is drawn."""

    HUGE = ["--image-size", "4096", "--patch-size", "4096"]

    def test_init_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.bin"
        assert cli.main(["init", "--out", str(path), *self.HUGE]) == 2
        assert "patch inputs" in capsys.readouterr().err
        assert not path.exists()

    def test_bench_exits_2(self, capsys):
        assert cli.main(["bench", *self.HUGE, "--ratios", "0"]) == 2
        assert "patch inputs" in capsys.readouterr().err

    def test_checkpoint_exits_3(self, capsys, small_ckpt, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(with_meta(small_ckpt, image_size=4096, patch_size=4096))
        assert cli.main(["run", "--ckpt", str(path), "--synthetic", "1"]) == 3
        assert "patch inputs" in capsys.readouterr().err


class TestHugeWeightCount:
    """Flags alone can ask for any number of weights; the weight bound
    rejects the config before any weight is drawn."""

    @pytest.mark.parametrize(
        "flags", [["--dim", "100000000"], ["--depth", "100000000", "--dim", "8"]],
        ids=["dim", "depth"],
    )
    def test_init_exits_2(self, capsys, tmp_path, flags):
        path = tmp_path / "huge.bin"
        assert cli.main(["init", "--out", str(path), *flags]) == 2
        assert "weights" in capsys.readouterr().err
        assert not path.exists()

    def test_bench_exits_2(self, capsys):
        assert cli.main(["bench", "--dim", "100000000", "--ratios", "0"]) == 2
        assert "weights" in capsys.readouterr().err

    def test_checkpoint_exits_3(self, capsys, small_ckpt, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(with_meta(small_ckpt, feat_dim=100000000))
        assert cli.main(["run", "--ckpt", str(path), "--synthetic", "1"]) == 3
        assert "weights" in capsys.readouterr().err


def test_narrow_conv_kernels_exit_3(capsys, small_ckpt, tmp_path):
    # The FLOPs model counts 4 conv taps; 2-tap kernels would run and book
    # other FLOPs than it reports.
    ckpt = load(small_ckpt)
    for name in [n for n in ckpt.entries if n.endswith(".conv_kernel")]:
        ckpt.entries[name] = ckpt.entries[name][:, 2:].copy()
    path = tmp_path / "narrow.bin"
    save(ckpt, path)
    assert cli.main(["run", "--ckpt", str(path), "--synthetic", "1"]) == 3
    assert "conv width" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["blocks.0.heads.0.dt_bias", "blocks.0.heads.2.a_log", "blocks.7.in_proj"]
)
def test_entries_without_a_place_exit_3(capsys, small_ckpt, tmp_path, name):
    # A head array the model lacks, a third head, a block past the depth.
    ckpt = load(small_ckpt)
    ckpt.entries[name] = np.zeros(16, dtype=np.float32)
    path = tmp_path / "extra.bin"
    save(ckpt, path)
    assert cli.main(["run", "--ckpt", str(path), "--synthetic", "1"]) == 3
    assert name in capsys.readouterr().err


def malformed(arr: np.ndarray, kind: str) -> list[np.ndarray]:
    """Replacements for a weight entry of another rank, or one element longer
    on one axis. A 1-D entry gets no 1-D replacement: it would be the same."""
    if kind == "0-D":
        return [np.array(0.5, dtype=np.float32)]
    if kind == "1-D":
        return [] if arr.ndim == 1 else [arr.reshape(-1)]
    if kind == "3-D":
        return [arr.reshape((1,) * (3 - arr.ndim) + arr.shape)]
    longer = []
    for axis in range(arr.ndim):
        shape = list(arr.shape)
        shape[axis] += 1
        longer.append(np.ones(shape, dtype=np.float32))
    return longer


@pytest.mark.parametrize("kind", ["0-D", "1-D", "3-D", "one longer axis"])
def test_malformed_entries_exit_3_naming_the_entry(capsys, tmp_path, kind):
    # Each entry of a depth-1 checkpoint, one at a time: a scalar norm bias
    # used to run, a longer one failed in the forward pass (exit 2), and a
    # low-rank timescale projection, a norm scale or an out-projection of
    # too low a rank raised IndexError out of cli.main.
    good = tmp_path / "depth1.bin"
    assert cli.main(["init", "--out", str(good), *SMALL_FLAGS, "--depth", "1"]) == 0
    ckpt = load(good)
    failures = []
    for name, arr in ckpt.entries.items():
        for bad in malformed(arr, kind):
            path = tmp_path / "bad.bin"
            save(Checkpoint(entries={**ckpt.entries, name: bad}, meta=ckpt.meta), path)
            capsys.readouterr()
            code = cli.main(["run", "--ckpt", str(path), "--synthetic", "1"])
            err = capsys.readouterr().err
            if code != 3 or f"{name} shape {bad.shape}" not in err:
                failures.append((name, bad.shape, code, err))
    assert failures == []


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
def test_checkpoint_from_a_pipe_exits_3(capsys, small_ckpt):
    # The reader bounds every read by the file's size, so a pipe, which has
    # none, is refused with a typed error rather than read.
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, small_ckpt.read_bytes()[:4096])
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        with pytest.raises(CheckpointError, match="not a regular file"):
            load(path)
        assert cli.main(["run", "--ckpt", path, "--synthetic", "1"]) == 3
        assert "not a regular file" in capsys.readouterr().err
    finally:
        os.close(read_end)


def test_nan_weight_exits_4(capsys, small_ckpt, tmp_path):
    # A NaN in a timescale projection reaches the scan's timescales before
    # any activation check: still a numeric failure, not a flag error.
    ckpt = load(small_ckpt)
    ckpt.entries["blocks.0.heads.1.w_1"][0, 0] = np.nan
    path = tmp_path / "nan.bin"
    save(ckpt, path)
    assert cli.main(["run", "--ckpt", str(path), "--synthetic", "1"]) == 4
    assert "numeric failure" in capsys.readouterr().err


class TestRenderMask:
    def test_no_reduction_is_pixel_identical(self):
        img = synthetic_image(8, seed=3)
        out = render_mask(img, 2, [], [0, 1, 2, 3], [], cls_orig=None)
        assert np.array_equal(out, img)

    def test_all_source_blacks_out_grid(self):
        img = synthetic_image(8, seed=4)
        out = render_mask(img, 2, [], [], list(range(16)), cls_orig=None)
        assert np.array_equal(out, np.zeros_like(img))

    def test_group_tints(self):
        img = np.full((4, 4, 3), 0.5, dtype=np.float32)
        out = render_mask(img, 2, [0], [1], [2], cls_orig=None)
        red = (1 - TINT) * 0.5 + TINT * np.array([1.0, 0.0, 0.0])
        blue = (1 - TINT) * 0.5 + TINT * np.array([0.0, 0.0, 1.0])
        assert np.allclose(out[0:2, 0:2], red, atol=1e-6)
        assert np.allclose(out[0:2, 2:4], blue, atol=1e-6)
        assert np.array_equal(out[2:4, 0:2], np.zeros((2, 2, 3), dtype=np.float32))
        assert np.allclose(out[2:4, 2:4], 0.5)

    def test_cls_slot_skipped_in_grid_mapping(self):
        img = np.full((4, 4, 3), 0.25, dtype=np.float32)
        # cls occupies original index 2; original index 3 is patch 2.
        out = render_mask(img, 2, [3], [], [0], cls_orig=2)
        assert np.allclose(out[1 * 0 : 2, 0:2], 0.0)  # patch 0 blacked
        red = (1 - TINT) * 0.25 + TINT * np.array([1.0, 0.0, 0.0])
        assert np.allclose(out[2:4, 0:2], red, atol=1e-6)  # patch 2 tinted


    @pytest.mark.parametrize("cls_orig", [None, 2])
    @pytest.mark.parametrize("group", ["kept", "target", "source"])
    def test_negative_index_is_outside_the_grid(self, group, cls_orig):
        img = synthetic_image(8, seed=5)
        groups = {"kept": [], "target": [], "source": [0], group: [-1]}
        with pytest.raises(ValueError, match="original index -1 outside the patch grid"):
            render_mask(img, 4, groups["kept"], groups["target"], groups["source"], cls_orig)

    def test_error_names_the_callers_index_past_the_cls_slot(self):
        img = synthetic_image(8, seed=5)
        with pytest.raises(ValueError, match="original index 6 outside the patch grid"):
            render_mask(img, 4, [6], [], [], cls_orig=2)

    def test_nothing_removed_returns_before_checking_indices(self):
        img = synthetic_image(8, seed=5)
        assert np.array_equal(render_mask(img, 4, [], [-1, 4], [], cls_orig=None), img)


class TestInitAndRun:
    def test_run_zero_target(self, capsys, small_ckpt):
        code, report = run_json(
            capsys,
            ["run", "--ckpt", str(small_ckpt), "--synthetic", "1",
             "--target-reduction", "0", "--layers", "1,2", "--json"],
        )
        assert code == 0
        assert report["schema_version"] == 1
        assert report["flops"]["achieved_reduction"] == 0.0
        assert report["token_counts"] == [17] * 5
        assert len(report["logits"]) == 5
        assert report["plan"]["k"] == 0.0

    def test_run_reduces_and_recomputes_achieved(self, capsys, small_ckpt):
        code, report = run_json(
            capsys,
            ["run", "--ckpt", str(small_ckpt), "--synthetic", "1",
             "--target-reduction", "0.3", "--layers", "0,1,2", "--json"],
        )
        assert code == 0
        counts = report["token_counts"]
        assert counts[0] == 17 and counts[-1] < 17
        assert 0.0 < report["flops"]["achieved_reduction"] < 1.0
        assert report["flops"]["achieved_reduction"] == pytest.approx(
            report["plan"]["achieved"], abs=1e-9
        )

    def test_run_on_ppm_file(self, capsys, small_ckpt, tmp_path):
        img_path = tmp_path / "in.ppm"
        write_ppm(img_path, synthetic_image(16, seed=9))
        code, report = run_json(
            capsys,
            ["run", "--ckpt", str(small_ckpt), "--image", str(img_path), "--json"],
        )
        assert code == 0
        assert report["top_class"] in range(5)

    def test_missing_checkpoint_is_io_error(self, capsys, tmp_path):
        code = cli.main(["run", "--ckpt", str(tmp_path / "absent.bin")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_bad_flag_exits_2(self, capsys):
        assert cli.main(["run", "--ckpt", "x", "--target-reduction", "abc"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert cli.main(["run", "--definitely-not-a-flag"]) == 2

    def test_config_flags_reach_the_checkpoint(self, capsys, tmp_path):
        path = tmp_path / "model.bin"
        assert cli.main(
            ["init", "--out", str(path), "--image-size", "24", "--patch-size", "6", "--dim", "12",
             "--depth", "3", "--expand", "3", "--state-dim", "5", "--delta-rank", "2",
             "--cls", "front", "--classes", "4", "--seed", "7"]
        ) == 0
        want = ModelConfig(image_size=24, patch_size=6, feat_dim=12, depth=3, expand=3,
                           state_dim=5, delta_rank=2, cls_position="front", class_count=4)
        assert load(path).meta == dataclasses.asdict(want)
        # Every flag above differs from its default, so a flag stored under
        # the wrong name would fall back to the default and fail the check.
        default = cli._config_from_args(cli.build_parser().parse_args(["init", "--out", "x"]))
        differ = {f.name for f in dataclasses.fields(ModelConfig)
                  if getattr(want, f.name) != getattr(default, f.name)}
        assert differ == {f.name for f in dataclasses.fields(ModelConfig)} - {"channels"}

    def test_mismatched_image_size_exits_2(self, capsys, small_ckpt, tmp_path):
        img_path = tmp_path / "big.ppm"
        write_ppm(img_path, synthetic_image(32, seed=10))
        code = cli.main(["run", "--ckpt", str(small_ckpt), "--image", str(img_path)])
        assert code == 2


def test_run_without_a_compiler_matches_the_compiled_run(capsys, small_ckpt, tmp_path):
    # An empty PATH has no gcc and an empty cache has no library, so the
    # subprocess builds none and runs every kernel on the numpy fallback.
    if kernels._library() is None:
        pytest.skip("no compiled library: the numpy fallback is the kernel")
    argv = ["run", "--ckpt", str(small_ckpt), "--synthetic", "2", "--json",
            "--target-reduction", "0.2", "--layers", "0,1,2"]
    code, want = run_json(capsys, argv)
    assert code == 0 and want["token_counts"][-1] < want["token_counts"][0]
    empty, cache = tmp_path / "bin", tmp_path / "cache"
    empty.mkdir()
    cache.mkdir()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PATH=str(empty), XDG_CACHE_HOME=str(cache), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "mambapress.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    for key in ("logits", "token_counts", "flops"):
        assert got[key] == want[key], key
    assert list(cache.rglob("*.so")) == []


class TestBench:
    def test_single_ratio_csv(self, capsys, small_ckpt):
        code = cli.main(
            ["bench", "--ckpt", str(small_ckpt), "--ratios", "0",
             "--repeats", "2", "--warmup", "0", "--layers", "1,2"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "ratio,k,achieved,throughput_mean,throughput_std,total_flops"
        fields = out[1].split(",")
        assert float(fields[0]) == 0.0
        assert float(fields[3]) > 0.0

    def test_multi_ratio_rows(self, capsys, small_ckpt):
        code = cli.main(
            ["bench", "--ckpt", str(small_ckpt), "--ratios", "0,0.2",
             "--repeats", "1", "--warmup", "0", "--layers", "0,1,2"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 3
        flops0 = float(out[1].split(",")[5])
        flops2 = float(out[2].split(",")[5])
        assert flops2 < flops0

    def test_no_diag_prints_the_same_columns(self, capsys, small_ckpt):
        argv = ["bench", "--ckpt", str(small_ckpt), "--ratios", "0,0.3",
                "--repeats", "1", "--warmup", "1", "--layers", "0,1,2"]
        columns = []
        for flags in ([], ["--no-diag"]):
            assert cli.main(argv + flags) == 0
            rows = capsys.readouterr().out.strip().splitlines()
            # ratio, k, achieved and total_flops; the throughputs are timings.
            columns.append([[row.split(",")[i] for i in (0, 1, 2, 5)] for row in rows])
        assert len(columns[0]) == 3
        assert columns[0] == columns[1]

    def test_seeded_model_without_ckpt(self, capsys):
        code = cli.main(
            ["bench", *SMALL_FLAGS, "--ratios", "0", "--repeats", "1",
             "--warmup", "0", "--layers", "1"]
        )
        assert code == 0
        assert "ratio,k," in capsys.readouterr().out

    def test_malformed_ratio_exits_2(self, capsys):
        assert cli.main(["bench", "--ratios", "abc"]) == 2
        # An empty list would bench nothing and print only the CSV header.
        for ratios in ("", ","):
            assert cli.main(["bench", *SMALL_FLAGS, "--ratios", ratios]) == 2
            captured = capsys.readouterr()
            assert "no ratio" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--batch", "0", "at least 1"),
            ("--batch", "-2", "at least 1"),
            ("--repeats", "0", "at least 1"),
            ("--warmup", "-1", "at least 0"),
            ("--batch", "1.5", "not an integer"),
        ],
    )
    def test_bad_count_exits_2(self, capsys, flag, value, message):
        argv = ["bench", *SMALL_FLAGS, "--ratios", "0", "--repeats", "1", "--warmup", "0"]
        assert cli.main([*argv, flag, value]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, largest",
        [(SMALL_FLAGS, cli.MAX_BATCH_VALUES // (16 * 16 * 3)),
         (["--image-size", "8192", "--patch-size", "64", "--dim", "8", "--depth", "1",
           "--state-dim", "4"], 1)],
        ids=["small", "largest-image"],
    )
    def test_huge_batch_exits_2_before_drawing_images(self, capsys, monkeypatch, flags, largest):
        class Drawn(Exception):
            pass

        def draw(*args):
            raise Drawn

        monkeypatch.setattr(cli.ppm, "synthetic_image", draw)
        argv = ["bench", *flags, "--ratios", "0", "--repeats", "1", "--warmup", "0"]
        with pytest.raises(Drawn):
            cli.main([*argv, "--batch", str(largest)])
        for batch in (largest + 1, 100000000):
            assert cli.main([*argv, "--batch", str(batch)]) == 2
            captured = capsys.readouterr()
            assert f"--batch {batch}" in captured.err and captured.out == ""


class TestMask:
    def test_zero_k_mask_is_input_image(self, capsys, small_ckpt, tmp_path):
        img_path = tmp_path / "in.ppm"
        write_ppm(img_path, synthetic_image(16, seed=11))
        out_path = tmp_path / "mask.ppm"
        code = cli.main(
            ["mask", "--ckpt", str(small_ckpt), "--image", str(img_path),
             "--target-reduction", "0", "--layers", "1", "--layer", "1",
             "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.read_bytes() == img_path.read_bytes()

    def test_mask_tints_agree_with_diagnostics(self, capsys, small_ckpt, tmp_path):
        from mambapress.checkpoint import load_model

        img = synthetic_image(16, seed=12)
        img_path = tmp_path / "in.ppm"
        write_ppm(img_path, img)
        out_path = tmp_path / "mask.ppm"
        code = cli.main(
            ["mask", "--ckpt", str(small_ckpt), "--image", str(img_path),
             "--target-reduction", "0.3", "--layers", "0,1,2", "--layer", "1",
             "--out", str(out_path)]
        )
        assert code == 0

        model = load_model(small_ckpt)
        from mambapress.cli import _build_plan
        from mambapress.reduction import Strategy

        plan = _build_plan(model.config, 0.3, Strategy.MERGE, (0, 1, 2))
        _, diag = model.forward(read_ppm(img_path), plan)
        record = diag.reductions[1]
        want = render_mask(
            read_ppm(img_path), 4, record.kept_orig, record.target_orig,
            np.concatenate((record.edges_orig[:, 0], record.pruned_orig)),
            cls_orig=model.config.cls_slot,
        )
        got = read_ppm(out_path)
        assert np.max(np.abs(got - want)) <= 0.5 / 255 + 1e-6

    def test_unweighted_merge_renders_the_unweighted_record(self, capsys, tmp_path):
        # At layer 3 of this model the plain means keep other tokens than the
        # weighted ones, so the mask shows whether the flag reached the
        # forward pass.
        from mambapress.checkpoint import load_model
        from mambapress.cli import _build_plan
        from mambapress.reduction import Strategy

        ckpt = tmp_path / "model.bin"
        assert cli.main(["init", "--out", str(ckpt), "--image-size", "32", "--patch-size",
                         "4", "--dim", "16", "--depth", "4", "--state-dim", "4", "--classes",
                         "5", "--seed", "3"]) == 0
        out_path = tmp_path / "mask.ppm"
        assert cli.main(
            ["mask", "--ckpt", str(ckpt), "--synthetic", "3", "--target-reduction", "0.4",
             "--layers", "0,1,2,3", "--layer", "3", "--unweighted-merge",
             "--out", str(out_path)]
        ) == 0

        model = load_model(ckpt)
        image = synthetic_image(32, seed=3)
        plan = _build_plan(model.config, 0.4, Strategy.MERGE, (0, 1, 2, 3))
        masks = []
        for weighted in (False, True):
            record = model.forward(image, plan, weighted_merge=weighted)[1].reductions[3]
            masks.append(render_mask(
                image, 4, record.kept_orig, record.target_orig,
                np.concatenate((record.edges_orig[:, 0], record.pruned_orig)),
                cls_orig=model.config.cls_slot,
            ))
        want, weighted_mask = masks
        assert np.max(np.abs(want - weighted_mask)) > 0.1
        assert np.max(np.abs(read_ppm(out_path) - want)) <= 0.5 / 255 + 1e-6

    def test_layer_not_in_plan_exits_2(self, capsys, small_ckpt, tmp_path):
        code = cli.main(
            ["mask", "--ckpt", str(small_ckpt), "--synthetic", "0",
             "--target-reduction", "0.15", "--layers", "1", "--layer", "3",
             "--out", str(tmp_path / "m.ppm")]
        )
        assert code == 2
        assert "not a reduction layer" in capsys.readouterr().err

    @pytest.mark.parametrize("channels", [1, 4])
    def test_non_rgb_checkpoint_exits_2_naming_the_shape(self, capsys, tmp_path, channels):
        # run handles any channel count; the mask's tints are RGB.
        ckpt = tmp_path / "model.bin"
        save_model(VisionModel.seeded(dataclasses.replace(FUZZ_CONFIG, channels=channels), 3), ckpt)
        code = cli.main(["mask", "--ckpt", str(ckpt), "--synthetic", "1", "--target-reduction",
                         "0.1", "--layers", "0,1", "--layer", "0", "--out", str(tmp_path / "m.ppm")])
        assert code == 2
        assert f"RGB images, (H, W, 3); got shape (16, 16, {channels})" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench", "mask"])
def test_plan_flags_reach_the_plan_and_forward(monkeypatch, capsys, small_ckpt, tmp_path, command):
    calls = []
    forward = VisionModel.forward

    def recorded(self, image, plan=None, indicator=Indicator.DELTA, **kwargs):
        calls.append((plan, indicator))
        return forward(self, image, plan, indicator, **kwargs)

    monkeypatch.setattr(VisionModel, "forward", recorded)
    argv = {
        "run": ["run", "--target-reduction", "0.3"],
        "bench": ["bench", "--ratios", "0.3", "--repeats", "1"],
        "mask": ["mask", "--target-reduction", "0.3", "--layer", "2",
                 "--out", str(tmp_path / "m.ppm")],
    }[command]
    flags = ["--ckpt", str(small_ckpt), "--strategy", "prune", "--indicator", "c",
             "--layers", "0,2"]
    assert cli.main(argv + flags) == 0
    assert calls
    for plan, indicator in calls:
        assert plan.strategy is Strategy.PRUNE and plan.k > 0
        assert plan.reduce_at_layers == (0, 2)
        assert indicator is Indicator.C_PROJ


@pytest.mark.parametrize("command", ["run", "mask"])
def test_cls_indicator_without_a_cls_token_exits_2(capsys, tmp_path, command):
    ckpt = tmp_path / "no_cls.bin"
    assert cli.main(["init", "--out", str(ckpt), *SMALL_FLAGS, "--cls", "none"]) == 0
    argv = [command, "--ckpt", str(ckpt), "--indicator", "cls", "--layers", "0",
            "--target-reduction", "0.2"]
    if command == "mask":
        argv += ["--layer", "0", "--out", str(tmp_path / "m.ppm")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "cls similarity scoring needs a cls token" in capsys.readouterr().err


@pytest.mark.parametrize("depth, defaults", [(4, []), (6, [5])])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_unreachable_default_layers_point_to_the_flag(capsys, tmp_path, command, depth, defaults):
    # Depth 4 has no default reduction layer; depth 6 has only the last
    # block, after which a reduction saves nothing.
    ckpt = tmp_path / "deep.bin"
    assert cli.main(["init", "--out", str(ckpt), "--image-size", "16", "--patch-size", "4",
                     "--dim", "8", "--depth", str(depth), "--state-dim", "4"]) == 0
    argv = {
        "run": ["run", "--ckpt", str(ckpt), "--target-reduction", "0.3"],
        "bench": ["bench", "--ckpt", str(ckpt), "--ratios", "0.3", "--repeats", "1",
                  "--warmup", "0"],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"default reduction layers at depth {depth} are {defaults}" in err
    assert "--layers" in err
    assert cli.main(argv + ["--layers", "0,1"]) == 0


class TestNumericFailure:
    def test_nan_weights_exit_4(self, capsys, tmp_path):
        from mambapress.checkpoint import load, save

        path = tmp_path / "model.bin"
        assert cli.main(["init", "--out", str(path), *SMALL_FLAGS]) == 0
        ckpt = load(path)
        ckpt.entries["blocks.1.out_proj"] = np.full_like(
            ckpt.entries["blocks.1.out_proj"], np.nan
        )
        save(ckpt, path)
        code = cli.main(["run", "--ckpt", str(path), "--synthetic", "0"])
        assert code == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_infinite_logits_exit_4(self, capsys, tmp_path):
        from mambapress.checkpoint import load, save

        path = tmp_path / "model.bin"
        assert cli.main(["init", "--out", str(path), *SMALL_FLAGS, "--image-size", "32"]) == 0
        ckpt = load(path)
        ckpt.entries["head.w"] = np.full_like(ckpt.entries["head.w"], 3e38)
        save(ckpt, path)
        code = cli.main(["run", "--ckpt", str(path), "--synthetic", "0"])
        assert code == 4
        assert "non-finite logits in the classification head" in capsys.readouterr().err

    @pytest.mark.parametrize("indicator", list(Indicator))
    def test_overflowing_feature_norms_exit_4(self, capsys, tmp_path, path, indicator):
        # Block 0's output is finite but its squared norms overflow float32,
        # which matching (or, for cls, scoring) refuses.
        ckpt = tmp_path / "model.bin"
        save_model(VisionModel.seeded(FUZZ_CONFIG, 3), ckpt)
        loaded = load(ckpt)
        loaded.entries["blocks.0.out_proj"] *= np.float32(1e20)
        assert np.all(np.isfinite(loaded.entries["blocks.0.out_proj"]))
        save(loaded, ckpt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", "--ckpt", str(ckpt), "--synthetic", "1", "--target-reduction",
                             "0.15", "--layers", "0,1", "--indicator", indicator.value])
        assert code == 4
        assert ("numeric failure: similarity is NaN: token features are not finite "
                "or their squared norms overflow float32") in capsys.readouterr().err
