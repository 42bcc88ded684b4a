"""CLI surface: exit codes, report schema, CSV shape, mask rendering, PPM."""

import json
import struct

import numpy as np
import pytest

from mambapress import cli
from mambapress.mask import TINT, render_mask
from mambapress.ppm import PpmError, read_ppm, synthetic_image, write_ppm

SMALL_FLAGS = [
    "--image-size", "16", "--patch-size", "4", "--dim", "8",
    "--depth", "4", "--state-dim", "4", "--classes", "5",
]


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

    def test_mismatched_image_size_exits_2(self, capsys, small_ckpt, tmp_path):
        img_path = tmp_path / "big.ppm"
        write_ppm(img_path, synthetic_image(32, seed=10))
        code = cli.main(["run", "--ckpt", str(small_ckpt), "--image", str(img_path)])
        assert code == 2


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

    def test_seeded_model_without_ckpt(self, capsys):
        code = cli.main(
            ["bench", *SMALL_FLAGS, "--ratios", "0", "--repeats", "1",
             "--warmup", "0", "--layers", "1"]
        )
        assert code == 0
        assert "ratio,k," in capsys.readouterr().out

    def test_malformed_ratio_exits_2(self, capsys):
        assert cli.main(["bench", "--ratios", "abc"]) == 2


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
            record.merged_orig + record.pruned_orig, cls_orig=model.config.cls_slot,
        )
        got = read_ppm(out_path)
        assert np.max(np.abs(got - want)) <= 0.5 / 255 + 1e-6

    def test_layer_not_in_plan_exits_2(self, capsys, small_ckpt, tmp_path):
        code = cli.main(
            ["mask", "--ckpt", str(small_ckpt), "--synthetic", "0",
             "--target-reduction", "0.15", "--layers", "1", "--layer", "3",
             "--out", str(tmp_path / "m.ppm")]
        )
        assert code == 2
        assert "not a reduction layer" in capsys.readouterr().err


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
