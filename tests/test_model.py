"""Patch embedding, forward-pass wiring, diagnostics, determinism."""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from mambapress import kernels
from mambapress.flops import FlopsModel, ReductionPlan, block_flops, solve_k
from mambapress.importance import Indicator
from mambapress.model import (
    CLS_POSITIONS,
    MAX_PATCH_INPUTS,
    MAX_PATCH_TOKENS,
    MAX_WEIGHTS,
    TOP_ARRAYS,
    ModelConfig,
    NumericError,
    VisionModel,
    identity_plan,
    init_params,
    patch_embed,
)
from mambapress.reduction import Strategy

SMALL = ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=4, state_dim=4)


def array_size(obj) -> int:
    """Values in every array an object holds, walking lists and the
    constructor fields of dataclasses (so derived fields count once)."""
    if isinstance(obj, np.ndarray):
        return obj.size
    if isinstance(obj, list):
        return sum(array_size(item) for item in obj)
    if is_dataclass(obj):
        return sum(array_size(getattr(obj, f.name)) for f in fields(obj) if f.init)
    return 0


def unfold_oracle(image: np.ndarray, patch_size: int) -> np.ndarray:
    """Loop-based patch extraction in raster order."""
    h, w, c = image.shape
    rows = []
    for i in range(0, h, patch_size):
        for j in range(0, w, patch_size):
            rows.append(image[i : i + patch_size, j : j + patch_size].reshape(-1))
    return np.stack(rows)


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(image_size=10, patch_size=3, feat_dim=4, depth=1)

    def test_patch_token_limit(self):
        at_limit = ModelConfig(image_size=512, patch_size=4, feat_dim=4, depth=1)
        assert at_limit.patch_tokens == MAX_PATCH_TOKENS
        for size in (516, 2**20, 2**40):
            with pytest.raises(ValueError, match="patch tokens"):
                ModelConfig(image_size=size, patch_size=4, feat_dim=4, depth=1)

    def test_patch_input_limit(self):
        at_limit = ModelConfig(image_size=64, patch_size=64, feat_dim=4, depth=1, channels=4)
        assert at_limit.patch_inputs == MAX_PATCH_INPUTS
        for size, channels in ((64, 5), (4096, 3), (2**40, 1)):
            with pytest.raises(ValueError, match="patch inputs"):
                ModelConfig(image_size=size, patch_size=size, feat_dim=4, depth=1,
                            channels=channels)

    @pytest.mark.parametrize("cls_position", CLS_POSITIONS)
    def test_weight_count_is_the_size_of_init_params(self, cls_position):
        for config in (
            ModelConfig(16, 4, 8, 2, cls_position=cls_position),
            ModelConfig(32, 8, 12, 3, expand=1, state_dim=3, delta_rank=2, class_count=7,
                        cls_position=cls_position),
            ModelConfig(8, 2, 5, 1, channels=1, expand=3, state_dim=1, class_count=1,
                        cls_position=cls_position),
        ):
            assert config.weight_count == array_size(init_params(config))

    def test_weight_limit(self):
        # Every size field multiplies the count; none of these draws a weight.
        small = dict(image_size=16, patch_size=4, feat_dim=8, depth=1)
        for name in ("feat_dim", "depth", "expand", "state_dim", "class_count", "delta_rank"):
            with pytest.raises(ValueError, match="weights"):
                ModelConfig(**{**small, name: 10**8})
        one, two = ModelConfig(**small), ModelConfig(**{**small, "depth": 2})
        per_block = two.weight_count - one.weight_count
        depth = (MAX_WEIGHTS - one.weight_count) // per_block + 1
        assert ModelConfig(**{**small, "depth": depth}).weight_count <= MAX_WEIGHTS
        with pytest.raises(ValueError, match="weights"):
            ModelConfig(**{**small, "depth": depth + 1})

    def test_default_delta_rank(self):
        assert ModelConfig(image_size=8, patch_size=2, feat_dim=192, depth=1).rank == 12
        assert ModelConfig(image_size=8, patch_size=2, feat_dim=8, depth=1).rank == 1

    def test_cls_slots(self):
        cfg = ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=1)
        assert cfg.cls_slot == 8 and cfg.token_count == 17
        front = ModelConfig(
            image_size=16, patch_size=4, feat_dim=8, depth=1, cls_position="front"
        )
        assert front.cls_slot == 0
        none = ModelConfig(
            image_size=16, patch_size=4, feat_dim=8, depth=1, cls_position="none"
        )
        assert none.cls_slot is None and none.token_count == 16

    def test_json_round_trip(self):
        cfg = ModelConfig(image_size=32, patch_size=8, feat_dim=12, depth=3)
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_blocks_need_one_head_per_direction_in_order(self):
        # The FLOPs model, weight_count and the checkpoint all price one
        # forward then one backward head per block.
        params = init_params(SMALL, seed=27)
        block = params.blocks[0]
        for heads in (block.heads[:1], block.heads[::-1]):
            blocks = [replace(block, heads=heads), *params.blocks[1:]]
            with pytest.raises(ValueError, match="block 0 head directions"):
                VisionModel(SMALL, replace(params, blocks=blocks))


class TestPatchEmbed:
    def test_token_count_4x4(self):
        cfg = ModelConfig(image_size=4, patch_size=2, feat_dim=6, depth=1, state_dim=2)
        params = init_params(cfg, seed=0)
        img = np.random.default_rng(0).random((4, 4, 3), dtype=np.float32)
        seq = patch_embed(img, params, cfg)
        assert len(seq) == 5  # 4 patches + cls
        assert list(seq.orig_index) == [0, 1, 2, 3, 4]
        assert seq.cls_orig == 2

    def test_zero_weights_bias_only(self):
        cfg = ModelConfig(
            image_size=4, patch_size=2, feat_dim=3, depth=1, cls_position="none", state_dim=2
        )
        params = init_params(cfg, seed=0)
        params.patch_w = np.zeros_like(params.patch_w)
        params.patch_b = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        seq = patch_embed(np.zeros((4, 4, 3), dtype=np.float32), params, cfg)
        assert np.array_equal(seq.features, np.tile(params.patch_b, (4, 1)))

    def test_matches_unfold_oracle(self):
        cfg = ModelConfig(
            image_size=12, patch_size=3, feat_dim=5, depth=1, cls_position="none", state_dim=2
        )
        params = init_params(cfg, seed=1)
        img = np.random.default_rng(2).random((12, 12, 3), dtype=np.float32)
        seq = patch_embed(img, params, cfg)
        want = kernels.add(
            kernels.matmul(unfold_oracle(img, 3).astype(np.float32), params.patch_w),
            params.patch_b,
        )
        assert np.array_equal(seq.features, want)

    def test_cls_embedding_inserted_at_slot(self):
        cfg = ModelConfig(image_size=8, patch_size=2, feat_dim=4, depth=1, state_dim=2)
        params = init_params(cfg, seed=3)
        img = np.random.default_rng(4).random((8, 8, 3), dtype=np.float32)
        seq = patch_embed(img, params, cfg)
        assert np.array_equal(seq.features[cfg.cls_slot], params.cls_embed)
        assert seq.cls_row == cfg.cls_slot

    def test_wrong_shape(self):
        params = init_params(SMALL, seed=0)
        with pytest.raises(ValueError, match="image shape"):
            patch_embed(np.zeros((8, 8, 3), dtype=np.float32), params, SMALL)


class TestForward:
    def test_identity_plan_is_bitwise_noop(self):
        model = VisionModel.seeded(SMALL, seed=7)
        img = np.random.default_rng(8).random((16, 16, 3), dtype=np.float32)
        bare, _ = model.forward(img)
        planned, diag = model.forward(img, identity_plan([1, 2]))
        assert np.array_equal(bare, planned)
        assert diag.token_counts == [17] * 5

    def test_deterministic_across_runs(self):
        model = VisionModel.seeded(SMALL, seed=9)
        img = np.random.default_rng(10).random((16, 16, 3), dtype=np.float32)
        a, _ = model.forward(img)
        b, _ = model.forward(img)
        assert np.array_equal(a, b)

    def test_contrived_head_reproduces_basis_vector(self):
        # Zero blocks pass tokens through; the head norm is contrived to
        # map the cls embedding onto e1, and the classifier is identity.
        d = 4
        cfg = ModelConfig(
            image_size=4, patch_size=2, feat_dim=d, depth=1, state_dim=2, class_count=d
        )
        params = init_params(cfg, seed=11)
        for block in params.blocks:
            block.out_proj = np.zeros_like(block.out_proj)
        f = params.cls_embed.astype(np.float64)
        mu, sigma = f.mean(), f.std()
        e1 = np.zeros(d)
        e1[0] = 1.0
        params.head_norm_scale = np.full(d, np.sqrt(sigma**2 + 1e-5), dtype=np.float32)
        params.head_norm_bias = (e1 - (f - mu)).astype(np.float32)
        params.head_w = np.eye(d, dtype=np.float32)
        params.head_b = np.zeros(d, dtype=np.float32)
        model = VisionModel(cfg, params)
        logits, _ = model.forward(np.zeros((4, 4, 3), dtype=np.float32))
        assert np.allclose(logits, e1, atol=1e-5)

    def test_token_count_trajectory(self):
        cfg = ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=4, state_dim=4)
        model = VisionModel.seeded(cfg, seed=12)
        img = np.random.default_rng(13).random((16, 16, 3), dtype=np.float32)
        plan = ReductionPlan((1,), 0.1, Strategy.MERGE, 0.0, 0.0)
        _, diag = model.forward(img, plan)
        # 17 tokens in; block 1 reduces its output: 16 reducible,
        # floor(0.1*16)=1 removed; blocks 2..3 see 16.
        assert diag.token_counts == [17, 17, 16, 16, 16]
        assert diag.reductions.keys() == {1}

    def test_diagnostics_match_solver_simulation(self):
        cfg = ModelConfig(image_size=32, patch_size=4, feat_dim=8, depth=6, state_dim=4)
        fm = FlopsModel.from_config(cfg)
        plan = solve_k(fm, 0.25, (1, 3), Strategy.MERGE)
        model = VisionModel.seeded(cfg, seed=14)
        img = np.random.default_rng(15).random((32, 32, 3), dtype=np.float32)
        for indicator in Indicator:
            _, diag = model.forward(img, plan, indicator)
            assert diag.token_counts == fm.token_counts(plan.k, plan.reduce_at_layers)

    def test_cls_survives_heavy_reduction(self):
        cfg = ModelConfig(image_size=16, patch_size=2, feat_dim=6, depth=5, state_dim=2)
        model = VisionModel.seeded(cfg, seed=16)
        img = np.random.default_rng(17).random((16, 16, 3), dtype=np.float32)
        plan = ReductionPlan((0, 1, 2, 3), 0.45, Strategy.PRUNE, 0.0, 0.0)
        _, diag = model.forward(img, plan)
        for record in diag.reductions.values():
            assert cfg.cls_slot not in record.edges_orig[:, 0]
            assert cfg.cls_slot not in record.pruned_orig

    def test_mean_pool_head(self):
        cfg = ModelConfig(
            image_size=16, patch_size=4, feat_dim=8, depth=2, state_dim=4, cls_position="none"
        )
        model = VisionModel.seeded(cfg, seed=18)
        img = np.random.default_rng(19).random((16, 16, 3), dtype=np.float32)
        logits, diag = model.forward(img)
        assert logits.shape == (10,)
        assert diag.token_counts == [16, 16, 16]

    def test_all_strategies_and_indicators_run(self):
        model = VisionModel.seeded(SMALL, seed=20)
        img = np.random.default_rng(21).random((16, 16, 3), dtype=np.float32)
        fm = FlopsModel.from_config(SMALL)
        plan = solve_k(fm, 0.2, (1, 2))
        for strategy in Strategy:
            p = ReductionPlan(plan.reduce_at_layers, plan.k, strategy, 0.2, plan.achieved_reduction)
            for indicator in Indicator:
                logits, diag = model.forward(img, p, indicator)
                assert np.all(np.isfinite(logits))
                assert diag.token_counts == fm.token_counts(plan.k, plan.reduce_at_layers)

    def test_nan_detection_names_layer(self):
        model = VisionModel.seeded(SMALL, seed=22)
        model.params.blocks[2].out_proj[0, 0] = np.nan
        img = np.random.default_rng(23).random((16, 16, 3), dtype=np.float32)
        with pytest.raises(NumericError, match="block 2"):
            model.forward(img)

    def test_plan_layer_out_of_range(self):
        model = VisionModel.seeded(SMALL, seed=24)
        img = np.zeros((16, 16, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="outside"):
            model.forward(img, ReductionPlan((9,), 0.1, Strategy.MERGE, 0.0, 0.0))

    @pytest.mark.parametrize("cls_position", CLS_POSITIONS)
    def test_float64_top_arrays_give_float32_logits(self, cls_position):
        config = replace(SMALL, cls_position=cls_position)
        params = init_params(config, seed=27)
        rng = np.random.default_rng(28)
        wide = {name: rng.standard_normal(getattr(params, name).shape)
                for name in TOP_ARRAYS if getattr(params, name) is not None}
        narrow = {name: arr.astype(np.float32) for name, arr in wide.items()}
        img = rng.random((16, 16, 3), dtype=np.float32)
        plan = solve_k(FlopsModel.from_config(config), 0.3, (0, 1, 2))
        for p in (None, plan):
            got = VisionModel(config, replace(params, **wide)).forward(img, p)[0]
            want = VisionModel(config, replace(params, **narrow)).forward(img, p)[0]
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_no_diagnostics_mode(self):
        img = np.random.default_rng(26).random((16, 16, 3), dtype=np.float32)
        for cls_position in CLS_POSITIONS:
            config = replace(SMALL, cls_position=cls_position)
            model = VisionModel.seeded(config, seed=25)
            fm = FlopsModel.from_config(config)
            plans = [None] + [solve_k(fm, 0.3, (0, 1, 2), strategy) for strategy in Strategy]
            for plan in plans:
                with_diag, diag = model.forward(img, plan)
                without, none = model.forward(img, plan, collect_diagnostics=False)
                assert none is None
                assert with_diag.tobytes() == without.tobytes()
                assert diag.layer_flops == [block_flops(n, config) for n in diag.token_counts[:-1]]
                assert sorted(diag.reductions) == ([] if plan is None else [0, 1, 2])
