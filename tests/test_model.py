"""Patch embedding, forward-pass wiring, diagnostics, determinism."""

import copy
import os
import pickle
import resource
import threading
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from mambapress import kernels, model as model_module
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
from mambapress.ppm import synthetic_image
from mambapress.reduction import Strategy
from mambapress.ssm import Workspace, mamba_block, selective_scan

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


def workload_cases(config: ModelConfig, images: int) -> list:
    """(image, plan, indicator) cases over every strategy, with and without
    a plan, at several images."""
    fm = FlopsModel.from_config(config)
    layers = tuple(range(config.depth - 1))
    plans = [None, identity_plan(layers)] + [solve_k(fm, 0.3, layers, s) for s in Strategy]
    indicators = [Indicator.DELTA, Indicator.HIDDEN_X, Indicator.C_PROJ]
    return [(synthetic_image(config.image_size, seed), plan, indicators[i % len(indicators)])
            for seed in range(images) for i, plan in enumerate(plans)]


class TestWorkspace:
    """Forward passes run in a per-thread workspace of reused buffers;
    everything a pass or a direct block call returns stays the caller's."""

    def test_a_later_pass_leaves_what_an_earlier_one_returned(self):
        for cls_position in CLS_POSITIONS:
            config = replace(SMALL, cls_position=cls_position)
            model = VisionModel.seeded(config, seed=31)
            (image_a, plan_a, _), (image_b, plan_b, _) = workload_cases(config, 2)[2::5]
            result = model.forward(image_a, plan_a)
            kept = copy.deepcopy(result)
            assert result[1].reductions  # plan_a reduces
            model.forward(image_b, plan_b)
            assert pickle.dumps(result) == pickle.dumps(kept)

    def test_a_pass_leaves_what_direct_block_and_scan_calls_returned(self):
        model = VisionModel.seeded(SMALL, seed=32)
        rng = np.random.default_rng(33)
        block = model.params.blocks[0]
        x = rng.standard_normal((17, SMALL.feat_dim)).astype(np.float32)
        u = rng.standard_normal((17, SMALL.inner_dim)).astype(np.float32)
        result = mamba_block(x, block), selective_scan(u, block.heads[1])
        kept = copy.deepcopy(result)
        model.forward(synthetic_image(SMALL.image_size, 34), identity_plan((0, 1)))
        assert pickle.dumps(result) == pickle.dumps(kept)

    def test_blocks_in_one_workspace_keep_the_bits_and_never_overwrite_their_input(self):
        model = VisionModel.seeded(SMALL, seed=35)
        x = np.random.default_rng(36).standard_normal((17, SMALL.feat_dim)).astype(np.float32)
        ws = Workspace()
        fresh, in_ws = x, x
        for block in model.params.blocks:
            fresh, traces = mamba_block(fresh, block)
            out, ws_traces = mamba_block(in_ws, block, ws=ws)
            assert not np.may_share_memory(out, in_ws)
            assert pickle.dumps((out, ws_traces)) == pickle.dumps((fresh, traces))
            in_ws = out

    def test_concurrent_passes_match_sequential_ones(self):
        """The first test of VisionModel.forward from several threads at once:
        logits, token counts and records bitwise equal to sequential runs,
        each thread in a workspace of its own."""
        config = ModelConfig(image_size=32, patch_size=4, feat_dim=16, depth=3, state_dim=4)
        model = VisionModel.seeded(config, seed=37)
        cases = workload_cases(config, 3)

        def run(image, plan, indicator):
            logits, diag = model.forward(image, plan, indicator)
            return pickle.dumps((logits, diag.token_counts, diag.reductions))

        want = [run(*case) for case in cases]
        threads = min(2, len(os.sched_getaffinity(0)))
        start = threading.Barrier(threads)
        got: list[list] = [[] for _ in range(threads)]
        buffers: list[set] = [set() for _ in range(threads)]

        def worker(t: int) -> None:
            start.wait()
            for _ in range(3):
                got[t].append([run(*case) for case in cases])
            buffers[t] = {buf.ctypes.data for buf in model_module._WORKSPACE._buffers.values()}

        workers = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        assert not any(w.is_alive() for w in workers)
        assert all(rounds == [want] * 3 for rounds in got)
        main = {buf.ctypes.data for buf in model_module._WORKSPACE._buffers.values()}
        assert all(b and not b & main for b in buffers)
        assert threads == 1 or not buffers[0] & buffers[1]

    def test_warm_passes_take_almost_no_page_faults(self):
        """Each (L, E) temporary of this model is 262 kB, above glibc's
        default 128 kB mmap threshold, so a pass that allocated them afresh
        could fault their pages back in every time."""
        if kernels._library() is None:
            pytest.skip("the numpy fallback allocates temporaries inside its kernels")
        config = ModelConfig(image_size=128, patch_size=4, feat_dim=64, depth=2, expand=1,
                             state_dim=4)
        model = VisionModel.seeded(config, seed=38)
        plan = solve_k(FlopsModel.from_config(config), 0.2, (0, 1), Strategy.MERGE)
        images = [synthetic_image(config.image_size, seed) for seed in (39, 40)]
        for image in images:
            model.forward(image, plan)
        passes = 6
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        for i in range(passes):
            model.forward(images[i % 2], plan)
        per_pass = (resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before) / passes
        assert per_pass < 50, f"a warm pass took {per_pass:.1f} minor page faults"
