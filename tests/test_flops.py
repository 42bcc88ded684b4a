"""Cost-model exactness against instrumented kernels, and solver behavior."""

import json
from dataclasses import replace

import numpy as np
import pytest

from mambapress import kernels
from mambapress.flops import (
    FlopsModel,
    ReductionPlan,
    block_flops,
    default_reduction_layers,
    per_token_block_flops,
    solve_k,
)
from mambapress.importance import Indicator
from mambapress.model import ModelConfig, VisionModel, init_params
from mambapress.reduction import Strategy
from mambapress.ssm import mamba_block

TOY = ModelConfig(image_size=224, patch_size=16, feat_dim=192, depth=24)
BLOCK = ModelConfig(image_size=8, patch_size=2, feat_dim=8, depth=1, state_dim=4, delta_rank=1)


class TestBlockFlops:
    def test_single_token_is_per_token_cost(self):
        assert block_flops(1, BLOCK) == per_token_block_flops(BLOCK)

    def test_zero_tokens_forbidden(self):
        with pytest.raises(ValueError, match="at least one token"):
            block_flops(0, BLOCK)

    def test_exactly_linear(self):
        assert block_flops(10, BLOCK) == 2 * block_flops(5, BLOCK)
        assert block_flops(7, BLOCK) == 7 * block_flops(1, BLOCK)

    def test_matches_instrumented_counter(self):
        # The analytic table must mirror the kernel calls to the FLOP.
        rng = np.random.default_rng(0)
        params = init_params(BLOCK, seed=1)
        x = rng.standard_normal((10, 8)).astype(np.float32)
        with kernels.count_flops() as counter:
            mamba_block(x, params.blocks[0])
        assert [BLOCK.dims[a] for a in "DENRW"] == [8, 16, 4, 1, 4]
        assert counter.total == block_flops(10, BLOCK)

    def test_matches_instrumented_counter_other_dims(self):
        rng = np.random.default_rng(1)
        for d, e_mult, n, r, length in [(4, 2, 2, 1, 3), (6, 3, 5, 2, 17), (10, 2, 16, 4, 9)]:
            config = ModelConfig(
                image_size=8, patch_size=2, feat_dim=d, depth=1,
                expand=e_mult, state_dim=n, delta_rank=r,
            )
            params = init_params(config, seed=2)
            x = rng.standard_normal((length, d)).astype(np.float32)
            with kernels.count_flops() as counter:
                mamba_block(x, params.blocks[0])
            assert counter.total == block_flops(length, config)

    def test_monotone_in_dims(self):
        base = replace(BLOCK, delta_rank=2)
        for grown in (
            replace(base, feat_dim=9),  # E grows with D at the same expand
            replace(base, expand=3),
            replace(base, state_dim=5),
            replace(base, delta_rank=3),
        ):
            assert per_token_block_flops(grown) > per_token_block_flops(base)


class TestModelFlops:
    def test_whole_forward_matches_instrumented_counter(self):
        for cls_position in ("middle", "front", "none"):
            config = ModelConfig(
                image_size=8, patch_size=2, feat_dim=6, depth=2,
                state_dim=3, delta_rank=1, cls_position=cls_position,
            )
            model = VisionModel.seeded(config, seed=3)
            image = np.random.default_rng(4).random((8, 8, 3), dtype=np.float32)
            fm = FlopsModel.from_config(config)
            with kernels.count_flops() as counter:
                model.forward(image)
            assert counter.total == fm.total_flops()

    def test_reduced_forward_matches_counts_based_total(self):
        config = ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=4, state_dim=4)
        model = VisionModel.seeded(config, seed=5)
        fm = FlopsModel.from_config(config)
        plan = ReductionPlan((1, 2), 0.3, Strategy.MERGE, 0.0, 0.0)
        image = np.random.default_rng(6).random((16, 16, 3), dtype=np.float32)
        # Scoring books nothing, whichever indicator reads the block.
        for indicator in Indicator:
            with kernels.count_flops() as counter:
                _, diag = model.forward(image, plan, indicator)
            assert diag.token_counts[-1] < diag.token_counts[0]
            assert counter.total == fm.total_from_counts(diag.token_counts), indicator

    def test_token_count_simulation(self):
        fm = FlopsModel.from_config(TOY)
        counts = fm.token_counts(0.0, ())
        assert counts == [197] * 25
        counts = fm.token_counts(0.25, (5,))
        # 197 tokens, 196 reducible, floor(0.25*196)=49 removed after block 5.
        assert counts[:6] == [197] * 6
        assert counts[6:] == [148] * 19


class TestSolveK:
    def test_target_zero(self):
        plan = solve_k(FlopsModel.from_config(TOY), 0.0, (5, 10))
        assert plan.k == 0.0 and plan.achieved_reduction == 0.0

    def test_degenerate_front_reduction_tracks_token_fraction(self):
        # One reduction after block 0: block 0 runs at full length, blocks
        # 1..5 and the mean-pooled head at the reduced one.
        config = ModelConfig(image_size=32, patch_size=2, feat_dim=4, depth=6,
                             cls_position="none", state_dim=2, delta_rank=1)
        fm = FlopsModel.from_config(config)
        plan = solve_k(fm, 0.30, (0,))
        kept = fm.token_counts(plan.k, (0,))[1]
        assert kept < 256
        per_token = per_token_block_flops(config)

        def total(count: int) -> int:
            return fm.patch_embed_cost + (256 + 5 * count) * per_token + fm.head_cost(count)

        assert plan.achieved_reduction == pytest.approx(1 - total(kept) / total(256), abs=1e-12)
        assert abs(plan.achieved_reduction - 0.30) < 0.0025

    def test_toy_targets_within_tolerance(self):
        fm = FlopsModel.from_config(TOY)
        layers = default_reduction_layers(TOY.depth)
        assert layers == (5, 10, 15, 20)
        for target in (0.2, 0.3, 0.4):
            plan = solve_k(fm, target, layers)
            assert abs(plan.achieved_reduction - target) < 0.0025
            # Independent re-simulation of the trajectory and the total.
            count = 197
            total = fm.patch_embed_cost
            for layer in range(24):
                total += count * per_token_block_flops(TOY)
                if layer in layers:
                    count -= int(np.floor(plan.k * (count - 1)))
            total += fm.head_cost(count)
            achieved = 1 - total / fm.total_flops()
            assert plan.achieved_reduction == pytest.approx(achieved, abs=1e-12)

    def test_achieved_monotone_in_k(self):
        fm = FlopsModel.from_config(TOY)
        layers = (5, 10, 15, 20)
        values = [fm.achieved_reduction(k, layers) for k in np.linspace(0, 0.499, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v < 1.0 for v in values)

    def test_unattainable_target_lists_max(self):
        fm = FlopsModel.from_config(TOY)
        with pytest.raises(ValueError, match="maximum achievable"):
            solve_k(fm, 0.9, (5, 10, 15, 20))

    def test_no_layers_cannot_reduce(self):
        fm = FlopsModel.from_config(TOY)
        with pytest.raises(ValueError, match="unattainable"):
            solve_k(fm, 0.2, ())

    def test_rejects_bad_layer_index(self):
        fm = FlopsModel.from_config(TOY)
        with pytest.raises(ValueError, match="outside"):
            solve_k(fm, 0.1, (99,))

    @pytest.mark.parametrize("target", [0.0, 0.1])
    @pytest.mark.parametrize("layer", [-1, 4])
    def test_rejects_a_layer_outside_the_depth_at_every_target(self, target, layer):
        fm = FlopsModel.from_config(ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=4))
        with pytest.raises(ValueError, match=f"reduction layer {layer} outside 0..3"):
            solve_k(fm, target, (layer,))

    def test_plan_json_round_trip(self):
        plan = solve_k(FlopsModel.from_config(TOY), 0.3, (5, 10, 15, 20), Strategy.HYBRID)
        doc = plan.to_json()
        assert json.loads(json.dumps(doc)) == doc == {
            "layers": [5, 10, 15, 20], "k": plan.k, "strategy": "hybrid",
            "target": 0.3, "achieved": plan.achieved_reduction,
        }

    def test_default_layer_schedule(self):
        assert default_reduction_layers(24) == (5, 10, 15, 20)
        assert default_reduction_layers(12) == (5, 10)
        assert default_reduction_layers(5) == ()
