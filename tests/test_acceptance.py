"""Acceptance gate: every exit criterion at its stated size and tolerance.

Each test prints one PASS line on success; a failing criterion shows up as
the pytest failure itself. Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.
"""

import struct
import time

import numpy as np
import pytest

from mambapress import kernels
from mambapress.checkpoint import Checkpoint, load, save
from mambapress.flops import FlopsModel, ReductionPlan, default_reduction_layers, solve_k
from mambapress.importance import score_delta
from mambapress.model import ModelConfig, VisionModel, identity_plan
from mambapress.ppm import synthetic_image
from mambapress.reduction import (
    Strategy,
    TokenSequence,
    apply_merge,
    group_size,
    match_sources,
    partition,
    reduce_layer,
)
from mambapress.ssm import ScanTrace, selective_scan
from tests import oracles
from tests.test_ssm import random_head, scan_oracle

TOY = ModelConfig(image_size=224, patch_size=16, feat_dim=192, depth=24)


@pytest.fixture(scope="module")
def toy_model():
    return VisionModel.seeded(TOY, seed=0)


def _passed(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_identity_reduction_bitwise():
    """k=0 plans leave logits bitwise identical on 100 seeded toy models."""
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    strategies = list(Strategy)
    positions = ("middle", "front", "none")
    for i in range(100):
        config = ModelConfig(
            image_size=8,
            patch_size=2,
            feat_dim=int(rng.integers(4, 10)),
            depth=int(rng.integers(1, 4)),
            state_dim=int(rng.integers(2, 5)),
            delta_rank=1,
            cls_position=positions[i % 3],
            class_count=4,
        )
        model = VisionModel.seeded(config, seed=i)
        image = rng.random((8, 8, 3), dtype=np.float32)
        plan = identity_plan(range(config.depth))
        plan = ReductionPlan(plan.reduce_at_layers, 0.0, strategies[i % 3], 0.0, 0.0)
        bare, _ = model.forward(image)
        reduced, _ = model.forward(image, plan)
        assert np.array_equal(bare, reduced), f"model {i} diverged under a k=0 plan"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"identity sweep took {elapsed:.1f}s, budget is 60s"
    _passed(f"identity reduction (100 models bitwise, {elapsed:.1f}s)")


def test_scan_matches_unrolled_oracle():
    """selective_scan vs. the naive recurrence on 1000 cases, < 1e-5.

    Cases are drawn in the normalized activation regime (unit-variance
    inputs, init-scale weights); the guard below keeps that explicit,
    since an absolute float32 tolerance is only meaningful there.
    """
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(1000):
        e = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        length = int(rng.integers(1, 13))
        direction = "forward" if i % 2 == 0 else "backward"
        params = random_head(rng, e, n, int(rng.integers(1, 4)), direction, scale=0.5)
        x = rng.standard_normal((length, e)).astype(np.float32)
        got = selective_scan(x, params).y
        want = scan_oracle(x, params).astype(np.float32)
        assert np.max(np.abs(got)) < 32.0, "case left the normalized regime"
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-5, f"worst scan deviation {worst:.2e}"
    _passed(f"scan correctness (1000 cases, max abs err {worst:.2e})")


def test_merge_matches_brute_force():
    """Bipartite matching vs. exhaustive top-1 search on 1000 partitions."""
    rng = np.random.default_rng(102)
    cases = 0
    while cases < 1000:
        n = int(rng.integers(3, 25))
        k = float(rng.uniform(0.05, 0.49))
        dim = int(rng.integers(2, 6))
        seq = TokenSequence(
            rng.standard_normal((n, dim)).astype(np.float32),
            np.arange(n, dtype=np.int64),
            rng.integers(1, 4, size=n).astype(np.int64),
        )
        part = partition(rng.standard_normal(n).astype(np.float32), k)
        if len(part.source_idx) == 0:
            continue
        cases += 1
        mapping = match_sources(seq, part)
        assert len(mapping.edges) == len(part.source_idx)
        expected_target = {}
        for s in part.source_idx:
            best_sim, best_t = None, None
            for t in part.target_idx:
                sim = oracles.cosine_similarity(seq.features[s], seq.features[t])
                if (
                    best_sim is None
                    or sim > best_sim
                    or (sim == best_sim and seq.orig_index[t] < seq.orig_index[best_t])
                ):
                    best_sim, best_t = sim, int(t)
            expected_target[int(s)] = best_t
        for s_row, t_row in mapping.edges:
            assert t_row == expected_target[s_row], "argmax disagreement"
        # Merged means against a direct weighted-mean recomputation.
        merged = apply_merge(seq, mapping)
        by_target: dict[int, list[int]] = {}
        for s_row, t_row in mapping.edges:
            by_target.setdefault(t_row, []).append(s_row)
        for t_row, s_rows in by_target.items():
            members = [t_row, *s_rows]
            w = seq.weight[members].astype(np.float64)
            f = seq.features[members].astype(np.float64)
            want = (f * w[:, None]).sum(axis=0) / w.sum()
            got = merged.features[merged.orig_index == seq.orig_index[t_row]][0]
            assert np.max(np.abs(got.astype(np.float64) - want)) < 1e-6
    _passed("merge-oracle equivalence (1000 partitions, exact argmax)")


def test_order_preservation():
    """Strictly increasing original indices after every reduction."""
    rng = np.random.default_rng(103)
    violations = 0
    for i in range(1000):
        n = int(rng.integers(3, 60))
        cls_orig = int(rng.integers(0, n)) if i % 2 == 0 else None
        seq = TokenSequence(
            rng.standard_normal((n, 4)).astype(np.float32),
            np.arange(n, dtype=np.int64),
            np.ones(n, dtype=np.int64),
            cls_orig,
        )
        strategy = list(Strategy)[i % 3]
        out, _ = reduce_layer(
            seq, rng.standard_normal(n).astype(np.float32), float(rng.uniform(0, 0.49)), strategy
        )
        if not np.all(np.diff(out.orig_index) > 0):
            violations += 1
    assert violations == 0, f"{violations} order violations"
    _passed("order preservation (1000 reductions x 3 strategies, 0 violations)")


def test_count_law_and_mass_conservation():
    """|out| = |in| - floor(k*L_r) and weight conservation, exhaustively."""
    rng = np.random.default_rng(104)
    ks = [round(0.05 * i, 2) for i in range(10)]  # 0, 0.05, ..., 0.45
    for reducible in range(3, 257):
        feats = rng.standard_normal((reducible, 3)).astype(np.float32)
        weights = rng.integers(1, 5, size=reducible).astype(np.int64)
        seq = TokenSequence(feats, np.arange(reducible, dtype=np.int64), weights)
        scores = rng.standard_normal(reducible).astype(np.float32)
        for k in ks:
            expected = reducible - group_size(k, reducible)
            for strategy in Strategy:
                out, _ = reduce_layer(seq, scores, k, strategy)
                assert len(out) == expected, (reducible, k, strategy)
                if strategy is Strategy.MERGE:
                    assert out.weight.sum() == seq.weight.sum(), (reducible, k)
    _passed("count law + mass conservation (k grid x L_r 3..256, all strategies)")


def test_merge_linearity():
    """merge(a+b) == merge(a) + merge(b) under a fixed mapping, < 1e-5."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(4, 40))
        weights = rng.integers(1, 6, size=n).astype(np.int64)
        orig = np.arange(n, dtype=np.int64)
        probe = TokenSequence(rng.standard_normal((n, 5)).astype(np.float32), orig, weights)
        part = partition(rng.standard_normal(n).astype(np.float32), float(rng.uniform(0.05, 0.45)))
        mapping = match_sources(probe, part)
        fa = rng.standard_normal((n, 5)).astype(np.float32)
        fb = rng.standard_normal((n, 5)).astype(np.float32)
        merged_ab = apply_merge(TokenSequence(fa + fb, orig, weights), mapping).features
        merged_sum = (
            apply_merge(TokenSequence(fa, orig, weights), mapping).features
            + apply_merge(TokenSequence(fb, orig, weights), mapping).features
        )
        worst = max(worst, float(np.max(np.abs(merged_ab - merged_sum))))
    assert worst < 1e-5, f"worst linearity deviation {worst:.2e}"
    _passed(f"merge linearity (500 cases, max abs dev {worst:.2e})")


def test_delta_score_properties():
    """Positive scores; ordering invariant under positive rescaling."""
    rng = np.random.default_rng(106)
    for _ in range(500):
        length = int(rng.integers(1, 40))
        e = int(rng.integers(1, 12))
        deltas = [
            kernels.softplus(rng.standard_normal((length, e)).astype(np.float32) * 3)
            for _ in range(2)
        ]
        traces = [
            ScanTrace(y=np.zeros_like(d), delta=d, scan_input=np.zeros_like(d))
            for d in deltas
        ]
        scores = score_delta(traces)
        assert np.all(scores.scores > 0.0)
        lam = float(np.exp(rng.uniform(-4, 4)))
        scaled = score_delta(
            [
                ScanTrace(y=t.y, delta=(t.delta * np.float32(lam)), scan_input=t.scan_input)
                for t in traces
            ]
        )
        assert np.array_equal(
            kernels.argsort_desc(scores.scores), kernels.argsort_desc(scaled.scores)
        )
    _passed("delta-score properties (500 traces: positive, scale-invariant order)")


def test_flops_plan_fidelity(toy_model):
    """Solver hits 20/30/40% within 0.25pp and live counts match it exactly."""
    fm = FlopsModel.from_config(TOY)
    layers = default_reduction_layers(TOY.depth)
    image = synthetic_image(TOY.image_size, seed=42)
    for target in (0.20, 0.30, 0.40):
        plan = solve_k(fm, target, layers)
        assert abs(plan.achieved_reduction - target) < 0.0025, (
            f"target {target}: achieved {plan.achieved_reduction}"
        )
        _, diag = toy_model.forward(image, plan)
        assert diag.token_counts == fm.token_counts(plan.k, layers), (
            f"live counts diverge from simulation at target {target}"
        )
    _passed("FLOPs-plan fidelity (20/30/40% within 0.25pp, live == simulated)")


def test_throughput_direction(toy_model):
    """More reduction, more throughput: 10-run four-point curve check."""
    fm = FlopsModel.from_config(TOY)
    layers = default_reduction_layers(TOY.depth)
    ratios = (0.0, 0.20, 0.30, 0.40)
    plans = [
        identity_plan(layers) if r == 0.0 else solve_k(fm, r, layers) for r in ratios
    ]
    image = synthetic_image(TOY.image_size, seed=7)
    for plan in plans:  # warmup, untimed
        toy_model.forward(image, plan, collect_diagnostics=False)

    runs = []
    for _ in range(10):
        rates = []
        for plan in plans:
            start = time.perf_counter()
            toy_model.forward(image, plan, collect_diagnostics=False)
            rates.append(1.0 / (time.perf_counter() - start))
        runs.append(rates)

    nondecreasing = sum(
        1 for rates in runs if all(b >= a for a, b in zip(rates, rates[1:]))
    )
    mean_rates = [float(np.mean([run[i] for run in runs])) for i in range(len(ratios))]
    assert mean_rates[-1] > mean_rates[0], (
        f"40% reduction not faster than baseline: {mean_rates}"
    )
    assert nondecreasing >= 9, (
        f"only {nondecreasing}/10 runs had a nondecreasing curve; means {mean_rates}"
    )
    _passed(
        f"throughput direction ({nondecreasing}/10 runs monotone, "
        f"baseline {mean_rates[0]:.2f} -> 40% {mean_rates[-1]:.2f} seq/s)"
    )


def test_checkpoint_round_trip(tmp_path):
    """100 random containers survive bitwise; byte fixtures match exactly."""
    rng = np.random.default_rng(107)
    for trial in range(100):
        entries = {}
        for i in range(int(rng.integers(0, 6))):
            shape = tuple(int(s) for s in rng.integers(1, 7, size=int(rng.integers(1, 4))))
            entries[f"t{trial}.e{i}"] = rng.standard_normal(shape).astype(np.float32)
        ckpt = Checkpoint(entries=entries, meta={"trial": trial} if trial % 2 else {})
        path = tmp_path / "rt.bin"
        save(ckpt, path)
        back = load(path)
        assert list(back.entries) == list(ckpt.entries)
        for name in ckpt.entries:
            assert np.array_equal(
                back.entries[name].view(np.uint32), ckpt.entries[name].view(np.uint32)
            )
        assert back.meta == ckpt.meta

    empty = tmp_path / "empty.bin"
    save(Checkpoint(), empty)
    assert empty.read_bytes() == b"MTRC" + struct.pack("<III", 1, 0, 0)
    one = tmp_path / "one.bin"
    save(Checkpoint(entries={"w": np.array([1.0, 2.0], dtype=np.float32)}), one)
    payload = one.read_bytes()[-8:]
    assert payload == bytes([0x00, 0x00, 0x80, 0x3F, 0x00, 0x00, 0x00, 0x40])
    _passed("checkpoint round-trip (100 containers bitwise, fixtures exact)")
