"""Regenerate ``tests/bits_digest.json``, the fingerprint of the output bits.

    PYTHONPATH=src python tests/make_bits_digest.py

Each case runs two seeded images through a seeded model under one reduction
plan and records, per image, the sha256 of the logits bytes, the token
counts, ``layer_flops``, the sha256 of every ``ReductionRecord`` written
out by :func:`record_repr` and the FLOPs each kernel booked
(``count_flops().by_op``).
``tests/test_bits_digest.py`` recomputes them, compiled and, for the small
configs, on the numpy fallback, and compares them with this file.

Regenerate the file only when a change is meant to alter the output bits,
and say in CHANGES.md why they moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mambapress import kernels
from mambapress.flops import FlopsModel, default_reduction_layers, solve_k
from mambapress.importance import Indicator
from mambapress.model import ModelConfig, VisionModel
from mambapress.ppm import synthetic_image
from mambapress.reduction import ReductionRecord, Strategy

DIGEST_PATH = Path(__file__).resolve().parent / "bits_digest.json"
WEIGHT_SEED = 0
IMAGE_SEEDS = (1, 2)

TOY = ModelConfig(image_size=224, patch_size=16, feat_dim=192, depth=24)
# The dense-merge benchmark workload: 3137 tokens, reduced after every block.
DENSE = ModelConfig(image_size=224, patch_size=4, feat_dim=32, depth=4, expand=1, state_dim=4)
DENSE_SMALL = ModelConfig(image_size=64, patch_size=4, feat_dim=32, depth=4)
SMALL = ModelConfig(image_size=16, patch_size=4, feat_dim=8, depth=4, state_dim=4)


@dataclass(frozen=True)
class Case:
    config: ModelConfig
    layers: tuple[int, ...]
    ratio: float  # the FLOPs-reduction target solve_k sizes the plan for
    strategy: Strategy = Strategy.MERGE
    indicator: Indicator = Indicator.DELTA
    fallback: bool = False  # small enough to run on the numpy fallback too


def _cases() -> dict[str, Case]:
    cases = {
        f"toy-r{ratio * 100:.0f}": Case(TOY, default_reduction_layers(TOY.depth), ratio)
        for ratio in (0.0, 0.4)
    }
    every = tuple(range(4))
    for strategy in Strategy:
        cases[f"dense-r40-{strategy.value}"] = Case(DENSE, every, 0.4, strategy)
    for ratio in (0.0, 0.3):
        for strategy in Strategy:
            cases[f"64-4-32-4-r{ratio * 100:.0f}-{strategy.value}"] = Case(
                DENSE_SMALL, every, ratio, strategy, fallback=True)
    for indicator in Indicator:
        cases[f"small-r40-hybrid-{indicator.value}"] = Case(
            SMALL, every, 0.4, Strategy.HYBRID, indicator, fallback=True)
    return cases


CASES = _cases()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_repr(record: ReductionRecord) -> str:
    """The record in the form the digest has always hashed: the ``repr`` it
    had when it held Python lists, with the group size and the merged
    sources spelled out. The record itself holds int64 arrays, whose
    ``repr`` elides long arrays and names the dtype."""
    merged, into = record.edges_orig.T.tolist()
    return (f"ReductionRecord(k={record.k!r}, strategy={record.strategy!r}, "
            f"group_count={len(record.kept_orig)}, kept_orig={record.kept_orig.tolist()}, "
            f"target_orig={record.target_orig.tolist()}, merged_orig={merged}, "
            f"pruned_orig={record.pruned_orig.tolist()}, edges_orig={list(zip(merged, into))})")


def digest(case: Case, model: VisionModel | None = None) -> list[dict]:
    """One entry per image of what the case's forward passes produced, on
    ``model`` or, by default, the case's seeded model."""
    if model is None:
        model = VisionModel.seeded(case.config, WEIGHT_SEED)
    plan = solve_k(FlopsModel.from_config(case.config), case.ratio, case.layers, case.strategy)
    out = []
    for seed in IMAGE_SEEDS:
        image = synthetic_image(case.config.image_size, seed, case.config.channels)
        with kernels.count_flops() as counter:
            logits, diag = model.forward(image, plan, case.indicator)
        out.append({
            "logits_sha256": sha256(logits.tobytes()),
            "token_counts": diag.token_counts,
            "layer_flops": diag.layer_flops,
            "records_sha256": {
                str(layer): sha256(record_repr(record).encode())
                for layer, record in diag.reductions.items()
            },
            "flops_by_op": dict(sorted(counter.by_op.items())),
        })
    return out


def main() -> int:
    doc = {"numpy": np.__version__, "cases": {}}
    for name, case in CASES.items():
        doc["cases"][name] = digest(case)
        print(f"{name}: token counts {doc['cases'][name][0]['token_counts']}", file=sys.stderr)
    with open(DIGEST_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
