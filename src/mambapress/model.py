"""Toy vision classifier: patch embedding, block stack with reduction hooks.

The model is deliberately desk-scale: weights come from a seeded
initializer so every oracle and benchmark runs without external
checkpoints, and a forward pass is bit-reproducible because every numeric
path goes through the deterministic kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import flops, kernels, ssm
from .flops import BlockDims, ReductionPlan
from .importance import Indicator, compute_scores
from .kernels import as_f32
from .reduction import ReductionRecord, Strategy, TokenSequence, reduce_layer
from .ssm import SsmBlockParams, SsmHeadParams

CLS_POSITIONS = ("middle", "front", "none")


class NumericError(RuntimeError):
    """Raised when a forward pass produces non-finite activations."""


@dataclass(frozen=True)
class ModelConfig:
    image_size: int
    patch_size: int
    feat_dim: int
    depth: int
    channels: int = 3
    expand: int = 2
    state_dim: int = 16
    delta_rank: int | None = None  # default: ceil(feat_dim / 16)
    cls_position: str = "middle"
    class_count: int = 10

    def __post_init__(self) -> None:
        # Configs also arrive as checkpoint meta, so field types are not trusted.
        sizes = ["image_size", "patch_size", "feat_dim", "depth", "channels", "expand",
                 "state_dim", "class_count"] + ([] if self.delta_rank is None else ["delta_rank"])
        for name in sizes:
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"image size {self.image_size} not divisible by patch size {self.patch_size}"
            )
        if self.cls_position not in CLS_POSITIONS:
            raise ValueError(f"cls_position must be one of {CLS_POSITIONS}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def patch_tokens(self) -> int:
        return self.grid * self.grid

    @property
    def inner_dim(self) -> int:
        return self.expand * self.feat_dim

    @property
    def rank(self) -> int:
        if self.delta_rank is not None:
            return self.delta_rank
        return max(1, math.ceil(self.feat_dim / 16))

    @property
    def cls_slot(self) -> int | None:
        """Original-index slot of the classification token."""
        if self.cls_position == "none":
            return None
        return self.patch_tokens // 2 if self.cls_position == "middle" else 0

    @property
    def token_count(self) -> int:
        return self.patch_tokens + (0 if self.cls_slot is None else 1)

    def block_dims(self) -> BlockDims:
        return BlockDims(
            feat_dim=self.feat_dim,
            inner_dim=self.inner_dim,
            state_dim=self.state_dim,
            delta_rank=self.rank,
            head_count=2,
            conv_width=4,
        )

    def to_json(self) -> dict:
        return {
            "image_size": self.image_size,
            "patch_size": self.patch_size,
            "feat_dim": self.feat_dim,
            "depth": self.depth,
            "channels": self.channels,
            "expand": self.expand,
            "state_dim": self.state_dim,
            "delta_rank": self.delta_rank,
            "cls_position": self.cls_position,
            "class_count": self.class_count,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ModelConfig":
        return cls(**{k: doc[k] for k in doc})


@dataclass
class ModelParams:
    patch_w: np.ndarray  # (patch_size^2 * channels, D)
    patch_b: np.ndarray  # (D,)
    cls_embed: np.ndarray | None  # (D,)
    blocks: list[SsmBlockParams]
    head_norm_scale: np.ndarray  # (D,)
    head_norm_bias: np.ndarray  # (D,)
    head_w: np.ndarray  # (D, class_count)
    head_b: np.ndarray  # (class_count,)

    def validate_against(self, config: ModelConfig) -> None:
        d = config.feat_dim
        patch_in = config.patch_size * config.patch_size * config.channels
        checks = [
            ("patch_w", self.patch_w.shape, (patch_in, d)),
            ("patch_b", self.patch_b.shape, (d,)),
            ("head_norm_scale", self.head_norm_scale.shape, (d,)),
            ("head_norm_bias", self.head_norm_bias.shape, (d,)),
            ("head_w", self.head_w.shape, (d, config.class_count)),
            ("head_b", self.head_b.shape, (config.class_count,)),
        ]
        for name, got, want in checks:
            if got != want:
                raise ValueError(f"{name} shape {got} != {want}")
        if (self.cls_embed is None) != (config.cls_slot is None):
            raise ValueError("cls embedding presence inconsistent with cls_position")
        if self.cls_embed is not None and self.cls_embed.shape != (d,):
            raise ValueError(f"cls_embed shape {self.cls_embed.shape} != ({d},)")
        if len(self.blocks) != config.depth:
            raise ValueError(f"{len(self.blocks)} blocks != depth {config.depth}")
        e, n, r = config.inner_dim, config.state_dim, config.rank
        for i, block in enumerate(self.blocks):
            if block.feat_dim != d or block.inner_dim != e:
                raise ValueError(f"block {i} dims inconsistent with config")
            for head in block.heads:
                if (head.state_dim, head.delta_rank) != (n, r):
                    raise ValueError(f"block {i} head dims inconsistent with config")


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded pseudo-random weights with a fixed draw order.

    Projections are normal with 1/sqrt(fan_in) scale, state decays are
    log-uniform in [0.5, 4], norm scales start at one, biases at zero.
    """
    rng = np.random.default_rng(seed)
    d, e, n, r = config.feat_dim, config.inner_dim, config.state_dim, config.rank
    patch_in = config.patch_size * config.patch_size * config.channels

    def proj(fan_in: int, *shape: int) -> np.ndarray:
        return (rng.standard_normal(shape) / math.sqrt(fan_in)).astype(np.float32)

    patch_w = proj(patch_in, patch_in, d)
    patch_b = np.zeros(d, dtype=np.float32)
    cls_embed = None
    if config.cls_slot is not None:
        cls_embed = (0.02 * rng.standard_normal(d)).astype(np.float32)

    blocks = []
    for _ in range(config.depth):
        norm_scale = np.ones(d, dtype=np.float32)
        norm_bias = np.zeros(d, dtype=np.float32)
        in_proj = proj(d, d, 2 * e)
        heads = []
        for direction in ("forward", "backward"):
            heads.append(
                SsmHeadParams(
                    a_log=np.log(rng.uniform(0.5, 4.0, size=(e, n))).astype(np.float32),
                    w_b=proj(e, e, n),
                    w_c=proj(e, e, n),
                    w_1=proj(e, e, r),
                    w_2=proj(r, r, e),
                    skip_d=np.ones(e, dtype=np.float32),
                    conv_kernel=proj(4, e, 4),
                    scan_direction=direction,
                )
            )
        out_proj = proj(e, e, d)
        blocks.append(SsmBlockParams(norm_scale, norm_bias, in_proj, out_proj, heads))

    head_norm_scale = np.ones(d, dtype=np.float32)
    head_norm_bias = np.zeros(d, dtype=np.float32)
    head_w = proj(d, d, config.class_count)
    head_b = np.zeros(config.class_count, dtype=np.float32)
    return ModelParams(
        patch_w, patch_b, cls_embed, blocks, head_norm_scale, head_norm_bias, head_w, head_b
    )


def patch_embed(image: np.ndarray, params: ModelParams, config: ModelConfig) -> TokenSequence:
    """Flatten non-overlapping patches, project to D, insert the cls token.

    Original indices are raster order with the cls token spliced into its
    slot, so they are simply 0..L-1 at this point.
    """
    image = as_f32(image)
    expected = (config.image_size, config.image_size, config.channels)
    if image.shape != expected:
        raise ValueError(f"image shape {image.shape} != {expected}")
    g, ps, c = config.grid, config.patch_size, config.channels
    patches = np.ascontiguousarray(
        image.reshape(g, ps, g, ps, c).transpose(0, 2, 1, 3, 4)
    ).reshape(config.patch_tokens, ps * ps * c)
    feats = kernels.add(kernels.matmul(patches, params.patch_w), params.patch_b)
    slot = config.cls_slot
    if slot is not None:
        feats = np.insert(feats, slot, params.cls_embed, axis=0)
    return TokenSequence.fresh(feats, cls_orig=slot)


@dataclass
class Diagnostics:
    """What one forward pass did, layer by layer."""

    indicator: Indicator
    token_counts: list[int] = field(default_factory=list)  # block inputs, then final
    layer_flops: list[int] = field(default_factory=list)
    reductions: dict[int, ReductionRecord] = field(default_factory=dict)


class VisionModel:
    """Immutable model: config plus loaded parameters.

    Concurrent forward passes over different images are safe; nothing is
    mutated after construction.
    """

    def __init__(self, config: ModelConfig, params: ModelParams) -> None:
        params.validate_against(config)
        self.config = config
        self.params = params

    @classmethod
    def seeded(cls, config: ModelConfig, seed: int = 0) -> "VisionModel":
        return cls(config, init_params(config, seed))

    def forward(
        self,
        image: np.ndarray,
        plan: ReductionPlan | None = None,
        indicator: Indicator = Indicator.DELTA,
        weighted_merge: bool = True,
        collect_diagnostics: bool = True,
    ) -> tuple[np.ndarray, Diagnostics | None]:
        """Classify one image, reducing tokens after the planned layers.

        Returns the logits and per-layer diagnostics (token counts, FLOPs,
        and the original-index group sets of every reduction), or None when
        diagnostics collection is switched off for throughput runs.
        """
        indicator = Indicator(indicator)
        config = self.config
        layer_set: frozenset[int] = frozenset()
        if plan is not None:
            layer_set = frozenset(plan.reduce_at_layers)
            for i in layer_set:
                if not 0 <= i < config.depth:
                    raise ValueError(f"plan layer {i} outside 0..{config.depth - 1}")

        dims = config.block_dims()
        diag = Diagnostics(indicator=indicator) if collect_diagnostics else None
        seq = patch_embed(image, self.params, config)
        for layer, block in enumerate(self.params.blocks):
            if diag is not None:
                diag.token_counts.append(len(seq))
                diag.layer_flops.append(flops.block_flops(len(seq), dims))
            y, traces = ssm.mamba_block(seq.features, block)
            if not np.all(np.isfinite(y)):
                raise NumericError(f"non-finite activations in block {layer}")
            new_seq = TokenSequence(y, seq.orig_index, seq.weight, seq.cls_orig)
            if layer in layer_set:
                scores = compute_scores(
                    indicator,
                    block_input=seq.features,
                    block_output=y,
                    traces=traces,
                    heads=block.heads,
                    cls_row=seq.cls_row,
                )
                new_seq, record = reduce_layer(
                    new_seq, scores, plan.k, plan.strategy, weighted=weighted_merge
                )
                if diag is not None:
                    diag.reductions[layer] = record
            seq = new_seq
        if diag is not None:
            diag.token_counts.append(len(seq))

        if seq.cls_orig is not None:
            pooled = seq.features[seq.cls_row]
        else:
            pooled = kernels.mean_rows(seq.features)
        normed = kernels.layernorm(
            pooled[None, :], self.params.head_norm_scale, self.params.head_norm_bias
        )
        logits = kernels.add(
            kernels.matmul(normed, self.params.head_w)[0], self.params.head_b
        )
        return logits, diag


def identity_plan(layers: Sequence[int] = ()) -> ReductionPlan:
    """A k = 0 plan: reduction layers run but remove nothing."""
    return ReductionPlan(tuple(sorted(set(int(i) for i in layers))), 0.0, Strategy.MERGE, 0.0, 0.0)
