"""Toy vision classifier: patch embedding, block stack with reduction hooks.

The model is deliberately desk-scale: weights come from a seeded
initializer so every oracle and benchmark runs without external
checkpoints, and a forward pass is bit-reproducible because every numeric
path goes through the deterministic kernels.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import flops, kernels, ssm
from .flops import ReductionPlan
from .importance import Indicator, compute_scores
from .kernels import as_f32
from .reduction import ReductionRecord, Strategy, TokenSequence, reduce_layer
from .ssm import NumericError, SsmBlockParams, SsmHeadParams, Workspace

CLS_POSITIONS = ("middle", "front", "none")

# The most patch tokens a config may ask for: a 128 x 128 grid, e.g. 2048 px
# at 16 px patches or 512 px at 4 px. No weight shape depends on the image
# size, so without a bound a checkpoint's config could ask for an input of
# any size.
MAX_PATCH_TOKENS = 128 * 128

# The most inputs one patch may have, patch_size**2 * channels: e.g. a 64 x 64
# patch of 4 channels. Each input is one row of the patch projection, so
# without a bound a config could ask for weights of any size, even at one
# patch token.
MAX_PATCH_INPUTS = 64 * 64 * 4

# The most float32 weights a config may imply (512 MiB): the toy model has
# about 6.9 million. feat_dim, depth, expand, state_dim and class_count each
# multiply the count, so without a bound flags alone could ask for weights
# of any size.
MAX_WEIGHTS = 2**27

# The ModelParams arrays outside the blocks, in field order: each one's
# checkpoint entry name and axis letters (ssm.AXES). ModelParams.arrays()
# yields them in this order, with the blocks where ModelParams has its
# blocks field. cls_embed exists only when the config has a cls token.
TOP_ARRAYS = {"patch_w": ("patch.w", "PD"), "patch_b": ("patch.b", "D"),
              "cls_embed": ("cls", "D"), "head_norm_scale": ("head.norm_scale", "D"),
              "head_norm_bias": ("head.norm_bias", "D"), "head_w": ("head.w", "DC"),
              "head_b": ("head.b", "C")}


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
        if self.patch_tokens > MAX_PATCH_TOKENS:
            raise ValueError(
                f"image size {self.image_size} at patch size {self.patch_size} gives "
                f"{self.patch_tokens} patch tokens, more than {MAX_PATCH_TOKENS}"
            )
        if self.patch_inputs > MAX_PATCH_INPUTS:
            raise ValueError(
                f"patch size {self.patch_size} with {self.channels} channels gives "
                f"{self.patch_inputs} patch inputs, more than {MAX_PATCH_INPUTS}"
            )
        if self.cls_position not in CLS_POSITIONS:
            raise ValueError(f"cls_position must be one of {CLS_POSITIONS}")
        if self.weight_count > MAX_WEIGHTS:
            raise ValueError(
                f"config implies {self.weight_count} weights, more than {MAX_WEIGHTS}"
            )

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def patch_tokens(self) -> int:
        return self.grid * self.grid

    @property
    def patch_inputs(self) -> int:
        return self.patch_size * self.patch_size * self.channels

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

    @cached_property
    def dims(self) -> dict[str, int]:
        """The size of each weight axis letter (ssm.AXES) in this config."""
        return {"P": self.patch_inputs, "D": self.feat_dim, "E": self.inner_dim,
                "Z": 2 * self.inner_dim, "N": self.state_dim, "R": self.rank,
                "W": ssm.CONV_WIDTH, "C": self.class_count}

    @property
    def weight_count(self) -> int:
        """Float32 values in this config's parameters, summed from the shape
        tables: arithmetic, so it bounds the depth before any block exists."""
        dims = self.dims

        def size(shapes: dict[str, str]) -> int:
            return sum(math.prod(dims[a] for a in axes) for axes in shapes.values())

        top = {name: axes for name, (_, axes) in TOP_ARRAYS.items()
               if name != "cls_embed" or self.cls_slot is not None}
        block = size(ssm.BLOCK_SHAPES) + len(ssm.DIRECTIONS) * size(ssm.HEAD_SHAPES)
        return size(top) + self.depth * block

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "ModelConfig":
        return cls(**doc)


@dataclass
class ModelParams:
    """A model's weights, the arrays outside the blocks cast to float32."""

    patch_w: np.ndarray
    patch_b: np.ndarray
    cls_embed: np.ndarray | None  # None without a cls token
    blocks: list[SsmBlockParams]
    head_norm_scale: np.ndarray
    head_norm_bias: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray

    def __post_init__(self) -> None:
        for name in TOP_ARRAYS:
            if getattr(self, name) is not None:
                setattr(self, name, as_f32(getattr(self, name)))

    def arrays(self) -> Iterator[tuple[str, str, np.ndarray]]:
        """Every weight as (checkpoint entry name, axis letters, array), in
        checkpoint file order: field order, with each block's arrays and
        then its heads' where the blocks field is. This and
        :meth:`from_entries` are the one place that spells the entry names."""
        for f in fields(self):
            if f.name == "blocks":
                for i, block in enumerate(self.blocks):
                    for name, axes in ssm.BLOCK_SHAPES.items():
                        yield f"blocks.{i}.{name}", axes, getattr(block, name)
                    for j, head in enumerate(block.heads):
                        for name, axes in ssm.HEAD_SHAPES.items():
                            yield f"blocks.{i}.heads.{j}.{name}", axes, getattr(head, name)
            elif getattr(self, f.name) is not None:
                yield *TOP_ARRAYS[f.name], getattr(self, f.name)

    @classmethod
    def from_entries(cls, config: ModelConfig, entries: Mapping[str, np.ndarray]) -> "ModelParams":
        """The inverse of :meth:`arrays`: the params of ``config`` built from
        checkpoint entries, each taken by name and kept as given. A missing
        entry, or one left over, raises ValueError; the model checks shapes."""
        left = dict(entries)

        def take(entry: str) -> np.ndarray:
            if entry not in left:
                raise ValueError(f"checkpoint is missing entry {entry!r}")
            return left.pop(entry)

        blocks = []
        for i in range(config.depth):
            arrays = {n: take(f"blocks.{i}.{n}") for n in ssm.BLOCK_SHAPES}
            heads = [SsmHeadParams(**{n: take(f"blocks.{i}.heads.{j}.{n}")
                                      for n in ssm.HEAD_SHAPES}, scan_direction=d)
                     for j, d in enumerate(ssm.DIRECTIONS)]
            blocks.append(SsmBlockParams(**arrays, heads=heads))
        top = {name: None if name == "cls_embed" and config.cls_slot is None else take(entry)
               for name, (entry, _) in TOP_ARRAYS.items()}
        if left:
            raise ValueError(f"checkpoint entries {list(left)} have no place in the model")
        return cls(**top, blocks=blocks)

    def validate_against(self, config: ModelConfig) -> None:
        """Check the cls token, the depth, the head directions and every
        array's shape at the config's sizes, naming a wrong array as its
        checkpoint entry. The engine's one shape check: the params classes
        check none."""
        if (self.cls_embed is None) != (config.cls_slot is None):
            raise ValueError("cls embedding presence inconsistent with cls_position")
        if len(self.blocks) != config.depth:
            raise ValueError(f"{len(self.blocks)} blocks != depth {config.depth}")
        for i, block in enumerate(self.blocks):
            directions = tuple(head.scan_direction for head in block.heads)
            if directions != ssm.DIRECTIONS:
                raise ValueError(f"block {i} head directions {directions} != {ssm.DIRECTIONS}")
        dims = config.dims
        for entry, axes, arr in self.arrays():
            if arr.shape != tuple(dims[a] for a in axes):
                want = ", ".join(f"{ssm.AXES[a]} {dims[a]}" for a in axes)
                raise ValueError(f"{entry} shape {arr.shape} != ({want})")


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded pseudo-random weights with a fixed draw order.

    Projections are normal with 1/sqrt(fan_in) scale, the state decay
    rates exp(a_log) are uniform in [0.5, 4] (a_log is their float64 log,
    rounded to float32), norm scales start at one, biases at zero.
    """
    rng = np.random.default_rng(seed)
    d, e, n, r = config.feat_dim, config.inner_dim, config.state_dim, config.rank
    patch_in = config.patch_inputs

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
        for direction in ssm.DIRECTIONS:
            heads.append(
                SsmHeadParams(
                    a_log=np.log(rng.uniform(0.5, 4.0, size=(e, n))).astype(np.float32),
                    w_b=proj(e, e, n),
                    w_c=proj(e, e, n),
                    w_1=proj(e, e, r),
                    w_2=proj(r, r, e),
                    skip_d=np.ones(e, dtype=np.float32),
                    conv_kernel=proj(ssm.CONV_WIDTH, e, ssm.CONV_WIDTH),
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


def patch_embed(image: np.ndarray, params: ModelParams, config: ModelConfig,
                ws: Workspace | None = None) -> TokenSequence:
    """Flatten non-overlapping patches, project to D, insert the cls token.

    Original indices are raster order with the cls token spliced into its
    slot, so they are simply 0..L-1 at this point. The patches, their
    projection and the features are buffers of ``ws``, or of a new
    :class:`Workspace` when it is None; the features are a residual buffer.
    """
    image = as_f32(image)
    expected = (config.image_size, config.image_size, config.channels)
    if image.shape != expected:
        raise ValueError(f"image shape {image.shape} != {expected}")
    ws = Workspace() if ws is None else ws
    g, ps, c = config.grid, config.patch_size, config.channels
    patches = ws.take("patches", (config.patch_tokens, config.patch_inputs))
    np.copyto(patches.reshape(g, g, ps, ps, c),
              image.reshape(g, ps, g, ps, c).transpose(0, 2, 1, 3, 4))
    proj = kernels.matmul(patches, params.patch_w,
                          out=ws.take("proj", (config.patch_tokens, config.feat_dim)))
    feats = ws.residual((config.token_count, config.feat_dim))
    slot = config.cls_slot
    if slot is None:
        kernels.add(proj, params.patch_b, out=feats)
    else:  # the rows either side of the cls token
        kernels.add(proj[:slot], params.patch_b, out=feats[:slot])
        kernels.add(proj[slot:], params.patch_b, out=feats[slot + 1 :])
        feats[slot] = params.cls_embed
    return TokenSequence.fresh(feats, cls_orig=slot)


@dataclass
class Diagnostics:
    """What one forward pass observed: the token count entering each block,
    then the final count, and each reduction's record keyed by its layer.
    ``layer_flops`` is derived, each block's analytic cost at its count."""

    token_counts: list[int]
    layer_flops: list[int]
    reductions: dict[int, ReductionRecord]


# The buffers each thread's forward passes reuse: a threading.local.
_WORKSPACE = Workspace()


class VisionModel:
    """Immutable model: config plus loaded parameters.

    Concurrent forward passes over different images are safe; nothing is
    mutated after construction. Each thread's passes run in that thread's
    :class:`Workspace`, and everything a pass returns is the caller's.
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
        and the original-index group sets of every reduction). Every pass
        records the same; ``collect_diagnostics=False`` only returns None
        in place of the :class:`Diagnostics`.
        """
        indicator = Indicator(indicator)
        config = self.config
        layer_set = frozenset(plan.reduce_at_layers if plan is not None else ())
        flops._check_layers(layer_set, config.depth)

        counts: list[int] = []
        records: dict[int, ReductionRecord] = {}
        seq = patch_embed(image, self.params, config, ws=_WORKSPACE)
        for layer, block in enumerate(self.params.blocks):
            counts.append(len(seq))
            y, traces = ssm.mamba_block(seq.features, block, ws=_WORKSPACE)
            if not np.all(np.isfinite(y)):
                raise NumericError(f"non-finite activations in block {layer}")
            new_seq = TokenSequence(y, seq.orig_index, seq.weight, seq.cls_orig)
            if layer in layer_set:
                scores = compute_scores(
                    indicator,
                    block_input=seq.features,
                    block_output=y,
                    traces=traces,
                    cls_row=seq.cls_row,
                    ws=_WORKSPACE,
                ).scores
                new_seq, records[layer] = reduce_layer(
                    new_seq, scores, plan.k, plan.strategy, weighted=weighted_merge, ws=_WORKSPACE
                )
            seq = new_seq
        counts.append(len(seq))

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
        if not np.all(np.isfinite(logits)):
            raise NumericError("non-finite logits in the classification head")
        if not collect_diagnostics:
            return logits, None
        layer_flops = [flops.block_flops(n, config) for n in counts[:-1]]
        return logits, Diagnostics(counts, layer_flops, records)


def identity_plan(layers: Sequence[int] = ()) -> ReductionPlan:
    """A k = 0 plan: reduction layers run but remove nothing."""
    return ReductionPlan(tuple(sorted(set(int(i) for i in layers))), 0.0, Strategy.MERGE, 0.0, 0.0)
