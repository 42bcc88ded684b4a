"""Analytic FLOPs model and the reduction-target solver.

The per-token block cost is an exact algebraic mirror of the kernel calls
the block makes (see ``docs/flops_accounting.md`` for the op-count table);
a test instruments the live kernels and checks the two agree to the FLOP.
Block cost is strictly linear in the token count: parameter-derived
constants (like the negated state matrix) are precomputed at load time.
Every cost is read from the model's config, its axis sizes (``dims``)
included, and the head count from :mod:`mambapress.ssm`: the FLOPs model
copies no shape.

The solver turns a global compute-reduction target into the single
grouping ratio k shared by all reduction layers. Because group sizes are
floors, achieved reduction is a step function of k; bisection converges
onto the step whose value is within tolerance of the target, or onto the
nearest achievable value below it, reported honestly either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from . import ssm
from .reduction import Strategy, group_size

if TYPE_CHECKING:  # pragma: no cover
    from .model import ModelConfig

SOLVER_TOLERANCE = 0.0025  # 0.25 percentage points
SOLVER_MAX_ITERATIONS = 64
_K_CEILING = 0.5 - 1e-9


def per_token_block_flops(config: "ModelConfig") -> int:
    """FLOPs one token costs in one block (multiply-adds count 2)."""
    dims = config.dims
    d, e, n, r, w = dims["D"], dims["E"], dims["N"], dims["R"], dims["W"]
    h = len(ssm.DIRECTIONS)
    per_head = 2 * w * e + e + 11 * e * n + 4 * e * r + 4 * e
    return 8 * d + 6 * d * e + h * per_head + (h + 1) * e


def block_flops(token_count: int, config: "ModelConfig") -> int:
    """Cost of one block on a token_count-long sequence; exactly linear."""
    if token_count < 1:
        raise ValueError(f"block_flops needs at least one token, got {token_count}")
    return token_count * per_token_block_flops(config)


@dataclass(frozen=True)
class ReductionPlan:
    """Where to reduce, by how much, and what the schedule achieves."""

    reduce_at_layers: tuple[int, ...]
    k: float
    strategy: Strategy
    target_reduction: float
    achieved_reduction: float

    def to_json(self) -> dict:
        return {
            "layers": list(self.reduce_at_layers),
            "k": self.k,
            "strategy": self.strategy.value,
            "target": self.target_reduction,
            "achieved": self.achieved_reduction,
        }


def default_reduction_layers(depth: int) -> tuple[int, ...]:
    """Every fifth block starting at index 5 (configurable elsewhere)."""
    return tuple(range(5, depth, 5))


def _check_layers(layers: Iterable[int], depth: int) -> None:
    for i in layers:
        if not 0 <= i < depth:
            raise ValueError(f"reduction layer {i} outside 0..{depth - 1}")


@dataclass(frozen=True)
class FlopsModel:
    """Whole-model analytic cost as a function of the reduction schedule."""

    config: "ModelConfig"

    @classmethod
    def from_config(cls, config: "ModelConfig") -> "FlopsModel":
        return cls(config)

    @property
    def patch_embed_cost(self) -> int:
        c = self.config
        return c.patch_tokens * (2 * c.patch_inputs * c.feat_dim + c.feat_dim)

    def token_counts(self, k: float, reduce_at_layers: Iterable[int]) -> list[int]:
        """Simulated per-block input token counts plus the final count."""
        depth = self.config.depth
        layer_set = set(int(i) for i in reduce_at_layers)
        _check_layers(layer_set, depth)
        cls = 0 if self.config.cls_slot is None else 1
        count = self.config.token_count
        counts = []
        for layer in range(depth):
            counts.append(count)
            if layer in layer_set:
                count -= group_size(k, count - cls)
        counts.append(count)
        return counts

    def head_cost(self, final_count: int) -> int:
        d, classes = self.config.feat_dim, self.config.class_count
        cost = 7 * d + 2 * d * classes + classes  # pooled-feature norm + classifier
        if self.config.cls_slot is None:
            cost += final_count * d  # mean pool over the final tokens
        return cost

    def total_from_counts(self, counts: Sequence[int]) -> int:
        blocks = sum(block_flops(c, self.config) for c in counts[:-1])
        return self.patch_embed_cost + blocks + self.head_cost(counts[-1])

    def total_flops(self, k: float = 0.0, reduce_at_layers: Iterable[int] = ()) -> int:
        return self.total_from_counts(self.token_counts(k, reduce_at_layers))

    def achieved_reduction(self, k: float, reduce_at_layers: Iterable[int]) -> float:
        baseline = self.total_flops()
        return 1.0 - self.total_flops(k, reduce_at_layers) / baseline


def solve_k(
    model: FlopsModel,
    target_reduction: float,
    reduce_at_layers: Iterable[int],
    strategy: Strategy = Strategy.MERGE,
) -> ReductionPlan:
    """Bisect the grouping ratio until the achieved reduction meets the target.

    Raises if the target exceeds what the layer set can achieve at any
    k < 0.5; if the floor-induced steps skip over the target by more than
    the tolerance, the nearest achievable value below it is returned with
    its honest achieved_reduction.
    """
    layers = tuple(sorted(set(int(i) for i in reduce_at_layers)))
    strategy = Strategy(strategy)
    if not 0.0 <= target_reduction < 1.0:
        raise ValueError(f"target reduction must lie in [0, 1), got {target_reduction}")
    _check_layers(layers, model.config.depth)  # at target 0 no count would check them

    def achieved(k: float) -> float:
        return model.achieved_reduction(k, layers)

    if target_reduction == 0.0:
        return ReductionPlan(layers, 0.0, strategy, 0.0, 0.0)

    max_achievable = achieved(_K_CEILING)
    if target_reduction > max_achievable:
        raise ValueError(
            f"target reduction {target_reduction:.4f} unattainable for layers "
            f"{list(layers)}: maximum achievable is {max_achievable:.4f}"
        )

    lo, hi = 0.0, _K_CEILING
    for _ in range(SOLVER_MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        a_mid = achieved(mid)
        if abs(a_mid - target_reduction) < SOLVER_TOLERANCE:
            return ReductionPlan(layers, mid, strategy, target_reduction, a_mid)
        if a_mid <= target_reduction:
            lo = mid
        else:
            hi = mid

    a_lo, a_hi = achieved(lo), achieved(hi)
    if abs(a_hi - target_reduction) < SOLVER_TOLERANCE:
        return ReductionPlan(layers, hi, strategy, target_reduction, a_hi)
    return ReductionPlan(layers, lo, strategy, target_reduction, a_lo)
