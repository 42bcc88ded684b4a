"""Per-token importance scores read out of a block's internal quantities.

The primary indicator is the timescale: a token whose scan timescale is
large overwrites more of the running state, so it carries more information
for downstream tokens. The remaining indicators (the scan's input-dependent
B and C, raw hidden features, similarity to the classification token) exist
for ablation. :func:`compute_scores` is the one dispatch on an indicator.
Timescales, B and C are the :class:`ScanTrace` fields the indicator's value
names, and the block input counts as a single head: all four share one
aggregation, a sum across heads followed by a channel mean.

Every indicator reads quantities the forward pass already computed, so
scoring calls no kernel that books FLOPs and is outside the FLOPs model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import kernels
from .kernels import as_f32
from .ssm import ScanTrace, Workspace


class Indicator(str, Enum):
    DELTA = "delta"
    B_PROJ = "b"
    C_PROJ = "c"
    HIDDEN_X = "x"
    CLS_SIM = "cls"


@dataclass
class ImportanceScores:
    """One scalar per token; higher means more important."""

    scores: np.ndarray  # (L,)


def _head_sum_channel_mean(per_head: Sequence[np.ndarray],
                           ws: Workspace | None = None) -> ImportanceScores:
    """Sum one (L, K) quantity across heads in head order, then average it
    over K. The sum goes into a new array, or into ``ws``'s "head_sum"."""
    if not per_head:
        raise ValueError("scoring needs at least one head trace")
    shape = per_head[0].shape
    if len(shape) != 2:
        raise ValueError(f"scoring expects (L, K) per head, got {shape}")
    for arr in per_head[1:]:
        if arr.shape != shape:
            raise ValueError(f"head shapes differ: {arr.shape} vs {shape}")
    total = as_f32(per_head[0])
    if len(per_head) > 1:
        out = np.empty(shape, np.float32) if ws is None else ws.take("head_sum", shape)
        for arr in per_head[1:]:
            total = np.add(total, as_f32(arr), out=out)
    return ImportanceScores(total.mean(axis=1, dtype=np.float32))


def score_delta(traces: Sequence[ScanTrace]) -> ImportanceScores:
    """Head-summed timescales averaged across channels.

    Timescales are softplus outputs, so every score is strictly positive.
    """
    return _head_sum_channel_mean([t.delta for t in traces])


def score_cls_similarity(x: np.ndarray, cls_index: int) -> ImportanceScores:
    """Cosine similarity of every token to the classification token.

    The classification position itself scores +inf: it is always ranked
    first and the reduction stage never groups it anyway.
    """
    x = as_f32(x)
    if x.ndim != 2:
        raise ValueError(f"score_cls_similarity expects (L, D) features, got {x.shape}")
    if not 0 <= cls_index < x.shape[0]:
        raise IndexError(f"cls index {cls_index} out of range for {x.shape[0]} tokens")
    sims = kernels.cosine_matrix(x, x[cls_index][None, :])[:, 0]
    sims[cls_index] = np.inf
    return ImportanceScores(sims)


def compute_scores(
    indicator: Indicator,
    *,
    block_input: np.ndarray,
    block_output: np.ndarray,
    traces: Sequence[ScanTrace],
    cls_row: int | None,
    ws: Workspace | None = None,
) -> ImportanceScores:
    """Score a block's tokens by one indicator.

    DELTA, B_PROJ and C_PROJ read the trace field their value names;
    HIDDEN_X reads the block input; CLS_SIM reads the block output, i.e.
    the sequence actually being compressed. The head sum of the first
    three goes into the workspace ``ws`` if one is given.
    """
    indicator = Indicator(indicator)
    if indicator is Indicator.CLS_SIM:
        if cls_row is None:
            raise ValueError("cls similarity scoring needs a cls token")
        return score_cls_similarity(block_output, cls_row)
    if indicator is Indicator.HIDDEN_X:
        return _head_sum_channel_mean([block_input])
    return _head_sum_channel_mean([getattr(t, indicator.value) for t in traces], ws)
