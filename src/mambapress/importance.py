"""Per-token importance scores read out of a block's internal quantities.

The primary indicator is the timescale: a token whose scan timescale is
large overwrites more of the running state, so it carries more information
for downstream tokens. The remaining indicators (the scan's input-dependent
B and C, raw hidden features, similarity to the classification token) exist
for ablation. Timescales, B and C come from each head's :class:`ScanTrace`
and share one aggregation: sum across heads first, then average across
channels.

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
from .ssm import ScanTrace


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
    indicator: Indicator


def _head_sum_channel_mean(
    per_head: Sequence[np.ndarray], indicator: Indicator
) -> ImportanceScores:
    """Sum one (L, K) quantity across heads, then average it over K."""
    if not per_head:
        raise ValueError(f"{indicator.value} scoring needs at least one head trace")
    shape = per_head[0].shape
    for arr in per_head[1:]:
        if arr.shape != shape:
            raise ValueError(f"head {indicator.value} shapes differ: {arr.shape} vs {shape}")
    total = per_head[0].astype(np.float32, copy=True)
    for arr in per_head[1:]:
        total = total + arr
    return ImportanceScores(total.mean(axis=1, dtype=np.float32), indicator)


def score_delta(traces: Sequence[ScanTrace]) -> ImportanceScores:
    """Head-summed timescales averaged across channels.

    Timescales are softplus outputs, so every score is strictly positive.
    """
    return _head_sum_channel_mean([t.delta for t in traces], Indicator.DELTA)


def score_projection(traces: Sequence[ScanTrace], indicator: Indicator) -> ImportanceScores:
    """Input-projection score: each head's B (or C), as its scan computed it,
    summed across heads, then averaged over the state dimension."""
    indicator = Indicator(indicator)
    if indicator is Indicator.B_PROJ:
        return _head_sum_channel_mean([t.b for t in traces], indicator)
    if indicator is Indicator.C_PROJ:
        return _head_sum_channel_mean([t.c for t in traces], indicator)
    raise ValueError(f"score_projection cannot produce {indicator}")


def score_hidden(x: np.ndarray) -> ImportanceScores:
    """Channel mean of the block-input features."""
    x = as_f32(x)
    if x.ndim != 2:
        raise ValueError(f"score_hidden expects (L, D) features, got {x.shape}")
    return ImportanceScores(x.mean(axis=1, dtype=np.float32), Indicator.HIDDEN_X)


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
    return ImportanceScores(sims, Indicator.CLS_SIM)


def compute_scores(
    indicator: Indicator,
    *,
    block_input: np.ndarray,
    block_output: np.ndarray,
    traces: Sequence[ScanTrace],
    cls_row: int | None,
) -> ImportanceScores:
    """Dispatch one indicator against a block's recorded quantities.

    HIDDEN_X reads the block input; CLS_SIM reads the block output, i.e.
    the sequence actually being compressed.
    """
    indicator = Indicator(indicator)
    if indicator is Indicator.DELTA:
        return score_delta(traces)
    if indicator in (Indicator.B_PROJ, Indicator.C_PROJ):
        return score_projection(traces, indicator)
    if indicator is Indicator.HIDDEN_X:
        return score_hidden(block_input)
    if indicator is Indicator.CLS_SIM:
        if cls_row is None:
            raise ValueError("cls similarity scoring needs a cls token")
        return score_cls_similarity(block_output, cls_row)
    raise ValueError(f"unknown indicator {indicator!r}")
