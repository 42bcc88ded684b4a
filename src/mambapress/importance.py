"""Per-token importance scores read out of a block's internal quantities.

The primary indicator is the timescale: a token whose scan timescale is
large overwrites more of the running state, so it carries more information
for downstream tokens. The remaining indicators (input-projection scores,
raw hidden features, similarity to the classification token) exist for
ablation and share the same aggregation shape: sum across heads first,
then average across channels.

Scoring is diagnostic bookkeeping; it is excluded from the FLOPs model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import kernels
from .kernels import as_f32
from .ssm import ScanTrace, SsmHeadParams


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

    def __len__(self) -> int:
        return len(self.scores)


def score_delta(traces: Sequence[ScanTrace]) -> ImportanceScores:
    """Head-summed timescales averaged across channels.

    Timescales are softplus outputs, so every score is strictly positive.
    """
    if not traces:
        raise ValueError("score_delta needs at least one head trace")
    shape = traces[0].delta.shape
    for trace in traces[1:]:
        if trace.delta.shape != shape:
            raise ValueError(
                f"head delta shapes differ: {trace.delta.shape} vs {shape}"
            )
    total = traces[0].delta.astype(np.float32, copy=True)
    for trace in traces[1:]:
        total = total + trace.delta
    return ImportanceScores(total.mean(axis=1, dtype=np.float32), Indicator.DELTA)


def score_projection(
    inputs: Sequence[np.ndarray],
    weights: Sequence[np.ndarray],
    indicator: Indicator,
) -> ImportanceScores:
    """Input-projection score: per head x @ w, summed across heads, then
    averaged over the projection dimension."""
    if indicator not in (Indicator.B_PROJ, Indicator.C_PROJ):
        raise ValueError(f"score_projection cannot produce {indicator}")
    if not inputs or len(inputs) != len(weights):
        raise ValueError("inputs and weights must pair up, one per head")
    total: np.ndarray | None = None
    for x, w in zip(inputs, weights):
        x = as_f32(x)
        w = as_f32(w)
        if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
            raise ValueError(f"projection shape mismatch: {x.shape} x {w.shape}")
        with kernels.uncounted():  # scoring is free by convention
            proj = kernels.matmul(x, w)
        if total is None:
            total = proj
        elif proj.shape != total.shape:
            raise ValueError(f"head projection shapes differ: {proj.shape} vs {total.shape}")
        else:
            total = total + proj
    assert total is not None
    return ImportanceScores(total.mean(axis=1, dtype=np.float32), indicator)


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
    heads: Sequence[SsmHeadParams],
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
        ws = [
            h.w_b if indicator is Indicator.B_PROJ else h.w_c for h in heads
        ]
        return score_projection([t.scan_input for t in traces], ws, indicator)
    if indicator is Indicator.HIDDEN_X:
        return score_hidden(block_input)
    if indicator is Indicator.CLS_SIM:
        if cls_row is None:
            raise ValueError("cls similarity scoring needs a cls token")
        return score_cls_similarity(block_output, cls_row)
    raise ValueError(f"unknown indicator {indicator!r}")
