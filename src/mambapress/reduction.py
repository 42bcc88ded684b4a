"""Order-preserving token reduction: group, merge or prune, reorder.

Tokens are ranked by importance and split into three groups: the top
``floor(k * L_r)`` are kept untouched, the bottom ``floor(k * L_r)``
("source") are pruned or absorbed into the middle ("target") group by
bipartite soft matching, and the survivors are re-sorted by original
sequence position. The scan downstream is order-sensitive, so the final
reorder is load-bearing, not cosmetic. Every strategy takes the same path
through :func:`apply_merge`; the strategy only sets how many sources are
pruned rather than merged.

Merging tracks a per-row multiplicity weight so that repeated reductions
keep producing means over *original* tokens rather than means of means.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import kernels
from .importance import ImportanceScores


class Strategy(str, Enum):
    MERGE = "merge"
    PRUNE = "prune"
    HYBRID = "hybrid"


@dataclass
class TokenSequence:
    """A token sequence plus the provenance needed to reduce it.

    ``orig_index`` is each row's position in the original patch order and
    stays unique across reductions; ``weight`` counts how many original
    tokens each row represents. ``cls_orig`` is the original index of the
    classification token, if one is present.
    """

    features: np.ndarray  # (L, D) float32
    orig_index: np.ndarray  # (L,) int64, unique
    weight: np.ndarray  # (L,) int64, >= 1
    cls_orig: int | None = None

    def __post_init__(self) -> None:
        self.features = kernels.as_f32(self.features)
        self.orig_index = np.asarray(self.orig_index, dtype=np.int64)
        self.weight = np.asarray(self.weight, dtype=np.int64)
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise ValueError(f"features must be (L, D), got {self.features.shape}")
        if self.orig_index.shape != (n,) or self.weight.shape != (n,):
            raise ValueError("orig_index/weight lengths inconsistent with features")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def cls_row(self) -> int | None:
        if self.cls_orig is None:
            return None
        rows = np.nonzero(self.orig_index == self.cls_orig)[0]
        if len(rows) != 1:
            raise ValueError("cls token missing from sequence")
        return int(rows[0])

    @classmethod
    def fresh(cls, features: np.ndarray, cls_orig: int | None = None) -> "TokenSequence":
        n = np.asarray(features).shape[0]
        return cls(features, np.arange(n, dtype=np.int64), np.ones(n, dtype=np.int64), cls_orig)


@dataclass
class GroupPartition:
    """Row indices of the keep / target / source groups, score-descending."""

    keep_idx: np.ndarray
    target_idx: np.ndarray
    source_idx: np.ndarray


@dataclass
class MergeMapping:
    """source-row -> target-row edges; every source appears exactly once."""

    edges: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class ReductionRecord:
    """What one reduction did, in original-index terms (for diagnostics)."""

    k: float
    strategy: Strategy
    group_count: int  # floor(k * reducible)
    kept_orig: list[int] = field(default_factory=list)
    target_orig: list[int] = field(default_factory=list)
    merged_orig: list[int] = field(default_factory=list)  # sources absorbed by merge
    pruned_orig: list[int] = field(default_factory=list)  # sources dropped outright
    edges_orig: list[tuple[int, int]] = field(default_factory=list)


def group_size(k: float, reducible_count: int) -> int:
    """floor(k * L_r): the shared size of the keep and source groups."""
    return int(math.floor(k * reducible_count))


def partition(
    scores: ImportanceScores | np.ndarray, k: float, cls_row: int | None = None
) -> GroupPartition:
    """Split rows into keep/target/source by descending importance.

    Ties rank the earlier row first (rows are expected in original order,
    so this means the lower original index). The classification row, if
    given, is excluded from all three groups. k >= 0.5 would leave no
    target group and is rejected.
    """
    s = scores.scores if isinstance(scores, ImportanceScores) else np.asarray(scores)
    if not 0.0 <= k < 0.5:
        raise ValueError(f"grouping ratio must lie in [0, 0.5), got {k}")
    rows = np.arange(len(s), dtype=np.int64)
    if cls_row is not None:
        if not 0 <= cls_row < len(s):
            raise ValueError(f"cls row {cls_row} out of range for {len(s)} tokens")
        rows = rows[rows != cls_row]
    ranked = rows[kernels.argsort_desc(s[rows])]
    n_k = group_size(k, len(rows))
    return GroupPartition(
        keep_idx=ranked[:n_k],
        target_idx=ranked[n_k : len(ranked) - n_k],
        source_idx=ranked[len(ranked) - n_k :] if n_k else ranked[:0],
    )


def match_sources(seq: TokenSequence, part: GroupPartition) -> MergeMapping:
    """Bipartite soft matching: each source picks its most similar target.

    Similarity is cosine over the token features; ties pick the target
    with the lowest original index. Raises if sources exist but there is
    no target to absorb them.
    """
    src = np.asarray(part.source_idx, dtype=np.int64)
    tgt = np.asarray(part.target_idx, dtype=np.int64)
    if len(src) == 0:
        return MergeMapping([])
    if len(tgt) == 0:
        raise ValueError("invalid partition: sources present but target group is empty")
    sims = kernels.cosine_matrix(seq.features[src], seq.features[tgt])
    tgt_orig = seq.orig_index[tgt]
    edges: list[tuple[int, int]] = []
    for i, s_row in enumerate(src):
        row = sims[i]
        best = np.nonzero(row == row.max())[0]
        j = best[np.argmin(tgt_orig[best])]
        edges.append((int(s_row), int(tgt[j])))
    return MergeMapping(edges)


def apply_merge(
    seq: TokenSequence,
    mapping: MergeMapping,
    weighted: bool = True,
    pruned_rows: Iterable[int] = (),
) -> TokenSequence:
    """Drop the mapped sources and ``pruned_rows``; fold each source into its target.

    The merged feature is the multiplicity-weighted mean of the target and
    its sources (plain mean with ``weighted=False``); the merged weight is
    the participants' weight sum; the target keeps its original index.
    Rows not involved are copied bitwise.
    """
    pruned = {int(r) for r in pruned_rows}
    drop_rows = {s for s, _ in mapping.edges} | pruned
    groups: dict[int, list[int]] = {}
    seen: set[int] = set()
    for s_row, t_row in mapping.edges:
        if s_row in seen:
            raise ValueError(f"corrupt mapping: source row {s_row} merged twice")
        seen.add(s_row)
        if s_row in pruned:
            raise ValueError(f"corrupt mapping: merged source row {s_row} is also pruned")
        if t_row in drop_rows:
            raise ValueError(f"corrupt mapping: target row {t_row} is being dropped")
        groups.setdefault(t_row, []).append(s_row)

    survivors = [r for r in range(len(seq)) if r not in drop_rows]
    new_row = {r: i for i, r in enumerate(survivors)}
    features = seq.features[survivors]
    orig = seq.orig_index[survivors]
    weight = seq.weight[survivors].copy()

    for t_row, s_rows in groups.items():
        members = [t_row, *s_rows]
        w = seq.weight[members].astype(np.float64)
        f = seq.features[members].astype(np.float64)
        if weighted:
            merged = (f * w[:, None]).sum(axis=0) / w.sum()
        else:
            merged = f.mean(axis=0)
        features[new_row[t_row]] = merged.astype(np.float32)
        weight[new_row[t_row]] = seq.weight[members].sum()

    return TokenSequence(features, orig, weight, seq.cls_orig)


def reorder(seq: TokenSequence) -> TokenSequence:
    """Sort rows ascending by original index; features untouched."""
    orig = seq.orig_index
    if len(np.unique(orig)) != len(orig):
        raise ValueError("corrupt sequence: duplicate original indices")
    order = np.argsort(orig, kind="stable")
    return TokenSequence(
        seq.features[order], orig[order], seq.weight[order], seq.cls_orig
    )


def reduce_layer(
    seq: TokenSequence,
    scores: ImportanceScores | np.ndarray,
    k: float,
    strategy: Strategy,
    weighted: bool = True,
) -> tuple[TokenSequence, ReductionRecord]:
    """One full reduction: partition -> prune and merge -> reorder.

    The strategy only sets how many of the lowest-scored sources are pruned
    outright: none for MERGE, all for PRUNE, half (rounded down) for HYBRID.
    The rest are matched to targets and merged. The classification token
    never joins a group and survives at its original position. With k = 0
    the output is bitwise identical to the input (rows are expected in
    original-index order, as every block input is).
    """
    strategy = Strategy(strategy)
    part = partition(scores, k, seq.cls_row)
    src = part.source_idx  # score-descending, so pruning takes the tail
    n_pruned = {Strategy.MERGE: 0, Strategy.PRUNE: len(src), Strategy.HYBRID: len(src) // 2}
    n_merged = len(src) - n_pruned[strategy]
    merge_src, pruned = src[:n_merged], src[n_merged:]
    mapping = match_sources(seq, GroupPartition(part.keep_idx, part.target_idx, merge_src))
    out = apply_merge(seq, mapping, weighted, pruned)
    orig = seq.orig_index
    record = ReductionRecord(
        k=k,
        strategy=strategy,
        group_count=len(part.keep_idx),
        kept_orig=[int(i) for i in orig[part.keep_idx]],
        target_orig=[int(i) for i in orig[part.target_idx]],
        merged_orig=[int(orig[s]) for s, _ in mapping.edges],
        pruned_orig=[int(i) for i in orig[pruned]],
        edges_orig=[(int(orig[s]), int(orig[t])) for s, t in mapping.edges],
    )
    return reorder(out), record
