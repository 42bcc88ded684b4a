"""Order-preserving token reduction: group, then merge or prune in place.

Tokens are ranked by importance and split into three groups: the top
``floor(k * L_r)`` are kept untouched, the bottom ``floor(k * L_r)``
("source") are pruned or absorbed into the middle ("target") group by
bipartite soft matching. Survivors keep their original sequence order
because rows are dropped and folded in place, never moved: the scan
downstream is order-sensitive, so this is load-bearing, not cosmetic.
Every strategy takes the same path through :func:`apply_merge`; the
strategy only sets how many sources are pruned rather than merged.

Merging tracks a per-row multiplicity weight so that repeated reductions
keep producing means over *original* tokens rather than means of means.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import kernels
from .ssm import Workspace


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
        if np.any(self.weight < 1):
            raise ValueError("every token weight must be >= 1")

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
    """Merge edges as one C-contiguous (S, 2) int64 array.

    Row i is (source row, target row) for the i-th merged source; every
    source appears exactly once. Any (S, 2) integer input is accepted,
    a list of tuples too; an empty one becomes shape (0, 2).
    """

    edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))

    def __post_init__(self) -> None:
        edges = np.ascontiguousarray(self.edges, dtype=np.int64)
        if edges.shape == (0,):
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"merge edges must be (S, 2), got shape {edges.shape}")
        self.edges = edges


@dataclass
class ReductionRecord:
    """What one reduction did, as int64 arrays of original indices, each
    group in descending score order. Row i of ``edges_orig`` is (source,
    target) for the i-th source merged; ``pruned_orig`` holds the sources
    dropped outright."""

    k: float
    strategy: Strategy
    kept_orig: np.ndarray  # (floor(k * reducible),)
    target_orig: np.ndarray
    pruned_orig: np.ndarray
    edges_orig: np.ndarray  # (S, 2)


def group_size(k: float, reducible_count: int) -> int:
    """floor(k * L_r): the shared size of the keep and source groups."""
    return int(math.floor(k * reducible_count))


def partition(scores: np.ndarray, k: float, cls_row: int | None = None) -> GroupPartition:
    """Split rows into keep/target/source by descending importance.

    Ties rank the earlier row first (rows are expected in original order,
    so this means the lower original index). The classification row, if
    given, is excluded from all three groups. k >= 0.5 would leave no
    target group and is rejected.
    """
    s = np.asarray(scores)
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


def match_sources(seq: TokenSequence, part: GroupPartition,
                  ws: Workspace | None = None) -> MergeMapping:
    """Bipartite soft matching: each source picks its most similar target.

    Similarity is cosine over the token features; ties pick the target
    with the lowest original index. Raises if sources exist but there is
    no target to absorb them. The gathered rows and their squares are
    buffers of ``ws``, or of a new :class:`Workspace` when it is None.
    """
    src = np.asarray(part.source_idx, dtype=np.int64)
    tgt = np.asarray(part.target_idx, dtype=np.int64)
    if len(src) == 0:
        return MergeMapping()
    if len(tgt) == 0:
        raise ValueError("invalid partition: sources present but target group is empty")
    # Columns in original-index order: the first maximum wins, so a tie goes
    # to the lowest original index. Rows may come in any order, so this is
    # not a plain sort of the row numbers. Each similarity is computed on
    # its own, so the column order does not change its bits.
    tgt = tgt[np.argsort(seq.orig_index[tgt], kind="stable")]
    ws = Workspace() if ws is None else ws
    x, d = seq.features, seq.features.shape[1]
    # The rows are in range, so take need not buffer its output to check
    # them. The targets are gathered transposed, as the kernel reads them.
    sources = np.take(x, src, axis=0, mode="clip", out=ws.take("sources", (len(src), d)))
    targets = np.take(x.T, tgt, axis=1, mode="clip", out=ws.take("targets", (d, len(tgt))))
    best = kernels.cosine_argmax(sources, targets.T, ws)
    return MergeMapping(np.stack([src, tgt[best]], axis=1))


def apply_merge(
    seq: TokenSequence,
    mapping: MergeMapping,
    weighted: bool = True,
    pruned_rows: Sequence[int] | np.ndarray = (),
    ws: Workspace | None = None,
) -> TokenSequence:
    """Drop the mapped sources and ``pruned_rows``; fold each source into its target.

    The merged feature is the multiplicity-weighted mean of the target and
    its sources (plain mean with ``weighted=False``); the merged weight is
    the participants' weight sum; the target keeps its original index.
    Rows not involved are copied bitwise, and survivors keep their row order.
    Column 0 of ``mapping.edges`` holds the source rows, column 1 the target
    each merges into. The features are ``ws``'s buffer "merged" if a
    workspace is given, else a new array.
    """
    n = len(seq)
    src, tgt = mapping.edges[:, 0], mapping.edges[:, 1]
    pruned = np.asarray(pruned_rows, dtype=np.int64)
    for rows in (src, tgt, pruned):
        bad = rows[(rows < 0) | (rows >= n)]
        if len(bad):
            raise ValueError(f"corrupt mapping: row {bad[0]} outside 0..{n - 1}")
    twice = src[np.bincount(src, minlength=n)[src] > 1]
    if len(twice):
        raise ValueError(f"corrupt mapping: source row {twice[0]} merged twice")
    is_pruned = np.zeros(n, dtype=bool)
    is_pruned[pruned] = True
    also_pruned = src[is_pruned[src]]
    if len(also_pruned):
        raise ValueError(f"corrupt mapping: merged source row {also_pruned[0]} is also pruned")
    keep = ~is_pruned
    keep[src] = False
    dropped = tgt[~keep[tgt]]
    if len(dropped):
        raise ValueError(f"corrupt mapping: target row {dropped[0]} is being dropped")

    out = None if ws is None else ws.take("merged", (int(keep.sum()), seq.features.shape[1]))
    features, weight = kernels.merge_fold(seq.features, seq.weight, keep, mapping.edges,
                                          weighted, out)
    return TokenSequence(features, seq.orig_index[keep], weight, seq.cls_orig)


def reduce_layer(
    seq: TokenSequence,
    scores: np.ndarray,
    k: float,
    strategy: Strategy,
    weighted: bool = True,
    ws: Workspace | None = None,
) -> tuple[TokenSequence, ReductionRecord]:
    """One full reduction: partition -> prune and merge, in original order.

    Rows must arrive in strictly increasing original-index order, as every
    block input does; survivors leave in that order because
    :func:`apply_merge` drops and folds rows in place. The strategy only
    sets how many of the lowest-scored sources are pruned outright: none for
    MERGE, all for PRUNE, half (rounded down) for HYBRID. The rest are
    matched to targets and merged. The classification token never joins a
    group and survives at its original position. With k = 0 the output is
    bitwise identical to the input. With a workspace ``ws`` the matching
    and the output features use its buffers; the features hold until the
    next reduction in ``ws``.
    """
    strategy = Strategy(strategy)
    if np.any(seq.orig_index[1:] <= seq.orig_index[:-1]):
        raise ValueError("corrupt sequence: original indices not strictly increasing")
    if np.shape(scores) != (len(seq),):
        raise ValueError(f"scores shape {np.shape(scores)} != ({len(seq)},): one score per token")
    part = partition(scores, k, seq.cls_row)
    src = part.source_idx  # score-descending, so pruning takes the tail
    n_pruned = {Strategy.MERGE: 0, Strategy.PRUNE: len(src), Strategy.HYBRID: len(src) // 2}
    n_merged = len(src) - n_pruned[strategy]
    merge_src, pruned = src[:n_merged], src[n_merged:]
    mapping = match_sources(seq, GroupPartition(part.keep_idx, part.target_idx, merge_src), ws)
    out = apply_merge(seq, mapping, weighted, pruned, ws)
    orig = seq.orig_index
    return out, ReductionRecord(k, strategy, orig[part.keep_idx], orig[part.target_idx],
                                orig[pruned], orig[mapping.edges])
