"""Spans around the program's public functions, installed from outside.

The program's source is untouched. A :class:`Tracer` replaces each traced
function with a wrapper at the place its caller looks the name up:
``model.py`` imported ``compute_scores`` and ``reduce_layer`` by name, so
those are swapped in ``mambapress.model``; ``ssm.py`` calls
``selective_scan`` as a module global, and every block calls
``kernels.matmul`` through the module, so those are swapped in their own
modules. :meth:`Tracer.uninstall` puts the originals back.

A span is ``[id, parent id, name, start ns, end ns, request, attrs]``.
Spans stay in memory and are written out once, when the run ends. A
span's self time is its duration minus that of its direct children; the
traced process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

ID, PARENT, NAME, START, END, REQUEST, ATTRS = range(7)

MATMUL_SITES = ("patch", "in_proj", "out_proj", "dt_down", "dt_up", "bc", "head")


def _tokens(args, kwargs, result):
    return {"tokens": int(np.shape(args[0])[0])}


def _matmul_shape(args, kwargs, result):
    a, b = np.shape(args[0]), np.shape(args[1])
    return {"m": int(a[0]), "k": int(a[1]), "p": int(b[1])}


def _ckpt_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _pairs(args, kwargs, result):
    part = args[1]
    return {"pairs": len(part.source_idx) * len(part.target_idx)}


def _removed(args, kwargs, result):
    before = len(args[0])
    return {"tokens": before, "removed": before - len(result[0])}


class Tracer:
    """Records spans for the functions it has been installed on."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0, 0, self.request, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the public functions of each module where callers find them."""
        from mambapress import checkpoint, flops, kernels, model, reduction, ssm

        self.wrap(checkpoint, "load_model", "checkpoint.load", _ckpt_bytes)
        self.wrap(flops, "solve_k", "flops.solve")
        self.wrap(flops.FlopsModel, "achieved_reduction", "flops.eval")
        self.wrap(model.VisionModel, "forward", "model.forward")
        self.wrap(model, "patch_embed", "model.patch_embed")
        self.wrap(ssm, "mamba_block", "ssm.block", _tokens)
        self.wrap(ssm, "selective_scan", "ssm.scan", _tokens)
        self.wrap(kernels, "matmul", "kernels.matmul", _matmul_shape)
        self.wrap(kernels, "causal_conv", "kernels.conv")
        self.wrap(model, "compute_scores", "importance.score")
        self.wrap(model, "reduce_layer", "reduction.reduce", _removed)
        self.wrap(reduction, "match_sources", "reduction.match", _pairs)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns",
                                  "request", "attrs"], "spans": self.spans}, fh)


def matmul_sites(config) -> dict[tuple[int, int], str]:
    """Map an operand shape (K, P) to the call site that uses it."""
    d, e, n, r = config.feat_dim, config.inner_dim, config.state_dim, config.rank
    patch_in = config.patch_size * config.patch_size * config.channels
    shapes = [(patch_in, d), (d, 2 * e), (e, d), (e, r), (r, e), (e, n),
              (d, config.class_count)]
    if len(set(shapes)) != len(shapes):
        raise ValueError(f"matmul sites not told apart by shape for {config}")
    return dict(zip(shapes, MATMUL_SITES))


def summarize(spans: list[list], config, images: int) -> dict[str, float]:
    """Per-layer metrics from the spans. Times and counts are per image."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]

    total: dict[str, float] = defaultdict(float)  # ns
    self_ns: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    tally: dict[str, float] = defaultdict(float)
    sites = matmul_sites(config)
    site_ns: dict[str, float] = defaultdict(float)
    solve_ids = set()
    for s in spans:
        name, dur = s[NAME], s[END] - s[START]
        attrs = s[ATTRS] or {}
        if s[REQUEST] is None:  # set-up: checkpoint load and plan solve
            if name == "checkpoint.load":
                tally["load_ns"] += dur
                tally["bytes"] = attrs["bytes"]
            elif name == "flops.solve":
                tally["solve_ns"] += dur
                solve_ids.add(s[ID])
            elif name == "flops.eval" and s[PARENT] in solve_ids:
                tally["solve_evals"] += 1
            continue
        total[name] += dur
        self_ns[name] += dur - child_ns[s[ID]]
        calls[name] += 1
        if name == "kernels.matmul":
            m, k, p = attrs["m"], attrs["k"], attrs["p"]
            tally["matmul_flop"] += 2 * m * k * p
            tally["matmul_bytes"] += 4 * (m * k + k * p + m * p)
            site_ns[sites.get((k, p), "other")] += dur
        elif name == "ssm.scan":
            tally["scan_tokens"] += attrs["tokens"]
        elif name == "ssm.block":
            tally["block_tokens"] += attrs["tokens"]
        elif name == "reduction.reduce":
            tally["reduce_in"] += attrs["tokens"]
            tally["removed"] += attrs["removed"]
        elif name == "reduction.match":
            tally["pairs"] += attrs["pairs"]

    def ms(name: str) -> float:
        return total[name] / 1e6 / images

    out = {
        "checkpoint.load_ms": tally["load_ns"] / 1e6,
        "checkpoint.bytes": tally["bytes"],
        "flops.solve_ms": tally["solve_ns"] / 1e6,
        "flops.solve_evals": tally["solve_evals"],
        "model.patch_embed_ms": ms("model.patch_embed"),
        "model.forward_self_ms": self_ns["model.forward"] / 1e6 / images,
        "ssm.block_ms": ms("ssm.block"),
        "ssm.block_self_ms": self_ns["ssm.block"] / 1e6 / images,
        "ssm.scan_ms": ms("ssm.scan"),
        "ssm.scan_self_ms": self_ns["ssm.scan"] / 1e6 / images,
        "ssm.scan_us_per_token": total["ssm.scan"] / 1e3 / max(1.0, tally["scan_tokens"]),
        "ssm.tokens_per_image": tally["block_tokens"] / images,
        "kernels.matmul_ms": ms("kernels.matmul"),
        "kernels.matmul_calls": calls["kernels.matmul"] / images,
        "kernels.matmul_gflops_per_s": tally["matmul_flop"] / max(1.0, total["kernels.matmul"]),
        "kernels.matmul_mb_computed": tally["matmul_bytes"] / 1e6 / images,
        "kernels.conv_ms": ms("kernels.conv"),
        "importance.score_ms": ms("importance.score"),
        "importance.calls": calls["importance.score"] / images,
        "reduction.reduce_ms": ms("reduction.reduce"),
        "reduction.match_ms": ms("reduction.match"),
        "reduction.pairs_scored": tally["pairs"] / images,
        "reduction.tokens_removed": tally["removed"] / images,
        "reduction.removed_share": tally["removed"] / max(1.0, tally["reduce_in"]),
    }
    for site in MATMUL_SITES:
        out[f"kernels.matmul.{site}_ms"] = site_ns[site] / 1e6 / images
    return out
