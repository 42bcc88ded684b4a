"""Workload definitions, seeded inputs and the per-pass output check.

Shared by the runner (``run.py``), the timed process (``worker.py``), the
reference generator (``make_reference.py``) and the benchmark's own tests,
each of which imports this module before numpy. Importing it pins the BLAS
thread variables for this process and the processes it starts. The
functions that need the program import it lazily, after
:func:`import_mambapress` has found it in this checkout.
"""

from __future__ import annotations

import os

# Before numpy loads BLAS: OpenBLAS at 2 threads fell from 61 to 3.4 GFLOP/s
# on the in_proj shape on a 2-core machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".perfbench_work"

# Weights are fixed; only the images vary with the workload seed.
WEIGHT_SEED = 0
# The seed whose logits, top-1 and full-model top-1 are stored in reference/.
PINNED_SEED = 0
# Images per seed. The closed loop cycles through them.
POOL_SIZE = 4
# Index of the pinned image every warm-up pass classifies and checks
# against the stored reference, whatever the workload seed.
WARMUP_IMAGE = 0

# A forward pass passes the tolerance check when every logit lies within
# LOGIT_TOL * max(1, max|reference|) of the reference. Wide enough for a
# reordered scan that stays within the 1e-5 scan oracle; a wrong merge
# (a plain instead of a weighted mean) moves dense-merge logits by 0.05-0.17.
LOGIT_TOL = 1e-3


class SourceMissing(RuntimeError):
    """The checkout has no ``src/mambapress`` package to benchmark."""


def import_mambapress():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    init = SRC / "mambapress" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no package at {init.parent}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mambapress

    if Path(mambapress.__file__).resolve() != init.resolve():
        raise SourceMissing(f"imported {mambapress.__file__}, expected {init}")
    return mambapress


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    config: dict  # ModelConfig keyword arguments
    layers: tuple[int, ...]
    target: float  # solve_k FLOPs-reduction target


TOY = dict(image_size=224, patch_size=16, feat_dim=192, depth=24)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-full", TOY, (5, 10, 15, 20), 0.0),
        Workload("toy-r40", TOY, (5, 10, 15, 20), 0.4),
        Workload(
            "dense-merge",
            dict(image_size=224, patch_size=4, feat_dim=32, depth=4, expand=1, state_dim=4),
            (0, 1, 2, 3),
            0.4,
        ),
    )
}


def model_config(workload: Workload):
    from mambapress import ModelConfig

    return ModelConfig(**workload.config)


def build_plan(config, workload: Workload):
    """The workload's plan, solved as a caller would: merge strategy.

    The functions are looked up on their modules, where a tracer wraps them.
    """
    from mambapress import Strategy, flops

    fm = flops.FlopsModel.from_config(config)
    return fm, flops.solve_k(fm, workload.target, workload.layers, Strategy.MERGE)


def image_seed(seed: int, index: int) -> int:
    return seed * POOL_SIZE + index


def make_images(config, seed: int) -> list:
    from mambapress import ppm

    return [
        ppm.synthetic_image(config.image_size, image_seed(seed, i), config.channels)
        for i in range(POOL_SIZE)
    ]


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict:
    with open(reference_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(logits, token_counts, expected_counts, ref_logits=None) -> list[str]:
    """Return the reasons one forward pass is wrong; empty when it is right.

    ``ref_logits`` is the stored reference for the pinned seed, or the first
    pass of the same image in this run otherwise.
    """
    problems = []
    if list(token_counts) != list(expected_counts):
        problems.append(f"token counts {list(token_counts)} != simulated {list(expected_counts)}")
    if not np.all(np.isfinite(logits)):
        problems.append("non-finite logits")
    elif ref_logits is not None:
        ref = np.asarray(ref_logits, dtype=np.float32)
        if int(np.argmax(logits)) != int(np.argmax(ref)):
            problems.append(f"top-1 {int(np.argmax(logits))} != reference {int(np.argmax(ref))}")
        tol = LOGIT_TOL * max(1.0, float(np.max(np.abs(ref))))
        err = float(np.max(np.abs(logits - ref)))
        if not err <= tol:
            problems.append(f"logits differ from reference by {err:.3g} > {tol:.3g}")
    return problems
