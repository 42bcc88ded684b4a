"""Regenerate the stored reference outputs for the pinned seed.

    python3 perfbench/make_reference.py [workload ...]

For every pool image of the pinned seed it stores the logits (float32
values written exactly), the top-1 class and the top-1 class of the
unreduced (k=0) model, beside the simulated token counts and the analytic
FLOPs of the plan. The timed process checks its passes against these.
Regenerate them only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import workloads as wl  # first: pins the BLAS threads before numpy loads

import json
import sys

import numpy as np


def reference_for(workload: wl.Workload) -> dict:
    from mambapress import VisionModel

    config = wl.model_config(workload)
    model = VisionModel.seeded(config, wl.WEIGHT_SEED)
    fm, plan = wl.build_plan(config, workload)
    images = []
    for i, image in enumerate(wl.make_images(config, wl.PINNED_SEED)):
        logits, diag = model.forward(image, plan)
        full_logits, _ = model.forward(image, None)
        images.append({
            "index": i,
            "image_seed": wl.image_seed(wl.PINNED_SEED, i),
            "logits": [float(v) for v in logits],
            "top1": int(np.argmax(logits)),
            "full_top1": int(np.argmax(full_logits)),
        })
        print(f"{workload.name} image {i}: top1 {images[-1]['top1']} "
              f"full {images[-1]['full_top1']}", file=sys.stderr)
    counts = fm.token_counts(plan.k, plan.reduce_at_layers)
    return {
        "workload": workload.name,
        "seed": wl.PINNED_SEED,
        "weight_seed": wl.WEIGHT_SEED,
        "plan": plan.to_json(),
        "token_counts": counts,
        "analytic_flops": fm.total_from_counts(counts),
        "numpy": np.__version__,
        "images": images,
    }


def main(argv: list[str]) -> int:
    wl.import_mambapress()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in argv or sorted(wl.WORKLOADS):
        doc = reference_for(wl.WORKLOADS[name])
        with open(wl.reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
