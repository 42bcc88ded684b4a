"""Command-line surface: seed checkpoints, run inference, benchmark, render masks.

Exit codes: 0 success, 2 bad flags or semantic flag errors, 3 I/O
problems, 4 numeric failure (non-finite activations, similarities or scores).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import checkpoint as ckpt_io
from . import mask as mask_mod
from . import ppm
from .flops import FlopsModel, ReductionPlan, default_reduction_layers, solve_k
from .importance import Indicator
from .model import (CLS_POSITIONS, MAX_PATCH_INPUTS, MAX_PATCH_TOKENS, ModelConfig, NumericError,
                    VisionModel)
from .reduction import Strategy

REPORT_SCHEMA_VERSION = 1
BENCH_CSV_HEADER = "ratio,k,achieved,throughput_mean,throughput_std,total_flops"

# The most float32 values a bench batch may hold (1 GiB): those of the largest
# image a config allows, so batch 1 is valid for every config.
MAX_BATCH_VALUES = MAX_PATCH_TOKENS * MAX_PATCH_INPUTS


def _ratio(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"ratio must lie in [0, 1), got {text}")
    return value


def _count(least: int):
    """An argparse type for integers no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return value

    return parse


def _ratio_list(text: str) -> list[float]:
    ratios = [_ratio(part) for part in text.split(",") if part != ""]
    if not ratios:
        raise argparse.ArgumentTypeError(f"no ratio in {text!r}")
    return ratios


def _layers_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"layer list must be comma-separated ints: {text!r}")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """The model config flags, each stored under its ModelConfig field's name."""
    p.add_argument("--image-size", type=int, default=224)
    p.add_argument("--patch-size", type=int, default=16)
    p.add_argument("--dim", dest="feat_dim", metavar="DIM", type=int, default=192,
                   help="token feature dimension")
    p.add_argument("--depth", type=int, default=24)
    p.add_argument("--expand", type=int, default=2)
    p.add_argument("--state-dim", type=int, default=16)
    p.add_argument("--delta-rank", type=int, default=None)
    p.add_argument("--cls", dest="cls_position", choices=CLS_POSITIONS, default="middle")
    p.add_argument("--classes", dest="class_count", metavar="CLASSES", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="weight init seed")


def _config_from_args(args: argparse.Namespace) -> ModelConfig:
    names = {f.name for f in dataclasses.fields(ModelConfig)}
    return ModelConfig(**{k: v for k, v in vars(args).items() if k in names})


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--strategy", type=Strategy, choices=[s.value for s in Strategy], default=Strategy.MERGE
    )
    p.add_argument(
        "--indicator", type=Indicator, choices=[i.value for i in Indicator], default=Indicator.DELTA
    )
    p.add_argument("--layers", type=_layers_csv, default=None, help="reduction layers (CSV)")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--image", help="P6 PPM input image")
    src.add_argument("--synthetic", type=int, metavar="SEED", help="seeded synthetic input")
    p.add_argument("--target-reduction", type=_ratio, default=0.0)
    _add_plan_flags(p)
    p.add_argument("--unweighted-merge", action="store_true", help="plain instead of multiplicity-weighted means")


def _load_input(args: argparse.Namespace, config: ModelConfig) -> np.ndarray:
    if args.image is not None:
        return ppm.read_ppm(args.image)
    seed = args.synthetic if args.synthetic is not None else 0
    return ppm.synthetic_image(config.image_size, seed, config.channels)


def _build_plan(config: ModelConfig, target: float, strategy: Strategy, layers) -> ReductionPlan:
    fm = FlopsModel.from_config(config)
    if layers is not None:
        return solve_k(fm, target, layers, strategy)
    layers = default_reduction_layers(config.depth)
    try:
        return solve_k(fm, target, layers, strategy)
    except ValueError as err:
        raise ValueError(f"{err}; the default reduction layers at depth {config.depth} "
                         f"are {list(layers)}, choose others with --layers") from err


def _achieved_from_counts(fm: FlopsModel, token_counts: list[int]) -> tuple[int, int, float]:
    baseline = fm.total_flops()
    reduced = fm.total_from_counts(token_counts)
    return baseline, reduced, 1.0 - reduced / baseline


def cmd_run(args: argparse.Namespace) -> int:
    model = ckpt_io.load_model(args.ckpt)
    config = model.config
    image = _load_input(args, config)
    plan = _build_plan(config, args.target_reduction, args.strategy, args.layers)

    start = time.perf_counter()
    logits, diag = model.forward(
        image, plan, args.indicator, weighted_merge=not args.unweighted_merge
    )
    elapsed = time.perf_counter() - start

    fm = FlopsModel.from_config(config)
    baseline, reduced, achieved = _achieved_from_counts(fm, diag.token_counts)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": config.to_json(),
        "plan": plan.to_json(),
        "indicator": args.indicator.value,
        "token_counts": diag.token_counts,
        "flops": {
            "baseline": baseline,
            "reduced": reduced,
            "achieved_reduction": achieved,
        },
        "elapsed_s": elapsed,
        "throughput_seq_per_s": 1.0 / elapsed if elapsed > 0 else float("inf"),
        "logits": [float(v) for v in logits],
        "top_class": int(np.argmax(logits)),
    }
    print(json.dumps(report, indent=None if args.json else 2, sort_keys=True))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.ckpt is not None:
        model = ckpt_io.load_model(args.ckpt)
    else:
        model = VisionModel.seeded(_config_from_args(args), args.seed)
    config = model.config
    if args.batch * config.patch_tokens * config.patch_inputs > MAX_BATCH_VALUES:
        raise ValueError(f"--batch {args.batch} images hold more than {MAX_BATCH_VALUES} values")
    images = [
        ppm.synthetic_image(config.image_size, 1000 + i, config.channels)
        for i in range(args.batch)
    ]
    fm = FlopsModel.from_config(config)

    lines = [BENCH_CSV_HEADER]
    for ratio in args.ratios:
        plan = _build_plan(config, ratio, args.strategy, args.layers)
        # Untimed: counts the tokens for the achieved and total_flops columns,
        # and loads or compiles the kernel library before the timed loop,
        # which matters with --warmup 0.
        _, diag = model.forward(images[0], plan, args.indicator)
        _, total, achieved = _achieved_from_counts(fm, diag.token_counts)
        for _ in range(args.warmup):
            model.forward(images[0], plan, args.indicator, collect_diagnostics=not args.no_diag)
        rates = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            for image in images:
                model.forward(image, plan, args.indicator, collect_diagnostics=not args.no_diag)
            elapsed = time.perf_counter() - start
            rates.append(len(images) / elapsed)
        lines.append(
            f"{ratio},{plan.k},{achieved},{np.mean(rates)},{np.std(rates)},{total}"
        )
    print("\n".join(lines))
    return 0


def cmd_mask(args: argparse.Namespace) -> int:
    model = ckpt_io.load_model(args.ckpt)
    config = model.config
    image = _load_input(args, config)
    plan = _build_plan(config, args.target_reduction, args.strategy, args.layers)
    if args.layer not in plan.reduce_at_layers:
        raise ValueError(
            f"layer {args.layer} is not a reduction layer of this plan "
            f"(plan reduces at {list(plan.reduce_at_layers)})"
        )
    _, diag = model.forward(
        image, plan, args.indicator, weighted_merge=not args.unweighted_merge
    )
    record = diag.reductions[args.layer]
    rendered = mask_mod.render_mask(
        image,
        config.patch_size,
        record.kept_orig,
        record.target_orig,
        np.concatenate((record.edges_orig[:, 0], record.pruned_orig)),
        cls_orig=config.cls_slot,
    )
    ppm.write_ppm(args.out, rendered)
    print(f"wrote {args.out}")
    return 0


def cmd_init(args: argparse.Namespace) -> int:
    model = VisionModel.seeded(_config_from_args(args), args.seed)
    ckpt_io.save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mambapress",
        description="Training-free token reduction for selective-SSM vision models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="write a seeded toy checkpoint")
    p_init.add_argument("--out", required=True)
    _add_config_flags(p_init)
    p_init.set_defaults(func=cmd_init)

    p_run = sub.add_parser("run", help="run one image and print a JSON report")
    _add_run_flags(p_run)
    p_run.add_argument("--json", action="store_true", help="compact single-line JSON")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="sweep reduction ratios, print CSV")
    p_bench.add_argument("--ratios", type=_ratio_list, default=[0.0, 0.2, 0.3, 0.4])
    p_bench.add_argument("--batch", type=_count(1), default=1)
    p_bench.add_argument("--repeats", type=_count(1), default=3)
    p_bench.add_argument("--warmup", type=_count(0), default=1)
    p_bench.add_argument("--ckpt", default=None, help="checkpoint (default: seeded toy model)")
    p_bench.add_argument("--no-diag", action="store_true", help="timed passes return no diagnostics")
    _add_plan_flags(p_bench)
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_mask = sub.add_parser("mask", help="render one layer's token-retention mask")
    _add_run_flags(p_mask)
    p_mask.add_argument("--layer", type=int, required=True, help="reduction layer to render")
    p_mask.add_argument("--out", required=True, help="output PPM path")
    p_mask.set_defaults(func=cmd_mask)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4
    except (OSError, ckpt_io.CheckpointError, ppm.PpmError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
