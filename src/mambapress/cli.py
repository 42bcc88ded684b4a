"""Command-line surface: seed checkpoints, run inference, benchmark, render masks.

Exit codes: 0 success, 2 bad flags or semantic flag errors, 3 I/O
problems, 4 numeric failure (non-finite activations).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import checkpoint as ckpt_io
from . import mask as mask_mod
from . import ppm
from .flops import FlopsModel, ReductionPlan, default_reduction_layers, solve_k
from .importance import Indicator
from .model import ModelConfig, NumericError, VisionModel
from .reduction import Strategy

REPORT_SCHEMA_VERSION = 1
BENCH_CSV_HEADER = "ratio,k,achieved,throughput_mean,throughput_std,total_flops"


def _ratio(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"ratio must lie in [0, 1), got {text}")
    return value


def _ratio_list(text: str) -> list[float]:
    return [_ratio(part) for part in text.split(",") if part != ""]


def _layers_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"layer list must be comma-separated ints: {text!r}")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image-size", type=int, default=224)
    p.add_argument("--patch-size", type=int, default=16)
    p.add_argument("--dim", type=int, default=192, help="token feature dimension")
    p.add_argument("--depth", type=int, default=24)
    p.add_argument("--expand", type=int, default=2)
    p.add_argument("--state-dim", type=int, default=16)
    p.add_argument("--delta-rank", type=int, default=None)
    p.add_argument("--cls", choices=("middle", "front", "none"), default="middle")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="weight init seed")


def _config_from_args(args: argparse.Namespace) -> ModelConfig:
    return ModelConfig(
        image_size=args.image_size,
        patch_size=args.patch_size,
        feat_dim=args.dim,
        depth=args.depth,
        expand=args.expand,
        state_dim=args.state_dim,
        delta_rank=args.delta_rank,
        cls_position=args.cls,
        class_count=args.classes,
    )


def _add_run_flags(p: argparse.ArgumentParser, require_ckpt: bool) -> None:
    p.add_argument("--ckpt", required=require_ckpt, help="checkpoint path")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--image", help="P6 PPM input image")
    src.add_argument("--synthetic", type=int, metavar="SEED", help="seeded synthetic input")
    p.add_argument("--target-reduction", type=_ratio, default=0.0)
    p.add_argument(
        "--strategy", type=Strategy, choices=[s.value for s in Strategy], default=Strategy.MERGE
    )
    p.add_argument(
        "--indicator", type=Indicator, choices=[i.value for i in Indicator], default=Indicator.DELTA
    )
    p.add_argument("--layers", type=_layers_csv, default=None, help="reduction layers (CSV)")
    p.add_argument("--unweighted-merge", action="store_true", help="plain instead of multiplicity-weighted means")


def _load_input(args: argparse.Namespace, config: ModelConfig) -> np.ndarray:
    if args.image is not None:
        img = ppm.read_ppm(args.image)
        expected = (config.image_size, config.image_size, config.channels)
        if img.shape != expected:
            raise ValueError(f"input image shape {img.shape} != model's {expected}")
        return img
    seed = args.synthetic if args.synthetic is not None else 0
    return ppm.synthetic_image(config.image_size, seed, config.channels)


def _build_plan(config: ModelConfig, target: float, strategy: Strategy, layers) -> ReductionPlan:
    if layers is None:
        layers = default_reduction_layers(config.depth)
    return solve_k(FlopsModel.from_config(config), target, layers, strategy)


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
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.ckpt is not None:
        model = ckpt_io.load_model(args.ckpt)
    else:
        model = VisionModel.seeded(_config_from_args(args), args.seed)
    config = model.config
    images = [
        ppm.synthetic_image(config.image_size, 1000 + i, config.channels)
        for i in range(args.batch)
    ]
    fm = FlopsModel.from_config(config)

    lines = [BENCH_CSV_HEADER]
    for ratio in args.ratios:
        plan = _build_plan(config, ratio, args.strategy, args.layers)
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
    _, diag = model.forward(image, plan, args.indicator)
    record = diag.reductions[args.layer]
    rendered = mask_mod.render_mask(
        image,
        config.patch_size,
        record.kept_orig,
        record.target_orig,
        record.merged_orig + record.pruned_orig,
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
    _add_run_flags(p_run, require_ckpt=True)
    p_run.add_argument("--json", action="store_true", help="compact single-line JSON")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="sweep reduction ratios, print CSV")
    p_bench.add_argument("--ratios", type=_ratio_list, default=[0.0, 0.2, 0.3, 0.4])
    p_bench.add_argument("--batch", type=int, default=1)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--warmup", type=int, default=1)
    p_bench.add_argument("--ckpt", default=None, help="checkpoint (default: seeded toy model)")
    p_bench.add_argument("--no-diag", action="store_true", help="skip diagnostics in timed runs")
    p_bench.add_argument(
        "--strategy", type=Strategy, choices=[s.value for s in Strategy], default=Strategy.MERGE
    )
    p_bench.add_argument(
        "--indicator", type=Indicator, choices=[i.value for i in Indicator], default=Indicator.DELTA
    )
    p_bench.add_argument("--layers", type=_layers_csv, default=None)
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_mask = sub.add_parser("mask", help="render one layer's token-retention mask")
    _add_run_flags(p_mask, require_ckpt=True)
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
