"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload toy-r40 --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The runner writes the workload's seeded weights with
``checkpoint.save_model`` (not timed), then starts ``worker.py``: a single
caller that sends the next image when the previous forward pass returns,
with BLAS pinned to one thread. ``--trace 0`` reports the end-to-end
metrics; set-up is sampled in ``SETUP_SAMPLES`` fresh processes and its
median reported. ``--trace 1`` reports the per-layer metrics from spans
recorded around each module's public functions. Human-readable lines come
first; the last stdout line is the JSON result. Files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as wl  # first: pins the BLAS threads before numpy loads

# Set-up is sampled in this many fresh processes; the timed one is the last.
SETUP_SAMPLES = 3
# Every process this runner starts must have ended by then.
DEADLINE_S = 170.0

END_TO_END = {
    "images_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Ops the kernel FLOP counter reports for these workloads; the FLOP
# cross-check compares the counter's total, whatever the ops.
FLOP_OPS = ("matmul", "causal_conv", "layernorm", "softplus", "silu", "exp",
            "add", "multiply", "rowdot")


PER_LAYER = {
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "B",
    "flops.solve_ms": "ms",
    "flops.solve_evals": "count",
    "model.patch_embed_ms": "ms",
    "model.forward_self_ms": "ms",
    "model.gflop_per_image": "GFLOP",
    "model.logits_bitexact_share": "share",
    "model.top1_agree_full": "share",
    "ssm.block_ms": "ms",
    "ssm.block_self_ms": "ms",
    "ssm.scan_ms": "ms",
    "ssm.scan_self_ms": "ms",
    "ssm.scan_us_per_token": "us",
    "ssm.tokens_per_image": "count",
    "kernels.matmul_ms": "ms",
    "kernels.matmul_calls": "count",
    "kernels.matmul_gflops_per_s": "GFLOP/s",
    "kernels.matmul_mb_computed": "MB",
    "kernels.conv_ms": "ms",
    **{f"kernels.matmul.{site}_ms": "ms" for site in
       ("patch", "in_proj", "out_proj", "dt_down", "dt_up", "bc", "head")},
    **{f"kernels.flops.{op}": "FLOP" for op in FLOP_OPS},
    "importance.score_ms": "ms",
    "importance.calls": "count",
    "reduction.reduce_ms": "ms",
    "reduction.match_ms": "ms",
    "reduction.pairs_scored": "count",
    "reduction.tokens_removed": "count",
    "reduction.removed_share": "share",
    "trace.overhead_share": "share",
}


class RunFailed(RuntimeError):
    """A child process failed or ran out of time; no result is printed."""


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in wl.BLAS_THREAD_VARS},
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a worker")
    cmd = [sys.executable, str(wl.BENCH_DIR / "worker.py"), *worker_args,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                              cwd=wl.ROOT)
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped it
        raise RunFailed(f"worker exceeded {remaining:.0f} s") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RunFailed(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare_checkpoint(workload: wl.Workload):
    """Write the seeded weights the timed process will load."""
    from mambapress import VisionModel, checkpoint

    wl.WORK_DIR.mkdir(exist_ok=True)
    path = wl.WORK_DIR / f"{workload.name}.ckpt"
    config = wl.model_config(workload)
    checkpoint.save_model(VisionModel.seeded(config, wl.WEIGHT_SEED), path)
    return path


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    wl.import_mambapress()
    workload = wl.WORKLOADS[args.workload]
    ckpt = prepare_checkpoint(workload)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans_out = wl.WORK_DIR / f"spans-{tag}.json"
    common = ["--workload", workload.name, "--seed", str(args.seed), "--ckpt", str(ckpt)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn([*common, "--seconds", "0", "--setup-only"], deadline))
    report = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--spans-out", str(spans_out)], deadline)
    setups.append(report)
    report["setup_s_samples"] = [s["setup_s"] for s in setups]
    report["setup_s"] = statistics.median(report["setup_s_samples"])
    extra = [msg for s in setups[:-1] for msg in s["warmup_failures"]]
    report["attempted"] += len(setups) - 1
    report["failed"] += len(extra)
    report["failures"] = extra + report["failures"]
    report["environment"] = environment(args.seed)
    report["run"] = vars(args)
    with open(wl.WORK_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_result(args, report: dict) -> None:
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"plan {json.dumps(report['plan'])} token_counts {report['token_counts']}")
    attempted, failed = report["attempted"], report["failed"]
    for msg in report["failures"]:
        print(f"FAILED {msg}")
    if args.trace:
        names = PER_LAYER
        values = report["per_layer"]
    else:
        names = END_TO_END
        values = report
    # An op the kernels did not run this time counted no FLOPs.
    metrics = {name: {"value": values.get(name, 0) if name.startswith("kernels.flops.")
                      else values[name], "unit": unit} for name, unit in names.items()}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  latency_tail_ms is p{report['latency_tail_percentile']:.1f} of "
              f"{report['latency_samples']} samples (10 beyond it)")
    print(f"{'failed_share':32s} {failed / attempted:.6g} share ({failed} of {attempted} passes)")
    agree = report["top1_agree_full"]
    print(f"{'top1_agree_full':32s} " + ("measured by --trace 1 on this seed" if agree is None
          else f"{agree:.6g} share (pool of {wl.POOL_SIZE} images)"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        report = run(args)
    except (wl.SourceMissing, RunFailed) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print_result(args, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
