"""The timed process: set up like a caller, classify images in a closed loop.

``run.py`` starts this once per set-up sample and once for the timed run;
run it through ``run.py``. One caller sends the next image when the
previous ``VisionModel.forward`` returns. Set-up time runs from the
moment the parent spawned this process (``--spawned-at``, a
``time.monotonic`` reading, which is system-wide on Linux) until the
warm-up pass returns. The last stdout line is a JSON report.
"""

from __future__ import annotations

import workloads as wl  # first: pins the BLAS threads before numpy loads

import argparse
import json
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Failure messages kept in the report; the count covers all of them.
MAX_REPORTED_FAILURES = 5


@dataclass
class Pass:
    image: int  # pool index, or -1 for the pinned warm-up image
    seconds: float
    logits: np.ndarray | None
    token_counts: list[int] | None
    flops: dict[str, int] | None  # kernel counter by op, traced passes only
    error: str | None


def forward_once(model, image, plan, index: int, count_flops: bool = False) -> Pass:
    from mambapress import kernels

    flops = None
    start = time.perf_counter()
    try:
        if count_flops:
            with kernels.count_flops() as counter:
                logits, diag = model.forward(image, plan)
            flops = dict(counter.by_op, total=counter.total)
        else:
            logits, diag = model.forward(image, plan)
    except Exception as err:  # a failed pass is counted, not fatal
        return Pass(index, time.perf_counter() - start, None, None, None, repr(err))
    return Pass(index, time.perf_counter() - start, logits, diag.token_counts, flops, None)


def closed_loop(model, images, plan, seconds: float, tracer=None) -> tuple[list[Pass], float]:
    """Classify images round-robin until ``seconds`` have passed."""
    passes: list[Pass] = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        index = len(passes) % len(images)
        if tracer is not None:
            tracer.request = len(passes)
        passes.append(forward_once(model, images[index], plan, index, tracer is not None))
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.request = None
    return passes, elapsed


def check_passes(passes, expected_counts, stored, fm) -> tuple[list[str], list[bool]]:
    """Check every pass; return one message per failed pass and, for each
    pass checked against a stored reference, whether its logits are
    bit-identical to it.

    ``stored`` maps a pool index to the stored reference logits; an image
    with none is checked against its own first pass in this run.
    """
    failures: list[str] = []
    bitexact: list[bool] = []
    first: dict[int, np.ndarray] = {}
    for n, p in enumerate(passes):
        if p.error is not None:
            failures.append(f"pass {n}: raised {p.error}")
            continue
        ref = stored.get(p.image)
        if ref is None:
            ref = first.setdefault(p.image, p.logits)
        else:
            bitexact.append(bool(np.array_equal(p.logits, np.asarray(ref, dtype=np.float32))))
        problems = wl.check_pass(p.logits, p.token_counts, expected_counts, ref)
        if p.flops is not None:
            analytic = fm.total_from_counts(p.token_counts)
            if p.flops["total"] != analytic:
                problems.append(f"kernel FLOPs {p.flops['total']} != analytic {analytic}")
        if problems:
            failures.append(f"pass {n} (image {p.image}): " + "; ".join(problems))
    return failures, bitexact


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples). With 10 samples or fewer no
    percentile qualifies, and the maximum is returned at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def top1_agree_full(model, images, plan, passes, reference, seed: int, extra_passes: bool):
    """Share of classified pool images whose top-1 matches the unreduced
    (k=0) model's, or None when that would need k=0 passes and
    ``extra_passes`` is off. Run after the timed region."""
    reduced = {p.image: int(np.argmax(p.logits)) for p in passes if p.logits is not None}
    if not reduced:
        return 0.0
    if seed == wl.PINNED_SEED:
        full = {i: img["full_top1"] for i, img in enumerate(reference["images"])}
    elif plan.k == 0:
        full = reduced
    elif extra_passes:
        full = {i: int(np.argmax(model.forward(images[i], None)[0])) for i in reduced}
    else:
        return None
    return sum(reduced[i] == full[i] for i in reduced) / len(reduced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--ckpt", required=True)
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    # --- set-up, timed from the spawn: import, load, solve, warm-up ---
    wl.import_mambapress()
    from mambapress import checkpoint

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    model = checkpoint.load_model(args.ckpt)
    config = model.config
    fm, plan = wl.build_plan(config, workload)
    expected_counts = fm.token_counts(plan.k, plan.reduce_at_layers)
    reference = wl.load_reference(workload.name)
    stored_warmup = {-1: reference["images"][wl.WARMUP_IMAGE]["logits"]}
    pinned = wl.make_images(config, wl.PINNED_SEED)
    warmup = forward_once(model, pinned[wl.WARMUP_IMAGE], plan, -1)
    setup_s = time.monotonic() - args.spawned_at

    warm_failures, warm_exact = check_passes([warmup], expected_counts, stored_warmup, fm)
    report = {"setup_s": setup_s, "warmup_failures": warm_failures}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    # --- timed region ---
    images = pinned if args.seed == wl.PINNED_SEED else wl.make_images(config, args.seed)
    stored = {}
    if args.seed == wl.PINNED_SEED:
        stored = {i: img["logits"] for i, img in enumerate(reference["images"])}
    traced_passes: list[Pass] = []
    if tracer is None:
        passes, elapsed = closed_loop(model, images, plan, args.seconds)
    else:
        # Untraced first half, traced second half: the ratio of their
        # throughputs is the tracing overhead.
        tracer.uninstall()
        passes, elapsed = closed_loop(model, images, plan, args.seconds / 2)
        tracer.install()
        traced_passes, traced_elapsed = closed_loop(
            model, images, plan, args.seconds / 2, tracer
        )
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # --- checks and metrics, outside the timed region ---
    failures, exact = check_passes(passes + traced_passes, expected_counts, stored, fm)
    failures = warm_failures + failures
    exact = warm_exact + exact
    latencies = [p.seconds for p in passes]
    tail_s, tail_pct, samples = tail(latencies)
    report.update(
        attempted=1 + len(passes) + len(traced_passes),
        failed=len(failures),
        failures=failures[:MAX_REPORTED_FAILURES],
        images=len(passes),
        elapsed_s=elapsed,
        images_per_s=len(passes) / elapsed,
        latency_p50_ms=1e3 * statistics.median(latencies),
        latency_tail_ms=1e3 * tail_s,
        latency_tail_percentile=tail_pct,
        latency_samples=samples,
        latencies_ms=[1e3 * t for t in latencies],
        peak_rss_mb=peak_rss_mb,
        # The k=0 passes this may need would lengthen every untraced run by
        # up to a pool of full-model passes, so only the traced run pays them.
        top1_agree_full=top1_agree_full(model, images, plan, passes, reference, args.seed,
                                        extra_passes=tracer is not None),
        plan=plan.to_json(),
        token_counts=expected_counts,
    )
    if tracer is not None:
        from tracing import summarize

        n = len(traced_passes)
        layers = summarize(tracer.spans, config, n)
        ok = [p for p in traced_passes if p.flops is not None]
        ops = sorted({op for p in ok for op in p.flops if op != "total"})
        for op in ops:
            layers[f"kernels.flops.{op}"] = sum(p.flops.get(op, 0) for p in ok) / max(1, len(ok))
        gflop = [fm.total_from_counts(p.token_counts) / 1e9 for p in ok]
        layers["model.gflop_per_image"] = statistics.mean(gflop) if gflop else 0.0
        layers["model.logits_bitexact_share"] = sum(exact) / max(1, len(exact))
        layers["model.top1_agree_full"] = report["top1_agree_full"]
        layers["trace.overhead_share"] = 1.0 - (n / traced_elapsed) / report["images_per_s"]
        report["per_layer"] = layers
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
