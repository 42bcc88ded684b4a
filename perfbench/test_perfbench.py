"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import workloads as wl

mp = wl.import_mambapress()

import tracing  # noqa: E402
import worker  # noqa: E402

TINY = mp.ModelConfig(image_size=16, patch_size=4, feat_dim=16, depth=3, state_dim=8)


def run_worker(tmp_path, capsys, workload="dense-merge", seconds=0.5) -> dict:
    ckpt = tmp_path / "w.ckpt"
    config = wl.model_config(wl.WORKLOADS[workload])
    mp.save_model(mp.VisionModel.seeded(config, wl.WEIGHT_SEED), ckpt)
    code = worker.main(["--workload", workload, "--seed", str(wl.PINNED_SEED),
                        "--seconds", str(seconds), "--spawned-at", "0", "--ckpt", str(ckpt)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_stored_reference_passes(tmp_path, capsys):
    report = run_worker(tmp_path, capsys)
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] >= 2


def test_corrupted_reference_fails_every_pass(tmp_path, capsys, monkeypatch):
    ref = copy.deepcopy(wl.load_reference("dense-merge"))
    for img in ref["images"]:
        img["logits"] = [v + 0.5 for v in img["logits"]]
    monkeypatch.setattr(wl, "load_reference", lambda name: ref)
    report = run_worker(tmp_path, capsys)
    assert report["failed"] == report["attempted"] >= 2


def test_check_pass_catches_each_fault():
    ref = np.array([0.1, 0.9, -0.3], dtype=np.float32)
    assert wl.check_pass(ref, [5, 3], [5, 3], ref) == []
    assert wl.check_pass(ref, [5, 4], [5, 3], ref)  # live counts off the simulation
    assert wl.check_pass(np.array([0.1, np.nan, 0.0], np.float32), [5, 3], [5, 3])
    assert wl.check_pass(ref[::-1].copy(), [5, 3], [5, 3], ref)  # top-1 moved
    assert wl.check_pass(ref + 0.01, [5, 3], [5, 3], ref)  # beyond tolerance
    assert wl.check_pass(ref + 1e-4, [5, 3], [5, 3], ref) == []  # within tolerance


def test_tail_leaves_ten_samples_beyond():
    values = [float(i) for i in range(40)]
    value, pct, n = worker.tail(values)
    assert (value, pct, n) == (29.0, 75.0, 40)
    assert sum(v > value for v in values) == 10
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_tracing_keeps_outputs_and_restores_functions():
    model = mp.VisionModel.seeded(TINY, 0)
    plan = mp.solve_k(mp.FlopsModel.from_config(TINY), 0.1, (0, 1))
    image = np.random.default_rng(1).random((16, 16, 3), dtype=np.float32)
    originals = (mp.kernels.matmul, mp.model.reduce_layer, mp.ssm.selective_scan)
    plain, _ = model.forward(image, plan)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        traced, diag = model.forward(image, plan)
    finally:
        tracer.uninstall()
    assert (mp.kernels.matmul, mp.model.reduce_layer, mp.ssm.selective_scan) == originals
    assert np.array_equal(plain, traced)

    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"model.forward", "ssm.block", "ssm.scan", "kernels.matmul",
            "importance.score", "reduction.reduce", "reduction.match"} <= names
    roots = [s for s in tracer.spans if s[tracing.PARENT] < 0]
    assert [s[tracing.NAME] for s in roots] == ["model.forward"]
    metrics = tracing.summarize(tracer.spans, TINY, 1)
    assert metrics["kernels.matmul_calls"] == 2 + TINY.depth * 10
    assert metrics["ssm.tokens_per_image"] == sum(diag.token_counts[:-1])
    assert 0 <= metrics["ssm.scan_self_ms"] <= metrics["ssm.scan_ms"]
    assert metrics["reduction.tokens_removed"] == diag.token_counts[0] - diag.token_counts[-1]


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(wl.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_work").exists()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_reference_matches_plan(name):
    workload = wl.WORKLOADS[name]
    config = wl.model_config(workload)
    fm, plan = wl.build_plan(config, workload)
    ref = wl.load_reference(name)
    assert ref["token_counts"] == fm.token_counts(plan.k, plan.reduce_at_layers)
    assert ref["plan"] == plan.to_json()
    assert len(ref["images"]) == wl.POOL_SIZE
