"""Smoke test of the benchmark itself.

Runs every workload at its tiny size for one step, untraced and traced, and
checks the result line against BENCHMARK.json: every end-to-end metric (or,
traced, every per-layer metric) is present with its unit, and a per-layer
metric that reads 0 is listed as not applicable for that workload.  Also
checks that the benchmark fails, without a result line, in a directory
that holds only BENCHMARK.json and the benchmark.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("merged-anodes", "capsnet-faces", "eval-gallery")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

# Layers each workload must exercise; a wrapper that silently stops
# measuring one of them fails here.
MUST_MEASURE = {
    "merged-anodes": [
        "tensor.tape_entries", "tensor.backward_ms", "tensor.fwd_ms.matmul",
        "tensor.bwd_ms.relu", "tensor.fwd_ms.logsumexp", "layers.conv2d.fwd_ms",
        "layers.conv2d.bwd_ms", "layers.conv2d.gflop", "layers.conv2d.cols_mb",
        "layers.maxpool2d.fwd_ms", "layers.maxpool2d.bwd_ms", "layers.dense.fwd_ms",
        "layers.dense.bwd_ms", "layers.stack.fwd_ms", "losses.cross_entropy.fwd_ms",
        "losses.cross_entropy.bwd_ms", "trainer.step_ms_p50", "trainer.forward_ms",
        "trainer.optimizer_ms", "trainer.val_ms", "trainer.eval_chunk_ms",
        "pairing.merge_ms", "pairing.sample_pairs_ms", "datasets.generate_ms",
        "augment.apply_params_ms", "augment.images", "recipes.load_recipe_dataset_ms",
        "recipes.augment_dataset_ms", "recipes.build_model_ms",
    ],
    "capsnet-faces": [
        "tensor.fwd_ms.softmax", "tensor.bwd_ms.mul", "tensor.bwd_ms.leaky_relu",
        "layers.conv2d.bwd_ms", "capsules.capsule_predict.fwd_ms",
        "capsules.capsule_predict.bwd_ms", "capsules.dynamic_route.fwd_ms",
        "capsules.dynamic_route.bwd_ms", "capsules.dynamic_route.tmp_mb",
        "capsules.squash.fwd_ms", "capsules.squash.bwd_ms", "losses.contrastive.fwd_ms",
        "losses.contrastive.bwd_ms", "trainer.choose_threshold_ms",
        "datasets.generate_ms", "datasets.downscale_ms",
    ],
    "eval-gallery": [
        "layers.conv2d.fwd_ms", "layers.maxpool2d.fwd_ms", "layers.dense.fwd_ms",
        "datasets.export_pgm_ms", "datasets.read_pgm_ms", "datasets.read_pgm.calls",
        "datasets.read_pgm.unique_ratio", "checkpoint.save_ms", "checkpoint.load_ms",
        "cli.eval_ms", "cli.embed_rows", "cli.embed_unique_ratio", "trainer.eval_chunk_ms",
        "trainer.step_ms_p50",
    ],
}


def _run(workload, trace, cwd_run=RUN):
    cmd = [sys.executable, cwd_run, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(OUT, f"{workload}-seed3-trace{trace}.json"), encoding="utf-8") as f:
        record = json.load(f)
    return result, record


def _check_units(metrics, chosen):
    assert list(metrics) == [m["name"] for m in chosen]
    for m in chosen:
        value = metrics[m["name"]]["value"]
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(value, (int, float)) and math.isfinite(value), m["name"]


def test_end_to_end_metrics_present():
    for workload in WORKLOADS:
        result, record = _result(workload, 0)
        _check_units(result["metrics"], SPEC["end_to_end"])
        assert all(v["value"] > 0 for v in result["metrics"].values()), workload
        assert record["end_to_end"]["error_rate"] == {"value": 0.0, "unit": "fraction"}
        prov = record["provenance"]
        for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas_name",
                    "blas_version", "blas_threads", "git_commit", "git_dirty", "seed",
                    "params"):
            assert key in prov, key


def test_per_layer_metrics_present_or_not_applicable():
    for workload in WORKLOADS:
        result, record = _result(workload, 1)
        _check_units(result["metrics"], SPEC["per_layer"])
        not_applicable = set(record["not_applicable"])
        for name, v in result["metrics"].items():
            assert v["value"] != 0 or name in not_applicable, (workload, name)
        missing = [n for n in MUST_MEASURE[workload] if n in not_applicable]
        assert not missing, (workload, missing)
        assert record["tables"], workload


def test_fails_without_sources():
    os.makedirs(OUT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_end_to_end_metrics_present, test_per_layer_metrics_present_or_not_applicable,
                 test_fails_without_sources):
        test()
        print(f"ok {test.__name__}")
