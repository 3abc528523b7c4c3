"""Tests of the benchmark itself.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

The file name keeps it out of the repository's own pytest collection: these
checks train real models for several seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from perceptpool.pooling import PerceptronPool  # noqa: E402

SEED = 5


def _scratch():
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def test_loop_matches_train_train():
    """The harness's steps are train.train's: over one epoch, their mean loss
    equals the train_loss that train.train writes to metrics.csv."""
    wl = harness.WORKLOADS["train_a_perceptron"]
    with _scratch() as tmp:
        root = Path(tmp)
        harness.write_cifar_inputs(root, SEED)
        cfg = replace(harness.make_config(wl, SEED, root), data_train_size=100, data_val_size=50)
        result = harness.train_mod.train(cfg, root / "run")
        rows = [l for l in result.metrics_path.read_text().splitlines() if l[:1].isdigit()]
        expected = float(rows[0].split(",")[1])
        st, _, warm = harness.setup(wl, cfg)
        steps = cfg.data_train_size // cfg.batch_size
        losses = [warm] + [harness.train_step(st, harness.NullTracer()) for _ in range(steps - 1)]
    mean = sum(losses) / len(losses)
    assert abs(mean - expected) <= 5e-7, (mean, expected)


def test_metric_names_match_benchmark_json():
    """A traced run reports exactly the per-layer metrics BENCHMARK.json
    lists, and a plain run exactly its end-to-end metrics; a clean run has
    no failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with _scratch() as tmp:
        result = harness.run_workload("train_a_perceptron", SEED, 0.5, True, Path(tmp))
    assert result["correct"] and result["failed"] == 0, result["checks"]
    assert set(result["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert set(result["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    for metrics, listed in ((result["per_layer"], spec["per_layer"]),
                            (result["end_to_end"], spec["end_to_end"])):
        for m in listed:
            assert metrics[m["name"]][1] == m["unit"], m


def test_wrong_backward_is_reported():
    """A pooling backward that drops the last input row's gradient (an
    edge-handling slip a window-kernel rewrite could make) fails the run."""
    original = PerceptronPool.backward

    def dropped_edge(self, grad_out):
        grad_in = original(self, grad_out).copy()
        grad_in[..., -1, :] = 0.0
        return grad_in

    PerceptronPool.backward = dropped_edge
    try:
        with _scratch() as tmp:
            result = harness.run_workload("train_a_perceptron", SEED, 0.5, False, Path(tmp))
    finally:
        PerceptronPool.backward = original
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed_ratio"] > 0
    assert any("pool" in f for f in result["checks"]["failures"]), result["checks"]


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as e:
            failures += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
