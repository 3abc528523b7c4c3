"""Run one perceptpool benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_c_nn16 --seed 1 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The line before it is
the full report: environment, set-up parts, check errors, the tail
percentile with its sample count, and failed_ratio. `--workload all` runs
every workload untraced and traced, each in its own process, and prints one
table of every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# BLAS threads are pinned in this process's environment only, before numpy
# loads: at most the CPUs this process may run on.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def _harness():
    if not (ROOT / "src" / "perceptpool").is_dir():
        sys.exit(f"perfbench: no perceptpool sources under {ROOT / 'src'}; run from a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    return harness


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    harness = _harness()
    if workload not in harness.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}; choose from {', '.join(harness.WORKLOADS)}")
    # Inputs live in a scratch directory inside the checkout, removed on exit.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result = harness.run_workload(workload, seed, seconds, trace, Path(tmp))
    end_to_end = result.pop("end_to_end")
    chosen = result.pop("per_layer") if trace else end_to_end
    result["workload"], result["trace"] = workload, int(trace)
    print(json.dumps(result, sort_keys=True))
    for failure in result["checks"]["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    rows = []
    for workload in _harness().WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            report, last = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            if not trace:
                rows.append((workload, "failed_ratio", report["failed_ratio"], "ratio"))
                rows.append((workload, "step_ms_tail.percentile", report["tail"]["percentile"], "%"))
                rows.append((workload, "step_ms_tail.samples", report["tail"]["samples"], "count"))
            rows.extend((workload, name, m["value"], m["unit"]) for name, m in last["metrics"].items())
    print(f"{'workload':<20} {'metric':<28} {'value':>16} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<20} {name:<28} {value:>16.6g} {unit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="train_c_nn16, train_a_perceptron, eval_c_max or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
