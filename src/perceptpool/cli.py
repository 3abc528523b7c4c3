"""Command-line driver.

Subcommands: train, eval, gradcheck, audit, bench-pool. The dataset root
for CIFAR-10 comes from --data, the config, or $PERCEPTPOOL_DATA_ROOT.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import POOLING_KINDS, load_config
from .data import DATA_ROOT_ENV
from .gradcheck import check_layer
from .layers import BatchNorm2d, Conv2d, Dense, FixedPool, ReLU
from .models import audit_params
from .pooling import (MlpPoolStack, PerceptronPool, PerceptronUpsample, Sharing,
                      complexity_probe, loglog_slope)
from .train import evaluate_checkpoint, train


def _parse_layer_spec(spec: str):
    """'name' or 'name:key=value,key=value' -> (name, options)."""
    name, _, rest = spec.partition(":")
    opts = {}
    for item in filter(None, rest.split(",")):
        if "=" not in item:
            raise ValueError(f"bad layer option {item!r}; expected key=value")
        k, v = item.split("=", 1)
        opts[k.strip()] = v.strip()
    return name.strip(), opts


def build_check_layer(spec: str):
    """Construct a float64 layer plus a matching input shape for gradcheck."""
    name, o = _parse_layer_spec(spec)
    f64 = np.float64
    units = int(o.get("units", 1))
    window = int(o.get("window", 2))
    stride = int(o.get("stride", window))
    sharing = Sharing.parse(o.get("sharing", "global"))
    activation = o.get("activation", "identity")
    use_bias = o.get("use_bias", "true").lower() != "false"
    if name == "conv2d":
        return Conv2d(2, 3, kernel=3, stride=1, pad=1, dtype=f64), (2, 2, 5, 5)
    if name == "strided_conv":
        return Conv2d(3, 3, kernel=2, stride=2, pad=0, dtype=f64), (2, 3, 6, 6)
    if name == "dense":
        return Dense(11, 7, dtype=f64), (3, 11)
    if name == "batchnorm":
        return BatchNorm2d(3, dtype=f64), (2, 3, 4, 4)
    if name == "relu":
        return ReLU(), (2, 3, 4, 4)
    if name in ("maxpool", "avgpool"):
        return FixedPool("max" if name == "maxpool" else "average", 2, 2), (2, 3, 6, 6)
    if name == "perceptron":
        layer = PerceptronPool(window=window, stride=stride, units=units, sharing=sharing,
                               use_bias=use_bias, activation=activation, dtype=f64)
        return layer, (2, 3, 6, 6)
    if name == "gap_perceptron":
        return PerceptronPool(window=8, stride=8, lr_factor=1e-3, dtype=f64), (2, 2, 8, 8)
    if POOLING_KINDS.get(name) and POOLING_KINDS[name][1]:  # nn_4_1, nn_16_1
        stack = MlpPoolStack([
            PerceptronPool(w, s, units=u, sharing=sharing, activation=activation, dtype=f64)
            for u, w, s in POOLING_KINDS[name][1]
        ])
        return stack, (2, 2, 8, 8)
    if name == "upsample":
        layer = PerceptronUpsample(window=window, units=int(o.get("units", 4)),
                                   sharing=sharing, activation=activation, dtype=f64)
        return layer, (2, 2, 5, 5)
    raise ValueError(f"unknown layer spec {name!r}")


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.data:
        cfg.data_root = args.data
    best = None
    base_seed = cfg.seed
    for run in range(args.runs):
        if args.runs > 1:
            cfg.seed = base_seed + run
            out = f"{args.out}/run{run}"
        else:
            out = args.out
        result = train(cfg, out, log=print)
        print(f"run {run}: final val_acc {result.final_val_acc:.4f} -> {result.checkpoint_path}")
        best = max(best or 0.0, result.final_val_acc)
    if args.runs > 1:
        print(f"best of {args.runs}: {best:.4f}")
    return 0


def cmd_eval(args) -> int:
    acc = evaluate_checkpoint(args.checkpoint)
    print(f"accuracy {acc:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    layer, shape = build_check_layer(args.layer)
    report = check_layer(layer, shape, seed=args.seed, tolerance=args.tolerance)
    print(report.format())
    return 0 if report.passed else 1


def cmd_audit(args) -> int:
    cfg = load_config(args.config)
    print(audit_params(cfg).format())
    return 0


def cmd_bench_pool(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = complexity_probe(
        lambda: PerceptronPool(2, 2, units=args.units, dtype=np.float32),
        sizes, repeats=args.repeats, min_seconds=0.03,
    )
    print(f"{'size':>6} {'area':>10} {'seconds':>12} {'reliable':>9}")
    for r in rows:
        print(f"{r['size']:>6} {r['area']:>10} {r['seconds']:>12.6f} {str(r['reliable']):>9}")
    slope = loglog_slope(rows)
    print(f"log-log slope (time vs area): {slope:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perceptpool",
                                     description="perceptron pooling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a configured model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="runs/latest")
    p.add_argument("--data", default="", help=f"dataset root (overrides ${DATA_ROOT_ENV})")
    p.add_argument("--runs", type=int, default=1, help="repeat with incremented seeds")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of one layer")
    p.add_argument("--layer", required=True,
                   help="e.g. perceptron, perceptron:sharing=per_field, nn_16_1, upsample:units=16")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("audit", help="per-slot pooling parameter table")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("bench-pool", help="forward-time scaling over input sizes")
    p.add_argument("--sizes", default="64,128,256,512")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--units", type=int, default=1)
    p.set_defaults(func=cmd_bench_pool)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
