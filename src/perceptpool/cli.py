"""Command-line driver.

Subcommands: train, eval, gradcheck, audit. The dataset root
for CIFAR-10 comes from --data, the config, or $PERCEPTPOOL_DATA_ROOT.

gradcheck reads a pooling-kind spec as a config: `nn_field:units=4` is
`pooling.kind = nn_field` plus `pooling.units = 4`, checked like any config
and built by models.make_pooling_slot. The other specs are conv2d, dense,
batchnorm, relu and upsample; only upsample takes options (units, window,
activation).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import POOLING_KINDS, load_config, parse_config
from .data import DATA_ROOT_ENV
from .gradcheck import check_layer
from .layers import BatchNorm2d, Conv2d, Dense, ReLU
from .models import Sequential, audit_params, make_pooling_slot
from .pooling import PerceptronUpsample
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
    if name in POOLING_KINDS:
        text = "\n".join([f"pooling.kind = {name}", *(f"pooling.{k} = {v}" for k, v in o.items())])
        slot = make_pooling_slot(parse_config(text), "pool", 3, dtype=f64)
        return (slot[0] if len(slot) == 1 else Sequential(slot)), (2, 3, 8, 8)
    if name not in ("conv2d", "dense", "batchnorm", "relu", "upsample"):
        raise ValueError(f"unknown layer spec {name!r}")
    read = ("units", "window", "activation") if name == "upsample" else ()
    unread = [k for k in o if k not in read]
    if unread:
        raise ValueError(f"layer spec {name!r} does not read option(s) {', '.join(unread)}")
    if name == "conv2d":
        return Conv2d(2, 3, kernel=3, stride=1, pad=1, dtype=f64), (2, 2, 5, 5)
    if name == "dense":
        return Dense(11, 7, dtype=f64), (3, 11)
    if name == "batchnorm":
        return BatchNorm2d(3, dtype=f64), (2, 3, 4, 4)
    if name == "relu":
        return ReLU(), (2, 3, 4, 4)
    layer = PerceptronUpsample(window=int(o.get("window", 2)), units=int(o.get("units", 4)),
                               activation=o.get("activation", "identity"), dtype=f64)
    return layer, (2, 2, 5, 5)


def cmd_train(args) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be >= 1, got {args.runs}")
    cfg = load_config(args.config)
    if args.data:
        # replace() reruns the config checks: a synth config rejects data.root.
        cfg = replace(cfg, data_root=args.data)
    best = None
    for run in range(args.runs):
        out = f"{args.out}/run{run}" if args.runs > 1 else args.out
        result = train(replace(cfg, seed=cfg.seed + run), out, log=print)
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
                   help="a pooling kind with pooling.* options (e.g. nn_field:units=4,activation=relu), "
                        "conv2d, dense, batchnorm, relu, or upsample:units=16")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("audit", help="per-slot pooling parameter table")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_audit)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
