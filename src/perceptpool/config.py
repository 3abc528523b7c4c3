"""Experiment configuration: flat `key = value` text with dotted sections.

Example::

    model = model_c_like
    pooling.kind = perceptron
    pooling.activation = identity
    optimizer.kind = adam
    optimizer.lr = 1e-3
    schedule.epochs = 50,100
    data.kind = cifar10
    epochs = 15
    seed = 1

Unknown keys are rejected. `TrainConfig.to_text` emits every field (defaults
included) in a stable order, which is what gets echoed into metrics files
and checkpoints for provenance.

`POOLING_KINDS` is the one table of pooling kinds: what each builds (see
models.make_pooling_slot) and so which `pooling.*` keys it reads. A key the
chosen kind does not read must keep its default, so no setting is silently
ignored. The retired keys `pooling.sharing`, `upsample.kind` and
`upsample.units` were read by nothing; older echoes still load because their
one echoed value is skipped, and any other value is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .pooling import ACTIVATIONS, Sharing

MODELS = ("model_a_like", "model_c_like", "tiny_synth")
# kind -> None for the fixed and strided-convolution baselines, or
# (sharing mode, specs): specs None builds one PerceptronPool from
# pooling.units/window/stride, a tuple of (units, window, stride) builds an
# MlpPoolStack of those layers.
POOLING_KINDS = {
    "max": None, "average": None, "strided_conv": None,
    "perceptron": (Sharing.GLOBAL, None),
    "nn_4_1": (Sharing.GLOBAL, ((4, 2, 2), (1, 2, 2))),
    "nn_16_1": (Sharing.GLOBAL, ((16, 2, 2), (1, 4, 4))),
    "nn_z": (Sharing.PER_CHANNEL, None),
    "nn_field": (Sharing.PER_FIELD, None),
    "nn_tensor": (Sharing.PER_TENSOR, None),
}
POOLINGS = tuple(POOLING_KINDS)
_NEURON_KEYS = ("activation", "use_bias", "lr_factor", "wd_factor", "init")
_WINDOW_KEYS = ("window", "stride", "units")
INITS = ("average", "pattern", "glorot")
OPTIMIZERS = ("sgd", "adam")
DATA_KINDS = ("synth", "cifar10")
# Retired keys and the one value every older echo carries.
RETIRED = {"pooling.sharing": "global", "upsample.kind": "", "upsample.units": "4"}


@dataclass
class TrainConfig:
    model: str = "tiny_synth"
    epochs: int = 20
    seed: int = 1

    pooling_kind: str = "perceptron"
    pooling_window: int = 2
    pooling_stride: int = 2
    pooling_units: int = 1
    pooling_activation: str = "identity"
    pooling_use_bias: bool = True
    pooling_lr_factor: float = 0.1
    pooling_wd_factor: float = 0.0
    pooling_init: str = "average"

    optimizer_kind: str = "adam"
    optimizer_lr: float = 1e-3
    optimizer_momentum: float = 0.9
    optimizer_beta1: float = 0.9
    optimizer_beta2: float = 0.999
    optimizer_weight_decay: float = 5e-5

    schedule_epochs: tuple[int, ...] = ()
    schedule_factor: float = 0.1

    data_kind: str = "synth"
    data_root: str = ""
    data_augment: bool = False
    data_train_size: int = 0  # 0 = full split
    data_val_size: int = 0
    data_synth_train: int = 512
    data_synth_val: int = 256
    data_classes: int = 0  # 0 = dataset default

    batch_size: int = 50
    batch_balanced: bool = True

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.pooling_kind not in POOLINGS:
            raise ValueError(f"unknown pooling {self.pooling_kind!r}; choose from {POOLINGS}")
        entry = POOLING_KINDS[self.pooling_kind]
        read = () if entry is None else _NEURON_KEYS + (() if entry[1] else _WINDOW_KEYS)
        for f in fields(self):
            key = f.name.removeprefix("pooling_")
            if (f.name.startswith("pooling_") and key not in ("kind", *read)
                    and getattr(self, f.name) != f.default):
                raise ValueError(f"pooling.{key} = {getattr(self, f.name)!r} is not read by "
                                 f"pooling.kind = {self.pooling_kind}; remove it")
        units = self.pooling_units
        for key, ok, rule in (
                ("window", self.pooling_window >= 1, ">= 1"),
                ("stride", self.pooling_stride >= 1, ">= 1"),
                ("units", units >= 1 and math.isqrt(units) ** 2 == units, "a perfect square"),
                ("lr_factor", self.pooling_lr_factor >= 0, ">= 0"),
                ("wd_factor", self.pooling_wd_factor >= 0, ">= 0"),
                ("activation", self.pooling_activation in ACTIVATIONS, f"one of {ACTIVATIONS}"),
                ("init", self.pooling_init in INITS, f"one of {INITS}")):
            if not ok:
                raise ValueError(f"pooling.{key} must be {rule}, got {getattr(self, 'pooling_' + key)!r}")
        if self.optimizer_kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer_kind!r}")
        if self.data_kind not in DATA_KINDS:
            raise ValueError(f"unknown data kind {self.data_kind!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.schedule_epochs = tuple(int(e) for e in self.schedule_epochs)

    @property
    def num_classes(self) -> int:
        if self.data_classes:
            return self.data_classes
        return 2 if self.data_kind == "synth" else 10

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            key = f.name.replace("_", ".", 1) if "_" in f.name else f.name
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in fields(TrainConfig)}
_KEYMAP = {(f.name.replace("_", ".", 1) if "_" in f.name else f.name): f.name for f in fields(TrainConfig)}
# Short spellings accepted on input; to_text always emits the dotted form.
_KEYMAP.update({
    "pooling": "pooling_kind",
    "optimizer": "optimizer_kind",
    "data": "data_kind",
    "init": "pooling_init",
    "lr": "optimizer_lr",
    "momentum": "optimizer_momentum",
    "beta1": "optimizer_beta1",
    "beta2": "optimizer_beta2",
    "weight_decay": "optimizer_weight_decay",
    "batch_size": "batch_size",
})


def _coerce(name: str, raw: str):
    f = _FIELDS[name]
    raw = raw.strip()
    if f.type in ("int", int):
        return int(raw)
    if f.type in ("float", float):
        return float(raw)
    if f.type in ("bool", bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{name}: expected a boolean, got {raw!r}")
    if "tuple" in str(f.type):
        return tuple(int(v) for v in raw.split(",") if v.strip()) if raw else ()
    return raw


def parse_config(text: str) -> TrainConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in RETIRED:
            if raw != RETIRED[key]:
                raise ValueError(f"line {lineno}: {key} is retired; only its old default "
                                 f"{RETIRED[key]!r} still loads, got {raw!r}")
            continue
        if key not in _KEYMAP:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        name = _KEYMAP[key]
        values[name] = _coerce(name, raw)
    return TrainConfig(**values)


def load_config(path) -> TrainConfig:
    return parse_config(Path(path).read_text())
