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

The keys `TrainConfig.to_text` writes are the only spelling: each field's
name with its first `_` made a `.`. `to_text` emits every field (defaults
included) in a stable order, which is what gets echoed into metrics files
and checkpoints for provenance, so an echo loads back as the same config.
Unknown keys are rejected, and so is a key given twice.

Every field must hold its type (an int serves as a float), and every value
rule is one row of the `(key, ok, rule)` table in `TrainConfig.__post_init__`.
`POOLING_KINDS`, `OPTIMIZERS` and `DATA_KINDS` map each kind to the keys of
its section that it reads (for pooling, what each kind builds; see
models.make_pooling_slot). A key the chosen kind does not read must keep its
default, so no setting is silently ignored. A key that `to_text` does not
write is unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .pooling import ACTIVATIONS, Sharing

MODELS = ("model_a_like", "model_c_like", "tiny_synth")
# kind -> None for the fixed and strided-convolution baselines, or
# (sharing mode, specs): one (units, window, stride) spec builds a
# PerceptronPool, several build an MlpPoolStack of those layers.
POOLING_KINDS = {
    "max": None, "average": None, "strided_conv": None,
    "perceptron": (Sharing.GLOBAL, ((1, 2, 2),)),
    "nn_4_1": (Sharing.GLOBAL, ((4, 2, 2), (1, 2, 2))),
    "nn_16_1": (Sharing.GLOBAL, ((16, 2, 2), (1, 4, 4))),
    "nn_z": (Sharing.PER_CHANNEL, ((1, 2, 2),)),
    "nn_field": (Sharing.PER_FIELD, ((1, 2, 2),)),
    "nn_tensor": (Sharing.PER_TENSOR, ((1, 2, 2),)),
}
POOLINGS = tuple(POOLING_KINDS)
_NEURON_KEYS = ("activation", "use_bias", "lr_factor", "wd_factor", "init")
INITS = ("average", "pattern", "glorot")
# kind -> the optimizer.* and data.* keys it reads (see optim.make_optimizer
# and train.prepare_data; only raw cifar10 batches are augmented).
OPTIMIZERS = {"sgd": ("lr", "momentum", "weight_decay"),
              "adam": ("lr", "beta1", "beta2", "weight_decay")}
DATA_KINDS = {"synth": ("synth_train", "synth_val", "classes"),
              "cifar10": ("root", "augment", "train_size", "val_size")}


@dataclass
class TrainConfig:
    model: str = "tiny_synth"
    epochs: int = 20
    seed: int = 1

    pooling_kind: str = "perceptron"
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
    data_classes: int = 0  # synth only; 0 = 2 classes

    batch_size: int = 50
    batch_balanced: bool = True

    def __post_init__(self):
        for key, f in _KEYMAP.items():  # a value of another type does not survive its echo
            has_type, rule = _TYPES[type(f.default)]
            if not has_type(value := getattr(self, f.name)):
                raise ValueError(f"{key} must be {rule}, got {value!r}")
        classes, root = self.num_classes, self.data_root
        chain = (-1, *self.schedule_epochs, self.epochs)  # each decay epoch in [0, epochs)
        synth, cifar = self.data_kind == "synth", self.data_kind == "cifar10"

        def subset_ok(n):  # train.prepare_data draws balanced cifar10 subsets; 0 is the full split
            return not cifar or (n >= 0 and n % classes == 0)

        train_key, train_n = (("data.synth_train", self.data_synth_train) if synth
                              else ("data.train_size", self.data_train_size))
        for key, ok, rule in (
                ("model", self.model in MODELS, f"one of {MODELS}"),
                ("epochs", self.epochs >= 1, ">= 1"),
                ("pooling.kind", self.pooling_kind in POOLING_KINDS, f"one of {POOLINGS}"),
                ("pooling.lr_factor", 0 <= self.pooling_lr_factor < math.inf, ">= 0 and finite"),
                ("pooling.wd_factor", 0 <= self.pooling_wd_factor < math.inf, ">= 0 and finite"),
                ("pooling.activation", self.pooling_activation in ACTIVATIONS, f"one of {ACTIVATIONS}"),
                ("pooling.init", self.pooling_init in INITS, f"one of {INITS}"),
                ("optimizer.kind", self.optimizer_kind in OPTIMIZERS, f"one of {tuple(OPTIMIZERS)}"),
                ("optimizer.lr", 0 < self.optimizer_lr < math.inf, "> 0 and finite"),
                ("optimizer.weight_decay", 0 <= self.optimizer_weight_decay < math.inf, ">= 0 and finite"),
                ("optimizer.momentum", 0 <= self.optimizer_momentum < 1, "in [0, 1)"),
                # Adam divides by 1 - beta**t.
                ("optimizer.beta1", 0 <= self.optimizer_beta1 < 1, "in [0, 1)"),
                ("optimizer.beta2", 0 <= self.optimizer_beta2 < 1, "in [0, 1)"),
                ("schedule.factor", 0 < self.schedule_factor <= 1, "in (0, 1]"),
                ("schedule.epochs", all(a < b for a, b in zip(chain, chain[1:])),
                 f"strictly increasing, each in [0, epochs = {self.epochs})"),
                ("data.kind", self.data_kind in DATA_KINDS, f"one of {tuple(DATA_KINDS)}"),
                # parse_config strips each value and cuts it at '#', one line per key.
                ("data.root", root == root.strip() and root.isprintable() and "#" not in root,
                 "printable, without '#' or surrounding whitespace"),
                # synth_dataset draws 2..4 blob classes; cifar10 reads no data.classes.
                ("data.classes", not synth or self.data_classes in (0, 2, 3, 4), "0 or in 2..4"),
                ("data.synth_train", not synth or self.data_synth_train >= 1, ">= 1"),
                ("data.synth_val", not synth or self.data_synth_val >= 1, ">= 1"),
                ("data.train_size", subset_ok(self.data_train_size),
                 f">= 0 and a multiple of the {classes} classes"),
                ("data.val_size", subset_ok(self.data_val_size),
                 f">= 0 and a multiple of the {classes} classes"),
                ("batch.size", self.batch_size >= 1, ">= 1"),
                ("batch.size", not self.batch_balanced or self.batch_size % classes == 0,
                 f"a multiple of the {classes} classes when batch.balanced is set"),
                ("batch.size", not train_n or self.batch_size <= train_n,
                 f"<= {train_key} = {train_n}")):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key.replace('.', '_'))!r}")
        reads = {"pooling": () if POOLING_KINDS[self.pooling_kind] is None else _NEURON_KEYS,
                 "optimizer": OPTIMIZERS[self.optimizer_kind], "data": DATA_KINDS[self.data_kind]}
        for f in fields(self):
            section, _, key = f.name.partition("_")
            value = getattr(self, f.name)
            if section in reads and key not in ("kind", *reads[section]) and value != f.default:
                raise ValueError(f"{section}.{key} = {value!r} is not read by "
                                 f"{section}.kind = {getattr(self, section + '_kind')}; remove it")

    @property
    def num_classes(self) -> int:
        return (self.data_classes or 2) if self.data_kind == "synth" else 10

    def lr_at(self, epoch: int) -> float:
        """optimizer.lr times schedule.factor once per schedule epoch <= epoch."""
        return self.optimizer_lr * self.schedule_factor ** sum(e <= epoch for e in self.schedule_epochs)

    def to_text(self) -> str:
        lines = []
        for key, f in _KEYMAP.items():
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


# The one spelling of each field: its name with the first "_" made a ".".
_KEYMAP = {f.name.replace("_", ".", 1): f for f in fields(TrainConfig)}
# A field's type -> (whether a value's echo loads back equal, the rule).
_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an int"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, tuple) and all(map(_TYPES[int][0], v)), "a tuple of ints"),
}


def _coerce(f, raw: str):
    kind = type(f.default)
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind is tuple:
        return tuple(int(v) for v in raw.split(",") if v.strip())
    return kind(raw)


def parse_config(text: str) -> TrainConfig:
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if (first := first_line.setdefault(key, lineno)) != lineno:
            raise ValueError(f"lines {first} and {lineno} both set {key}")
        if key not in _KEYMAP:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[_KEYMAP[key].name] = _coerce(_KEYMAP[key], raw)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {key}: {e}") from None
    return TrainConfig(**values)


def load_config(path) -> TrainConfig:
    """Read a config file. Malformed content raises a ValueError that starts
    with the path; an I/O error propagates as an OSError."""
    try:
        return parse_config(Path(path).read_text())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
