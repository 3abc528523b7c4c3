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
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

MODELS = ("model_a_like", "model_c_like", "tiny_synth")
# The pooling.* keys each pooling kind reads (see models.make_pooling_slot).
# Every other pooling key must keep its default, so that no setting is
# silently ignored; defaults still load because checkpoints echo every key.
_NEURON_KEYS = ("activation", "use_bias", "lr_factor", "wd_factor", "init")
_WINDOW_KEYS = ("window", "stride", "units", *_NEURON_KEYS)
POOLING_KEYS = {
    "max": (), "average": (), "strided_conv": (),
    "perceptron": _WINDOW_KEYS, "nn_4_1": _NEURON_KEYS, "nn_16_1": _NEURON_KEYS,
    "nn_z": _WINDOW_KEYS, "nn_field": _WINDOW_KEYS, "nn_tensor": _WINDOW_KEYS,
}
POOLINGS = tuple(POOLING_KEYS)
UPSAMPLES = ("", "transpose_like", "nn_up")
INITS = ("average", "pattern", "glorot")
OPTIMIZERS = ("sgd", "adam")
DATA_KINDS = ("synth", "cifar10")


@dataclass
class TrainConfig:
    model: str = "tiny_synth"
    epochs: int = 20
    seed: int = 1

    pooling_kind: str = "perceptron"
    pooling_window: int = 2
    pooling_stride: int = 2
    pooling_units: int = 1
    pooling_sharing: str = "global"
    pooling_activation: str = "identity"
    pooling_use_bias: bool = True
    pooling_lr_factor: float = 0.1
    pooling_wd_factor: float = 0.0
    pooling_init: str = "average"

    upsample_kind: str = ""
    upsample_units: int = 4

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
        for f in fields(self):
            key = f.name.removeprefix("pooling_")
            if (f.name.startswith("pooling_") and key not in ("kind", *POOLING_KEYS[self.pooling_kind])
                    and getattr(self, f.name) != f.default):
                raise ValueError(f"pooling.{key} = {getattr(self, f.name)!r} is not read by "
                                 f"pooling.kind = {self.pooling_kind}; remove it")
        if self.upsample_kind not in UPSAMPLES:
            raise ValueError(f"unknown upsample {self.upsample_kind!r}; choose from {UPSAMPLES}")
        if self.pooling_init not in INITS:
            raise ValueError(f"unknown init {self.pooling_init!r}; choose from {INITS}")
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
    "upsample": "upsample_kind",
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
        if key not in _KEYMAP:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        name = _KEYMAP[key]
        values[name] = _coerce(name, raw)
    return TrainConfig(**values)


def load_config(path) -> TrainConfig:
    return parse_config(Path(path).read_text())
