"""Reference classifiers with swappable pooling slots, plus the parameter
audit over those slots.

The two CIFAR models are pinned only by the channel width entering each
pooling slot (64/128 for the batch-normalized model, 64/128/256 for the
plain one); those widths fix every pooling parameter count in the audit.
Everything the counts leave open is chosen for simplicity: 3x3 same-pad
convolutions and a single dense head. `tiny_synth` is a one-block net for
the 16x16 synthetic fixture.

Every layer draws its initial parameters from a seed derived from
(config seed, layer name), so swapping the pooling operator leaves the
convolution and classifier initializations untouched and two pooling
variants can be compared on identical starting points and batches.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .config import POOLING_KINDS, TrainConfig
from .layers import BatchNorm2d, Conv2d, Dense, FixedPool, Flatten, Layer, ReLU
from .pooling import MlpPoolStack, PerceptronPool, param_count


class Sequential(Layer):
    def __init__(self, layers: list[Layer], name: str = "model"):
        self.layers = list(layers)
        self.name = name
        self.slots: dict[str, list[Layer]] = {}

    def forward(self, x, train: bool = True):
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, grad_out):
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def param_groups(self):
        return [g for layer in self.layers for g in layer.param_groups()]

    def state_tensors(self):
        return [t for layer in self.layers for t in layer.state_tensors()]

    def kink_margin(self):
        margins = [m for layer in self.layers if (m := layer.kink_margin()) is not None]
        return min(margins) if margins else None


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-layer generator keyed on (run seed, layer name)."""
    return np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(name.encode()))))


def make_pooling_slot(cfg: TrainConfig, name: str, channels: int, dtype=np.float32) -> list[Layer]:
    """Layers implementing one pooling slot, as config.POOLING_KINDS defines
    it (a 2x spatial reduction, unless pooling.window/stride/units give
    another)."""
    if cfg.pooling_kind == "strided_conv":
        # The strided-convolution baseline performs best with its ReLU kept.
        conv = Conv2d(channels, channels, kernel=2, stride=2, pad=0,
                      rng=rng_for(cfg.seed, name), dtype=dtype, name=name)
        return [conv, ReLU(name=f"{name}.relu")]
    if POOLING_KINDS[cfg.pooling_kind] is None:
        return [FixedPool(cfg.pooling_kind, 2, 2, name=name)]
    sharing, specs = POOLING_KINDS[cfg.pooling_kind]

    def perceptron(units, window, stride, layer_name):
        return PerceptronPool(
            window=window, stride=stride, units=units, sharing=sharing,
            use_bias=cfg.pooling_use_bias, activation=cfg.pooling_activation,
            lr_factor=cfg.pooling_lr_factor, wd_factor=cfg.pooling_wd_factor,
            init=cfg.pooling_init, rng=rng_for(cfg.seed, layer_name), dtype=dtype, name=layer_name,
        )

    if specs is None:
        return [perceptron(cfg.pooling_units, cfg.pooling_window, cfg.pooling_stride, name)]
    return [MlpPoolStack([perceptron(*spec, f"{name}.{i}") for i, spec in enumerate(specs)],
                         name=name)]


@dataclass(frozen=True)
class _Block:
    out_channels: int
    batchnorm: bool


_ARCH = {
    # (input channels, input side, blocks)
    "model_a_like": (3, 32, (_Block(64, True), _Block(128, True))),
    "model_c_like": (3, 32, (_Block(64, False), _Block(128, False), _Block(256, False))),
    "tiny_synth": (1, 16, (_Block(8, False),)),
}


def build_model(cfg: TrainConfig, dtype=np.float32) -> Sequential:
    """Construct, bind and initialize the configured model."""
    in_ch, side, blocks = _ARCH[cfg.model]
    layers: list[Layer] = []
    slots: dict[str, list[Layer]] = {}
    shape = (in_ch, side, side)
    for i, block in enumerate(blocks, start=1):
        layers.append(Conv2d(shape[0], block.out_channels, kernel=3, stride=1, pad=1,
                             rng=rng_for(cfg.seed, f"conv{i}"), dtype=dtype, name=f"conv{i}"))
        if block.batchnorm:
            layers.append(BatchNorm2d(block.out_channels, dtype=dtype, name=f"bn{i}"))
        layers.append(ReLU(name=f"relu{i}"))
        slot_layers = make_pooling_slot(cfg, f"pool{i}", block.out_channels, dtype)
        # One forward of a zero sample binds the perceptron layers and gives
        # the slot's real output shape (a multi-unit slot may not halve it).
        x = np.zeros((1, block.out_channels, *shape[1:]), dtype=dtype)
        try:
            for sl in slot_layers:
                x = sl.forward(x, train=False)
        except ValueError as e:  # a window/stride pair that does not tile this input
            raise ValueError(f"pooling.window = {cfg.pooling_window}, "
                             f"pooling.stride = {cfg.pooling_stride}: {e}") from None
        layers.extend(slot_layers)
        slots[f"pool{i}"] = slot_layers
        shape = x.shape[1:]
    layers.append(Flatten())
    layers.append(Dense(math.prod(shape), cfg.num_classes,
                        rng=rng_for(cfg.seed, "fc"), dtype=dtype, name="fc"))
    model = Sequential(layers, name=cfg.model)
    model.slots = slots
    return model


@dataclass
class AuditRow:
    slot: str
    params: int


@dataclass
class AuditResult:
    rows: list[AuditRow]
    pooling_total: int
    model_total: int

    def format(self) -> str:
        lines = [f"{'slot':<10} {'params':>10}"]
        for row in self.rows:
            lines.append(f"{row.slot:<10} {row.params:>10}")
        lines.append(f"{'pooling':<10} {self.pooling_total:>10}")
        lines.append(f"{'model':<10} {self.model_total:>10}")
        return "\n".join(lines)


def audit_params(cfg: TrainConfig) -> AuditResult:
    """Per-slot learnable-parameter counts plus the model total.

    Perceptron slots are counted with the closed-form instances * units *
    (W*H + 1) rule; other slots by the size of their parameter arrays. The
    two agree, which the test suite checks.
    """
    model = build_model(cfg)
    rows = []
    total_pooling = 0
    for name, slot_layers in model.slots.items():
        count = 0
        for layer in slot_layers:
            if isinstance(layer, (PerceptronPool, MlpPoolStack)):
                count += param_count(layer)
            else:
                count += sum(g.param.size for g in layer.param_groups())
        rows.append(AuditRow(slot=name, params=count))
        total_pooling += count
    model_total = sum(g.param.size for g in model.param_groups())
    return AuditResult(rows=rows, pooling_total=total_pooling, model_total=model_total)
