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
from .layers import (BatchNorm2d, Conv2d, Dense, FixedPool, Layer, ReLU, _blocks,
                     _layer_call, _map_blocks)
from .pooling import MlpPoolStack, PerceptronPool

# An eval forward runs the batch in blocks of about this many bytes of input,
# each block through every layer on one walker (layers._map_blocks), so a
# layer's output is still in cache when the next layer reads it and no layer
# allocates a whole-batch activation (conv1 of model_c_like: 65.5 MB for 250
# images, past glibc's mmap threshold, so paged in afresh on every call). 128
# KiB is 10 images of 3x32x32 float32. Measured on model_c_like, max pooling,
# a 250-image eval, 2 vCPUs, OpenBLAS, the median of 15 calls per process:
# - walked blocks, by images per block: 63: 265-288, 42: 224-242, 25: 196-218,
#   21: 186-195, 16: 190-191, 12: 189-191, 10: 176-188, 8: 183-186, 5: 171-192 ms;
# - against the image blocks run one after another, each layer walking its
#   own blocks (three processes each): walked 10-image blocks 162-215 ms at
#   59 MB peak RSS; in sequence at 128 KiB 257-280 ms at 58 MB, at 512 KiB
#   226-263 ms at 75 MB, at 1 MiB 218-243 ms at 86-99 MB; one 250-image block
#   213-238 ms at 209 MB.
_EVAL_BLOCK_BYTES = 128 << 10


class Sequential(Layer):
    def __init__(self, layers: list[Layer], name: str = "model"):
        self.layers = list(layers)
        self.name = name
        self.slots: dict[str, list[Layer]] = {}

    def forward(self, x, train: bool = True):
        if train:  # each layer walks its own blocks
            return self._walk(x, train=True)
        # Only an eval forward can be split by image: a training forward needs
        # whole-batch BatchNorm statistics and saves each layer's state for
        # backward, while in eval every image's logits depend on that image
        # alone and nothing is saved. So the image blocks walk, each through
        # every layer, and the layers run their own blocks in line.
        blocks = _blocks(len(x), x.nbytes, _EVAL_BLOCK_BYTES)
        with _layer_call(walk=True):
            return np.concatenate(_map_blocks(lambda blk: self._walk(x[blk], train=False), blocks))

    def _walk(self, x, train):
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


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-layer generator keyed on (run seed, layer name)."""
    return np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(name.encode()))))


def make_pooling_slot(cfg: TrainConfig, name: str, channels: int, dtype=np.float32) -> list[Layer]:
    """Layers implementing one pooling slot, a 2x spatial reduction, as
    config.POOLING_KINDS defines it."""
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

    if len(specs) == 1:
        return [perceptron(*specs[0], name)]
    return [MlpPoolStack([perceptron(*spec, f"{name}.{i}") for i, spec in enumerate(specs)],
                         name=name)]


_ARCH = {
    # (input channels, input side, conv widths, batchnorm)
    "model_a_like": (3, 32, (64, 128), True),
    "model_c_like": (3, 32, (64, 128, 256), False),
    "tiny_synth": (1, 16, (8,), False),
}


def build_model(cfg: TrainConfig, dtype=np.float32) -> Sequential:
    """Construct, bind and initialize the configured model."""
    in_ch, side, widths, batchnorm = _ARCH[cfg.model]
    model = Sequential([], name=cfg.model)
    for i, (channels, width) in enumerate(zip((in_ch, *widths), widths), start=1):
        # A BatchNorm2d subtracts the batch mean, so a bias in front of it is dead.
        model.layers.append(Conv2d(channels, width, kernel=3, stride=1, pad=1, use_bias=not batchnorm,
                                   rng=rng_for(cfg.seed, f"conv{i}"), dtype=dtype, name=f"conv{i}"))
        if batchnorm:
            model.layers.append(BatchNorm2d(width, dtype=dtype, name=f"bn{i}"))
        model.layers.append(ReLU(name=f"relu{i}"))
        model.slots[f"pool{i}"] = make_pooling_slot(cfg, f"pool{i}", width, dtype)
        model.layers.extend(model.slots[f"pool{i}"])
    # One eval forward of an empty batch binds the perceptron slots and gives
    # the pooled maps' shape.
    pooled = model.forward(np.zeros((0, in_ch, side, side), dtype=dtype), train=False)
    model.layers.append(Dense(math.prod(pooled.shape[1:]), cfg.num_classes,
                              rng=rng_for(cfg.seed, "fc"), dtype=dtype, name="fc"))
    return model


@dataclass
class AuditResult:
    slots: dict[str, int]  # slot name -> learnable parameters, in model order
    model_total: int

    @property
    def pooling_total(self) -> int:
        return sum(self.slots.values())

    def format(self) -> str:
        rows = [("slot", "params"), *self.slots.items(),
                ("pooling", self.pooling_total), ("model", self.model_total)]
        return "\n".join(f"{name:<10} {count:>10}" for name, count in rows)


def audit_params(cfg: TrainConfig) -> AuditResult:
    """Per-slot learnable-parameter counts plus the model total, each the
    size of the parameter arrays. For perceptron slots this is the paper's
    closed form instances * units * (W*H + 1) (pooling.param_count), which
    the test suite checks against the arrays.
    """
    model = build_model(cfg)
    return AuditResult(
        slots={name: sum(g.param.size for layer in slot for g in layer.param_groups())
               for name, slot in model.slots.items()},
        model_total=sum(g.param.size for g in model.param_groups()))
