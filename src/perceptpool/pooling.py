"""Learnable perceptron pooling, restructured multi-perceptron (MLP) pooling
and perceptron upscaling.

A pooling perceptron is a single neuron slid over the input exactly like a
fixed pooling window: at every output position it computes a weighted sum
of the W x H window plus an optional bias, followed by an identity or ReLU
activation. It acts depthwise: the same neuron (under GLOBAL sharing) maps
a C-channel input to a C-channel output, which is why its parameter cost is
just W*H + 1 regardless of channel width.

A layer may hold p = q*q perceptrons. Their p outputs at window position
(i, j) are restructured into a q x q spatial block, row-major by unit index:
unit k lands at (i*q + k//q, j*q + k mod q). This restructuring is the
depth-to-space rearrangement ("pixel shuffle") of Shi et al. 2016
(arXiv 1609.05158), with the units as the depth axis. With four units and
stride two the output tensor keeps the input's spatial size, so further
perceptron layers can be stacked on top, forming a small MLP inside the
network (MlpPoolStack). Every stack layer after the first must have window
and stride equal to the previous layer's block, so each of its windows is
exactly one unit block: the stack is a per-window MLP chained on the unit
outputs. PerceptronUpsample is a stride-1 PerceptronPool over a zero-padded
input: u*u units expand every position into a u x u block, a learned
u-times upscaling.

Weight sharing variants control how many independent perceptron instances
are created:
  GLOBAL       one instance shared over channels and positions
  PER_CHANNEL  one per input channel
  PER_FIELD    one per output (y, x) position, shared over channels
  PER_TENSOR   one per (channel, y, x) output position
Instance counts for the non-GLOBAL modes depend on the input shape and are
bound at first forward (or an explicit bind); changing the relevant shape
afterwards is an error.

All three run one chain engine (_chain_forward/_chain_backward): the first
layer's windows are copied out once by layers.im2col, each layer is one
einsum per direction on unit outputs (the sharing mode only changes the
weight subscripts), and depth-to-space restructures the last layer's units;
the input gradient goes back through layers.col2im. A layer contracts
through BLAS only when it has several units; its bias view is built at
bind. The unit layers keep no state: each layer's (columns,
pre-activation) is the slot's saved state.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import initializers
from .layers import Layer, col2im, im2col, pool_out_dim, _pair, _weight_bias_groups


class Sharing(enum.Enum):
    GLOBAL = "global"
    PER_CHANNEL = "per_channel"
    PER_FIELD = "per_field"
    PER_TENSOR = "per_tensor"


ACTIVATIONS = ("identity", "relu")


def restructure(units: np.ndarray, q: int) -> np.ndarray:
    """(B, C, q*q, oH, oW) unit outputs -> (B, C, oH*q, oW*q) output grid:
    depth-to-space (pixel shuffle) with the units as the depth axis.

    Every output cell is written exactly once (the map is a bijection).
    """
    b, c, p, oh, ow = units.shape
    if q * q != p:
        raise ValueError(f"cannot restructure {p} units into a {q}x{q} block")
    blocks = units.reshape(b, c, q, q, oh, ow)
    return blocks.transpose(0, 1, 4, 2, 5, 3).reshape(b, c, oh * q, ow * q)


def unrestructure(grid: np.ndarray, q: int) -> np.ndarray:
    """Inverse of restructure, space-to-depth: (B, C, oH*q, oW*q) -> (B, C, q*q, oH, oW).

    This is im2col with window and stride q, so the result is a view of a
    fresh unit-major (q*q, B, C, oH, oW) array.
    """
    b, c, h, w = grid.shape
    if h % q or w % q:
        raise ValueError(f"grid {h}x{w} is not divisible into {q}x{q} blocks")
    units = im2col(grid, q, q, q).reshape(q * q, b, c, h // q, w // q)
    return np.moveaxis(units, 0, 2)


# Einsum subscripts of the weight view weights.reshape(*bound_key, units, -1)
# per sharing mode: k is the unit, r the window offset, and the leading
# c/i/j name the channel and output row/column an instance is bound to.
# Columns are "rbcij" and unit outputs unit-major "kbcij", so under GLOBAL
# sharing every contraction is one plain GEMM over contiguous operands.
_WEIGHT_SUBSCRIPTS = {
    Sharing.GLOBAL: "kr",
    Sharing.PER_CHANNEL: "ckr",
    Sharing.PER_FIELD: "ijkr",
    Sharing.PER_TENSOR: "cijkr",
}


def _chain_forward(layers, x, train):
    """Output of perceptron layers chained on unit outputs (im2col for the
    first layer, one unit layer each, depth-to-space of the last one's
    units), and, when training, each layer's (columns, pre-activation)."""
    first = layers[0]
    units = im2col(x, *first.window, first.stride)
    units = units.reshape(-1, *units.shape[2:])
    saved = []
    for layer in layers:
        out, pre = layer._units_forward(units)
        if train:
            saved.append((units, pre))
        units = out
    return restructure(np.moveaxis(units, 0, 2), layers[-1].block), saved


def _chain_backward(layers, grad_out, saved):
    """Adjoint of _chain_forward: accumulate every layer's parameter
    gradients and return the gradient of the chain's input."""
    grad = np.moveaxis(unrestructure(grad_out, layers[-1].block), 2, 0)
    for layer, (cols, pre) in zip(reversed(layers), reversed(saved)):
        grad = layer._units_backward(grad, cols, pre)
    (wh, ww), s = layers[0].window, layers[0].stride
    _, b, c, oh, ow = grad.shape
    return col2im(grad.reshape(wh, ww, b, c, oh, ow),
                  (b, c, (oh - 1) * s + wh, (ow - 1) * s + ww), s)


class PerceptronPool(Layer):
    """Perceptron(s) as a pooling operator.

    With units == 1 this is plain perceptron pooling: output spatial size is
    (in - window)/stride + 1 per axis. With units == q*q the restructured
    output is q times larger than that, e.g. four units at stride two keep
    the input's spatial size.
    """

    def __init__(self, window=2, stride=None, units: int = 1, sharing=Sharing.GLOBAL,
                 use_bias: bool = True, activation: str = "identity",
                 lr_factor: float = 0.1, wd_factor: float = 0.0,
                 init: str = "average", rng: np.random.Generator | None = None,
                 dtype=np.float32, name: str = "ppool"):
        self.window = _pair(window)
        self.stride = self.window[0] if stride is None else int(stride)
        self.units = int(units)
        self.sharing = Sharing(sharing)
        self.use_bias = bool(use_bias)
        if activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
        self.activation = activation
        self.lr_factor = lr_factor
        self.wd_factor = wd_factor
        self.init = init
        self.dtype = dtype
        self.name = name
        self._rng = rng
        if self.units < 1:
            raise ValueError(f"units must be >= 1, got {self.units}")
        self.block = math.isqrt(self.units)
        if self.block * self.block != self.units:
            raise ValueError(f"units must be a perfect square for restructuring, got {self.units}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        self.weights = None  # (instances, units, wh, ww) once bound
        self.bias = None
        self.weights_grad = None
        self.bias_grad = None
        self._bound_key = None  # frozen (C, oH, oW) slice relevant to the mode
        self._unit_bias = None  # view of bias, broadcastable against (units, B, C, oH, oW)

    # -- instantiation -----------------------------------------------------

    @property
    def instances(self) -> int:
        if self.weights is None:
            if self.sharing is Sharing.GLOBAL:
                return 1
            raise RuntimeError(f"{self.name}: {self.sharing.value} layer is not bound to an input shape yet")
        return self.weights.shape[0]

    def bind(self, channels: int, height: int, width: int) -> None:
        """Allocate and initialize per-instance weights for an input shape."""
        oh, ow = self._out_positions(height, width)
        dims = {"c": channels, "i": oh, "j": ow}
        sub = _WEIGHT_SUBSCRIPTS[self.sharing]
        key = tuple(dims[label] for label in sub[:-2])
        if self.weights is not None:
            if key != self._bound_key:
                raise ValueError(
                    f"{self.name}: input shape {channels}x{height}x{width} does not match the "
                    f"shape this {self.sharing.value} layer was instantiated for"
                )
            return
        wh, ww = self.window
        n = math.prod(key)
        self.weights = np.zeros((n, self.units, wh, ww), dtype=self.dtype)
        self.bias = np.zeros((n, self.units), dtype=self.dtype) if self.use_bias else None
        self.weights_grad = np.zeros_like(self.weights)
        self.bias_grad = np.zeros_like(self.bias) if self.use_bias else None
        self._bound_key = key
        if self.use_bias:
            # A view, so the optimizer's and load_checkpoint's in-place writes reach it.
            bias = np.moveaxis(self.bias.reshape(*key, self.units), -1, 0)
            self._unit_bias = np.expand_dims(bias, [p for p, s in enumerate("kbcij") if s not in sub])
        initializers.apply_pool_init(self, self.init, self._rng)

    def param_groups(self):
        if self.weights is None:
            return []
        return _weight_bias_groups(self, self.lr_factor, self.wd_factor)

    def _out_positions(self, height, width):
        wh, ww = self.window
        try:
            return pool_out_dim(height, wh, self.stride), pool_out_dim(width, ww, self.stride)
        except ValueError as e:
            raise ValueError(f"{self.name}: {e}") from None

    def output_shape(self, in_shape):
        b, c, h, w = in_shape
        oh, ow = self._out_positions(h, w)
        return (b, c, oh * self.block, ow * self.block)

    def _forward(self, x, train):
        self.bind(*x.shape[1:])
        return _chain_forward([self], x, train)

    def _backward(self, grad_out, saved):
        return _chain_backward([self], grad_out, saved)

    def kink_margin(self):
        """Smallest |pre-activation| of the chain's ReLU units in the last training forward."""
        pres = [] if self._saved is None else [p for _, p in self._saved[0] if p is not None]
        return min(float(np.min(np.abs(p))) for p in pres) if pres else None

    # -- one einsum per direction on unit outputs ----------------------------
    # optimize=True hands a contraction to BLAS matmul, which pays off for
    # several units. A single unit is a weighted sum of the wh*ww column
    # planes, which einsum's own loop does in one pass: a 2x2 forward on
    # 50x64x32x32 float32 took 1.5 against 7 ms through BLAS under GLOBAL
    # sharing and 7 against 19 ms under PER_TENSOR (2 cores, OpenBLAS). At
    # 4x4 (nn_16_1's last layer) BLAS is up to 1.3x faster, ~2% of a step.

    def _units_forward(self, cols):
        """Unit outputs (units, B, C, oH, oW) from columns (wh*ww, B, C, oH, oW),
        and the pre-activation a ReLU backward needs (None for identity)."""
        sub = _WEIGHT_SUBSCRIPTS[self.sharing]
        weights = self.weights.reshape(*self._bound_key, self.units, -1)
        pre = np.einsum(f"rbcij,{sub}->kbcij", cols, weights, optimize=self.units > 1)
        if self.bias is not None:
            pre += self._unit_bias
        if self.activation == "relu":
            return np.maximum(pre, 0), pre
        return pre, None

    def _units_backward(self, grad_units, cols, pre):
        """Accumulate parameter gradients from the unit-output gradient
        (units, B, C, oH, oW), which is overwritten; return the column
        gradient (wh*ww, B, C, oH, oW)."""
        if pre is not None:
            grad_units *= pre > 0
        sub = _WEIGHT_SUBSCRIPTS[self.sharing]
        weights = self.weights.reshape(*self._bound_key, self.units, -1)
        gw = np.einsum(f"kbcij,rbcij->{sub}", grad_units, cols, optimize=self.units > 1)
        self.weights_grad += gw.reshape(self.weights.shape)
        if self.bias is not None:
            self.bias_grad += np.einsum(f"kbcij->{sub[:-1]}", grad_units).reshape(self.bias.shape)
        # Units first: einsum's matmul route then writes the columns contiguously.
        return np.einsum(f"kbcij,{sub}->rbcij", grad_units, weights, optimize=self.units > 1)


class PerceptronUpsample(PerceptronPool):
    """u*u perceptrons at stride 1 as a learned u-times spatial upscaling.

    The input is zero padded (left/top biased for even windows) so that the
    stride-1 window pass keeps the spatial size; restructuring the u*u unit
    outputs then expands every position into a u x u block.
    """

    def __init__(self, window=2, units: int = 4, sharing=Sharing.GLOBAL,
                 activation: str = "identity", dtype=np.float32, name: str = "pup"):
        super().__init__(window, 1, units, sharing, activation=activation, dtype=dtype, name=name)
        if self.block < 2:
            raise ValueError(f"upsampling needs units = u*u with u >= 2, got {units}")
        wh, ww = self.window
        self._pads = ((wh // 2, (wh - 1) // 2), (ww // 2, (ww - 1) // 2))

    def _out_positions(self, height, width):
        return height, width

    def _forward(self, x, train):
        self.bind(*x.shape[1:])
        return _chain_forward([self], np.pad(x, ((0, 0), (0, 0), *self._pads)), train)

    def _backward(self, grad_out, saved):
        gxp = _chain_backward([self], grad_out, saved)
        (pt, pb), (pl, pr) = self._pads
        return gxp[:, :, pt : gxp.shape[2] - pb, pl : gxp.shape[3] - pr]


class MlpPoolStack(Layer):
    """Ordered perceptron pooling layers, each reading the previous layer's
    restructured output, e.g. NN-4-1 = [4 units of 2x2/2, 1 unit of 2x2/2].

    Every layer after the first must be aligned: its window and stride equal
    the previous layer's block, so it reads the previous unit outputs as its
    columns and the stack is one chain of per-window unit layers.
    """

    def __init__(self, layers: list[PerceptronPool], name: str = "mlppool"):
        if not layers:
            raise ValueError("stack needs at least one layer")
        self.layers = list(layers)
        self.name = name
        for i, layer in enumerate(self.layers):
            if not layer.name or layer.name.startswith("ppool"):
                layer.name = f"{name}.{i}"
        for i, (prev, layer) in enumerate(zip(self.layers, self.layers[1:]), start=1):
            q = prev.block
            if (layer.window, layer.stride) != ((q, q), q):
                raise ValueError(f"{name}: layer {i} has window {layer.window} and stride "
                                 f"{layer.stride}, not the {q}x{q}/{q} unit blocks of layer {i - 1}")

    def bind(self, channels, height, width):
        shape = (1, channels, height, width)
        for i, layer in enumerate(self.layers):
            try:
                layer.bind(shape[1], shape[2], shape[3])
                shape = layer.output_shape(shape)
            except ValueError as e:
                raise ValueError(f"{self.name}: shape chain broken at layer {i}: {e}") from None

    def output_shape(self, in_shape):
        shape = in_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def _forward(self, x, train):
        self.bind(*x.shape[1:])
        return _chain_forward(self.layers, x, train)

    def _backward(self, grad_out, saved):
        return _chain_backward(self.layers, grad_out, saved)

    def param_groups(self):
        return [g for layer in self.layers for g in layer.param_groups()]

    kink_margin = PerceptronPool.kink_margin


def param_count(obj) -> int:
    """Learnable-parameter count of a perceptron pooling layer or stack:
    instances * units * (W*H + 1), the +1 dropped without a bias term."""
    if isinstance(obj, MlpPoolStack):
        return sum(param_count(layer) for layer in obj.layers)
    if isinstance(obj, PerceptronPool):
        wh, ww = obj.window
        return obj.instances * obj.units * (wh * ww + (1 if obj.use_bias else 0))
    raise TypeError(f"param_count expects a perceptron pooling layer or stack, got {type(obj)!r}")
