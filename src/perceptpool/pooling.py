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
(arXiv 1609.05158), with the units as the depth axis: layers.col2im at
window = stride = q, whose inverse is layers.im2col. With four units and
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

All three are one Layer, a chain of perceptron layers (_Chain): a
PerceptronPool is a chain of itself, a PerceptronUpsample one whose
windows im2col zero pads, an MlpPoolStack one of its aligned layers. Like
Conv2d and FixedPool it walks batch blocks of about layers._BLOCK_BYTES of
columns (layers._map_columns), on every walker in a training call, and
sums each block's parameter gradients in block order after the walk. Each
block's first-layer windows run through affine pieces on unit outputs,
each one einsum per direction (the sharing mode only changes the weight
subscripts), and col2im at the block places the last layer's units. One
rule cuts the pieces: with no ReLU the whole chain is one composed affine
map, its layers' weights multiplied per instance into one units x wh*ww
map with one bias, so an identity nn_16_1 costs what a perceptron costs; a
ReLU cannot be folded, so a chain with one runs per-layer units. A
training forward keeps only its input as given: the backward rebuilds each
block's columns and reruns the pieces it needs, trading a forward for
never holding columns or unit planes (Chen et al. 2016, arXiv 1604.06174).
"""

from __future__ import annotations

import enum
import math
import threading

import numpy as np

from . import initializers
from .layers import Layer, _map_columns, _padded, col2im, im2col, pool_out_dim, _pair, _weight_bias_groups


class Sharing(enum.Enum):
    GLOBAL = "global"
    PER_CHANNEL = "per_channel"
    PER_FIELD = "per_field"
    PER_TENSOR = "per_tensor"


ACTIVATIONS = ("identity", "relu")


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


def _pieces(layers):
    """The affine maps a chain runs, each (its layers, their _compose maps):
    all its layers composed into one when none has a ReLU, else one per layer."""
    relu = any(layer.activation == "relu" for layer in layers)
    return [(piece, _compose(piece)) for piece in ([[l] for l in layers] if relu else [layers])]


def _compose(layers):
    """Prefix maps (P_l, c_l) of affine layers chained on unit outputs, one
    per layer and instance: P_l = W_l P_{l-1} (instances, units_l, wh*ww)
    maps the first layer's columns to layer l's units, and c_l = W_l c_{l-1}
    + b_l (instances, units_l) is its bias, None while no layer has one."""
    maps, p, c = [], None, None
    for layer in layers:
        w = layer.weights.reshape(*layer.weights.shape[:2], -1)
        c = None if c is None else (w @ c[..., None])[..., 0]
        if layer.bias is not None:
            c = layer.bias if c is None else c + layer.bias
        p = w if p is None else w @ p
        maps.append((p, c))
    return maps


# optimize=True hands a contraction to BLAS matmul, which pays off for
# several units. A single unit is a weighted sum of the wh*ww column planes,
# which einsum's own loop does in one pass: a 2x2 forward on 50x64x32x32
# float32 took 1.5 against 7 ms through BLAS under GLOBAL sharing and 7
# against 19 ms under PER_TENSOR (2 cores, OpenBLAS). A piece contracts
# with its last layer's units, so nn_4_1 and nn_16_1 run one 1-unit 2x2 map.
def _piece_forward(layers, maps, cols):
    """Last layer's units (units, B, C, oH, oW) of one affine piece with prefix
    maps `maps` over columns (wh*ww, B, C, oH, oW)."""
    last = layers[-1]
    sub, key = _WEIGHT_SUBSCRIPTS[last.sharing], last._bound_key
    p, c = maps[-1]
    pre = np.einsum(f"rbcij,{sub}->kbcij", cols, p.reshape(*key, last.units, -1), optimize=last.units > 1)
    if c is not None:
        # units first, then the bound (c, i, j) axes; plain reshapes, as
        # numpy's axis helpers cost more than the add on a small block
        bias = c.reshape(*key, last.units).transpose(len(key), *range(len(key)))
        pre += bias.reshape([n if s in sub else 1 for s, n in zip("kbcij", pre.shape)])
    return np.maximum(pre, 0, out=pre) if last.activation == "relu" else pre


def _piece_backward(layers, maps, grad, cols, units=None):
    """(column gradient, [(layer, weight gradient, bias gradient or None)])
    from `grad` (overwritten), the gradient of the piece's `units`, which
    only a ReLU reads. One pass gives the composed map's gradients S = sum
    g cols^T and G = sum g; then, with A_l = W_L...W_{l+1}, dW_l = A_l^T (S
    P_{l-1}^T + G c_{l-1}^T) and db_l = A_l^T G, walking s = A_l^T S and g =
    A_l^T G down the chain."""
    last = layers[-1]
    if last.activation == "relu":
        grad *= units > 0
    sub, key = _WEIGHT_SUBSCRIPTS[last.sharing], last._bound_key
    p, c = maps[-1]
    s = np.einsum(f"kbcij,rbcij->{sub}", grad, cols, optimize=last.units > 1).reshape(p.shape)
    g = None if c is None else np.einsum(f"kbcij->{sub[:-1]}", grad).reshape(*c.shape, 1)
    # Units first: einsum's matmul route then writes the columns contiguously.
    grad_cols = np.einsum(f"kbcij,{sub}->rbcij", grad, p.reshape(*key, last.units, -1), optimize=last.units > 1)
    parts = []
    for l, layer in reversed(list(enumerate(layers))):
        p, c = maps[l - 1] if l else (None, None)
        gw = s if p is None else s @ p.swapaxes(1, 2)
        if c is not None:
            gw = gw + g @ c[:, None, :]
        parts.append((layer, gw, None if layer.bias is None else g))
        if l:
            w_t = layer.weights.reshape(*layer.weights.shape[:2], -1).swapaxes(1, 2)
            s, g = w_t @ s, None if g is None else w_t @ g
    return grad_cols, parts


_BINDING = threading.Lock()


class _Chain(Layer):
    """Perceptron layers chained on unit outputs (`self.layers`) as one Layer."""

    _pads = ((0, 0), (0, 0))  # zero padding (top, bottom), (left, right) of the input

    def bind(self, channels: int, height: int, width: int) -> None:
        """Allocate and initialize every layer's weights for an input shape."""
        shape = _padded((1, channels, height, width), self._pads)
        with _BINDING:  # eval walkers may run a lazily bound chain's first forwards at once
            for layer in self.layers:
                layer._bind(*shape[1:])
                shape = layer._grid(shape)

    def output_shape(self, in_shape):
        shape = _padded(in_shape, self._pads)
        for layer in self.layers:
            shape = layer._grid(shape)
        return shape

    def param_groups(self):
        return [g for layer in self.layers for g in layer._groups()]

    def _forward(self, x, train):
        self.bind(*x.shape[1:])
        out = np.empty(self.output_shape(x.shape), np.result_type(x, *(l.weights for l in self.layers)))
        pieces = _pieces(self.layers)
        q = self.layers[-1].block  # the units are col2im's window offsets

        def block(blk, units):
            for piece, maps in pieces:
                units = _piece_forward(piece, maps, units)
            col2im(units.reshape(q, q, *units.shape[1:]), q, out[blk])

        self._map_units(block, x)
        return out, x

    def _backward(self, grad_out, x):
        gx = np.empty(x.shape, np.result_type(grad_out, *(l.weights for l in self.layers)))
        pieces = _pieces(self.layers)
        q, s = self.layers[-1].block, self.layers[0].stride

        def block(blk, units):
            acts = [units]  # each piece's input units, and its output where a ReLU reads it
            for i, (piece, maps) in enumerate(pieces):
                if i + 1 < len(pieces) or piece[-1].activation == "relu":
                    acts.append(_piece_forward(piece, maps, acts[-1]))
            grad = im2col(grad_out[blk], q, q, q)  # fresh: the pieces overwrite it
            grad = grad.reshape(q * q, *grad.shape[2:])
            parts = []
            for i, (piece, maps) in reversed(list(enumerate(pieces))):
                grad, piece_parts = _piece_backward(piece, maps, grad, *acts[i : i + 2])
                parts += piece_parts
            col2im(grad.reshape(*self.layers[0].window, *grad.shape[1:]), s, gx[blk], self._pads)
            return parts

        for parts in self._map_units(block, x):  # summed in block order
            for layer, gw, gb in parts:
                layer.weights_grad += gw.reshape(layer.weights.shape)
                if gb is not None:
                    layer.bias_grad += gb.reshape(layer.bias.shape)
        return gx

    def _map_units(self, fn, x):
        """[fn(batch block, its first-layer columns (wh*ww, b, C, oH, oW))] over x."""
        (wh, ww), s = self.layers[0].window, self.layers[0].stride
        # not -1: a block may be empty
        return _map_columns(lambda blk, cols: fn(blk, cols.reshape(wh * ww, *cols.shape[2:])),
                            x, wh, ww, s, self._pads)


class PerceptronPool(_Chain):
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

    @property
    def layers(self):
        # Built per call: storing (self,) would be a reference cycle, and a
        # dropped model's saved state would wait for the cyclic collector.
        return (self,)

    @property
    def instances(self) -> int:
        if self.weights is None:
            if self.sharing is Sharing.GLOBAL:
                return 1
            raise RuntimeError(f"{self.name}: {self.sharing.value} layer is not bound to an input shape yet")
        return self.weights.shape[0]

    # -- one layer of a chain ----------------------------------------------

    def _bind(self, channels, height, width):
        oh, ow = self._positions(height, width)
        dims = {"c": channels, "i": oh, "j": ow}
        key = tuple(dims[label] for label in _WEIGHT_SUBSCRIPTS[self.sharing][:-2])
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
        initializers.apply_pool_init(self, self.init, self._rng)

    def _positions(self, height, width):
        wh, ww = self.window
        try:
            return pool_out_dim(height, wh, self.stride), pool_out_dim(width, ww, self.stride)
        except ValueError as e:
            raise ValueError(f"{self.name}: {e}") from None

    def _grid(self, shape):
        b, c, h, w = shape
        oh, ow = self._positions(h, w)
        return b, c, oh * self.block, ow * self.block

    def _groups(self):
        if self.weights is None:
            raise RuntimeError(f"{self.name}: not bound to an input shape yet, so it has no "
                               "parameters; call bind() or forward() first")
        return _weight_bias_groups(self, self.lr_factor, self.wd_factor)


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


class MlpPoolStack(_Chain):
    """Ordered perceptron pooling layers, each reading the previous layer's
    restructured output, e.g. NN-4-1 = [4 units of 2x2/2, 1 unit of 2x2/2].

    Every layer after the first must be aligned: its window and stride equal
    the previous layer's block and its sharing mode is the previous one's, so
    it reads the previous unit outputs as its columns, binds the same
    instances, and the stack is one chain of per-window unit layers.
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
            if (layer.window, layer.stride, layer.sharing) != ((q, q), q, prev.sharing):
                raise ValueError(f"{name}: layer {i} has window {layer.window}, stride "
                                 f"{layer.stride} and {layer.sharing.value} sharing, not the "
                                 f"{q}x{q}/{q} unit blocks and {prev.sharing.value} sharing "
                                 f"of layer {i - 1}")


def param_count(obj) -> int:
    """Learnable-parameter count of a perceptron pooling layer or stack: the
    sum of instances * units * (W*H + 1) over its layers, +1 only with a bias."""
    if not isinstance(obj, _Chain):
        raise TypeError(f"param_count expects a perceptron pooling layer or stack, got {type(obj)!r}")
    return sum(l.instances * l.units * (l.window[0] * l.window[1] + l.use_bias) for l in obj.layers)
