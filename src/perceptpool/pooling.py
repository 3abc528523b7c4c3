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
network (MlpPoolStack). When the next layer's window and stride equal the
block, each of its windows is exactly one unit block, so an aligned stack
is a per-window MLP chained on the unit outputs: only its first layer
reads im2col columns and only its output is restructured. Run at stride 1
over a zero-padded input, u*u units expand every position into a u x u
block instead: a learned u-times upscaling (PerceptronUpsample).

Weight sharing variants control how many independent perceptron instances
are created:
  GLOBAL       one instance shared over channels and positions
  PER_CHANNEL  one per input channel
  PER_FIELD    one per output (y, x) position, shared over channels
  PER_TENSOR   one per (channel, y, x) output position
Instance counts for the non-GLOBAL modes depend on the input shape and are
bound at first forward (or an explicit bind); changing the relevant shape
afterwards is an error.

Every mode runs on the same engine: the windows are copied out once by
layers.im2col, one einsum per direction contracts them with the weights
(the sharing mode only changes the weight subscripts), and depth-to-space
restructures the unit outputs; the input gradient goes back through
layers.col2im.
"""

from __future__ import annotations

import enum
import math
import time

import numpy as np

from . import initializers
from .layers import Layer, col2im, im2col, pool_out_dim, _pair
from .optim import ParamGroup


class Sharing(enum.Enum):
    GLOBAL = "global"
    PER_CHANNEL = "per_channel"
    PER_FIELD = "per_field"
    PER_TENSOR = "per_tensor"

    @classmethod
    def parse(cls, value) -> "Sharing":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(f"unknown sharing mode {value!r}") from None


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


class _PerceptronWindowLayer(Layer):
    """Shared machinery for the pooling and upsampling variants."""

    def __init__(self, window, stride, units, sharing, use_bias, activation,
                 lr_factor, wd_factor, init, rng, dtype, name):
        self.window = _pair(window)
        self.stride = int(stride)
        self.units = int(units)
        self.sharing = Sharing.parse(sharing)
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
        self._saved = None

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

    def param_groups(self):
        if self.weights is None:
            return []
        groups = [ParamGroup(f"{self.name}.weight", self.weights, self.weights_grad,
                             self.lr_factor, self.wd_factor)]
        if self.bias is not None:
            groups.append(ParamGroup(f"{self.name}.bias", self.bias, self.bias_grad,
                                     self.lr_factor, self.wd_factor))
        return groups

    # -- one windowed GEMM per direction, then depth-to-space ---------------

    @property
    def _matmul(self) -> bool:
        # einsum's optimize=True hands a two-operand contraction to (batched)
        # matmul: one large GEMM under GLOBAL sharing, real matrix products
        # with several units. One unit under channel- or position-bound
        # weights would turn it into millions of wh*ww-long dot products,
        # about 5x slower than einsum's own loop (PER_TENSOR on 50x64x32x32
        # float32, 2-core machine, OpenBLAS).
        return self.sharing is Sharing.GLOBAL or self.units > 1

    def _bias_view(self):
        """The bias, broadcastable against unit outputs (units, B, C, oH, oW)."""
        sub = _WEIGHT_SUBSCRIPTS[self.sharing][:-1]
        order = "".join(label for label in "kcij" if label in sub)
        bias = np.einsum(f"{sub}->{order}", self.bias.reshape(*self._bound_key, self.units))
        return np.expand_dims(bias, [p for p, label in enumerate("kbcij") if label not in sub])

    def _units_forward(self, cols, in_shape, train):
        """Unit outputs (units, B, C, oH, oW) from columns (wh*ww, B, C, oH, oW)."""
        sub = _WEIGHT_SUBSCRIPTS[self.sharing]
        weights = self.weights.reshape(*self._bound_key, self.units, -1)
        pre = np.einsum(f"rbcij,{sub}->kbcij", cols, weights, optimize=self._matmul)
        if self.bias is not None:
            pre += self._bias_view()
        relu = self.activation == "relu"
        self._saved = (in_shape, cols, pre if relu else None) if train else None
        return np.maximum(pre, 0) if relu else pre

    def _units_backward(self, grad_units):
        """Accumulate parameter gradients from the unit-output gradient
        (units, B, C, oH, oW), which is overwritten; return the column
        gradient (wh*ww, B, C, oH, oW)."""
        if self._saved is None:
            raise RuntimeError(f"{self.name}: backward requires a training-mode forward")
        _, cols, pre = self._saved
        if pre is not None:
            grad_units *= pre > 0
        sub = _WEIGHT_SUBSCRIPTS[self.sharing]
        weights = self.weights.reshape(*self._bound_key, self.units, -1)
        gw = np.einsum(f"kbcij,rbcij->{sub}", grad_units, cols, optimize=self._matmul)
        self.weights_grad += gw.reshape(self.weights.shape)
        if self.bias is not None:
            self.bias_grad += np.einsum(f"kbcij->{sub[:-1]}", grad_units).reshape(self.bias.shape)
        # Units first: einsum's matmul route then writes the columns contiguously.
        return np.einsum(f"kbcij,{sub}->rbcij", grad_units, weights, optimize=self._matmul)

    def _window_forward(self, cols, in_shape, train):
        """Restructured output from the im2col columns (wh, ww, B, C, oH, oW)."""
        units = self._units_forward(cols.reshape(-1, *cols.shape[2:]), in_shape, train)
        return restructure(np.moveaxis(units, 0, 2), self.block)

    def _window_backward(self, grad_out):
        """Accumulate parameter gradients; return the gradient of the im2col
        columns (wh, ww, B, C, oH, oW) and the forward's input shape."""
        if self._saved is None:
            raise RuntimeError(f"{self.name}: backward requires a training-mode forward")
        in_shape = self._saved[0]
        if grad_out.shape != self.output_shape(in_shape):
            raise ValueError(
                f"{self.name}: grad_out shape {grad_out.shape} does not match forward output "
                f"{self.output_shape(in_shape)}"
            )
        grad_cols = self._units_backward(np.moveaxis(unrestructure(grad_out, self.block), 2, 0))
        return grad_cols.reshape(*self.window, *grad_cols.shape[1:]), in_shape

    def kink_margin(self):
        if self._saved is None or self._saved[2] is None:
            return None
        return float(np.min(np.abs(self._saved[2])))

    def _out_positions(self, height, width):
        raise NotImplementedError


class PerceptronPool(_PerceptronWindowLayer):
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
        window = _pair(window)
        if stride is None:
            stride = window[0]
        super().__init__(window, stride, units, sharing, use_bias, activation,
                         lr_factor, wd_factor, init, rng, dtype, name)

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

    def forward(self, x, train: bool = True):
        _, c, h, w = x.shape
        self.bind(c, h, w)
        return self._window_forward(im2col(x, *self.window, self.stride), x.shape, train)

    def backward(self, grad_out):
        grad_cols, in_shape = self._window_backward(grad_out)
        return col2im(grad_cols, in_shape, self.stride)


class PerceptronUpsample(_PerceptronWindowLayer):
    """u*u perceptrons at stride 1 as a learned u-times spatial upscaling.

    The input is zero padded (left/top biased for even windows) so that the
    stride-1 window pass keeps the spatial size; restructuring the u*u unit
    outputs then expands every position into a u x u block.
    """

    def __init__(self, window=2, units: int = 4, sharing=Sharing.GLOBAL,
                 use_bias: bool = True, activation: str = "identity",
                 lr_factor: float = 0.1, wd_factor: float = 0.0,
                 init: str = "average", rng: np.random.Generator | None = None,
                 dtype=np.float32, name: str = "pup"):
        super().__init__(window, 1, units, sharing, use_bias, activation,
                         lr_factor, wd_factor, init, rng, dtype, name)
        if self.block < 2:
            raise ValueError(f"upsampling needs units = u*u with u >= 2, got {units}")

    def _pads(self):
        wh, ww = self.window
        return (wh // 2, (wh - 1) // 2), (ww // 2, (ww - 1) // 2)

    def _out_positions(self, height, width):
        return height, width

    def output_shape(self, in_shape):
        b, c, h, w = in_shape
        return (b, c, h * self.block, w * self.block)

    def forward(self, x, train: bool = True):
        _, c, h, w = x.shape
        self.bind(c, h, w)
        (pt, pb), (pl, pr) = self._pads()
        xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
        return self._window_forward(im2col(xp, *self.window, 1), x.shape, train)

    def backward(self, grad_out):
        grad_cols, (b, c, h, w) = self._window_backward(grad_out)
        (pt, pb), (pl, pr) = self._pads()
        gxp = col2im(grad_cols, (b, c, h + pt + pb, w + pl + pr), 1)
        return gxp[:, :, pt : pt + h, pl : pl + w]


class MlpPoolStack(Layer):
    """Ordered perceptron pooling layers whose restructured outputs feed the
    next layer, e.g. NN-4-1 = [4 units of 2x2/2, 1 unit of 2x2/2].

    A layer whose window and stride equal the previous layer's block is
    aligned: it reads the previous unit outputs as its columns, so an
    aligned stack (as every model builds) is a per-window MLP chained on
    unit outputs. Only the first layer, a misaligned layer and the stack
    output go through im2col and depth-to-space.
    """

    def __init__(self, layers: list[PerceptronPool], name: str = "mlppool"):
        if not layers:
            raise ValueError("stack needs at least one layer")
        self.layers = list(layers)
        self.name = name
        for i, layer in enumerate(self.layers):
            if not layer.name or layer.name.startswith("ppool"):
                layer.name = f"{name}.{i}"

    def _aligned(self, i: int) -> bool:
        """Whether layer i's windows are exactly the previous layer's unit blocks."""
        q = self.layers[i - 1].block
        return i > 0 and self.layers[i].window == (q, q) and self.layers[i].stride == q

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

    def forward(self, x, train: bool = True):
        self.bind(*x.shape[1:])
        shape, units = x.shape, None
        for i, layer in enumerate(self.layers):
            if not self._aligned(i):
                if units is not None:
                    x = restructure(np.moveaxis(units, 0, 2), self.layers[i - 1].block)
                units = im2col(x, *layer.window, layer.stride)
                units = units.reshape(-1, *units.shape[2:])
            units = layer._units_forward(units, shape, train)
            shape = layer.output_shape(shape)
        return restructure(np.moveaxis(units, 0, 2), layer.block)

    def backward(self, grad_out):
        grad_units = None
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            if grad_units is None:  # checks the training state and grad_out's shape
                grad_cols = layer._window_backward(grad_out)[0]
            else:
                grad_cols = layer._units_backward(grad_units)
            # (wh, ww, B, C, oH, oW) or (wh*ww, B, C, oH, oW)
            if self._aligned(i):
                grad_units = grad_cols.reshape(-1, *grad_cols.shape[-4:])
            else:
                cols = grad_cols.reshape(*layer.window, *grad_cols.shape[-4:])
                grad_out, grad_units = col2im(cols, layer._saved[0], layer.stride), None
        return grad_out

    def param_groups(self):
        return [g for layer in self.layers for g in layer.param_groups()]

    def kink_margin(self):
        margins = [m for layer in self.layers if (m := layer.kink_margin()) is not None]
        return min(margins) if margins else None


def param_count(obj) -> int:
    """Learnable-parameter count of a perceptron pooling layer or stack:
    instances * units * (W*H + 1), the +1 dropped without a bias term."""
    if isinstance(obj, MlpPoolStack):
        return sum(param_count(layer) for layer in obj.layers)
    if isinstance(obj, _PerceptronWindowLayer):
        wh, ww = obj.window
        return obj.instances * obj.units * (wh * ww + (1 if obj.use_bias else 0))
    raise TypeError(f"param_count expects a perceptron pooling layer or stack, got {type(obj)!r}")


def complexity_probe(layer_factory, sizes, batch: int = 2, channels: int = 8,
                     repeats: int = 3, min_seconds: float = 0.01, seed: int = 0):
    """Wall-clock forward time per spatial size.

    Returns one row per size: {"size", "area", "seconds", "reliable"}.
    Each measurement loops the forward enough times to clear the timer
    floor; rows that still land under it are flagged unreliable so a fit
    can exclude them.
    """
    sizes = [int(s) for s in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {sizes}")
    rng = np.random.default_rng(seed)
    rows = []
    for s in sizes:
        layer = layer_factory()
        x = rng.standard_normal((batch, channels, s, s)).astype(np.float32)
        layer.forward(x)  # warm-up and bind
        t0 = time.perf_counter()
        layer.forward(x)
        once = max(time.perf_counter() - t0, 1e-9)
        loops = max(1, int(math.ceil(min_seconds / once)))
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(loops):
                layer.forward(x)
            best = min(best, (time.perf_counter() - t0) / loops)
        rows.append({"size": s, "area": s * s, "seconds": best, "reliable": best >= 2e-5})
    return rows


def loglog_slope(rows) -> float:
    """Least-squares slope of log(seconds) vs log(area), unreliable rows
    (measurement floor) excluded."""
    pts = [(r["area"], r["seconds"]) for r in rows if r.get("reliable", True)]
    if len(pts) < 2:
        raise ValueError("need at least two reliable measurements to fit a slope")
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])
