"""Standard network building blocks with hand-written backward passes.

Convolution, fully connected, ReLU, batch normalization, fixed max/average
pooling and softmax cross-entropy: everything needed to rebuild the small
reference classifiers and the strided-convolution pooling baseline.

Conventions shared by all layers:
  - forward(x, train=True) stores whatever backward needs; every layer
    stores nothing for train=False, so a backward after an evaluation
    forward raises;
  - backward(grad_out) returns the input gradient and ACCUMULATES parameter
    gradients into the layer's grad buffers (call zero_grad between steps);
  - pooling never pads and requires the window to tile the input exactly;
    convolution supports symmetric zero padding;
  - every windowed layer (Conv2d, FixedPool and the perceptron layers of
    pooling.py) reads its windows through im2col and returns its input
    gradient through the adjoint col2im.
"""

from __future__ import annotations

import numpy as np

from .initializers import glorot_uniform
from .optim import ParamGroup


def pool_out_dim(in_dim: int, window: int, stride: int) -> int:
    """Output size of an exactly-tiling pooling window: (in - w)/s + 1."""
    if window < 1 or stride < 1:
        raise ValueError(f"window and stride must be >= 1, got {window}, {stride}")
    if in_dim < window:
        raise ValueError(f"input dim {in_dim} smaller than window {window}")
    if (in_dim - window) % stride != 0:
        raise ValueError(
            f"window {window}/stride {stride} does not tile input dim {in_dim} exactly"
        )
    return (in_dim - window) // stride + 1


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


# im2col and col2im walk the first axis in blocks of about this many input
# bytes, so the wh*ww strided passes over a block are served from cache
# instead of sweeping the whole array from memory wh*ww times.
_BLOCK_BYTES = 1 << 20


def _blocks(x: np.ndarray) -> list[slice]:
    step = max(1, _BLOCK_BYTES * len(x) // max(x.nbytes, 1))
    return [slice(lo, lo + step) for lo in range(0, len(x), step)]


def im2col(x: np.ndarray, wh: int, ww: int, stride: int) -> np.ndarray:
    """Every exactly tiling wh x ww window of x (N, ..., H, W), as a
    (wh, ww, N, ..., oH, oW) array: one strided copy per window offset, so
    windowed reductions and GEMMs run over contiguous planes."""
    *lead, h, w = x.shape
    oh = (h - wh) // stride + 1
    ow = (w - ww) // stride + 1
    cols = np.empty((wh, ww, *lead, oh, ow), dtype=x.dtype)
    for blk in _blocks(x):
        for dy in range(wh):
            for dx in range(ww):
                cols[dy, dx, blk] = x[blk, ..., dy : dy + stride * oh : stride,
                                      dx : dx + stride * ow : stride]
    return cols


def col2im(cols: np.ndarray, shape, stride: int) -> np.ndarray:
    """Adjoint of im2col: add each offset plane of cols (wh, ww, N, ..., oH, oW)
    back onto a zero array of the input `shape`; overlapping windows sum."""
    wh, ww = cols.shape[:2]
    oh, ow = cols.shape[-2:]
    x = np.zeros(shape, dtype=cols.dtype)
    for blk in _blocks(x):
        for dy in range(wh):
            for dx in range(ww):
                x[blk, ..., dy : dy + stride * oh : stride,
                  dx : dx + stride * ow : stride] += cols[dy, dx, blk]
    return x


class Layer:
    name: str = ""

    def forward(self, x, train: bool = True):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError

    def param_groups(self) -> list[ParamGroup]:
        return []

    def state_tensors(self) -> list[tuple[str, np.ndarray]]:
        """Arrays that belong in a checkpoint (parameters plus any running
        statistics), in a fixed order."""
        return [(g.name, g.param) for g in self.param_groups()]

    def zero_grad(self) -> None:
        for g in self.param_groups():
            g.grad[...] = 0.0

    def kink_margin(self):
        """Distance of the last forward from the nearest nondifferentiable
        point, or None for smooth layers. Used by the gradient checker."""
        return None


class Conv2d(Layer):
    """Cross-correlation with per-output-channel bias (im2col + GEMM)."""

    def __init__(self, in_channels, out_channels, kernel=3, stride=1, pad=0,
                 use_bias: bool = True, lr_factor: float = 1.0, wd_factor: float = 1.0,
                 rng: np.random.Generator | None = None, dtype=np.float32, name: str = "conv"):
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = _pair(kernel)
        self.stride = int(stride)
        self.pad = int(pad)
        if self.stride < 1 or self.pad < 0:
            raise ValueError("stride must be >= 1 and pad >= 0")
        self.lr_factor = lr_factor
        self.wd_factor = wd_factor
        self.name = name
        kh, kw = self.kernel
        wshape = (self.out_channels, self.in_channels, kh, kw)
        if rng is None:
            self.weights = np.zeros(wshape, dtype=dtype)
        else:
            fan_in = self.in_channels * kh * kw
            fan_out = self.out_channels * kh * kw
            self.weights = glorot_uniform(rng, wshape, fan_in, fan_out, dtype=dtype)
        self.bias = np.zeros(self.out_channels, dtype=dtype) if use_bias else None
        self.weights_grad = np.zeros_like(self.weights)
        self.bias_grad = np.zeros_like(self.bias) if use_bias else None
        self._saved = None

    def param_groups(self):
        groups = [ParamGroup(f"{self.name}.weight", self.weights, self.weights_grad,
                             self.lr_factor, self.wd_factor)]
        if self.bias is not None:
            groups.append(ParamGroup(f"{self.name}.bias", self.bias, self.bias_grad,
                                     self.lr_factor, self.wd_factor))
        return groups

    def _out_dims(self, h, w):
        kh, kw = self.kernel
        oh = (h + 2 * self.pad - kh) // self.stride + 1
        ow = (w + 2 * self.pad - kw) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"kernel {self.kernel} does not fit input {h}x{w} with pad {self.pad}")
        return oh, ow

    def _weight_matrix(self):
        # (O, kh*kw*C), matching the (kh, kw, C) row order of the columns
        return self.weights.transpose(0, 2, 3, 1).reshape(self.out_channels, -1)

    def forward(self, x, train: bool = True):
        b, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        oh, ow = self._out_dims(h, w)
        if self.pad:
            x = np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)))
        # Channels before batch, so the columns reshape for free to (kh*kw*C, B*oH*oW).
        cols = im2col(x.transpose(1, 0, 2, 3), *self.kernel, self.stride).reshape(-1, b * oh * ow)
        out = self._weight_matrix() @ cols
        if self.bias is not None:
            out += self.bias[:, None]
        self._saved = (cols, x.shape, (b, oh, ow)) if train else None
        return np.ascontiguousarray(
            out.reshape(self.out_channels, b, oh, ow).transpose(1, 0, 2, 3)
        )

    def backward(self, grad_out):
        if self._saved is None:
            raise RuntimeError(f"{self.name}: backward without a stored forward")
        cols, (_, c, hp, wp), (b, oh, ow) = self._saved
        if grad_out.shape != (b, self.out_channels, oh, ow):
            raise ValueError(f"{self.name}: grad_out shape {grad_out.shape} does not match forward")
        kh, kw = self.kernel
        go = np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3)).reshape(self.out_channels, -1)
        gw = (go @ cols.T).reshape(self.out_channels, kh, kw, c)
        self.weights_grad += gw.transpose(0, 3, 1, 2)
        if self.bias is not None:
            self.bias_grad += go.sum(axis=1)
        grad_cols = (self._weight_matrix().T @ go).reshape(kh, kw, c, b, oh, ow)
        gx = col2im(grad_cols, (c, b, hp, wp), self.stride).transpose(1, 0, 2, 3)
        if self.pad:
            gx = gx[:, :, self.pad : -self.pad, self.pad : -self.pad]
        return np.ascontiguousarray(gx)


class FixedPool(Layer):
    """Parameter-free max or average pooling over exactly tiling windows."""

    MODES = ("max", "average")

    def __init__(self, mode: str, window=2, stride=None, name: str = "pool"):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        self.window = _pair(window)
        self.stride = int(stride) if stride is not None else self.window[0]
        self.name = name
        self._saved = None

    def forward(self, x, train: bool = True):
        _, _, h, w = x.shape
        wh, ww = self.window
        pool_out_dim(h, wh, self.stride)  # raises unless the window tiles exactly
        pool_out_dim(w, ww, self.stride)
        cols = im2col(x, wh, ww, self.stride)
        if self.mode == "max":
            out = cols.max(axis=(0, 1))
        else:
            out = cols.mean(axis=(0, 1))
        # Max backward and kink_margin need the windows; average needs only shapes.
        self._saved = (x.shape, cols if self.mode == "max" else None, out.shape) if train else None
        return out

    def backward(self, grad_out):
        if self._saved is None:
            raise RuntimeError(f"{self.name}: backward without a stored forward")
        in_shape, cols, out_shape = self._saved
        if grad_out.shape != out_shape:
            raise ValueError(f"{self.name}: grad_out shape {grad_out.shape} does not match forward")
        wh, ww = self.window
        if self.mode == "max":
            # One-hot on the first maximum in row-major window scan, so ties
            # route the whole gradient to a single input.
            first = cols.reshape(wh * ww, *out_shape).argmax(axis=0)
            onehot = np.arange(wh * ww).reshape(wh, ww, 1, 1, 1, 1) == first
            grad_cols = onehot * grad_out
        else:
            grad_cols = np.broadcast_to(grad_out / (wh * ww), (wh, ww, *out_shape))
        return col2im(grad_cols, in_shape, self.stride)

    def kink_margin(self):
        if self._saved is None or self._saved[1] is None:
            return None
        cols = self._saved[1]
        flat = cols.reshape(-1, *cols.shape[2:])
        if len(flat) < 2:
            return None
        top2 = np.partition(flat, -2, axis=0)[-2:]
        return float(np.min(top2[1] - top2[0]))


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        self.name = name
        self._x = None

    def forward(self, x, train: bool = True):
        self._x = x if train else None
        return np.maximum(x, 0)

    def backward(self, grad_out):
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward without a stored forward")
        if grad_out.shape != self._x.shape:
            raise ValueError(f"{self.name}: grad_out shape does not match forward")
        return grad_out * (self._x > 0)

    def kink_margin(self):
        if self._x is None or self._x.size == 0:
            return None
        return float(np.min(np.abs(self._x)))


class BatchNorm2d(Layer):
    """Per-channel batch normalization: batch statistics while training,
    running statistics in eval mode."""

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1,
                 lr_factor: float = 1.0, wd_factor: float = 1.0,
                 dtype=np.float32, name: str = "bn"):
        if eps <= 0 or not (0.0 < momentum < 1.0):
            raise ValueError("eps must be > 0 and momentum in (0, 1)")
        self.channels = int(channels)
        self.eps = eps
        self.momentum = momentum
        self.lr_factor = lr_factor
        self.wd_factor = wd_factor
        self.name = name
        self.gamma = np.ones(self.channels, dtype=dtype)
        self.beta = np.zeros(self.channels, dtype=dtype)
        self.gamma_grad = np.zeros_like(self.gamma)
        self.beta_grad = np.zeros_like(self.beta)
        self.running_mean = np.zeros(self.channels, dtype=dtype)
        self.running_var = np.ones(self.channels, dtype=dtype)
        self._saved = None

    def param_groups(self):
        return [
            ParamGroup(f"{self.name}.gamma", self.gamma, self.gamma_grad, self.lr_factor, self.wd_factor),
            ParamGroup(f"{self.name}.beta", self.beta, self.beta_grad, self.lr_factor, self.wd_factor),
        ]

    def state_tensors(self):
        return super().state_tensors() + [
            (f"{self.name}.running_mean", self.running_mean),
            (f"{self.name}.running_var", self.running_var),
        ]

    def forward(self, x, train: bool = True):
        if x.shape[1] != self.channels:
            raise ValueError(f"{self.name}: expected {self.channels} channels, got {x.shape[1]}")
        # Per-channel vectors broadcast as (C, 1, 1). Each direction allocates at
        # most two full-size arrays; reductions are ndarray.sum (pairwise).
        if train:
            n = x.size // self.channels
            mean = x.sum(axis=(0, 2, 3)) / n
            xhat = x - mean[:, None, None]
            var = np.square(xhat).sum(axis=(0, 2, 3)) / n
            self.running_mean[...] = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var[...] = (1 - self.momentum) * self.running_var + self.momentum * var
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat *= inv_std[:, None, None]
            self._saved = (xhat, inv_std)
            out = xhat * self.gamma[:, None, None]
        else:
            self._saved = None
            out = x - self.running_mean[:, None, None]
            out *= (self.gamma / np.sqrt(self.running_var + self.eps))[:, None, None]
        out += self.beta[:, None, None]
        return out

    def backward(self, grad_out):
        if self._saved is None:
            raise RuntimeError(f"{self.name}: backward requires a training-mode forward")
        xhat, inv_std = self._saved
        if grad_out.shape != xhat.shape:
            raise ValueError(f"{self.name}: grad_out shape does not match forward")
        n = grad_out.size // self.channels
        gg = (grad_out * xhat).sum(axis=(0, 2, 3))
        bg = grad_out.sum(axis=(0, 2, 3))
        self.gamma_grad += gg
        self.beta_grad += bg
        # dx = inv_std * (g - sum(g)/n - xhat*sum(g*xhat)/n) with g = gamma*grad_out,
        # where sum(g) = gamma*bg and sum(g*xhat) = gamma*gg.
        dx = xhat * (-gg / n)[:, None, None]
        dx += grad_out
        dx -= (bg / n)[:, None, None]
        dx *= (self.gamma * inv_std)[:, None, None]
        return dx


class Flatten(Layer):
    def __init__(self, name: str = "flatten"):
        self.name = name
        self._in_shape = None

    def forward(self, x, train: bool = True):
        self._in_shape = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        if self._in_shape is None:
            raise RuntimeError(f"{self.name}: backward without a stored forward")
        return grad_out.reshape(self._in_shape)


class Dense(Layer):
    def __init__(self, in_features, out_features, use_bias: bool = True,
                 lr_factor: float = 1.0, wd_factor: float = 1.0,
                 rng: np.random.Generator | None = None, dtype=np.float32, name: str = "fc"):
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.lr_factor = lr_factor
        self.wd_factor = wd_factor
        self.name = name
        if rng is None:
            self.weights = np.zeros((self.in_features, self.out_features), dtype=dtype)
        else:
            self.weights = glorot_uniform(rng, (self.in_features, self.out_features),
                                          self.in_features, self.out_features, dtype=dtype)
        self.bias = np.zeros(self.out_features, dtype=dtype) if use_bias else None
        self.weights_grad = np.zeros_like(self.weights)
        self.bias_grad = np.zeros_like(self.bias) if use_bias else None
        self._x = None

    def param_groups(self):
        groups = [ParamGroup(f"{self.name}.weight", self.weights, self.weights_grad,
                             self.lr_factor, self.wd_factor)]
        if self.bias is not None:
            groups.append(ParamGroup(f"{self.name}.bias", self.bias, self.bias_grad,
                                     self.lr_factor, self.wd_factor))
        return groups

    def forward(self, x, train: bool = True):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"{self.name}: expected (batch, {self.in_features}), got {x.shape}")
        self._x = x if train else None
        out = x @ self.weights
        if self.bias is not None:
            out = out + self.bias
        return out

    def backward(self, grad_out):
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward without a stored forward")
        if grad_out.shape != (self._x.shape[0], self.out_features):
            raise ValueError(f"{self.name}: grad_out shape does not match forward")
        self.weights_grad += self._x.T @ grad_out
        if self.bias is not None:
            self.bias_grad += grad_out.sum(axis=0)
        return grad_out @ self.weights.T


def softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, classes), got {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must be ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, (grad / n).astype(logits.dtype)
