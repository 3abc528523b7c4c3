"""Standard network building blocks with hand-written backward passes.

Convolution, fully connected, ReLU, batch normalization, fixed max/average
pooling and softmax cross-entropy: everything needed to rebuild the small
reference classifiers and the strided-convolution pooling baseline.

Conventions shared by all layers:
  - each layer writes only _forward(x, train) -> (output, saved) and
    _backward(grad_out, saved) -> input gradient, which ACCUMULATES parameter
    gradients into the layer's grad buffers (call zero_grad between steps);
  - Layer.forward drops the last saved state, then keeps (saved, output
    shape) for a training forward only; Layer.backward raises RuntimeError
    without it and ValueError for a grad_out of another shape, then consumes
    it: a training forward's state lives until its backward returns;
  - pooling never pads and requires the window to tile the input exactly;
    convolution supports symmetric zero padding, which only im2col and
    col2im see;
  - every layer call walks blocks of about _BLOCK_BYTES, cut by _blocks
    into sizes that differ by at most one: a windowed layer's batch blocks
    by their columns, ReLU's batch blocks and BatchNorm2d's channel blocks
    by their array;
  - every windowed layer (Conv2d, FixedPool and the perceptron chains of
    pooling.py) im2cols each batch block, zero padded, into an array of its
    own, then GEMMs, reduces or contracts it into the block's BCHW output
    (FixedPool and the chains through _map_columns; Conv2d im2cols its
    block itself, channels first); the adjoint col2im writes each block's
    input gradient, less the padding, into an array the caller owns; at
    window = stride = q, col2im is the perceptron layers' depth-to-space
    and im2col its inverse;
  - none keeps columns or a padded copy: a training forward keeps its input
    as given, and the backward rebuilds each block's columns from it
    (Conv2d's then overwrites them with the block's column gradient);
  - _map_blocks runs a layer call's blocks (and Sequential's eval image
    blocks) on one walker per allowed CPU: the calling thread and threads
    started for the walk. The partition never depends on the walker count,
    and weight and bias gradients are summed from per-block partials in
    block order after the walk, so results do not depend on which walker
    ran a block. Inside a walker and in an eval layer call, blocks run in
    line. The outermost layer call runs OpenBLAS at one thread for its whole
    length, and walkers allocate from glibc's main arena.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from contextlib import contextmanager

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


# Every layer call walks blocks of about this many bytes (a windowed layer's
# columns, else its array), so the strided passes over a block, and the GEMM,
# reduction or contraction that reads it, are served from cache instead of
# sweeping whole-batch arrays from memory, and conv1's batch-50 columns (5.5
# MB) still span three blocks for the walkers.
_BLOCK_BYTES = 2 << 20


def _blocks(n: int, nbytes: int, budget: int) -> list[slice]:
    """ceil(n / step) slices tiling range(n), for n items of nbytes in all and
    a step of about `budget` bytes, in sizes that differ by at most one,
    largest first (a short last block would leave a walker idle); one empty
    slice when n is 0, so an empty batch still runs once."""
    step = max(1, budget * n // max(nbytes, 1))
    count = max(1, -(-n // step))
    size, longer = divmod(n, count)  # the first `longer` blocks take one item more
    ends = [i * size + min(i, longer) for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]


_NO_PADS = ((0, 0), (0, 0))  # zero padding ((top, bottom), (left, right)) of a window pass


def _padded(shape, pads):
    """shape (..., H, W) zero padded by `pads`."""
    (pt, pb), (pl, pr) = pads
    return (*shape[:-2], shape[-2] + pt + pb, shape[-1] + pl + pr)


@functools.lru_cache(maxsize=256)  # a layer call asks once per block, each time the same
def _planes(hw, wh, ww, stride, oh, ow, pads):
    """(dy, dx, taps, fill) for each offset plane of the oh x ow windows over
    an H x W input (hw) zero padded by `pads`, without a padded copy: taps
    indexes the plane's taps inside the input, fill the part of the plane
    they fill."""
    axes = ([], [])
    for axis, k, (pad, _), n, on in zip(axes, (wh, ww), pads, hw, (oh, ow)):
        for d in range(k):  # outputs lo..hi-1 have their tap d + stride*i - pad in range(n)
            lo = min(on, max(0, -((d - pad) // stride)))
            hi = max(lo, min(on, -((d - pad - n) // stride)))
            axis.append((slice(d - pad + stride * lo, d - pad + stride * hi, stride), slice(lo, hi)))
    return tuple((dy, dx, (..., ys, xs), (..., i, j))
                 for dy, (ys, i) in enumerate(axes[0]) for dx, (xs, j) in enumerate(axes[1]))


def im2col(x: np.ndarray, wh: int, ww: int, stride: int, pads=_NO_PADS) -> np.ndarray:
    """Every wh x ww window of x (N, ..., H, W) zero padded by `pads`, as a
    (wh, ww, N, ..., oH, oW) array of its own: one strided copy per window
    offset, so windowed reductions and GEMMs run over contiguous planes."""
    oh, ow = ((n - k) // stride + 1 for n, k in zip(_padded(x.shape, pads)[-2:], (wh, ww)))
    cols = np.empty((wh, ww, *x.shape[:-2], oh, ow), dtype=x.dtype)
    for dy, dx, taps, (_, i, j) in _planes(x.shape[-2:], wh, ww, stride, oh, ow, pads):
        plane = cols[dy, dx]
        plane[..., i, j] = x[taps]
        if pads != _NO_PADS:  # the taps in the padding read zeros
            plane[..., : i.start, :] = plane[..., i.stop :, :] = 0
            plane[..., : j.start] = plane[..., j.stop :] = 0
    return cols


def col2im(cols: np.ndarray, stride: int, out: np.ndarray, pads=_NO_PADS) -> np.ndarray:
    """Adjoint of im2col: put each offset plane of cols (wh, ww, N, ..., oH, oW)
    back in place in `out` (N, ..., H, W, any view), less the padding, and
    return it; overlapping windows sum and what no window covers is zero."""
    wh, ww = cols.shape[:2]
    oh, ow = cols.shape[-2:]
    # Windows that tile the padded input exactly each own their pixels, so
    # their planes are assigned; otherwise they add onto zeros.
    tiles = wh == ww == stride and _padded(out.shape, pads)[-2:] == (oh * stride, ow * stride)
    if not tiles:
        out[...] = 0
    for dy, dx, taps, fill in _planes(out.shape[-2:], wh, ww, stride, oh, ow, pads):
        if tiles:
            out[taps] = cols[dy, dx][fill]
        else:
            out[taps] += cols[dy, dx][fill]
    return out


def _find_blas_threads():
    """(get, set) of the loaded OpenBLAS's process-wide thread count, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


_BLAS_THREADS = _find_blas_threads()
# Walkers: the calling thread plus this many minus one threads started for a
# walk, one per allowed CPU. Each runs single-threaded BLAS (walkers on top of
# BLAS threads oversubscribe the CPUs and gain nothing), so without a BLAS
# whose thread count can be set, the caller walks alone.
_WALKERS = len(os.sched_getaffinity(0)) if _BLAS_THREADS else 1
# Per thread, `walk`: absent outside a layer call, else whether its blocks go
# to the walkers (not on a walker, nor in an eval call: eval is split by image).
_local = threading.local()


@contextmanager
def _layer_call(walk: bool):
    """One layer call on this thread; its block loops walk when `walk`. The
    outermost sets BLAS to one thread for its whole length, not only for its
    walks (a wider GEMM would wake an OpenBLAS worker that then spin-waits on
    a CPU the walkers need), and restores the count after. Nested calls, and
    every call on a walker, inherit both: the count is process-wide, as is
    openblas_set_num_threads_local's in OpenBLAS 0.3.31."""
    if hasattr(_local, "walk"):
        yield
        return
    before = _BLAS_THREADS and _BLAS_THREADS[0]()
    _local.walk = walk
    try:
        if before:
            _BLAS_THREADS[1](1)
        yield
    finally:
        del _local.walk
        if before:
            _BLAS_THREADS[1](before)


@functools.cache
def _one_malloc_arena():
    """Walkers allocate from glibc's main arena (set once, before the first
    walker starts): an arena per thread raised a training run's peak RSS by
    12-19%, each holding freed blocks the others cannot reuse."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-8, 1)  # M_ARENA_MAX


def _map_blocks(fn, blocks):
    """[fn(blk) for blk in blocks]. In a walking layer call the blocks go, in
    order, to the walkers as each asks for its next one, and every result to
    its own slot, so which walker ran a block cannot change the output; a
    walker's error re-raises here once every walker has stopped."""
    if len(blocks) < 2 or _WALKERS == 1 or not getattr(_local, "walk", False):
        return [fn(blk) for blk in blocks]
    _one_malloc_arena()
    out = [None] * len(blocks)
    todo = iter(range(len(blocks)))  # shared: next() on a range iterator is atomic under the GIL
    errors = []

    def walk():
        _local.walk = False
        try:
            for i in todo:
                out[i] = fn(blocks[i])
        except Exception as e:
            errors.append(e)

    walkers = [threading.Thread(target=walk) for _ in range(min(_WALKERS, len(blocks)) - 1)]
    for w in walkers:
        w.start()
    try:
        walk()
    finally:
        _local.walk = True
        for w in walkers:
            w.join()
    if errors:
        raise errors[0]
    return out


def _column_bytes(x, wh, ww, stride, pads=_NO_PADS):
    """Bytes of im2col(x, wh, ww, stride, pads)."""
    h, w = x.shape[-2:]
    hp, wp = _padded(x.shape, pads)[-2:]
    return wh * ww * x.nbytes // (h * w) * ((hp - wh) // stride + 1) * ((wp - ww) // stride + 1)


def _map_columns(fn, x, wh, ww, stride, pads=_NO_PADS):
    """[fn(blk, cols) for each batch block of x, of about _BLOCK_BYTES of
    columns], run by _map_blocks. cols is the block's own im2col, which fn
    may overwrite."""
    return _map_blocks(lambda blk: fn(blk, im2col(x[blk], wh, ww, stride, pads)),
                       _blocks(len(x), _column_bytes(x, wh, ww, stride, pads), _BLOCK_BYTES))


class Layer:
    name: str = ""
    _saved = None  # (saved, output shape) of the last training forward

    def forward(self, x, train: bool = True):
        self._saved = None
        with _layer_call(walk=train):
            out, saved = self._forward(x, train)
        if train:
            self._saved = (saved, out.shape)
        return out

    def backward(self, grad_out):
        if self._saved is None:
            raise RuntimeError(f"{self.name}: backward requires a training-mode forward")
        saved, shape = self._saved
        if grad_out.shape != shape:
            raise ValueError(f"{self.name}: grad_out shape {grad_out.shape} does not match "
                             f"forward output {shape}")
        # The backward consumes the state: its memory is free once this returns.
        self._saved = None
        with _layer_call(walk=True):
            return self._backward(grad_out, saved)

    def _forward(self, x, train):
        """(output, saved): what _backward(grad_out, saved) needs, kept when training."""
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


def _weight_bias_groups(layer, *factors) -> list[ParamGroup]:
    """The `<name>.weight` group, then `<name>.bias` when the layer has a bias;
    `factors` (lr_factor, wd_factor) go to both, ParamGroup's defaults if omitted."""
    groups = [ParamGroup(f"{layer.name}.weight", layer.weights, layer.weights_grad, *factors)]
    if layer.bias is not None:
        groups.append(ParamGroup(f"{layer.name}.bias", layer.bias, layer.bias_grad, *factors))
    return groups


class Conv2d(Layer):
    """Cross-correlation with per-output-channel bias (im2col + GEMM)."""

    def __init__(self, in_channels, out_channels, kernel=3, stride=1, pad=0, use_bias: bool = True,
                 rng: np.random.Generator | None = None, dtype=np.float32, name: str = "conv"):
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = _pair(kernel)
        self.stride = int(stride)
        self.pad = int(pad)
        if self.stride < 1 or self.pad < 0:
            raise ValueError("stride must be >= 1 and pad >= 0")
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

    def param_groups(self):
        return _weight_bias_groups(self)

    def _weight_matrix(self):
        # (O, kh*kw*C), matching the (kh, kw, C) row order of the columns
        return self.weights.transpose(0, 2, 3, 1).reshape(self.out_channels, -1)

    def _forward(self, x, train):
        b, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        (kh, kw), s, pads = self.kernel, self.stride, ((self.pad, self.pad),) * 2
        oh, ow = ((n - k) // s + 1 for n, k in zip(_padded(x.shape, pads)[-2:], self.kernel))
        if oh < 1 or ow < 1:
            raise ValueError(f"kernel {self.kernel} does not fit input {h}x{w} with pad {self.pad}")
        wm = self._weight_matrix()
        out = np.empty((b, self.out_channels, oh, ow), dtype=np.result_type(x, wm))

        def block(blk):
            cols = im2col(x[blk].transpose(1, 0, 2, 3), kh, kw, s, pads)
            ob = wm @ cols.reshape(wm.shape[1], -1)
            if self.bias is not None:
                ob += self.bias[:, None]
            out[blk] = ob.reshape(len(ob), blk.stop - blk.start, oh, ow).transpose(1, 0, 2, 3)

        _map_blocks(block, _blocks(b, _column_bytes(x, kh, kw, s, pads), _BLOCK_BYTES))
        return out, x

    def _backward(self, grad_out, x):
        (kh, kw), o, s, pads = self.kernel, self.out_channels, self.stride, ((self.pad, self.pad),) * 2
        wm_t = self._weight_matrix().T
        gx = np.empty(x.shape, dtype=np.result_type(wm_t, grad_out))

        def block(blk):
            gob = np.ascontiguousarray(grad_out[blk].transpose(1, 0, 2, 3)).reshape(o, -1)
            cb = im2col(x[blk].transpose(1, 0, 2, 3), kh, kw, s, pads)
            cols = cb.reshape(wm_t.shape[0], -1)
            parts = gob @ cols.T, None if self.bias is None else gob.sum(axis=1)
            np.matmul(wm_t, gob, out=cols)  # the column gradient, over the consumed columns
            col2im(cb, s, gx[blk].transpose(1, 0, 2, 3), pads)
            return parts

        gw = self.weights_grad.transpose(0, 2, 3, 1)  # (O, kh, kw, C), the columns' row order
        blocks = _blocks(len(x), _column_bytes(x, kh, kw, s, pads), _BLOCK_BYTES)
        for gwb, gbb in _map_blocks(block, blocks):  # in block order
            gw += gwb.reshape(gw.shape)
            if gbb is not None:
                self.bias_grad += gbb
        return gx


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

    def _forward(self, x, train):
        b, c, h, w = x.shape
        wh, ww = self.window
        # pool_out_dim raises unless the window tiles exactly.
        oh, ow = pool_out_dim(h, wh, self.stride), pool_out_dim(w, ww, self.stride)
        out = np.empty((b, c, oh, ow), dtype=x.dtype)
        reduce = np.max if self.mode == "max" else np.sum

        def block(blk, cb):
            ob = reduce(cb, axis=(0, 1), out=out[blk])
            if self.mode == "average":  # sum, then divide: what np.mean does, without its overhead
                ob /= wh * ww

        _map_columns(block, x, wh, ww, self.stride)
        return out, (x if self.mode == "max" else x.shape)

    def _backward(self, grad_out, saved):
        wh, ww = self.window
        s = self.stride
        if self.mode == "average":
            g = grad_out / (wh * ww)
            return col2im(np.broadcast_to(g, (wh, ww, *g.shape)), s, np.empty(saved, g.dtype))
        x = saved.astype(grad_out.dtype, copy=False)  # windows in the gradient's dtype
        gx = np.empty(x.shape, dtype=grad_out.dtype)

        def block(blk, cb):
            g = grad_out[blk]
            # Rebuild the block's windows and their maxima, then turn each
            # offset plane into its share of the gradient in place. The
            # gradient goes to the first maximum in row-major window scan, so
            # ties route the whole gradient to a single input.
            top = cb.max(axis=(0, 1))
            free = np.ones(g.shape, dtype=bool)  # no earlier offset took this window
            for dy in range(wh):
                for dx in range(ww):
                    hit = cb[dy, dx] == top
                    hit &= free
                    free ^= hit
                    np.multiply(hit, g, out=cb[dy, dx])
            col2im(cb, s, gx[blk])

        _map_columns(block, x, wh, ww, s)
        return gx


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        self.name = name

    def _forward(self, x, train):
        y = np.empty_like(x)
        _map_blocks(lambda blk: np.maximum(x[blk], 0, out=y[blk]),
                    _blocks(len(x), x.nbytes, _BLOCK_BYTES))
        return y, y  # y > 0 exactly where x > 0

    def _backward(self, grad_out, y):
        gx = np.empty_like(grad_out)
        _map_blocks(lambda blk: np.multiply(grad_out[blk], y[blk] > 0, out=gx[blk]),
                    _blocks(len(y), y.nbytes, _BLOCK_BYTES))
        return gx


class BatchNorm2d(Layer):
    """Per-channel batch normalization: batch statistics while training,
    running statistics in eval mode."""

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int, dtype=np.float32, name: str = "bn"):
        self.channels = int(channels)
        self.name = name
        self.gamma = np.ones(self.channels, dtype=dtype)
        self.beta = np.zeros(self.channels, dtype=dtype)
        self.gamma_grad = np.zeros_like(self.gamma)
        self.beta_grad = np.zeros_like(self.beta)
        self.running_mean = np.zeros(self.channels, dtype=dtype)
        self.running_var = np.ones(self.channels, dtype=dtype)

    def param_groups(self):
        return [
            ParamGroup(f"{self.name}.gamma", self.gamma, self.gamma_grad),
            ParamGroup(f"{self.name}.beta", self.beta, self.beta_grad),
        ]

    def state_tensors(self):
        return super().state_tensors() + [
            (f"{self.name}.running_mean", self.running_mean),
            (f"{self.name}.running_var", self.running_var),
        ]

    def _forward(self, x, train):
        if x.shape[1] != self.channels:
            raise ValueError(f"{self.name}: expected {self.channels} channels, got {x.shape[1]}")
        # Each channel's statistics are its own, so channel blocks walk. A
        # training forward allocates two full-size arrays (xhat, and out, which
        # first holds the squares), its backward one; reductions are ndarray.sum
        # (pairwise).
        n = x.size // self.channels
        out = np.empty(x.shape, np.result_type(x, self.gamma))
        xhat = np.empty_like(out) if train else None
        inv_std = np.empty(self.channels, out.dtype) if train else None

        def block(cs):
            o, g, b = out[:, cs], self.gamma[cs, None, None], self.beta[cs, None, None]
            if train:
                mean = x[:, cs].sum(axis=(0, 2, 3)) / n
                xh = np.subtract(x[:, cs], mean[:, None, None], out=xhat[:, cs])
                var = np.square(xh, out=o).sum(axis=(0, 2, 3)) / n
                for run, stat in ((self.running_mean, mean), (self.running_var, var)):
                    run[cs] = (1 - self.momentum) * run[cs] + self.momentum * stat
                inv_std[cs] = 1.0 / np.sqrt(var + self.eps)
                xh *= inv_std[cs, None, None]
                np.multiply(xh, g, out=o)
            else:
                np.subtract(x[:, cs], self.running_mean[cs, None, None], out=o)
                o *= g / np.sqrt(self.running_var[cs, None, None] + self.eps)
            o += b

        _map_blocks(block, _blocks(self.channels, x.nbytes, _BLOCK_BYTES))
        return out, (xhat, inv_std)

    def _backward(self, grad_out, saved):
        xhat, inv_std = saved
        n = grad_out.size // self.channels
        dx = np.empty(grad_out.shape, np.result_type(grad_out, xhat))

        def block(cs):
            g, xh, d = grad_out[:, cs], xhat[:, cs], dx[:, cs]
            np.multiply(g, xh, out=d)  # the products until gg is summed from them, then dx
            gg = d.sum(axis=(0, 2, 3))
            bg = g.sum(axis=(0, 2, 3))
            self.gamma_grad[cs] += gg
            self.beta_grad[cs] += bg
            # dx = inv_std * (g - sum(g)/n - xhat*sum(g*xhat)/n) with g = gamma*grad_out,
            # where sum(g) = gamma*bg and sum(g*xhat) = gamma*gg.
            np.multiply(xh, (-gg / n)[:, None, None], out=d)
            d += g
            d -= (bg / n)[:, None, None]
            d *= (self.gamma[cs] * inv_std[cs])[:, None, None]

        _map_blocks(block, _blocks(self.channels, grad_out.nbytes, _BLOCK_BYTES))
        return dx


class Dense(Layer):
    """Fully connected: each image of a (batch, ...) input, the pooled maps as
    they come, is read as one row of in_features values (C order)."""

    def __init__(self, in_features, out_features,
                 rng: np.random.Generator | None = None, dtype=np.float32, name: str = "fc"):
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.name = name
        if rng is None:
            self.weights = np.zeros((self.in_features, self.out_features), dtype=dtype)
        else:
            self.weights = glorot_uniform(rng, (self.in_features, self.out_features),
                                          self.in_features, self.out_features, dtype=dtype)
        self.bias = np.zeros(self.out_features, dtype=dtype)
        self.weights_grad = np.zeros_like(self.weights)
        self.bias_grad = np.zeros_like(self.bias)

    def param_groups(self):
        return _weight_bias_groups(self)

    def _forward(self, x, train):
        if x.ndim < 2 or math.prod(x.shape[1:]) != self.in_features:
            raise ValueError(f"{self.name}: expected (batch, ...) of {self.in_features} "
                             f"features, got {x.shape}")
        # einsum's own loop sums each output in one order whatever the row
        # count, so an image's logits do not depend on its eval block (GEMM's did).
        rows = x.reshape(len(x), self.in_features)
        return np.einsum("bi,oi->bo", rows, np.ascontiguousarray(self.weights.T)) + self.bias, x

    def _backward(self, grad_out, x):
        self.weights_grad += x.reshape(len(x), self.in_features).T @ grad_out
        self.bias_grad += grad_out.sum(axis=0)
        return (grad_out @ self.weights.T).reshape(x.shape)


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
