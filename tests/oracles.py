"""Independent oracles and test-only helpers.

The window oracles are deliberately written as plain nested loops over the
mathematical definitions, except the whole-batch `conv2d_reference` and
`pool_reference`, which read windows through numpy's sliding_window_view so
they run at test sizes that span several of the library's batch blocks;
`batchnorm_reference` keeps the textbook formulas that the two-pass
BatchNorm2d kernel replaced. None of them shares code with the library paths
it checks. `complexity_probe` and `loglog_slope` time a layer's forward over
input sizes for the linear-cost check (criterion 7). `run_python` runs a
snippet in a fresh interpreter that imports this checkout's `perceptpool`,
`multi_block_batch` gives a batch that spans three eval blocks, and
`classify_sign_pattern` names the layout of a pattern-init sign grid.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from perceptpool.data import CHANNEL_MEANS, SCALE
from perceptpool.layers import Conv2d, _blocks
from perceptpool.models import _EVAL_BLOCK_BYTES


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, **env: str) -> str:
    """Standard output of `code` run by a new interpreter, with `env` added
    to the environment and `src/` first on its import path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def multi_block_batch(dtype):
    """CIFAR-sized images, one more than two eval blocks' worth, which the
    even partition spreads over three blocks."""
    per_block = _EVAL_BLOCK_BYTES // (3 * 32 * 32 * np.dtype(dtype).itemsize)
    x = np.random.default_rng(6).normal(size=(2 * per_block + 1, 3, 32, 32)).astype(dtype)
    assert len(_blocks(len(x), x.nbytes, _EVAL_BLOCK_BYTES)) == 3
    return x


def conv2d_loops(x, weights, bias, stride, pad):
    """Direct dot-product convolution: out[b,o,i,j] = sum w*x + bias."""
    b, c, h, w = x.shape
    oc, ic, kh, kw = weights.shape
    assert c == ic
    if pad:
        xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x
    else:
        xp = x
    hp, wp = xp.shape[2:]
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    out = np.zeros((b, oc, oh, ow), dtype=np.float64)
    for bi in range(b):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += weights[o, ci, dy, dx] * xp[bi, ci, i * stride + dy, j * stride + dx]
                    out[bi, o, i, j] = acc + (bias[o] if bias is not None else 0.0)
    return out


def _windows(x, kh, kw, stride):
    """(B, C, oH, oW, kh, kw) view of every kh x kw window of x at `stride`."""
    return sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]


def _scatter_windows(grad_windows, in_shape, stride):
    """Adjoint of _windows: add grad_windows (B, C, oH, oW, kh, kw) back onto
    an input-sized zero array, one window offset at a time."""
    *_, oh, ow, kh, kw = grad_windows.shape
    gx = np.zeros(in_shape, dtype=grad_windows.dtype)
    for dy in range(kh):
        for dx in range(kw):
            gx[:, :, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride] += \
                grad_windows[..., dy, dx]
    return gx


def conv2d_reference(x, weights, bias, stride, pad, grad_out=None):
    """Whole-batch convolution by einsum over the windows. Returns out, or
    (out, (dx, dweights, dbias)) given grad_out; dbias is None without bias."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = _windows(xp, *weights.shape[2:], stride)
    out = np.einsum("bcijyx,ocyx->boij", win, weights, optimize=True)
    if bias is not None:
        out = out + bias[None, :, None, None]
    if grad_out is None:
        return out
    dw = np.einsum("bcijyx,boij->ocyx", win, grad_out, optimize=True)
    db = grad_out.sum(axis=(0, 2, 3)) if bias is not None else None
    gwin = np.einsum("boij,ocyx->bcijyx", grad_out, weights, optimize=True)
    dxp = _scatter_windows(gwin, xp.shape, stride)
    return out, (dxp[:, :, pad : pad + x.shape[2], pad : pad + x.shape[3]], dw, db)


def pool_reference(x, mode, window, stride, grad_out=None):
    """Whole-batch max or average pooling over the windows. Max routes each
    window's gradient to its first maximum in row-major scan. Returns out, or
    (out, dx) given grad_out."""
    win = _windows(x, window, window, stride)
    flat = win.reshape(*win.shape[:4], window * window)
    out = flat.max(axis=-1) if mode == "max" else flat.mean(axis=-1)
    if grad_out is None:
        return out
    if mode == "max":
        onehot = np.arange(window * window) == flat.argmax(axis=-1)[..., None]
        gflat = onehot * grad_out[..., None]
    else:
        gflat = np.broadcast_to(grad_out[..., None] / (window * window), flat.shape)
    return out, _scatter_windows(gflat.reshape(win.shape), x.shape, stride)


def perceptron_pool_loops(x, weights, bias, window, stride, activation="identity"):
    """Single-instance (shared) perceptron pooling by explicit window loops.

    weights: (units, wh, ww); bias: (units,) or None.
    Returns unit outputs (b, c, units, oh, ow) before any restructuring.
    """
    b, c, h, w = x.shape
    units, wh, ww = weights.shape
    oh = (h - wh) // stride + 1
    ow = (w - ww) // stride + 1
    out = np.zeros((b, c, units, oh, ow), dtype=np.float64)
    for bi in range(b):
        for ci in range(c):
            for k in range(units):
                for i in range(oh):
                    for j in range(ow):
                        acc = 0.0
                        for dy in range(wh):
                            for dx in range(ww):
                                acc += weights[k, dy, dx] * x[bi, ci, i * stride + dy, j * stride + dx]
                        if bias is not None:
                            acc += bias[k]
                        if activation == "relu":
                            acc = max(acc, 0.0)
                        out[bi, ci, k, i, j] = acc
    return out


def restructure_loops(units, q):
    """Placement by the unit-index formula, one write per output cell."""
    b, c, p, oh, ow = units.shape
    out = np.full((b, c, oh * q, ow * q), np.nan, dtype=units.dtype)
    for bi in range(b):
        for ci in range(c):
            for k in range(p):
                for i in range(oh):
                    for j in range(ow):
                        out[bi, ci, i * q + k // q, j * q + k % q] = units[bi, ci, k, i, j]
    assert not np.isnan(out).any()
    return out


def avg_pool_loops(x, window, stride):
    b, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((b, c, oh, ow), dtype=np.float64)
    for bi in range(b):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    out[bi, ci, i, j] = x[bi, ci, i * stride : i * stride + window,
                                          j * stride : j * stride + window].mean()
    return out


def adam_scalar_reference(grad_fn, theta0, lr, beta1, beta2, eps, steps):
    """One-dimensional Adam recursion written out long-hand."""
    theta = float(theta0)
    m = 0.0
    v = 0.0
    history = []
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (v_hat**0.5 + eps)
        history.append(theta)
    return history


def batchnorm_reference(x, gamma, beta, running_mean, running_var, grad_out=None,
                        train=True, eps=1e-5, momentum=0.1):
    """Per-channel batch normalization (Ioffe & Szegedy 2015) by its textbook
    formulas: x.mean/x.var, then the input gradient through the scaled
    gradient g = grad_out * gamma. Returns (out, running_mean, running_var,
    grads), where the running statistics are the updated copies and grads is
    (dx, dgamma, dbeta), or None without grad_out (train only)."""
    c = (None, slice(None), None, None)
    if train:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean = (1 - momentum) * running_mean + momentum * mean
        running_var = (1 - momentum) * running_var + momentum * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[c]) * inv_std[c]
    out = gamma[c] * xhat + beta[c]
    if grad_out is None:
        return out, running_mean, running_var, None
    b, _, h, w = grad_out.shape
    n = b * h * w
    dgamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    dbeta = grad_out.sum(axis=(0, 2, 3))
    g = grad_out * gamma[c]
    sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
    sum_gx = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
    dx = inv_std[c] * (g - sum_g / n - xhat * sum_gx / n)
    return out, running_mean, running_var, (dx, dgamma, dbeta)


def denormalize(images):
    """Inverse of data.normalize, rounded back to the raw byte grid."""
    x = np.asarray(images, dtype=np.float64)
    means = CHANNEL_MEANS.reshape((3, 1, 1) if x.ndim == 3 else (1, 3, 1, 1))
    return np.rint(x * SCALE + means).astype(np.uint8)


def nearest_centroid_accuracy(images, labels, pool=4):
    """Sanity oracle for the synthetic fixture: classify by the nearest class
    centroid of pool x pool averaged features."""
    x = np.asarray(images, dtype=np.float64)
    n, c, h, w = x.shape
    feats = x.reshape(n, c, h // pool, pool, w // pool, pool).mean(axis=(3, 5)).reshape(n, -1)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    centroids = np.stack([feats[labels == k].mean(axis=0) for k in classes])
    dists = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    pred = classes[dists.argmin(axis=1)]
    return float((pred == labels).mean())


def add_conv_biases(model):
    """Give every bias-less Conv2d of `model` a zero bias, as model_a_like's
    convolutions in front of BatchNorm2d had before it dropped them."""
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Conv2d) and layer.bias is None:
            twin = Conv2d(layer.in_channels, layer.out_channels, layer.kernel, layer.stride,
                          layer.pad, dtype=layer.weights.dtype, name=layer.name)
            twin.weights[...] = layer.weights
            model.layers[i] = twin
    return model


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


def classify_sign_pattern(grid: np.ndarray) -> str | None:
    """The class of the four sign layouts of initializers.random_sign_pattern
    that a sign grid belongs to, or None if it is unstructured."""
    g = np.asarray(grid)
    diagonal = np.eye(*g.shape, dtype=bool)
    rules = {
        "all_same": np.all(g == g[0, 0]),
        "x_split": np.all(g == g[0]) and np.count_nonzero(np.diff(g[0])) == 1,
        "y_split": np.all(g == g[:, :1]) and np.count_nonzero(np.diff(g[:, 0])) == 1,
        # one sign off the main diagonal (or its mirror), the other on it
        "diagonal": any(np.array_equal(c, np.where(diagonal, -c[0, -1], c[0, -1]))
                        for c in (g, np.fliplr(g))),
    }
    return next((kind for kind, ok in rules.items() if ok), None)
