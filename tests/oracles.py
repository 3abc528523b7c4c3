"""Independent oracles and test-only helpers.

The window oracles are deliberately written as plain nested loops over the
mathematical definitions; `batchnorm_reference` keeps the textbook formulas
that the two-pass BatchNorm2d kernel replaced. None of them shares code with
the library paths it checks.
"""

import numpy as np

from perceptpool.data import CHANNEL_MEANS, SCALE


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
