"""SGD-with-momentum and Adam over parameter groups.

Each group carries its own learning-rate and weight-decay multipliers so
pooling perceptrons can train at a reduced rate (0.1x by default) and with
decay disabled, while the rest of the model uses the globals. SGD and Adam
share one step loop, with decay coupled: added to the gradient before the
momentum/moment updates. Each epoch's learning rate is TrainConfig.lr_at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ParamGroup:
    """A view onto one layer parameter array and its gradient buffer. Frozen,
    so the arrays whose shapes __post_init__ checked cannot be swapped."""

    name: str
    param: np.ndarray
    grad: np.ndarray
    lr_factor: float = 1.0
    wd_factor: float = 1.0

    def __post_init__(self):
        if self.param.shape != self.grad.shape:
            raise ValueError(
                f"group {self.name}: grad shape {self.grad.shape} != param shape {self.param.shape}"
            )
        if self.lr_factor < 0 or self.wd_factor < 0:
            raise ValueError(f"group {self.name}: factors must be >= 0")


class _Optimizer:
    """Per group: add the coupled decay to the gradient, then subtract in place
    what the subclass's _update(i, grad, scale) returns after updating group
    i's state: its step times scale = lr * lr_factor."""

    def __init__(self, groups, lr: float, weight_decay: float):
        self.groups = list(groups)
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        for i, g in enumerate(self.groups):
            gr = g.grad
            if self.weight_decay != 0.0 and g.wd_factor != 0.0:
                gr = gr + (g.wd_factor * self.weight_decay) * g.param
            np.subtract(g.param, self._update(i, gr, lr * g.lr_factor), out=g.param)


class SGD(_Optimizer):
    """v <- momentum*v + grad (decay included); param <- param - lr*lr_factor*v."""

    def __init__(self, groups, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(groups, lr, weight_decay)
        self.momentum = momentum
        self._velocity = [np.zeros_like(g.param) for g in self.groups]

    def _update(self, i, grad, scale):
        v = self._velocity[i]
        v *= self.momentum
        v += grad
        return scale * v


class Adam(_Optimizer):
    """Bias-corrected Adam (Kingma & Ba 2015)."""

    eps = 1e-8

    def __init__(self, groups, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 weight_decay: float = 0.0):
        super().__init__(groups, lr, weight_decay)
        self.beta1 = beta1
        self.beta2 = beta2
        self._m = [np.zeros_like(g.param) for g in self.groups]
        self._v = [np.zeros_like(g.param) for g in self.groups]
        self._t = 0  # steps taken; every group steps together

    def step(self, lr: float | None = None) -> None:
        self._t += 1
        super().step(lr)

    def _update(self, i, grad, scale):
        m, v = self._m[i], self._v[i]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * np.square(grad)
        m_hat = m / (1.0 - self.beta1**self._t)
        v_hat = v / (1.0 - self.beta2**self._t)
        return scale * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(kind: str, groups, lr: float, momentum: float = 0.9,
                   beta1: float = 0.9, beta2: float = 0.999, weight_decay: float = 0.0):
    if kind == "sgd":
        return SGD(groups, lr=lr, momentum=momentum, weight_decay=weight_decay)
    if kind == "adam":
        return Adam(groups, lr=lr, beta1=beta1, beta2=beta2, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer {kind!r}")
