"""SGD-with-momentum and Adam over parameter groups.

Each group carries its own learning-rate and weight-decay multipliers so
pooling perceptrons can train at a reduced rate (0.1x by default) and with
decay disabled, while the rest of the model uses the globals. Decay is coupled: it is added to
the gradient before the momentum/moment updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


class SGD:
    """v <- momentum*v + grad + wd_factor*weight_decay*param;
    param <- param - lr*lr_factor*v."""

    def __init__(self, groups, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        self.groups = list(groups)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(g.param) for g in self.groups]

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        for g, v in zip(self.groups, self._velocity):
            gr = g.grad
            if self.weight_decay != 0.0 and g.wd_factor != 0.0:
                gr = gr + (g.wd_factor * self.weight_decay) * g.param
            v *= self.momentum
            v += gr
            np.subtract(g.param, (lr * g.lr_factor) * v, out=g.param)


class Adam:
    """Bias-corrected Adam; decay is added to the gradient scaled by the
    group's wd_factor before the moment updates."""

    def __init__(self, groups, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.groups = list(groups)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(g.param) for g in self.groups]
        self._v = [np.zeros_like(g.param) for g in self.groups]
        self._t = 0  # steps taken; every group steps together

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self._t += 1
        for i, g in enumerate(self.groups):
            gr = g.grad
            if self.weight_decay != 0.0 and g.wd_factor != 0.0:
                gr = gr + (g.wd_factor * self.weight_decay) * g.param
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * gr
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(gr)
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            np.subtract(g.param, (lr * g.lr_factor) * m_hat / (np.sqrt(v_hat) + self.eps),
                        out=g.param)


def make_optimizer(kind: str, groups, lr: float, momentum: float = 0.9,
                   beta1: float = 0.9, beta2: float = 0.999, weight_decay: float = 0.0):
    if kind == "sgd":
        return SGD(groups, lr=lr, momentum=momentum, weight_decay=weight_decay)
    if kind == "adam":
        return Adam(groups, lr=lr, beta1=beta1, beta2=beta2, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer {kind!r}")


@dataclass(frozen=True)
class StepSchedule:
    """base_lr scaled by decay_factor once per decay epoch reached."""

    base_lr: float
    decay_factor: float = 0.1
    decay_epochs: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (0.0 < self.decay_factor <= 1.0):
            raise ValueError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        epochs = tuple(self.decay_epochs)
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise ValueError(f"decay epochs must be strictly increasing, got {epochs}")
        object.__setattr__(self, "decay_epochs", epochs)

    def lr_at(self, epoch: int) -> float:
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        n = sum(1 for e in self.decay_epochs if e <= epoch)
        return self.base_lr * self.decay_factor**n
