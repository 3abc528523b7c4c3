"""Finite-difference differentiation for verifying hand-written backwards.

The probe builds a scalar loss sum(forward(x) * R) with a fixed random
projection R, computes analytic gradients through the layer's own backward
pass, then recomputes every coordinate with central differences in float64.
Relative error uses |a - n| / max(|a|, |n|, 1e-8) so near-zero gradients do
not blow up the ratio. Layers with kinks (ReLU, max pooling) report how
close the last forward came to a nondifferentiable point and the checker
resamples its input until all units are clear of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_REL_FLOOR = 1e-8
_KINK_CLEARANCE = 1e-3
_MAX_RESAMPLE = 50


@dataclass
class GroupReport:
    name: str
    max_rel_err: float
    max_abs_err: float
    worst_index: int


@dataclass
class GradReport:
    tolerance: float
    groups: list[GroupReport]

    @property
    def max_rel_err(self) -> float:
        return max(g.max_rel_err for g in self.groups)

    @property
    def max_abs_err(self) -> float:
        return max(g.max_abs_err for g in self.groups)

    @property
    def worst(self) -> GroupReport:
        return max(self.groups, key=lambda g: g.max_rel_err)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def format(self) -> str:
        lines = [f"{'group':<24} {'max_rel_err':>12} {'max_abs_err':>12} {'worst_index':>12}"]
        for g in self.groups:
            lines.append(f"{g.name:<24} {g.max_rel_err:>12.3e} {g.max_abs_err:>12.3e} {g.worst_index:>12}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict}: max relative error {self.max_rel_err:.3e} vs tolerance {self.tolerance:g}")
        return "\n".join(lines)


def fd_gradient(f, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences (f(p + h*e_i) - f(p - h*e_i)) / 2h per coordinate.

    `f` is a zero-argument callable reading `params` by reference; the array
    is perturbed in place and restored.
    """
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    flat = params.reshape(-1)
    grad = np.empty(flat.shape, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite evaluation while probing coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(params.shape)


def _compare(analytic: np.ndarray, numeric: np.ndarray, name: str) -> GroupReport:
    a = analytic.reshape(-1).astype(np.float64)
    n = numeric.reshape(-1)
    abs_err = np.abs(a - n)
    rel = abs_err / np.maximum(np.maximum(np.abs(a), np.abs(n)), _REL_FLOOR)
    worst = int(rel.argmax()) if rel.size else 0
    return GroupReport(name=name,
                       max_rel_err=float(rel[worst]) if rel.size else 0.0,
                       max_abs_err=float(abs_err.max()) if abs_err.size else 0.0,
                       worst_index=worst)


def check_layer(layer, input_shape, seed: int = 0, tolerance: float = 1e-4,
                h: float = 1e-5) -> GradReport:
    """Verify a layer's input and parameter gradients against central
    differences on float64 inputs. The layer must be built in float64.

    Parameters are overwritten with uniform random values drawn from `seed`
    so the check never runs at a degenerate point (e.g. all-zero weights).
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=input_shape)

    layer.forward(x)  # bind any shape-dependent parameters first
    for g in layer.param_groups():
        g.param[...] = rng.uniform(-1.0, 1.0, size=g.param.shape)

    for _ in range(_MAX_RESAMPLE):
        out = layer.forward(x)
        margin = layer.kink_margin()
        if margin is None or margin > _KINK_CLEARANCE:
            break
        x = rng.uniform(-1.0, 1.0, size=input_shape)
    else:
        raise RuntimeError("could not sample an input clear of activation kinks")

    projection = rng.standard_normal(out.shape)

    def loss() -> float:
        value = float(np.sum(layer.forward(x) * projection))
        if not np.isfinite(value):
            raise FloatingPointError("layer produced a non-finite evaluation")
        return value

    layer.forward(x)
    layer.zero_grad()
    analytic_in = layer.backward(projection.copy())
    analytic_params = [(g.name, g.grad.copy()) for g in layer.param_groups()]

    reports = [_compare(analytic_in, fd_gradient(loss, x, h), "input")]
    for (name, analytic), group in zip(analytic_params, layer.param_groups()):
        reports.append(_compare(analytic, fd_gradient(loss, group.param, h), name))
    return GradReport(tolerance=tolerance, groups=reports)
