"""Finite-difference differentiation for verifying hand-written backwards.

The probe builds a scalar loss sum(forward(x) * R) with a fixed random
projection R, computes analytic gradients through the layer's own backward
pass, then recomputes every coordinate with central differences in float64.
Relative error uses |a - n| / max(|a|, |n|, 1e-8) so near-zero gradients do
not blow up the ratio. Kinks (ReLU, max pooling) are found from the forward
alone: each probe also evaluates f(p) and keeps its bend, |f(p + h) - 2f(p)
+ f(p - h)| / 2h, which for a piecewise-linear f equals the central
difference's error and is 0 away from a kink. The checker draws a new input
while any coordinate bends by more than a tenth of the tolerance, relative
to its group's largest gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_REL_FLOOR = 1e-8
_BEND_SHARE = 0.1
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
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def format(self) -> str:
        lines = [f"{'group':<24} {'max_rel_err':>12} {'max_abs_err':>12} {'worst_index':>12}"]
        for g in self.groups:
            lines.append(f"{g.name:<24} {g.max_rel_err:>12.3e} {g.max_abs_err:>12.3e} {g.worst_index:>12}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict}: max relative error {self.max_rel_err:.3e} vs tolerance {self.tolerance:g}")
        return "\n".join(lines)


def _probe(f, params: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(central difference (f(p + h*e_i) - f(p - h*e_i)) / 2h, bend
    |f(p + h*e_i) - 2f(p) + f(p - h*e_i)| / 2h) per coordinate of `params`.
    `f` is a zero-argument callable reading `params` by reference; each
    coordinate is perturbed in place and restored."""
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    flat = params.reshape(-1)
    grad = np.empty(flat.shape, dtype=np.float64)
    bend = np.empty(flat.shape, dtype=np.float64)
    f0 = f()
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
        bend[i] = abs(fp - 2.0 * f0 + fm) / (2.0 * h)
    return grad.reshape(params.shape), bend


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

    out = layer.forward(x)  # bind any shape-dependent parameters first
    for g in layer.param_groups():
        g.param[...] = rng.uniform(-1.0, 1.0, size=g.param.shape)
    projection = rng.standard_normal(out.shape)

    def loss() -> float:
        value = float(np.sum(layer.forward(x) * projection))
        if not np.isfinite(value):
            raise FloatingPointError("layer produced a non-finite evaluation")
        return value

    for _ in range(_MAX_RESAMPLE):
        layer.forward(x)
        layer.zero_grad()
        analytic = [("input", layer.backward(projection.copy()))]
        analytic += [(g.name, g.grad.copy()) for g in layer.param_groups()]
        probes = [_probe(loss, x, h)] + [_probe(loss, g.param, h) for g in layer.param_groups()]
        if all(np.all(bend <= _BEND_SHARE * tolerance * np.max(np.abs(numeric), initial=_REL_FLOOR))
               for numeric, bend in probes):
            return GradReport(tolerance=tolerance, groups=[
                _compare(a, numeric, name) for (name, a), (numeric, _) in zip(analytic, probes)])
        x = rng.uniform(-1.0, 1.0, size=input_shape)
    raise RuntimeError(f"every one of {_MAX_RESAMPLE} inputs put a kink within h of a probe")
