"""Parameter initialization.

Standard layers use Glorot-uniform. Pooling perceptrons additionally
support two schemes: "average" starts every perceptron exactly at average
pooling (weights 1/(W*H), bias 0), and "pattern" draws random magnitudes
whose signs follow one of four structured layouts (all one sign, negative
diagonal, or a single sign transition along the x or y axis). Layers with
several perceptrons get rotated/mirrored copies of a base pattern so no
two units start identical while distinct transforms remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PATTERN_CLASSES = ("all_same", "diagonal", "x_split", "y_split")


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype=np.float64):
    """Uniform samples in +-sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got fan_in={fan_in}, fan_out={fan_out}")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# Sign patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignPattern:
    signs: np.ndarray  # (window_h, window_w) of +-1
    kind: str

    def __post_init__(self):
        if self.kind not in PATTERN_CLASSES:
            raise ValueError(f"unknown pattern class {self.kind!r}")


def random_sign_pattern(rng: np.random.Generator, window_h: int, window_w: int) -> SignPattern:
    """Draw one of the four sign layouts; degenerate classes are skipped
    for windows too small to express them (e.g. a 1x1 window is always
    all_same)."""
    classes = ["all_same"]
    if window_w >= 2:
        classes.append("x_split")
    if window_h >= 2:
        classes.append("y_split")
    if window_h >= 2 and window_w >= 2:
        classes.append("diagonal")
    kind = classes[int(rng.integers(len(classes)))]
    sign = 1 if rng.integers(2) == 0 else -1
    grid = np.full((window_h, window_w), sign, dtype=np.int8)
    if kind == "diagonal":
        for i in range(min(window_h, window_w)):
            grid[i, i] = -sign
    elif kind == "x_split":
        t = int(rng.integers(1, window_w))
        grid[:, t:] = -sign
    elif kind == "y_split":
        t = int(rng.integers(1, window_h))
        grid[t:, :] = -sign
    return SignPattern(signs=grid, kind=kind)


def classify_sign_pattern(grid: np.ndarray) -> str | None:
    """Return the class a sign grid belongs to, or None if unstructured."""
    g = np.asarray(grid)
    h, w = g.shape
    if np.all(g == g.flat[0]):
        return "all_same"
    cols_const = np.all(g == g[0:1, :])
    if cols_const:
        changes = int(np.sum(g[0, 1:] != g[0, :-1]))
        if changes == 1:
            return "x_split"
    rows_const = np.all(g == g[:, 0:1])
    if rows_const:
        changes = int(np.sum(g[1:, 0] != g[:-1, 0]))
        if changes == 1:
            return "y_split"
    for cand in (g, np.fliplr(g)):
        diag = np.full((h, w), cand[0, -1] if w > 1 else cand[0, 0], dtype=np.int8)
        for i in range(min(h, w)):
            diag[i, i] = -diag[i, i]
        if np.array_equal(cand, diag) or np.array_equal(cand, -diag):
            return "diagonal"
    return None


def pattern_orbit(grid: np.ndarray) -> list[np.ndarray]:
    """Distinct rotations and mirrors of a sign grid (up to 8 for square
    windows, 4 shape-preserving transforms otherwise)."""
    h, w = grid.shape
    if h == w:
        candidates = [np.rot90(grid, k) for k in range(4)]
        candidates += [np.rot90(np.fliplr(grid), k) for k in range(4)]
    else:
        candidates = [grid, grid[::-1, ::-1], np.fliplr(grid), np.flipud(grid)]
    out, seen = [], set()
    for c in candidates:
        key = np.ascontiguousarray(c).tobytes()
        if key not in seen:
            seen.add(key)
            out.append(np.ascontiguousarray(c))
    return out


def _pattern_magnitudes(rng, window_h, window_w):
    # Uniform in (0, 2/(W*H)] so the average-init value 1/(W*H) is the midpoint.
    hi = 2.0 / (window_h * window_w)
    return hi * (1.0 - rng.random(size=(window_h, window_w)))


# ---------------------------------------------------------------------------
# Pooling-perceptron initializers (duck-typed on bound pooling layers)
# ---------------------------------------------------------------------------

def average_init(layer) -> None:
    """Every weight 1/(W*H), bias 0: forward starts as exact average pooling."""
    wh, ww = layer.window
    layer.weights[...] = 1.0 / (wh * ww)
    if layer.bias is not None:
        layer.bias[...] = 0.0


def pattern_init_multi(layer, rng: np.random.Generator) -> None:
    """Sign-pattern init for the perceptrons of one layer.

    A base pattern's rotations/mirrors are handed to successive units; when
    the (at most 8) distinct transforms run out a fresh base pattern is
    drawn. Repeats are only allowed once the window admits no unused grid.
    A single unit gets its base pattern as drawn.
    """
    wh, ww = layer.window
    for u in range(layer.weights.shape[0]):
        seen: set[bytes] = set()
        assigned: list[np.ndarray] = []
        filled = 0
        stale = 0
        while filled < layer.units and stale < 64:
            base = random_sign_pattern(rng, wh, ww)
            fresh = [g for g in pattern_orbit(base.signs) if g.tobytes() not in seen]
            if not fresh:
                stale += 1
                continue
            stale = 0
            for grid in fresh:
                if filled >= layer.units:
                    break
                seen.add(grid.tobytes())
                assigned.append(grid)
                layer.weights[u, filled] = grid * _pattern_magnitudes(rng, wh, ww)
                filled += 1
        # Small windows exhaust the reachable sign grids; repeats are then
        # unavoidable and cycle the distinct grids with fresh magnitudes.
        i = 0
        while filled < layer.units:
            layer.weights[u, filled] = assigned[i % len(assigned)] * _pattern_magnitudes(rng, wh, ww)
            filled += 1
            i += 1
    if layer.bias is not None:
        layer.bias[...] = 0.0


def apply_pool_init(layer, scheme: str, rng: np.random.Generator | None) -> None:
    """Dispatch on the config key init = glorot | average | pattern."""
    if scheme == "average":
        average_init(layer)
        return
    if rng is None:
        raise ValueError(f"init scheme {scheme!r} needs an rng")
    if scheme == "pattern":
        pattern_init_multi(layer, rng)
    elif scheme == "glorot":
        wh, ww = layer.window
        layer.weights[...] = glorot_uniform(
            rng, layer.weights.shape, fan_in=wh * ww, fan_out=1, dtype=layer.weights.dtype
        )
        if layer.bias is not None:
            layer.bias[...] = 0.0
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
