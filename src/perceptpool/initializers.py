"""Parameter initialization.

Standard layers use Glorot-uniform. Pooling perceptrons additionally
support two schemes: "average" starts every perceptron exactly at average
pooling (weights 1/(W*H)), and "pattern" draws random magnitudes whose
signs follow one of four structured layouts (all one sign, negative
diagonal, or a single sign transition along the x or y axis). Layers with
several perceptrons get rotated/mirrored copies of a base pattern so no
two units start identical while distinct transforms remain. Every scheme
writes weights only: `PerceptronPool.bind` allocates the bias at zero.
"""

from __future__ import annotations

import math

import numpy as np


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype=np.float64):
    """Uniform samples in +-sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got fan_in={fan_in}, fan_out={fan_out}")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# Sign patterns
# ---------------------------------------------------------------------------

def random_sign_pattern(rng: np.random.Generator, window_h: int, window_w: int) -> np.ndarray:
    """Draw one of the four sign layouts as an int8 grid of +-1; degenerate
    classes are skipped for windows too small to express them (e.g. a 1x1
    window is always all_same)."""
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
        np.fill_diagonal(grid, -sign)
    elif kind == "x_split":
        t = int(rng.integers(1, window_w))
        grid[:, t:] = -sign
    elif kind == "y_split":
        t = int(rng.integers(1, window_h))
        grid[t:, :] = -sign
    return grid


def pattern_orbit(grid: np.ndarray) -> list[np.ndarray]:
    """Distinct rotations and mirrors of a sign grid (up to 8 for square
    windows, 4 shape-preserving transforms otherwise)."""
    h, w = grid.shape
    if h == w:
        candidates = [np.rot90(grid, k) for k in range(4)]
        candidates += [np.rot90(np.fliplr(grid), k) for k in range(4)]
    else:
        candidates = [grid, grid[::-1, ::-1], np.fliplr(grid), np.flipud(grid)]
    keys = [c.tobytes() for c in candidates]
    return [c for i, c in enumerate(candidates) if keys[i] not in keys[:i]]


def _pattern_magnitudes(rng, window_h, window_w):
    # Uniform in (0, 2/(W*H)] so the average-init value 1/(W*H) is the midpoint.
    hi = 2.0 / (window_h * window_w)
    return hi * (1.0 - rng.random(size=(window_h, window_w)))


# ---------------------------------------------------------------------------
# Pooling-perceptron initializers (duck-typed on bound pooling layers)
# ---------------------------------------------------------------------------

def pattern_init_multi(layer, rng: np.random.Generator) -> None:
    """Sign-pattern init for the perceptrons of one layer.

    A base pattern's rotations/mirrors are handed to successive units; when
    the (at most 8) distinct transforms run out a fresh base pattern is
    drawn. Repeats are only allowed once 64 draws in a row bring no unused
    grid. A single unit gets its base pattern as drawn.
    """
    wh, ww = layer.window
    for weights in layer.weights:
        placed, stale = [], 0
        while len(placed) < layer.units:
            if stale < 64:
                drawn = random_sign_pattern(rng, wh, ww)
                orbit = [drawn] if layer.units == 1 else pattern_orbit(drawn)  # drawn is its first
                new = [g for g in orbit if not any(np.array_equal(g, p) for p in placed)]
                stale = 0 if new else stale + 1
            else:
                # Small windows exhaust the reachable sign grids; repeats are then
                # unavoidable and cycle the distinct grids with fresh magnitudes.
                new = placed
            for grid in new[: layer.units - len(placed)]:
                weights[len(placed)] = grid * _pattern_magnitudes(rng, wh, ww)
                placed.append(grid)


def apply_pool_init(layer, scheme: str, rng: np.random.Generator | None) -> None:
    """Dispatch on the config key init = glorot | average | pattern."""
    wh, ww = layer.window
    if scheme == "average":
        # Forward starts as exact average pooling.
        layer.weights[...] = 1.0 / (wh * ww)
    elif rng is None:
        raise ValueError(f"init scheme {scheme!r} needs an rng")
    elif scheme == "pattern":
        pattern_init_multi(layer, rng)
    elif scheme == "glorot":
        layer.weights[...] = glorot_uniform(
            rng, layer.weights.shape, fan_in=wh * ww, fan_out=1, dtype=layer.weights.dtype
        )
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
