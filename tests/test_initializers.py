import math

import numpy as np
import pytest

from perceptpool import initializers as init
from perceptpool.pooling import PerceptronPool


def bound(fan_in, fan_out):
    return math.sqrt(6.0 / (fan_in + fan_out))


class TestGlorot:
    def test_bound_arithmetic(self):
        rng = np.random.default_rng(0)
        samples = init.glorot_uniform(rng, (1000,), fan_in=3, fan_out=3)
        assert bound(3, 3) == 1.0
        assert np.all(samples >= -1.0) and np.all(samples <= 1.0)

    def test_invalid_fans(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init.glorot_uniform(rng, (4,), fan_in=24, fan_out=0)

    def test_sample_mean_near_zero(self):
        rng = np.random.default_rng(42)
        samples = init.glorot_uniform(rng, (100_000,), fan_in=9, fan_out=16)
        assert abs(samples.mean()) < 0.01 * bound(9, 16)


class TestAverageInit:
    def test_2x2_window(self):
        layer = PerceptronPool(2, 2, dtype=np.float64, init="average")
        layer.bind(1, 4, 4)
        assert np.all(layer.weights == 0.25)
        assert np.all(layer.bias == 0.0)

    def test_gap_window(self):
        layer = PerceptronPool(8, 8, dtype=np.float64, init="average")
        layer.bind(1, 8, 8)
        np.testing.assert_allclose(layer.weights, 1.0 / 64)

    def test_forward_equals_average_pooling(self):
        from perceptpool.layers import FixedPool
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (2, 3, 8, 8))
        layer = PerceptronPool(2, 2, dtype=np.float64, init="average")
        np.testing.assert_allclose(layer.forward(x), FixedPool("average", 2, 2).forward(x),
                                   atol=1e-12, rtol=0)


class TestSignPatterns:
    def test_all_same_positive(self):
        grid = np.ones((2, 2), dtype=np.int8)
        assert init.classify_sign_pattern(grid) == "all_same"

    def test_y_split_rows(self):
        grid = np.array([[1, 1], [-1, -1]], dtype=np.int8)
        assert init.classify_sign_pattern(grid) == "y_split"

    def test_x_split_cols(self):
        grid = np.array([[-1, 1], [-1, 1]], dtype=np.int8)
        assert init.classify_sign_pattern(grid) == "x_split"

    def test_diagonal(self):
        grid = np.array([[-1, 1], [1, -1]], dtype=np.int8)
        assert init.classify_sign_pattern(grid) == "diagonal"

    def test_unstructured_is_none(self):
        grid = np.array([[1, 1, 1], [1, -1, 1], [1, 1, 1]], dtype=np.int8)
        assert init.classify_sign_pattern(grid) is None

    def test_generated_patterns_always_classify(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            pat = init.random_sign_pattern(rng, 2, 2)
            assert init.classify_sign_pattern(pat.signs) == pat.kind
        for _ in range(200):
            pat = init.random_sign_pattern(rng, 4, 4)
            assert init.classify_sign_pattern(pat.signs) == pat.kind

    def test_transforms_stay_in_the_four_classes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pat = init.random_sign_pattern(rng, 3, 3)
            for grid in init.pattern_orbit(pat.signs):
                assert init.classify_sign_pattern(grid) is not None

    def test_1x1_window_is_all_same(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert init.random_sign_pattern(rng, 1, 1).kind == "all_same"


class TestPatternInit:
    def test_signs_and_magnitudes(self):
        layer = PerceptronPool(2, 2, dtype=np.float64, init="pattern",
                               rng=np.random.default_rng(0))
        layer.bind(1, 4, 4)
        w = layer.weights[0, 0]
        assert init.classify_sign_pattern(np.sign(w).astype(np.int8)) is not None
        assert np.all(np.abs(w) > 0.0) and np.all(np.abs(w) <= 2.0 / 4)
        assert np.all(layer.bias == 0.0)

    def test_single_unit_takes_each_base_pattern_as_drawn(self):
        # one unit per instance: a base pattern, then its magnitudes, per instance
        layer = PerceptronPool(window=(2, 3), stride=1, sharing="per_field", dtype=np.float64,
                               init="pattern", rng=np.random.default_rng(4))
        layer.bind(1, 4, 5)
        rng = np.random.default_rng(4)
        for w in layer.weights[:, 0]:
            signs = init.random_sign_pattern(rng, 2, 3).signs
            assert np.array_equal(w, signs * init._pattern_magnitudes(rng, 2, 3))

    def test_output_magnitude_bounded_on_unit_input(self):
        # |sum of weights| <= window * max magnitude = W*H * 2/(W*H) = 2
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10_000):
            pat = init.random_sign_pattern(rng, 2, 2)
            w = pat.signs * (2.0 / 4) * (1.0 - rng.random((2, 2)))
            worst = max(worst, abs(w.sum()))
        assert worst <= 2.0

    def test_multi_four_distinct_grids(self):
        layer = PerceptronPool(2, 2, units=4, dtype=np.float64, init="pattern",
                               rng=np.random.default_rng(1))
        layer.bind(1, 8, 8)
        grids = {np.sign(layer.weights[0, k]).astype(np.int8).tobytes() for k in range(4)}
        assert len(grids) == 4

    def test_multi_mirror_pair(self):
        rng = np.random.default_rng(21)
        base = init.random_sign_pattern(rng, 2, 3)
        orbit = init.pattern_orbit(base.signs)
        assert any(np.array_equal(g, np.fliplr(base.signs)) for g in orbit)

    def test_sixteen_units_use_every_reachable_grid(self):
        # a 2x2 window admits exactly 8 structured sign grids (4 splits, 2
        # diagonals, 2 uniform), so 16 units must span several base patterns
        # and exhaust the full set before any repeat
        layer = PerceptronPool(2, 2, units=16, dtype=np.float64, init="pattern",
                               rng=np.random.default_rng(5))
        layer.bind(1, 8, 8)
        grids = [np.sign(layer.weights[0, k]).astype(np.int8).tobytes() for k in range(16)]
        assert len(set(grids)) == 8
        assert len(set(grids[:8])) == 8  # no repeat while unused grids remained

    def test_unavoidable_repeats_still_terminate(self):
        layer = PerceptronPool(1, 1, units=4, dtype=np.float64, init="pattern",
                               rng=np.random.default_rng(3))
        layer.bind(1, 4, 4)
        assert np.all(np.abs(layer.weights) > 0)

    def test_deterministic_in_seed(self):
        def build():
            layer = PerceptronPool(2, 2, units=4, dtype=np.float64, init="pattern",
                                   rng=np.random.default_rng(123))
            layer.bind(1, 8, 8)
            return layer.weights.copy()

        assert np.array_equal(build(), build())
