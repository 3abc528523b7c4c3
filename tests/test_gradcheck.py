import re

import numpy as np
import pytest

from perceptpool.cli import build_check_layer
from perceptpool.config import POOLING_KINDS
from perceptpool.gradcheck import _MAX_RESAMPLE, _probe, check_layer
from perceptpool.layers import Dense, FixedPool, Layer, ReLU
from perceptpool.pooling import PerceptronPool


class TestFdGradient:
    def test_quadratic(self):
        theta = np.array([3.0])
        grad = _probe(lambda: theta[0] ** 2, theta, 1e-5)[0]
        assert grad[0] == pytest.approx(6.0, abs=1e-9)

    def test_constant_function_is_zero(self):
        theta = np.ones(5)
        grad = _probe(lambda: 42.0, theta, 1e-5)[0]
        np.testing.assert_array_equal(grad, 0.0)

    def test_restores_params(self):
        theta = np.array([1.0, 2.0, 3.0])
        _probe(lambda: float(np.sum(theta**2)), theta, 1e-5)
        np.testing.assert_array_equal(theta, [1.0, 2.0, 3.0])

    def test_nonfinite_evaluation_raises(self):
        theta = np.array([0.0])
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(FloatingPointError):
                _probe(lambda: float(np.log(theta[0])), theta, 1e-5)

    def test_bend_is_the_error_of_a_probe_across_a_kink(self):
        # f(x) = |x - d| with its kink inside the probe at 0: slope -1 at 0
        h, d = 1e-5, 3e-6
        theta = np.array([0.0])
        grad, bend = _probe(lambda: abs(theta[0] - d), theta, h)
        assert bend[0] == pytest.approx(abs(grad[0] - (-1.0)), rel=1e-9)
        assert bend[0] == pytest.approx((h - d) / h, rel=1e-9)

    def test_bend_is_zero_away_from_a_kink(self):
        theta = np.array([0.5])
        _, bend = _probe(lambda: abs(theta[0] - 0.1), theta, 1e-5)
        assert bend[0] < 1e-10

    def test_perceptron_pool_with_l2_loss(self):
        rng = np.random.default_rng(0)
        pool = PerceptronPool(2, 2, dtype=np.float64)
        pool.bind(2, 4, 4)
        pool.weights[...] = rng.normal(size=pool.weights.shape)
        pool.bias[...] = rng.normal(size=pool.bias.shape)
        x = rng.normal(size=(1, 2, 4, 4))
        target = rng.normal(size=(1, 2, 2, 2))

        def loss():
            return float(0.5 * np.sum((pool.forward(x) - target) ** 2))

        pool.zero_grad()
        out = pool.forward(x)
        analytic_in = pool.backward(out - target)
        np.testing.assert_allclose(analytic_in, _probe(loss, x, 1e-5)[0], rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(pool.weights_grad, _probe(loss, pool.weights, 1e-5)[0],
                                   rtol=1e-4, atol=1e-8)


class TestCheckLayer:
    def test_oracle_validated_on_exact_linear_layers(self):
        # closed-form-linear layers must pass at a much tighter tolerance
        # before the oracle is trusted on anything learned
        report = check_layer(FixedPool("average", 2, 2), (2, 2, 6, 6), seed=0, tolerance=1e-8)
        assert report.passed, report.format()
        report = check_layer(Dense(6, 3, dtype=np.float64), (4, 6), seed=0, tolerance=1e-8)
        assert report.passed, report.format()

    def test_perceptron_pool_four_units(self):
        report = check_layer(PerceptronPool(2, 2, units=4, dtype=np.float64),
                             (2, 2, 6, 6), seed=1, tolerance=1e-4)
        assert report.passed

    def test_reports_are_deterministic(self):
        def run():
            rep = check_layer(PerceptronPool(2, 2, dtype=np.float64), (1, 2, 4, 4), seed=5)
            return [(g.max_rel_err, g.max_abs_err, g.worst_index) for g in rep.groups]

        assert run() == run()

    def test_corrupted_backward_caught_with_group_named(self):
        class BadDense(Dense):
            def backward(self, grad_out):
                gin = super().backward(grad_out)
                self.weights_grad *= 2.0
                return gin

        report = check_layer(BadDense(4, 3, dtype=np.float64), (3, 4), seed=2, tolerance=1e-4)
        assert not report.passed
        assert max(report.groups, key=lambda g: g.max_rel_err).name == "fc.weight"

    def test_relu_inputs_resampled_away_from_kink(self):
        report = check_layer(ReLU(), (2, 3, 4, 4), seed=3, tolerance=1e-6)
        assert report.passed

    def test_report_format_mentions_verdict(self):
        report = check_layer(Dense(3, 2, dtype=np.float64), (2, 3), seed=4)
        assert "PASS" in report.format()


class _Elementwise(Layer):
    """y = fn(x) elementwise with backward grad_out * dfn(x); no parameters."""

    def __init__(self, fn, dfn):
        self.fn, self.dfn = fn, dfn

    def _forward(self, x, train):
        return self.fn(x), x

    def _backward(self, grad_out, x):
        return grad_out * self.dfn(x)


class TestKinks:
    def test_undeclared_kink_near_first_sample_is_resampled(self):
        # the kink sits 3e-6 from the input check_layer draws first, so a
        # probe there is off by 70%; the checker must find it and move on
        shape, seed = (2, 3), 0
        c = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape).flat[0] + 3e-6
        layer = _Elementwise(lambda x: np.abs(x - c), lambda x: np.sign(x - c))
        report = check_layer(layer, shape, seed=seed, tolerance=1e-4)
        assert report.passed, report.format()
        assert report.max_rel_err < 1e-8

    def test_wrong_relu_backward_fails(self):
        class LeakyBackward(ReLU):
            def _backward(self, grad_out, y):
                return grad_out * np.where(y > 0, 1.0, 0.5)

        report = check_layer(LeakyBackward(), (2, 3, 4, 4), seed=3, tolerance=1e-4)
        assert not report.passed

    def test_wrong_max_pool_backward_fails(self):
        class DoubledBackward(FixedPool):
            def _backward(self, grad_out, saved):
                return 2.0 * super()._backward(grad_out, saved)

        report = check_layer(DoubledBackward("max", 2, 2), (2, 2, 6, 6), seed=1, tolerance=1e-4)
        assert not report.passed

    def test_kink_inside_every_probe_raises(self):
        # |sin(3e5 x)| bends every ~1.05e-5, so every probe of width 2h meets a kink
        layer = _Elementwise(lambda x: np.abs(np.sin(3e5 * x)),
                             lambda x: 3e5 * np.cos(3e5 * x) * np.sign(np.sin(3e5 * x)))
        with pytest.raises(RuntimeError, match=str(_MAX_RESAMPLE)):
            check_layer(layer, (1, 2), seed=0)


@pytest.mark.parametrize("kind", [k for k, built in POOLING_KINDS.items() if built is not None])
def test_every_relu_pooling_kind_passes(kind):
    """Every learnable pooling kind with ReLU units, so a new kind's kinks go
    through the bend check too (the baselines reject pooling.activation)."""
    for seed in range(4):
        layer, shape = build_check_layer(f"{kind}:activation=relu")
        report = check_layer(layer, shape, seed=seed, tolerance=1e-4)
        assert report.passed, f"{kind} seed {seed}:\n{report.format()}"


class _NonFinite(Layer):
    """Its output is NaN everywhere: every loss evaluation is non-finite."""
    name = "nan"

    def _forward(self, x, train):
        return np.full_like(x, np.nan), None

    def _backward(self, grad_out, saved):
        return grad_out


@pytest.mark.parametrize("call, error, message", [
    (lambda: _probe(lambda: 0.0, np.zeros(2), 0.0), ValueError, "h must be > 0, got 0.0"),
    (lambda: check_layer(_NonFinite(), (2, 3)), FloatingPointError,
     "layer produced a non-finite evaluation"),
], ids=["h-not-positive", "non-finite-output"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        call()
