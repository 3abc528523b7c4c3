import dataclasses
import re

import numpy as np
import pytest

from perceptpool.config import TrainConfig
from perceptpool.optim import Adam, ParamGroup, SGD, make_optimizer

from oracles import adam_scalar_reference


def make_group(value=1.0, grad=0.0, n=4, lr_factor=1.0, wd_factor=1.0):
    p = np.full(n, value, dtype=np.float64)
    g = np.full(n, grad, dtype=np.float64)
    return ParamGroup("w", p, g, lr_factor=lr_factor, wd_factor=wd_factor)


class TestParamGroup:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParamGroup("w", np.zeros(3), np.zeros(4))

    def test_negative_factors_rejected(self):
        with pytest.raises(ValueError):
            ParamGroup("w", np.zeros(2), np.zeros(2), lr_factor=-0.1)

    def test_checked_arrays_cannot_be_swapped(self):
        group = ParamGroup("w", np.zeros(2), np.zeros(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            group.grad = np.zeros(3)


class TestSGD:
    def test_plain_gradient_descent(self):
        group = make_group(value=5.0, grad=2.0)
        SGD([group], lr=1.0, momentum=0.0).step()
        np.testing.assert_array_equal(group.param, 3.0)

    def test_lr_factor_scales_step_linearly(self):
        full = make_group(value=1.0, grad=0.5, lr_factor=1.0)
        tenth = make_group(value=1.0, grad=0.5, lr_factor=0.1)
        SGD([full], lr=1.0).step()
        SGD([tenth], lr=1.0).step()
        np.testing.assert_allclose(1.0 - tenth.param, 0.1 * (1.0 - full.param), atol=1e-15)

    def test_two_momentum_steps_displace_2_9_g(self):
        g = 0.37
        group = make_group(value=0.0, grad=g)
        opt = SGD([group], lr=1.0, momentum=0.9)
        opt.step()
        opt.step()
        # v1 = g, v2 = 0.9 g + g; total displacement g + 1.9 g
        np.testing.assert_allclose(-group.param, 2.9 * g, atol=1e-15)

    def test_weight_decay_couples_through_wd_factor(self):
        decayed = make_group(value=2.0, grad=0.0, wd_factor=1.0)
        frozen = make_group(value=2.0, grad=0.0, wd_factor=0.0)
        SGD([decayed, frozen], lr=0.1, weight_decay=0.5).step()
        assert np.all(decayed.param < 2.0)
        np.testing.assert_array_equal(frozen.param, 2.0)

    def test_zero_lr_factor_freezes_exactly(self):
        group = make_group(value=1.5, grad=3.0, lr_factor=0.0)
        opt = SGD([group], lr=1.0, momentum=0.9, weight_decay=0.1)
        before = group.param.copy()
        for _ in range(5):
            opt.step()
        assert group.param.tobytes() == before.tobytes()


class TestAdam:
    def test_first_step_magnitude_is_about_lr(self):
        for g in (1e-4, 0.3, 50.0):
            group = make_group(value=0.0, grad=g)
            Adam([group], lr=0.01).step()
            np.testing.assert_allclose(-group.param, 0.01, rtol=1e-3)

    def test_zero_grad_zero_state_no_change(self):
        group = make_group(value=1.25, grad=0.0)
        Adam([group], lr=0.1).step()
        np.testing.assert_array_equal(group.param, 1.25)

    def test_100_step_quadratic_matches_scalar_recursion(self):
        # minimize f(x) = 0.5 * 3 (x - 2)^2 from x0 = -1
        lr, b1, b2 = 0.05, 0.9, 0.999
        theta = np.array([-1.0])
        grad = np.zeros(1)
        group = ParamGroup("x", theta, grad)
        opt = Adam([group], lr=lr, beta1=b1, beta2=b2)
        ours = []
        for _ in range(100):
            grad[...] = 3.0 * (theta - 2.0)
            opt.step()
            ours.append(theta[0])
        expected = adam_scalar_reference(lambda t: 3.0 * (t - 2.0), -1.0, lr, b1, b2, Adam.eps, 100)
        np.testing.assert_allclose(ours, expected, atol=1e-10, rtol=0)

    def test_zero_lr_factor_freezes_exactly(self):
        group = make_group(value=0.75, grad=2.0, lr_factor=0.0)
        opt = Adam([group], lr=0.1, weight_decay=0.2)
        before = group.param.copy()
        for _ in range(3):
            opt.step()
        assert group.param.tobytes() == before.tobytes()

    def test_deterministic_given_state(self):
        def run():
            group = make_group(value=1.0, grad=0.0)
            opt = Adam([group], lr=0.01)
            rng = np.random.default_rng(0)
            for _ in range(20):
                group.grad[...] = rng.normal(size=4)
                opt.step()
            return group.param.copy()

        assert np.array_equal(run(), run())


class TestSchedule:
    @staticmethod
    def config(lr, factor, epochs):
        return TrainConfig(optimizer_lr=lr, schedule_factor=factor, schedule_epochs=epochs,
                           epochs=200)

    def test_cifar10_style_decay(self):
        assert self.config(1e-3, 0.1, (50, 100)).lr_at(75) == pytest.approx(1e-4)

    def test_epoch_zero_is_base(self):
        assert self.config(0.5, 0.1, (10,)).lr_at(0) == 0.5

    def test_two_decay_milestones(self):
        assert self.config(0.1, 0.1, (80, 120)).lr_at(160) == pytest.approx(1e-3)

    def test_decay_applies_at_the_milestone(self):
        cfg = self.config(1.0, 0.5, (5,))
        assert cfg.lr_at(4) == 1.0
        assert cfg.lr_at(5) == 0.5


@pytest.mark.parametrize("call, message", [
    (lambda: make_optimizer("rmsprop", [], lr=0.1), "unknown optimizer 'rmsprop'"),
], ids=["unknown-kind"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()
