import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perceptpool.gradcheck import check_layer
from perceptpool.layers import FixedPool, col2im, im2col, pool_out_dim
from perceptpool.pooling import (MlpPoolStack, PerceptronPool, PerceptronUpsample,
                                 Sharing, param_count)

from oracles import (avg_pool_loops, complexity_probe, loglog_slope, perceptron_pool_loops,
                     restructure_loops)


def nn_4_1(dtype=np.float64, **kw):
    return MlpPoolStack([PerceptronPool(2, 2, units=4, dtype=dtype, **kw),
                         PerceptronPool(2, 2, units=1, dtype=dtype, **kw)])


def nn_16_1(dtype=np.float64, **kw):
    return MlpPoolStack([PerceptronPool(2, 2, units=16, dtype=dtype, **kw),
                         PerceptronPool(4, 4, units=1, dtype=dtype, **kw)])


class TestForward:
    def test_average_weights_equal_average_pooling(self):
        pool = PerceptronPool(2, 2, dtype=np.float64)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(pool.forward(x), [[[[2.5]]]])

    def test_selector_weights_pick_top_left(self):
        pool = PerceptronPool(2, 2, dtype=np.float64)
        pool.bind(1, 4, 4)
        pool.weights[0, 0] = [[1.0, 0.0], [0.0, 0.0]]
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        np.testing.assert_array_equal(pool.forward(x)[0, 0], [[0.0, 2.0], [8.0, 10.0]])

    @pytest.mark.parametrize("window,stride,units", [(2, 2, 1), (3, 1, 1), (3, 2, 4), (4, 4, 1)])
    def test_matches_window_loop_oracle(self, window, stride, units):
        rng = np.random.default_rng(0)
        h = window + 2 * stride  # three window positions per axis
        x = rng.normal(size=(2, 2, h, h))
        pool = PerceptronPool(window, stride, units=units, dtype=np.float64)
        pool.bind(2, h, h)
        pool.weights[0] = rng.normal(size=pool.weights[0].shape)
        pool.bias[0] = rng.normal(size=units)
        unit_out = perceptron_pool_loops(x, pool.weights[0], pool.bias[0], window, stride)
        np.testing.assert_allclose(pool.forward(x), restructure_loops(unit_out, pool.block),
                                   atol=1e-12, rtol=0)

    def test_relu_matches_window_loop_oracle(self):
        rng = np.random.default_rng(1)
        pool = PerceptronPool(2, 2, units=4, activation="relu", dtype=np.float64)
        pool.bind(1, 6, 6)
        pool.weights[0] = rng.normal(size=pool.weights[0].shape)
        pool.bias[0] = rng.normal(size=4)
        x = rng.normal(size=(2, 1, 6, 6))
        units = perceptron_pool_loops(x, pool.weights[0], pool.bias[0], 2, 2, "relu")
        np.testing.assert_allclose(pool.forward(x), restructure_loops(units, 2),
                                   atol=1e-12, rtol=0)

    def test_four_units_stride_two_keep_spatial_size(self):
        pool = PerceptronPool(2, 2, units=4, dtype=np.float64)
        x = np.random.default_rng(2).normal(size=(3, 5, 4, 4))
        assert pool.forward(x).shape == (3, 5, 4, 4)

    def test_window_misfit_rejected(self):
        with pytest.raises(ValueError):
            PerceptronPool(2, 2, dtype=np.float64).forward(np.zeros((1, 1, 5, 5)))

    def test_shape_law(self):
        for units, window, stride, h in ((1, 2, 2, 8), (4, 2, 2, 8), (16, 2, 2, 8), (9, 3, 3, 9)):
            pool = PerceptronPool(window, stride, units=units, dtype=np.float64)
            out = pool.forward(np.zeros((1, 2, h, h)))
            q = int(units**0.5)
            assert out.shape[2] == pool_out_dim(h, window, stride) * q


def depth_to_space(units, q):
    """(B, C, q*q, oH, oW) units -> (B, C, oH*q, oW*q) grid: col2im at window = stride = q."""
    b, c, _, oh, ow = units.shape
    return col2im(np.moveaxis(units, 2, 0).reshape(q, q, b, c, oh, ow), q,
                  np.empty((b, c, oh * q, ow * q), units.dtype))


def space_to_depth(grid, q):
    """Inverse of depth_to_space: im2col at window = stride = q."""
    cols = im2col(grid, q, q, q)
    return np.moveaxis(cols.reshape(q * q, *cols.shape[2:]), 0, 2)


class TestDepthToSpace:
    """The units' restructuring is the window engine at window = stride = q."""

    def test_row_major_2x2_block(self):
        units = np.arange(4.0).reshape(1, 1, 4, 1, 1)
        np.testing.assert_array_equal(depth_to_space(units, 2)[0, 0], [[0.0, 1.0], [2.0, 3.0]])

    def test_single_unit_is_identity(self):
        units = np.random.default_rng(3).normal(size=(2, 3, 1, 4, 5))
        np.testing.assert_array_equal(depth_to_space(units, 1), units[:, :, 0])

    def test_unit5_of_16_lands_at_5_9(self):
        units = np.zeros((1, 1, 16, 3, 4))
        units[0, 0, 5, 1, 2] = 1.0
        grid = depth_to_space(units, 4)
        assert grid[0, 0, 5, 9] == 1.0 and grid.sum() == 1.0

    def test_matches_placement_loop_oracle(self):
        rng = np.random.default_rng(4)
        units = rng.normal(size=(2, 2, 9, 2, 3))
        np.testing.assert_array_equal(depth_to_space(units, 3), restructure_loops(units, 3))

    def test_non_square_unit_count_rejected(self):
        with pytest.raises(ValueError):
            PerceptronPool(2, 2, units=6)

    @given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 3))
    def test_bijection_roundtrip(self, b, c, q, oh, ow):
        rng = np.random.default_rng(b * 100 + c * 10 + q)
        units = rng.normal(size=(b, c, q * q, oh, ow))
        grid = depth_to_space(units, q)
        assert grid.shape == (b, c, oh * q, ow * q)
        # bijection: all input values appear exactly once
        assert np.array_equal(np.sort(grid.ravel()), np.sort(units.ravel()))
        back = space_to_depth(grid, q)
        np.testing.assert_array_equal(back, units)
        assert not np.shares_memory(back, grid)  # a backward may overwrite it in place


class TestBackward:
    def test_average_weights_match_average_pool_backward(self):
        pool = PerceptronPool(2, 2, dtype=np.float64)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        pool.forward(x)
        gin = pool.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_allclose(gin.ravel(), [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_dead_relu_unit_blocks_gradient(self):
        pool = PerceptronPool(2, 2, activation="relu", dtype=np.float64)
        pool.bind(1, 2, 2)
        pool.weights[0, 0] = -1.0  # pre-activation negative for positive input
        x = np.full((1, 1, 2, 2), 1.0)
        pool.forward(x)
        gin = pool.backward(np.ones((1, 1, 1, 1)))
        assert np.all(gin == 0) and np.all(pool.weights_grad == 0) and np.all(pool.bias_grad == 0)

    @pytest.mark.parametrize("sharing", list(Sharing))
    @pytest.mark.parametrize("units", [1, 4, 16])
    def test_gradients_all_modes_and_unit_counts(self, sharing, units):
        layer = PerceptronPool(2, 2, units=units, sharing=sharing, dtype=np.float64)
        report = check_layer(layer, (2, 2, 6, 6), seed=units, tolerance=1e-4)
        assert report.passed, report.format()

    def test_gradients_relu(self):
        layer = PerceptronPool(2, 2, units=4, activation="relu", dtype=np.float64)
        report = check_layer(layer, (2, 2, 6, 6), seed=7, tolerance=1e-4)
        assert report.passed, report.format()

    def test_gradients_overlapping_windows(self):
        layer = PerceptronPool(window=3, stride=1, units=1, dtype=np.float64)
        report = check_layer(layer, (2, 2, 5, 5), seed=8, tolerance=1e-4)
        assert report.passed, report.format()

    def test_stale_backward_rejected(self):
        pool = PerceptronPool(2, 2, dtype=np.float64)
        with pytest.raises(RuntimeError):
            pool.backward(np.zeros((1, 1, 2, 2)))
        pool.forward(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError):
            pool.backward(np.zeros((1, 1, 3, 3)))

    @pytest.mark.parametrize("make", [
        lambda: PerceptronPool(2, 2, dtype=np.float64),
        lambda: PerceptronUpsample(window=2, units=4, dtype=np.float64),
        lambda: nn_4_1(),
    ], ids=["pool", "upsample", "stack"])
    def test_eval_forward_keeps_no_backward_state(self, make):
        layer = make()
        x = np.zeros((1, 1, 4, 4))
        layer.forward(x, train=True)
        layer.forward(x, train=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros(layer.output_shape(x.shape)))

    @pytest.mark.parametrize("make", [
        lambda: PerceptronPool(2, 2, dtype=np.float64),
        lambda: PerceptronUpsample(window=2, units=4, dtype=np.float64),
        lambda: nn_4_1(),
    ], ids=["pool", "upsample", "stack"])
    def test_dropped_layer_freed_without_cyclic_gc(self, make):
        # A layer in a reference cycle (say, one listing itself as its own
        # chain) would keep its saved training state until the cyclic
        # collector ran; dropping the last reference must free it at once.
        layer = make()
        x = np.ones((1, 1, 4, 4))
        layer.backward(np.ones(layer.forward(x).shape))
        ref = weakref.ref(layer)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del layer
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestProperties:
    def test_average_equivalence_many_shapes(self):
        rng = np.random.default_rng(10)
        fixed = FixedPool("average", 2, 2)
        for _ in range(20):
            b, c = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            hw = int(rng.choice([4, 6, 8, 12]))
            x64 = rng.uniform(-1, 1, (b, c, hw, hw))
            pool64 = PerceptronPool(2, 2, dtype=np.float64)
            np.testing.assert_allclose(pool64.forward(x64), fixed.forward(x64),
                                       atol=1e-12, rtol=0)
            x32 = x64.astype(np.float32)
            pool32 = PerceptronPool(2, 2, dtype=np.float32)
            np.testing.assert_allclose(pool32.forward(x32), fixed.forward(x32),
                                       atol=1e-6, rtol=0)

    def test_linear_in_input_without_bias_or_relu(self):
        rng = np.random.default_rng(11)
        pool = PerceptronPool(2, 2, units=4, use_bias=False, dtype=np.float64)
        pool.bind(2, 8, 8)
        pool.weights[...] = rng.normal(size=pool.weights.shape)
        x = rng.normal(size=(2, 2, 8, 8))
        y = rng.normal(size=(2, 2, 8, 8))
        a, b = -1.3, 0.7
        lhs = pool.forward(a * x + b * y)
        rhs = a * pool.forward(x) + b * pool.forward(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("units", [1, 4])
    @pytest.mark.parametrize("sharing", [Sharing.PER_CHANNEL, Sharing.PER_FIELD, Sharing.PER_TENSOR])
    def test_per_tensor_broadcast_of_global_matches(self, sharing, units, activation):
        # every instance a copy of one GLOBAL neuron: same outputs and input
        # gradient, and parameter gradients that sum over instances to GLOBAL's
        rng = np.random.default_rng(12)
        g = PerceptronPool(2, 2, units=units, activation=activation, dtype=np.float64)
        g.bind(3, 6, 6)
        g.weights[...] = rng.normal(size=g.weights.shape)
        g.bias[...] = rng.normal(size=g.bias.shape)
        t = PerceptronPool(2, 2, units=units, sharing=sharing, activation=activation,
                           dtype=np.float64)
        t.bind(3, 6, 6)
        t.weights[...] = np.broadcast_to(g.weights, t.weights.shape)
        t.bias[...] = np.broadcast_to(g.bias, t.bias.shape)
        x = rng.normal(size=(2, 3, 6, 6))
        np.testing.assert_allclose(t.forward(x), g.forward(x), atol=1e-13, rtol=0)
        grad = rng.normal(size=g.output_shape(x.shape))
        np.testing.assert_allclose(t.backward(grad), g.backward(grad), atol=1e-13, rtol=0)
        np.testing.assert_allclose(t.weights_grad.sum(axis=0), g.weights_grad[0], atol=1e-12, rtol=0)
        np.testing.assert_allclose(t.bias_grad.sum(axis=0), g.bias_grad[0], atol=1e-12, rtol=0)

    def test_instantiation_counts(self):
        cases = [
            (Sharing.GLOBAL, 1),
            (Sharing.PER_CHANNEL, 3),
            (Sharing.PER_FIELD, 9),
            (Sharing.PER_TENSOR, 27),
        ]
        for sharing, expected in cases:
            pool = PerceptronPool(2, 2, sharing=sharing, dtype=np.float64)
            pool.bind(3, 6, 6)
            assert pool.instances == expected

    def test_frozen_instantiation_rejects_shape_change(self):
        pool = PerceptronPool(2, 2, sharing=Sharing.PER_FIELD, dtype=np.float64)
        pool.forward(np.zeros((1, 2, 6, 6)))
        pool.forward(np.zeros((2, 3, 6, 6)))  # same field grid is fine
        with pytest.raises(ValueError):
            pool.forward(np.zeros((1, 2, 8, 8)))

    @pytest.mark.parametrize("make, name", [
        (lambda: PerceptronPool(2, 2, name="pool1"), "pool1"),
        (lambda: MlpPoolStack([PerceptronPool(2, 2, units=4), PerceptronPool(2, 2)], name="slot"),
         "slot.0"),
    ], ids=["layer", "stack"])
    def test_unbound_param_groups_rejected(self, make, name):
        # an optimizer built on an unbound layer would get no groups and never move it
        layer = make()
        with pytest.raises(RuntimeError, match=f"^{name}: not bound to an input shape yet"):
            layer.param_groups()

    def test_global_accepts_any_fitting_shape(self):
        pool = PerceptronPool(2, 2, dtype=np.float64)
        pool.forward(np.zeros((1, 2, 6, 6)))
        pool.forward(np.zeros((2, 5, 10, 10)))


class TestMlpStack:
    def test_nn_4_1_halves_8x8(self):
        stack = nn_4_1()
        out = stack.forward(np.random.default_rng(13).normal(size=(1, 2, 8, 8)))
        assert out.shape == (1, 2, 4, 4)

    def test_nn_16_1_intermediate_doubles_then_quarters(self):
        stack = nn_16_1()
        x = np.random.default_rng(14).normal(size=(1, 2, 8, 8))
        mid = stack.layers[0].forward(x)
        out = stack.layers[1].forward(mid)
        assert mid.shape == (1, 2, 16, 16)
        assert out.shape == (1, 2, 4, 4)

    def test_average_init_nn_4_1_collapses_to_one_average_pool(self):
        # every hidden unit computes the window mean, so the restructured
        # block is constant and the averaging output layer reproduces it
        rng = np.random.default_rng(16)
        x = rng.normal(size=(1, 2, 8, 8))
        np.testing.assert_allclose(nn_4_1().forward(x), avg_pool_loops(x, 2, 2),
                                   atol=1e-12, rtol=0)

    def test_broken_chain_reports_layer_index(self):
        # layer 1 reads 3x3 windows, not the 1x1 unit blocks of layer 0
        with pytest.raises(ValueError, match="layer 1"):
            MlpPoolStack([PerceptronPool(2, 2, units=1, dtype=np.float64),
                          PerceptronPool(3, 3, units=1, dtype=np.float64)])

    @pytest.mark.parametrize("spec, index", [
        ([(1, 2, 2), (1, 2, 2)], 1),  # 1x1 unit blocks read as 2x2 windows
        ([(4, 2, 2), (1, 2, 1)], 1),  # right window, overlapping stride
        ([(4, 2, 2), (16, 2, 2), (1, 2, 2)], 2),  # 4x4 blocks read as 2x2 windows
    ])
    def test_misaligned_layer_rejected_at_construction(self, spec, index):
        layers = [PerceptronPool(window, stride, units=units, dtype=np.float64)
                  for units, window, stride in spec]
        with pytest.raises(ValueError, match=f"layer {index} "):
            MlpPoolStack(layers)

    def test_mixed_sharing_rejected_at_construction(self):
        # aligned layers must bind the same instances to compose per instance
        with pytest.raises(ValueError, match="layer 1 .* global sharing, .* per_channel sharing"):
            MlpPoolStack([PerceptronPool(2, 2, units=4, sharing=Sharing.PER_CHANNEL, dtype=np.float64),
                          PerceptronPool(2, 2, units=1, dtype=np.float64)])

    def test_stack_gradients(self):
        rng = np.random.default_rng(18)
        for stack in (nn_4_1(), nn_16_1(),
                      nn_4_1(activation="relu", init="glorot", rng=rng),
                      nn_16_1(activation="relu", init="glorot", rng=rng),
                      nn_4_1(sharing=Sharing.PER_FIELD, init="glorot", rng=rng),
                      nn_16_1(sharing=Sharing.PER_FIELD, init="glorot", rng=rng)):
            report = check_layer(stack, (1, 2, 8, 8), seed=17, tolerance=1e-4)
            assert report.passed, report.format()

    def test_reduction_factor_invariant(self):
        # end-to-end reduction = product of stride / sqrt(units)
        stack = nn_16_1()
        out = stack.forward(np.zeros((1, 1, 16, 16)))
        factor = 1.0
        for layer in stack.layers:
            factor *= layer.stride / layer.block
        assert out.shape[2] == int(16 / factor)


STACK_SPECS = {  # (units, window, stride) per layer
    "nn_4_1": [(4, 2, 2), (1, 2, 2)],
    "nn_16_1": [(16, 2, 2), (1, 4, 4)],
    "three_layers": [(4, 2, 2), (4, 2, 2), (1, 2, 2)],
    "mixed_blocks": [(4, 2, 2), (16, 2, 2), (1, 4, 4)],  # block side 2, then 4
    "one_layer": [(4, 2, 2)],
}


class TestStackMatchesComposition:
    """MlpPoolStack chains aligned layers on unit outputs; running its own
    layers one by one through PerceptronPool.forward/backward (depth-to-space
    and im2col between every pair) must give the same numbers."""

    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("sharing", list(Sharing))
    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("spec", list(STACK_SPECS))
    def test_outputs_and_gradients(self, spec, activation, sharing, use_bias):
        rng = np.random.default_rng(22)
        stack = MlpPoolStack([
            PerceptronPool(window, stride, units=units, sharing=sharing, activation=activation,
                           use_bias=use_bias, init="glorot", rng=rng, dtype=np.float64)
            for units, window, stride in STACK_SPECS[spec]
        ])
        stack.bind(3, 8, 8)
        for layer in stack.layers:
            if use_bias:
                layer.bias[...] = rng.normal(scale=0.3, size=layer.bias.shape)
        x = rng.normal(size=(2, 3, 8, 8))
        out = stack.forward(x)
        grad_out = rng.normal(size=out.shape)
        grad_x = stack.backward(grad_out)
        chained = [(layer.weights_grad.copy(), layer.bias_grad.copy() if use_bias else None)
                   for layer in stack.layers]

        stack.zero_grad()
        composed = x
        for layer in stack.layers:
            composed = layer.forward(composed)
        grad_composed = grad_out
        for layer in reversed(stack.layers):
            grad_composed = layer.backward(grad_composed)

        np.testing.assert_allclose(out, composed, atol=1e-12, rtol=0)
        np.testing.assert_allclose(grad_x, grad_composed, atol=1e-12, rtol=0)
        for layer, (weights_grad, bias_grad) in zip(stack.layers, chained):
            np.testing.assert_allclose(weights_grad, layer.weights_grad, atol=1e-12, rtol=0)
            if use_bias:
                np.testing.assert_allclose(bias_grad, layer.bias_grad, atol=1e-12, rtol=0)

    def test_grad_out_shape_checked(self):
        stack = nn_16_1()
        stack.forward(np.zeros((1, 1, 8, 8)))
        with pytest.raises(ValueError, match="grad_out shape"):
            stack.backward(np.zeros((1, 1, 8, 8)))


@pytest.mark.parametrize("make", [
    lambda: PerceptronPool(2, 2, init="glorot", rng=np.random.default_rng(24), dtype=np.float64),
    lambda: nn_16_1(init="glorot", rng=np.random.default_rng(24)),
    lambda: nn_16_1(activation="relu", init="glorot", rng=np.random.default_rng(24)),
], ids=["perceptron", "nn_16_1", "relu_nn_16_1"])
def test_training_forward_saves_only_its_input(make):
    """A slot's training forward keeps its input and nothing else: no
    columns, and no unit planes even behind a ReLU, which the backward
    rebuilds block by block from the input."""
    slot = make()
    x = np.random.default_rng(23).normal(size=(2, 3, 16, 16))
    slot.forward(x)
    assert slot._saved[0] is x


class TestUpsample:
    def test_training_forward_saves_only_its_input(self):
        """The input itself: the padding lives in each block's columns."""
        up = PerceptronUpsample(window=3, units=4, dtype=np.float64)
        x = np.random.default_rng(25).normal(size=(2, 3, 8, 8))
        up.forward(x)
        assert up._saved[0] is x

    def test_unit_window_replicates_like_nearest_neighbor(self):
        up = PerceptronUpsample(window=1, units=4, dtype=np.float64)
        up.bind(1, 2, 2)
        up.weights[...] = 1.0
        x = np.arange(4.0).reshape(1, 1, 2, 2)
        out = up.forward(x)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(out[0, 0], np.repeat(np.repeat(x[0, 0], 2, 0), 2, 1))

    def test_unit_window_weight_block(self):
        up = PerceptronUpsample(window=1, units=4, dtype=np.float64)
        up.bind(1, 1, 1)
        up.weights[0, :, 0, 0] = [2.0, 3.0, 4.0, 5.0]
        out = up.forward(np.array([[[[7.0]]]]))
        np.testing.assert_array_equal(out[0, 0], [[14.0, 21.0], [28.0, 35.0]])

    def test_output_is_exactly_u_times_input(self):
        for units, u in ((4, 2), (16, 4)):
            up = PerceptronUpsample(window=2, units=units, dtype=np.float64)
            out = up.forward(np.zeros((2, 3, 5, 7)))
            assert out.shape == (2, 3, 5 * u, 7 * u)

    def test_even_window_pad_is_top_left_biased(self):
        up = PerceptronUpsample(window=2, units=4, dtype=np.float64)
        up.bind(1, 2, 2)
        up.weights[...] = 0.0
        up.weights[0, :, 0, 0] = 1.0  # reads the padded top-left neighbor
        x = np.arange(1.0, 5.0).reshape(1, 1, 2, 2)
        out = up.forward(x)
        # position (0,0) sees the zero pad, position (1,1) sees x[0,0]
        assert np.all(out[0, 0, :2, :2] == 0.0)
        assert np.all(out[0, 0, 2:, 2:] == 1.0)

    def test_gradients(self):
        for units in (4, 16):
            up = PerceptronUpsample(window=2, units=units, dtype=np.float64)
            report = check_layer(up, (2, 2, 5, 5), seed=18, tolerance=1e-4)
            assert report.passed, report.format()

    def test_relu_gradients(self):
        up = PerceptronUpsample(window=2, units=4, activation="relu", dtype=np.float64)
        report = check_layer(up, (2, 2, 4, 4), seed=19, tolerance=1e-4)
        assert report.passed, report.format()

    @pytest.mark.parametrize("sharing", list(Sharing))
    def test_gradients_every_sharing_mode(self, sharing):
        up = PerceptronUpsample(window=2, units=4, sharing=sharing, dtype=np.float64)
        report = check_layer(up, (2, 2, 5, 5), seed=20, tolerance=1e-4)
        assert report.passed, report.format()

    @pytest.mark.parametrize("sharing, instances", [(Sharing.PER_FIELD, 30),
                                                    (Sharing.PER_TENSOR, 90)])
    def test_instances_bound_on_unpadded_shape(self, sharing, instances):
        up = PerceptronUpsample(window=2, units=4, sharing=sharing, dtype=np.float64)
        up.forward(np.zeros((2, 3, 5, 6)))
        assert up.instances == instances

    def test_rejects_single_unit(self):
        with pytest.raises(ValueError):
            PerceptronUpsample(window=2, units=1)


class TestParamCount:
    def test_single_perceptron_and_pairs(self):
        assert param_count(PerceptronPool(2, 2)) == 5
        assert param_count(PerceptronPool(2, 2, use_bias=False)) == 4

    def test_nn_4_1_is_25_per_layer_set(self):
        assert param_count(nn_4_1(dtype=np.float32)) == 25

    def test_nn_16_1_is_97(self):
        assert param_count(nn_16_1(dtype=np.float32)) == 97

    def test_gap_replacement_is_65(self):
        assert param_count(PerceptronPool(8, 8)) == 65

    def test_per_field_counts_output_positions(self):
        pool = PerceptronPool(2, 2, sharing=Sharing.PER_FIELD)
        pool.bind(64, 32, 32)
        assert param_count(pool) == 16 * 16 * 5

    def test_per_tensor_counts_channels_and_positions(self):
        pool = PerceptronPool(2, 2, sharing=Sharing.PER_TENSOR)
        pool.bind(64, 32, 32)
        assert param_count(pool) == 64 * 16 * 16 * 5

    def test_formula_matches_actual_array_sizes(self):
        for sharing in Sharing:
            pool = PerceptronPool(2, 2, units=4, sharing=sharing)
            pool.bind(3, 8, 8)
            actual = sum(g.param.size for g in pool.param_groups())
            assert param_count(pool) == actual

    def test_unbound_non_global_needs_shape(self):
        with pytest.raises(RuntimeError):
            param_count(PerceptronPool(2, 2, sharing=Sharing.PER_CHANNEL))

    def test_fixed_pool_rejected(self):
        with pytest.raises(TypeError, match="perceptron pooling layer or stack"):
            param_count(FixedPool("max"))


class TestComplexityProbe:
    def test_rows_and_slope(self):
        rows = complexity_probe(lambda: PerceptronPool(2, 2, dtype=np.float32),
                                [16, 32, 64], repeats=2, min_seconds=0.002)
        assert [r["size"] for r in rows] == [16, 32, 64]
        assert all(r["seconds"] > 0 for r in rows)
        loglog_slope(rows)  # fits without error on reliable rows

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            complexity_probe(lambda: PerceptronPool(2, 2), [32, 16])

    def test_floor_rows_are_excluded_from_fit(self):
        rows = [{"size": 8, "area": 64, "seconds": 1e-9, "reliable": False},
                {"size": 16, "area": 256, "seconds": 1e-3, "reliable": True},
                {"size": 32, "area": 1024, "seconds": 4e-3, "reliable": True}]
        assert loglog_slope(rows) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("call, message", [
    (lambda: PerceptronPool(2, activation="tanh"),
     "activation must be one of ('identity', 'relu'), got 'tanh'"),
    (lambda: PerceptronPool(2, units=0), "units must be >= 1, got 0"),
    (lambda: PerceptronPool(2, stride=0), "stride must be >= 1, got 0"),
    (lambda: MlpPoolStack([]), "stack needs at least one layer"),
], ids=["activation", "units", "stride", "empty-stack"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()
