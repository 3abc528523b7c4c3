import itertools
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from perceptpool import layers, models
from perceptpool.gradcheck import check_layer
from perceptpool.layers import (_BLAS_THREADS, _WALKERS, BatchNorm2d, Conv2d, Dense, FixedPool,
                                Layer, ReLU, _map_blocks, col2im, im2col, pool_out_dim, softmax_xent)
from perceptpool.models import _EVAL_BLOCK_BYTES, Sequential
from perceptpool.pooling import MlpPoolStack, PerceptronPool, PerceptronUpsample, Sharing

from oracles import (batchnorm_reference, conv2d_loops, conv2d_reference, multi_block_batch,
                     pool_reference)


class TestPoolOutDim:
    def test_halving(self):
        assert pool_out_dim(32, 2, 2) == 16

    def test_global_window(self):
        assert pool_out_dim(8, 8, 8) == 1

    def test_quartering(self):
        assert pool_out_dim(16, 4, 4) == 4

    def test_non_exact_fit_is_config_error(self):
        with pytest.raises(ValueError):
            pool_out_dim(7, 2, 2)
        with pytest.raises(ValueError):
            pool_out_dim(3, 4, 1)


class TestWindowEngine:
    # 7 x 3 x 130 x 130 float64 is about 2.8 MB, more than one of the
    # layers' blocks, which the window kernels take in one pass.
    SHAPE = (7, 3, 130, 130)

    @pytest.mark.parametrize("window,stride,pads", [
        (2, 2, layers._NO_PADS), (3, 1, layers._NO_PADS), (4, 3, layers._NO_PADS),
        (4, 3, ((1, 0), (2, 1))),
    ])
    def test_im2col_matches_window_slices_across_blocks(self, window, stride, pads):
        """Each offset plane is a strided slice of the input, zero padded by
        np.pad when pads are given; _column_bytes, which sizes the blocks,
        counts the columns' bytes."""
        x = np.random.default_rng([40, window, stride]).normal(size=self.SHAPE)
        cols = im2col(x, window, window, stride, pads)
        assert layers._column_bytes(x, window, window, stride, pads) == cols.nbytes
        xp = np.pad(x, ((0, 0), (0, 0), *pads))
        oh, ow = ((n - window) // stride + 1 for n in xp.shape[-2:])
        for dy in range(window):
            for dx in range(window):
                np.testing.assert_array_equal(
                    cols[dy, dx], xp[..., dy : dy + stride * oh : stride, dx : dx + stride * ow : stride])

    # (2, 3) leaves a gap between windows and an uncovered border; the pads
    # drop some taps, (1, 0), (2, 1) unevenly, and (2, 2) with pad 1 tiles
    # the padded input.
    @pytest.mark.parametrize("window,stride,pads", [
        (2, 2, layers._NO_PADS), (3, 1, layers._NO_PADS), (4, 3, layers._NO_PADS),
        (2, 3, layers._NO_PADS), (3, 1, ((1, 1), (1, 1))), (3, 2, ((1, 0), (2, 1))),
        (2, 2, ((1, 1), (1, 1))),
    ])
    def test_col2im_is_the_adjoint_across_blocks(self, window, stride, pads):
        rng = np.random.default_rng([41, window, stride])
        x = rng.normal(size=self.SHAPE)
        cols = im2col(x, window, window, stride, pads)
        y = rng.normal(size=cols.shape)
        lhs = float(np.vdot(cols, y))
        # col2im must overwrite or zero every element of the array it is given.
        rhs = float(np.vdot(x, col2im(y, stride, np.full(x.shape, np.nan), pads)))
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def _assert_close(actual, expected):
    """Equal to 1e-12 of the expected array's scale."""
    np.testing.assert_allclose(actual, expected, rtol=0,
                               atol=1e-12 * max(1.0, float(np.abs(expected).max())))


def _assert_spans_blocks(monkeypatch, budget, n, cols_per_item):
    """With the layers' block budget set to `budget` bytes, a batch of n
    items of cols_per_item column bytes spans at least three blocks, the
    last one short."""
    monkeypatch.setattr(layers, "_BLOCK_BYTES", budget)
    sizes = [blk.stop - blk.start for blk in layers._blocks(n, n * cols_per_item, budget)]
    assert len(sizes) >= 3 and sizes[-1] < sizes[0], sizes


def test_blocks_are_even_and_tile_the_batch():
    """_blocks keeps ceil(n / step) blocks, in sizes that differ by at most
    one and never grow, and tiles range(n) exactly; n = 0 is one empty slice."""
    for per_item, budget in itertools.product([1, 3, 100, 4096, 1 << 21], [1, 1000, 128 << 10, 2 << 20]):
        assert layers._blocks(0, 0, budget) == [slice(0, 0)]
        for n in [1, 2, 7, 10, 11, 50, 250, 1001]:
            blocks = layers._blocks(n, n * per_item, budget)
            sizes = [blk.stop - blk.start for blk in blocks]
            assert len(blocks) == -(-n // max(1, budget // per_item)), (n, per_item, budget)
            assert [i for blk in blocks for i in range(n)[blk]] == list(range(n))
            assert all(a >= b for a, b in zip(sizes, sizes[1:])) and sizes[0] - sizes[-1] <= 1, sizes


def test_eval_blocks_of_250_images():
    """A 250-image CIFAR eval walks 25 blocks of 10 images."""
    blocks = layers._blocks(250, 250 * 3 * 32 * 32 * 4, _EVAL_BLOCK_BYTES)
    assert [blk.stop - blk.start for blk in blocks] == [10] * 25


class TestBatchBlocks:
    """Conv2d, FixedPool and the perceptron chains run one batch block at a
    time; on float64 batches spanning several blocks they match whole-batch
    oracles in train and eval mode, or each image run alone."""

    @pytest.mark.parametrize("kernel,stride,pad,shape", [
        (3, 1, 1, (7, 8, 66, 66)),
        (3, 2, 1, (7, 8, 130, 130)),
        (2, 2, 0, (7, 16, 130, 130)),
    ])
    def test_conv2d_matches_whole_batch_reference(self, kernel, stride, pad, shape, monkeypatch):
        rng = np.random.default_rng([50, kernel, stride])
        b, c, h, w = shape
        conv = Conv2d(c, 5, kernel, stride, pad, rng=rng, dtype=np.float64)
        conv.bias[...] = rng.normal(size=conv.bias.shape)
        x = rng.normal(size=shape)
        out = conv2d_reference(x, conv.weights, conv.bias, stride, pad)
        _assert_spans_blocks(monkeypatch, 8 << 20, b,
                             kernel * kernel * c * out.shape[2] * out.shape[3] * 8)
        grad_out = rng.normal(size=out.shape)
        _, (dx, dw, db) = conv2d_reference(x, conv.weights, conv.bias, stride, pad, grad_out)
        _assert_close(conv.forward(x, train=True), out)
        _assert_close(conv.backward(grad_out), dx)
        _assert_close(conv.weights_grad, dw)
        _assert_close(conv.bias_grad, db)
        _assert_close(conv.forward(x, train=False), out)

    @pytest.mark.parametrize("mode,ties", [("max", False), ("average", False), ("max", True)],
                             ids=["max", "average", "max_ties"])
    @pytest.mark.parametrize("window,stride,shape", [(2, 2, (7, 3, 130, 130)), (3, 1, (7, 1, 66, 66))])
    def test_fixed_pool_matches_whole_batch_reference(self, mode, ties, window, stride, shape,
                                                      monkeypatch):
        rng = np.random.default_rng([52, window, stride])
        b, c, h, w = shape
        # Values from {0, 1, 2} tie within nearly every window, in the images on
        # both sides of every block edge: the first-in-scan rule must hold per block.
        x = rng.integers(0, 3, size=shape).astype(np.float64) if ties else rng.normal(size=shape)
        pool = FixedPool(mode, window, stride)
        out = pool_reference(x, mode, window, stride)
        _assert_spans_blocks(monkeypatch, 1 << 20, b,
                             window * window * c * out.shape[2] * out.shape[3] * 8)
        grad_out = rng.normal(size=out.shape)
        _, dx = pool_reference(x, mode, window, stride, grad_out)
        _assert_close(pool.forward(x, train=True), out)
        _assert_close(pool.backward(grad_out), dx)
        _assert_close(pool.forward(x, train=False), out)

    @pytest.mark.parametrize("make,shape", [
        (lambda rng: MlpPoolStack([
            PerceptronPool(2, 2, 16, activation="relu", init="glorot", rng=rng, dtype=np.float64),
            PerceptronPool(4, 4, 1, activation="relu", init="glorot", rng=rng, dtype=np.float64)]),
         (7, 16, 64, 64)),
        (lambda rng: PerceptronPool(2, 2, sharing="per_tensor", init="glorot", rng=rng, dtype=np.float64),
         (7, 16, 64, 64)),
        (lambda rng: PerceptronUpsample(2, 4, dtype=np.float64), (7, 4, 64, 64)),
    ], ids=["relu_nn_16_1", "per_tensor", "upsample"])
    def test_perceptron_chain_matches_image_by_image(self, make, shape, monkeypatch):
        """A perceptron chain over a batch of several blocks gives each image
        the output and input gradient it gets alone, and the sum of their
        parameter gradients."""
        rng = np.random.default_rng(54)
        slot = make(rng)
        x = rng.normal(size=shape)
        # 2x2 columns of 16 x 64 x 64 at stride 2, or of 4 x 65 x 65 padded at stride 1
        _assert_spans_blocks(monkeypatch, 1 << 20, len(x), 4 * 16 * 32 * 32 * 8)
        out = slot.forward(x)
        grad_out = rng.normal(size=out.shape)
        gx = slot.backward(grad_out)
        grads = [g.grad.copy() for g in slot.param_groups()]
        slot.zero_grad()
        for i in range(len(x)):
            _assert_close(out[i : i + 1], slot.forward(x[i : i + 1]))
            _assert_close(gx[i : i + 1], slot.backward(grad_out[i : i + 1]))
        for grad, group in zip(grads, slot.param_groups()):
            _assert_close(grad, group.grad)


def _array_bytes(saved):
    """Bytes of every array in a layer's saved state, however it nests."""
    if isinstance(saved, np.ndarray):
        return saved.nbytes
    if isinstance(saved, tuple):
        return sum(_array_bytes(s) for s in saved)
    return 0


@pytest.mark.parametrize("kernel,stride,pad", [(3, 1, 1), (3, 2, 1)])
def test_conv2d_training_forward_keeps_only_its_input(kernel, stride, pad):
    """The input itself, which backward rebuilds each block's padded columns
    from: no padded copy, and not the kernel*kernel-times larger columns."""
    shape = (5, 8, 12, 12)
    conv = Conv2d(shape[1], 4, kernel, stride, pad, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=shape).astype(np.float32)
    conv.forward(x, train=True)
    assert conv._saved[0] is x


def test_max_pool_training_forward_keeps_only_its_input():
    """Max pooling keeps its input, no larger than the columns of a tiling
    window, and not its output beside it: backward finds the maxima again."""
    x = np.random.default_rng(2).normal(size=(5, 8, 12, 12)).astype(np.float32)
    pool = FixedPool("max", 2, 2)
    pool.forward(x, train=True)
    assert _array_bytes(pool._saved[0]) <= x.nbytes


def test_relu_then_max_pool_keep_one_array():
    """ReLU keeps its output, which is the input that max pooling, a
    perceptron slot and a strided-convolution slot keep: a training forward
    of any such pair holds the activation once."""
    x = np.random.default_rng(3).normal(size=(5, 8, 12, 12)).astype(np.float32)
    relu = ReLU()
    y = relu.forward(x, train=True)
    for pool in (FixedPool("max", 2, 2), PerceptronPool(2, 2), Conv2d(8, 8, 2, 2)):
        pool.forward(y, train=True)
        assert relu._saved[0] is pool._saved[0], pool


def test_conv2d_float32_weight_gradient_over_blocks(monkeypatch):
    """The weight gradients of Conv2d and of a perceptron slot are summed
    block by block; in float32, over a batch of several blocks, each stays
    within 1e-5 of the float64 reference."""
    rng = np.random.default_rng(53)
    b, c, h, w = shape = (11, 16, 66, 66)
    _assert_spans_blocks(monkeypatch, 8 << 20, b, 9 * c * h * w * 4)
    conv = Conv2d(c, 8, 3, 1, 1, rng=rng)
    x = rng.normal(size=shape).astype(np.float32)
    grad_out = rng.normal(size=(b, 8, h, w)).astype(np.float32)
    _, (_, dw, _) = conv2d_reference(x.astype(np.float64), conv.weights.astype(np.float64),
                                     conv.bias.astype(np.float64), 1, 1, grad_out.astype(np.float64))
    conv.forward(x, train=True)
    conv.backward(grad_out)
    assert np.max(np.abs(conv.weights_grad - dw)) <= 1e-5 * np.max(np.abs(dw))

    _assert_spans_blocks(monkeypatch, 1 << 20, b, c * h * w * 4)  # 2x2/2 columns: the input's size
    pool = PerceptronPool(2, 2, init="glorot", rng=rng)
    grad_out = rng.normal(size=(b, c, h // 2, w // 2)).astype(np.float32)
    dw = np.array([[np.sum(grad_out.astype(np.float64) * x[:, :, dy::2, dx::2]) for dx in range(2)]
                   for dy in range(2)])
    pool.forward(x, train=True)
    pool.backward(grad_out)
    assert np.max(np.abs(pool.weights_grad[0, 0] - dw)) <= 1e-5 * np.max(np.abs(dw))


@pytest.mark.parametrize("make, train, out_shape", [
    (lambda: Conv2d(4, 5, 3, 1, 1), False, (0, 5, 6, 6)),
    (lambda: Conv2d(4, 5, 3, 1, 1), True, (0, 5, 6, 6)),
    (lambda: FixedPool("max", 2, 2), False, (0, 4, 3, 3)),
    (lambda: FixedPool("average", 2, 2), True, (0, 4, 3, 3)),
    (lambda: PerceptronUpsample(3, 4), True, (0, 4, 12, 12)),
], ids=["conv2d-eval", "conv2d-train", "max-eval", "average-train", "upsample-train"])
def test_empty_batch_gives_empty_output(make, train, out_shape):
    layer = make()
    x = np.zeros((0, 4, 6, 6), dtype=np.float32)
    out = layer.forward(x, train)
    assert out.shape == out_shape
    if train:
        assert layer.backward(out).shape == x.shape


@pytest.mark.parametrize("make, budget", [
    (lambda: Conv2d(64, 128, 3, 1, 1, rng=np.random.default_rng(0)), layers._BLOCK_BYTES),
    (lambda: FixedPool("max", 2, 2), 1 << 20),
    (lambda: FixedPool("average", 2, 2), 1 << 20),
], ids=["conv2d", "max", "average"])
def test_eval_forward_allocates_no_full_batch_columns(make, budget, monkeypatch):
    """At a block budget of `budget` bytes, an eval forward's peak allocation
    stays within its output plus two blocks' columns; a whole-batch column
    matrix would be 37.7 MB (Conv2d) or 4.2 MB (max) here."""
    monkeypatch.setattr(layers, "_BLOCK_BYTES", budget)
    layer = make()
    x = np.random.default_rng(1).normal(size=(64, 64, 16, 16)).astype(np.float32)
    tracemalloc.start()
    try:
        out = layer.forward(x, train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kh, kw = layer.kernel if isinstance(layer, Conv2d) else layer.window
    cols_per_image = kh * kw * x.shape[1] * out.shape[2] * out.shape[3] * x.itemsize
    block_cols = max(budget, cols_per_image)
    assert peak < out.nbytes + 2 * block_cols, (peak, out.nbytes, block_cols)


def test_max_backward_allocates_no_full_batch_columns(monkeypatch):
    """A max-pool training backward rebuilds its windows one batch block at a
    time: at a 1 MiB block budget its peak stays within the input gradient
    plus three blocks' columns (7.3 MB here), where whole-batch columns would
    take it past 8.4 MB."""
    monkeypatch.setattr(layers, "_BLOCK_BYTES", 1 << 20)
    layer = FixedPool("max", 2, 2)
    x = np.random.default_rng(1).normal(size=(64, 64, 16, 16)).astype(np.float32)
    grad_out = np.random.default_rng(2).normal(size=layer.forward(x).shape).astype(np.float32)
    tracemalloc.start()
    try:
        gx = layer.backward(grad_out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_cols = max(layers._BLOCK_BYTES, 4 * grad_out[0].nbytes)
    assert peak < gx.nbytes + 3 * block_cols, (peak, gx.nbytes, block_cols)


def blas_threads():
    """The process's BLAS thread count, or None without an OpenBLAS."""
    return None if _BLAS_THREADS is None else _BLAS_THREADS[0]()


class SpyLayer(Layer):
    """Identity that records the thread and the BLAS thread count of every
    call, raises on call `fail_at`, and otherwise sleeps `pause` seconds. Its
    backward runs one such call per image through the walkers."""

    name = "spy"

    def __init__(self, fail_at=None, pause=0.005):
        self.threads, self.blas_threads = [], []
        self.fail_at, self.pause = fail_at, pause
        self._calls = itertools.count(1)

    def _forward(self, x, train):
        self.threads.append(threading.get_ident())
        self.blas_threads.append(blas_threads())
        if next(self._calls) == self.fail_at:
            raise ValueError(f"spy: call {self.fail_at}")
        time.sleep(self.pause)  # so that every walker takes blocks
        return x, None

    def _backward(self, grad_out, saved):
        blocks = [slice(i, i + 1) for i in range(len(grad_out))]
        return np.concatenate(_map_blocks(lambda blk: self._forward(grad_out[blk], True)[0], blocks))


def one_image_blocks(n):
    """n images of exactly one eval block each."""
    return np.arange(n * _EVAL_BLOCK_BYTES // 4, dtype=np.float32).reshape(n, -1)


class TestWalkers:
    """layers._map_blocks runs a layer call's blocks on every walker: the
    image blocks of Sequential's eval forward, and the block loops of a
    training layer call."""

    @pytest.mark.skipif(_WALKERS == 1, reason="one eval walker: one allowed CPU or no OpenBLAS found")
    def test_blocks_run_on_every_walker_with_one_blas_thread(self):
        spy = SpyLayer()
        x = one_image_blocks(20)
        assert Sequential([spy]).forward(x, train=False).tobytes() == x.tobytes()
        assert len(spy.threads) == 20 and len(set(spy.threads)) > 1
        assert spy.blas_threads == [1] * 20

    def test_more_walkers_than_cores_run_each_block_once(self, monkeypatch):
        monkeypatch.setattr(layers, "_WALKERS", 8)
        monkeypatch.setattr(models, "_EVAL_BLOCK_BYTES", 64)
        spy, x = SpyLayer(pause=0), np.arange(4000 * 16, dtype=np.float32).reshape(4000, 16)
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = threading.Thread(target=lambda: out.append(Sequential([spy]).forward(x, train=False)))
            run.start()
            run.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive()
        assert len(spy.threads) == 4000 and out[0].tobytes() == x.tobytes()

    def test_lazy_binding_happens_once_among_the_walkers(self):
        def model():
            return Sequential([PerceptronPool(sharing=Sharing.PER_TENSOR, init="glorot",
                                              rng=np.random.default_rng(9))])
        x = multi_block_batch(np.float32)
        for _ in range(5):  # a race between two binds need not show on every try
            first, twin = model(), model()
            twin.forward(x[:1], train=False)
            logits = first.forward(x, train=False)
            assert first.layers[0].weights.tobytes() == twin.layers[0].weights.tobytes()
            assert logits.tobytes() == twin.forward(x, train=False).tobytes()

    def test_walker_error_reraises_and_blas_threads_are_restored(self):
        before = blas_threads()
        Sequential([SpyLayer()]).forward(one_image_blocks(8), train=False)
        assert blas_threads() == before
        with pytest.raises(ValueError, match="spy: call 3"):
            Sequential([SpyLayer(fail_at=3)]).forward(one_image_blocks(8), train=False)
        assert blas_threads() == before

    def test_training_walk_error_reraises_after_every_walker_stopped(self):
        before, threads = blas_threads(), threading.active_count()
        spy = SpyLayer(fail_at=4)  # the forward is call 1, so the third block raises
        spy.forward(one_image_blocks(8), train=True)
        with pytest.raises(ValueError, match="spy: call 4"):
            spy.backward(one_image_blocks(8))
        assert threading.active_count() == threads
        assert blas_threads() == before
        assert spy._saved is None


class TestConv2d:
    def test_scalar_conv(self):
        conv = Conv2d(1, 1, kernel=1, dtype=np.float64)
        conv.weights[...] = 2.0
        x = np.array([[[[3.0]]]])
        np.testing.assert_array_equal(conv.forward(x), [[[[6.0]]]])

    def test_all_ones_kernel_sums_window(self):
        conv = Conv2d(1, 1, kernel=2, stride=2, dtype=np.float64)
        conv.weights[...] = 1.0
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(conv.forward(x), [[[[10.0]]]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(2, 3, kernel=2, stride=1, pad=0, dtype=np.float64)
        conv.weights[...] = rng.normal(size=conv.weights.shape)
        conv.bias[...] = rng.normal(size=conv.bias.shape)
        x = rng.normal(size=(2, 2, 3, 3))
        expected = conv2d_loops(x, conv.weights, conv.bias, stride=1, pad=0)
        np.testing.assert_allclose(conv.forward(x), expected, atol=1e-12, rtol=0)

    def test_strided_padded_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(3, 4, kernel=3, stride=2, pad=1, dtype=np.float64)
        conv.weights[...] = rng.normal(size=conv.weights.shape)
        conv.bias[...] = rng.normal(size=conv.bias.shape)
        x = rng.normal(size=(2, 3, 5, 5))
        expected = conv2d_loops(x, conv.weights, conv.bias, stride=2, pad=1)
        np.testing.assert_allclose(conv.forward(x), expected, atol=1e-12, rtol=0)

    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(2, 2, kernel=2, dtype=np.float64, rng=rng)
        x = rng.normal(size=(1, 2, 4, 4))
        out = conv.forward(x)
        gin = conv.backward(np.zeros_like(out))
        assert np.all(gin == 0) and np.all(conv.weights_grad == 0) and np.all(conv.bias_grad == 0)

    def test_1x1_kernel_linear_chain_rule(self):
        conv = Conv2d(1, 1, kernel=1, dtype=np.float64)
        conv.weights[...] = 2.0
        x = np.random.default_rng(3).normal(size=(1, 1, 3, 3))
        out = conv.forward(x)
        g = np.random.default_rng(4).normal(size=out.shape)
        np.testing.assert_allclose(conv.backward(g), 2.0 * g, atol=1e-15)

    def test_backward_matches_finite_differences(self):
        report = check_layer(Conv2d(2, 3, kernel=2, stride=1, pad=0, dtype=np.float64),
                             (2, 2, 4, 4), seed=0, tolerance=1e-4)
        assert report.passed, report.format()

    def test_channel_mismatch(self):
        conv = Conv2d(2, 2, kernel=2, dtype=np.float64)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 3, 4, 4)))

    def test_param_count_matches_strided_baseline(self):
        # 2x2 kernels at Cin=Cout=64 then 128: 64^2*4+64 + 128^2*4+128
        counts = 0
        for ch in (64, 128):
            conv = Conv2d(ch, ch, kernel=2, stride=2)
            counts += sum(g.param.size for g in conv.param_groups())
        assert counts == 82_112


class TestFixedPool:
    def test_average_2x2(self):
        pool = FixedPool("average", 2, 2)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(pool.forward(x), [[[[2.5]]]])

    def test_max_2x2(self):
        pool = FixedPool("max", 2, 2)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(pool.forward(x), [[[[4.0]]]])

    def test_max_tie_breaks_to_first_in_scan(self):
        pool = FixedPool("max", 2, 2)
        x = np.array([7.0, 7.0, 7.0, 7.0]).reshape(1, 1, 2, 2)
        pool.forward(x)
        gin = pool.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(gin.ravel(), [1.0, 0.0, 0.0, 0.0])

    def test_average_backward_distributes(self):
        pool = FixedPool("average", 2, 2)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        pool.forward(x)
        gin = pool.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(gin.ravel(), [0.25, 0.25, 0.25, 0.25])

    def test_max_backward_routes_to_argmax(self):
        pool = FixedPool("max", 2, 2)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        pool.forward(x)
        gin = pool.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(gin.ravel(), [0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("mode", ["max", "average"])
    def test_backward_matches_finite_differences(self, mode):
        report = check_layer(FixedPool(mode, 2, 2), (2, 3, 6, 6), seed=1, tolerance=1e-4)
        assert report.passed, report.format()

    @pytest.mark.parametrize("mode", ["max", "average"])
    def test_overlapping_windows_match_finite_differences(self, mode):
        report = check_layer(FixedPool(mode, 3, 1), (2, 2, 5, 5), seed=2, tolerance=1e-4)
        assert report.passed, report.format()

    def test_average_is_linear(self):
        rng = np.random.default_rng(5)
        pool = FixedPool("average", 2, 2)
        x = rng.normal(size=(2, 2, 6, 6))
        y = rng.normal(size=(2, 2, 6, 6))
        a, b = 1.7, -0.3
        lhs = pool.forward(a * x + b * y)
        rhs = a * pool.forward(x) + b * pool.forward(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12, rtol=0)

    def test_max_shifts_with_constant(self):
        rng = np.random.default_rng(6)
        pool = FixedPool("max", 2, 2)
        x = rng.normal(size=(1, 2, 4, 4))
        np.testing.assert_allclose(pool.forward(x + 3.25), pool.forward(x) + 3.25, atol=1e-12)

    def test_non_exact_fit_rejected(self):
        with pytest.raises(ValueError):
            FixedPool("max", 2, 2).forward(np.zeros((1, 1, 5, 5)))


class TestReLU:
    def test_clamps_negatives(self):
        relu = ReLU()
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
        np.testing.assert_array_equal(relu.forward(x).ravel(), [0.0, 0.0, 2.0])

    def test_backward_masks(self):
        relu = ReLU()
        x = np.array([-1.0, 0.5]).reshape(1, 1, 1, 2)
        relu.forward(x)
        np.testing.assert_array_equal(relu.backward(np.ones_like(x)).ravel(), [0.0, 1.0])


class TestBatchNorm:
    def test_train_output_is_normalized(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm2d(3, dtype=np.float64)
        x = rng.normal(loc=2.0, scale=3.0, size=(4, 3, 5, 5))
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(8)
        bn = BatchNorm2d(2, dtype=np.float64)
        for _ in range(200):
            bn.forward(rng.normal(loc=1.0, scale=2.0, size=(8, 2, 4, 4)), train=True)
        out = bn.forward(np.ones((1, 2, 2, 2)), train=False)
        expected = (1.0 - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        np.testing.assert_allclose(out[0, :, 0, 0], expected, atol=1e-10)

    def test_backward_matches_finite_differences(self):
        for shape in ((2, 3, 2, 2), (4, 3, 5, 5)):
            report = check_layer(BatchNorm2d(3, dtype=np.float64), shape, seed=2, tolerance=1e-4)
            assert report.passed, (shape, report.format())

    @pytest.mark.parametrize("shape", [(1, 3, 4, 6), (2, 3, 5, 5), (4, 2, 3, 7), (5, 4, 1, 1)])
    def test_matches_reference_formulas(self, shape):
        rng = np.random.default_rng(11)
        c = shape[1]
        bn = BatchNorm2d(c, dtype=np.float64)
        bn.gamma[...] = rng.uniform(0.5, 2.0, c) * rng.choice([-1.0, 1.0], c)
        bn.beta[...] = rng.normal(size=c)
        bn.running_mean[...] = rng.normal(size=c)
        bn.running_var[...] = rng.uniform(0.5, 3.0, c)
        params = [a.copy() for a in (bn.gamma, bn.beta, bn.running_mean, bn.running_var)]
        x = rng.normal(loc=1.5, scale=2.0, size=shape)
        grad_out = rng.normal(size=shape)
        close = dict(rtol=0, atol=1e-12)

        out, mean, var, (dx, dgamma, dbeta) = batchnorm_reference(
            x, *params, grad_out=grad_out, momentum=bn.momentum)
        np.testing.assert_allclose(bn.forward(x, train=True), out, **close)
        np.testing.assert_allclose(bn.running_mean, mean, **close)
        np.testing.assert_allclose(bn.running_var, var, **close)
        np.testing.assert_allclose(bn.backward(grad_out), dx, **close)
        np.testing.assert_allclose(bn.gamma_grad, dgamma, **close)
        np.testing.assert_allclose(bn.beta_grad, dbeta, **close)

        out, *_ = batchnorm_reference(x, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                                      train=False)
        np.testing.assert_allclose(bn.forward(x, train=False), out, **close)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3).forward(np.zeros((1, 2, 2, 2)))


class TestDense:
    def test_forward_affine(self):
        fc = Dense(2, 2, dtype=np.float64)
        fc.weights[...] = [[1.0, 2.0], [3.0, 4.0]]
        fc.bias[...] = [10.0, 20.0]
        out = fc.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(out, [[14.0, 26.0]])

    @pytest.mark.parametrize("shape", [(3, 5), (5, 2, 3, 3)], ids=["rows", "maps"])
    def test_backward_matches_finite_differences(self, shape):
        layer = Dense(math.prod(shape[1:]), 4, dtype=np.float64)
        report = check_layer(layer, shape, seed=3, tolerance=1e-4)
        assert report.passed, report.format()

    def test_maps_are_read_as_their_rows(self):
        """A (batch, C, H, W) batch gives what its (batch, C*H*W) rows give,
        bit for bit, and its input gradient comes back in the maps' shape."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 2, 3, 3)).astype(np.float32)
        grad = rng.normal(size=(5, 3)).astype(np.float32)
        maps, rows = (Dense(18, 3, rng=np.random.default_rng(8)) for _ in range(2))
        np.testing.assert_array_equal(maps.forward(x), rows.forward(x.reshape(5, 18)))
        gx = maps.backward(grad)
        assert gx.shape == x.shape
        np.testing.assert_array_equal(gx.reshape(5, 18), rows.backward(grad))
        np.testing.assert_array_equal(maps.weights_grad, rows.weights_grad)
        np.testing.assert_array_equal(maps.bias_grad, rows.bias_grad)

    def test_empty_batch_of_maps(self):
        fc = Dense(18, 3, dtype=np.float64)
        out = fc.forward(np.zeros((0, 2, 3, 3)))
        assert out.shape == (0, 3)
        assert fc.backward(np.zeros((0, 3))).shape == (0, 2, 3, 3)


# One small float64 instance of every layer kind, with an input shape whose
# output shape is not its own reverse.
EVERY_LAYER_KIND = {
    "max": (lambda: FixedPool("max", 2, 2), (1, 1, 4, 4)),
    "average": (lambda: FixedPool("average", 2, 2), (1, 1, 4, 4)),
    "relu": (ReLU, (1, 2, 3, 3)),
    "batchnorm": (lambda: BatchNorm2d(2, dtype=np.float64), (2, 2, 3, 3)),
    "dense": (lambda: Dense(4, 3, dtype=np.float64), (2, 4)),
    "dense_maps": (lambda: Dense(18, 3, dtype=np.float64), (2, 2, 3, 3)),
    "conv2d": (lambda: Conv2d(2, 3, kernel=3, pad=1, dtype=np.float64), (2, 2, 5, 5)),
    "perceptron": (lambda: PerceptronPool(2, 2, dtype=np.float64), (1, 1, 4, 4)),
    "upsample": (lambda: PerceptronUpsample(2, units=4, dtype=np.float64), (1, 1, 4, 4)),
    "stack": (lambda: MlpPoolStack([PerceptronPool(2, 2, units=4, dtype=np.float64),
                                    PerceptronPool(2, 2, units=1, dtype=np.float64)]),
              (1, 1, 4, 4)),
}


@pytest.mark.parametrize("make, shape", EVERY_LAYER_KIND.values(), ids=EVERY_LAYER_KIND.keys())
def test_eval_forward_keeps_no_backward_state(make, shape):
    layer = make()
    x = np.random.default_rng(4).normal(size=shape)
    layer.forward(x, train=True)
    out = layer.forward(x, train=False)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros_like(out))


@pytest.mark.parametrize("make, shape", EVERY_LAYER_KIND.values(), ids=EVERY_LAYER_KIND.keys())
def test_grad_out_of_right_size_but_wrong_shape_rejected(make, shape):
    """backward checks grad_out before it takes the saved state, so a correct
    call after a rejected one still gives the gradient."""
    x = np.random.default_rng(5).normal(size=shape)
    fresh, layer = make(), make()
    out = layer.forward(x, train=True)
    fresh.forward(x, train=True)
    assert out.shape[::-1] != out.shape
    with pytest.raises(ValueError, match="grad_out shape"):
        layer.backward(np.zeros(out.shape[::-1]))
    grad = np.random.default_rng(6).normal(size=out.shape)
    np.testing.assert_array_equal(layer.backward(grad), fresh.backward(grad))


@pytest.mark.parametrize("make, shape", EVERY_LAYER_KIND.values(), ids=EVERY_LAYER_KIND.keys())
def test_backward_consumes_the_saved_state(make, shape):
    """A training forward's state lives until its backward returns: nothing
    is held after it, and a second backward is an error naming the layer."""
    layer = make()
    out = layer.forward(np.random.default_rng(5).normal(size=shape), train=True)
    layer.backward(np.ones_like(out))
    assert layer._saved is None
    with pytest.raises(RuntimeError, match=f"^{re.escape(layer.name)}: .*training-mode forward"):
        layer.backward(np.ones_like(out))


@pytest.mark.parametrize("make, good, bad", [
    (lambda: Conv2d(2, 3, kernel=3, pad=1, dtype=np.float64), (2, 2, 5, 5), (2, 3, 5, 5)),
    (lambda: FixedPool("max", 2, 2), (1, 1, 4, 4), (1, 1, 5, 5)),
    (lambda: BatchNorm2d(2, dtype=np.float64), (2, 2, 3, 3), (2, 3, 3, 3)),
    (lambda: Dense(4, 3, dtype=np.float64), (2, 4), (2, 5)),
    (lambda: PerceptronPool(2, 2, dtype=np.float64), (1, 1, 4, 4), (1, 1, 5, 5)),
], ids=["conv2d", "max", "batchnorm", "dense", "perceptron"])
def test_backward_after_a_forward_that_raised_is_rejected(make, good, bad):
    """A forward that raises leaves nothing for backward, not the state of
    the training forward before it."""
    layer = make()
    out = layer.forward(np.ones(good), train=True)
    with pytest.raises(ValueError):
        layer.forward(np.ones(bad), train=True)
    with pytest.raises(RuntimeError, match="training-mode forward"):
        layer.backward(np.zeros_like(out))


class TestSoftmaxXent:
    def test_uniform_logits_loss_is_log_k(self):
        for k in (2, 10):
            loss, _ = softmax_xent(np.zeros((4, k)), np.zeros(4, dtype=np.int64))
            assert loss == pytest.approx(math.log(k), abs=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 3, 2])
        _, grad = softmax_xent(logits, labels)
        h = 1e-6
        fd = np.zeros_like(logits)
        for i in range(logits.size):
            lp = logits.copy().ravel()
            lm = logits.copy().ravel()
            lp[i] += h
            lm[i] -= h
            fd.ravel()[i] = (softmax_xent(lp.reshape(3, 5), labels)[0]
                             - softmax_xent(lm.reshape(3, 5), labels)[0]) / (2 * h)
        np.testing.assert_allclose(grad, fd, atol=1e-8)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_xent(np.zeros((2, 3)), np.array([0, 3]))


@pytest.mark.parametrize("call, message", [
    (lambda: pool_out_dim(4, 0, 1), "window and stride must be >= 1, got 0, 1"),
    (lambda: pool_out_dim(4, 2, 0), "window and stride must be >= 1, got 2, 0"),
    (lambda: Conv2d(1, 1, stride=0), "stride must be >= 1 and pad >= 0"),
    (lambda: Conv2d(1, 1, pad=-1), "stride must be >= 1 and pad >= 0"),
    (lambda: Conv2d(1, 1, kernel=5, pad=1).forward(np.zeros((1, 1, 2, 2), np.float32)),
     "kernel (5, 5) does not fit input 2x2 with pad 1"),
    (lambda: FixedPool("median"), "mode must be one of ('max', 'average'), got 'median'"),
    (lambda: Dense(18, 3).forward(np.zeros((5, 2, 3, 4), np.float32)),
     "fc: expected (batch, ...) of 18 features, got (5, 2, 3, 4)"),
    (lambda: softmax_xent(np.zeros(3), np.zeros(3, int)), "logits must be (batch, classes), got (3,)"),
    (lambda: softmax_xent(np.zeros((2, 3)), np.zeros((2, 1), int)), "labels must be (2,), got (2, 1)"),
], ids=["window", "stride", "conv-stride", "conv-pad", "conv-kernel", "pool-mode", "dense-features",
        "logits", "labels"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()
