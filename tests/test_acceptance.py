"""Acceptance checklist.

One test (or tight group) per criterion; the conftest plugin prints a
PASS/FAIL line per criterion in the terminal summary. Checks needing the
official CIFAR-10 binaries skip with instructions when no dataset root is
available.
"""

import os
import time

import numpy as np
import pytest

from perceptpool import data as data_mod
from perceptpool.cli import build_check_layer
from perceptpool.config import TrainConfig
from perceptpool.gradcheck import check_layer
from perceptpool.layers import FixedPool
from perceptpool.models import audit_params
from perceptpool.pooling import MlpPoolStack, PerceptronPool, PerceptronUpsample, param_count
from perceptpool.train import train

from oracles import complexity_probe, loglog_slope


def cifar_root():
    root = os.environ.get(data_mod.DATA_ROOT_ENV, "")
    if not root:
        pytest.skip(f"official CIFAR-10 binaries not available; set ${data_mod.DATA_ROOT_ENV}")
    root = data_mod.resolve_data_root(root)
    missing = [n for n in data_mod.TRAIN_FILES + (data_mod.TEST_FILE,) if not (root / n).exists()]
    if missing:
        pytest.skip(f"CIFAR-10 files missing under {root}: {missing}")
    return root


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def desk_config(**overrides):
    base = dict(model="tiny_synth", pooling_kind="perceptron", epochs=20, seed=7,
                batch_size=50, data_synth_train=512, data_synth_val=256)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.mark.criterion(1, "average-equivalence of average-initialized perceptron pooling")
def test_criterion_1_average_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    fixed = FixedPool("average", 2, 2)
    for _ in range(100):
        b = int(rng.integers(1, 4))
        c = int(rng.integers(1, 6))
        hw = int(rng.choice([4, 6, 8, 10, 16]))
        x = rng.uniform(-10, 10, (b, c, hw, hw))
        pool = PerceptronPool(2, 2, dtype=np.float64)
        got = pool.forward(x)
        want = fixed.forward(x)
        assert np.max(np.abs(got - want)) < 1e-12
    assert time.perf_counter() - start < 1.0


@pytest.mark.criterion(2, "gradient suite at 1e-4 across every layer kind")
def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    specs = [
        "conv2d", "dense", "batchnorm", "max", "average", "strided_conv",
        "perceptron", "nn_z", "nn_field", "nn_tensor", "nn_4_1", "nn_16_1",
        "upsample:units=4", "upsample:units=16",
    ]
    for spec in specs:
        layer, shape = build_check_layer(spec)
        report = check_layer(layer, shape, seed=42, tolerance=1e-4, h=1e-5)
        assert report.passed, f"{spec}:\n{report.format()}"
    assert time.perf_counter() - start < 120.0


@pytest.mark.criterion(3, "parameter audit reproduces the checklist counts")
def test_criterion_3_parameter_audit():
    expected = [
        ("model_a_like", "perceptron", True, 10),
        ("model_a_like", "perceptron", False, 8),
        ("model_a_like", "nn_4_1", True, 50),
        ("model_a_like", "nn_field", True, 1_600),
        ("model_a_like", "nn_tensor", True, 122_880),
        ("model_a_like", "strided_conv", True, 82_112),
        ("model_a_like", "nn_16_1", True, 194),
        ("model_c_like", "perceptron", True, 15),
        ("model_c_like", "nn_4_1", True, 75),
        ("model_c_like", "strided_conv", True, 344_512),
    ]
    for model, pooling, bias, count in expected:
        cfg = TrainConfig(model=model, pooling_kind=pooling, pooling_use_bias=bias,
                          data_kind="cifar10")
        assert audit_params(cfg).pooling_total == count, (model, pooling)
    # replacing an 8x8 global average pooling with one perceptron adds 65
    assert param_count(PerceptronPool(8, 8)) == 65
    # the per-channel variant: the formula gives (64 + 128) * 5 = 960 for
    # these channel widths; the checklist carries a 770 figure for it that
    # no channel widths consistent with the other counts can produce, so
    # that number is excluded here by the checklist's own instruction
    cfg = TrainConfig(model="model_a_like", pooling_kind="nn_z", data_kind="cifar10")
    assert audit_params(cfg).pooling_total == 960


def _shape_cases(seed=200, n=20):
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(1, 4)), int(rng.integers(1, 8))) for _ in range(n)]


@pytest.mark.criterion(4, "shape laws on 32x32 inputs")
def test_criterion_4_shape_laws():
    for b, c in _shape_cases():
        x = np.zeros((b, c, 32, 32), dtype=np.float64)
        nn41 = MlpPoolStack([PerceptronPool(2, 2, units=4, dtype=np.float64),
                             PerceptronPool(2, 2, units=1, dtype=np.float64)])
        assert nn41.forward(x).shape == (b, c, 16, 16)
        nn161 = MlpPoolStack([PerceptronPool(2, 2, units=16, dtype=np.float64),
                              PerceptronPool(4, 4, units=1, dtype=np.float64)])
        assert nn161.forward(x).shape == (b, c, 16, 16)
        up = PerceptronUpsample(window=2, units=4, dtype=np.float64)
        assert up.forward(x).shape == (b, c, 64, 64)


@pytest.mark.criterion(4, "shape laws on 32x32 inputs")
def test_criterion_4_nn_16_1_intermediate_as_stated():
    """The acceptance checklist pins the hidden-layer output of the 16-unit
    stack at 32x32 for a 32x32 input. That size is unreachable: sixteen
    units rearrange every window output into a 4x4 block, so a 2x2/2 hidden
    layer (the only window consistent with the 97-parameter count this same
    checklist requires) maps 32x32 to 64x64. The assertion is kept as
    stated and fails by construction; see the project notes.
    """
    stack = MlpPoolStack([PerceptronPool(2, 2, units=16, dtype=np.float64),
                          PerceptronPool(4, 4, units=1, dtype=np.float64)])
    x = np.zeros((1, 2, 32, 32), dtype=np.float64)
    intermediate = stack.layers[0].forward(x)
    assert intermediate.shape == (1, 2, 32, 32)


@pytest.mark.criterion(5, "desk-scale learning on the synthetic fixture")
def test_criterion_5_desk_scale_learning(tmp_path):
    start = time.perf_counter()
    result = train(desk_config(), tmp_path / "main")
    elapsed = time.perf_counter() - start
    assert result.final_val_acc >= 0.95
    assert elapsed < 120.0

    frozen = train(desk_config(pooling_lr_factor=0.0), tmp_path / "frozen")
    pool = frozen.model.slots["pool1"][0]
    init = np.full_like(pool.weights, 0.25)
    assert pool.weights.tobytes() == init.tobytes()
    assert np.all(pool.bias == 0.0)


@pytest.mark.criterion(6, "scaled CIFAR-10 ordering: perceptron vs average pooling")
def test_criterion_6_cifar_ordering(tmp_path):
    root = cifar_root()
    start = time.perf_counter()
    common = dict(model="model_c_like", data_kind="cifar10", data_root=str(root),
                  data_train_size=5_000, data_val_size=2_000, data_augment=True,
                  epochs=15, seed=321, batch_size=50, optimizer_kind="adam",
                  optimizer_lr=1e-3, optimizer_weight_decay=5e-5)
    perceptron = train(TrainConfig(pooling_kind="perceptron", **common), tmp_path / "p")
    average = train(TrainConfig(pooling_kind="average", **common), tmp_path / "a")
    elapsed = time.perf_counter() - start
    assert perceptron.final_val_acc >= average.final_val_acc - 0.01, (
        f"perceptron {perceptron.final_val_acc:.4f} vs average {average.final_val_acc:.4f}"
    )
    assert elapsed < 1_800.0


@pytest.mark.criterion(7, "forward cost scales linearly with input area")
def test_criterion_7_complexity_linearity():
    start = time.perf_counter()
    rows = complexity_probe(lambda: PerceptronPool(2, 2, dtype=np.float32),
                            [64, 128, 256, 512], batch=2, channels=8, repeats=4,
                            min_seconds=0.03)
    slope = loglog_slope(rows)
    assert 0.8 <= slope <= 1.3, f"slope {slope:.3f} from {rows}"
    assert time.perf_counter() - start < 60.0


@pytest.mark.criterion(8, "bit-identical reruns under a fixed seed")
def test_criterion_8_determinism(tmp_path):
    r1 = train(desk_config(), tmp_path / "one", timer=FakeClock())
    r2 = train(desk_config(), tmp_path / "two", timer=FakeClock())
    assert r1.metrics_path.read_bytes() == r2.metrics_path.read_bytes()
    assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()


@pytest.mark.criterion(9, "CIFAR-10 ingestion and normalization constants")
def test_criterion_9_official_set_parses():
    root = cifar_root()
    train_x, train_y, test_x, test_y = data_mod.load_cifar10(root)
    assert train_x.shape == (50_000, 3, 32, 32)
    assert test_x.shape == (10_000, 3, 32, 32)
    assert np.all(np.bincount(train_y, minlength=10) == 5_000)


@pytest.mark.criterion(9, "CIFAR-10 ingestion and normalization constants")
def test_criterion_9_red_mean_normalizes_to_zero():
    img = np.zeros((1, 3, 32, 32))
    img[0, 0] = 122.782
    out = data_mod.normalize(img, dtype=np.float64)
    assert out[0, 0, 0, 0] == 0.0
