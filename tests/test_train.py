import re
import struct
import sys

import numpy as np
import pytest

from perceptpool import data as data_mod
from perceptpool.config import TrainConfig
from perceptpool.models import build_model
from perceptpool.pooling import PerceptronPool
from perceptpool.train import (TrainingDiverged, _diagnose_nonfinite, evaluate_checkpoint,
                               evaluate_model, load_checkpoint, prepare_data, save_checkpoint,
                               train)

from oracles import add_conv_biases


def tiny_config(**overrides):
    base = dict(model="tiny_synth", pooling_kind="perceptron", epochs=3, seed=11,
                batch_size=50, data_synth_train=200, data_synth_val=100)
    base.update(overrides)
    return TrainConfig(**base)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestTraining:
    def test_learns_the_synthetic_task(self, tmp_path):
        result = train(tiny_config(epochs=6), tmp_path)
        assert result.final_val_acc >= 0.95

    def test_metrics_file_shape(self, tmp_path):
        result = train(tiny_config(), tmp_path)
        lines = result.metrics_path.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert any("pooling.kind = perceptron" in c for c in comments)
        assert body[0] == "epoch,train_loss,train_acc,val_acc,lr,wall_seconds"
        assert len(body) == 1 + 3
        for row in body[1:]:
            fields = row.split(",")
            assert len(fields) == 6
            assert 0.0 <= float(fields[3]) <= 1.0

    def test_same_seed_reproduces_metrics_and_checkpoint(self, tmp_path):
        r1 = train(tiny_config(), tmp_path / "a", timer=FakeClock())
        r2 = train(tiny_config(), tmp_path / "b", timer=FakeClock())
        assert r1.metrics_path.read_bytes() == r2.metrics_path.read_bytes()
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()

    def test_different_seed_changes_course(self, tmp_path):
        r1 = train(tiny_config(seed=1), tmp_path / "a", timer=FakeClock())
        r2 = train(tiny_config(seed=2), tmp_path / "b", timer=FakeClock())
        assert r1.metrics_path.read_bytes() != r2.metrics_path.read_bytes()

    def test_trained_model_holds_no_activations(self, tmp_path, monkeypatch):
        """Neither the end-of-epoch evaluation nor the returned model finds
        any layer still holding the last step's activations."""
        def holding(model):
            return [layer.name for layer in model.layers if layer._saved is not None]

        at_eval = []

        def evaluate(model, *args):
            at_eval.append(holding(model))
            return evaluate_model(model, *args)

        monkeypatch.setattr(sys.modules[train.__module__], "evaluate_model", evaluate)
        result = train(tiny_config(epochs=2), tmp_path)
        assert at_eval == [[], []]
        assert holding(result.model) == []

    def test_zero_lr_factor_keeps_pooling_weights_bit_identical(self, tmp_path):
        cfg = tiny_config(pooling_lr_factor=0.0)
        result = train(cfg, tmp_path)
        pool = result.model.slots["pool1"][0]
        assert isinstance(pool, PerceptronPool)
        # average init is exactly representable, so bits must survive training
        assert np.all(pool.weights == np.float32(0.25))
        assert np.all(pool.bias == 0.0)

    def test_decay_checkpoints_written(self, tmp_path):
        cfg = tiny_config(epochs=4, schedule_epochs=(1,))
        train(cfg, tmp_path)
        assert (tmp_path / "checkpoint_decay1.ckpt").exists()

    def test_lr_follows_schedule_in_metrics(self, tmp_path):
        cfg = tiny_config(epochs=4, schedule_epochs=(2,), optimizer_lr=1e-3)
        result = train(cfg, tmp_path)
        lrs = [row[4] for row in result.rows]
        assert lrs[:2] == [1e-3, 1e-3]
        assert lrs[2] == pytest.approx(1e-4)

    def test_unfillable_balanced_batch_fails_before_writing(self, tmp_path):
        # With seed 1 the default 512 synth training images hold 252 of class 1.
        cfg = TrainConfig(batch_size=512, epochs=1)
        with pytest.raises(ValueError, match=r"batch\.size = 512 needs 256 images of every class, "
                                             r"but the data\.synth_train split holds only 252 of class 1"):
            train(cfg, tmp_path)
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_a_layer(self, tmp_path):
        cfg = tiny_config(optimizer_kind="sgd", optimizer_lr=1e12, epochs=4,
                          pooling_lr_factor=1.0)
        with pytest.raises(TrainingDiverged, match=r"layer \d"):
            train(cfg, tmp_path)

    def test_divergence_diagnosis_keeps_batchnorm_statistics(self):
        cfg = TrainConfig(model="model_a_like", pooling_kind="perceptron", data_kind="cifar10")
        model = build_model(cfg)
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
        model.forward(x)
        before = [(name, arr.copy()) for name, arr in model.state_tensors()]
        assert _diagnose_nonfinite(model, 3 * x) == "loss"
        for (name, old), (_, arr) in zip(before, model.state_tensors()):
            assert old.tobytes() == arr.tobytes(), name


class TestCheckpoints:
    def test_roundtrip_preserves_accuracy_exactly(self, tmp_path):
        result = train(tiny_config(epochs=4), tmp_path)
        dataset = prepare_data(tiny_config(epochs=4))
        direct = evaluate_model(result.model, dataset.val_x, dataset.val_y)
        assert direct == result.final_val_acc
        assert evaluate_checkpoint(result.checkpoint_path) == result.final_val_acc

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        result = train(tiny_config(), tmp_path)
        raw = result.checkpoint_path.read_bytes()
        bad = tmp_path / "trunc.ckpt"
        bad.write_bytes(raw[:-10])
        with pytest.raises(ValueError):
            load_checkpoint(bad)

    def test_every_truncation_names_the_file(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, build_model(cfg), cfg)
        raw = path.read_bytes()
        blob_len = len(cfg.to_text().encode())
        config_end = 8 + 4 + 8 + blob_len
        cuts = {  # byte offset inside each section of the file
            "magic": 3,
            "version": 8 + 2,
            "config length": 8 + 4 + 5,
            "config": 8 + 4 + 8 + blob_len // 2,
            "tensor count": config_end + 4,
            "tensor header": config_end + 8 + 16,
            "tensor payload": config_end + 8 + 32 + 2,
        }
        for section, cut in cuts.items():
            bad = tmp_path / f"cut_{cut}.ckpt"
            bad.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: ")) as err:
                load_checkpoint(bad)
            if section != "magic":
                assert f"truncated {section}" in str(err.value), (section, err.value)

    def test_bytes_after_last_tensor_name_the_file(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "tail.ckpt"
        save_checkpoint(path, build_model(cfg), cfg)
        path.write_bytes(path.read_bytes() + b"garbage tail")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: 12 bytes after the last tensor")):
            load_checkpoint(path)

    @pytest.mark.parametrize("section,value", [
        ("config length", struct.pack("<Q", 2**62)),
        ("config length", struct.pack("<Q", 2**63)),
        ("tensor header", struct.pack("<4Q", 2**59, 1, 1, 1)),
    ], ids=["config_len_2^62", "config_len_2^63", "tensor_dims_2^59"])
    def test_oversized_length_field_names_the_file(self, tmp_path, section, value):
        # a stated length is checked against the bytes left before it is read
        cfg = tiny_config()
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, build_model(cfg), cfg)
        raw = path.read_bytes()
        at = 8 + 4 if section == "config length" else 8 + 4 + 8 + len(cfg.to_text().encode()) + 8
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:at] + value + raw[at + len(value):])
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: ")):
            load_checkpoint(bad)

    def test_permuted_tensor_dims_name_the_file_and_tensor(self, tmp_path):
        # same size, other shape: conv1.weight (8, 1, 3, 3) stored as (1, 8, 3, 3)
        cfg = tiny_config()
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, build_model(cfg), cfg)
        raw = path.read_bytes()
        at = 8 + 4 + 8 + len(cfg.to_text().encode()) + 8
        assert struct.unpack("<4Q", raw[at:at + 32]) == (8, 1, 3, 3)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:at] + struct.pack("<4Q", 1, 8, 3, 3) + raw[at + 32:])
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: conv1.weight")):
            load_checkpoint(bad)

    def test_echo_that_no_longer_parses_names_the_file_and_config(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, build_model(cfg), cfg)
        raw = path.read_bytes()
        assert raw.count(b"\nepochs = 3\n") == 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw.replace(b"\nepochs = 3\n", b"\nepochs = 0\n"))  # same length
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: config: epochs must be >= 1")):
            load_checkpoint(bad)

    def test_older_echo_with_retired_keys_loads(self, tmp_path):
        # older checkpoints echo pooling.sharing, upsample.kind and upsample.units
        result = train(tiny_config(), tmp_path / "run")
        raw = result.checkpoint_path.read_bytes()
        (blob_len,) = struct.unpack("<Q", raw[12:20])
        echo = raw[20:20 + blob_len].decode()
        old_echo = (echo.replace("pooling.units = 1\n", "pooling.units = 1\npooling.sharing = global\n")
                    .replace("pooling.init = average\n",
                             "pooling.init = average\nupsample.kind = \nupsample.units = 4\n"))
        assert old_echo.count("\n") == echo.count("\n") + 3
        old = tmp_path / "old.ckpt"
        old.write_bytes(raw[:12] + struct.pack("<Q", len(old_echo)) + old_echo.encode()
                        + raw[20 + blob_len:])
        assert load_checkpoint(old)[1] == tiny_config()
        assert evaluate_checkpoint(old) == result.final_val_acc

    def test_checkpoint_with_dead_conv_biases_names_the_file(self, tmp_path):
        # model_a_like checkpoints written while conv1 and conv2 had biases
        cfg = TrainConfig(model="model_a_like", pooling_kind="perceptron", data_kind="cifar10")
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, add_conv_biases(build_model(cfg)), cfg)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ") + ".*tensors recorded"):
            load_checkpoint(path)

    def test_state_includes_batchnorm_running_stats(self, tmp_path):
        cfg = TrainConfig(model="model_a_like", pooling_kind="average", data_kind="synth",
                          epochs=1, batch_size=10, data_synth_train=20, data_synth_val=10,
                          data_classes=2)
        # model_a_like expects 3-channel input; synth is single channel, so
        # build/save/load directly instead of training
        model = build_model(cfg)
        names = [n for n, _ in model.state_tensors()]
        assert "bn1.running_mean" in names and "bn2.running_var" in names
        model.forward(np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32))
        save_checkpoint(tmp_path / "m.ckpt", model, cfg)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        np.testing.assert_array_equal(
            loaded.layers[1].running_mean, model.layers[1].running_mean
        )

    def test_chance_level_for_random_model(self):
        cfg = TrainConfig(model="tiny_synth", pooling_kind="perceptron", data_classes=2)
        model = build_model(cfg)
        rng = np.random.default_rng(0)
        for g in model.param_groups():
            g.param[...] = rng.uniform(-0.5, 0.5, g.param.shape)
        x = rng.normal(size=(10_000, 1, 16, 16)).astype(np.float32)
        y = rng.integers(0, 2, 10_000)
        acc = evaluate_model(model, x, y)
        assert acc == pytest.approx(0.5, abs=0.02)

    def test_empty_dataset_rejected(self):
        model = build_model(tiny_config())
        with pytest.raises(ValueError, match="empty"):
            evaluate_model(model, np.zeros((0, 1, 16, 16), dtype=np.float32), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("images, labels", [(1, 2), (300, 250)])
    def test_image_label_count_mismatch_rejected(self, images, labels):
        model = build_model(tiny_config())
        x = np.zeros((images, 1, 16, 16), dtype=np.float32)
        with pytest.raises(ValueError, match=f"{images} images but {labels} labels"):
            evaluate_model(model, x, np.zeros(labels, dtype=int))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        model = build_model(tiny_config())
        x = np.zeros((3, 1, 16, 16), dtype=np.float32)
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            evaluate_model(model, x, np.zeros(3, dtype=int), batch_size=batch_size)


class TestCifarPipeline:
    @pytest.fixture()
    def fake_cifar_root(self, tmp_path):
        rng = np.random.default_rng(0)

        def write(path, per_class):
            records = bytearray()
            for label in np.tile(np.arange(10), per_class):
                records.append(int(label))
                records.extend(rng.integers(0, 256, 3072, dtype=np.uint8).tobytes())
            path.write_bytes(bytes(records))

        for name in data_mod.TRAIN_FILES:
            write(tmp_path / name, per_class=6)
        write(tmp_path / data_mod.TEST_FILE, per_class=4)
        return tmp_path

    def test_end_to_end_on_synthetic_binaries(self, fake_cifar_root, tmp_path):
        cfg = TrainConfig(model="model_c_like", pooling_kind="perceptron",
                          data_kind="cifar10", data_root=str(fake_cifar_root),
                          data_train_size=100, data_val_size=20, data_augment=True,
                          epochs=1, seed=5, batch_size=50)
        result = train(cfg, tmp_path / "run")
        assert len(result.rows) == 1
        assert 0.0 <= result.final_val_acc <= 1.0
        assert result.checkpoint_path.exists()

    def test_identical_batches_across_pooling_variants(self, fake_cifar_root, tmp_path):
        # swapping the pooling operator must not disturb the batch stream
        seen = {}
        for pooling in ("perceptron", "average"):
            cfg = TrainConfig(model="model_c_like", pooling_kind=pooling,
                              data_kind="cifar10", data_root=str(fake_cifar_root),
                              data_train_size=100, seed=5, batch_size=50, epochs=1)
            dataset = prepare_data(cfg)
            seen[pooling] = (dataset.train_y.copy(), dataset.train_x.sum())
        assert np.array_equal(seen["perceptron"][0], seen["average"][0])
        assert seen["perceptron"][1] == seen["average"][1]
