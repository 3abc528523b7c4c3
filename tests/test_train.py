import io
import re
import struct
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest

from perceptpool import data as data_mod
from perceptpool.config import POOLING_KINDS, TrainConfig
from perceptpool.layers import _BLAS_THREADS
from perceptpool.models import build_model
from perceptpool.pooling import PerceptronPool
from perceptpool.train import (TrainingDiverged, _diagnose_nonfinite, evaluate_checkpoint,
                               evaluate_model, load_checkpoint, prepare_data, save_checkpoint,
                               train)

from oracles import add_conv_biases, run_python


def tiny_config(**overrides):
    base = dict(model="tiny_synth", pooling_kind="perceptron", epochs=3, seed=11,
                batch_size=50, data_synth_train=200, data_synth_val=100)
    base.update(overrides)
    return TrainConfig(**base)


def archive_members(model, echo):
    """The members save_checkpoint writes, with `echo` as the config."""
    return {"config": np.frombuffer(echo.encode(), dtype=np.uint8),
            **{name: arr for name, arr in model.state_tensors()}}


def with_npy_header(src, dst, member, header):
    """Copy archive `src` to `dst` with `member`'s .npy header replaced; the
    payload is kept, and zipfile writes a CRC that matches the new bytes."""
    with zipfile.ZipFile(src) as archive, zipfile.ZipFile(dst, "w") as out:
        for info in archive.infolist():
            data = archive.read(info)
            if info.filename == f"{member}.npy":
                src_f = io.BytesIO(data)
                np.lib.format.read_magic(src_f)
                np.lib.format.read_array_header_1_0(src_f)
                head = io.BytesIO()
                np.lib.format.write_array_header_1_0(head, header)
                data = head.getvalue() + src_f.read()
            out.writestr(info.filename, data)


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

    @pytest.mark.skipif(_BLAS_THREADS is None, reason="no OpenBLAS found")
    def test_training_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # Every layer call runs its GEMMs at one BLAS thread, on a partition
        # that the thread count does not change.
        code = (
            "import hashlib, itertools\n"
            "from perceptpool import TrainConfig\n"
            "from perceptpool.train import train\n"
            "cfg = TrainConfig(model='tiny_synth', pooling_kind='perceptron', epochs=2, seed=11,\n"
            "                  batch_size=50, data_synth_train=200, data_synth_val=100)\n"
            "clock = itertools.count(1.0)  # FakeClock's 1, 2, 3, ...\n"
            "r = train(cfg, {out!r}, timer=lambda: next(clock))\n"
            "for path in (r.metrics_path, r.checkpoint_path):\n"
            "    print(hashlib.sha256(path.read_bytes()).hexdigest())\n"
        )
        one, two = (run_python(code.format(out=str(tmp_path / n)), OPENBLAS_NUM_THREADS=n)
                    for n in ("1", "2"))
        assert one == two

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
        with zipfile.ZipFile(path) as archive:
            starts = [info.header_offset for info in archive.infolist()]
        cuts = {*range(0, len(raw), 97), *starts, *(s + 40 for s in starts),
                *(len(raw) - k for k in (1, 21, 22, 23, 100))}
        for cut in sorted(cuts - {len(raw)}):
            bad = tmp_path / f"cut_{cut}.ckpt"
            bad.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: ") + "(.*bad magic|no end record)"):
                load_checkpoint(bad)

    def test_bytes_after_the_archive_name_the_file(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "tail.ckpt"
        save_checkpoint(path, build_model(cfg), cfg)
        path.write_bytes(path.read_bytes() + b"garbage tail")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: no end record")):
            load_checkpoint(path)

    @pytest.mark.parametrize("member,descr,shape", [
        ("conv1.weight", "<f4", (2**59,)),
        ("conv1.weight", "<f4", (1, 8, 3, 3)),  # same size, the model has (8, 1, 3, 3)
        ("conv1.weight", "<f8", (8, 1, 3, 3)),
        ("config", "|u1", (2**62,)),
    ], ids=["tensor_2^59", "tensor_permuted", "tensor_float64", "config_2^62"])
    def test_stored_shape_or_dtype_names_the_file_and_member(self, tmp_path, member, descr, shape):
        # a tensor's header is checked against the model before its payload is
        # read, and no payload is read past the end of its member
        cfg = tiny_config()
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, build_model(cfg), cfg)
        bad = tmp_path / "bad.ckpt"
        with_npy_header(path, bad, member, {"descr": descr, "fortran_order": False, "shape": shape})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: {member}: ")):
                load_checkpoint(bad)
            assert tracemalloc.get_traced_memory()[1] < 2**24
        finally:
            tracemalloc.stop()

    def test_oversized_member_size_names_the_file(self, tmp_path):
        # the central directory's compressed size of the first member, set past the file's end
        cfg = tiny_config()
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, build_model(cfg), cfg)
        raw = bytearray(path.read_bytes())
        at = raw.index(b"PK\x01\x02") + 20
        raw[at:at + 4] = struct.pack("<I", 2**32 - 2)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: a member states more bytes")):
            load_checkpoint(bad)

    def test_flipped_payload_byte_names_the_file_and_tensor(self, tmp_path):
        cfg = tiny_config()
        model = build_model(cfg)
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, model, cfg)
        raw = bytearray(path.read_bytes())
        at = raw.index(model.layers[0].weights.tobytes()) + 10
        raw[at] ^= 0x01
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: conv1.weight: ") + ".*CRC"):
            load_checkpoint(bad)

    def test_v1_checkpoint_fails_with_bad_magic(self, tmp_path):
        # the retired layout: magic, uint32 version, uint64 echo length, echo, tensors
        echo = tiny_config().to_text().encode()
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"PPOOLCK1" + struct.pack("<IQ", 1, len(echo)) + echo + struct.pack("<Q", 0))
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ") + ".*bad magic b'PPOO'"):
            load_checkpoint(path)

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        path = tmp_path / "checkpoint.ckpt"
        save_checkpoint(path, build_model(cfg), cfg)
        before = path.read_bytes()

        def savez(f, **members):
            f.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, build_model(tiny_config(seed=12)), cfg)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.ckpt"]

    def test_echo_that_no_longer_parses_names_the_file_and_config(self, tmp_path):
        cfg = tiny_config()
        bad = tmp_path / "bad.ckpt"
        echo = cfg.to_text().replace("\nepochs = 3\n", "\nepochs = 0\n")
        assert echo != cfg.to_text()
        with bad.open("wb") as f:
            np.savez(f, **archive_members(build_model(cfg), echo))
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: config: epochs must be >= 1")):
            load_checkpoint(bad)

    @pytest.mark.parametrize("line", ["pooling.sharing = global", "pooling.window = 2"])
    def test_echo_with_a_key_nothing_writes_names_the_file_and_key(self, tmp_path, line):
        # an echo written before the key was retired holds it
        cfg = tiny_config()
        echo = cfg.to_text().replace("pooling.kind = perceptron\n",
                                     f"pooling.kind = perceptron\n{line}\n")
        assert echo.count("\n") == cfg.to_text().count("\n") + 1
        bad = tmp_path / "bad.ckpt"
        with bad.open("wb") as f:
            np.savez(f, **archive_members(build_model(cfg), echo))
        key = line.split(" = ")[0]
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: config: line ")
                           + rf"\d+: unknown config key '{re.escape(key)}'"):
            load_checkpoint(bad)

    def test_checkpoint_with_dead_conv_biases_names_the_file(self, tmp_path):
        # model_a_like checkpoints written while conv1 and conv2 had biases
        cfg = TrainConfig(model="model_a_like", pooling_kind="perceptron", data_kind="cifar10")
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, add_conv_biases(build_model(cfg)), cfg)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ") + ".*tensors recorded"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    def test_model_a_roundtrip_is_bit_exact_for_every_pooling_kind(self, tmp_path, kind):
        cfg = TrainConfig(model="model_a_like", pooling_kind=kind, data_kind="cifar10")
        model = build_model(cfg)
        rng = np.random.default_rng(0)
        model.forward(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))  # running statistics
        for _, arr in model.state_tensors():
            arr += rng.normal(size=arr.shape).astype(arr.dtype)
        save_checkpoint(tmp_path / "m.ckpt", model, cfg)
        loaded, loaded_cfg = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded_cfg == cfg
        stored = loaded.state_tensors()
        names = [name for name, _ in stored]
        assert names == [name for name, _ in model.state_tensors()]
        assert "bn1.running_mean" in names and "bn2.running_var" in names
        for (name, old), (_, new) in zip(model.state_tensors(), stored):
            assert old.shape == new.shape and old.tobytes() == new.tobytes(), name

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
