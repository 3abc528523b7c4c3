import re

import numpy as np
import pytest

from perceptpool import data

from oracles import denormalize, nearest_centroid_accuracy


def write_records(path, labels, pixel_fn=None):
    """Build a CIFAR-style binary file with the given labels."""
    out = bytearray()
    for i, label in enumerate(labels):
        out.append(label)
        if pixel_fn is None:
            out.extend((np.arange(3072, dtype=np.int64) % 251 + i).astype(np.uint8).tobytes())
        else:
            out.extend(pixel_fn(i))
    path.write_bytes(bytes(out))
    return path


class TestBinaryFormat:
    def test_two_record_file(self, tmp_path):
        path = write_records(tmp_path / "batch.bin", [3, 7])
        images, labels = data.read_cifar_file(path)
        assert images.shape == (2, 3, 32, 32)
        assert labels.tolist() == [3, 7]

    def test_channel_plane_order(self, tmp_path):
        def pixels(_):
            return bytes([10] * 1024 + [20] * 1024 + [30] * 1024)

        path = write_records(tmp_path / "batch.bin", [0], pixels)
        images, _ = data.read_cifar_file(path)
        assert np.all(images[0, 0] == 10)
        assert np.all(images[0, 1] == 20)
        assert np.all(images[0, 2] == 30)

    def test_row_major_within_plane(self, tmp_path):
        def pixels(_):
            plane = np.arange(1024, dtype=np.int64) % 256
            return plane.astype(np.uint8).tobytes() * 3

        path = write_records(tmp_path / "batch.bin", [0], pixels)
        images, _ = data.read_cifar_file(path)
        assert images[0, 0, 1, 0] == 32  # second row starts 32 bytes in

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))
        with pytest.raises(ValueError, match="records"):
            data.read_cifar_file(path)

    def test_label_out_of_range(self, tmp_path):
        path = write_records(tmp_path / "bad.bin", [10])
        with pytest.raises(ValueError, match="label"):
            data.read_cifar_file(path)

    def test_load_full_layout(self, tmp_path):
        for name in data.TRAIN_FILES:
            write_records(tmp_path / name, [0, 1, 2, 3])
        write_records(tmp_path / data.TEST_FILE, [4, 5])
        tx, ty, vx, vy = data.load_cifar10(tmp_path)
        assert tx.shape == (20, 3, 32, 32) and len(ty) == 20
        assert vx.shape == (2, 3, 32, 32) and vy.tolist() == [4, 5]

    def test_missing_root_error(self):
        with pytest.raises(FileNotFoundError):
            data.resolve_data_root(None)

    def test_root_descends_into_the_archive_folder(self, tmp_path):
        assert data.resolve_data_root(tmp_path) == tmp_path
        (tmp_path / "cifar-10-batches-bin").mkdir()
        assert data.resolve_data_root(str(tmp_path)) == tmp_path / "cifar-10-batches-bin"


class TestNormalize:
    def test_red_mean_maps_to_zero(self):
        img = np.zeros((1, 3, 32, 32))
        img[0, 0] = 122.782
        assert data.normalize(img)[0, 0, 0, 0] == pytest.approx(0.0, abs=1e-7)

    def test_blue_zero(self):
        img = np.zeros((1, 3, 2, 2))
        out = data.normalize(img, dtype=np.float64)
        assert out[0, 2, 0, 0] == pytest.approx(-0.4074140625, abs=1e-12)

    def test_green_255(self):
        img = np.zeros((1, 3, 2, 2))
        img[0, 1] = 255.0
        out = data.normalize(img, dtype=np.float64)
        assert out[0, 1, 0, 0] == pytest.approx(0.53905859375, abs=1e-12)

    def test_roundtrip_restores_bytes_exactly(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(4, 3, 32, 32), dtype=np.uint8)
        back = denormalize(data.normalize(raw, dtype=np.float64))
        assert np.array_equal(back, raw)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("source", ["uint8", "float64", "strided"])
    def test_in_place_equals_the_out_of_place_formula(self, source, dtype):
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 256, size=(6, 3, 8, 8), dtype=np.uint8)
        images = {"uint8": raw, "float64": raw + rng.uniform(size=raw.shape),
                  "strided": raw[::2, :, ::2, 1::3]}[source]
        before = images.copy()
        expected = ((np.asarray(images, dtype=np.float64) - data.CHANNEL_MEANS[:, None, None])
                    / data.SCALE).astype(dtype)
        out = data.normalize(images, dtype=dtype)
        assert out.dtype == dtype and out.tobytes() == expected.tobytes()
        assert images.tobytes() == before.tobytes()


class TestAugmentCrop:
    def test_center_offset_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 256, size=(1, 3, 32, 32)).astype(np.float64)
        padded = np.zeros((1, 3, 40, 40))
        padded[:, :, 4:36, 4:36] = x
        np.testing.assert_array_equal(padded[:, :, 4:36, 4:36], x)

        class FixedRng:
            def integers(self, lo, hi, size):
                return np.full(size, 4)

        np.testing.assert_array_equal(data.augment_crop(x, FixedRng()), x)

    def test_zero_offset_shifts_and_pads(self):
        x = np.ones((1, 1, 32, 32))

        class ZeroRng:
            def integers(self, lo, hi, size):
                return np.zeros(size, dtype=int)

        out = data.augment_crop(x, ZeroRng())
        assert np.all(out[0, 0, :4, :] == 0.0) and np.all(out[0, 0, :, :4] == 0.0)
        assert np.all(out[0, 0, 4:, 4:] == 1.0)

    def test_shape_preserved_and_sum_never_grows(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 256, size=(8, 3, 32, 32)).astype(np.float64)
        total = x.sum()
        for _ in range(50):
            out = data.augment_crop(x, rng)
            assert out.shape == x.shape
            assert out.sum() <= total


class TestBatches:
    def test_balanced_batches_have_uniform_histogram(self):
        rng = np.random.default_rng(2)
        labels = np.repeat(np.arange(10), 20)
        batches = data.make_batches(np.zeros((200, 1)), labels, 50, rng, balanced=True)
        for idx in batches:
            counts = np.bincount(labels[idx], minlength=10)
            assert np.all(counts == 5)

    def test_seeded_sequence_is_reproducible(self):
        labels = np.repeat(np.arange(5), 10)
        a = data.make_batches(np.zeros((50, 1)), labels, 10, np.random.default_rng(7))
        b = data.make_batches(np.zeros((50, 1)), labels, 10, np.random.default_rng(7))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_unbalanced_drops_remainder(self):
        rng = np.random.default_rng(3)
        batches = data.make_batches(np.zeros((100, 1)), np.zeros(100, dtype=int), 32, rng,
                                    balanced=False)
        assert len(batches) == 3
        assert all(len(b) == 32 for b in batches)

    def test_epoch_visits_each_example_at_most_once(self):
        rng = np.random.default_rng(4)
        labels = np.repeat(np.arange(10), 21)  # 210 examples, remainder dropped
        batches = data.make_batches(np.zeros((210, 1)), labels, 50, rng, balanced=True)
        seen = np.concatenate(batches)
        assert len(seen) == len(np.unique(seen))

    def test_batch_size_must_divide_by_classes(self):
        with pytest.raises(ValueError, match="batch size 33 is not divisible by 10 classes"):
            data.make_batches(np.zeros((100, 1)), np.arange(100) % 10, 33,
                              np.random.default_rng(0), balanced=True)

    def test_subset_size_must_divide_by_classes(self):
        with pytest.raises(ValueError, match="subset size 33 is not divisible by 10 classes"):
            data.balanced_subset(np.arange(100) % 10, 33, np.random.default_rng(0))

    def test_short_class_named(self):
        labels = np.repeat(np.arange(4), [10, 10, 3, 10])
        with pytest.raises(ValueError, match="class 2 has only 3 examples, need 5 per batch"):
            data.make_batches(np.zeros((33, 1)), labels, 20, np.random.default_rng(0))
        with pytest.raises(ValueError, match="class 2 has only 3 examples, need 5 per subset"):
            data.balanced_subset(labels, 20, np.random.default_rng(0))

    def test_balanced_subset_is_balanced(self):
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(10), 100)
        idx = data.balanced_subset(labels, 200, rng)
        assert np.all(np.bincount(labels[idx]) == 20)


class TestSynthDataset:
    def test_blob_positions_by_class(self):
        x, y = data.synth_dataset(200, classes=2, seed=0)
        tl = x[:, 0, :8, :8].sum(axis=(1, 2))
        br = x[:, 0, 8:, 8:].sum(axis=(1, 2))
        assert np.all((tl > br) == (y == 0))

    def test_same_seed_same_dataset(self):
        x1, y1 = data.synth_dataset(64, seed=9)
        x2, y2 = data.synth_dataset(64, seed=9)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_nearest_centroid_oracle_beats_95_percent(self):
        x, y = data.synth_dataset(400, classes=2, seed=1)
        assert nearest_centroid_accuracy(x, y) >= 0.95

    def test_four_classes_still_separable(self):
        x, y = data.synth_dataset(400, classes=4, seed=2)
        assert nearest_centroid_accuracy(x, y) >= 0.95


@pytest.mark.parametrize("call, message", [
    (lambda: data.make_batches(np.zeros((4, 1)), np.zeros(4, int), 0, np.random.default_rng(0)),
     "batch_size 0 invalid for 4 examples"),
    (lambda: data.make_batches(np.zeros((4, 1)), np.zeros(4, int), 5, np.random.default_rng(0)),
     "batch_size 5 invalid for 4 examples"),
    (lambda: data.synth_dataset(8, classes=1), "classes must be in 2..4, got 1"),
    (lambda: data.synth_dataset(8, classes=5), "classes must be in 2..4, got 5"),
], ids=["batch-below-1", "batch-above-n", "one-class", "five-classes"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()
