"""CIFAR-10 binary ingestion, preprocessing, augmentation, batching, and a
synthetic blob dataset for fast desk-scale experiments.

CIFAR-10 binary layout: records of 3073 bytes, one label byte followed by
1024 red, 1024 green and 1024 blue bytes in row-major order. Preprocessing
subtracts the per-channel means (122.782, 117.001, 104.298) and divides by
256. Augmentation centers the raw 32x32 image on a zero 40x40 canvas and
crops a random 32x32 region, so augmentation runs on raw bytes and
normalization comes after.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

NUM_CLASSES = 10
IMAGE_SIZE = 32
RECORD_BYTES = 1 + 3 * IMAGE_SIZE * IMAGE_SIZE
CHANNEL_MEANS = np.array([122.782, 117.001, 104.298], dtype=np.float64)
SCALE = 256.0
CROP_PAD = 4

TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILE = "test_batch.bin"

DATA_ROOT_ENV = "PERCEPTPOOL_DATA_ROOT"


def read_cifar_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one CIFAR-10 binary file into (images uint8 (N,3,32,32), labels)."""
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: {len(raw)} bytes is not a whole number of {RECORD_BYTES}-byte records"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) >= NUM_CLASSES:
        raise ValueError(f"{path}: label byte {labels.max()} out of range 0..{NUM_CLASSES - 1}")
    images = records[:, 1:].reshape(-1, 3, IMAGE_SIZE, IMAGE_SIZE)
    return images.copy(), labels


def resolve_data_root(root=None) -> Path:
    root = root or os.environ.get(DATA_ROOT_ENV, "")
    if not root:
        raise FileNotFoundError(
            f"no dataset root given; pass a path or set ${DATA_ROOT_ENV}"
        )
    root = Path(root)
    if (root / "cifar-10-batches-bin").is_dir():
        root = root / "cifar-10-batches-bin"
    return root


def load_cifar10(root=None):
    """Load the full train (50,000) and test (10,000) splits.

    Returns (train_images, train_labels, test_images, test_labels) with
    images as uint8 (N, 3, 32, 32).
    """
    root = resolve_data_root(root)
    xs, ys = [], []
    for name in TRAIN_FILES:
        x, y = read_cifar_file(root / name)
        xs.append(x)
        ys.append(y)
    train_x = np.concatenate(xs)
    train_y = np.concatenate(ys)
    test_x, test_y = read_cifar_file(root / TEST_FILE)
    return train_x, train_y, test_x, test_y


def normalize(images, dtype=np.float32) -> np.ndarray:
    """(x - channel mean) / 256 per channel; accepts (..., 3, H, W). Works
    in place on one float64 copy, so the caller's array is left as it was."""
    x = np.array(images, dtype=np.float64)
    x -= CHANNEL_MEANS[:, None, None]
    x /= SCALE
    return x.astype(dtype, copy=False)


def augment_crop(images, rng: np.random.Generator) -> np.ndarray:
    """Center each image of a (N, C, H, W) batch on a zero canvas CROP_PAD
    pixels wider per side and cut a random original-size crop (offsets
    0..2*CROP_PAD inclusive, per image)."""
    x = np.asarray(images)
    n, c, h, w = x.shape
    pad = CROP_PAD
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, :, pad : pad + h, pad : pad + w] = x
    offsets = rng.integers(0, 2 * pad + 1, size=(n, 2))
    out = np.empty_like(x)
    for i, (oy, ox) in enumerate(offsets):
        out[i] = padded[i, :, oy : oy + h, ox : ox + w]
    return out


def _class_indices(labels, size: int, num_classes: int | None, what: str):
    """(size / K, each class's indices) for K = num_classes or the largest label + 1."""
    labels = np.asarray(labels)
    k = int(num_classes) if num_classes else int(labels.max()) + 1
    if size % k != 0:
        raise ValueError(f"{what} size {size} is not divisible by {k} classes")
    per = size // k
    class_idx = [np.flatnonzero(labels == cls) for cls in range(k)]
    for cls, idx in enumerate(class_idx):
        if len(idx) < per:
            raise ValueError(f"class {cls} has only {len(idx)} examples, need {per} per {what}")
    return per, class_idx


def make_batches(images, labels, batch_size: int, rng: np.random.Generator,
                 balanced: bool = True, num_classes: int | None = None):
    """One epoch of batches as a list of index arrays into (images, labels).

    Balanced mode draws batch_size / K examples per class without
    replacement; once the smallest class is exhausted the remainder of the
    epoch is dropped. Unbalanced mode is a plain shuffle into full batches
    (remainder dropped as well). Deterministic for a given rng state.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if batch_size < 1 or batch_size > n:
        raise ValueError(f"batch_size {batch_size} invalid for {n} examples")
    if not balanced:
        perm = rng.permutation(n)
        return [perm[i * batch_size : (i + 1) * batch_size] for i in range(n // batch_size)]
    per, class_idx = _class_indices(labels, batch_size, num_classes, "batch")
    class_idx = [rng.permutation(idx) for idx in class_idx]
    batches = []
    for b in range(min(len(idx) for idx in class_idx) // per):
        batch = np.concatenate([idx[b * per : (b + 1) * per] for idx in class_idx])
        rng.shuffle(batch)
        batches.append(batch)
    return batches


def balanced_subset(labels, size: int, rng: np.random.Generator,
                    num_classes: int | None = None) -> np.ndarray:
    """Index array selecting size examples with equal class counts."""
    per, class_idx = _class_indices(labels, size, num_classes, "subset")
    out = np.concatenate([rng.choice(idx, size=per, replace=False) for idx in class_idx])
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Synthetic fixture
# ---------------------------------------------------------------------------

SYNTH_SIZE = 16
# Blob centers per class: 0 top-left, 1 bottom-right, then the other corners.
_SYNTH_CENTERS = ((4.5, 4.5), (11.5, 11.5), (4.5, 11.5), (11.5, 4.5))


def synth_dataset(n: int, classes: int = 2, seed: int = 0):
    """Gaussian-blob images (n, 1, 16, 16) float32 whose class stays linearly
    separable after a 4x downscale, plus int64 labels (roughly balanced)."""
    if not 2 <= classes <= len(_SYNTH_CENTERS):
        raise ValueError(f"classes must be in 2..{len(_SYNTH_CENTERS)}, got {classes}")
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % classes).astype(np.int64)
    yy, xx = np.mgrid[0:SYNTH_SIZE, 0:SYNTH_SIZE]
    images = np.empty((n, 1, SYNTH_SIZE, SYNTH_SIZE), dtype=np.float32)
    for i, cls in enumerate(labels):
        cy, cx = _SYNTH_CENTERS[cls]
        cy += rng.uniform(-1.0, 1.0)
        cx += rng.uniform(-1.0, 1.0)
        amp = rng.uniform(0.8, 1.2)
        sigma = rng.uniform(1.4, 2.0)
        blob = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        noise = rng.normal(0.0, 0.05, size=blob.shape)
        images[i, 0] = (blob + noise).astype(np.float32)
    return images, labels

