"""Training driver: batching, optimization, metrics, checkpoints.

Runs are deterministic for a fixed seed: data order, augmentation and
initialization each draw from a generator models.rng_for(seed, purpose), so
the batch stream is identical across pooling variants of the same seed.
Wall-clock timing comes from an injectable `timer` so tests can compare
metrics files byte for byte.
"""

from __future__ import annotations

import os
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from .config import TrainConfig, parse_config
from .models import Sequential, build_model, rng_for
from .layers import softmax_xent
from .optim import make_optimizer

METRICS_HEADER = "epoch,train_loss,train_acc,val_acc,lr,wall_seconds"


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class Dataset:
    train_x: np.ndarray  # raw pixels for cifar10 (uint8), floats for synth
    train_y: np.ndarray
    val_x: np.ndarray    # already normalized, ready for forward
    val_y: np.ndarray
    raw: bool            # True when train_x needs augment+normalize per batch


def prepare_data(cfg: TrainConfig) -> Dataset:
    if cfg.data_kind == "synth":
        n = cfg.data_synth_train + cfg.data_synth_val
        seed_seq = np.random.SeedSequence((cfg.seed, zlib_tag("synth")))
        x, y = data_mod.synth_dataset(n, classes=cfg.num_classes,
                                      seed=int(seed_seq.generate_state(1)[0]))
        tx, ty = x[: cfg.data_synth_train], y[: cfg.data_synth_train]
        vx, vy = x[cfg.data_synth_train :], y[cfg.data_synth_train :]
        return Dataset(tx, ty, vx, vy, raw=False)
    train_x, train_y, test_x, test_y = data_mod.load_cifar10(cfg.data_root or None)
    rng = rng_for(cfg.seed, "subset")
    if cfg.data_train_size:
        idx = data_mod.balanced_subset(train_y, cfg.data_train_size, rng, cfg.num_classes)
        train_x, train_y = train_x[idx], train_y[idx]
    if cfg.data_val_size:
        idx = data_mod.balanced_subset(test_y, cfg.data_val_size, rng, cfg.num_classes)
        test_x, test_y = test_x[idx], test_y[idx]
    return Dataset(train_x, train_y, data_mod.normalize(test_x), test_y, raw=True)


def zlib_tag(name: str) -> int:
    return zlib.crc32(name.encode())


def evaluate_model(model: Sequential, x: np.ndarray, y: np.ndarray, batch_size: int = 250) -> float:
    """Top-1 accuracy in eval mode (running batchnorm statistics).

    `batch_size` is the number of images per `model.forward` call. It does
    not bound memory: `Sequential` runs an eval forward in cache-sized
    blocks whatever the batch, on one walker per allowed CPU, each with one
    BLAS thread. The process's BLAS thread count is restored after every
    call, so the training steps that follow run as they did before it."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(x) != len(y):
        raise ValueError(f"{len(x)} images but {len(y)} labels")
    if len(y) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    for start in range(0, len(y), batch_size):
        logits = model.forward(x[start : start + batch_size], train=False)
        correct += int((logits.argmax(axis=1) == y[start : start + batch_size]).sum())
    return correct / len(y)


def _diagnose_nonfinite(model: Sequential, batch: np.ndarray) -> str:
    """First layer whose output is non-finite, rerun in train mode (batch
    statistics) and leaving the model's state tensors as they were."""
    saved = [arr.copy() for _, arr in model.state_tensors()]
    try:
        x = batch
        for i, layer in enumerate(model.layers):
            x = layer.forward(x, train=True)
            if not np.all(np.isfinite(x)):
                return f"layer {i} ({layer.name or type(layer).__name__})"
        return "loss"
    finally:
        for (_, arr), old in zip(model.state_tensors(), saved):
            arr[...] = old


@dataclass
class TrainResult:
    checkpoint_path: Path
    metrics_path: Path
    rows: list[tuple]
    model: Sequential
    final_val_acc: float


def train(cfg: TrainConfig, out_dir, timer=time.perf_counter, log=None) -> TrainResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = prepare_data(cfg)
    counts = np.bincount(dataset.train_y, minlength=cfg.num_classes)  # make_batches checks only mid-run
    if cfg.batch_balanced and counts.min() < (per := cfg.batch_size // cfg.num_classes):
        key = "data.synth_train" if cfg.data_kind == "synth" else "data.train_size"
        raise ValueError(f"batch.size = {cfg.batch_size} needs {per} images of every class, but the "
                         f"{key} split holds only {counts.min()} of class {counts.argmin()}")
    model = build_model(cfg)
    optimizer = make_optimizer(
        cfg.optimizer_kind, model.param_groups(), lr=cfg.optimizer_lr,
        momentum=cfg.optimizer_momentum, beta1=cfg.optimizer_beta1,
        beta2=cfg.optimizer_beta2, weight_decay=cfg.optimizer_weight_decay,
    )
    batch_rng = rng_for(cfg.seed, "batches")
    augment_rng = rng_for(cfg.seed, "augment")

    metrics_path = out_dir / "metrics.csv"
    with metrics_path.open("w") as f:
        for line in cfg.to_text().splitlines():
            f.write(f"# {line}\n")
        f.write(METRICS_HEADER + "\n")

    rows = []
    start_time = timer()
    val_acc = 0.0
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        losses = []
        correct = 0
        seen = 0
        batches = data_mod.make_batches(dataset.train_x, dataset.train_y, cfg.batch_size,
                                        batch_rng, balanced=cfg.batch_balanced,
                                        num_classes=cfg.num_classes)
        for idx in batches:
            xb, yb = dataset.train_x[idx], dataset.train_y[idx]
            if dataset.raw:
                if cfg.data_augment:
                    xb = data_mod.augment_crop(xb, augment_rng)
                xb = data_mod.normalize(xb)
            logits = model.forward(xb, train=True)
            loss, dlogits = softmax_xent(logits, yb)
            if not np.isfinite(loss):
                where = _diagnose_nonfinite(model, xb)
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}; first non-finite values in {where}"
                )
            losses.append(loss)
            correct += int((logits.argmax(axis=1) == yb).sum())
            seen += len(yb)
            model.zero_grad()
            model.backward(dlogits)
            optimizer.step(lr)
        val_acc = evaluate_model(model, dataset.val_x, dataset.val_y)
        row = (epoch, float(np.mean(losses)), correct / seen, val_acc, lr, timer() - start_time)
        rows.append(row)
        with metrics_path.open("a") as f:
            f.write(f"{row[0]},{row[1]:.6f},{row[2]:.6f},{row[3]:.6f},{row[4]:.8g},{row[5]:.3f}\n")
        if log:
            log(f"epoch {epoch}: loss {row[1]:.4f} train_acc {row[2]:.3f} val_acc {row[3]:.3f} lr {lr:g}")
        if epoch in cfg.schedule_epochs:
            save_checkpoint(out_dir / f"checkpoint_decay{epoch}.ckpt", model, cfg)

    checkpoint_path = out_dir / "checkpoint.ckpt"
    save_checkpoint(checkpoint_path, model, cfg)
    return TrainResult(checkpoint_path, metrics_path, rows, model, val_acc)


# Checkpoints: one np.savez archive, a zip with a CRC-32 per member: `config`
# (the config echo, UTF-8 as uint8) and each float32 state tensor by its name.

def save_checkpoint(path, model: Sequential, cfg: TrainConfig) -> None:
    """Write to `path`.tmp, fsync, then os.replace: a failed write keeps the old file."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:  # np.savez would append ".npz" to a path
            np.savez(f, config=np.frombuffer(cfg.to_text().encode(), dtype=np.uint8),
                     **{name: np.asarray(arr, dtype="<f4") for name, arr in model.state_tensors()})
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[Sequential, TrainConfig]:
    """Rebuild the stored model; malformed content raises a ValueError naming the path."""
    try:
        with open(path, "rb") as f:
            return _read_checkpoint(f)
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path}: {e}") from None


def _read_checkpoint(f) -> tuple[Sequential, TrainConfig]:
    if (magic := f.read(4)) != b"PK\x03\x04":
        raise ValueError(f"not a checkpoint archive (bad magic {magic!r})")
    size = f.seek(0, 2)
    f.seek(max(size - 22, 0))  # np.savez writes no archive comment
    if f.read(4) != b"PK\x05\x06":
        raise ValueError("no end record in the last 22 bytes: truncated, or bytes after the archive")
    with zipfile.ZipFile(f) as archive:
        if any(info.compress_size > size for info in archive.infolist()):
            raise ValueError(f"a member states more bytes than the file's {size}")
        echo = _read_member(archive, "config", np.dtype("u1")).tobytes()
        try:
            cfg = parse_config(echo.decode())
        except ValueError as e:
            raise ValueError(f"config: {e}") from None
        model = build_model(cfg)
        tensors = model.state_tensors()
        wanted = sorted(["config.npy"] + [f"{name}.npy" for name, _ in tensors])
        if (stored := sorted(archive.namelist())) != wanted:
            raise ValueError(f"{len(stored) - 1} tensors recorded, model has {len(tensors)} "
                             f"(members that differ: {sorted(set(stored) ^ set(wanted))})")
        for name, arr in tensors:
            arr[...] = _read_member(archive, name, np.dtype("<f4"), arr.shape)
    return model, cfg


def _read_member(archive, name, dtype, shape=None) -> np.ndarray:
    """Member `name`, its .npy header checked against `dtype` and `shape` (None:
    any 1-D) before the payload is read to its end, where zipfile checks the CRC
    (a payload of the wrong size then fails to reshape)."""
    try:
        with archive.open(f"{name}.npy") as f:
            np.lib.format.read_magic(f)  # a header other than 1.0 fails to parse below
            stored, fortran_order, stored_dtype = np.lib.format.read_array_header_1_0(f)
            if (stored_dtype, fortran_order, stored) != (dtype, False, shape or stored[:1]):
                raise ValueError(f"stored {stored_dtype} {stored}{' in Fortran order' * fortran_order}, "
                                 f"expected {dtype} {shape or '(n,)'}")
            return np.frombuffer(f.read(), dtype=dtype).reshape(stored)
    except (ValueError, EOFError, KeyError, zipfile.BadZipFile) as e:
        raise ValueError(f"{name}: {e}") from None


def evaluate_checkpoint(path) -> float:
    """Accuracy of a stored model on the validation split of its own config."""
    model, cfg = load_checkpoint(path)
    dataset = prepare_data(cfg)
    return evaluate_model(model, dataset.val_x, dataset.val_y)
