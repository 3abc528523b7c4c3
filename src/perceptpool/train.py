"""Training driver: batching, optimization, metrics, checkpoints.

Runs are deterministic for a fixed seed: data order, augmentation and
initialization each draw from generators derived from (seed, purpose), so
the batch stream is identical across pooling variants of the same seed.
Wall-clock timing comes from an injectable `timer` so tests can compare
metrics files byte for byte.
"""

from __future__ import annotations

import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from .config import TrainConfig, parse_config
from .models import Sequential, build_model
from .layers import softmax_xent
from .optim import StepSchedule, make_optimizer
from .tensor import read_exact, read_tensor, write_tensor

CHECKPOINT_MAGIC = b"PPOOLCK1"
CHECKPOINT_VERSION = 1
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
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, zlib_tag("subset"))))
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
    """Top-1 accuracy in eval mode (running batchnorm statistics)."""
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
    model = build_model(cfg)
    optimizer = make_optimizer(
        cfg.optimizer_kind, model.param_groups(), lr=cfg.optimizer_lr,
        momentum=cfg.optimizer_momentum, beta1=cfg.optimizer_beta1,
        beta2=cfg.optimizer_beta2, weight_decay=cfg.optimizer_weight_decay,
    )
    schedule = StepSchedule(cfg.optimizer_lr, cfg.schedule_factor, cfg.schedule_epochs)
    batch_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, zlib_tag("batches"))))
    augment_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, zlib_tag("augment"))))

    metrics_path = out_dir / "metrics.csv"
    with metrics_path.open("w") as f:
        for line in cfg.to_text().splitlines():
            f.write(f"# {line}\n")
        f.write(METRICS_HEADER + "\n")

    rows = []
    start_time = timer()
    val_acc = 0.0
    for epoch in range(cfg.epochs):
        lr = schedule.lr_at(epoch)
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


# ---------------------------------------------------------------------------
# Checkpoints: magic, version, config echo, ordered tensors (dims + payload)
# ---------------------------------------------------------------------------

def _as_rank4(arr: np.ndarray) -> np.ndarray:
    shape = (1,) * (4 - arr.ndim) + arr.shape
    return arr.reshape(shape)


def save_checkpoint(path, model: Sequential, cfg: TrainConfig) -> None:
    tensors = model.state_tensors()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        blob = cfg.to_text().encode()
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(struct.pack("<Q", len(tensors)))
        for _, arr in tensors:
            write_tensor(f, _as_rank4(np.asarray(arr, dtype=np.float32)))


def load_checkpoint(path) -> tuple[Sequential, TrainConfig]:
    """Rebuild the stored model; any malformed content raises a ValueError
    that starts with the path."""
    try:
        with open(path, "rb") as f:
            return _read_checkpoint(f)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _read_checkpoint(f) -> tuple[Sequential, TrainConfig]:
    magic = f.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint (bad magic {magic!r})")
    (version,) = struct.unpack("<I", read_exact(f, 4, "version"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<Q", read_exact(f, 8, "config length"))
    blob = read_exact(f, cfg_len, "config")
    try:
        cfg = parse_config(blob.decode())
    except ValueError as e:
        raise ValueError(f"config: {e}") from None
    (count,) = struct.unpack("<Q", read_exact(f, 8, "tensor count"))
    model = build_model(cfg)
    tensors = model.state_tensors()
    if count != len(tensors):
        raise ValueError(f"{count} tensors recorded, model has {len(tensors)}")
    for name, arr in tensors:
        try:
            stored = read_tensor(f, dtype=np.float32)
        except ValueError as e:
            raise ValueError(f"{name}: {e}") from None
        if stored.size != arr.size:
            raise ValueError(f"size mismatch for {name}")
        arr[...] = stored.reshape(arr.shape).astype(arr.dtype)
    return model, cfg


def evaluate_checkpoint(path, val_x=None, val_y=None) -> float:
    """Accuracy of a stored model; with no explicit data the checkpoint's
    own config decides what to evaluate on."""
    model, cfg = load_checkpoint(path)
    if val_x is None:
        dataset = prepare_data(cfg)
        val_x, val_y = dataset.val_x, dataset.val_y
    if cfg.num_classes <= int(np.max(val_y)):
        raise ValueError(
            f"checkpoint classifies {cfg.num_classes} classes but labels reach {int(np.max(val_y))}"
        )
    return evaluate_model(model, val_x, val_y)
