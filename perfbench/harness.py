"""The perceptpool benchmark: workloads, set-up, timed loops, output checks
and the per-layer trace.

A workload is a closed loop in one process: the next unit (a train step or
a 250-image evaluation batch) starts only when the previous one has ended.
Units run through the public functions of `data`, `models`, `layers`,
`pooling`, `optim` and `train` exactly as `train.train` and
`train.evaluate_model` call them. The traced run times every call into every
layer from outside, by walking `model.layers` the way `Sequential.forward`
and `Sequential.backward` do; nothing inside `perceptpool` is changed.

BLAS threads must be pinned before numpy is imported; `run.py` does that.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import platform
import resource
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perceptpool import data as data_mod
from perceptpool.config import TrainConfig
from perceptpool.layers import BatchNorm2d, Conv2d, FixedPool, ReLU, softmax_xent
from perceptpool.models import Sequential, build_model
from perceptpool.optim import make_optimizer
from perceptpool.pooling import MlpPoolStack, PerceptronPool

# The package re-exports the function train.train under the module's name.
train_mod = importlib.import_module("perceptpool.train")

# Inputs: CIFAR-10 binary files with 5 x 400 training and 1,000 test records.
TRAIN_RECORDS_PER_FILE = 400
TEST_RECORDS = 1000
TRAIN_SIZE = 1000          # balanced subset drawn by train.prepare_data
VAL_SIZE = 500             # two 250-image evaluation batches
SETUP_REPEATS = 3          # setup_s is the median of this many full set-ups
CHECK_IMAGES = 8           # sub-batch for the float64 twin, small enough never to set peak RSS
TAIL_SAMPLES = 10          # the tail percentile keeps this many samples beyond it

LOGIT_TOL = 1e-4           # max |logit32 - logit64| / max |logit64|
GRAD_TOL = 1e-4            # ||g32 - g64|| / ||g64|| per parameterized layer
FD_STEP = 1e-3             # central-difference step along an adjoint_check direction
ADJOINT_TOL = 1e-5         # adjoint_check error bound


@dataclass(frozen=True)
class Workload:
    model: str
    pooling: str
    train: bool
    batch: int
    # Every run times at least min_units units; loss_final is the mean loss
    # of the second half of them, so it is fixed for a seed.
    min_units: int


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "train_c_nn16": Workload("model_c_like", "nn_16_1", True, 50, 8),
    "train_a_perceptron": Workload("model_a_like", "perceptron", True, 50, 40),
    "eval_c_max": Workload("model_c_like", "max", False, 250, 8),
}


def make_config(wl: Workload, seed: int, data_root: Path) -> TrainConfig:
    """The desk-scale CIFAR-10 settings (configs/cifar10_desk_scale.cfg) on
    the generated inputs."""
    return TrainConfig(
        model=wl.model, pooling_kind=wl.pooling, pooling_init="average", epochs=1, seed=seed,
        batch_size=50, data_kind="cifar10", data_root=str(data_root), data_augment=True,
        data_train_size=TRAIN_SIZE, data_val_size=VAL_SIZE,
        optimizer_kind="adam", optimizer_lr=1e-3, optimizer_weight_decay=5e-5,
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def write_cifar_inputs(root: Path, seed: int) -> None:
    """Class-dependent uint8 32x32 images as CIFAR-10 binary records: each
    class has a blocky colour template, each image adds Gaussian noise."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(b"perfbench-inputs"))))
    k, side = data_mod.NUM_CLASSES, data_mod.IMAGE_SIZE
    # Each class template is a shared one +-3 grey levels per 8x8 block and
    # channel, under per-pixel noise of 64: every seed gets the same class
    # separation, and the loss stays near 2 over a run.
    coarse = rng.uniform(60.0, 190.0, size=(1, 3, 4, 4)) + 3.0 * rng.choice([-1.0, 1.0], size=(k, 3, 4, 4))
    templates = np.kron(coarse, np.ones((1, 1, side // 4, side // 4)))

    def records(n):
        labels = rng.permutation(np.arange(n) % k)
        pixels = templates[labels] + rng.normal(0.0, 64.0, size=(n, 3, side, side))
        pixels = np.clip(np.rint(pixels), 0, 255).astype(np.uint8).reshape(n, -1)
        return np.concatenate([labels.astype(np.uint8)[:, None], pixels], axis=1).tobytes()

    for name in data_mod.TRAIN_FILES:
        (root / name).write_bytes(records(TRAIN_RECORDS_PER_FILE))
    (root / data_mod.TEST_FILE).write_bytes(records(TEST_RECORDS))


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class NullTracer:
    """Tracing off: every span is the same do-nothing context manager."""

    _span = contextlib.nullcontext()

    def span(self, name, kind):
        return self._span


class _Span:
    __slots__ = ("tracer", "name", "kind", "t0")

    def __init__(self, tracer, name, kind):
        self.tracer, self.name, self.kind = tracer, name, kind

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer.spans.append((self.tracer.unit, self.name, self.kind, self.t0, t1))
        return False


class Tracer:
    """Spans kept in memory as (unit, name, kind, start, end). The unit index
    is the identifier shared by the spans of one step; the step is their
    parent. Operation counts are recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.macs: dict[tuple[int, str], int] = {}
        self.unit = -1

    def span(self, name, kind):
        return _Span(self, name, kind)

    def count_macs(self, kind, n):
        key = (self.unit, kind)
        self.macs[key] = self.macs.get(key, 0) + n


def layer_kind(layer) -> str:
    """The module a layer's time is booked to."""
    if isinstance(layer, (PerceptronPool, MlpPoolStack)):
        return "pooling"
    if isinstance(layer, FixedPool):
        return "layers.fixedpool"
    if isinstance(layer, Conv2d):
        return "layers.conv2d"
    if isinstance(layer, BatchNorm2d):
        return "layers.batchnorm2d"
    return "layers.other"


def forward_macs(layer, in_shape) -> int:
    """Multiply-accumulates of one forward call, computed from the shapes."""
    if isinstance(layer, MlpPoolStack):
        total, shape = 0, in_shape
        for sub in layer.layers:
            total += forward_macs(sub, shape)
            shape = sub.output_shape(shape)
        return total
    if isinstance(layer, PerceptronPool):
        # One output value per unit and window position.
        wh, ww = layer.window
        return math.prod(layer.output_shape(in_shape)) * wh * ww
    if isinstance(layer, Conv2d):
        b, c, h, w = in_shape
        kh, kw = layer.kernel
        oh = (h + 2 * layer.pad - kh) // layer.stride + 1
        ow = (w + 2 * layer.pad - kw) // layer.stride + 1
        return b * layer.out_channels * oh * ow * c * kh * kw
    return 0


def instrument(model: Sequential, tracer: Tracer) -> None:
    """Replace the model's forward/backward (on the instance only) with walks
    over model.layers that record one span per layer call. A backward costs
    two forwards' MACs: the weight gradient and the input gradient."""

    def forward(x, train=True):
        for layer in model.layers:
            kind = layer_kind(layer)
            if kind in ("pooling", "layers.conv2d"):
                tracer.count_macs(kind, forward_macs(layer, x.shape) * (3 if train else 1))
            with tracer.span(f"{layer.name}.fwd", kind):
                x = layer.forward(x, train)
        return x

    def backward(grad_out):
        for layer in reversed(model.layers):
            with tracer.span(f"{layer.name}.bwd", layer_kind(layer)):
                grad_out = layer.backward(grad_out)
        return grad_out

    model.forward = forward
    model.backward = backward


def uninstrument(model: Sequential) -> None:
    del model.forward
    del model.backward


# ---------------------------------------------------------------------------
# Set-up and units
# ---------------------------------------------------------------------------

@dataclass
class State:
    wl: Workload
    cfg: TrainConfig
    dataset: train_mod.Dataset
    model: Sequential
    optimizer: object
    batch_rng: np.random.Generator
    augment_rng: np.random.Generator
    pending: list = field(default_factory=list)
    eval_index: int = 0


def new_state(wl: Workload, cfg: TrainConfig, times: dict) -> State:
    t0 = time.perf_counter()
    dataset = train_mod.prepare_data(cfg)  # data.load_cifar10 + data.balanced_subset
    t1 = time.perf_counter()
    model = build_model(cfg)
    optimizer = None
    if wl.train:
        optimizer = make_optimizer(
            cfg.optimizer_kind, model.param_groups(), lr=cfg.optimizer_lr,
            momentum=cfg.optimizer_momentum, beta1=cfg.optimizer_beta1,
            beta2=cfg.optimizer_beta2, weight_decay=cfg.optimizer_weight_decay,
        )
    t2 = time.perf_counter()
    times["data.load"], times["models.build"] = t1 - t0, t2 - t1
    # The same (seed, purpose) streams train.train draws from.
    batch_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, train_mod.zlib_tag("batches"))))
    augment_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, train_mod.zlib_tag("augment"))))
    return State(wl, cfg, dataset, model, optimizer, batch_rng, augment_rng)


def next_batch(st: State):
    """The next training batch, prepared as train.train prepares it."""
    cfg, ds = st.cfg, st.dataset
    if not st.pending:  # a new epoch
        st.pending = data_mod.make_batches(ds.train_x, ds.train_y, cfg.batch_size, st.batch_rng,
                                           balanced=cfg.batch_balanced, num_classes=cfg.num_classes)
    idx = st.pending.pop(0)
    xb, yb = ds.train_x[idx], ds.train_y[idx]
    if cfg.data_augment:
        xb = data_mod.augment_crop(xb, st.augment_rng)
    return data_mod.normalize(xb), yb


def train_step(st: State, tr) -> float:
    """One step of train.train's inner loop; returns the batch loss."""
    with tr.span("data.batch", "data"):
        xb, yb = next_batch(st)
    logits = st.model.forward(xb, train=True)
    with tr.span("softmax_xent.fwd", "layers.other"):
        loss, dlogits = softmax_xent(logits, yb)
    with tr.span("models.zero_grad", "models"):
        st.model.zero_grad()
    st.model.backward(dlogits)
    with tr.span("optim.step", "optim"):
        st.optimizer.step(st.cfg.optimizer_lr)
    return loss


def eval_batches(st: State) -> list[tuple[int, int]]:
    b = st.wl.batch
    return [(s, s + b) for s in range(0, len(st.dataset.val_y) - b + 1, b)]


def eval_unit(st: State, tr) -> float:
    """The next 250-image batch through train.evaluate_model; returns accuracy."""
    with tr.span("data.batch", "data"):
        batches = eval_batches(st)
        lo, hi = batches[st.eval_index % len(batches)]
        xb, yb = st.dataset.val_x[lo:hi], st.dataset.val_y[lo:hi]
    st.eval_index += 1
    return train_mod.evaluate_model(st.model, xb, yb, batch_size=st.wl.batch)


def run_unit(st: State, tr) -> float:
    return train_step(st, tr) if st.wl.train else eval_unit(st, tr)


def setup(wl: Workload, cfg: TrainConfig) -> tuple[State, dict, float]:
    """Data load, build_model, make_optimizer and the untimed warm-up unit."""
    times: dict = {}
    t0 = time.perf_counter()
    st = new_state(wl, cfg, times)
    warm = run_unit(st, NullTracer())
    times["setup"] = time.perf_counter() - t0
    return st, times, warm


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _layer_rel(m32, m64) -> tuple[float, str]:
    """Worst relative gradient difference over parameterized layers, taking
    each layer's groups together (a conv bias before a BatchNorm has a
    gradient of rounding size alone)."""
    worst = (0.0, "")
    for a, b in zip(m32.layers, m64.layers):
        groups = list(zip(a.param_groups(), b.param_groups()))
        if groups:
            diff = math.sqrt(sum(float(np.sum((g.grad - h.grad) ** 2)) for g, h in groups))
            ref = math.sqrt(sum(float(np.sum(h.grad ** 2)) for _, h in groups))
            worst = max(worst, (diff / max(ref, 1e-30), b.name))
    return worst


def adjoint_check(model: Sequential, x, rng) -> tuple[float, str]:
    """Check every layer's backward against its own forward, at the inputs
    the first step feeds it, in float64.

    For a random output weighting R, a layer's backward(R) must give the
    derivative of <forward(x), R> along any direction. The input (with
    sign-preserving steps, so ReLU and max pooling stay on one linear piece)
    and each parameter group are stepped along two directions: a random one,
    whose error is taken relative to |gradient| * |direction| and which
    catches wrong or missing entries, and one following the gradient's signs,
    whose error is taken relative to the derivative itself and which catches
    a wrong scale. Layers linear in what is stepped make the central
    difference exact up to rounding. Returns the worst error and where."""
    worst = (0.0, "")
    for layer in model.layers:
        out = layer.forward(x, True)
        weights = rng.standard_normal(out.shape)
        layer.zero_grad()
        grad_x = layer.backward(weights)
        x_probe = x.copy()
        targets = [(f"{layer.name}.input", x_probe, grad_x, np.abs(x_probe))]
        for g in layer.param_groups():
            scale = max(float(np.sqrt(np.mean(g.param ** 2))), 0.1)
            targets.append((g.name, g.param, g.grad.copy(), np.full(g.param.shape, scale)))
        for name, arr, grad, size in targets:
            keep = arr.copy()
            random_dir = size * rng.uniform(-1.0, 1.0, arr.shape)
            aligned_dir = size * rng.uniform(0.0, 1.0, arr.shape) * np.sign(grad)
            for d, aligned in ((random_dir, False), (aligned_dir, True)):
                arr += FD_STEP * d
                up = float(np.sum(layer.forward(x_probe, True) * weights))
                arr[...] = keep - FD_STEP * d
                down = float(np.sum(layer.forward(x_probe, True) * weights))
                arr[...] = keep
                fd, an = (up - down) / (2 * FD_STEP), float(np.sum(grad * d))
                ref = abs(an) if aligned else np.linalg.norm(grad) * np.linalg.norm(d)
                worst = max(worst, (abs(fd - an) / max(ref, 1e-30), name))
        x = layer.forward(x, True)
    return worst


def _promote_pooling(model: Sequential) -> None:
    """build_model hands its dtype to the Conv2d, Dense and MLP-stack layers
    but builds single perceptron slots in float32; make those float64 too,
    so the twin is float64 throughout."""
    for layer in model.layers:
        for p in getattr(layer, "layers", [layer]):
            if isinstance(p, PerceptronPool) and p.weights.dtype != np.float64:
                p.dtype = np.float64
                for attr in ("weights", "bias", "weights_grad", "bias_grad"):
                    if getattr(p, attr) is not None:
                        setattr(p, attr, getattr(p, attr).astype(np.float64))


def _lockstep_forward(m32, m64, x64, train):
    """Forward both twins layer by layer. Where a ReLU input's sign differs
    between them (a value within rounding of the kink), the float64 twin
    takes the float32 value, so both backward passes follow the same linear
    pieces; returns both logits and the number of such values."""
    x32, flips = x64.astype(np.float32), 0
    for a, b in zip(m32.layers, m64.layers):
        if isinstance(b, ReLU):
            flip = (x32 > 0) != (x64 > 0)
            flips += int(flip.sum())
            x64 = np.where(flip, x32, x64)
        x32, x64 = a.forward(x32, train), b.forward(x64, train)
    return x32, x64, flips


def twin_check(cfg: TrainConfig, wl: Workload, x64, y, seed: int) -> dict:
    """Compare fresh float32 and float64 models on one normalized sub-batch.

    Logits must agree, and for training workloads the first-step parameter
    gradients too. Both twins run the same kernels, so a kernel that is
    wrong in both dtypes is caught by adjoint_check on the float64 twin."""
    m32, m64 = build_model(cfg), build_model(cfg, dtype=np.float64)
    _promote_pooling(m64)
    l32, l64, flips = _lockstep_forward(m32, m64, x64, wl.train)
    out = {"logit_rel_err": float(np.max(np.abs(l32 - l64)) / np.max(np.abs(l64))), "kink_flips": flips}
    failures = []
    if not out["logit_rel_err"] < LOGIT_TOL:
        failures.append(f"logits differ from the float64 twin by {out['logit_rel_err']:.3e}")
    if wl.train:
        m32.zero_grad()
        m32.backward(softmax_xent(l32, y)[1])
        m64.zero_grad()
        m64.backward(softmax_xent(l64, y)[1])
        out["grad_rel_err"], where = _layer_rel(m32, m64)
        if not out["grad_rel_err"] < GRAD_TOL:
            failures.append(f"{where} gradients differ from the float64 twin by {out['grad_rel_err']:.3e}")
        out["adjoint_err"], where = adjoint_check(m64, x64, np.random.default_rng(seed))
        if not out["adjoint_err"] < ADJOINT_TOL:
            failures.append(f"{where}: backward disagrees with its forward by {out['adjoint_err']:.3e}")
    out["failures"] = failures
    return out


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(), "seed": seed,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES samples
    beyond it; with fewer samples than that, the maximum at percentile 100."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_SAMPLES:
        return s[-1], 100.0
    return s[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def run_workload(name: str, seed: int, seconds: float, trace: bool, data_root: Path) -> dict:
    """Generate inputs, set up SETUP_REPEATS times, check, then time units
    for `seconds` (and at least wl.min_units). With trace, every other unit
    is traced, so the traced and untraced halves share machine conditions."""
    wl = WORKLOADS[name]
    write_cifar_inputs(data_root, seed)
    cfg = make_config(wl, seed, data_root)

    setups, warm_outputs = [], []
    for _ in range(SETUP_REPEATS):
        st = None  # drop the previous model and its saved activations first
        st, times, warm = setup(wl, cfg)
        setups.append(times)
        warm_outputs.append(warm)

    # Check inputs: the head of the warm-up unit's batch, replayed from fresh streams.
    probe = new_state(wl, cfg, {})
    x_chk, y_chk = next_batch(probe) if wl.train else (probe.dataset.val_x, probe.dataset.val_y)
    checks = twin_check(cfg, wl, x_chk[:CHECK_IMAGES].astype(np.float64), y_chk[:CHECK_IMAGES], seed)
    del probe
    if len(set(warm_outputs)) != 1:
        checks["failures"].append(f"identical set-ups gave different warm-up results {warm_outputs}")

    eval_loss, eval_acc = None, None
    if not wl.train:
        # Reference pass: the eval-set loss, and per-batch accuracy every timed unit must repeat.
        losses, eval_acc = [], []
        for lo, hi in eval_batches(st):
            logits = st.model.forward(st.dataset.val_x[lo:hi], train=False)
            losses.append(softmax_xent(logits, st.dataset.val_y[lo:hi])[0])
            eval_acc.append(float((logits.argmax(axis=1) == st.dataset.val_y[lo:hi]).mean()))
        eval_loss = float(np.mean(losses))

    tracer, null = Tracer(), NullTracer()
    plain, traced, outputs, failed = [], [], [], 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(outputs) < wl.min_units:
        unit = len(outputs)
        on = trace and unit % 2 == 1
        if on:
            tracer.unit = unit
            instrument(st.model, tracer)
        batch_index = None if wl.train else st.eval_index % len(eval_acc)
        t0 = time.perf_counter()
        out = run_unit(st, tracer if on else null)
        dt = time.perf_counter() - t0
        if on:
            uninstrument(st.model)
        (traced if on else plain).append((unit, dt))
        outputs.append(out)
        ok = math.isfinite(out) if wl.train else out == eval_acc[batch_index]
        failed += 0 if ok else 1

    failed += 1 if checks["failures"] else 0
    attempted = len(outputs) + 1  # the pre-timing check counts as one attempt
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "setups": setups, "checks": checks, "env": environment(seed),
        "units": len(outputs),
    }
    if wl.train:
        loss_final = float(np.mean(outputs[wl.min_units // 2 : wl.min_units]))
    else:
        loss_final = eval_loss
    times = [dt for _, dt in plain]
    tail_value, tail_pct = tail(times)
    result["tail"] = {"percentile": tail_pct, "samples": len(times)}
    result["unit_ms"] = [round(1e3 * dt, 3) for dt in times]
    result["failed_ratio"] = failed / attempted
    result["end_to_end"] = {
        "setup_s": (statistics.median([s["setup"] for s in setups]), "s"),
        "images_per_s": (wl.batch * len(times) / sum(times), "1/s"),
        "step_ms_p50": (1e3 * statistics.median(times), "ms"),
        "step_ms_tail": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "loss_final": (loss_final, "nats"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    if trace:
        result["per_layer"] = per_layer(tracer, traced, plain, setups)
    return result


SLOT_LAYERS = ("pool1", "pool2", "pool3", "conv1", "conv2", "conv3")
KINDS = ("pooling", "layers.fixedpool", "layers.conv2d", "layers.batchnorm2d", "layers.other")


def per_layer(tracer: Tracer, traced, plain, setups) -> dict:
    """Median per traced unit of each layer's summed span time, plus the
    set-up parts, computed operation counts and the trace's own quality."""
    per_unit: dict[int, dict[str, float]] = {u: {} for u, _ in traced}
    covered = {u: 0.0 for u, _ in traced}
    for unit, name, kind, t0, t1 in tracer.spans:
        dt = t1 - t0
        acc = per_unit[unit]
        covered[unit] += dt
        phase = name.rsplit(".", 1)[-1]
        if kind in KINDS:
            acc[f"{kind}.{phase}_ms"] = acc.get(f"{kind}.{phase}_ms", 0.0) + 1e3 * dt
        slot = name.split(".", 1)[0]
        if slot in SLOT_LAYERS:
            key = f"layer.{slot}.{phase}_ms"
            acc[key] = acc.get(key, 0.0) + 1e3 * dt
        if name in ("optim.step", "data.batch"):
            acc[f"{name}_ms"] = acc.get(f"{name}_ms", 0.0) + 1e3 * dt

    def med(key):
        return statistics.median([per_unit[u].get(key, 0.0) for u, _ in traced])

    metrics = {}
    for kind in KINDS:
        for phase in ("fwd", "bwd"):
            metrics[f"{kind}.{phase}_ms"] = (med(f"{kind}.{phase}_ms"), "ms")
    for slot in SLOT_LAYERS:
        for phase in ("fwd", "bwd"):
            metrics[f"layer.{slot}.{phase}_ms"] = (med(f"layer.{slot}.{phase}_ms"), "ms")
    metrics["optim.step_ms"] = (med("optim.step_ms"), "ms")
    metrics["data.batch_ms"] = (med("data.batch_ms"), "ms")
    metrics["data.load_ms"] = (1e3 * statistics.median([s["data.load"] for s in setups]), "ms")
    metrics["models.build_ms"] = (1e3 * statistics.median([s["models.build"] for s in setups]), "ms")
    for kind, metric in (("pooling", "pooling.macs_per_step"), ("layers.conv2d", "layers.conv2d.macs_per_step")):
        counts = [tracer.macs.get((u, kind), 0) for u, _ in traced]
        metrics[metric] = (float(statistics.median(counts)), "MAC_computed")
    steps = dict(traced)
    metrics["trace.coverage"] = (statistics.median([covered[u] / steps[u] for u in steps]), "ratio")
    t_traced = sum(steps.values()) / len(steps)
    t_plain = sum(dt for _, dt in plain) / len(plain)
    metrics["trace.overhead_frac"] = (1.0 - t_plain / t_traced, "ratio")
    return metrics
