import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perceptpool.config import (DATA_KINDS, OPTIMIZERS, POOLING_KINDS, POOLINGS, TrainConfig,
                               load_config, parse_config)
from perceptpool import layers
from perceptpool.layers import _BLAS_THREADS, Conv2d, _blocks, softmax_xent
from perceptpool.models import _EVAL_BLOCK_BYTES, audit_params, build_model, rng_for
from perceptpool.optim import make_optimizer
from perceptpool.pooling import MlpPoolStack, PerceptronPool

from oracles import add_conv_biases, multi_block_batch, run_python


NON_DEFAULT_POOLING = {"window": 4, "stride": 4, "units": 4,
                       "activation": "relu", "use_bias": "false", "lr_factor": 0.5,
                       "wd_factor": 0.01, "init": "glorot"}
_ALL = tuple(NON_DEFAULT_POOLING)
UNREAD_POOLING_KEYS = {
    "max": _ALL, "average": _ALL, "strided_conv": _ALL,
    "perceptron": (), "nn_z": (), "nn_field": (), "nn_tensor": (),
    "nn_4_1": ("window", "stride", "units"),
    "nn_16_1": ("window", "stride", "units"),
}
SECTION_KINDS = {"optimizer": OPTIMIZERS, "data": DATA_KINDS}
NON_DEFAULT_SECTION = {
    "optimizer": {"lr": 0.5, "momentum": 0.5, "beta1": 0.5, "beta2": 0.5, "weight_decay": 0.01},
    "data": {"root": "data/cifar", "augment": "true", "train_size": 100, "val_size": 100,
             "synth_train": 100, "synth_val": 100, "classes": 2},
}
# Each key is left unset or drawn from these values, valid or not.
CONTRACT_DRAWS = {
    "pooling.window": st.integers(1, 4),
    "pooling.stride": st.integers(1, 4),
    "pooling.units": st.sampled_from([1, 2, 4]),
    "pooling.activation": st.sampled_from(["relu", "tanh"]),
    "pooling.use_bias": st.just("false"),
    "pooling.lr_factor": st.sampled_from([0.5, -1]),
    "pooling.wd_factor": st.just(0.01),
    "pooling.init": st.sampled_from(["pattern", "glorot"]),
}


class TestConfig:
    def test_round_trip_through_text(self):
        cfg = TrainConfig(model="model_c_like", pooling_kind="nn_4_1", epochs=7,
                          schedule_epochs=(3, 5), optimizer_lr=0.25)
        again = parse_config(cfg.to_text())
        assert again == cfg

    def test_dotted_keys_and_comments(self):
        cfg = parse_config("""
            # experiment
            model = tiny_synth
            pooling.kind = nn_16_1
            optimizer.lr = 0.5   # inline note
            schedule.epochs = 2,4
        """)
        assert cfg.pooling_kind == "nn_16_1"
        assert cfg.optimizer_lr == 0.5
        assert cfg.schedule_epochs == (2, 4)

    @pytest.mark.parametrize("key", ["pooling", "optimizer", "data", "init", "lr", "momentum",
                                     "beta1", "beta2", "weight_decay", "batch_size"])
    def test_bare_key_spellings_rejected(self, key):
        # to_text's dotted keys are the only spelling
        with pytest.raises(ValueError, match="^" + re.escape(f"line 1: unknown config key {key!r}")):
            parse_config(f"{key} = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("nonsense = 1\n")

    @pytest.mark.parametrize("text, message", [
        ("epochs = 3\nseed = 2\nepochs = 5\n", "lines 1 and 3 both set epochs"),
        ("pooling.kind = max\npooling.kind = perceptron\n", "lines 1 and 2 both set pooling.kind"),
        ("optimizer.lr = 0.1\n# same value\noptimizer.lr = 0.1\n",
         "lines 1 and 3 both set optimizer.lr"),
    ], ids=["same-spelling", "kind-twice", "same-value"])
    def test_key_given_twice_rejected(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text)

    @pytest.mark.parametrize("text, message", [
        ("seed = 2\nepochs = 1.5\n", "line 2: epochs: invalid literal for int()"),
        ("optimizer.lr = fast\n", "line 1: optimizer.lr: could not convert string to float"),
        ("pooling.use_bias = maybe\n", "line 1: pooling.use_bias: expected a boolean, got 'maybe'"),
        ("schedule.epochs = 2,x\n", "line 1: schedule.epochs: invalid literal for int()"),
    ], ids=["int", "float", "bool", "tuple"])
    def test_unparsable_value_names_line_and_key(self, text, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            parse_config(text)

    @pytest.mark.parametrize("text, message", [
        ("optimizer.beta1 = 1.0\n", "optimizer.beta1 must be in [0, 1), got 1.0"),
        ("optimizer.beta1 = -0.1\n", "optimizer.beta1 must be in [0, 1), got -0.1"),
        ("optimizer.beta2 = 1\n", "optimizer.beta2 must be in [0, 1), got 1.0"),
        ("optimizer.kind = sgd\noptimizer.beta2 = 1.5\n",
         "optimizer.beta2 must be in [0, 1), got 1.5"),
        ("pooling.units = 2\n", "pooling.units must be a perfect square, got 2"),
        ("optimizer.lr = -1\n", "optimizer.lr must be > 0 and finite, got -1.0"),
        ("optimizer.lr = 0\n", "optimizer.lr must be > 0 and finite, got 0.0"),
        ("optimizer.lr = inf\n", "optimizer.lr must be > 0 and finite, got inf"),
        ("optimizer.weight_decay = -1\n", "optimizer.weight_decay must be >= 0 and finite, got -1.0"),
        ("optimizer.weight_decay = inf\n",
         "optimizer.weight_decay must be >= 0 and finite, got inf"),
        ("pooling.lr_factor = inf\n", "pooling.lr_factor must be >= 0 and finite, got inf"),
        ("pooling.wd_factor = inf\n", "pooling.wd_factor must be >= 0 and finite, got inf"),
        ("optimizer.kind = sgd\noptimizer.momentum = 2\n",
         "optimizer.momentum must be in [0, 1), got 2.0"),
        ("optimizer.kind = sgd\noptimizer.momentum = 1\n",
         "optimizer.momentum must be in [0, 1), got 1.0"),
        ("schedule.factor = 0\n", "schedule.factor must be in (0, 1], got 0.0"),
        ("schedule.factor = 2\n", "schedule.factor must be in (0, 1], got 2.0"),
        ("schedule.epochs = -1\n", "schedule.epochs must be strictly increasing, each in "
                                   "[0, epochs = 20), got (-1,)"),
        ("schedule.epochs = 5,3\n", "schedule.epochs must be strictly increasing, each in "
                                    "[0, epochs = 20), got (5, 3)"),
        ("schedule.epochs = 3,3\n", "schedule.epochs must be strictly increasing, each in "
                                    "[0, epochs = 20), got (3, 3)"),
        ("epochs = 5\nschedule.epochs = 2,5\n", "schedule.epochs must be strictly increasing, "
                                                "each in [0, epochs = 5), got (2, 5)"),
        ("batch.size = 0\n", "batch.size must be >= 1, got 0"),
        ("batch.balanced = false\nbatch.size = -2\n", "batch.size must be >= 1, got -2"),
        ("batch.size = 7\n", "batch.size must be a multiple of the 2 classes when "
                             "batch.balanced is set, got 7"),
        ("data.kind = cifar10\nbatch.size = 25\n", "batch.size must be a multiple of the 10 "
                                                   "classes when batch.balanced is set, got 25"),
        ("data.classes = 7\n", "data.classes must be 0 or in 2..4, got 7"),
        ("data.classes = 1\n", "data.classes must be 0 or in 2..4, got 1"),
        ("data.synth_train = 0\n", "data.synth_train must be >= 1, got 0"),
        ("data.synth_train = -5\n", "data.synth_train must be >= 1, got -5"),
        ("data.synth_val = 0\n", "data.synth_val must be >= 1, got 0"),
        ("data.synth_val = -3\n", "data.synth_val must be >= 1, got -3"),
        ("data.kind = cifar10\ndata.train_size = -10\n",
         "data.train_size must be >= 0 and a multiple of the 10 classes, got -10"),
        ("data.kind = cifar10\ndata.train_size = 15\n",
         "data.train_size must be >= 0 and a multiple of the 10 classes, got 15"),
        ("data.kind = cifar10\ndata.val_size = -10\n",
         "data.val_size must be >= 0 and a multiple of the 10 classes, got -10"),
        ("data.kind = cifar10\ndata.val_size = 15\n",
         "data.val_size must be >= 0 and a multiple of the 10 classes, got 15"),
        ("batch.size = 600\nepochs = 1\n", "batch.size must be <= data.synth_train = 512, got 600"),
        ("batch.balanced = false\ndata.synth_train = 40\nbatch.size = 41\n",
         "batch.size must be <= data.synth_train = 40, got 41"),
        ("data.kind = cifar10\ndata.train_size = 100\nbatch.size = 200\n",
         "batch.size must be <= data.train_size = 100, got 200"),
    ], ids=["beta1=1", "beta1<0", "beta2=1", "sgd-beta2>1", "pooling-message-unchanged",
            "lr<0", "lr=0", "lr=inf", "wd<0", "wd=inf", "lr_factor=inf", "wd_factor=inf",
            "momentum>1", "momentum=1", "factor=0", "factor>1",
            "decay<0", "decay-decreasing", "decay-repeated", "decay=epochs", "batch=0",
            "unbalanced-batch<0", "batch-not-multiple", "cifar-batch-not-multiple",
            "classes>4", "classes=1", "synth_train=0", "synth_train<0", "synth_val=0",
            "synth_val<0", "cifar-train_size<0", "cifar-train_size-not-multiple",
            "cifar-val_size<0", "cifar-val_size-not-multiple", "batch>synth_train",
            "unbalanced-batch>synth_train", "batch>cifar-train_size"])
    def test_out_of_range_value_names_full_key(self, text, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "optimizer.kind = sgd\noptimizer.lr = 1e12\noptimizer.momentum = 0\n",
        "batch.size = 10\n",
        "batch.balanced = false\nbatch.size = 7\n",
        "data.classes = 3\nbatch.size = 48\n",
        "epochs = 5\nschedule.epochs = 0,4\nschedule.factor = 1\n",
    ], ids=["huge-lr", "small-batch", "unbalanced-odd-batch", "three-classes", "decay-bounds"])
    def test_edge_values_training_honours_accepted(self, text):
        cfg = parse_config(text)
        assert parse_config(cfg.to_text()) == cfg

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(pooling_kind="wavelet")

    @pytest.mark.parametrize("kind,key", [(kind, key) for kind, keys in UNREAD_POOLING_KEYS.items()
                                          for key in keys])
    def test_unread_pooling_key_rejected(self, kind, key):
        with pytest.raises(ValueError, match=f"pooling.{key} = .* not read by pooling.kind = {kind}"):
            parse_config(f"pooling.kind = {kind}\npooling.{key} = {NON_DEFAULT_POOLING[key]}\n")

    @pytest.mark.parametrize("kind", POOLINGS)
    def test_read_pooling_keys_accepted(self, kind):
        read = [key for key in NON_DEFAULT_POOLING if key not in UNREAD_POOLING_KEYS[kind]]
        cfg = parse_config(f"pooling.kind = {kind}\n"
                           + "".join(f"pooling.{key} = {NON_DEFAULT_POOLING[key]}\n" for key in read))
        # checkpoints echo every key, the unread ones at their defaults
        assert parse_config(cfg.to_text()) == cfg

    @pytest.mark.parametrize("section, kind, key", [
        (section, kind, key) for section, table in SECTION_KINDS.items()
        for kind, read in table.items() for key in NON_DEFAULT_SECTION[section] if key not in read])
    def test_unread_section_key_rejected(self, section, kind, key):
        value = NON_DEFAULT_SECTION[section][key]
        with pytest.raises(ValueError, match=f"^{section}.{key} = .* not read by {section}.kind = {kind}"):
            parse_config(f"{section}.kind = {kind}\n{section}.{key} = {value}\n")

    @pytest.mark.parametrize("section, kind", [(section, kind) for section, table in SECTION_KINDS.items()
                                               for kind in table])
    def test_read_section_keys_accepted(self, section, kind):
        read = SECTION_KINDS[section][kind]
        cfg = parse_config(f"{section}.kind = {kind}\n" + "".join(
            f"{section}.{key} = {NON_DEFAULT_SECTION[section][key]}\n" for key in read))
        # checkpoints echo every key, the unread ones at their defaults
        assert parse_config(cfg.to_text()) == cfg

    def test_load_config_names_the_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for text in ("epochs = 3\nepochs: 4\n", "data.augment = true\n", "lr = 0.1\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
                load_config(path)

    @pytest.mark.parametrize("key, value", [("pooling.sharing", "global"), ("upsample.kind", ""),
                                            ("upsample.units", "4")])
    def test_keys_nothing_writes_are_unknown(self, key, value):
        with pytest.raises(ValueError, match="^" + re.escape(f"line 1: unknown config key {key!r}")):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("root", ["/a#b", "/a\nb", " /a", "/a\t"],
                             ids=["comment", "line-break", "leading-space", "trailing-tab"])
    def test_data_root_its_echo_cannot_carry_rejected(self, root):
        # parse_config cuts a value at '#' and strips it, one line per key
        with pytest.raises(ValueError, match="^data.root must be printable, without '#' or "
                                             "surrounding whitespace, got "):
            TrainConfig(data_kind="cifar10", data_root=root)

    def test_data_root_with_inner_space_round_trips(self):
        cfg = TrainConfig(data_kind="cifar10", data_root="/data/cifar 10")
        assert parse_config(cfg.to_text()) == cfg

    @settings(max_examples=200)
    @given(root=st.text())
    def test_accepted_data_root_survives_its_echo(self, root):
        try:
            cfg = TrainConfig(data_kind="cifar10", data_root=root)
        except ValueError as e:
            assert str(e).startswith("data.root must be "), str(e)
            return
        assert parse_config(cfg.to_text()) == cfg

    @settings(max_examples=100)
    @given(kind=st.sampled_from(POOLINGS),
           drawn=st.fixed_dictionaries({k: st.none() | v for k, v in CONTRACT_DRAWS.items()}))
    def test_config_contract(self, kind, drawn):
        # a config either builds and trains, or is rejected naming a key it sets
        keys = {key: value for key, value in drawn.items() if value is not None}
        text = f"model = tiny_synth\npooling.kind = {kind}\n" + "".join(
            f"{key} = {value}\n" for key, value in keys.items())
        try:
            cfg = parse_config(text)
            model = build_model(cfg)
        except ValueError as e:
            assert any(key in str(e) for key in keys), (text, str(e))
            return
        assert parse_config(cfg.to_text()) == cfg
        optimizer = make_optimizer(cfg.optimizer_kind, model.param_groups(), lr=cfg.optimizer_lr,
                                   weight_decay=cfg.optimizer_weight_decay)
        x = np.random.default_rng(0).normal(size=(4, 1, 16, 16)).astype(np.float32)
        loss, dlogits = softmax_xent(model.forward(x), np.array([0, 1, 0, 1]))
        model.zero_grad()
        model.backward(dlogits)
        optimizer.step()
        assert np.isfinite(loss)

    def test_shipped_configs_parse(self):
        paths = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))
        assert paths
        for path in paths:
            load_config(path)


class TestBuildModel:
    def test_tiny_synth_forward_shape(self):
        model = build_model(TrainConfig(model="tiny_synth", pooling_kind="perceptron"))
        out = model.forward(np.zeros((4, 1, 16, 16), dtype=np.float32))
        assert out.shape == (4, 2)

    def test_model_a_like_forward_shape(self):
        cfg = TrainConfig(model="model_a_like", pooling_kind="max", data_kind="cifar10")
        model = build_model(cfg)
        out = model.forward(np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert out.shape == (2, 10)

    def test_model_c_like_has_three_slots(self):
        cfg = TrainConfig(model="model_c_like", pooling_kind="nn_4_1", data_kind="cifar10")
        model = build_model(cfg)
        assert sorted(model.slots) == ["pool1", "pool2", "pool3"]
        out = model.forward(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert out.shape == (1, 10)

    def test_backbone_init_independent_of_pooling_choice(self):
        seeds = {}
        for pooling in ("average", "perceptron", "strided_conv", "nn_4_1"):
            cfg = TrainConfig(model="model_c_like", pooling_kind=pooling, data_kind="cifar10")
            model = build_model(cfg)
            convs = [l for l in model.layers if isinstance(l, Conv2d) and l.name.startswith("conv")]
            seeds[pooling] = np.concatenate([l.weights.ravel() for l in convs])
        base = seeds.pop("average")
        for pooling, w in seeds.items():
            assert np.array_equal(base, w), pooling

    def test_multi_unit_slot_sizes_the_layers_after_it(self):
        # four units at stride two keep the spatial size, so neither the next
        # slot nor the classifier may assume a halving
        cfg = TrainConfig(model="model_c_like", pooling_kind="perceptron", pooling_units=4,
                          data_kind="cifar10")
        model = build_model(cfg)
        x = np.random.default_rng(5).normal(size=(2, 3, 32, 32)).astype(np.float32)
        out = model.forward(x)
        assert out.shape == (2, 10)
        assert model.backward(np.ones_like(out)).shape == x.shape

    @pytest.mark.parametrize("kind", POOLINGS)
    def test_slot_follows_the_kind_table(self, kind):
        entry = POOLING_KINDS[kind]
        if entry is None:
            slot = build_model(TrainConfig(pooling_kind=kind)).slots["pool1"]
            assert not any(isinstance(l, (PerceptronPool, MlpPoolStack)) for l in slot)
            return
        sharing, specs = entry
        window = {} if specs else {"pooling_window": 4, "pooling_stride": 4}
        (pool,) = build_model(TrainConfig(pooling_kind=kind, **window)).slots["pool1"]
        built = pool.layers if specs else [pool]
        expected = ([(f"pool1.{i}", u, (w, w), s) for i, (u, w, s) in enumerate(specs)]
                    if specs else [("pool1", 1, (4, 4), 4)])
        assert [(l.name, l.units, l.window, l.stride) for l in built] == expected
        assert all(l.sharing is sharing for l in built)

    def test_rng_for_is_stable(self):
        a = rng_for(3, "conv1").normal(size=4)
        b = rng_for(3, "conv1").normal(size=4)
        c = rng_for(3, "conv2").normal(size=4)
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_float64_build_is_float64_throughout(self, pooling):
        model = build_model(TrainConfig(model="tiny_synth", pooling_kind=pooling), dtype=np.float64)
        dtypes = {name: arr.dtype for name, arr in model.state_tensors()}
        assert all(dt == np.float64 for dt in dtypes.values()), dtypes

    @pytest.mark.parametrize("pooling", POOLINGS)
    @pytest.mark.parametrize("model_name", ["model_a_like", "model_c_like"])
    def test_eval_forward_leaves_no_backward_state(self, model_name, pooling):
        model = build_model(TrainConfig(model=model_name, pooling_kind=pooling, data_kind="cifar10"))
        x = np.random.default_rng(6).normal(size=(2, 3, 32, 32)).astype(np.float32)
        out_shapes, h = [], x
        for layer in model.layers:
            h = layer.forward(h, train=False)
            out_shapes.append(h.shape)
        for eval_x in (x, multi_block_batch(np.float32)):
            model.forward(x, train=True)
            model.forward(eval_x, train=False)
            for layer, shape in zip(model.layers, out_shapes):
                with pytest.raises(RuntimeError):
                    layer.backward(np.zeros(shape, dtype=np.float32))

    def test_second_training_step_peaks_no_higher_than_the_first(self):
        """Every layer drops its saved arrays before its next forward, so a
        step never holds the previous step's on top of its own. The slack
        covers numpy's few small Python objects per step (under 1 kB)."""
        cfg = TrainConfig(model="tiny_synth", pooling_kind="nn_16_1")
        model = build_model(cfg)
        optimizer = make_optimizer("adam", model.param_groups(), lr=1e-3)
        x = np.random.default_rng(9).normal(size=(32, 1, 16, 16)).astype(np.float32)
        labels = np.arange(32) % 2
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                _, grad = softmax_xent(model.forward(x, train=True), labels)
                model.zero_grad()
                model.backward(grad)
                optimizer.step()
                del grad
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.01 * peaks[0], peaks

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_training_step_holds_no_column_matrices(self, activation):
        """What a model_c_like training forward plus backward at batch 16
        leaves allocated, the layers' saved state, stays below 20 MiB.
        Measured (nn_16_1, float32): 29.4 MiB while Conv2d kept its im2col
        columns, 16.5 MiB with Conv2d keeping its padded input (74.3 MiB
        with ReLU units), 9.5 MiB with either activation since a slot keeps
        only its input."""
        model = build_model(TrainConfig(model="model_c_like", pooling_kind="nn_16_1",
                                        pooling_activation=activation, data_kind="cifar10"))
        x = np.random.default_rng(4).normal(size=(16, 3, 32, 32)).astype(np.float32)
        labels = np.arange(16) % 10
        for _ in range(2):  # the second step: the first also allocates one-off state
            tracemalloc.start()
            try:
                _, grad = softmax_xent(model.forward(x, train=True), labels)
                model.zero_grad()
                model.backward(grad)
                del grad
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert held < 20 << 20, held

    @pytest.mark.parametrize("model_name, pooling, activation", [
        ("model_c_like", "nn_16_1", "identity"),
        ("model_c_like", "nn_16_1", "relu"),
        ("model_a_like", "perceptron", "identity"),
    ])
    def test_training_step_holds_nothing_after_backward(self, model_name, pooling, activation):
        """Each backward releases the state its forward saved, so a batch-16
        forward plus backward leaves under 1 MiB allocated. Measured on
        model_c_like/nn_16_1: 9.5 MiB while the state lived until the next
        forward."""
        model = build_model(TrainConfig(model=model_name, pooling_kind=pooling,
                                        pooling_activation=activation, data_kind="cifar10"))
        x = np.random.default_rng(4).normal(size=(16, 3, 32, 32)).astype(np.float32)
        labels = np.arange(16) % 10
        for _ in range(2):  # the second step: the first also allocates one-off state
            tracemalloc.start()
            try:
                _, grad = softmax_xent(model.forward(x, train=True), labels)
                model.zero_grad()
                model.backward(grad)
                del grad
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert held < 1 << 20, held

    @pytest.mark.parametrize("pooling", POOLINGS)
    @pytest.mark.parametrize("model_name", ["model_a_like", "model_c_like"])
    def test_backward_leaves_no_layer_holding_state(self, model_name, pooling):
        model = build_model(TrainConfig(model=model_name, pooling_kind=pooling, data_kind="cifar10"))
        x = np.random.default_rng(7).normal(size=(2, 3, 32, 32)).astype(np.float32)
        model.backward(np.ones_like(model.forward(x, train=True)))
        assert [layer.name for layer in model.layers if layer._saved is not None] == []

    @pytest.mark.parametrize("model_name", ["model_a_like", "model_c_like"])
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_eval_forward_of_an_empty_batch(self, pooling, model_name):
        model = build_model(TrainConfig(model=model_name, pooling_kind=pooling, data_kind="cifar10"))
        assert model.forward(np.zeros((0, 3, 32, 32), np.float32), train=False).shape == (0, 10)

    def test_no_conv_bias_in_front_of_batchnorm(self):
        def conv_biases(model):
            return [g.name for g in build_model(TrainConfig(model=model, data_kind="cifar10"))
                    .param_groups() if g.name.startswith("conv") and g.name.endswith(".bias")]
        assert conv_biases("model_a_like") == []
        assert conv_biases("model_c_like") == ["conv1.bias", "conv2.bias", "conv3.bias"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dead_conv_biases_did_not_change_the_first_step(self, dtype):
        # They started at 0, so logits and gradients are the same to the bit.
        cfg = TrainConfig(model="model_a_like", pooling_kind="perceptron", data_kind="cifar10")
        model, biased = build_model(cfg, dtype), add_conv_biases(build_model(cfg, dtype))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3, 32, 32)).astype(dtype)
        labels = rng.integers(0, 10, 4)
        results = []
        for m in (model, biased):
            logits = m.forward(x)
            _, grad = softmax_xent(logits, labels)
            gx = m.backward(grad)
            results.append((logits, gx, {g.name: g.grad for g in m.param_groups()}))
        (logits, gx, grads), (b_logits, b_gx, b_grads) = results
        assert logits.tobytes() == b_logits.tobytes() and gx.tobytes() == b_gx.tobytes()
        assert set(b_grads) - set(grads) == {"conv1.bias", "conv2.bias"}
        for name, grad in grads.items():
            assert grad.tobytes() == b_grads[name].tobytes(), name

    @pytest.mark.parametrize("model_name, pooling", [
        ("model_a_like", "perceptron"), ("model_c_like", "nn_16_1"), ("model_c_like", "strided_conv")])
    def test_training_step_does_not_depend_on_the_walker_count(self, monkeypatch, model_name, pooling):
        # Every layer's partition is fixed and its partial gradients are summed
        # in block order, whichever walker ran each block.
        rng = np.random.default_rng(12)
        x = rng.normal(size=(50, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 10, 50)
        results = []
        for walkers in (1, 2, 8):
            monkeypatch.setattr(layers, "_WALKERS", walkers)
            model = build_model(TrainConfig(model=model_name, pooling_kind=pooling,
                                            data_kind="cifar10", seed=4))
            logits = model.forward(x)
            gx = model.backward(softmax_xent(logits, labels)[1])
            results.append([logits, gx] + [g.grad for g in model.param_groups()])
        for other in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(results[0], other))

    def test_pattern_init_applies_to_pooling_slots(self):
        cfg = TrainConfig(model="tiny_synth", pooling_kind="perceptron", pooling_init="pattern")
        model = build_model(cfg)
        pool = model.slots["pool1"][0]
        assert isinstance(pool, PerceptronPool)
        assert not np.all(pool.weights == 0.25)


def layer_walk(model, x):
    for layer in model.layers:
        x = layer.forward(x, train=False)
    return x


class TestBlockedEval:
    """An eval forward runs the batch in blocks, each through every layer,
    on every eval walker."""

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("model_name", ["model_a_like", "model_c_like"])
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_matches_whole_batch_layer_walk(self, pooling, model_name, dtype, rtol):
        init = {} if POOLING_KINDS[pooling] is None else {"pooling_init": "glorot"}
        model = build_model(TrainConfig(model=model_name, pooling_kind=pooling,
                                        data_kind="cifar10", seed=3, **init), dtype)
        rng = np.random.default_rng(5)
        # Move BatchNorm's running statistics off their start.
        model.forward(rng.normal(0.5, 2.0, size=(8, 3, 32, 32)).astype(dtype), train=True)
        x = multi_block_batch(dtype)
        whole = layer_walk(model, x)
        blocked = model.forward(x, train=False)
        assert blocked.dtype == whole.dtype and blocked.shape == whole.shape
        assert np.max(np.abs(blocked - whole)) <= rtol * np.max(np.abs(whole))

    @pytest.mark.parametrize("model_name", ["model_a_like", "model_c_like"])
    def test_equals_the_blocks_run_one_by_one(self, model_name):
        model = build_model(TrainConfig(model=model_name, pooling_kind="max", data_kind="cifar10"))
        x = multi_block_batch(np.float32)
        one_by_one = np.concatenate([model.forward(x[blk], train=False)
                                     for blk in _blocks(len(x), x.nbytes, _EVAL_BLOCK_BYTES)])
        assert model.forward(x, train=False).tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("pooling", ["max", "perceptron"])
    def test_an_images_logits_do_not_depend_on_its_batch(self, pooling):
        """One image's logits are the same bytes alone and inside 10- and
        21-image batches (blocks of 10 and 7/7/7): model_a_like's fc, with
        8,192 features, rounded them by its block's row count."""
        model = build_model(TrainConfig(model="model_a_like", pooling_kind=pooling, data_kind="cifar10"))
        x = multi_block_batch(np.float32)
        alone = model.forward(x[:1], train=False).tobytes()
        for n in (10, 21):
            assert model.forward(x[:n], train=False)[:1].tobytes() == alone, n

    def test_repeated_forwards_give_identical_bytes(self):
        model = build_model(TrainConfig(model="model_c_like", pooling_kind="nn_16_1",
                                        data_kind="cifar10", seed=3))
        x = np.random.default_rng(7).normal(size=(61, 3, 32, 32)).astype(np.float32)
        first = model.forward(x, train=False).tobytes()
        assert all(model.forward(x, train=False).tobytes() == first for _ in range(9))

    @pytest.mark.skipif(_BLAS_THREADS is None, reason="no OpenBLAS found")
    def test_logits_do_not_depend_on_the_blas_thread_count(self):
        # nn_16_1 float32 results differ between one and two OpenBLAS threads
        # in training; every eval walker runs one.
        code = (
            "import hashlib, numpy as np\n"
            "from perceptpool import TrainConfig, build_model\n"
            "model = build_model(TrainConfig(model='model_c_like', pooling_kind='nn_16_1',\n"
            "                                pooling_init='glorot', data_kind='cifar10', seed=3))\n"
            "x = np.random.default_rng(6).normal(size=(31, 3, 32, 32)).astype(np.float32)\n"
            "print(hashlib.sha256(model.forward(x, train=False).tobytes()).hexdigest())\n"
        )
        one, two = (run_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert one == two

    def test_peak_memory_below_one_whole_batch_activation(self):
        # Ten blocks on the walkers, so the peak is a few blocks' activations,
        # not the input.
        model = build_model(TrainConfig(model="model_c_like", pooling_kind="max", data_kind="cifar10"))
        x = np.random.default_rng(6).normal(size=(100, 3, 32, 32)).astype(np.float32)
        conv1_out_bytes = len(x) * 64 * 32 * 32 * x.itemsize
        tracemalloc.start()
        try:
            model.forward(x, train=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < conv1_out_bytes, (peak, conv1_out_bytes)


class TestAuditParams:
    @pytest.mark.parametrize("model,pooling,bias,expected", [
        ("model_a_like", "perceptron", True, 10),
        ("model_a_like", "perceptron", False, 8),
        ("model_a_like", "nn_4_1", True, 50),
        ("model_a_like", "nn_16_1", True, 194),
        ("model_a_like", "nn_field", True, 1_600),
        ("model_a_like", "nn_tensor", True, 122_880),
        ("model_a_like", "strided_conv", True, 82_112),
        ("model_c_like", "perceptron", True, 15),
        ("model_c_like", "nn_4_1", True, 75),
        ("model_c_like", "strided_conv", True, 344_512),
    ])
    def test_checklist_pooling_counts(self, model, pooling, bias, expected):
        cfg = TrainConfig(model=model, pooling_kind=pooling, pooling_use_bias=bias,
                          data_kind="cifar10")
        assert audit_params(cfg).pooling_total == expected

    def test_nn_z_formula_gives_960(self):
        # one perceptron per channel: (64 + 128) * 5; the 770 sometimes
        # associated with this variant cannot arise from channel widths
        # consistent with every other count, so the formula value holds
        cfg = TrainConfig(model="model_a_like", pooling_kind="nn_z", data_kind="cifar10")
        assert audit_params(cfg).pooling_total == 960

    def test_fixed_pooling_adds_nothing(self):
        cfg = TrainConfig(model="model_a_like", pooling_kind="max", data_kind="cifar10")
        assert audit_params(cfg).pooling_total == 0

    def test_totals_cover_all_optimizer_groups(self):
        cfg = TrainConfig(model="model_a_like", pooling_kind="nn_4_1", data_kind="cifar10")
        audit = audit_params(cfg)
        model = build_model(cfg)
        assert audit.model_total == sum(g.param.size for g in model.param_groups())

    def test_model_a_like_total_has_no_conv_biases(self):
        # 157,972 with the 64 + 128 conv biases in front of its BatchNorm2d layers
        cfg = TrainConfig(model="model_a_like", pooling_kind="perceptron", data_kind="cifar10")
        assert audit_params(cfg).model_total == 157_780

    def test_format_lists_each_slot(self):
        cfg = TrainConfig(model="model_c_like", pooling_kind="perceptron", data_kind="cifar10")
        text = audit_params(cfg).format()
        assert "pool1" in text and "pool3" in text and "model" in text
