from pathlib import Path

import numpy as np
import pytest

from perceptpool.config import POOLINGS, TrainConfig, load_config, parse_config
from perceptpool.layers import Conv2d
from perceptpool.models import audit_params, build_model, rng_for
from perceptpool.pooling import PerceptronPool


NON_DEFAULT_POOLING = {"window": 4, "stride": 4, "units": 4, "sharing": "per_field",
                       "activation": "relu", "use_bias": "false", "lr_factor": 0.5,
                       "wd_factor": 0.01, "init": "glorot"}
_ALL = tuple(NON_DEFAULT_POOLING)
UNREAD_POOLING_KEYS = {
    "max": _ALL, "average": _ALL, "strided_conv": _ALL,
    "perceptron": ("sharing",), "nn_z": ("sharing",), "nn_field": ("sharing",),
    "nn_tensor": ("sharing",),
    "nn_4_1": ("window", "stride", "units", "sharing"),
    "nn_16_1": ("window", "stride", "units", "sharing"),
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

    def test_short_key_spellings(self):
        cfg = parse_config("optimizer = sgd\nlr = 0.1\ninit = pattern\npooling = nn_4_1\n")
        assert cfg.optimizer_kind == "sgd"
        assert cfg.optimizer_lr == 0.1
        assert cfg.pooling_init == "pattern"
        assert cfg.pooling_kind == "nn_4_1"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("nonsense = 1\n")

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

    def test_rng_for_is_stable(self):
        a = rng_for(3, "conv1").normal(size=4)
        b = rng_for(3, "conv1").normal(size=4)
        c = rng_for(3, "conv2").normal(size=4)
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_upsample_config_rejected_for_classifiers(self):
        cfg = TrainConfig(model="tiny_synth", upsample_kind="nn_up")
        with pytest.raises(ValueError, match="upsampl"):
            build_model(cfg)

    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_float64_build_is_float64_throughout(self, pooling):
        model = build_model(TrainConfig(model="tiny_synth", pooling_kind=pooling), dtype=np.float64)
        dtypes = {name: arr.dtype for name, arr in model.state_tensors()}
        assert all(dt == np.float64 for dt in dtypes.values()), dtypes

    def test_pattern_init_applies_to_pooling_slots(self):
        cfg = TrainConfig(model="tiny_synth", pooling_kind="perceptron", pooling_init="pattern")
        model = build_model(cfg)
        pool = model.slots["pool1"][0]
        assert isinstance(pool, PerceptronPool)
        assert not np.all(pool.weights == 0.25)


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

    def test_format_lists_each_slot(self):
        cfg = TrainConfig(model="model_c_like", pooling_kind="perceptron", data_kind="cifar10")
        text = audit_params(cfg).format()
        assert "pool1" in text and "pool3" in text and "model" in text
