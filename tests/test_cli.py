import re

import numpy as np
import pytest

from perceptpool.cli import build_check_layer, main
from perceptpool.config import POOLING_KINDS, TrainConfig
from perceptpool.layers import ReLU
from perceptpool.models import make_pooling_slot


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "model = tiny_synth\n"
        "pooling.kind = perceptron\n"
        "epochs = 2\n"
        "seed = 3\n"
        "batch.size = 50\n"
        "data.synth_train = 150\n"
        "data.synth_val = 50\n"
    )
    return path


class TestGradcheckCommand:
    def test_pass_exit_code(self, capsys):
        assert main(["gradcheck", "--layer", "perceptron", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "input" in out

    def test_stack_and_upsample_specs(self):
        assert main(["gradcheck", "--layer", "nn_16_1"]) == 0
        assert main(["gradcheck", "--layer", "upsample:units=16"]) == 0

    @pytest.mark.parametrize("spec, use_bias", [("nn_4_1", True), ("nn_16_1:use_bias=false", False)])
    def test_composed_stack_specs(self, spec, use_bias, capsys):
        # identity stacks run as one composed map, with and without a bias
        stack, _ = build_check_layer(spec)
        assert [layer.use_bias for layer in stack.layers] == [use_bias, use_bias]
        assert main(["gradcheck", "--layer", spec]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_average_pool_exact(self, capsys):
        assert main(["gradcheck", "--layer", "average", "--tolerance", "1e-8"]) == 0

    def test_relu_spec(self, capsys):
        layer, shape = build_check_layer("relu")
        assert isinstance(layer, ReLU) and shape == (2, 3, 4, 4)
        assert main(["gradcheck", "--layer", "relu"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_layer(self):
        with pytest.raises(ValueError, match="unknown layer"):
            main(["gradcheck", "--layer", "wavelet"])

    def test_stack_spec_passes_activation(self, capsys):
        stack, _ = build_check_layer("nn_16_1:activation=relu")
        assert [layer.activation for layer in stack.layers] == ["relu", "relu"]
        assert main(["gradcheck", "--layer", "nn_16_1:activation=relu"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_spec_options_change_construction(self):
        layer, _ = build_check_layer("nn_field:use_bias=false,activation=relu")
        assert layer.use_bias is False
        assert layer.activation == "relu"
        assert layer.sharing.value == "per_field"

    @pytest.mark.parametrize("spec, key", [
        ("nn_16_1:units=4", "pooling.units"),
        ("max:window=3", "pooling.window"),
        ("perceptron:sharing=per_field", "pooling.sharing"),
        ("perceptron:bogus=1", "pooling.bogus"),
        ("perceptron:kind=max", "pooling.kind"),
        ("conv2d:pad=2", "pad"),
        ("upsample:stride=2", "stride"),
    ])
    def test_unread_option_rejected(self, spec, key):
        with pytest.raises(ValueError, match=key):
            build_check_layer(spec)

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    def test_pooling_spec_builds_the_config_slot(self, kind):
        def describe(layer):
            inner = getattr(layer, "layers", [layer])
            return [(type(p).__name__, getattr(p, "sharing", None), getattr(p, "units", None))
                    for p in inner]

        layer, _ = build_check_layer(kind)
        slot = make_pooling_slot(TrainConfig(pooling_kind=kind), "pool", 3, dtype=np.float64)
        built = [d for sl in slot for d in describe(sl)]
        assert describe(layer) == built


class TestAuditCommand:
    def test_prints_slot_table(self, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("model = model_a_like\npooling.kind = nn_4_1\ndata.kind = cifar10\n")
        assert main(["audit", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "pool1" in out and "50" in out


class TestTrainEvalCommands:
    def test_train_then_eval(self, tiny_config_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 0
        assert (out_dir / "checkpoint.ckpt").exists()
        assert (out_dir / "metrics.csv").exists()
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out_dir / "checkpoint.ckpt")]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_data_root_on_synth_config_rejected(self, tiny_config_file, tmp_path):
        # --data goes through the config checks, and a synth run reads no data.root
        with pytest.raises(ValueError, match="^data.root = .* not read by data.kind = synth"):
            main(["train", "--config", str(tiny_config_file), "--out", str(tmp_path / "run"),
                  "--data", str(tmp_path)])
        assert not (tmp_path / "run").exists()

    def test_data_root_its_echo_cannot_carry_rejected(self, tmp_path):
        # the checkpoint echo would reload '/x#y' as '/x'
        cfg = tmp_path / "c.cfg"
        cfg.write_text("model = model_c_like\npooling.kind = max\ndata.kind = cifar10\n")
        with pytest.raises(ValueError, match="^data.root must be printable, without '#' or "
                                             "surrounding whitespace, got '/x#y'$"):
            main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"), "--data", "/x#y"])
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one_rejected(self, tiny_config_file, tmp_path, runs):
        with pytest.raises(ValueError, match=f"--runs must be >= 1, got {runs}"):
            main(["train", "--config", str(tiny_config_file), "--out", str(tmp_path / "run"),
                  "--runs", runs])
        assert not (tmp_path / "run").exists()

    def test_runs_wrapper_reports_best(self, tiny_config_file, tmp_path, capsys):
        out_dir = tmp_path / "multi"
        assert main(["train", "--config", str(tiny_config_file), "--out", str(out_dir),
                     "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "best of 2" in out
        assert (out_dir / "run0" / "checkpoint.ckpt").exists()
        assert (out_dir / "run1" / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("spec, message", [
    ("conv2d:pad", "bad layer option 'pad'; expected key=value"),
    ("nn_4_1:units=4,relu", "bad layer option 'relu'; expected key=value"),
], ids=["bare-key", "bare-key-after-option"])
def test_input_checks(spec, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        build_check_layer(spec)
