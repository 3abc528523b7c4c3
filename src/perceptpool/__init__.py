"""perceptpool: a CPU micro-framework around learnable perceptron pooling.

Single neurons (or small restructured MLPs) replace fixed pooling windows
and, run the other way, provide learned spatial upscaling. Includes the
standard layers needed to build small CIFAR-scale classifiers, per-group
optimizers with reduced pooling learning rates, finite-difference gradient
checking, and a training CLI.
"""

from .config import TrainConfig, load_config, parse_config
from .gradcheck import GradReport, check_layer
from .layers import BatchNorm2d, Conv2d, Dense, FixedPool, Layer, ReLU, pool_out_dim, softmax_xent
from .models import Sequential, audit_params, build_model
from .optim import Adam, ParamGroup, SGD
from .pooling import MlpPoolStack, PerceptronPool, PerceptronUpsample, Sharing, param_count
from .train import evaluate_checkpoint, evaluate_model, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "BatchNorm2d", "Conv2d", "Dense", "FixedPool", "GradReport",
    "Layer", "MlpPoolStack", "ParamGroup", "PerceptronPool", "PerceptronUpsample",
    "ReLU", "SGD", "Sequential", "Sharing", "TrainConfig",
    "audit_params", "build_model", "check_layer", "evaluate_checkpoint",
    "evaluate_model", "load_checkpoint", "load_config",
    "param_count", "parse_config", "pool_out_dim", "save_checkpoint", "softmax_xent", "train",
]
