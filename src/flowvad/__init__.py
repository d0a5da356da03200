"""Two-path video autoencoder with normalizing-flow normality scoring."""

from .errors import ConfigError, NumericError, ShapeError, TrainingAborted
from .tensor import Tensor

__all__ = [
    "Tensor",
    "ShapeError",
    "NumericError",
    "ConfigError",
    "TrainingAborted",
]

__version__ = "0.1.0"
