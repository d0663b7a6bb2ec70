"""Structure-aware representation learning for relational tables."""

from .errors import (
    AllMaskedRow,
    BadTableError,
    ConfigError,
    CorruptCheckpoint,
    EmptyColumn,
    NonFiniteLoss,
    ShapeMismatch,
    TableTooSmall,
    TabrepError,
    UnknownId,
    VersionMismatch,
)
from .store import Config, load_checkpoint, load_config, parse_config, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "AllMaskedRow",
    "BadTableError",
    "Config",
    "ConfigError",
    "CorruptCheckpoint",
    "EmptyColumn",
    "NonFiniteLoss",
    "ShapeMismatch",
    "TableTooSmall",
    "TabrepError",
    "UnknownId",
    "VersionMismatch",
    "load_checkpoint",
    "load_config",
    "parse_config",
    "save_checkpoint",
    "__version__",
]
