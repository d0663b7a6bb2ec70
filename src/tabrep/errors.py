"""Exception types shared across the package."""


class TabrepError(Exception):
    """Base class for all package-specific errors."""


class BadTableError(TabrepError):
    """Raw table record is structurally unusable (no headers, no rows, bad JSON shape)."""


class TableTooSmall(TabrepError):
    """Table lost every element during linearization or filtering."""


class UnknownId(TabrepError):
    """A token or entity id falls outside the embedding table it indexes."""


class AllMaskedRow(TabrepError):
    """A visibility row is entirely zero, which a well-formed matrix never produces."""


class ShapeMismatch(TabrepError):
    """Operands disagree on dimensions."""


class EmptyColumn(TabrepError):
    """A column representation was requested for a column with no usable content."""


class ConfigError(TabrepError):
    """Configuration file is malformed or violates a validation rule."""


class CorruptCheckpoint(TabrepError):
    """Checkpoint bytes fail magic or integrity checks."""


class VersionMismatch(TabrepError):
    """Checkpoint was written by an incompatible format version."""


class NonFiniteLoss(TabrepError):
    """A training loss or gradient norm came out NaN or infinite; no optimizer step is taken on it."""
