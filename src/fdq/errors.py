"""Exception types shared across the library."""


class FdqError(Exception):
    """Base class for all library errors."""


class DimensionError(FdqError, ValueError):
    """Array shapes incompatible with an operation's contract."""


class ContractError(FdqError, ValueError):
    """A call precondition was violated."""


class ConfigError(FdqError, ValueError):
    """Invalid or unknown configuration."""


class TrainingDivergenceError(FdqError, RuntimeError):
    """Loss or gradients became non-finite; the epoch must be aborted."""


class SearchSpaceError(FdqError, ValueError):
    """Exhaustive enumeration refused: the space is too large."""


class CheckpointError(FdqError, ValueError):
    """Malformed or incompatible checkpoint file."""


class LoadError(FdqError, ValueError):
    """An input file could not be loaded."""
