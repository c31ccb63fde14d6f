"""Exception types shared across the package, and read_text, the text-file
reader that turns undecodable bytes into one of them.

Callers can catch the narrow type (e.g. CheckpointShapeError) or the family
base class. Argument-contract violations raise plain ValueError/TypeError.
"""

from pathlib import Path


class NumericError(ArithmeticError):
    """A NaN or Inf appeared where the contract requires finite values."""


class ConfigError(ValueError):
    """A configuration object violates its own consistency rules."""


class VocabMismatchError(ConfigError):
    """Two components disagree about vocabulary size or reserved ids."""


class CheckpointError(RuntimeError):
    """Base class for checkpoint load/save failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not one this build can read."""


class CheckpointShapeError(CheckpointError):
    """A stored tensor does not match the shape implied by the config."""


class CorruptCheckpointError(CheckpointError):
    """weights.bin is truncated or inconsistent with its manifest."""


class UsageError(Exception):
    """Bad command-line usage (missing input, malformed flag value)."""


def read_text(path, error: type[Exception] = ValueError) -> str:
    """The UTF-8 text of path; bytes that do not decode raise error naming path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from None
