"""Exception types shared across the package; check_finite, which raises
NumericError on a NaN or Inf; and read_text, the text-file reader that turns
undecodable bytes into a ValueError naming the file.

Callers can catch the narrow type (e.g. CheckpointShapeError) or the family
base class. Argument-contract violations raise plain ValueError/TypeError.
"""

from pathlib import Path

import numpy as np


class NumericError(ArithmeticError):
    """A NaN or Inf appeared where the contract requires finite values."""


def check_finite(x: np.ndarray, what: str) -> np.ndarray:
    """Return x unchanged, raising NumericError if any element is NaN/Inf."""
    x = np.asarray(x)
    if not np.isfinite(x).all():
        bad = int(np.size(x) - np.count_nonzero(np.isfinite(x)))
        raise NumericError(f"{what} contains {bad} non-finite value(s)")
    return x


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


def read_text(path) -> str:
    """The UTF-8 text of path; bytes that do not decode raise ValueError naming path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
