"""Dense numeric kernels.

Everything operates on plain numpy arrays in float64 unless the caller passes
something narrower. All public functions but softmax enforce the
package-wide contract that values are finite; a NaN or Inf raises
NumericError instead of propagating.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

__all__ = [
    "check_finite",
    "softmax",
    "log_softmax",
]


def check_finite(x: np.ndarray, what: str) -> np.ndarray:
    """Return x unchanged, raising NumericError if any element is NaN/Inf."""
    x = np.asarray(x)
    if not np.isfinite(x).all():
        bad = int(np.size(x) - np.count_nonzero(np.isfinite(x)))
        raise NumericError(f"{what} contains {bad} non-finite value(s)")
    return x


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max subtraction.

    The one kernel here without a finiteness check: on the short attention and
    routing rows of a decode step the scan would double its cost. Gate logits
    are checked where formed; attention NaNs reach the checked LM log_softmax.
    """
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log of softmax along the last axis, computed with max subtraction.

    exp of the result sums to 1 along the last axis to within float64
    rounding even for inputs with magnitude ~1e3.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.size == 0:
        raise ValueError("log_softmax of an empty axis is undefined")
    check_finite(x, "log_softmax input")
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
