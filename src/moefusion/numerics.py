"""Dense numeric kernels and the finite-difference gradient checker.

Everything operates on plain numpy arrays in float64 unless the caller passes
something narrower. All public functions but softmax enforce the
package-wide contract that values are finite; a NaN or Inf raises
NumericError instead of propagating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import NumericError

__all__ = [
    "check_finite",
    "softmax",
    "log_softmax",
    "logsumexp",
    "GradCheckReport",
    "grad_check",
]


def check_finite(x: np.ndarray, what: str) -> np.ndarray:
    """Return x unchanged, raising NumericError if any element is NaN/Inf."""
    x = np.asarray(x)
    if not np.isfinite(x).all():
        bad = int(np.size(x) - np.count_nonzero(np.isfinite(x)))
        raise NumericError(f"{what} contains {bad} non-finite value(s)")
    return x


def logsumexp(v: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Stable log(sum(exp(v))) along axis (all elements if axis is None)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("logsumexp of an empty array is undefined")
    check_finite(v, "logsumexp input")
    m = np.max(v, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(v - m), axis=axis, keepdims=True))
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along axis, computed with max subtraction.

    The one kernel here without a finiteness check: on the short attention and
    routing rows of a decode step the scan would double its cost. Gate logits
    are checked where formed; attention NaNs reach the checked LM log_softmax.
    """
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log of softmax along axis, computed with max subtraction.

    exp of the result sums to 1 along axis to within float64 rounding even for
    inputs with magnitude ~1e3.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.size == 0 or x.shape[axis] == 0:
        raise ValueError("log_softmax of an empty axis is undefined")
    check_finite(x, "log_softmax input")
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference gradient check.

    worst_parameter identifies the element with the largest relative error as
    (tensor name, flat index).
    """

    max_relative_error: float
    worst_parameter: tuple[str, int]
    num_checked: int


def grad_check(
    loss_fn: Callable[[Mapping[str, np.ndarray]], tuple[float, Mapping[str, np.ndarray]]],
    params: Mapping[str, np.ndarray],
    epsilon: float = 1e-5,
    max_checked: int = 10_000,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn maps a parameter dict to (scalar loss, gradient dict of the same
    structure). Relative error per element is
    |g_a - g_fd| / max(|g_a|, |g_fd|, 1e-8). When the total parameter count
    exceeds max_checked, a seeded uniform subset of elements is checked.

    Parameters are perturbed in place and restored exactly, so loss_fn must
    not retain references that outlive the call.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon must be in [1e-7, 1e-3], got {epsilon}")
    if not params:
        raise ValueError("grad_check needs at least one parameter tensor")
    names = list(params.keys())
    arrays = {n: np.asarray(params[n], dtype=np.float64) for n in names}

    loss0, grads = loss_fn(arrays)
    if not np.isfinite(loss0):
        raise NumericError(f"loss is non-finite at the evaluation point: {loss0}")
    for n in names:
        if n not in grads:
            raise ValueError(f"loss_fn returned no gradient for parameter {n!r}")
        check_finite(grads[n], f"analytic gradient for {n!r}")

    # Flat global index space over all tensors, in dict order.
    sizes = [arrays[n].size for n in names]
    total = int(sum(sizes))
    if total > max_checked:
        rng = np.random.default_rng([seed, 0x6FD])
        chosen = np.sort(rng.choice(total, size=max_checked, replace=False))
    else:
        chosen = np.arange(total)

    offsets = np.cumsum([0] + sizes)
    worst = ("", -1)
    worst_err = 0.0
    for g in chosen.tolist():
        ti = int(np.searchsorted(offsets, g, side="right") - 1)
        name = names[ti]
        flat_idx = g - int(offsets[ti])
        arr = arrays[name]
        flat = arr.reshape(-1)
        saved = flat[flat_idx]

        flat[flat_idx] = saved + epsilon
        lp, _ = loss_fn(arrays)
        flat[flat_idx] = saved - epsilon
        lm, _ = loss_fn(arrays)
        flat[flat_idx] = saved

        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericError(
                f"loss became non-finite while perturbing {name!r}[{flat_idx}]"
            )
        fd = (lp - lm) / (2.0 * epsilon)
        ga = float(np.asarray(grads[name]).reshape(-1)[flat_idx])
        rel = abs(ga - fd) / max(abs(ga), abs(fd), 1e-8)
        if rel > worst_err:
            worst_err = rel
            worst = (name, flat_idx)

    return GradCheckReport(
        max_relative_error=float(worst_err),
        worst_parameter=worst,
        num_checked=len(chosen),
    )
