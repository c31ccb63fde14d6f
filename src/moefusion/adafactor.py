"""Adafactor optimizer: factored second moments, no first moment.

The second-moment decay follows beta2_hat(t) = min(BETA2, 1 - t^-0.8) with
steps counted from 1. Every matrix is factored, keeping only row and column
mean accumulators r and c; vectors and scalars keep the full second moment.
The factored moment is vhat = outer(r, c) / mean(r), but it is never built:
the gradient is scaled by sqrt(mean(r)) / sqrt(r) along rows and by
1 / sqrt(c) along columns, which is g / sqrt(vhat) up to rounding.
Updates are RMS-clipped at CLIP_THRESHOLD before the learning-rate scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .numerics import check_finite

__all__ = ["LR_SCHEDULES", "AdafactorHyper", "AdafactorState", "adafactor_step"]

_EPS1 = 1e-30
_DECAY_EXPONENT = 0.8
# The decay cap and the update clip, read at each step.
BETA2 = 0.99
CLIP_THRESHOLD = 1.0
LR_SCHEDULES = ("inverse_sqrt", "constant")


@dataclass(frozen=True)
class AdafactorHyper:
    learning_rate: float
    warmup_steps: int
    lr_schedule: str

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.warmup_steps < 1:
            raise ConfigError("warmup_steps must be >= 1")

    def decay(self, t: int) -> float:
        return min(BETA2, 1.0 - float(t) ** -_DECAY_EXPONENT)

    def lr(self, t: int) -> float:
        if self.lr_schedule == "constant":
            return self.learning_rate
        w = self.warmup_steps
        return self.learning_rate * min(t / w, np.sqrt(w / t))


@dataclass
class AdafactorState:
    """Second-moment accumulators only; there is no first-moment buffer."""

    row: dict[str, np.ndarray] = field(default_factory=dict)
    col: dict[str, np.ndarray] = field(default_factory=dict)
    full: dict[str, np.ndarray] = field(default_factory=dict)


def adafactor_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    t: int,
    hyper: AdafactorHyper,
    state: AdafactorState | None = None,
) -> tuple[dict[str, np.ndarray], AdafactorState]:
    """One optimizer step at step count t >= 1; returns (new params, state).

    A zero gradient leaves the parameter unchanged (accumulators only decay).
    Input arrays are not mutated.
    """
    if t < 1:
        raise ValueError(f"step count t must be >= 1, got {t}")
    if state is None:
        state = AdafactorState()
    beta = hyper.decay(t)
    lr = hyper.lr(t)
    new_params: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = check_finite(np.asarray(grads[name], dtype=np.float64),
                         f"gradient for {name!r}")
        # Fresh arrays (even for 0-d g) that the update is computed in.
        sq = np.multiply(g, g, out=np.empty_like(g))
        sq += _EPS1
        if g.ndim == 2:
            r = state.row.get(name)
            c = state.col.get(name)
            if r is None:
                r = np.zeros(g.shape[0])
                c = np.zeros(g.shape[1])
            r = beta * r + (1.0 - beta) * sq.mean(axis=1)
            c = beta * c + (1.0 - beta) * sq.mean(axis=0)
            state.row[name] = r
            state.col[name] = c
            u = g * (np.sqrt(r.mean()) / np.sqrt(r))[:, None]
            u /= np.sqrt(c)
        else:
            v = state.full.get(name)
            if v is None:
                v = np.zeros_like(g)
            v = beta * v + (1.0 - beta) * sq
            state.full[name] = v
            u = np.sqrt(v, out=sq)
            np.divide(g, u, out=u)
        rms_u = np.sqrt(np.vdot(u, u) / u.size)
        u *= lr / max(1.0, rms_u / CLIP_THRESHOLD)
        new_params[name] = np.subtract(np.asarray(p, dtype=np.float64), u, out=u)
    return new_params, state
