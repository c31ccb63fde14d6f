"""Adafactor optimizer: factored second moments, no first moment.

The second-moment decay follows beta2_hat(t) = min(beta2, 1 - t^-decay_exponent)
with steps counted from 1. Matrices keep only row and column mean
accumulators r and c. The factored moment is vhat = outer(r, c) / mean(r),
but it is never built: the gradient is scaled by sqrt(mean(r)) / sqrt(r) along
rows and by 1 / sqrt(c) along columns, which is g / sqrt(vhat) up to rounding.
Updates are RMS-clipped at clip_threshold before the learning-rate scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .numerics import check_finite

__all__ = ["AdafactorHyper", "AdafactorState", "adafactor_step"]

_EPS1 = 1e-30


@dataclass(frozen=True)
class AdafactorHyper:
    beta2: float = 0.99
    decay_exponent: float = 0.8
    clip_threshold: float = 1.0
    factored: bool = True
    learning_rate: float = 0.05
    warmup_steps: int = 1000
    lr_schedule: str = "inverse_sqrt"

    def __post_init__(self):
        if not 0.0 < self.beta2 < 1.0:
            raise ConfigError(f"beta2 must be in (0, 1), got {self.beta2}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.clip_threshold <= 0:
            raise ConfigError("clip_threshold must be positive")
        if self.lr_schedule not in ("inverse_sqrt", "constant"):
            raise ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.warmup_steps < 1:
            raise ConfigError("warmup_steps must be >= 1")

    def decay(self, t: int) -> float:
        return min(self.beta2, 1.0 - float(t) ** (-self.decay_exponent))

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
        if hyper.factored and g.ndim == 2:
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
        u *= lr / max(1.0, rms_u / hyper.clip_threshold)
        new_params[name] = np.subtract(np.asarray(p, dtype=np.float64), u, out=u)
    return new_params, state
