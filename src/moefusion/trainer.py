"""Training loop: packed-batch cross-entropy plus the load-balance penalty.

The loss is masked mean next-token negative log-likelihood over real targets,
plus aux_loss_weight times the mean MoE load-balance term. Training stops at
the step budget or earlier when the plateau rule fires: the mean loss of the
last plateau_window steps improved by less than plateau_rel_tol relative to
the window before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .adafactor import AdafactorHyper, AdafactorState, adafactor_step
from .checkpoint import Checkpoint, save_checkpoint
from .errors import NumericError
from .model import MoeLmConfig, build_forward, init_params
from .packing import PackedBatch, pack_batches
from .tokenizer import TokenSeq

__all__ = ["StepRecord", "TrainLog", "batch_loss", "train"]


@dataclass
class StepRecord:
    step: int
    loss: float
    ce_loss: float
    aux_loss: float
    tokens_per_sec: float


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)
    expert_fractions: list[np.ndarray] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def losses(self) -> list[float]:
        return [r.loss for r in self.steps]

    def write_csv(self, path) -> None:
        lines = ["step,loss,ce_loss,aux_loss,tokens_per_sec"]
        for r in self.steps:
            lines.append(
                f"{r.step},{r.loss:.17g},{r.ce_loss:.17g},"
                f"{r.aux_loss:.17g},{r.tokens_per_sec:.2f}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def batch_loss(
    params: Mapping[str, "ad.Var"],
    batch: PackedBatch,
    config: MoeLmConfig,
    moe_impl: str = "sparse",
) -> tuple["ad.Var", dict]:
    """Differentiable loss for one batch; extras carry float diagnostics."""
    tokens = batch.tokens
    targets = np.concatenate(
        [tokens[:, 1:], np.zeros((tokens.shape[0], 1), dtype=tokens.dtype)], axis=1
    )
    result = build_forward(
        params, tokens, config,
        segment_ids=batch.segment_ids, want_aux=True, moe_impl=moe_impl,
    )
    mask = batch.loss_mask
    denom = float(mask.sum())
    if denom == 0:
        raise ValueError("batch has no live loss positions")
    picked = ad.gather_last(result.log_probs, targets)
    ce = ad.scale(ad.neg(ad.sum_(ad.mul(picked, mask))), 1.0 / denom)
    extras = {
        "ce": float(ce.value),
        "aux": 0.0,
        "expert_counts": result.expert_counts,
        "target_tokens": denom,
    }
    loss = ce
    if result.aux_loss is not None and config.aux_loss_weight > 0:
        extras["aux"] = float(result.aux_loss.value)
        loss = ad.add(ce, ad.scale(result.aux_loss, config.aux_loss_weight))
    return loss, extras


def _plateaued(losses: list[float], window: int, rel_tol: float) -> bool:
    if len(losses) < 2 * window:
        return False
    prev = float(np.mean(losses[-2 * window : -window]))
    last = float(np.mean(losses[-window:]))
    return (prev - last) < rel_tol * abs(prev)


def train(
    sentences: Sequence[TokenSeq | Sequence[int]],
    config: MoeLmConfig,
    hyper: AdafactorHyper,
    steps: int,
    seed: int,
    batch_size: int = 8,
    packing_factor: int = 4,
    moe_impl: str = "sparse",
    plateau_window: int = 500,
    plateau_rel_tol: float = 1e-3,
    init: Mapping[str, np.ndarray] | None = None,
    checkpoint_dir=None,
    checkpoint_interval: int | None = None,
) -> tuple[Checkpoint, TrainLog]:
    """Train from scratch (or `init`) for up to `steps` optimizer steps.

    Fully deterministic for fixed inputs and seed. Raises NumericError naming
    the step if the loss or a gradient goes non-finite.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    params = dict(init) if init is not None else init_params(config, seed)
    state = AdafactorState()
    log = TrainLog()

    step = 0
    epoch = 0
    batches: list[PackedBatch] = []
    cursor = 0
    while step < steps:
        if cursor >= len(batches):
            batches, _ = pack_batches(
                sentences,
                max_seq_len=config.max_seq_len,
                batch_size=batch_size,
                packing_factor=packing_factor,
                seed=seed * 1000 + epoch,
            )
            cursor = 0
            epoch += 1
        batch = batches[cursor]
        cursor += 1
        step += 1

        t0 = time.perf_counter()
        var_params = {n: ad.Var(v) for n, v in params.items()}
        try:
            loss, extras = batch_loss(var_params, batch, config, moe_impl=moe_impl)
        except NumericError as exc:
            raise NumericError(f"training diverged at step {step}: {exc}") from exc
        if not np.isfinite(loss.value):
            raise NumericError(f"training diverged: non-finite loss at step {step}")
        ad.backward(loss)
        grads = {n: v.grad if v.grad is not None else np.zeros_like(v.value)
                 for n, v in var_params.items()}
        try:
            # adafactor_step checks every gradient for finiteness; its message
            # names the tensor.
            params, state = adafactor_step(params, grads, step, hyper, state)
        except NumericError as exc:
            raise NumericError(f"training diverged at step {step}: {exc}") from exc
        dt = time.perf_counter() - t0

        log.steps.append(StepRecord(
            step=step,
            loss=float(loss.value),
            ce_loss=extras["ce"],
            aux_loss=extras["aux"],
            tokens_per_sec=extras["target_tokens"] / max(dt, 1e-9),
        ))
        counts = extras["expert_counts"]
        if counts:
            total = np.stack(counts).sum(axis=0)
            log.expert_fractions.append(total / max(total.sum(), 1))

        if checkpoint_dir is not None and checkpoint_interval and \
                step % checkpoint_interval == 0 and step < steps:
            save_checkpoint(
                Checkpoint(config=config, tensors=params, training_step=step),
                f"{checkpoint_dir}/step{step:06d}",
            )
        if _plateaued(log.losses, plateau_window, plateau_rel_tol):
            log.stopped_early = True
            break

    ckpt = Checkpoint(config=config, tensors=params, training_step=step)
    if checkpoint_dir is not None:
        save_checkpoint(ckpt, checkpoint_dir)
    return ckpt, log
