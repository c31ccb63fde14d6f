"""Training loop: packed-batch cross-entropy plus the load-balance penalty.

The loss is masked mean next-token negative log-likelihood over real targets,
plus aux_loss_weight times the mean MoE load-balance term. Training always
starts from init_params(config, seed) and stops at the step budget or earlier
when the plateau rule fires: the mean loss of the last PLATEAU_WINDOW steps
improved by less than PLATEAU_REL_TOL relative to the window before it.
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

# The plateau rule, read at each check.
PLATEAU_WINDOW = 500
PLATEAU_REL_TOL = 1e-3


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
) -> tuple["ad.Var", dict]:
    """Differentiable loss for one batch; extras carry float diagnostics."""
    tokens = batch.tokens
    targets = np.concatenate(
        [tokens[:, 1:], np.zeros((tokens.shape[0], 1), dtype=tokens.dtype)], axis=1
    )
    result = build_forward(
        params, tokens, config,
        segment_ids=batch.segment_ids, want_aux=True,
    )
    mask = batch.loss_mask
    denom = float(mask.sum())
    if denom == 0:
        raise ValueError("batch has no live loss positions")
    rows = ad.reshape(result.log_probs, (targets.size, config.vocab_size))
    picked = ad.gather_pairs(rows, np.arange(targets.size), targets.ravel())
    ce = ad.mul(ad.sum_(ad.mul(picked, mask.ravel())), -1.0 / denom)
    extras = {
        "ce": float(ce.value),
        "aux": 0.0,
        "target_tokens": denom,
    }
    loss = ce
    if result.aux_loss is not None and config.aux_loss_weight > 0:
        extras["aux"] = float(result.aux_loss.value)
        loss = ad.add(ce, ad.mul(result.aux_loss, config.aux_loss_weight))
    return loss, extras


def _plateaued(losses: list[float]) -> bool:
    window = PLATEAU_WINDOW
    if len(losses) < 2 * window:
        return False
    prev = float(np.mean(losses[-2 * window : -window]))
    last = float(np.mean(losses[-window:]))
    return (prev - last) < PLATEAU_REL_TOL * abs(prev)


def train(
    sentences: Sequence[TokenSeq | Sequence[int]],
    config: MoeLmConfig,
    hyper: AdafactorHyper,
    steps: int,
    seed: int,
    batch_size: int,
    packing_factor: int,
    checkpoint_dir,
) -> tuple[Checkpoint, TrainLog]:
    """Train from init_params(config, seed) for up to `steps` optimizer steps.

    Fully deterministic for fixed inputs and seed. The final checkpoint goes
    to checkpoint_dir. Raises NumericError naming the step if the loss or a
    gradient goes non-finite.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    params = init_params(config, seed)
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
            loss, extras = batch_loss(var_params, batch, config)
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
        # The gradients and the old weights die with the step. The graph's
        # activations die when the next step rebinds `loss`, after its
        # forward pass: freed sooner, they empty the top of the heap, glibc
        # returns it to the OS and the next step faults it back in, which
        # at d=32 costs more time than the memory is worth (ROADMAP item 11).
        del grads
        for v in var_params.values():
            v.grad = v.value = None
        dt = time.perf_counter() - t0

        log.steps.append(StepRecord(
            step=step,
            loss=float(loss.value),
            ce_loss=extras["ce"],
            aux_loss=extras["aux"],
            tokens_per_sec=extras["target_tokens"] / max(dt, 1e-9),
        ))

        if _plateaued(log.losses):
            log.stopped_early = True
            break

    ckpt = Checkpoint(config=config, tensors=params, training_step=step)
    save_checkpoint(ckpt, checkpoint_dir)
    return ckpt, log
