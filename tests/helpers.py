"""Shared test utilities (not collected by pytest)."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from moefusion import autodiff as ad
from moefusion.adafactor import AdafactorHyper
from moefusion.checkpoint import Checkpoint
from moefusion.errors import ConfigError, NumericError
from moefusion.fusion import _BIN_MAGIC, _floor, beam_search_fusion
from moefusion.model import LmState, MoeLmConfig, _ffn, gate_topk, initial_state, lm_score_rows
from moefusion.numerics import check_finite, log_softmax
from moefusion.synthetic import gen_synthetic
from moefusion.tokenizer import BOS_ID, Vocab, encode, read_corpus
from moefusion.trainer import train


def build_synth_pipeline(root: Path) -> dict:
    """The generated task at seed 0 under root, plus an LM trained on it and
    saved to root/lm, each with the CLI's default settings."""
    paths = gen_synthetic(root, seed=0, sentences_per_locale=400, eval_per_locale=30,
                          vocab_size=512)
    vocab = Vocab.load(paths.vocab)
    sentences = [encode(text, vocab) for _, text in read_corpus(paths.lm_manifest)]
    config = MoeLmConfig(
        num_layers=2, model_dim=32, num_heads=2, head_dim=16,
        num_experts=4, experts_per_token=2, vocab_size=vocab.size,
        max_seq_len=64,
    )
    hyper = AdafactorHyper(learning_rate=0.05, warmup_steps=50, lr_schedule="inverse_sqrt")
    ckpt, log = train(sentences, config, hyper, steps=300, seed=0, batch_size=8,
                      packing_factor=4, checkpoint_dir=root / "lm")
    return {
        "paths": paths,
        "vocab": vocab,
        "config": config,
        "checkpoint": ckpt,
        "lm_dir": root / "lm",
        "train_log": log,
    }


def record_var_inits(monkeypatch) -> list:
    """A list that gains one entry per Var constructed from now on."""
    made: list = []
    init = ad.Var.__init__
    monkeypatch.setattr(ad.Var, "__init__",
                        lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    return made


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


def fd_check(build, params, tol=1e-6, eps=1e-5):
    """build(vars) -> Var of any shape; loss = sum(out * fixed projection)."""
    shapes = {n: np.asarray(v).shape for n, v in params.items()}
    rng = np.random.default_rng(0xF00D)
    proj = {}

    def loss_fn(p):
        vars_ = {n: ad.Var(v) for n, v in p.items()}
        out = build(vars_)
        if not proj:
            proj["r"] = rng.standard_normal(out.value.shape)
        loss = ad.sum_(ad.mul(out, proj["r"]))
        ad.backward(loss)
        grads = {
            n: (v.grad if v.grad is not None else np.zeros(shapes[n]))
            for n, v in vars_.items()
        }
        return float(loss.value), grads

    rep = grad_check(loss_fn, params, epsilon=eps)
    assert rep.max_relative_error < tol, rep


class TableLm:
    """Deterministic toy LM: each row walks a fixed table of log-distributions.

    Implements the scorer protocol's block calls without any model (a block
    is the rows' table indices), so fusion logic can be tested independently
    of LM internals.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.vocab_size = int(self.rows.shape[1])

    @classmethod
    def random(cls, vocab_size: int, n_states: int, seed: int, scale: float = 1.5):
        rng = np.random.default_rng([seed, 0x7AB1])
        return cls(log_softmax(rng.standard_normal((n_states, vocab_size)) * scale))

    def start_rows(self):
        return np.zeros(1, dtype=np.int64), self.rows[0]

    def advance_rows(self, block, parents, tokens):
        nxt = (block[parents] * 31 + tokens + 1) % len(self.rows)
        return nxt, self.rows[nxt]


class ModelSource:
    """Posterior backed by an autoregressive checkpoint, queried stepwise.

    A rows() call scores the prefixes it has not seen before in one
    lm_score_rows block. Rows are memoized per prefix, so repeated queries
    are pure: the same prefix always yields the identical row. The memo is
    never pruned, so it suits small searches only.
    """

    def __init__(self, ckpt: Checkpoint):
        self._params, self._config = ckpt.tensors, ckpt.config
        self.vocab_size = ckpt.config.vocab_size
        self.max_steps = ckpt.config.max_seq_len - 1
        # prefix -> (the KV block holding its row, the row's index there, the row)
        self._memo: dict[tuple[int, ...], tuple[LmState, int, np.ndarray]] = {}
        self._score([()], initial_state(self._config), [0], [BOS_ID])

    def _score(self, prefixes, block, parents, tokens):
        state, rows = lm_score_rows(self._params, self._config, block, parents, tokens)
        for r, prefix in enumerate(prefixes):
            self._memo[prefix] = (state, r, rows[r])

    def _ensure(self, prefixes: list[tuple[int, ...]]) -> None:
        """Memoize prefixes of one length, scoring the new ones as one block
        over their parents' KV rows."""
        new = [p for p in dict.fromkeys(prefixes) if p not in self._memo]
        if not new:
            return
        self._ensure([p[:-1] for p in new])
        held = [self._memo[p[:-1]] for p in new]
        layers = range(self._config.num_layers)
        block = LmState(
            keys=[np.concatenate([s.keys[i][r:r + 1] for s, r, _ in held]) for i in layers],
            values=[np.concatenate([s.values[i][r:r + 1] for s, r, _ in held]) for i in layers])
        self._score(new, block, np.arange(len(new)), [p[-1] for p in new])

    def rows(self, prefixes, t: int) -> np.ndarray:
        """The prefixes' rows at step t, stacked and floored as one block."""
        prefixes = [tuple(int(x) for x in prefix) for prefix in prefixes]
        for prefix in prefixes:
            if t != len(prefix):
                raise ValueError(
                    f"model source row {t} requested for a {len(prefix)}-token prefix"
                )
            if t >= self.max_steps:
                raise ValueError(f"model context exhausted at step {t}")
        self._ensure(prefixes)
        return _floor(np.stack([self._memo[p][2] for p in prefixes]))


def search(source, lm, config):
    """One job's beam search: its finished hypotheses, best first."""
    (hyps,) = beam_search_fusion([(source, config)], lm)
    return hyps


class CountingLm:
    """Wraps a scorer and records each start_rows() call, each advance_rows()
    call and the prefix of each row advanced.

    The wrapped block carries its rows' token prefixes, so `advanced` lists
    the prefix every LM row was scored for, in call order.
    """

    def __init__(self, inner):
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.starts = 0
        self.blocks = 0
        self.advanced: list[tuple[int, ...]] = []

    def start_rows(self):
        self.starts += 1
        block, dist = self.inner.start_rows()
        return ([()], block), dist

    def advance_rows(self, block, parents, tokens):
        self.blocks += 1
        prefixes = [block[0][p] + (t,) for p, t in zip(parents.tolist(), tokens.tolist())]
        self.advanced += prefixes
        inner, dist = self.inner.advance_rows(block[1], parents, tokens)
        return (prefixes, inner), dist


class UniformLm:
    """LM that scores every token equally at every step."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self._row = np.full(vocab_size, -np.log(vocab_size))

    def start_rows(self):
        return None, self._row

    def advance_rows(self, block, parents, tokens):
        return None, np.tile(self._row, (len(tokens), 1))


def save_binary_lattice(frames, path) -> None:
    """Write a (T, V) array as a binary `latb1` lattice, which load_lattice
    reads back as float32 frames."""
    frames = np.asarray(frames, dtype=np.float64)
    t, v = frames.shape
    Path(path).write_bytes(_BIN_MAGIC + struct.pack("<II", t, v) + frames.astype("<f4").tobytes())


def random_lattice(vocab_size: int, n_rows: int, seed: int, scale: float = 2.0):
    rng = np.random.default_rng([seed, 0x1A7])
    return log_softmax(rng.standard_normal((n_rows, vocab_size)) * scale)


def reference_select(flat, beam_size):
    """The survivor selection fusion._select replaced: a full lexsort of every
    finite candidate by (-score, index), the first beam_size kept, ascending."""
    finite = np.flatnonzero(np.isfinite(flat))
    order = np.lexsort((finite, -flat[finite]))
    return np.sort(finite[order[:beam_size]])


def composed_attention(q, k, v, bias):
    """The reference ad.attention is tested against: the chain of autodiff
    nodes it replaced, softmax(q k^T / sqrt(dh) + bias) v as a swapaxes, a
    matmul, a mul, an add, a softmax and a matmul."""
    scores = ad.mul(ad.matmul(q, ad.swapaxes(k, 2, 3)), 1.0 / np.sqrt(q.shape[-1]))
    return ad.matmul(ad.softmax(ad.add(scores, bias)), v)


def dense_mixture(flat, gate_weight, expert, k):
    """The reference model._mixture is tested against, and a drop-in for it:
    every expert runs on every token, mixed by the full gate softmax. That
    is the top-k mixture only when k == E, so any other k is refused."""
    n, e = flat.shape[0], gate_weight.shape[1]
    if k != e:
        raise ConfigError("dense mixture requires experts_per_token == num_experts")
    gate = gate_topk(flat, gate_weight, k)
    probs, out = ad.softmax(gate.all_gate_logits), None
    for idx in range(e):
        col = ad.gather_pairs(probs, np.arange(n)[:, None], np.full((n, 1), idx))
        term = ad.mul(_ffn(flat, expert(idx)), col)
        out = term if out is None else ad.add(out, term)
    return out, gate
