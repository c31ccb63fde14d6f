"""Shared test utilities (not collected by pytest)."""

from __future__ import annotations

import numpy as np

from moefusion import autodiff as ad
from moefusion.checkpoint import Checkpoint
from moefusion.errors import ConfigError
from moefusion.fusion import _floor
from moefusion.model import LmState, _ffn, gate_topk, initial_state, lm_score_step
from moefusion.numerics import grad_check, log_softmax
from moefusion.tokenizer import BOS_ID


def record_var_inits(monkeypatch) -> list:
    """A list that gains one entry per Var constructed from now on."""
    made: list = []
    init = ad.Var.__init__
    monkeypatch.setattr(ad.Var, "__init__",
                        lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    return made


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
        return cls(log_softmax(rng.standard_normal((n_states, vocab_size)) * scale,
                               axis=-1))

    def start_rows(self):
        return np.zeros(1, dtype=np.int64), self.rows[0]

    def advance_rows(self, block, parents, tokens):
        nxt = (block[parents] * 31 + tokens + 1) % len(self.rows)
        return nxt, self.rows[nxt]


class ModelSource:
    """Posterior backed by an autoregressive checkpoint, queried stepwise.

    Rows are memoized per prefix, so repeated queries are pure: the same
    prefix always yields the identical row. The memo is never pruned, so it
    suits small searches only.
    """

    def __init__(self, ckpt: Checkpoint):
        self._params, self._config = ckpt.tensors, ckpt.config
        self.vocab_size = ckpt.config.vocab_size
        self.max_steps = ckpt.config.max_seq_len - 1
        self._memo: dict[tuple[int, ...], tuple[LmState, np.ndarray]] = {
            (): lm_score_step(self._params, self._config, initial_state(self._config), BOS_ID)
        }

    def _ensure(self, prefix: tuple[int, ...]) -> tuple[LmState, np.ndarray]:
        hit = self._memo.get(prefix)
        if hit is not None:
            return hit
        state, _ = self._ensure(prefix[:-1])
        entry = lm_score_step(self._params, self._config, state, prefix[-1])
        self._memo[prefix] = entry
        return entry

    def rows(self, prefixes, t: int) -> np.ndarray:
        """The prefixes' rows at step t, stacked and floored as one block."""
        out = []
        for prefix in prefixes:
            prefix = tuple(int(x) for x in prefix)
            if t != len(prefix):
                raise ValueError(
                    f"model source row {t} requested for a {len(prefix)}-token prefix"
                )
            if t >= self.max_steps:
                raise ValueError(f"model context exhausted at step {t}")
            out.append(self._ensure(prefix)[1])
        return _floor(np.stack(out))


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


def random_lattice(vocab_size: int, n_rows: int, seed: int, scale: float = 2.0):
    rng = np.random.default_rng([seed, 0x1A7])
    return log_softmax(rng.standard_normal((n_rows, vocab_size)) * scale, axis=-1)


def reference_select(flat, beam_size):
    """The survivor selection fusion._select replaced: a full lexsort of every
    finite candidate by (-score, index), the first beam_size kept, ascending."""
    finite = np.flatnonzero(np.isfinite(flat))
    order = np.lexsort((finite, -flat[finite]))
    return np.sort(finite[order[:beam_size]])


def dense_mixture(flat, gate_weight, expert, k):
    """The reference model._mixture is tested against, and a drop-in for it:
    every expert runs on every token, mixed by the full gate softmax. That
    is the top-k mixture only when k == E, so any other k is refused."""
    n, e = flat.shape[0], gate_weight.shape[1]
    if k != e:
        raise ConfigError("dense mixture requires experts_per_token == num_experts")
    gate = gate_topk(flat, gate_weight, k)
    probs, out = ad.softmax(gate.all_gate_logits, axis=-1), None
    for idx in range(e):
        col = ad.gather_pairs(probs, np.arange(n)[:, None], np.full((n, 1), idx))
        term = ad.mul(_ffn(flat, expert(idx)), col)
        out = term if out is None else ad.add(out, term)
    return out, gate
