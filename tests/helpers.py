"""Shared test utilities (not collected by pytest)."""

from __future__ import annotations

import numpy as np

from moefusion import autodiff as ad
from moefusion.checkpoint import Checkpoint
from moefusion.fusion import CheckpointLmScorer, _floor
from moefusion.model import LmState
from moefusion.numerics import log_softmax


def record_var_inits(monkeypatch) -> list:
    """A list that gains one entry per Var constructed from now on."""
    made: list = []
    init = ad.Var.__init__
    monkeypatch.setattr(ad.Var, "__init__",
                        lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    return made


class LoopRows:
    """The block half of the scorer protocol over a scorer's start/advance.

    A block is a list of states; advance_rows advances its rows one at a
    time, so a test scorer stays a few lines of start/advance.
    """

    def start_rows(self, length: int):
        state, dist = self.start()
        return [state], dist

    def advance_rows(self, block, parents, tokens):
        out = [self.advance(block[p], tok) for p, tok in zip(parents.tolist(), tokens.tolist())]
        return [state for state, _ in out], np.stack([dist for _, dist in out])


class TableLm(LoopRows):
    """Deterministic toy LM: state walks a fixed table of log-distributions.

    Implements the scorer protocol (start/advance, and the block calls
    through LoopRows) without any model, so fusion logic can be tested
    independently of LM internals.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.vocab_size = int(self.rows.shape[1])

    @classmethod
    def random(cls, vocab_size: int, n_states: int, seed: int, scale: float = 1.5):
        rng = np.random.default_rng([seed, 0x7AB1])
        return cls(log_softmax(rng.standard_normal((n_states, vocab_size)) * scale,
                               axis=-1))

    def start(self):
        return 0, self.rows[0]

    def advance(self, state: int, token: int):
        nxt = (state * 31 + int(token) + 1) % len(self.rows)
        return nxt, self.rows[nxt]


class ModelSource:
    """Posterior backed by an autoregressive checkpoint, queried stepwise.

    Rows are memoized per prefix, so repeated queries are pure: the same
    prefix always yields the identical row. The memo is never pruned, so it
    suits small searches only.
    """

    def __init__(self, ckpt: Checkpoint):
        self._scorer = CheckpointLmScorer(ckpt)
        self.vocab_size = self._scorer.vocab_size
        self.max_steps = ckpt.config.max_seq_len - 1
        self._memo: dict[tuple[int, ...], tuple[LmState, np.ndarray]] = {
            (): self._scorer.start()
        }

    def _ensure(self, prefix: tuple[int, ...]) -> tuple[LmState, np.ndarray]:
        hit = self._memo.get(prefix)
        if hit is not None:
            return hit
        state, _ = self._ensure(prefix[:-1])
        entry = self._scorer.advance(state, prefix[-1])
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


class CountingLm(LoopRows):
    """Wraps a scorer and records each start(), each advance_rows() call and
    the prefix of each advance().

    The wrapped state carries its token prefix, so `advanced` lists the
    prefix every LM step was run for, in call order.
    """

    def __init__(self, inner):
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.starts = 0
        self.blocks = 0
        self.advanced: list[tuple[int, ...]] = []

    def advance_rows(self, block, parents, tokens):
        self.blocks += 1
        return super().advance_rows(block, parents, tokens)

    def start(self):
        self.starts += 1
        state, dist = self.inner.start()
        return ((), state), dist

    def advance(self, state, token: int):
        prefix = state[0] + (int(token),)
        self.advanced.append(prefix)
        inner_state, dist = self.inner.advance(state[1], token)
        return (prefix, inner_state), dist


class UniformLm(LoopRows):
    """LM that scores every token equally at every step."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self._row = np.full(vocab_size, -np.log(vocab_size))

    def start(self):
        return 0, self._row

    def advance(self, state, token):
        return 0, self._row


def random_lattice(vocab_size: int, n_rows: int, seed: int, scale: float = 2.0):
    rng = np.random.default_rng([seed, 0x1A7])
    return log_softmax(rng.standard_normal((n_rows, vocab_size)) * scale, axis=-1)


def reference_select(flat, beam_size):
    """The survivor selection fusion._select replaced: a full lexsort of every
    finite candidate by (-score, index), the first beam_size kept, ascending."""
    finite = np.flatnonzero(np.isfinite(flat))
    order = np.lexsort((finite, -flat[finite]))
    return np.sort(finite[order[:beam_size]])
