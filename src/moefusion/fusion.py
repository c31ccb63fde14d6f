"""Shallow-fusion beam search over an external posterior source and an LM.

Hypotheses are scored as combined = e2e_logprob + lam * lm_logprob. The
posterior source is either a lattice (precomputed per-step log-distributions,
prefix-independent) or an autoregressive model queried stepwise. max_len
counts content tokens; a hypothesis reaching it may only extend with EOS,
which makes the beam's search space identical to the exhaustive oracle's.

Ties anywhere resolve toward the lexicographically smaller token sequence,
so results are deterministic for identical inputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .checkpoint import Checkpoint
from .errors import NumericError, VocabMismatchError
from .model import LmState, initial_state, lm_score_step
from .numerics import logsumexp
from .tokenizer import BOS_ID, EOS_ID, Vocab, decode_text

__all__ = [
    "LOG_FLOOR", "FusionConfig", "Hypothesis",
    "LatticeSource", "ModelSource", "CheckpointLmScorer",
    "fuse", "e2e_step", "beam_search_fusion", "exhaustive_oracle",
    "load_lattice", "save_lattice", "DecodeRow", "decode_utterances",
    "write_decodes", "read_decodes",
]

LOG_FLOOR = -1e9
_ROW_NORM_TOL = 1e-5
_BIN_MAGIC = b"latb1\n"


@dataclass(frozen=True)
class FusionConfig:
    """Decoder settings. lam is the LM weight (0 disables LM influence)."""

    lam: float
    beam_size: int = 8
    n_best: int = 1
    max_len: int | None = None
    length_normalize: bool = False

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if not 1 <= self.n_best <= self.beam_size:
            raise ValueError(
                f"n_best must be in [1, beam_size], got {self.n_best}"
            )
        if self.max_len is not None and self.max_len < 0:
            raise ValueError("max_len must be >= 0")


@dataclass
class Hypothesis:
    """A (partial or finished) decode; finished iff the last token is EOS."""

    tokens: tuple[int, ...]
    e2e_logprob: float
    lm_logprob: float
    combined: float
    finished: bool
    lm_state: "LmState | None" = field(default=None, repr=False, compare=False)
    lm_dist: "np.ndarray | None" = field(default=None, repr=False, compare=False)


class PosteriorSource(Protocol):
    vocab_size: int
    max_steps: int

    def step(self, prefix: tuple[int, ...], t: int) -> np.ndarray: ...


def _floor(row: np.ndarray) -> np.ndarray:
    row = np.asarray(row, dtype=np.float64)
    if np.isnan(row).any():
        raise NumericError("posterior row contains NaN")
    return np.maximum(row, LOG_FLOOR)


class LatticeSource:
    """Posterior from a (T, V) array of per-step log-distributions.

    Row t scores the token at position t regardless of the prefix; row
    indices beyond T-1 do not exist, so decodes carry at most T-1 content
    tokens plus EOS. Rows must be normalized within 1e-5.
    """

    def __init__(self, frames: np.ndarray):
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 4:
            raise ValueError(
                f"lattice must be (T >= 1, V >= 4), got {frames.shape}"
            )
        frames = _floor(frames)
        for t in range(frames.shape[0]):
            z = logsumexp(frames[t])
            if abs(z) > _ROW_NORM_TOL:
                raise ValueError(
                    f"lattice row {t} is not normalized: logsumexp = {z:.3g}"
                )
        self.frames = frames
        self.vocab_size = int(frames.shape[1])
        self.max_steps = int(frames.shape[0])

    def step(self, prefix: tuple[int, ...], t: int) -> np.ndarray:
        if not 0 <= t < self.max_steps:
            raise ValueError(f"lattice has {self.max_steps} rows, asked for {t}")
        return self.frames[t]


class CheckpointLmScorer:
    """Incremental next-token scorer over a trained checkpoint."""

    def __init__(self, ckpt: Checkpoint):
        self._params = ckpt.tensors
        self.config = ckpt.config
        self.vocab_size = ckpt.config.vocab_size

    def start(self) -> tuple[LmState, np.ndarray]:
        state = initial_state(self.config)
        return lm_score_step(self._params, self.config, state, BOS_ID)

    def advance(self, state: LmState, token: int) -> tuple[LmState, np.ndarray]:
        return lm_score_step(self._params, self.config, state, int(token))


class ModelSource:
    """Posterior backed by an autoregressive checkpoint, queried stepwise.

    Rows are memoized per prefix, so repeated queries are pure: the same
    prefix always yields the identical row.
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

    def step(self, prefix: tuple[int, ...], t: int) -> np.ndarray:
        prefix = tuple(int(x) for x in prefix)
        if t != len(prefix):
            raise ValueError(
                f"model source row {t} requested for a {len(prefix)}-token prefix"
            )
        if t >= self.max_steps:
            raise ValueError(f"model context exhausted at step {t}")
        return self._ensure(prefix)[1]


def fuse(e2e_logprob: float, lm_logprob: float, lam: float) -> float:
    """Combined score e2e + lam * lm; inputs must be finite, lam >= 0."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if not (np.isfinite(e2e_logprob) and np.isfinite(lm_logprob)):
        raise NumericError("cannot fuse non-finite log-probabilities")
    return float(e2e_logprob) + float(lam) * float(lm_logprob)


def e2e_step(source: PosteriorSource, prefix: Sequence[int], t: int) -> np.ndarray:
    """Floored posterior row for position t given the prefix."""
    return _floor(source.step(tuple(int(x) for x in prefix), t))


def _wrap_lm(lm):
    if lm is None:
        return None
    if isinstance(lm, Checkpoint):
        return CheckpointLmScorer(lm)
    return lm


def _check_vocab(source, lm_scorer):
    if lm_scorer is not None and lm_scorer.vocab_size != source.vocab_size:
        raise VocabMismatchError(
            f"posterior source has vocab {source.vocab_size}, "
            f"LM has {lm_scorer.vocab_size}"
        )


def _final_rank_key(h: Hypothesis, length_normalize: bool):
    score = h.combined / len(h.tokens) if length_normalize else h.combined
    return (-score, h.tokens)


def beam_search_fusion(
    source: PosteriorSource,
    lm,
    config: FusionConfig,
) -> list[Hypothesis]:
    """Beam search under the fused score; returns up to n_best finished hyps.

    lm may be None (pure e2e), a Checkpoint, or any scorer with
    start()/advance(). Every surviving hypothesis advances the LM once per
    step, so LM cost is O(beam * length) regardless of vocab size.
    """
    lm_scorer = _wrap_lm(lm)
    _check_vocab(source, lm_scorer)
    v = source.vocab_size
    eff_max = source.max_steps - 1
    if config.max_len is not None:
        eff_max = min(eff_max, config.max_len)

    if lm_scorer is not None:
        state0, dist0 = lm_scorer.start()
    else:
        state0, dist0 = None, None
    root = Hypothesis(
        tokens=(), e2e_logprob=0.0, lm_logprob=0.0, combined=0.0,
        finished=False, lm_state=state0, lm_dist=dist0,
    )
    survivors = [root]
    pool: list[Hypothesis] = []

    for t in range(eff_max + 1):
        if not survivors:
            break
        n = len(survivors)
        e2e_rows = np.stack([e2e_step(source, h.tokens, t) for h in survivors])
        if lm_scorer is not None:
            lm_rows = np.stack([_floor(h.lm_dist) for h in survivors])
        else:
            lm_rows = np.zeros((n, v))
        base = np.array([h.combined for h in survivors])
        totals = base[:, None] + e2e_rows + config.lam * lm_rows
        if t == eff_max:
            # Content budget exhausted: EOS is the only legal extension.
            keep = np.full_like(totals, -np.inf)
            keep[:, EOS_ID] = totals[:, EOS_ID]
            totals = keep

        flat = totals.ravel()
        finite = np.nonzero(np.isfinite(flat))[0]
        parents = finite // v
        toks = finite % v
        # Primary: fused score descending; ties: lexicographically smaller
        # sequence. Survivors are kept lex-sorted, so (parent rank, token)
        # orders equal-length candidate sequences lexicographically.
        order = np.lexsort((toks, parents, -flat[finite]))
        selected = finite[order[: config.beam_size]]

        next_survivors: list[Hypothesis] = []
        for idx in selected.tolist():
            p, tok = idx // v, idx % v
            parent = survivors[p]
            e2e_lp = parent.e2e_logprob + float(e2e_rows[p, tok])
            lm_lp = parent.lm_logprob + float(lm_rows[p, tok])
            combined = fuse(e2e_lp, lm_lp, config.lam)
            tokens = parent.tokens + (tok,)
            if tok == EOS_ID:
                pool.append(Hypothesis(
                    tokens=tokens, e2e_logprob=e2e_lp, lm_logprob=lm_lp,
                    combined=combined, finished=True,
                ))
            else:
                if lm_scorer is not None:
                    lm_state, lm_dist = lm_scorer.advance(parent.lm_state, tok)
                else:
                    lm_state, lm_dist = None, None
                next_survivors.append(Hypothesis(
                    tokens=tokens, e2e_logprob=e2e_lp, lm_logprob=lm_lp,
                    combined=combined, finished=False,
                    lm_state=lm_state, lm_dist=lm_dist,
                ))
        next_survivors.sort(key=lambda h: h.tokens)
        survivors = next_survivors

    pool.sort(key=lambda h: _final_rank_key(h, config.length_normalize))
    return pool[: config.n_best]


def exhaustive_oracle(
    source: PosteriorSource,
    lm,
    lam: float,
    max_len: int,
) -> Hypothesis:
    """Score every sequence up to max_len content tokens; return the best.

    Independent of the beam machinery; used to certify beam results on tiny
    instances. Refuses when |V|^max_len exceeds 1e6.
    """
    lm_scorer = _wrap_lm(lm)
    _check_vocab(source, lm_scorer)
    v = source.vocab_size
    eff_max = min(max_len, source.max_steps - 1)
    space = float(v) ** eff_max
    if space > 1e6:
        raise ValueError(
            f"oracle space {v}^{eff_max} ~ {space:.2e} sequences exceeds 1e6"
        )

    best: Hypothesis | None = None

    def consider(tokens, e2e_lp, lm_lp):
        nonlocal best
        combined = fuse(e2e_lp, lm_lp, lam)
        if (
            best is None
            or combined > best.combined
            or (combined == best.combined and tokens < best.tokens)
        ):
            best = Hypothesis(
                tokens=tokens, e2e_logprob=e2e_lp, lm_logprob=lm_lp,
                combined=combined, finished=True,
            )

    def dfs(prefix, e2e_lp, lm_lp, lm_state, lm_dist, depth):
        row = e2e_step(source, prefix, depth)
        lm_row = _floor(lm_dist) if lm_scorer is not None else None
        lm_eos = float(lm_row[EOS_ID]) if lm_row is not None else 0.0
        consider(prefix + (EOS_ID,), e2e_lp + float(row[EOS_ID]), lm_lp + lm_eos)
        if depth >= eff_max:
            return
        for tok in range(v):
            if tok == EOS_ID:
                continue
            lm_inc = float(lm_row[tok]) if lm_row is not None else 0.0
            if lm_scorer is not None:
                st2, dist2 = lm_scorer.advance(lm_state, tok)
            else:
                st2, dist2 = None, None
            dfs(prefix + (tok,), e2e_lp + float(row[tok]), lm_lp + lm_inc,
                st2, dist2, depth + 1)

    if lm_scorer is not None:
        state0, dist0 = lm_scorer.start()
    else:
        state0, dist0 = None, None
    dfs((), 0.0, 0.0, state0, dist0, 0)
    assert best is not None
    return best


def save_lattice(frames: np.ndarray, path: str | Path, binary: bool = False) -> None:
    """Write a (T, V) log-distribution array as text `lat1` or binary `latb1`."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError(f"lattice must be 2-D, got shape {frames.shape}")
    t, v = frames.shape
    path = Path(path)
    if binary:
        with open(path, "wb") as fh:
            fh.write(_BIN_MAGIC)
            fh.write(struct.pack("<II", t, v))
            fh.write(frames.astype("<f4").tobytes())
        return
    lines = [f"lat1 {t} {v}"]
    for row in frames:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_lattice(path: str | Path) -> np.ndarray:
    """Read either lattice format back into a float64 (T, V) array."""
    path = Path(path)
    raw = path.read_bytes()
    if raw.startswith(_BIN_MAGIC):
        off = len(_BIN_MAGIC)
        t, v = struct.unpack_from("<II", raw, off)
        off += 8
        need = t * v * 4
        if len(raw) - off != need:
            raise ValueError(
                f"{path}: binary lattice payload is {len(raw) - off} bytes, "
                f"header implies {need}"
            )
        arr = np.frombuffer(raw, dtype="<f4", count=t * v, offset=off)
        return arr.astype(np.float64).reshape(t, v)
    text = raw.decode("utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty lattice file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "lat1":
        raise ValueError(f"{path}: bad lattice header {lines[0]!r}")
    t, v = int(head[1]), int(head[2])
    if len(lines) - 1 != t:
        raise ValueError(f"{path}: header declares {t} rows, file has {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        vals = np.array([float(x) for x in ln.split()], dtype=np.float64)
        if vals.size != v:
            raise ValueError(f"{path}: row has {vals.size} values, expected {v}")
        rows.append(vals)
    return np.stack(rows)


@dataclass
class DecodeRow:
    utt_id: str
    text: str
    e2e_logprob: float
    lm_logprob: float
    combined: float


def _checked_lattice(path: Path, vocab: Vocab, config: FusionConfig,
                     lm_config) -> LatticeSource:
    """Load one lattice and check it against the vocab and the LM context."""
    source = LatticeSource(load_lattice(path))
    if source.vocab_size != vocab.size:
        raise VocabMismatchError(
            f"{path.name}: lattice vocab {source.vocab_size} != "
            f"tokenizer vocab {vocab.size}"
        )
    if lm_config is not None:
        # The LM sees BOS plus every content token of a decode.
        steps = source.max_steps - 1
        if config.max_len is not None:
            steps = min(steps, config.max_len)
        room = lm_config.max_seq_len - 1
        if steps > room:
            raise ValueError(
                f"{path.name}: lattice allows decodes of {steps} tokens, but "
                f"the LM context holds {room} after BOS; pass --max-len {room} "
                f"or less"
            )
    return source


def decode_utterances(
    lattice_dir: str | Path,
    lm,
    config: FusionConfig,
    vocab: Vocab,
) -> list[DecodeRow]:
    """Beam-decode every *.lat file in a directory, sorted by utterance id.

    Every lattice is loaded and checked before the first one is decoded, so a
    bad file fails the run before any search work is done. Each is loaded
    again for its decode, so that only one is held in memory at a time.
    """
    lattice_dir = Path(lattice_dir)
    paths = sorted(lattice_dir.glob("*.lat"))
    if not paths:
        raise FileNotFoundError(f"no *.lat files in {lattice_dir}")
    lm_config = getattr(_wrap_lm(lm), "config", None)
    for p in paths:
        _checked_lattice(p, vocab, config, lm_config)
    rows: list[DecodeRow] = []
    for p in paths:
        source = _checked_lattice(p, vocab, config, lm_config)
        best = beam_search_fusion(source, lm, config)[0]
        rows.append(DecodeRow(
            utt_id=p.stem,
            text=decode_text(best.tokens, vocab),
            e2e_logprob=best.e2e_logprob,
            lm_logprob=best.lm_logprob,
            combined=best.combined,
        ))
    return rows


def write_decodes(rows: Sequence[DecodeRow], path: str | Path) -> None:
    lines = []
    for r in rows:
        lines.append(
            f"{r.utt_id}\t{r.text}\t{r.e2e_logprob:.6f}"
            f"\t{r.lm_logprob:.6f}\t{r.combined:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_decodes(path: str | Path) -> list[DecodeRow]:
    rows = []
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise ValueError(f"{path}:{ln}: expected 5 tab-separated columns")
        rows.append(DecodeRow(
            utt_id=cols[0], text=cols[1],
            e2e_logprob=float(cols[2]), lm_logprob=float(cols[3]),
            combined=float(cols[4]),
        ))
    return rows
