"""Shallow-fusion beam search over an external posterior source and an LM.

Hypotheses are scored as combined = e2e_logprob + lam * lm_logprob. Both
inputs come in blocks, one per beam step or oracle level: the posterior
source's rows(prefixes, t), and the LM scorer's start_rows once per search
then advance_rows (the scorer protocol, see CheckpointLmScorer). An LM block
is a value: advance_rows returns a new one and leaves its input as it was.
LatticeSource serves precomputed, prefix-independent per-step
log-distributions. max_len counts content tokens; a hypothesis reaching it
may only extend with EOS, which makes the beam's search space identical to
the exhaustive oracle's.

One beam search runs a set of jobs in lockstep, each a (source, config)
pair: several configs over one source (a lambda sweep), several utterances,
or both. Each job's beam selects exactly as it would alone while each LM
product of a step stays under about 1e6 multiply-adds (OpenBLAS rounds a
row by the row count from 142 rows at d=32, V=221, and 16 at d=128; ROADMAP
item 14). Every row of a step sits at the same position, so each step the
LM scores the distinct children of every job in one advance_rows call,
each child named by its parent's LM row * V + token; jobs that share a
prefix share its row.
decode_utterances runs the utterances of a directory in such searches, in
batches whose estimated peak bytes stay within DECODE_BATCH_BYTES.

A beam keeps its scores in arrays and builds Hypothesis objects only for
finished decodes. Each input is floored (NaN rejected, values raised to
LOG_FLOOR) once where it enters the search: the source floors its rows
(LatticeSource at load), the search each step's LM rows as one table, in
place, which every job indexes.

Ties anywhere resolve toward the lexicographically smaller token sequence,
so results are deterministic for identical inputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .checkpoint import Checkpoint
from .errors import NumericError, VocabMismatchError, read_text
from .model import LmState, initial_state, kv_position_bytes, lm_score_rows, lm_score_step
from .numerics import log_softmax
from .tokenizer import BOS_ID, EOS_ID, Vocab, decode_text

__all__ = [
    "LOG_FLOOR", "ORACLE_LM_BYTES", "FusionConfig", "Hypothesis",
    "LatticeSource", "CheckpointLmScorer",
    "beam_search_fusion", "exhaustive_oracle",
    "load_lattice", "save_lattice", "DecodeRow", "decode_utterances",
    "write_decodes", "read_decodes",
]

LOG_FLOOR = -1e9
ORACLE_LM_BYTES = 1 << 28  # the LM memory of exhaustive_oracle's widest level
# The estimated peak bytes (_search_bytes) of one lockstep search of
# decode_utterances: 4 sweep utterances of 6 lambdas, or 1-4 decode ones.
DECODE_BATCH_BYTES = 5 << 18
_ROW_NORM_TOL = 1e-5
_BIN_MAGIC = b"latb1\n"


@dataclass(frozen=True)
class FusionConfig:
    """Decoder settings. lam is the LM weight (0 disables LM influence)."""

    lam: float
    beam_size: int = 8
    max_len: int | None = None
    length_normalize: bool = False

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_len is not None and self.max_len < 0:
            raise ValueError("max_len must be >= 0")


@dataclass
class Hypothesis:
    """A finished decode: its tokens end with EOS."""

    tokens: tuple[int, ...]
    e2e_logprob: float
    lm_logprob: float
    combined: float


class PosteriorSource(Protocol):
    """rows(prefixes, t) is the (B, V) block whose row b is the
    log-distribution of the token at position t after prefixes[b], floored
    (as by _floor)."""

    vocab_size: int
    max_steps: int

    def rows(self, prefixes: Sequence[tuple[int, ...]], t: int) -> np.ndarray: ...


def _floor(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rows with NaN rejected and values raised to LOG_FLOOR, written into out
    if given. float32 rows stay float32 (widening them later is exact); any
    other dtype becomes float64."""
    rows = np.asarray(rows)
    if rows.dtype != np.float32:
        rows = np.asarray(rows, dtype=np.float64)
    if np.isnan(rows).any():
        raise NumericError("posterior row contains NaN")
    return np.maximum(rows, LOG_FLOOR, out=out)


class LatticeSource:
    """Posterior from a (T, V) array of per-step log-distributions.

    Row t scores the token at position t regardless of the prefix; row
    indices beyond T-1 do not exist, so decodes carry at most T-1 content
    tokens plus EOS. Rows must be normalized within 1e-5. float32 frames (a
    binary lattice's) are kept as float32, others as float64.
    """

    def __init__(self, frames: np.ndarray):
        frames = np.asarray(frames)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 4:
            raise ValueError(
                f"lattice must be (T >= 1, V >= 4), got {frames.shape}"
            )
        frames = _floor(frames)
        z = frames.max(1) - log_softmax(frames).max(1)  # each row's logsumexp
        bad = np.flatnonzero(np.abs(z) > _ROW_NORM_TOL)
        if bad.size:
            raise ValueError(f"lattice row {bad[0]} is not normalized: "
                             f"logsumexp = {z[bad[0]]:.3g}")
        self.frames = frames
        self.vocab_size = int(frames.shape[1])
        self.max_steps = int(frames.shape[0])

    def rows(self, prefixes: Sequence[tuple[int, ...]], t: int) -> np.ndarray:
        """Row t for every prefix, as one read-only (B, V) broadcast view."""
        if not 0 <= t < self.max_steps:
            raise ValueError(f"lattice has {self.max_steps} rows, asked for {t}")
        return np.broadcast_to(self.frames[t], (len(prefixes), self.vocab_size))


class CheckpointLmScorer:
    """The LM scorer over a checkpoint, and the scorer protocol.

    start_rows() gives BOS's one-row block and its (V,) row;
    advance_rows(block, parents, tokens) gives a new block, row r extending
    row parents[r] of block by tokens[r], and its (R, V) float64 rows, which
    the caller may overwrite. A block is a value: no call changes it, so any
    block may be advanced again. Here BOS
    runs lm_score_step and advance_rows runs lm_score_rows; the scorer keeps
    no blocks.
    """

    def __init__(self, ckpt: Checkpoint):
        self._params = ckpt.tensors
        self.config = ckpt.config
        self.vocab_size = ckpt.config.vocab_size

    def start_rows(self) -> tuple[LmState, np.ndarray]:
        return lm_score_step(self._params, self.config, initial_state(self.config), BOS_ID)

    def advance_rows(self, block: LmState, parents: np.ndarray,
                     tokens: np.ndarray) -> tuple[LmState, np.ndarray]:
        return lm_score_rows(self._params, self.config, block, parents, tokens)


def _check_vocab(source, lm):
    if lm is not None and lm.vocab_size != source.vocab_size:
        raise VocabMismatchError(
            f"posterior source has vocab {source.vocab_size}, "
            f"LM has {lm.vocab_size}"
        )


def _content_limit(source, config: FusionConfig) -> int:
    """Most content tokens a decode of source under config may carry."""
    steps = source.max_steps - 1
    return steps if config.max_len is None else min(steps, config.max_len)


def beam_search_fusion(jobs: Sequence[tuple[PosteriorSource, FusionConfig]], lm):
    """Beam search under the fused score for each (source, config) job;
    returns one list per job of its finished hypotheses, best first (a
    caller wanting n takes [:n]).

    lm is None (pure e2e) or a scorer with the two block calls of
    CheckpointLmScorer. The jobs' sources share one vocab; the jobs run in
    lockstep, each selecting as it would alone (within the module docstring's
    bound). The LM starts once and scores each step's distinct children of
    every job in one advance_rows call: O(beam * length) rows per job, fewer
    where jobs share prefixes.
    """
    sources, configs = [s for s, _ in jobs], [c for _, c in jobs]
    for s in sources:
        _check_vocab(s, lm)
    v = sources[0].vocab_size if sources else 0
    if any(s.vocab_size != v for s in sources):
        raise VocabMismatchError("the sources of one search differ in vocab size")
    limits = [_content_limit(s, c) for s, c in zip(sources, configs)]

    # The step's floored LM rows, one per distinct child; zeros without an LM.
    block, table = None, np.broadcast_to(0.0, (1, v))
    if lm is not None:
        block, dist0 = lm.start_rows()
        table = _floor(dist0)[None]
    # A beam is its lex-sorted token prefixes, a (B, 3) array of their
    # (e2e, lm, combined) scores and each prefix's row in block and table.
    beams = [([()], np.zeros((1, 3)), np.zeros(1, dtype=np.int64)) for _ in configs]
    pools: list[list[Hypothesis]] = [[] for _ in configs]

    for t in range(max(limits, default=-1) + 1):
        live = [i for i, beam in enumerate(beams) if beam[0]]
        if not live:
            break
        kids = [_beam_step(sources[i], configs[i], beams[i], table, t, t == limits[i],
                           pools[i]) for i in live]
        keys, inverse = np.unique(np.concatenate([k for _, _, k in kids]),
                                  return_inverse=True)
        if lm is None:
            table = np.broadcast_to(0.0, (keys.size, v))
        elif keys.size:
            block, table = lm.advance_rows(block, *np.divmod(keys, v))
            table = _floor(table, out=table)
        split = np.split(inverse, np.cumsum([len(k) for _, _, k in kids])[:-1])
        for i, (prefixes, scores, _), rows in zip(live, kids, split):
            beams[i] = (prefixes, scores, rows)

    return [
        sorted(pool, key=lambda h, norm=c.length_normalize: (
            -(h.combined / len(h.tokens) if norm else h.combined), h.tokens,
        ))
        for pool, c in zip(pools, configs)
    ]


def _beam_step(source, config, beam, table, t, last, pool):
    """Select one job's children at step t, its parents' LM rows being rows
    of table. Finished children go to pool as Hypothesis objects; the rest
    come back as (prefixes, scores, keys), where a child's key, its parent's
    LM row * V + its token, names it in the step's LM block."""
    prefixes, scores, lm_rows = beam
    v = source.vocab_size
    e2e_rows = source.rows(prefixes, t)
    totals = scores[:, 2:] + e2e_rows + config.lam * table[lm_rows]
    # Survivors by partial selection: O(B * V) plus a sort of the ties at
    # the cut, in the order a full (-score, sequence) sort gives.
    if last:  # content budget exhausted: EOS is the only legal extension
        parents = _select(totals[:, EOS_ID], config.beam_size)
        toks = np.full_like(parents, EOS_ID)
    else:
        parents, toks = np.divmod(_select(totals.ravel(), config.beam_size), v)
    # Selected totals are finite, so every child score is.
    e2e = scores[parents, 0] + e2e_rows[parents, toks]
    lm = scores[parents, 1] + table[lm_rows[parents], toks]
    child_scores = np.stack([e2e, lm, e2e + config.lam * lm], axis=1)

    ends = toks == EOS_ID
    for p, row in zip(parents[ends].tolist(), child_scores[ends].tolist()):
        pool.append(Hypothesis(prefixes[p] + (EOS_ID,), *row))
    parents, toks = parents[~ends], toks[~ends]
    kids = [prefixes[p] + (tok,) for p, tok in zip(parents.tolist(), toks.tolist())]
    return kids, child_scores[~ends], lm_rows[parents] * v + toks


def _select(flat, beam_size):
    """Indices of flat's beam_size best finite scores, ascending; ties go to the
    smaller index, parent * V + token, which is lex order (the beam is lex-sorted)."""
    idx = np.flatnonzero(np.isfinite(flat))
    if idx.size > beam_size:
        vals = flat[idx]
        idx = idx[vals >= np.partition(vals, idx.size - beam_size)[idx.size - beam_size]]
    return np.sort(idx[np.lexsort((idx, -flat[idx]))[:beam_size]])


def exhaustive_oracle(
    source: PosteriorSource,
    lm,
    lam: float,
    max_len: int,
) -> Hypothesis:
    """Score every sequence up to max_len content tokens; return the best.

    Independent of the beam machinery; used to certify beam results on tiny
    instances. Walks level by level: level d holds every prefix of d content
    tokens in lex order, scored by one source.rows call, and one advance_rows
    call scores all their non-EOS children. Memory is the widest level,
    (V-1)^max_len prefixes. Refuses, before any scoring, when |V|^max_len
    exceeds 1e6 or that level's float64 LM rows and (for a scorer with a
    model config) KV block of max_len + 1 positions exceed ORACLE_LM_BYTES,
    or when lam breaks FusionConfig's rule.
    """
    FusionConfig(lam=lam)
    _check_vocab(source, lm)
    v = source.vocab_size
    eff_max = max(0, min(max_len, source.max_steps - 1))
    space = float(v) ** eff_max
    if space > 1e6:
        raise ValueError(
            f"oracle space {v}^{eff_max} ~ {space:.2e} sequences exceeds 1e6"
        )
    width, c = (v - 1) ** eff_max, getattr(lm, "config", None)
    kv = 0 if c is None else kv_position_bytes(c) * (eff_max + 1)
    if lm is not None and width * (8 * v + kv) > ORACLE_LM_BYTES:
        raise ValueError(f"the oracle's widest level of {width} LM rows needs "
                         f"{width * (8 * v + kv)} bytes, over the {ORACLE_LM_BYTES}-byte budget")

    content = np.delete(np.arange(v), EOS_ID)
    prefixes, sums = [()], np.zeros((1, 2))  # each prefix's (e2e, lm) sums
    lm_rows = np.broadcast_to(0.0, (1, v))
    if lm is not None:
        block, dist0 = lm.start_rows()
        lm_rows = _floor(dist0)[None]
    level_bests = []
    for d in range(eff_max + 1):
        rows = source.rows(prefixes, d)
        ends = sums + np.stack([rows[:, EOS_ID], lm_rows[:, EOS_ID]], axis=1)
        # A level's first best is its lex-smallest, the prefixes being sorted.
        i = int(np.argmax(ends[:, 0] + lam * ends[:, 1]))
        e2e, lm_lp = ends[i].tolist()
        level_bests.append(Hypothesis(prefixes[i] + (EOS_ID,), e2e, lm_lp, e2e + lam * lm_lp))
        if d == eff_max:
            return min(level_bests, key=lambda h: (-h.combined, h.tokens))
        parents = np.repeat(np.arange(len(prefixes)), content.size)
        toks = np.tile(content, len(prefixes))
        sums = sums[parents] + np.stack([rows[parents, toks], lm_rows[parents, toks]], axis=1)
        prefixes = [prefixes[p] + (tok,) for p, tok in zip(parents.tolist(), toks.tolist())]
        if lm is None:
            lm_rows = np.broadcast_to(0.0, (len(prefixes), v))
        else:
            block, dist = lm.advance_rows(block, parents, toks)
            lm_rows = _floor(dist, out=dist)


def save_lattice(frames: np.ndarray, path: str | Path) -> None:
    """Write a (T, V) log-distribution array as a text `lat1` lattice."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError(f"lattice must be 2-D, got shape {frames.shape}")
    t, v = frames.shape
    lines = [f"lat1 {t} {v}"]
    for row in frames:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_lattice(path: str | Path) -> np.ndarray:
    """Read either lattice format back into a (T, V) array: float32 for a
    binary lattice, as stored, and float64 for a text one.

    A malformed file raises ValueError; decode_utterances names the file.
    """
    raw = Path(path).read_bytes()
    if raw.startswith(_BIN_MAGIC):
        off = len(_BIN_MAGIC)
        if len(raw) < off + 8:
            raise ValueError("binary lattice header is truncated")
        t, v = struct.unpack_from("<II", raw, off)
        off += 8
        need = t * v * 4
        if len(raw) - off != need:
            raise ValueError(
                f"binary lattice payload is {len(raw) - off} bytes, "
                f"header implies {need}"
            )
        arr = np.frombuffer(raw, dtype="<f4", count=t * v, offset=off)
        return arr.astype(np.float32).reshape(t, v)
    text = raw.decode("utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty lattice file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "lat1":
        raise ValueError(f"bad lattice header {lines[0]!r}")
    t, v = int(head[1]), int(head[2])
    if len(lines) - 1 != t:
        raise ValueError(f"header declares {t} rows, file has {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        vals = np.array([float(x) for x in ln.split()], dtype=np.float64)
        if vals.size != v:
            raise ValueError(f"row has {vals.size} values, expected {v}")
        rows.append(vals)
    return np.stack(rows) if rows else np.zeros((0, v))


@dataclass
class DecodeRow:
    utt_id: str
    text: str
    e2e_logprob: float
    lm_logprob: float
    combined: float


def _checked_lattice(path: Path, vocab: Vocab, configs: Sequence[FusionConfig],
                     lm_config) -> LatticeSource:
    """Load one lattice and check it against the vocab and the LM context.

    Every error names the file. The length check takes the longest decode
    any of the configs allows.
    """
    try:
        source = LatticeSource(load_lattice(path))
    except NumericError as exc:
        raise NumericError(f"{path.name}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    if source.vocab_size != vocab.size:
        raise VocabMismatchError(
            f"{path.name}: lattice vocab {source.vocab_size} != "
            f"tokenizer vocab {vocab.size}"
        )
    if lm_config is not None:
        # The LM sees BOS plus every content token of a decode.
        steps = max(_content_limit(source, c) for c in configs)
        room = lm_config.max_seq_len - 1
        if steps > room:
            raise ValueError(
                f"{path.name}: lattice allows decodes of {steps} tokens, but "
                f"the LM context holds {room} after BOS; pass --max-len {room} "
                f"or less"
            )
    return source


def _search_bytes(source: LatticeSource, configs: Sequence[FusionConfig], lm_config) -> int:
    """Estimated peak bytes that source's jobs, one per config, add to a
    lockstep search.

    The configs' beams mostly share prefixes, so the KV term counts the
    widest beam's rows once: a step's input and output blocks, one position
    per lattice row. Each job adds about two (B, V) float64 arrays (the LM
    rows it shares with no other job, its scores and its pool; fitted to
    tracemalloc peaks at the benchmark's shapes), and the lattice's frames
    are held until the search ends.
    """
    kv = 0 if lm_config is None else kv_position_bytes(lm_config)
    widest = max(c.beam_size for c in configs)
    rows = sum(c.beam_size for c in configs)
    return (2 * kv * widest * source.max_steps + 16 * rows * source.vocab_size
            + source.frames.nbytes)


def _batches(costs: Sequence[int], budget: int) -> list[list[int]]:
    """Consecutive runs of indices whose costs sum to at most budget; an
    index whose cost alone is over it runs alone."""
    batches: list[list[int]] = []
    total = 0
    for i, cost in enumerate(costs):
        if not batches or total + cost > budget:
            batches.append([])
            total = 0
        batches[-1].append(i)
        total += cost
    return batches


def decode_utterances(
    lattice_dir: str | Path,
    lm,
    configs: Sequence[FusionConfig],
    vocab: Vocab,
    check_ids: Callable[[list[str]], None] | None = None,
):
    """Beam-decode every *.lat file in a directory, sorted by utterance id.

    Returns one row list per config. Every lattice is loaded, once per run,
    and checked against every config, then check_ids (if given) is called with
    the utterance ids, before the first is decoded, so a bad file or id
    fails the run before any search work. The utterances are then decoded
    in batches of consecutive ids, one lockstep search per batch with a job
    per utterance and config; a batch's estimated peak bytes (_search_bytes)
    stay within DECODE_BATCH_BYTES, and an utterance over it runs alone.
    """
    lattice_dir = Path(lattice_dir)
    paths = sorted(lattice_dir.glob("*.lat"))
    if not paths:
        raise FileNotFoundError(f"no *.lat files in {lattice_dir}")
    lm_config = getattr(lm, "config", None)  # test scorers have none
    sources = [_checked_lattice(p, vocab, configs, lm_config) for p in paths]
    if check_ids is not None:
        check_ids([p.stem for p in paths])
    costs = [_search_bytes(s, configs, lm_config) for s in sources]
    rows: list[list[DecodeRow]] = [[] for _ in configs]
    for batch in _batches(costs, DECODE_BATCH_BYTES):
        found = beam_search_fusion([(sources[u], c) for u in batch for c in configs], lm)
        for k, u in enumerate(batch):
            sources[u] = None  # the batch is done with its lattice
            for out, hyps in zip(rows, found[k * len(configs):(k + 1) * len(configs)]):
                best = hyps[0]
                out.append(DecodeRow(
                    utt_id=paths[u].stem,
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
    """The rows of a decode file; a malformed line or a repeated utterance id
    raises ValueError naming path:line."""
    rows, seen = [], set()
    for ln, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise ValueError(f"{path}:{ln}: expected 5 tab-separated columns")
        if cols[0] in seen:
            raise ValueError(f"{path}:{ln}: duplicate utterance id {cols[0]!r}")
        seen.add(cols[0])
        try:
            rows.append(DecodeRow(cols[0], cols[1], *map(float, cols[2:])))
        except ValueError as exc:  # a score that is not a number
            raise ValueError(f"{path}:{ln}: {exc}") from None
    return rows
