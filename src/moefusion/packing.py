"""Greedy first-fit sentence packing into fixed-length training rows.

Each sentence becomes a segment [BOS, ids..., EOS] and rows carry up to
packing_factor segments. segment_ids number the segments within a row from 1;
0 marks padding. loss_mask selects exactly the positions whose next-token
target lies inside the same segment, so padding and segment boundaries
contribute nothing to the loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tokenizer import BOS_ID, EOS_ID, PAD_ID, TokenSeq

__all__ = ["PackedBatch", "PackStats", "pack_batches"]


@dataclass
class PackedBatch:
    tokens: np.ndarray
    segment_ids: np.ndarray
    loss_mask: np.ndarray

    def __post_init__(self):
        assert self.tokens.shape == self.segment_ids.shape == self.loss_mask.shape


@dataclass
class PackStats:
    sentences: int = 0
    truncated: int = 0
    rows: int = 0
    padding_fraction: float = 0.0


def _loss_mask(segment_ids: np.ndarray) -> np.ndarray:
    mask = np.zeros(segment_ids.shape, dtype=np.float64)
    live = segment_ids[:, :-1] > 0
    same = segment_ids[:, 1:] == segment_ids[:, :-1]
    mask[:, :-1] = (live & same).astype(np.float64)
    return mask


def pack_batches(
    sentences: Sequence[TokenSeq | Sequence[int]],
    max_seq_len: int,
    batch_size: int,
    packing_factor: int,
    seed: int,
) -> tuple[list[PackedBatch], PackStats]:
    """Pack sentences into batches of (batch_size, max_seq_len) rows.

    Greedy first-fit in an order shuffled by seed; a sentence longer than
    max_seq_len - 2 is truncated and counted. The trailing partial row/batch
    is padded out, never dropped.
    """
    if max_seq_len < 3:
        raise ValueError("max_seq_len must fit at least BOS, one token, EOS")
    if packing_factor < 1 or batch_size < 1:
        raise ValueError("packing_factor and batch_size must be positive")
    seqs = [list(s.ids) if isinstance(s, TokenSeq) else list(s) for s in sentences]
    if not seqs:
        raise ValueError("no sentences to pack")

    stats = PackStats(sentences=len(seqs))
    order = np.random.default_rng([seed, 0x9ACC]).permutation(len(seqs))
    seqs = [seqs[i] for i in order]

    limit = max_seq_len - 2
    rows: list[list[int]] = []
    row_segs: list[list[int]] = []
    for ids in seqs:
        if len(ids) > limit:
            ids = ids[:limit]
            stats.truncated += 1
        segment = [BOS_ID] + ids + [EOS_ID]
        placed = False
        for r, (row, segs) in enumerate(zip(rows, row_segs)):
            n_segs = segs[-1] if segs else 0
            if n_segs < packing_factor and len(row) + len(segment) <= max_seq_len:
                row.extend(segment)
                segs.extend([n_segs + 1] * len(segment))
                placed = True
                break
        if not placed:
            rows.append(list(segment))
            row_segs.append([1] * len(segment))

    stats.rows = len(rows)
    pad_total = 0
    token_rows = []
    seg_rows = []
    for row, segs in zip(rows, row_segs):
        pad = max_seq_len - len(row)
        pad_total += pad
        token_rows.append(row + [PAD_ID] * pad)
        seg_rows.append(segs + [0] * pad)
    stats.padding_fraction = pad_total / (len(rows) * max_seq_len)

    batches: list[PackedBatch] = []
    for start in range(0, len(rows), batch_size):
        chunk_t = token_rows[start : start + batch_size]
        chunk_s = seg_rows[start : start + batch_size]
        while len(chunk_t) < batch_size:
            chunk_t.append([PAD_ID] * max_seq_len)
            chunk_s.append([0] * max_seq_len)
        tokens = np.asarray(chunk_t, dtype=np.int64)
        segids = np.asarray(chunk_s, dtype=np.int64)
        batches.append(PackedBatch(
            tokens=tokens,
            segment_ids=segids,
            loss_mask=_loss_mask(segids),
        ))
    return batches, stats
