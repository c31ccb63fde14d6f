"""Wordpiece vocabulary induction and greedy subword encoding.

Training pools sentences from all corpora, splits on whitespace, and runs
frequency-greedy pair merging: start from single characters, repeatedly merge
the most frequent adjacent pair (ties broken by lexicographically smaller
merged string) until the vocabulary is full. Words after the first in a
sentence carry a leading WORD_SEP marker so spaces survive a round trip;
the sentence-initial word is unmarked.

Encoding is greedy longest-match per word; any character span that matches no
piece collapses to a single UNK.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import VocabMismatchError, read_text

__all__ = [
    "PAD_ID", "BOS_ID", "EOS_ID", "UNK_ID", "RESERVED_PIECES", "WORD_SEP",
    "Vocab", "TokenSeq",
    "train_wordpiece", "encode", "decode_text",
    "read_manifest", "read_corpus",
]

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED_PIECES = ("<pad>", "<s>", "</s>", "<unk>")
WORD_SEP = "▁"

_HEADER_MAGIC = "wpv1"


@dataclass
class Vocab:
    """Dense piece table; ids are positions in `pieces`."""

    pieces: list[str]
    piece_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.pieces) < len(RESERVED_PIECES):
            raise VocabMismatchError("vocab smaller than the reserved id block")
        if tuple(self.pieces[: len(RESERVED_PIECES)]) != RESERVED_PIECES:
            raise VocabMismatchError(
                f"reserved pieces must open the vocab as {RESERVED_PIECES}, "
                f"got {self.pieces[:4]}"
            )
        self.piece_to_id = {}
        for i, p in enumerate(self.pieces):
            if p in self.piece_to_id:
                raise VocabMismatchError(f"duplicate piece {p!r}")
            self.piece_to_id[p] = i

    @property
    def size(self) -> int:
        return len(self.pieces)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        lines = [f"{_HEADER_MAGIC} {self.size}"]
        lines.extend(self.pieces)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = read_text(path).split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise ValueError(f"{path}: empty vocab file")
        head = lines[0].split(" ")
        if len(head) != 2 or head[0] != _HEADER_MAGIC or not head[1].isdecimal():
            raise ValueError(f"{path}: bad vocab header {lines[0]!r}")
        declared = int(head[1])
        pieces = lines[1:]
        if len(pieces) != declared:
            raise ValueError(
                f"{path}: header declares {declared} pieces, file has {len(pieces)}"
            )
        return cls(pieces=pieces)


@dataclass
class TokenSeq:
    """Encoded sentence: its token ids."""

    ids: list[int]

    def __len__(self) -> int:
        return len(self.ids)


def _marked_words(sentence: str) -> list[str]:
    words = sentence.split()
    return [w if i == 0 else WORD_SEP + w for i, w in enumerate(words)]


def train_wordpiece(sentences: Iterable[str], vocab_size: int) -> Vocab:
    """Induce a wordpiece vocabulary of at most vocab_size pieces.

    Deterministic given the same sentences in the same order. If the corpus
    runs out of mergeable pairs early the vocab is smaller than requested.
    """
    word_counts: dict[str, int] = {}
    for sent in sentences:
        for w in _marked_words(sent):
            word_counts[w] = word_counts.get(w, 0) + 1
    if not word_counts:
        raise ValueError("cannot train a vocabulary from an empty corpus")

    alphabet = sorted({ch for w in word_counts for ch in w})
    floor = len(RESERVED_PIECES) + len(alphabet)
    if vocab_size < floor:
        raise ValueError(
            f"vocab_size {vocab_size} cannot hold {len(RESERVED_PIECES)} reserved "
            f"ids plus a {len(alphabet)}-symbol alphabet"
        )

    pieces = list(RESERVED_PIECES) + alphabet
    known = set(pieces)
    # Segmentation state per distinct word, weighted by corpus count.
    segs: dict[tuple[str, ...], int] = {}
    for w, c in word_counts.items():
        key = tuple(w)
        segs[key] = segs.get(key, 0) + c

    while len(pieces) < vocab_size:
        pair_counts: dict[tuple[str, str], int] = {}
        for seg, c in segs.items():
            for i in range(len(seg) - 1):
                pair = (seg[i], seg[i + 1])
                pair_counts[pair] = pair_counts.get(pair, 0) + c
        if not pair_counts:
            break
        best_pair = None
        best_key = None
        for pair, c in pair_counts.items():
            key = (-c, pair[0] + pair[1])
            if best_key is None or key < best_key:
                best_key = key
                best_pair = pair
        merged = best_pair[0] + best_pair[1]

        new_segs: dict[tuple[str, ...], int] = {}
        for seg, c in segs.items():
            out = []
            i = 0
            while i < len(seg):
                if (
                    i + 1 < len(seg)
                    and seg[i] == best_pair[0]
                    and seg[i + 1] == best_pair[1]
                ):
                    out.append(merged)
                    i += 2
                else:
                    out.append(seg[i])
                    i += 1
            key = tuple(out)
            new_segs[key] = new_segs.get(key, 0) + c
        segs = new_segs
        # Distinct pair sequences can merge to the same string; only new
        # strings consume a vocab slot.
        if merged not in known:
            pieces.append(merged)
            known.add(merged)

    return Vocab(pieces=pieces)


def _encode_word(word: str, vocab: Vocab, max_piece_len: int) -> list[int]:
    ids: list[int] = []
    i = 0
    n = len(word)
    in_unknown = False
    while i < n:
        matched = None
        for ln in range(min(max_piece_len, n - i), 0, -1):
            cand = word[i : i + ln]
            idx = vocab.piece_to_id.get(cand)
            # Reserved pieces are never produced by text matching.
            if idx is not None and idx >= len(RESERVED_PIECES):
                matched = (idx, ln)
                break
        if matched is None:
            if not in_unknown:
                ids.append(UNK_ID)
                in_unknown = True
            i += 1
        else:
            ids.append(matched[0])
            i += matched[1]
            in_unknown = False
    return ids


def encode(text: str, vocab: Vocab) -> TokenSeq:
    """Greedy longest-match encoding; unknown spans collapse to one UNK each."""
    max_len = max((len(p) for p in vocab.pieces[len(RESERVED_PIECES):]), default=1)
    ids: list[int] = []
    for w in _marked_words(text):
        ids.extend(_encode_word(w, vocab, max_len))
    return TokenSeq(ids=ids)


def decode_text(ids: Sequence[int], vocab: Vocab) -> str:
    """Invert encode(): concatenate pieces and turn word markers into spaces.

    PAD/BOS/EOS are skipped; UNK renders as the literal "<unk>".
    """
    parts: list[str] = []
    for i in ids:
        i = int(i)
        if i in (PAD_ID, BOS_ID, EOS_ID):
            continue
        if not 0 <= i < vocab.size:
            raise ValueError(f"token id {i} out of range for vocab of {vocab.size}")
        if i == UNK_ID:
            parts.append("<unk>")
        else:
            parts.append(vocab.pieces[i])
    return "".join(parts).replace(WORD_SEP, " ")


def read_manifest(path: str | Path) -> list[tuple[str, Path]]:
    """Parse a `locale<TAB>path` manifest; paths resolve against the manifest dir."""
    path = Path(path)
    base = path.parent
    entries: list[tuple[str, Path]] = []
    for ln, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ValueError(f"{path}:{ln}: expected `locale<TAB>path`, got {line!r}")
        locale, rel = cols
        p = Path(rel)
        if not p.is_absolute():
            p = base / p
        if not p.exists():
            raise FileNotFoundError(
                f"corpus file for locale {locale!r} not found: {p}"
            )
        entries.append((locale, p))
    if not entries:
        raise ValueError(f"{path}: manifest lists no corpora")
    return entries


def read_corpus(manifest_path: str | Path) -> list[tuple[str, str]]:
    """All (locale, sentence) pairs pooled in manifest order."""
    out: list[tuple[str, str]] = []
    for locale, p in read_manifest(manifest_path):
        for line in read_text(p).splitlines():
            line = line.strip()
            if line:
                out.append((locale, line))
    return out
