"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports moefusion. The file formats (vocab, lattices, checkpoint
directories) are read with this module's own parsers, and scores are
recomputed with plain numpy and Python, so a fault in a program helper cannot
hide behind the same helper in the check.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

BOS_ID = 1
EOS_ID = 2
SPECIAL_IDS = (0, 1, 2)  # pad, bos, eos: never rendered as text
UNK_ID = 3
WORD_SEP = "▁"
BIN_MAGIC = b"latb1\n"


# --- file formats -----------------------------------------------------------

def read_vocab(path) -> list[str]:
    """Pieces of a `wpv1 N` vocab file, id = position."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    magic, count = lines[0].split(" ")
    if magic != "wpv1" or int(count) != len(lines) - 1:
        raise ValueError(f"{path}: not a wpv1 vocab of {count} pieces")
    return lines[1:]


def pieces_to_text(ids, pieces: list[str]) -> str:
    out = []
    for i in ids:
        if i in SPECIAL_IDS:
            continue
        out.append("<unk>" if i == UNK_ID else pieces[i])
    return "".join(out).replace(WORD_SEP, " ")


def write_binary_lattice(path, frames: np.ndarray) -> None:
    """`latb1` file: magic, little-endian (T, V) uint32 header, float32 rows."""
    frames = np.asarray(frames, dtype="<f4")
    t, v = frames.shape
    with open(path, "wb") as fh:
        fh.write(BIN_MAGIC + struct.pack("<II", t, v) + frames.tobytes())


def read_binary_lattice(path) -> np.ndarray:
    """float32 (T, V) rows exactly as stored."""
    raw = Path(path).read_bytes()
    if not raw.startswith(BIN_MAGIC):
        raise ValueError(f"{path}: not a latb1 lattice")
    t, v = struct.unpack_from("<II", raw, len(BIN_MAGIC))
    off = len(BIN_MAGIC) + 8
    if len(raw) - off != 4 * t * v:
        raise ValueError(f"{path}: payload does not match its (T, V) header")
    return np.frombuffer(raw, dtype="<f4", offset=off).reshape(t, v)


def read_text_lattice(path) -> np.ndarray:
    """float64 (T, V) rows of a `lat1 T V` text lattice."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    magic, t, v = lines[0].split()
    if magic != "lat1" or int(t) != len(lines) - 1:
        raise ValueError(f"{path}: bad lat1 header")
    rows = np.array([[float(x) for x in ln.split()] for ln in lines[1:]])
    if rows.shape != (int(t), int(v)):
        raise ValueError(f"{path}: rows do not match the (T, V) header")
    return rows


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(config, tensors) of a manifest.json + weights.bin directory."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    raw = (path / "weights.bin").read_bytes()
    tensors = {}
    for name, entry in manifest["tensors"].items():
        dt = np.dtype({"f4": "<f4", "f8": "<f8"}[entry["dtype"]])
        count = int(np.prod(entry["shape"], dtype=np.int64))
        arr = np.frombuffer(raw, dtype=dt, count=count, offset=entry["offset"])
        tensors[name] = arr.reshape(entry["shape"]).astype(np.float64)
    return manifest["config"], tensors


# --- language model ---------------------------------------------------------

def _layer_norm(x, gain, bias, eps=1e-6):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps) * gain + bias


def _ffn(x, w, prefix):
    h = x @ w[prefix + "w1"] + w[prefix + "b1"]
    h = 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h * h * h)))
    return h @ w[prefix + "w2"] + w[prefix + "b2"]


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_log_probs(config: dict, w: dict[str, np.ndarray], ids) -> np.ndarray:
    """Full-sequence forward of the MoE LM: (n, V) next-token log-probs.

    Pre-norm causal attention with sinusoidal positions, a GELU FFN on every
    layer whose index is not 1 mod moe_layer_stride, and on those a top-k
    expert mixture computed token by token (ties to the lower expert index,
    softmax over the selected logits).
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.size
    d, h, dh = config["model_dim"], config["num_heads"], config["head_dim"]
    e, k = config["num_experts"], config["experts_per_token"]

    angles = np.arange(n)[:, None] / 10000.0 ** (2.0 * np.arange(d // 2)[None, :] / d)
    x = w["embed.weight"][ids].copy()
    x[:, 0::2] += np.sin(angles)
    x[:, 1::2] += np.cos(angles)
    future = np.triu(np.ones((n, n), dtype=bool), 1)

    for layer in range(config["num_layers"]):
        p = f"layer{layer:02d}."
        a = _layer_norm(x, w[p + "ln1.gain"], w[p + "ln1.bias"])
        q, kk, v = (
            (a @ w[p + name]).reshape(n, h, dh).transpose(1, 0, 2)
            for name in ("attn.wq", "attn.wk", "attn.wv")
        )
        scores = q @ kk.transpose(0, 2, 1) / np.sqrt(dh)
        scores[:, future] = -np.inf
        ctx = (_softmax(scores) @ v).transpose(1, 0, 2).reshape(n, d)
        x = x + ctx @ w[p + "attn.wo"]

        a = _layer_norm(x, w[p + "ln2.gain"], w[p + "ln2.bias"])
        if layer % config["moe_layer_stride"] == 1:
            out = np.zeros_like(a)
            for t in range(n):
                logits = a[t] @ w[p + "gate.weight"]
                top = sorted(range(e), key=lambda j: (-logits[j], j))[:k]
                for wt, j in zip(_softmax(logits[top]), top):
                    out[t] += wt * _ffn(a[t], w, f"{p}expert{j:02d}.")
        else:
            out = _ffn(a, w, p + "ffn.")
        x = x + out

    x = _layer_norm(x, w["final_ln.gain"], w["final_ln.bias"])
    head = w["embed.weight"].T if config["tied_embeddings"] else w["lm_head.weight"]
    logits = x @ head
    m = logits.max(axis=-1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))


def sequence_scores(tokens, eos_terminated_rows, lm_log_probs) -> tuple[float, float]:
    """(e2e, lm) sums for content tokens followed by EOS.

    eos_terminated_rows[t] is the lattice row scoring position t; lm_log_probs
    is reference_log_probs of [BOS] + tokens.
    """
    seq = list(tokens) + [EOS_ID]
    e2e = float(sum(float(eos_terminated_rows[t][tok]) for t, tok in enumerate(seq)))
    lm = float(sum(float(lm_log_probs[t][tok]) for t, tok in enumerate(seq)))
    return e2e, lm


# --- search and scoring -----------------------------------------------------

def rowwise_optimum(frames: np.ndarray) -> tuple[list[int], float]:
    """Best EOS-terminated path through a prefix-independent lattice.

    Row t scores the token at position t whatever came before, so the best
    path ending at row e is the row-wise best non-EOS token on rows < e plus
    EOS on row e. Returns (content tokens, score). Ties go to the
    lexicographically smaller sequence: the lower token id within a row and
    the earlier end row (EOS has a lower id than any text piece).
    """
    frames = np.asarray(frames, dtype=np.float64)
    content = frames.copy()
    content[:, EOS_ID] = -np.inf
    best_tok = content.argmax(axis=1)
    best_val = content[np.arange(len(frames)), best_tok]
    best_end, best_score = 0, -np.inf
    prefix = 0.0
    for end in range(len(frames)):
        score = prefix + float(frames[end, EOS_ID])
        if score > best_score:
            best_end, best_score = end, score
        prefix += float(best_val[end])
    return [int(x) for x in best_tok[:best_end]], best_score


def levenshtein(ref: list[str], hyp: list[str]) -> int:
    """Unit-cost edit distance between two word lists."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]


def corpus_wer(refs: dict[str, tuple[str, str]], hyps: dict[str, str]) -> tuple[float, float]:
    """(macro, micro) WER: errors pooled per locale, then the locale mean and the pool."""
    errors: dict[str, int] = {}
    words: dict[str, int] = {}
    for utt, (locale, ref) in refs.items():
        r = ref.split()
        errors[locale] = errors.get(locale, 0) + levenshtein(r, hyps[utt].split())
        words[locale] = words.get(locale, 0) + len(r)
    per_locale = [errors[loc] / words[loc] for loc in sorted(errors)]
    return sum(per_locale) / len(per_locale), sum(errors.values()) / sum(words.values())
