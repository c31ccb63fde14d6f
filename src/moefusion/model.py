"""Decoder-only transformer LM with sparse mixture-of-experts FFN layers.

Layer layout alternates dense and expert FFN blocks: even layers (0-based)
use a single dense FFN, odd layers route each token to the top-k of E expert
FFNs. Attention is pre-norm multi-head with sinusoidal positions and a causal
mask; embeddings are tied to the output projection by default.

Two execution paths share the same parameters:
  * build_forward: batched differentiable graph (training and full scoring),
  * lm_score_step: incremental numpy path with per-layer KV caches (decoding).
The two agree to within 1e-5 per log-probability; tests enforce this.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, asdict
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError
from .numerics import check_finite
from .tokenizer import BOS_ID

__all__ = [
    "MoeLmConfig", "GateOutput", "LmState", "FfnParams", "ForwardResult",
    "param_shapes", "init_params", "positional_table",
    "gate_topk", "moe_layer_forward",
    "build_forward", "lm_forward",
    "initial_state", "lm_score_step",
]

ATTN_MASK_VALUE = -1e9
LAYERNORM_EPS = 1e-6


@dataclass(frozen=True)
class MoeLmConfig:
    """Architecture hyperparameters. Defaults give the full-scale model."""

    num_layers: int = 12
    model_dim: int = 768
    num_heads: int = 12
    head_dim: int = 64
    ffn_multiplier: int = 4
    num_experts: int = 64
    experts_per_token: int = 2
    vocab_size: int = 16384
    max_seq_len: int = 1024
    moe_layer_stride: int = 2
    aux_loss_weight: float = 0.01
    tied_embeddings: bool = True

    def __post_init__(self):
        if self.experts_per_token > self.num_experts:
            raise ConfigError(
                f"experts_per_token {self.experts_per_token} exceeds "
                f"num_experts {self.num_experts}"
            )
        if self.experts_per_token < 1 or self.num_experts < 1:
            raise ConfigError("expert counts must be positive")
        if self.num_heads * self.head_dim != self.model_dim:
            raise ConfigError(
                f"num_heads*head_dim must equal model_dim, got "
                f"{self.num_heads}*{self.head_dim} != {self.model_dim}"
            )
        if self.moe_layer_stride != 2:
            raise ConfigError("only moe_layer_stride=2 (every other layer) is supported")
        for name in ("num_layers", "model_dim", "vocab_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.aux_loss_weight < 0:
            raise ConfigError("aux_loss_weight must be non-negative")

    @property
    def ffn_dim(self) -> int:
        return self.ffn_multiplier * self.model_dim

    def is_moe_layer(self, layer: int) -> bool:
        return layer % self.moe_layer_stride == 1

    @property
    def moe_layers(self) -> list[int]:
        return [i for i in range(self.num_layers) if self.is_moe_layer(i)]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "MoeLmConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)


@dataclass
class GateOutput:
    """Routing decision for one token."""

    expert_indices: tuple[int, ...]
    combine_weights: np.ndarray
    all_gate_logits: np.ndarray


@dataclass
class FfnParams:
    """One two-layer GELU FFN block (dense layer or a single expert)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class LmState:
    """Per-layer key/value caches for incremental scoring."""

    keys: list[np.ndarray]
    values: list[np.ndarray]
    position: int = 0


@dataclass
class ForwardResult:
    log_probs: "ad.Var"
    aux_loss: "ad.Var | None"
    expert_counts: list[np.ndarray] = field(default_factory=list)


def param_shapes(config: MoeLmConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every trainable tensor, in canonical order."""
    d, f, e = config.model_dim, config.ffn_dim, config.num_experts
    shapes: dict[str, tuple[int, ...]] = {
        "embed.weight": (config.vocab_size, d),
    }
    for i in range(config.num_layers):
        p = f"layer{i:02d}."
        shapes[p + "ln1.gain"] = (d,)
        shapes[p + "ln1.bias"] = (d,)
        shapes[p + "attn.wq"] = (d, d)
        shapes[p + "attn.wk"] = (d, d)
        shapes[p + "attn.wv"] = (d, d)
        shapes[p + "attn.wo"] = (d, d)
        shapes[p + "ln2.gain"] = (d,)
        shapes[p + "ln2.bias"] = (d,)
        if config.is_moe_layer(i):
            shapes[p + "gate.weight"] = (d, e)
            for x in range(e):
                q = f"{p}expert{x:02d}."
                shapes[q + "w1"] = (d, f)
                shapes[q + "b1"] = (f,)
                shapes[q + "w2"] = (f, d)
                shapes[q + "b2"] = (d,)
        else:
            shapes[p + "ffn.w1"] = (d, f)
            shapes[p + "ffn.b1"] = (f,)
            shapes[p + "ffn.w2"] = (f, d)
            shapes[p + "ffn.b2"] = (d,)
    shapes["final_ln.gain"] = (d,)
    shapes["final_ln.bias"] = (d,)
    if not config.tied_embeddings:
        shapes["lm_head.weight"] = (d, config.vocab_size)
    return shapes


def _truncated_normal(rng, shape, std):
    # Redraw beyond 2 sigma; clip the (vanishing) remainder for determinism.
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    for _ in range(3):
        if not bad.any():
            break
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return np.clip(x, -2.0, 2.0) * std


def init_params(config: MoeLmConfig, seed: int) -> dict[str, np.ndarray]:
    """Seeded float64 init: std 0.02 embeddings, 1/sqrt(fan_in) projections."""
    rng = np.random.default_rng([seed, 0x11717])
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            params[name] = np.ones(shape)
        elif leaf in ("bias", "b1", "b2"):
            params[name] = np.zeros(shape)
        elif name == "embed.weight":
            params[name] = _truncated_normal(rng, shape, 0.02)
        else:
            params[name] = _truncated_normal(rng, shape, 1.0 / np.sqrt(shape[0]))
    return params


@functools.lru_cache(maxsize=16)
def positional_table(max_len: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position encodings, shape (max_len, dim).

    Built once per (max_len, dim) and shared between callers, so the
    returned array is read-only.
    """
    pos = np.arange(max_len)[:, None].astype(np.float64)
    i = np.arange(dim // 2)[None, :].astype(np.float64)
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((max_len, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table.flags.writeable = False
    return table


def _softmax_np(x, axis=-1):
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax_np(x, axis=-1):
    m = x.max(axis=axis, keepdims=True)
    s = x - m
    return s - np.log(np.exp(s).sum(axis=axis, keepdims=True))


def _topk_indices(logits_2d: np.ndarray, k: int) -> np.ndarray:
    """Top-k per row by logit value, ties to the lower expert index."""
    order = np.argsort(-logits_2d, axis=-1, kind="stable")
    return order[:, :k]


def gate_topk(token_repr: np.ndarray, gate_weight: np.ndarray, k: int) -> GateOutput:
    """Route one token: pick top-k experts, softmax-renormalize their logits.

    The combine weights equal the full softmax over all experts renormalized
    to the selected set. Ties in the logits resolve to the lower expert index.
    """
    token_repr = np.asarray(token_repr, dtype=np.float64)
    gate_weight = np.asarray(gate_weight, dtype=np.float64)
    e = gate_weight.shape[1]
    if k > e:
        raise ConfigError(f"cannot select top-{k} of {e} experts")
    logits = check_finite(token_repr @ gate_weight, "gate logits")
    sel = _topk_indices(logits[None, :], k)[0]
    weights = _softmax_np(logits[sel])
    return GateOutput(
        expert_indices=tuple(int(i) for i in sel),
        combine_weights=weights,
        all_gate_logits=logits,
    )


def _ffn_np(x: np.ndarray, p: FfnParams) -> np.ndarray:
    h = x @ p.w1 + p.b1
    c = np.sqrt(2.0 / np.pi)
    h = 0.5 * h * (1.0 + np.tanh(c * (h + 0.044715 * (h * h * h))))
    return h @ p.w2 + p.b2


def moe_layer_forward(
    x: np.ndarray,
    gate_weight: np.ndarray,
    experts: Sequence[FfnParams],
    k: int,
    impl: str = "sparse",
) -> np.ndarray:
    """Mixture-of-experts FFN over a (T, d) block of token representations.

    impl="sparse" runs only the selected experts per token. impl="dense"
    evaluates every expert and mixes with the masked, renormalized gate
    weights; it requires k == len(experts) and exists as the reduction target
    the sparse path is tested against.
    """
    x = np.asarray(x, dtype=np.float64)
    e = len(experts)
    if k > e:
        raise ConfigError(f"cannot select top-{k} of {e} experts")
    logits = check_finite(x @ gate_weight, "gate logits")
    if impl == "dense":
        if k != e:
            raise ConfigError("dense mixture requires experts_per_token == num_experts")
        weights = _softmax_np(logits)
        out = np.zeros_like(x)
        for idx, p in enumerate(experts):
            out += weights[:, idx : idx + 1] * _ffn_np(x, p)
        return out
    if impl != "sparse":
        raise ValueError(f"unknown impl {impl!r}")
    sel = _topk_indices(logits, k)
    selw = _softmax_np(np.take_along_axis(logits, sel, axis=1))
    out = np.zeros_like(x)
    for idx, p in enumerate(experts):
        tok, slot = np.nonzero(sel == idx)
        if tok.size == 0:
            continue
        out[tok] += selw[tok, slot][:, None] * _ffn_np(x[tok], p)
    return out


def _segment_positions(segment_ids: np.ndarray) -> np.ndarray:
    """Position of each token within its own segment (0 at segment start)."""
    b, t = segment_ids.shape
    pos = np.zeros((b, t), dtype=np.int64)
    for r in range(b):
        run = 0
        for c in range(t):
            if c > 0 and segment_ids[r, c] == segment_ids[r, c - 1]:
                run += 1
            else:
                run = 0
            pos[r, c] = run
    return pos


def _attention_bias(segment_ids: np.ndarray) -> np.ndarray:
    """(B, 1, T, T) additive mask: causal, segment-isolated, self always visible."""
    b, t = segment_ids.shape
    causal = np.tril(np.ones((t, t), dtype=bool))
    same = segment_ids[:, :, None] == segment_ids[:, None, :]
    live = segment_ids[:, None, :] > 0
    allowed = causal[None] & same & live
    eye = np.eye(t, dtype=bool)[None]
    allowed = allowed | eye
    bias = np.where(allowed, 0.0, ATTN_MASK_VALUE)
    return bias[:, None, :, :]


def _layer_norm(x, gain, bias):
    mu = ad.mean(x, axis=-1, keepdims=True)
    xc = ad.sub(x, mu)
    var = ad.mean(ad.mul(xc, xc), axis=-1, keepdims=True)
    inv = ad.pow_const(ad.add(var, np.float64(LAYERNORM_EPS)), -0.5)
    return ad.add(ad.mul(ad.mul(xc, inv), gain), bias)


def _attention_block(x, p, prefix, bias, config):
    b, t, d = x.shape
    h, dh = config.num_heads, config.head_dim

    def heads(v):
        return ad.swapaxes(ad.reshape(v, (b, t, h, dh)), 1, 2)

    q = heads(ad.matmul(x, p[prefix + "attn.wq"]))
    k = heads(ad.matmul(x, p[prefix + "attn.wk"]))
    v = heads(ad.matmul(x, p[prefix + "attn.wv"]))
    scores = ad.scale(ad.matmul(q, ad.swapaxes(k, 2, 3)), 1.0 / np.sqrt(dh))
    attn = ad.softmax(ad.add(scores, bias), axis=-1)
    ctx = ad.reshape(ad.swapaxes(ad.matmul(attn, v), 1, 2), (b, t, d))
    return ad.matmul(ctx, p[prefix + "attn.wo"])


def _dense_ffn_block(x, p, prefix):
    h = ad.gelu(ad.add(ad.matmul(x, p[prefix + "w1"]), p[prefix + "b1"]))
    return ad.add(ad.matmul(h, p[prefix + "w2"]), p[prefix + "b2"])


def _moe_block(x, p, prefix, config, moe_impl, live_flat):
    """Expert-routed FFN over flattened tokens; returns (out, aux, counts).

    Routing statistics (counts, load, importance) cover live tokens only, so
    padding content can never influence the balance penalty.
    """
    b, t, d = x.shape
    n = b * t
    e, k = config.num_experts, config.experts_per_token
    flat = ad.reshape(x, (n, d))
    gate_logits = ad.matmul(flat, p[prefix + "gate.weight"])
    probs = ad.softmax(gate_logits, axis=-1)

    sel = _topk_indices(gate_logits.value, k)
    n_live = int(live_flat.sum())
    counts = np.bincount(sel[live_flat].ravel(), minlength=e)

    if moe_impl == "dense":
        if k != e:
            raise ConfigError("dense mixture requires experts_per_token == num_experts")
        acc = None
        for idx in range(e):
            expert = _dense_ffn_block(flat, p, f"{prefix}expert{idx:02d}.")
            col = ad.gather_cols(probs, np.full((n, 1), idx, dtype=np.int64))
            term = ad.mul(expert, col)
            acc = term if acc is None else ad.add(acc, term)
        out_flat = acc
    elif moe_impl == "sparse":
        selw = ad.softmax(ad.gather_cols(gate_logits, sel), axis=-1)
        acc = np.zeros((n, d))
        for idx in range(e):
            tok, slot = np.nonzero(sel == idx)
            if tok.size == 0:
                continue
            rows = ad.take_rows(flat, tok)
            expert = _dense_ffn_block(rows, p, f"{prefix}expert{idx:02d}.")
            w = ad.reshape(ad.gather_pairs(selw, tok, slot), (tok.size, 1))
            acc = ad.scatter_add_rows(acc, tok, ad.mul(expert, w))
        out_flat = acc
    else:
        raise ValueError(f"unknown moe_impl {moe_impl!r}")

    # Load-balance term: (E/k) * sum_e assignment_fraction_e * mean_prob_e,
    # exactly 1.0 under perfectly uniform routing.
    denom = max(n_live, 1)
    load = counts.astype(np.float64) / denom
    masked = ad.mul(probs, live_flat.astype(np.float64)[:, None])
    importance = ad.scale(ad.sum_(masked, axis=0), 1.0 / denom)
    aux = ad.scale(ad.sum_(ad.mul(importance, load)), e / k)

    return ad.reshape(out_flat, (b, t, d)), aux, counts


def build_forward(
    params: Mapping[str, "ad.Var | np.ndarray"],
    token_ids: np.ndarray,
    config: MoeLmConfig,
    segment_ids: np.ndarray | None = None,
    want_aux: bool = False,
    moe_impl: str = "sparse",
) -> ForwardResult:
    """Differentiable forward pass: (B, T) token ids -> (B, T, V) log-probs.

    segment_ids (0 = padding) isolate packed sentences from each other in
    both attention and position numbering. aux_loss is the mean over MoE
    layers of the load-balance term, or None when want_aux is False.
    """
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2:
        raise ValueError(f"token_ids must be (batch, time), got {token_ids.shape}")
    b, t = token_ids.shape
    if t > config.max_seq_len:
        raise ValueError(f"sequence length {t} exceeds max_seq_len {config.max_seq_len}")
    if token_ids.min() < 0 or token_ids.max() >= config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    if segment_ids is None:
        segment_ids = np.ones((b, t), dtype=np.int64)
    pos = _segment_positions(segment_ids)
    bias = _attention_bias(segment_ids)
    live_flat = (segment_ids > 0).ravel()
    pe = positional_table(config.max_seq_len, config.model_dim)

    x = ad.add(ad.take_rows(params["embed.weight"], token_ids), pe[pos])

    aux_terms = []
    counts_per_layer: list[np.ndarray] = []
    for i in range(config.num_layers):
        prefix = f"layer{i:02d}."
        h1 = _layer_norm(x, params[prefix + "ln1.gain"], params[prefix + "ln1.bias"])
        x = ad.add(x, _attention_block(h1, params, prefix, bias, config))
        h2 = _layer_norm(x, params[prefix + "ln2.gain"], params[prefix + "ln2.bias"])
        if config.is_moe_layer(i):
            out, aux, counts = _moe_block(h2, params, prefix, config,
                                          moe_impl, live_flat)
            aux_terms.append(aux)
            counts_per_layer.append(counts)
        else:
            out = _dense_ffn_block(h2, params, prefix + "ffn.")
        x = ad.add(x, out)

    x = _layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])
    if config.tied_embeddings:
        logits = ad.matmul(x, ad.swapaxes(params["embed.weight"], 0, 1))
    else:
        logits = ad.matmul(x, params["lm_head.weight"])
    check_finite(logits.value, "lm logits")
    log_probs = ad.log_softmax(logits, axis=-1)

    aux_loss = None
    if want_aux and aux_terms:
        total = aux_terms[0]
        for a in aux_terms[1:]:
            total = ad.add(total, a)
        aux_loss = ad.scale(total, 1.0 / len(aux_terms))
    return ForwardResult(log_probs=log_probs, aux_loss=aux_loss,
                         expert_counts=counts_per_layer)


def lm_forward(
    params: Mapping[str, np.ndarray],
    token_ids: Sequence[int],
    config: MoeLmConfig,
) -> np.ndarray:
    """Score one BOS-prefixed sequence; returns (T, V) next-token log-probs."""
    ids = np.asarray(list(token_ids), dtype=np.int64)
    if ids.size == 0:
        raise ValueError("cannot score an empty sequence")
    if ids[0] != BOS_ID:
        raise ValueError(f"sequence must start with BOS (id {BOS_ID}), got {ids[0]}")
    result = build_forward(params, ids[None, :], config)
    return result.log_probs.value[0]


def initial_state(config: MoeLmConfig) -> LmState:
    h, dh = config.num_heads, config.head_dim
    empty = [np.zeros((h, 0, dh)) for _ in range(config.num_layers)]
    return LmState(
        keys=[e.copy() for e in empty],
        values=[e.copy() for e in empty],
        position=0,
    )


def _layer_norm_np(x, gain, bias):
    mu = x.mean()
    xc = x - mu
    var = (xc * xc).mean()
    return xc / np.sqrt(var + LAYERNORM_EPS) * gain + bias


def lm_score_step(
    params: Mapping[str, np.ndarray],
    config: MoeLmConfig,
    state: LmState,
    next_token: int,
) -> tuple[LmState, np.ndarray]:
    """Feed one token through the cached incremental path.

    Returns the successor state and the (V,) log-distribution over the token
    after next_token. The input state is not mutated; states may be branched
    (kept per beam hypothesis) freely.
    """
    if state.position >= config.max_seq_len:
        raise ValueError(f"context already at max_seq_len {config.max_seq_len}")
    if not 0 <= int(next_token) < config.vocab_size:
        raise ValueError(f"token id {next_token} out of range")
    h, dh = config.num_heads, config.head_dim
    d = config.model_dim
    pe = positional_table(config.max_seq_len, d)

    x = params["embed.weight"][int(next_token)] + pe[state.position]
    new_keys: list[np.ndarray] = []
    new_values: list[np.ndarray] = []
    for i in range(config.num_layers):
        prefix = f"layer{i:02d}."
        hin = _layer_norm_np(x, params[prefix + "ln1.gain"], params[prefix + "ln1.bias"])
        q = (hin @ params[prefix + "attn.wq"]).reshape(h, dh)
        k = (hin @ params[prefix + "attn.wk"]).reshape(h, dh)
        v = (hin @ params[prefix + "attn.wv"]).reshape(h, dh)
        keys = np.concatenate([state.keys[i], k[:, None, :]], axis=1)
        values = np.concatenate([state.values[i], v[:, None, :]], axis=1)
        new_keys.append(keys)
        new_values.append(values)
        scores = np.einsum("hd,hpd->hp", q, keys) / np.sqrt(dh)
        attn = _softmax_np(scores, axis=-1)
        ctx = np.einsum("hp,hpd->hd", attn, values).reshape(d)
        x = x + ctx @ params[prefix + "attn.wo"]

        h2 = _layer_norm_np(x, params[prefix + "ln2.gain"], params[prefix + "ln2.bias"])
        if config.is_moe_layer(i):
            gate = gate_topk(h2, params[prefix + "gate.weight"],
                             config.experts_per_token)
            out = np.zeros(d)
            for w, idx in zip(gate.combine_weights, gate.expert_indices):
                ep = FfnParams(
                    w1=params[f"{prefix}expert{idx:02d}.w1"],
                    b1=params[f"{prefix}expert{idx:02d}.b1"],
                    w2=params[f"{prefix}expert{idx:02d}.w2"],
                    b2=params[f"{prefix}expert{idx:02d}.b2"],
                )
                out += w * _ffn_np(h2[None, :], ep)[0]
        else:
            ep = FfnParams(
                w1=params[prefix + "ffn.w1"], b1=params[prefix + "ffn.b1"],
                w2=params[prefix + "ffn.w2"], b2=params[prefix + "ffn.b2"],
            )
            out = _ffn_np(h2[None, :], ep)[0]
        x = x + out

    x = _layer_norm_np(x, params["final_ln.gain"], params["final_ln.bias"])
    if config.tied_embeddings:
        logits = x @ params["embed.weight"].T
    else:
        logits = x @ params["lm_head.weight"]
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in incremental scoring step")
    log_probs = _log_softmax_np(logits)
    new_state = LmState(keys=new_keys, values=new_values, position=state.position + 1)
    return new_state, log_probs
