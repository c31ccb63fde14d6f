"""Decoder-only transformer LM with sparse mixture-of-experts FFN layers.

Layer layout alternates dense and expert FFN blocks: even layers (0-based)
use a single dense FFN, odd layers route each token to the top-k of E expert
FFNs. Attention is pre-norm multi-head with sinusoidal positions and a causal
mask; embeddings are tied to the output projection by default.

One layer stack, _layers, runs training and decoding over flat (N, d) token
rows, and its attention is one kernel, the autodiff op ad.attention (one
graph node in training); the callers differ only in how attention finds its
keys and values:
  * build_forward: the batched differentiable graph (training and full
    scoring) attends within each row of a (B, T) batch under a causal,
    segment-isolating mask,
  * lm_score_rows: one decoding step for a block of R rows attends over
    its parents' cached keys and values plus its own, and returns them as
    a new KV block, leaving the old one as it was; lm_score_step is its
    one-row call.
The two agree to within 1e-5 per log-probability; tests enforce this. On
plain arrays an autodiff op records no graph and returns an ndarray, so the
decode step runs the same layers (ad.layer_norm, _ffn, the mixture
_mixture with its router gate_topk, _output_head) at numpy speed.
_mixture is the only mixture: the dense reference it is tested against
(every expert on every token) is tests/helpers.dense_mixture, which the
sparse/dense equivalence tests patch in as model._mixture.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, asdict
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .numerics import check_finite
from .tokenizer import BOS_ID

__all__ = [
    "MoeLmConfig", "GateOutput", "LmState", "FfnParams", "ForwardResult",
    "param_shapes", "init_params", "positional_table",
    "gate_topk",
    "build_forward", "lm_forward",
    "initial_state", "kv_position_bytes", "lm_score_rows", "lm_score_step",
]

ATTN_MASK_VALUE = -1e9


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
        if not 0 <= self.aux_loss_weight < np.inf:
            raise ConfigError(f"aux_loss_weight must be finite and non-negative, "
                              f"got {self.aux_loss_weight}")

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
    """Routing of N tokens: (N, k) expert indices, (N, k) combine weights
    and (N, E) gate logits."""

    expert_indices: np.ndarray
    combine_weights: "np.ndarray | ad.Var"
    all_gate_logits: "np.ndarray | ad.Var"


@dataclass
class FfnParams:
    """One two-layer GELU FFN block (dense layer or one expert); arrays or Vars."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class LmState:
    """A KV block: per layer, the (R, H, position, dh) keys and values of R
    rows. No call writes a block, so any block may be extended again."""

    keys: list[np.ndarray]
    values: list[np.ndarray]

    @property
    def position(self) -> int:
        return self.keys[0].shape[2]


def kv_position_bytes(config: MoeLmConfig) -> int:
    """Bytes of one LmState row's float64 keys and values at one position."""
    return 2 * 8 * config.num_layers * config.num_heads * config.head_dim


@dataclass
class ForwardResult:
    log_probs: "ad.Var | np.ndarray"
    aux_loss: "ad.Var | np.ndarray | None"
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
        ffns = [p + "ffn."]
        if config.is_moe_layer(i):
            shapes[p + "gate.weight"] = (d, e)
            ffns = [f"{p}expert{x:02d}." for x in range(e)]
        for q in ffns:
            shapes.update({q + "w1": (d, f), q + "b1": (f,), q + "w2": (f, d), q + "b2": (d,)})
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


def gate_topk(token_repr, gate_weight, k: int) -> GateOutput:
    """Route tokens: pick the top-k experts, softmax-renormalize their logits.

    The one router of training and decoding. token_repr is an (N, d) block,
    an array or a Var. The combine weights equal the full softmax over all
    experts renormalized to the selected set. Ties in the logits resolve to
    the lower expert index.
    """
    e = gate_weight.shape[1]
    if k > e:
        raise ConfigError(f"cannot select top-{k} of {e} experts")
    logits = token_repr @ gate_weight
    check_finite(ad.value(logits), "gate logits")
    sel = np.argsort(-ad.value(logits), axis=-1, kind="stable")[:, :k]
    weights = ad.softmax(ad.gather_pairs(logits, np.arange(len(sel))[:, None], sel))
    return GateOutput(sel, weights, logits)


def _ffn_params(p: Mapping, prefix: str) -> FfnParams:
    return FfnParams(w1=p[prefix + "w1"], b1=p[prefix + "b1"],
                     w2=p[prefix + "w2"], b2=p[prefix + "b2"])


def _segment_positions(segment_ids: np.ndarray) -> np.ndarray:
    """Position of each token within its run of equal segment ids (0 at its start)."""
    b, t = segment_ids.shape
    col = np.broadcast_to(np.arange(t, dtype=np.int64), (b, t))
    starts = np.ones((b, t), dtype=bool)
    starts[:, 1:] = segment_ids[:, 1:] != segment_ids[:, :-1]
    run_start = np.maximum.accumulate(np.where(starts, col, 0), axis=1)
    return col - run_start


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


def _ffn(x, p: FfnParams):
    """Two-layer GELU FFN over the last axis; x and p may be Vars or arrays.
    A one-row array runs as two equal rows, as lm_score_rows explains."""
    if isinstance(x, np.ndarray) and x.shape[:-1] == (1,):
        return _ffn(np.repeat(x, 2, axis=0), p)[:1]
    return ad.ffn(x, p.w1, p.b1, p.w2, p.b2)


def _output_head(x, params, config: MoeLmConfig):
    """Final layer norm, output projection (tied or not) and log-softmax."""
    x = ad.layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])
    if config.tied_embeddings:
        w = ad.swapaxes(params["embed.weight"], 0, 1)
    else:
        w = params["lm_head.weight"]
    if isinstance(w, np.ndarray):
        # OpenBLAS rounds a row of a product with a transposed view
        # differently as the row count changes; with a contiguous (d, V) copy
        # it does not, as lm_score_rows needs, but only below about 1e6
        # multiply-adds: from 142 rows at d=32, V=221 (ROADMAP item 14).
        w = np.ascontiguousarray(w)
    return ad.log_softmax(x @ w)


def _mixture(flat, gate_weight, expert, k: int):
    """Top-k mixture of expert FFNs over (N, d) tokens; returns (out, gate).

    expert(idx) gives expert idx's FfnParams; gate is gate_topk's routing.
    Each selected expert runs on its tokens only; their outputs are joined
    in expert order and mixed in one combine, weighted by the softmax of the
    selected logits. _layers looks _mixture up at call time, so a test may
    swap in a reference mixture by patching this module's attribute.
    """
    n, d = flat.shape
    gate = gate_topk(flat, gate_weight, k)

    # Group the (token, slot) choices by expert, tokens ascending in a group.
    order = np.argsort(gate.expert_indices, axis=None, kind="stable")
    ranked = gate.expert_indices.ravel()[order]
    edges = [0, *(np.flatnonzero(np.diff(ranked)) + 1).tolist(), ranked.size]
    tok, slot = np.divmod(order, k)
    y = ad.concat_rows([_ffn(ad.take_rows(flat, tok[a:b]), expert(int(ranked[a])))
                        for a, b in zip(edges, edges[1:])])
    w = ad.gather_pairs(gate.combine_weights, tok[:, None], slot[:, None])
    return ad.scatter_add_rows(np.zeros((n, d)), tok, ad.mul(y, w)), gate


def _layers(x, params, config: MoeLmConfig, attend):
    """The decoder stack over (N, d) token rows; returns (rows, MoE gates).

    Each layer is pre-norm attention and a residual, then a pre-norm FFN (a
    dense one on even layers, _mixture on odd ones) and a residual.
    attend(i, q, k, v) turns layer i's (N, d) query, key and value rows into
    their (N, d) attention context; gates holds each MoE layer's GateOutput.
    """
    gates = []
    for i in range(config.num_layers):
        prefix = f"layer{i:02d}."
        h = ad.layer_norm(x, params[prefix + "ln1.gain"], params[prefix + "ln1.bias"])
        q, k, v = (h @ params[prefix + f"attn.w{n}"] for n in "qkv")
        x = x + attend(i, q, k, v) @ params[prefix + "attn.wo"]
        h = ad.layer_norm(x, params[prefix + "ln2.gain"], params[prefix + "ln2.bias"])
        if config.is_moe_layer(i):
            out, gate = _mixture(h, params[prefix + "gate.weight"],
                                 lambda e: _ffn_params(params, f"{prefix}expert{e:02d}."),
                                 config.experts_per_token)
            gates.append(gate)
        else:
            out = _ffn(h, _ffn_params(params, prefix + "ffn."))
        x = x + out
    return x, gates


def build_forward(
    params: Mapping[str, "ad.Var | np.ndarray"],
    token_ids: np.ndarray,
    config: MoeLmConfig,
    segment_ids: np.ndarray | None = None,
    want_aux: bool = False,
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
    d, h, dh = config.model_dim, config.num_heads, config.head_dim

    def attend(i, q, k, v):
        heads = (ad.swapaxes(ad.reshape(a, (b, t, h, dh)), 1, 2) for a in (q, k, v))
        return ad.reshape(ad.swapaxes(ad.attention(*heads, bias), 1, 2), (b * t, d))

    pe = positional_table(config.max_seq_len, d)
    x = ad.take_rows(params["embed.weight"], token_ids.ravel()) + pe[pos.ravel()]
    x, gates = _layers(x, params, config, attend)
    log_probs = ad.reshape(_output_head(x, params, config), (b, t, config.vocab_size))

    # Routing statistics cover live tokens only, so padding content can
    # never influence the balance penalty.
    live = (segment_ids > 0).ravel()
    e, k, denom = config.num_experts, config.experts_per_token, max(int(live.sum()), 1)
    counts = [np.bincount(g.expert_indices[live].ravel(), minlength=e) for g in gates]
    aux_loss = None
    if want_aux and gates:
        # Per layer (E/k) * sum_e assignment_fraction_e * mean_prob_e,
        # exactly 1.0 under perfectly uniform routing.
        terms = []
        for gate, count in zip(gates, counts):
            probs = ad.softmax(gate.all_gate_logits)
            masked = ad.mul(probs, live[:, None].astype(np.float64))
            importance = ad.mul(ad.sum_(masked, axis=0), 1.0 / denom)
            terms.append(ad.mul(ad.sum_(ad.mul(importance, count / denom)), e / k))
        aux_loss = ad.mul(sum(terms[1:], terms[0]), 1.0 / len(terms))
    return ForwardResult(log_probs=log_probs, aux_loss=aux_loss, expert_counts=counts)


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
    return build_forward(params, ids[None, :], config).log_probs[0]


def initial_state(config: MoeLmConfig) -> LmState:
    """The empty one-row KV block that BOS extends."""
    shape = (1, config.num_heads, 0, config.head_dim)
    return LmState(keys=[np.zeros(shape) for _ in range(config.num_layers)],
                   values=[np.zeros(shape) for _ in range(config.num_layers)])


def lm_score_rows(params: Mapping[str, np.ndarray], config: MoeLmConfig, block: LmState,
                  parents: np.ndarray, tokens: np.ndarray) -> tuple[LmState, np.ndarray]:
    """One decoding step for R rows; returns their new KV block and (R, V)
    log-distributions.

    The decoder stack of build_forward with its attention reading a KV block:
    row r extends row parents[r] of block by tokens[r]. Each layer gathers
    the parents' cached keys and values, joins the new position's into a
    fresh (R, H, position + 1, dh) pair and attends over it; block is only
    read. BLAS rounds one row (gemv) unlike a block (gemm), so a lone row
    runs as two equal rows (here, and an expert's in _ffn): a row's value
    then does not depend, bit for bit, on the other rows, given that gemm
    rounds a row alike for any row count >= 2 with contiguous weights (see
    _output_head; the lockstep tests check). OpenBLAS does so below about 1e6
    multiply-adds a product: from 142 rows at d=32, V=221 and from 16 rows at
    d=128, rows differ (ROADMAP item 14).
    """
    p = block.position
    if p >= config.max_seq_len:
        raise ValueError(f"context already at max_seq_len {config.max_seq_len}")
    parents, tokens = np.asarray(parents), np.asarray(tokens)
    if tokens.min() < 0 or tokens.max() >= config.vocab_size:
        raise ValueError(f"token ids {tokens.min()}..{tokens.max()} out of range")
    if parents.shape != tokens.shape or not 0 <= parents.min() <= parents.max() < len(block.keys[0]):
        raise ValueError(f"parents {parents.tolist()} are not one source row per token")
    r, h, dh = tokens.size, config.num_heads, config.head_dim
    pad = [0, 0] if r == 1 else slice(None)
    new = LmState(keys=[], values=[])

    def attend(i, q, k, v):
        for cache, old, x in ((new.keys, block.keys, k), (new.values, block.values, v)):
            cache.append(np.concatenate([old[i][parents], x[:r].reshape(r, h, 1, dh)], axis=2))
        ctx = ad.attention(q[:r].reshape(r, h, 1, dh), new.keys[i], new.values[i], 0.0)
        return ctx.reshape(r, config.model_dim)[pad]

    pe = positional_table(config.max_seq_len, config.model_dim)
    x, _ = _layers(params["embed.weight"][tokens[pad]] + pe[p], params, config, attend)
    return new, _output_head(x, params, config)[:r]


def lm_score_step(params: Mapping[str, np.ndarray], config: MoeLmConfig, state: LmState,
                  next_token: int) -> tuple[LmState, np.ndarray]:
    """lm_score_rows on one row: the successor state and the (V,) row after
    next_token. The input state is not mutated, so states may branch."""
    new_state, rows = lm_score_rows(params, config, state, [0], [next_token])
    return new_state, rows[0]
