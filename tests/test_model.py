"""Gating, MoE layer semantics, scoring paths, and their agreement."""

import numpy as np
import pytest

from moefusion.errors import ConfigError
from moefusion.model import (
    FfnParams, MoeLmConfig, build_forward, gate_topk, init_params,
    initial_state, lm_forward, lm_score_step, moe_layer_forward, param_shapes,
    positional_table,
)
from moefusion.tokenizer import BOS_ID


def make_experts(d, f, n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FfnParams(
            w1=rng.standard_normal((d, f)) * 0.2,
            b1=rng.standard_normal(f) * 0.01,
            w2=rng.standard_normal((f, d)) * 0.2,
            b2=rng.standard_normal(d) * 0.01,
        )
        for _ in range(n)
    ]


class TestConfig:
    def test_defaults_describe_full_scale(self):
        cfg = MoeLmConfig()
        assert cfg.num_layers == 12 and cfg.model_dim == 768
        assert cfg.num_experts == 64 and cfg.experts_per_token == 2
        assert cfg.vocab_size == 16384 and cfg.max_seq_len == 1024
        assert cfg.moe_layers == [1, 3, 5, 7, 9, 11]

    def test_k_greater_than_e_rejected(self):
        with pytest.raises(ConfigError):
            MoeLmConfig(num_experts=2, experts_per_token=3)

    def test_head_dims_must_multiply_out(self):
        with pytest.raises(ConfigError):
            MoeLmConfig(model_dim=100, num_heads=12, head_dim=64)

    def test_round_trips_through_dict(self):
        cfg = MoeLmConfig(num_layers=4, model_dim=32, num_heads=4, head_dim=8,
                          num_experts=8, vocab_size=100, max_seq_len=64)
        assert MoeLmConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_dict_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            MoeLmConfig.from_dict({"bogus": 1})


class TestGate:
    def test_hand_example(self):
        # logits [1, 3, 2, -1] -> experts (1, 2), softmax([3, 2])
        out = gate_topk(np.array([1.0]), np.array([[1.0, 3.0, 2.0, -1.0]]), 2)
        assert out.expert_indices == (1, 2)
        assert np.allclose(out.combine_weights, [0.7311, 0.2689], atol=1e-4)
        assert np.allclose(out.all_gate_logits, [1.0, 3.0, 2.0, -1.0])

    def test_tie_resolves_to_lower_index(self):
        out = gate_topk(np.array([1.0]), np.array([[5.0, 5.0, 0.0, 0.0]]), 2)
        assert out.expert_indices == (0, 1)
        assert np.allclose(out.combine_weights, [0.5, 0.5])

    def test_k_equals_e_is_full_softmax(self):
        rng = np.random.default_rng(1)
        repr_, gate = rng.standard_normal(6), rng.standard_normal((6, 4))
        out = gate_topk(repr_, gate, 4)
        logits = repr_ @ gate
        order = np.argsort(-logits, kind="stable")
        full = np.exp(logits - logits.max())
        full /= full.sum()
        assert np.allclose(out.combine_weights, full[order], atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            out = gate_topk(rng.standard_normal(8),
                            rng.standard_normal((8, 16)), 2)
            assert abs(out.combine_weights.sum() - 1.0) < 1e-12
            assert len(set(out.expert_indices)) == 2

    def test_k_too_large_rejected(self):
        with pytest.raises(ConfigError):
            gate_topk(np.ones(2), np.ones((2, 3)), 4)


class TestMoeLayer:
    def test_single_expert_equals_plain_ffn(self):
        d, f = 8, 32
        experts = make_experts(d, f, 1, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, d))
        out = moe_layer_forward(x, rng.standard_normal((d, 1)), experts, 1)
        p = experts[0]
        h = x @ p.w1 + p.b1
        c = np.sqrt(2.0 / np.pi)
        h = 0.5 * h * (1 + np.tanh(c * (h + 0.044715 * h**3)))
        assert np.allclose(out, h @ p.w2 + p.b2, atol=1e-12)

    def test_two_expert_sparse_equals_dense_mixture(self):
        d, f = 12, 48
        rng = np.random.default_rng(5)
        experts = make_experts(d, f, 2, seed=6)
        gate = rng.standard_normal((d, 2))
        x = rng.standard_normal((1000, d))
        sparse = moe_layer_forward(x, gate, experts, 2, impl="sparse")
        dense = moe_layer_forward(x, gate, experts, 2, impl="dense")
        assert np.abs(sparse - dense).max() < 1e-6

    def test_tokens_route_differently(self):
        d, f = 8, 16
        rng = np.random.default_rng(7)
        gate = rng.standard_normal((d, 8))
        x = rng.standard_normal((64, d))
        logits = x @ gate
        sel = np.argsort(-logits, axis=1, kind="stable")[:, :2]
        assert len({tuple(row) for row in sel}) > 1

    def test_dense_requires_k_equals_e(self):
        with pytest.raises(ConfigError):
            moe_layer_forward(np.ones((2, 4)), np.ones((4, 3)),
                              make_experts(4, 8, 3), 2, impl="dense")

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError):
            moe_layer_forward(np.ones((2, 4)), np.ones((4, 2)),
                              make_experts(4, 8, 2), 2, impl="magic")


class TestForward:
    def test_rows_are_log_distributions(self, tiny_config):
        params = init_params(tiny_config, 0)
        rows = lm_forward(params, [BOS_ID, 5, 9, 13], tiny_config)
        assert rows.shape == (4, tiny_config.vocab_size)
        assert np.abs(np.exp(rows).sum(axis=-1) - 1).max() < 1e-9

    def test_causality_exact(self, tiny_config):
        params = init_params(tiny_config, 0)
        a = lm_forward(params, [BOS_ID, 5, 9, 13, 7, 21], tiny_config)
        b = lm_forward(params, [BOS_ID, 5, 9, 22, 30, 4], tiny_config)
        assert np.array_equal(a[:3], b[:3])

    def test_requires_bos(self, tiny_config):
        params = init_params(tiny_config, 0)
        with pytest.raises(ValueError, match="BOS"):
            lm_forward(params, [5, 6], tiny_config)

    def test_length_and_range_checks(self, tiny_config):
        params = init_params(tiny_config, 0)
        with pytest.raises(ValueError, match="max_seq_len"):
            lm_forward(params, [BOS_ID] + [4] * tiny_config.max_seq_len,
                       tiny_config)
        with pytest.raises(ValueError, match="range"):
            lm_forward(params, [BOS_ID, tiny_config.vocab_size], tiny_config)

    def test_fresh_init_nll_near_uniform(self):
        cfg = MoeLmConfig(num_layers=2, model_dim=32, num_heads=2, head_dim=16,
                          num_experts=4, experts_per_token=2, vocab_size=256,
                          max_seq_len=32)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(8)
        ids = [BOS_ID] + list(rng.integers(4, 256, size=20))
        rows = lm_forward(params, ids, cfg)
        nll = -np.mean([rows[t, ids[t + 1]] for t in range(len(ids) - 1)])
        assert abs(nll - np.log(256)) / np.log(256) < 0.05

    def test_segment_isolation_exact(self, tiny_config):
        params = init_params(tiny_config, 0)
        base = np.array([[BOS_ID, 5, 6, 2, BOS_ID, 9, 10, 2]])
        segs = np.array([[1, 1, 1, 1, 2, 2, 2, 2]])
        alt = base.copy()
        alt[0, 5:7] = [25, 26]  # rewrite segment 2 only
        out1 = build_forward(params, base, tiny_config, segment_ids=segs)
        out2 = build_forward(params, alt, tiny_config, segment_ids=segs)
        assert np.array_equal(out1.log_probs.value[0, :4],
                              out2.log_probs.value[0, :4])

    def test_positions_reset_per_segment(self, tiny_config):
        params = init_params(tiny_config, 0)
        packed = np.array([[BOS_ID, 5, 6, 2, BOS_ID, 5, 6, 2]])
        segs = np.array([[1, 1, 1, 1, 2, 2, 2, 2]])
        out = build_forward(params, packed, tiny_config, segment_ids=segs)
        # identical isolated segments must produce identical rows
        assert np.allclose(out.log_probs.value[0, :4],
                           out.log_probs.value[0, 4:], atol=1e-12)


class TestScoreStep:
    def test_matches_full_forward(self, tiny_config):
        params = init_params(tiny_config, 0)
        ids = [BOS_ID, 5, 9, 13, 7, 21, 4, 30]
        rows = lm_forward(params, ids, tiny_config)
        state = initial_state(tiny_config)
        for t, tok in enumerate(ids):
            state, dist = lm_score_step(params, tiny_config, state, tok)
            assert np.abs(dist - rows[t]).max() < 1e-5

    def test_many_random_prefixes_agree(self, tiny_config):
        params = init_params(tiny_config, 0)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            ids = [BOS_ID] + list(rng.integers(4, 32, size=n))
            rows = lm_forward(params, ids, tiny_config)
            state = initial_state(tiny_config)
            for tok in ids:
                state, dist = lm_score_step(params, tiny_config, state, tok)
            assert np.abs(dist - rows[-1]).max() < 1e-5

    def test_state_branching_is_pure(self, tiny_config):
        params = init_params(tiny_config, 0)
        state = initial_state(tiny_config)
        state, _ = lm_score_step(params, tiny_config, state, BOS_ID)
        s1, d1 = lm_score_step(params, tiny_config, state, 5)
        s2, d2 = lm_score_step(params, tiny_config, state, 9)
        s1b, d1b = lm_score_step(params, tiny_config, state, 5)
        assert np.array_equal(d1, d1b)
        assert not np.array_equal(d1, d2)
        assert s1.position == s2.position == 2

    def test_context_exhaustion_rejected(self, tiny_config):
        params = init_params(tiny_config, 0)
        state = initial_state(tiny_config)
        for _ in range(tiny_config.max_seq_len):
            state, _ = lm_score_step(params, tiny_config, state, 4)
        with pytest.raises(ValueError, match="max_seq_len"):
            lm_score_step(params, tiny_config, state, 4)


class TestPositionalTable:
    def test_cached_and_read_only(self):
        a = positional_table(16, 8)
        assert positional_table(16, 8) is a
        assert positional_table(16, 10) is not a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        # row p holds sin/cos of p / 10000^(2i/dim) in alternating columns
        assert a[3, 2] == pytest.approx(np.sin(3 / 10000 ** (2 / 8)))
        assert a[3, 3] == pytest.approx(np.cos(3 / 10000 ** (2 / 8)))


class TestInit:
    def test_shapes_match_declaration(self, tiny_config):
        params = init_params(tiny_config, 0)
        shapes = param_shapes(tiny_config)
        assert set(params) == set(shapes)
        for n, s in shapes.items():
            assert params[n].shape == s

    def test_seed_determinism(self, tiny_config):
        p1 = init_params(tiny_config, 3)
        p2 = init_params(tiny_config, 3)
        p3 = init_params(tiny_config, 4)
        assert all(np.array_equal(p1[n], p2[n]) for n in p1)
        assert any(not np.array_equal(p1[n], p3[n]) for n in p1)

    def test_untied_has_output_head(self):
        cfg = MoeLmConfig(num_layers=2, model_dim=16, num_heads=2, head_dim=8,
                          num_experts=2, experts_per_token=2, vocab_size=32,
                          max_seq_len=16, tied_embeddings=False)
        assert "lm_head.weight" in param_shapes(cfg)
        params = init_params(cfg, 0)
        rows = lm_forward(params, [BOS_ID, 4, 5], cfg)
        assert np.abs(np.exp(rows).sum(axis=-1) - 1).max() < 1e-9
