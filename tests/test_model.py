"""Gating, MoE layer semantics, scoring paths, and their agreement."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from helpers import dense_mixture, fd_check, record_var_inits
from moefusion import autodiff as ad
from moefusion.errors import ConfigError
from moefusion.model import (
    FfnParams, LmState, MoeLmConfig, _ffn, _mixture, _segment_positions, build_forward,
    gate_topk, init_params, initial_state, kv_position_bytes, lm_forward, lm_score_rows,
    lm_score_step, param_shapes, positional_table,
)
from moefusion.tokenizer import BOS_ID


def block_walk(params, config, seqs):
    """Score equal-length rows of tokens with one lm_score_rows call per step.

    Row r of the block is seqs[r]; returns the final block and the (T, R, V)
    rows. The first step extends the one-row empty block into R rows.
    """
    seqs = np.asarray(seqs)
    r, t = seqs.shape
    block, out = initial_state(config), []
    for step in range(t):
        parents = np.arange(r) if step else np.zeros(r, dtype=np.int64)
        block, rows = lm_score_rows(params, config, block, parents, seqs[:, step])
        out.append(rows)
    return block, np.stack(out)


def mixture(x, gate, experts, k, mix=_mixture):
    """The (T, d) output of mix over a list of FfnParams."""
    return mix(x, gate, experts.__getitem__, k)[0]


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

    def test_aux_loss_weight_must_be_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="aux_loss_weight"):
                MoeLmConfig(aux_loss_weight=bad)

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
        out = gate_topk(np.array([[1.0]]), np.array([[1.0, 3.0, 2.0, -1.0]]), 2)
        assert out.expert_indices.tolist() == [[1, 2]]
        assert np.allclose(out.combine_weights, [[0.7311, 0.2689]], atol=1e-4)
        assert np.allclose(out.all_gate_logits, [[1.0, 3.0, 2.0, -1.0]])

    def test_tie_resolves_to_lower_index(self):
        out = gate_topk(np.array([[1.0]]), np.array([[5.0, 5.0, 0.0, 0.0]]), 2)
        assert out.expert_indices.tolist() == [[0, 1]]
        assert np.allclose(out.combine_weights, [[0.5, 0.5]])

    def test_k_equals_e_is_full_softmax(self):
        rng = np.random.default_rng(1)
        repr_, gate = rng.standard_normal((1, 6)), rng.standard_normal((6, 4))
        out = gate_topk(repr_, gate, 4)
        logits = (repr_ @ gate)[0]
        order = np.argsort(-logits, kind="stable")
        full = np.exp(logits - logits.max())
        full /= full.sum()
        assert np.allclose(out.combine_weights[0], full[order], atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            out = gate_topk(rng.standard_normal((1, 8)),
                            rng.standard_normal((8, 16)), 2)
            assert abs(out.combine_weights.sum() - 1.0) < 1e-12
            assert len(set(out.expert_indices[0].tolist())) == 2

    def test_k_too_large_rejected(self):
        with pytest.raises(ConfigError):
            gate_topk(np.ones((1, 2)), np.ones((2, 3)), 4)


class TestMoeLayer:
    def test_single_expert_equals_plain_ffn(self):
        d, f = 8, 32
        experts = make_experts(d, f, 1, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, d))
        out = mixture(x, rng.standard_normal((d, 1)), experts, 1)
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
        sparse = mixture(x, gate, experts, 2)
        dense = mixture(x, gate, experts, 2, mix=dense_mixture)
        assert np.abs(sparse - dense).max() < 1e-6

    def test_tokens_route_differently(self):
        d, f = 8, 16
        rng = np.random.default_rng(7)
        gate = rng.standard_normal((d, 8))
        x = rng.standard_normal((64, d))
        logits = x @ gate
        sel = np.argsort(-logits, axis=1, kind="stable")[:, :2]
        assert len({tuple(row) for row in sel}) > 1

    def test_k_above_expert_count_rejected(self):
        with pytest.raises(ConfigError):
            mixture(np.ones((2, 4)), np.ones((4, 2)), make_experts(4, 8, 2), 3)

    def test_mixture_builds_only_the_selected_experts(self):
        d, f, e, k = 8, 16, 64, 2
        experts = make_experts(d, f, e, seed=9)
        rng = np.random.default_rng(10)
        x, gate = rng.standard_normal((3, d)), rng.standard_normal((d, e))
        asked = []
        out, g = _mixture(x, gate, lambda i: asked.append(i) or experts[i], k)
        assert sorted(asked) == sorted(set(g.expert_indices.ravel().tolist()))
        assert np.array_equal(out, mixture(x, gate, experts, k))

    def test_one_combine_matches_per_group_mixing(self):
        # Expert 2 serves one (token, slot), expert 4 none. The combine must
        # equal mixing each expert group into the output in turn, bit for
        # bit (k=3, so the order of a token's terms matters), and its
        # gradients must match finite differences.
        d, f, k = 5, 8, 3
        x = np.array([[3.0, 2.0, 0.0, 1.0, -1.0],
                      [2.0, 3.0, -1.0, 1.0, 0.0],
                      [2.0, 0.0, 3.0, 1.0, -1.0]])
        gate = np.eye(d) + 0.1 * np.random.default_rng(11).standard_normal((d, d))
        experts = make_experts(d, f, d, seed=12)
        g = gate_topk(x, gate, k)
        assert g.expert_indices.tolist() == [[0, 1, 3], [1, 0, 3], [2, 0, 3]]

        ref = np.zeros_like(x)
        for e, p in enumerate(experts):
            tok, slot = np.nonzero(g.expert_indices == e)
            if tok.size:
                y = _ffn(x[tok], p)
                np.add.at(ref, tok, y * g.combine_weights[tok, slot][:, None])
        assert np.array_equal(mixture(x, gate, experts, k), ref)

        params = {"x": x, "gate": gate}
        for e, p in enumerate(experts):
            params.update({f"{e}.{n}": getattr(p, n) for n in ("w1", "b1", "w2", "b2")})
        fd_check(lambda v: _mixture(
            v["x"], v["gate"],
            lambda e: FfnParams(*(v[f"{e}.{n}"] for n in ("w1", "b1", "w2", "b2"))),
            k)[0], params)

    def test_combine_runs_once_per_layer(self, monkeypatch):
        d, f, e, k = 8, 16, 64, 2
        experts = make_experts(d, f, e, seed=9)
        rng = np.random.default_rng(10)
        x, gate = ad.Var(rng.standard_normal((5, d))), rng.standard_normal((d, e))
        ops, calls = ("gather_pairs", "mul", "scatter_add_rows", "reshape"), Counter()
        for op in ops:
            fn = getattr(ad, op)
            monkeypatch.setattr(ad, op, lambda *a, _op=op, _fn=fn: calls.update([_op]) or _fn(*a))
        _, g = _mixture(x, gate, experts.__getitem__, k)
        assert len(set(g.expert_indices.ravel().tolist())) > 2
        # one gather_pairs is the router's top-k pick
        assert calls == {"gather_pairs": 2, "mul": 1, "scatter_add_rows": 1}

    @pytest.mark.parametrize("e", [2, 4, 16])
    def test_decode_step_mixture_matches_layer(self, e):
        # One token routed by gate_topk and mixed by hand with _ffn equals
        # the mixture that training and the decode step run (_mixture).
        d, f, k = 8, 32, 2
        rng = np.random.default_rng(40 + e)
        experts = make_experts(d, f, e, seed=e)
        gate = rng.standard_normal((d, e))
        for row in rng.standard_normal((20, 1, d)):
            g = gate_topk(row, gate, k)
            step = sum(w * _ffn(row[0], experts[i])
                       for w, i in zip(g.combine_weights[0], g.expert_indices[0]))
            layer = mixture(row, gate, experts, k)[0]
            assert np.abs(step - layer).max() < 1e-12


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
        assert np.array_equal(out1.log_probs[0, :4], out2.log_probs[0, :4])

    def test_positions_reset_per_segment(self, tiny_config):
        params = init_params(tiny_config, 0)
        packed = np.array([[BOS_ID, 5, 6, 2, BOS_ID, 5, 6, 2]])
        segs = np.array([[1, 1, 1, 1, 2, 2, 2, 2]])
        out = build_forward(params, packed, tiny_config, segment_ids=segs)
        # identical isolated segments must produce identical rows
        assert np.allclose(out.log_probs[0, :4], out.log_probs[0, 4:], atol=1e-12)


    def test_balance_bookkeeping_counts_live_tokens_only(self, tiny_config):
        config = replace(tiny_config, num_layers=4)
        params = init_params(config, 0)
        rng = np.random.default_rng(17)
        tokens = rng.integers(4, 32, size=(2, 8))
        tokens[:, 0] = BOS_ID
        segs = np.array([[1, 1, 1, 1, 1, 2, 2, 2], [1, 1, 1, 1, 1, 1, 0, 0]])
        out = build_forward(params, tokens, config, segment_ids=segs, want_aux=True)
        assert len(out.expert_counts) == len(config.moe_layers) == 2
        live = int((segs > 0).sum())
        assert all(c.sum() == config.experts_per_token * live for c in out.expert_counts)
        # An appended all-padding row changes neither, whatever its tokens.
        padded = build_forward(params, np.vstack([tokens, rng.integers(4, 32, size=(1, 8))]),
                               config, segment_ids=np.vstack([segs, np.zeros((1, 8), int)]),
                               want_aux=True)
        assert np.array_equal(padded.aux_loss, out.aux_loss)
        assert len(padded.expert_counts) == len(out.expert_counts)
        assert all(np.array_equal(a, b) for a, b in zip(padded.expert_counts, out.expert_counts))


def loop_segment_positions(segment_ids):
    """Reference: count up within each run of equal ids, restart on a change."""
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


class TestSegmentPositions:
    def test_hand_example(self):
        segs = np.array([[1, 1, 1, 2, 2, 0, 0], [3, 0, 0, 0, 4, 4, 4]])
        assert _segment_positions(segs).tolist() == [
            [0, 1, 2, 0, 1, 0, 1], [0, 0, 1, 2, 0, 1, 2]]

    def test_matches_loop_on_random_packings(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            b, t = int(rng.integers(1, 5)), int(rng.integers(1, 40))
            rows = []
            for _ in range(b):
                row, seg = [], 0
                while len(row) < t:
                    # A sentence run, or a padding (0) run now and then.
                    seg = 0 if seg and rng.random() < 0.3 else seg + 1
                    row += [seg] * int(rng.integers(1, 9))
                rows.append(row[:t])
            segs = np.array(rows, dtype=np.int64)
            got = _segment_positions(segs)
            assert got.dtype == np.int64
            assert np.array_equal(got, loop_segment_positions(segs))


class TestScoreStep:
    @pytest.mark.parametrize("case", ["tiny-tied", "tiny-untied", "bench-decode"])
    def test_matches_full_forward(self, tiny_config, case):
        if case == "bench-decode":
            # The decode benchmark's LM shape, scored over its full context.
            config = MoeLmConfig(num_layers=2, model_dim=32, num_heads=2,
                                 head_dim=16, num_experts=4, experts_per_token=2,
                                 vocab_size=512, max_seq_len=64)
            ids = [BOS_ID] + list(np.random.default_rng(10).integers(4, 512, size=63))
        else:
            config = replace(tiny_config, tied_embeddings=case == "tiny-tied")
            ids = [BOS_ID, 5, 9, 13, 7, 21, 4, 30]
        params = init_params(config, 0)
        rows = lm_forward(params, ids, config)
        state = initial_state(config)
        for t, tok in enumerate(ids):
            state, dist = lm_score_step(params, config, state, tok)
            assert np.abs(dist - rows[t]).max() < 1e-5
        # The batched step, with ids as row 0 of a block of three.
        rng = np.random.default_rng(12)
        decoys = rng.integers(4, config.vocab_size, size=(2, len(ids)))
        _, block = block_walk(params, config, [ids, *decoys])
        assert np.abs(block[:, 0] - rows).max() < 1e-5

    def test_packed_rows_match_decode_steps(self, tiny_config):
        """Packed segments and trailing padding through build_forward score
        each segment as stepping it alone from BOS does: the segment bias
        and the position reset reach every layer of the shared stack."""
        params = init_params(tiny_config, 0)
        packed = [[[BOS_ID, 5, 9, 13, 7], [BOS_ID, 21, 4, 30], [BOS_ID, 11, 6]],
                  [[BOS_ID, 8, 8, 12, 19, 25, 4], [BOS_ID, 17]]]
        t = 16
        tokens, segs = np.zeros((2, t), dtype=np.int64), np.zeros((2, t), dtype=np.int64)
        for row, segments in enumerate(packed):
            ids = sum(segments, [])
            assert len(ids) < t  # trailing padding
            tokens[row, :len(ids)] = ids
            segs[row, :len(ids)] = sum(([n + 1] * len(s) for n, s in enumerate(segments)), [])
        out = build_forward(params, tokens, tiny_config, segment_ids=segs).log_probs
        for row, segments in enumerate(packed):
            start = 0
            for seg in segments:
                _, want = block_walk(params, tiny_config, [seg])
                assert np.abs(out[row, start:start + len(seg)] - want[:, 0]).max() < 1e-5
                start += len(seg)

    def test_many_random_prefixes_agree(self, tiny_config):
        params = init_params(tiny_config, 0)
        rng = np.random.default_rng(9)
        prefixes = []
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            ids = [BOS_ID] + list(rng.integers(4, 32, size=n))
            rows = lm_forward(params, ids, tiny_config)
            state = initial_state(tiny_config)
            for tok in ids:
                state, dist = lm_score_step(params, tiny_config, state, tok)
            assert np.abs(dist - rows[-1]).max() < 1e-5
            prefixes.append((ids, rows[-1]))
        # The same prefixes through the batched step, 50 to a block; a row
        # shorter than the block's longest runs on with filler tokens.
        for start in range(0, len(prefixes), 50):
            chunk = prefixes[start:start + 50]
            seqs = np.full((len(chunk), 8), 4)
            for r, (ids, _) in enumerate(chunk):
                seqs[r, :len(ids)] = ids
            _, block = block_walk(params, tiny_config, seqs)
            for r, (ids, want) in enumerate(chunk):
                assert np.abs(block[len(ids) - 1, r] - want).max() < 1e-5

    def test_kv_position_bytes_is_the_block_layout(self, tiny_config):
        params = init_params(tiny_config, 0)
        block, _ = lm_score_step(params, tiny_config, initial_state(tiny_config), BOS_ID)
        block, _ = lm_score_rows(params, tiny_config, block, np.zeros(3, dtype=np.int64),
                                 np.array([4, 5, 6]))
        held = sum(a.nbytes for a in block.keys + block.values)
        assert held == kv_position_bytes(tiny_config) * 3 * block.position == 3 * 2 * 512

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
        full, _ = block_walk(params, tiny_config, np.full((3, tiny_config.max_seq_len), 4))
        with pytest.raises(ValueError, match="max_seq_len"):
            lm_score_rows(params, tiny_config, full, np.arange(3), np.full(3, 4))

    def test_bad_parents_raise(self, tiny_config):
        params = init_params(tiny_config, 0)
        block, _ = lm_score_rows(params, tiny_config, initial_state(tiny_config),
                                 np.zeros(3, dtype=np.int64), np.full(3, BOS_ID))
        before = [a.copy() for a in block.keys + block.values]
        for parents in ([0, -1, 1], [0, 3, 1], [0, 1]):
            with pytest.raises(ValueError, match="parents"):
                lm_score_rows(params, tiny_config, block, np.array(parents), np.full(3, 4))
        assert all(np.array_equal(a, b) for a, b in zip(block.keys + block.values, before))

    # One row, a beam's worth with repeated parents, and more rows than a
    # beam holds (lockstep configs).
    @pytest.mark.parametrize("n_rows", [1, 6, 24])
    def test_block_matches_one_row_steps(self, tiny_config, n_rows):
        params = init_params(tiny_config, 0)
        rng = np.random.default_rng(30 + n_rows)
        seqs = np.concatenate([np.full((4, 1), BOS_ID), rng.integers(4, 32, size=(4, 4))], axis=1)
        src, _ = block_walk(params, tiny_config, seqs)
        states = []
        for seq in seqs:
            state = initial_state(tiny_config)
            for tok in seq:
                state, _ = lm_score_step(params, tiny_config, state, tok)
            states.append(state)
        parents = rng.integers(0, 4, size=n_rows)
        tokens = rng.integers(0, 32, size=n_rows)
        dst, got = lm_score_rows(params, tiny_config, src, parents, tokens)
        assert got.shape == (n_rows, tiny_config.vocab_size) and dst.position == 6
        for r, (q, tok) in enumerate(zip(parents, tokens)):
            state, want = lm_score_step(params, tiny_config, states[q], tok)
            assert np.abs(got[r] - want).max() <= 1e-12
            for i in range(tiny_config.num_layers):
                assert np.abs(dst.keys[i][r] - state.keys[i][0]).max() <= 1e-12
                assert np.abs(dst.values[i][r] - state.values[i][0]).max() <= 1e-12
        # A row's value does not depend on the rest of its block.
        sub = rng.permutation(n_rows)[: max(1, n_rows // 3)]
        _, again = lm_score_rows(params, tiny_config, src, parents[sub], tokens[sub])
        assert np.array_equal(again, got[sub])

    def test_row_independent_of_its_block_at_decode_shape(self):
        """At the decode benchmark's LM shape (d=32, V=221) a row's scores do
        not depend on the rows scored with it, up to 128 rows: the lockstep
        searches over utterances and configs rely on it. A product with the
        transposed embedding view failed this from 4 rows on."""
        config = MoeLmConfig(num_layers=2, model_dim=32, num_heads=2, head_dim=16,
                             num_experts=4, experts_per_token=2, vocab_size=221,
                             max_seq_len=64)
        params = init_params(config, 0)
        rng = np.random.default_rng(31)
        for n_rows in (5, 40, 128):
            block = LmState(*([rng.standard_normal((6, 2, 9, 16)) for _ in range(2)]
                              for _ in range(2)))
            parents, tokens = rng.integers(0, 6, n_rows), rng.integers(4, 221, n_rows)
            _, got = lm_score_rows(params, config, block, parents, tokens)
            for sub in (np.sort(rng.permutation(n_rows)[: n_rows // 3 + 1]), [n_rows - 1]):
                _, again = lm_score_rows(params, config, block, parents[sub], tokens[sub])
                assert np.array_equal(again, got[sub]), (n_rows, len(sub))


class TestPlainArrays:
    def test_build_forward_creates_no_var(self, tiny_config, monkeypatch):
        made = record_var_inits(monkeypatch)
        params = init_params(tiny_config, 0)
        ids = np.array([[BOS_ID, 5, 9, 13], [BOS_ID, 7, 21, 4]])
        out = build_forward(params, ids, tiny_config, want_aux=True)
        assert type(out.log_probs) is np.ndarray
        assert out.log_probs.shape == (2, 4, tiny_config.vocab_size)
        assert not isinstance(out.aux_loss, ad.Var) and np.shape(out.aux_loss) == ()
        _, dist = lm_score_step(params, tiny_config, initial_state(tiny_config), BOS_ID)
        assert type(dist) is np.ndarray
        assert made == []


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
