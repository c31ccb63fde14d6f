"""Fusion decoding: scoring rule, beam vs oracle, lattice IO, decode files."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import helpers
import moefusion.fusion as fusion_mod
from helpers import (
    CountingLm, ModelSource, TableLm, UniformLm, random_lattice,
    reference_select, save_binary_lattice, search,
)
from moefusion.adafactor import AdafactorHyper
from moefusion.errors import NumericError, VocabMismatchError
from moefusion.fusion import (
    DecodeRow, FusionConfig, LatticeSource, CheckpointLmScorer,
    _floor, beam_search_fusion, decode_utterances, exhaustive_oracle,
    load_lattice, read_decodes, save_lattice, write_decodes,
)
from moefusion.model import LmState, MoeLmConfig, lm_forward
from moefusion.tokenizer import BOS_ID, EOS_ID
from moefusion.trainer import train


def one_hot_lattice(tokens, vocab_size, p=0.999):
    """Near-one-hot rows spelling `tokens` then EOS."""
    rows = np.full((len(tokens) + 1, vocab_size),
                   np.log((1 - p) / (vocab_size - 1)))
    for t, tok in enumerate(tokens):
        rows[t, tok] = np.log(p)
    rows[len(tokens), EOS_ID] = np.log(p)
    return rows


class TestScoringRule:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(lam=-1.0)
        with pytest.raises(ValueError):
            FusionConfig(lam=float("nan"))
        with pytest.raises(ValueError):
            FusionConfig(lam=0.0, beam_size=0)
        with pytest.raises(ValueError):
            FusionConfig(lam=0.0, max_len=-1)

    def test_combined_decomposes_exactly(self):
        lm = TableLm.random(12, 7, seed=0)
        for seed in range(10):
            src = LatticeSource(random_lattice(12, 4, seed))
            hyps = search(
                src, lm, FusionConfig(lam=0.37, beam_size=6))
            for h in hyps:
                assert h.tokens[-1] == EOS_ID
                assert abs(h.combined - (h.e2e_logprob + 0.37 * h.lm_logprob)) \
                    <= 1e-9


class TestLatticeSource:
    def test_unnormalized_row_rejected(self):
        bad = random_lattice(8, 3, seed=1)
        bad[1] += 0.25
        with pytest.raises(ValueError, match="row 1"):
            LatticeSource(bad)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LatticeSource(np.zeros((0, 8)))
        with pytest.raises(ValueError):
            LatticeSource(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            LatticeSource(np.zeros(5))

    def test_nan_rejected(self):
        bad = random_lattice(8, 3, seed=2)
        bad[0, 0] = np.nan
        with pytest.raises(NumericError):
            LatticeSource(bad)

    def test_row_index_bounds(self):
        src = LatticeSource(random_lattice(8, 3, seed=3))
        with pytest.raises(ValueError):
            src.rows([()], 3)
        with pytest.raises(ValueError):
            src.rows([()], -1)

    def test_floor_applied(self):
        from moefusion.autodiff import log_softmax
        frames = random_lattice(8, 2, seed=4)
        frames[0, 5] = -1e12  # deep but legal once floored
        frames[0] = log_softmax(frames[0])
        src = LatticeSource(frames)
        assert src.rows([()], 0)[0, 5] == -1e9

    def test_rows_broadcast_the_floored_row(self):
        src = LatticeSource(random_lattice(8, 3, seed=5))
        rows = src.rows([(), (4,), (4, 5)], 1)
        assert rows.shape == (3, 8) and not rows.flags.writeable
        assert np.shares_memory(rows, src.frames)
        assert all(np.array_equal(row, src.rows([()], 1)[0]) for row in rows)
        with pytest.raises(ValueError):
            src.rows([()], 3)


class TestBeamBasics:
    def test_one_hot_lattice_recovered(self):
        tokens = (7, 4, 9)
        src = LatticeSource(one_hot_lattice(tokens, 12))
        best = search(src, None,
                      FusionConfig(lam=0.0, beam_size=4))[0]
        assert best.tokens == tokens + (EOS_ID,)

    def test_lambda_zero_matches_no_lm(self):
        lm = TableLm.random(10, 5, seed=5)
        for seed in range(20):
            src = LatticeSource(random_lattice(10, 4, seed + 100))
            with_lm = search(
                src, lm, FusionConfig(lam=0.0, beam_size=8))
            without = search(
                src, None, FusionConfig(lam=0.0, beam_size=8))
            assert [h.tokens for h in with_lm] == [h.tokens for h in without]
            for a, b in zip(with_lm, without):
                assert a.combined == b.combined

    def test_n_best_sorted_descending(self):
        src = LatticeSource(random_lattice(10, 4, seed=6))
        hyps = search(
            src, TableLm.random(10, 4, seed=6),
            FusionConfig(lam=0.4, beam_size=8))
        assert len(hyps) > 1
        scores = [h.combined for h in hyps]
        assert scores == sorted(scores, reverse=True)
        assert len({h.tokens for h in hyps}) == len(hyps)

    def test_returns_every_finished_hypothesis(self, monkeypatch):
        built = []

        class Counted(fusion_mod.Hypothesis):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(fusion_mod, "Hypothesis", Counted)
        src = LatticeSource(random_lattice(10, 5, seed=10))
        hyps = search(src, TableLm.random(10, 5, seed=10),
                      FusionConfig(lam=0.4, beam_size=4))
        assert len(hyps) == len(built) > 1
        assert sorted(map(id, hyps)) == sorted(map(id, built))
        scores = [h.combined for h in hyps]
        assert scores == sorted(scores, reverse=True)
        assert len({h.tokens for h in hyps}) == len(hyps)

    def test_deterministic_across_calls(self):
        src = LatticeSource(random_lattice(10, 5, seed=7))
        lm = TableLm.random(10, 6, seed=7)
        cfg = FusionConfig(lam=0.25, beam_size=6)
        a = search(src, lm, cfg)
        b = search(src, lm, cfg)
        assert [(h.tokens, h.combined) for h in a] == \
            [(h.tokens, h.combined) for h in b]

    def test_equal_scores_pick_lex_smaller_tokens(self):
        v = 8
        rows = np.full((2, v), LOG_FLOOR := -1e9)
        # tokens 4 and 5 tie exactly at step 0, then EOS
        rows[0, 4] = rows[0, 5] = np.log(0.5)
        rows[1, EOS_ID] = 0.0
        rows[0] -= np.log(np.exp(rows[0]).sum())
        rows[1] -= np.log(np.exp(rows[1]).sum())
        src = LatticeSource(rows)
        best = search(src, None,
                      FusionConfig(lam=0.0, beam_size=4))[0]
        assert best.tokens == (4, EOS_ID)

    def test_forced_eos_at_zero_budget(self):
        src = LatticeSource(random_lattice(10, 4, seed=8))
        best = search(
            src, None, FusionConfig(lam=0.0, beam_size=4, max_len=0))[0]
        assert best.tokens == (EOS_ID,)

    def test_max_len_bounds_content_tokens(self):
        src = LatticeSource(random_lattice(10, 6, seed=9))
        for cap in (1, 2, 3):
            hyps = search(
                src, None, FusionConfig(lam=0.0, beam_size=8, max_len=cap))
            assert all(len(h.tokens) - 1 <= cap for h in hyps)

    def test_length_normalize_changes_ranking(self):
        v = 8
        # plain score prefers stopping at once; per-token score prefers the
        # confident three-step path
        probs = np.full((4, v), 1e-4)
        probs[0, EOS_ID], probs[0, 4] = 0.50, 0.49
        probs[1, 4] = probs[2, 4] = 0.97
        probs[3, EOS_ID] = 0.99
        probs /= probs.sum(axis=1, keepdims=True)
        src = LatticeSource(np.log(probs))
        plain = search(
            src, None, FusionConfig(lam=0.0, beam_size=8))[0]
        normed = search(
            src, None, FusionConfig(lam=0.0, beam_size=8,
                                    length_normalize=True))[0]
        assert plain.tokens == (EOS_ID,)
        assert normed.tokens == (4, 4, 4, EOS_ID)

    def test_uniform_lm_never_changes_argmax(self):
        # a constant per-token LM penalty shifts scores monotonically in length
        lm = UniformLm(10)
        for seed in range(10):
            src = LatticeSource(random_lattice(10, 3, seed + 300))
            with_lm = search(
                src, lm, FusionConfig(lam=0.2, beam_size=16))[0]
            oracle = exhaustive_oracle(src, lm, 0.2, max_len=2)
            assert with_lm.tokens == oracle.tokens


class TestOracleAgreement:
    def test_wide_beam_matches_oracle_on_lattices(self):
        lm = TableLm.random(8, 6, seed=10)
        for seed in range(25):
            src = LatticeSource(random_lattice(8, 4, seed + 500))
            beam = search(
                src, lm, FusionConfig(lam=0.3, beam_size=64))[0]
            oracle = exhaustive_oracle(src, lm, 0.3, max_len=3)
            assert beam.tokens == oracle.tokens, seed
            assert beam.combined == pytest.approx(oracle.combined, abs=1e-12)

    def test_narrow_beam_never_beats_oracle(self):
        lm = TableLm.random(8, 5, seed=11)
        for seed in range(25):
            src = LatticeSource(random_lattice(8, 4, seed + 700))
            beam = search(
                src, lm, FusionConfig(lam=0.5, beam_size=2))[0]
            oracle = exhaustive_oracle(src, lm, 0.5, max_len=3)
            assert beam.combined <= oracle.combined + 1e-12

    def test_oracle_space_guard(self):
        src = LatticeSource(random_lattice(16, 8, seed=12))
        with pytest.raises(ValueError, match="1e"):
            exhaustive_oracle(src, None, 0.0, max_len=6)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_oracle_rejects_non_finite_lam_before_scoring(self, lam):
        lm = CountingLm(TableLm.random(6, 4, seed=13))
        with pytest.raises(ValueError, match="lam must be finite"):
            exhaustive_oracle(LatticeSource(random_lattice(6, 3, seed=13)), lm, lam, max_len=2)
        assert lm.starts == 0 and lm.blocks == 0


class NanSource:
    """Prefix-dependent source over a lattice; its rows at step `at` hold a NaN."""

    def __init__(self, frames, at):
        self.frames = np.asarray(frames)
        self.vocab_size = self.frames.shape[1]
        self.max_steps = self.frames.shape[0]
        self.at = at

    def rows(self, prefixes, t):
        block = np.stack([np.roll(self.frames[t], sum(p)) for p in prefixes])
        if t == self.at:
            block[:, EOS_ID] = np.nan
        return _floor(block)


class NanLm:
    """Wraps a scorer; the second row it advances holds a NaN."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.advanced = 0

    def start_rows(self):
        return self.inner.start_rows()

    def advance_rows(self, block, parents, tokens):
        block, rows = self.inner.advance_rows(block, parents, tokens)
        if self.advanced < 2 <= self.advanced + len(rows):
            rows = rows.copy()
            rows[1 - self.advanced, 5] = np.nan
        self.advanced += len(rows)
        return block, rows


NAN_CONFIGS = [
    [FusionConfig(lam=0.3, beam_size=4)],
    [FusionConfig(lam=0.0, beam_size=4), FusionConfig(lam=0.5, beam_size=2, max_len=3)],
]


class TestNanGuards:
    """A NaN from a custom source or scorer mid-search raises NumericError."""

    @pytest.mark.parametrize("configs", NAN_CONFIGS)
    def test_source_nan_at_step_two(self, configs):
        src = NanSource(random_lattice(10, 6, seed=60), at=2)
        with pytest.raises(NumericError):
            beam_search_fusion([(src, c) for c in configs], TableLm.random(10, 5, seed=60))
        with pytest.raises(NumericError):
            beam_search_fusion([(src, c) for c in configs], None)

    @pytest.mark.parametrize("configs", NAN_CONFIGS)
    def test_scorer_nan_on_second_advance(self, configs):
        src = LatticeSource(random_lattice(10, 6, seed=61))
        with pytest.raises(NumericError):
            beam_search_fusion([(src, c) for c in configs], NanLm(TableLm.random(10, 5, seed=61)))

    def test_oracle_raises(self):
        lm = TableLm.random(8, 5, seed=62)
        with pytest.raises(NumericError):
            exhaustive_oracle(NanSource(random_lattice(8, 4, seed=62), at=2),
                              lm, 0.3, max_len=3)
        with pytest.raises(NumericError):
            exhaustive_oracle(LatticeSource(random_lattice(8, 4, seed=62)),
                              NanLm(lm), 0.3, max_len=3)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    cfg = MoeLmConfig(num_layers=2, model_dim=16, num_heads=2, head_dim=8,
                      num_experts=4, experts_per_token=2, vocab_size=8,
                      max_seq_len=12)
    rng = np.random.default_rng(13)
    data = [list(rng.integers(4, 8, size=rng.integers(2, 6)))
            for _ in range(40)]
    ckpt, _ = train(data, cfg,
                    AdafactorHyper(learning_rate=0.05, warmup_steps=5, lr_schedule="inverse_sqrt"),
                    steps=10, seed=0, batch_size=4, packing_factor=4,
                    checkpoint_dir=tmp_path_factory.mktemp("lm"))
    return ckpt


class TestModelSource:
    def test_rows_are_pure(self, trained):
        src = ModelSource(trained)
        a = src.rows([(4, 5)], 2)[0].copy()
        src.rows([(4, 6)], 2)
        b = src.rows([(4, 5)], 2)[0]
        assert np.array_equal(a, b)

    def test_rows_are_one_row_steps_scored_one_block_per_call(self, trained, monkeypatch):
        blocks = []
        real = helpers.lm_score_rows
        monkeypatch.setattr(helpers, "lm_score_rows",
                            lambda *a: blocks.append(len(a[4])) or real(*a))
        src = ModelSource(trained)
        scorer = CheckpointLmScorer(trained)
        # A call's new prefixes, deduplicated, make one block, whose parents
        # may sit in the blocks of several earlier calls; an unseen parent is
        # scored first, in a block of its own; memo hits score nothing.
        for prefixes, want in [([(4,), (5,), (6,)], [3]),
                               ([(4, 7), (6, 4), (4, 5), (4, 7)], [3]),
                               ([(5, 5), (4, 5)], [1]),
                               ([(4, 7, 6), (5, 5, 4), (6, 4, 4)], [3]),
                               ([(7, 7)], [1, 1]),
                               ([(6, 4), (7, 7)], [])]:
            blocks.clear()
            rows = src.rows(prefixes, len(prefixes[0]))
            assert blocks == want
            for prefix, row in zip(prefixes, rows):
                assert np.array_equal(row, _floor(score_alone(scorer, prefix)))

    def test_wrong_time_index_rejected(self, trained):
        src = ModelSource(trained)
        with pytest.raises(ValueError, match="prefix"):
            src.rows([(4, 5)], 1)

    def test_context_exhaustion(self, trained):
        src = ModelSource(trained)
        prefix = tuple([4] * src.max_steps)
        with pytest.raises(ValueError, match="exhausted"):
            src.rows([prefix], len(prefix))

    def test_beam_matches_oracle_on_model_source(self, trained):
        for lam in (0.0, 0.4):
            src = ModelSource(trained)
            beam = search(
                src, TableLm.random(8, 4, seed=14),
                FusionConfig(lam=lam, beam_size=64, max_len=3))[0]
            src2 = ModelSource(trained)
            oracle = exhaustive_oracle(src2, TableLm.random(8, 4, seed=14),
                                       lam, max_len=3)
            assert beam.tokens == oracle.tokens

    def test_scorer_rows_match_full_forward(self, trained):
        scorer = CheckpointLmScorer(trained)
        ids = [4, 5, 6, 7]
        rows = lm_forward(trained.tensors, [BOS_ID] + ids, trained.config)
        block, dist = scorer.start_rows()
        assert np.abs(dist - rows[0]).max() < 1e-6
        for i, tok in enumerate(ids):
            block, dist = scorer.advance_rows(block, np.array([0]), np.array([tok]))
            assert dist.shape == (1, 8)
            assert np.abs(dist[0] - rows[i + 1]).max() < 1e-6

    def test_vocab_mismatch_detected(self, trained):
        src = LatticeSource(random_lattice(12, 3, seed=15))
        with pytest.raises(VocabMismatchError):
            search(src, CheckpointLmScorer(trained),
                   FusionConfig(lam=0.1, beam_size=4))


def score_alone(scorer, prefix):
    """The row after `prefix`, scored in one-row blocks from a fresh start."""
    block, row = scorer.start_rows()
    for tok in prefix:
        block, rows = scorer.advance_rows(block, np.array([0]), np.array([tok]))
        row = rows[0]
    return row


SCORERS = {"checkpoint": CheckpointLmScorer,
           "table": lambda ckpt: TableLm.random(8, 7, seed=80),
           "uniform": lambda ckpt: UniformLm(8)}


def block_arrays(block):
    """The arrays a scorer's block holds (a TableLm block is one array)."""
    if isinstance(block, LmState):
        return block.keys + block.values
    return [] if block is None else [block]


class TestScorerProtocol:
    """The two block calls every scorer implements, checked alike."""

    @pytest.mark.parametrize("kind", sorted(SCORERS))
    def test_block_rows_equal_children_scored_alone(self, kind, trained):
        make = lambda: SCORERS[kind](trained)  # noqa: E731
        scorer, tol = make(), 1e-12 if kind == "checkpoint" else 0.0
        block, _ = scorer.start_rows()
        prefixes = [()]
        # one parent to four rows, then parents that repeat (3), skip (2)
        # and come out of order, then a block of one row
        for parents, tokens in (([0, 0, 0, 0], [4, 5, 6, 7]),
                                ([3, 1, 3, 0, 1], [4, 6, 5, 7, 6]),
                                ([2], [5])):
            parents, tokens = np.array(parents), np.array(tokens)
            block, rows = scorer.advance_rows(block, parents, tokens)
            assert rows.shape == (len(tokens), 8)
            prefixes = [prefixes[p] + (t,) for p, t in zip(parents.tolist(), tokens.tolist())]
            for prefix, row in zip(prefixes, rows):
                assert np.abs(row - score_alone(make(), prefix)).max() <= tol, prefix

    @pytest.mark.parametrize("kind", sorted(SCORERS))
    def test_blocks_are_values(self, kind, trained):
        """Advancing never changes a block: b1, advanced again after b2 and
        b3 exist, gives b2's rows bit for bit and still holds what it held."""
        scorer = SCORERS[kind](trained)
        b0, _ = scorer.start_rows()
        b1, _ = scorer.advance_rows(b0, np.array([0, 0]), np.array([4, 5]))
        held = [a.copy() for a in block_arrays(b1)]
        step = np.array([1, 0, 1]), np.array([6, 7, 4])
        b2, rows = scorer.advance_rows(b1, *step)
        scorer.advance_rows(b2, np.array([2, 0]), np.array([5, 6]))  # b3
        _, again = scorer.advance_rows(b1, *step)
        assert np.array_equal(again, rows)
        assert len(held) == len(block_arrays(b1))
        assert all(np.array_equal(a, b) for a, b in zip(block_arrays(b1), held))

    def test_oracle_scores_one_block_per_level_in_lex_order(self):
        v, max_len = 6, 3
        lm = CountingLm(TableLm.random(v, 5, seed=81))
        exhaustive_oracle(LatticeSource(random_lattice(v, 5, seed=81)), lm, 0.3, max_len)
        content = [tok for tok in range(v) if tok != EOS_ID]
        assert lm.starts == 1 and lm.blocks == max_len
        assert lm.advanced == [prefix for d in range(1, max_len + 1)
                               for prefix in itertools.product(content, repeat=d)]

    def test_oracle_lm_budget_refuses_before_scoring(self, trained, monkeypatch):
        c, scorer = trained.config, CheckpointLmScorer(trained)
        cell = 16 * c.num_layers * c.num_heads * c.head_dim  # one row's KV, one position
        budget = 7 * (8 * 8 + 2 * cell)  # max_len=1: 7 LM rows over V = 8, 2 positions
        monkeypatch.setattr(fusion_mod, "ORACLE_LM_BYTES", budget)
        src = LatticeSource(random_lattice(8, 4, seed=82))
        exhaustive_oracle(src, scorer, 0.3, max_len=1)
        with pytest.raises(ValueError, match=f"49 LM rows needs {49 * (64 + 3 * cell)} "
                           f"bytes, over the {budget}-byte budget"):
            exhaustive_oracle(src, scorer, 0.3, max_len=2)
        # a scorer without a checkpoint config is charged its LM rows only
        monkeypatch.setattr(fusion_mod, "ORACLE_LM_BYTES", 48 * 64)
        lm = CountingLm(TableLm.random(8, 4, seed=82))
        with pytest.raises(ValueError, match=f"needs {49 * 64} bytes"):
            exhaustive_oracle(src, lm, 0.3, max_len=2)
        assert lm.starts == 0 and lm.blocks == 0
        # the beam is not capped: 64 rows of 4 positions decode as before
        search(src, scorer, FusionConfig(lam=0.3, beam_size=64))

    def test_default_config_oracle_is_refused(self):
        # V = 16,384: the first level would hold 2.1 GB of LM rows and a
        # 4.8 GB KV block; the refusal comes before start_rows (no tensors).
        config = MoeLmConfig()
        scorer = CheckpointLmScorer(SimpleNamespace(tensors={}, config=config))
        src = LatticeSource(np.full((2, config.vocab_size), -np.log(config.vocab_size)))
        with pytest.raises(ValueError, match="16383 LM rows needs 6978895872 bytes"):
            exhaustive_oracle(src, scorer, 0.3, max_len=1)


def sweep_configs(rng, lam_pool=(0.0, 0.15, 0.3, 0.3, 0.8, 2.0)):
    """2-6 configs differing in every field; lam includes 0 and repeats."""
    configs = []
    for _ in range(int(rng.integers(2, 7))):
        beam = int(rng.integers(1, 9))
        configs.append(FusionConfig(
            lam=float(rng.choice(lam_pool)), beam_size=beam,
            max_len=None if rng.random() < 0.5 else int(rng.integers(0, 6)),
            length_normalize=bool(rng.random() < 0.5),
        ))
    return configs


class TestLockstepSearch:
    """Several configs in one search equal one search per config, exactly."""

    def test_matches_per_config_search_on_random_lattices(self):
        rng = np.random.default_rng(41)
        seen_lams = []
        for seed in range(60):
            v = int(rng.integers(6, 14))
            src = LatticeSource(random_lattice(v, int(rng.integers(2, 8)), seed + 900))
            lm = TableLm.random(v, int(rng.integers(3, 12)), seed=seed)
            configs = sweep_configs(rng)
            seen_lams += [c.lam for c in configs]
            together = beam_search_fusion([(src, c) for c in configs], lm)
            assert together == [search(src, lm, c) for c in configs], seed
            assert all(len(h) >= 1 for h in together)
        assert 0.0 in seen_lams and len(seen_lams) > len(set(seen_lams))

    def test_matches_per_config_search_without_lm(self):
        rng = np.random.default_rng(42)
        for seed in range(10):
            src = LatticeSource(random_lattice(9, 5, seed + 950))
            configs = sweep_configs(rng)
            assert beam_search_fusion([(src, c) for c in configs], None) == \
                [search(src, None, c) for c in configs]

    def test_matches_per_config_search_with_checkpoint(self, trained):
        # Exact equality needs a row's LM value not to depend on the rows
        # scored with it. lm_score_rows runs every product on two rows or
        # more, so this holds while BLAS gemm rounds a row alike for any
        # row count >= 2; this test and the row-subset check in
        # test_model.py::TestScoreStep::test_block_matches_one_row_steps
        # check that for the BLAS at hand.
        rng, lm = np.random.default_rng(43), CheckpointLmScorer(trained)
        for seed in range(4):
            src = LatticeSource(random_lattice(8, 11, seed + 970))
            configs = sweep_configs(rng)
            assert beam_search_fusion([(src, c) for c in configs], lm) == \
                [search(src, lm, c) for c in configs]

    def test_matches_per_config_search_on_model_source(self, trained):
        rng = np.random.default_rng(44)
        lm = TableLm.random(8, 5, seed=44)
        configs = sweep_configs(rng)
        model = ModelSource(trained)
        together = beam_search_fusion([(model, c) for c in configs], lm)
        assert together == [search(ModelSource(trained), lm, c) for c in configs]

    def test_lm_advances_once_per_distinct_prefix(self):
        rng = np.random.default_rng(45)
        for seed in range(20):
            src = LatticeSource(random_lattice(10, 6, seed + 990))
            table = TableLm.random(10, 7, seed=seed)
            configs = sweep_configs(rng)
            shared = CountingLm(table)
            beam_search_fusion([(src, c) for c in configs], shared)
            alone = [CountingLm(table) for _ in configs]
            for lm, c in zip(alone, configs):
                search(src, lm, c)
                # a single beam never holds the same prefix twice
                assert len(set(lm.advanced)) == len(lm.advanced)
            assert shared.starts == 1
            assert len(set(shared.advanced)) == len(shared.advanced)
            assert set(shared.advanced) == set().union(*(lm.advanced for lm in alone))
            # one LM call per step: each scores the prefixes of one length
            assert shared.blocks == len({len(p) for p in shared.advanced})

    def test_repeated_config_costs_nothing_extra(self):
        src = LatticeSource(random_lattice(10, 6, seed=46))
        cfg = FusionConfig(lam=0.3, beam_size=8)
        once, thrice = CountingLm(TableLm.random(10, 7, 46)), CountingLm(TableLm.random(10, 7, 46))
        search(src, once, cfg)
        beam_search_fusion([(src, cfg)] * 3, thrice)
        assert thrice.advanced == once.advanced and thrice.starts == 1

    def test_decode_utterances_takes_a_list(self, tmp_path, synth_pipeline):
        vocab = synth_pipeline["vocab"]
        for i in range(3):
            save_lattice(random_lattice(vocab.size, 5, seed=47 + i), tmp_path / f"u{i}.lat")
        lm = TableLm.random(vocab.size, 9, seed=47)
        configs = [FusionConfig(lam=lam, beam_size=4) for lam in (0.0, 0.5, 2.0)]
        together = decode_utterances(tmp_path, lm, configs, vocab)
        assert together == [decode_utterances(tmp_path, lm, [c], vocab)[0] for c in configs]


def utterance_jobs(rng, v, seed, max_rows=12):
    """Jobs over 2-5 lattices of 1 to max_rows rows, each lattice under 1-3
    configs that differ in every field."""
    sources, configs = [], []
    for i in range(int(rng.integers(2, 6))):
        src = LatticeSource(random_lattice(v, int(rng.integers(1, max_rows + 1)), seed * 10 + i))
        for c in sweep_configs(rng)[:int(rng.integers(1, 4))]:
            sources.append(src)
            configs.append(c)
    return sources, configs


class TestLockstepUtterances:
    """Jobs over different sources in one search equal one search per job,
    exactly; the LM's rows then come from several utterances per step."""

    @staticmethod
    def assert_lone_searches_match(sources, lm, configs):
        together = beam_search_fusion(list(zip(sources, configs)), lm)
        assert together == [search(s, lm, c) for s, c in zip(sources, configs)]

    def test_table_lm(self):
        rng = np.random.default_rng(1300)
        for seed in range(30):
            v = int(rng.integers(6, 14))
            sources, configs = utterance_jobs(rng, v, seed)
            self.assert_lone_searches_match(sources, TableLm.random(v, 9, seed=seed), configs)

    def test_without_lm(self):
        rng = np.random.default_rng(1301)
        for seed in range(10):
            sources, configs = utterance_jobs(rng, 9, seed + 100)
            self.assert_lone_searches_match(sources, None, configs)

    def test_checkpoint(self, trained):
        # Every row of a step sits at one position, so the rows of several
        # utterances share one lm_score_rows call (see the row-count note in
        # TestLockstepSearch.test_matches_per_config_search_with_checkpoint).
        rng = np.random.default_rng(1302)
        for seed in range(4):
            sources, configs = utterance_jobs(rng, trained.config.vocab_size, seed + 200)
            self.assert_lone_searches_match(sources, CheckpointLmScorer(trained), configs)

    def test_model_source_among_lattices(self, trained):
        rng = np.random.default_rng(1303)
        sources, configs = utterance_jobs(rng, trained.config.vocab_size, 300, max_rows=8)
        model = ModelSource(trained)
        sources += [model, model]
        configs += [FusionConfig(lam=0.3, beam_size=3, max_len=4),
                    FusionConfig(lam=0.0, beam_size=2, max_len=6)]
        self.assert_lone_searches_match(sources, TableLm.random(8, 5, seed=303), configs)

    def test_jobs_must_pair_and_share_a_vocab(self):
        cfg = FusionConfig(lam=0.3)
        a, b = LatticeSource(random_lattice(8, 4, seed=1)), LatticeSource(random_lattice(9, 4, 2))
        with pytest.raises(VocabMismatchError):
            beam_search_fusion([(a, cfg), (b, cfg)], None)


class TestDecodeBatches:
    def test_batches_keep_order_and_budget(self):
        assert fusion_mod._batches([5, 20, 3, 3, 3, 9], 10) == [[0], [1], [2, 3, 4], [5]]
        assert fusion_mod._batches([4, 4], 0) == [[0], [1]]
        assert fusion_mod._batches([], 10) == []

    def test_utterance_over_budget_runs_alone(self, tmp_path, synth_pipeline, monkeypatch):
        vocab, ckpt = synth_pipeline["vocab"], synth_pipeline["checkpoint"]
        rows = {"a": 3, "b": 4, "c": 40, "d": 5, "e": 6, "f": 7}
        for name, n in rows.items():
            save_lattice(random_lattice(vocab.size, n, seed=n), tmp_path / f"{name}.lat")
        cfg = FusionConfig(lam=0.3, beam_size=2)
        cost = {name: fusion_mod._search_bytes(
            LatticeSource(load_lattice(tmp_path / f"{name}.lat")), [cfg], ckpt.config)
            for name in rows}
        name_of = {n: name for name, n in rows.items()}
        searches = []
        real = fusion_mod.beam_search_fusion
        monkeypatch.setattr(fusion_mod, "beam_search_fusion",
                            lambda jobs, lm: searches.append(jobs) or real(jobs, lm))
        lm = CheckpointLmScorer(ckpt)
        alone = decode_utterances(tmp_path, lm, [cfg], vocab)
        for budget, want in ((cost["c"] - 1, [["a", "b"], ["c"], ["d", "e", "f"]]),
                             (cost["a"] + cost["b"], [["a", "b"], ["c"], ["d"], ["e"], ["f"]])):
            monkeypatch.setattr(fusion_mod, "DECODE_BATCH_BYTES", budget)
            searches.clear()
            assert decode_utterances(tmp_path, lm, [cfg], vocab) == alone
            batches = [[name_of[s.max_steps] for s, _ in jobs] for jobs in searches]
            assert batches == want
            assert all(sum(cost[n] for n in b) <= budget for b in batches if len(b) > 1)


def test_default_batches_stay_under_the_row_invariance_bound(synth_pipeline, monkeypatch):
    """Lockstep decodes equal lone searches bit for bit only while every LM
    product stays under about 1e6 multiply-adds (ROADMAP item 14): with
    OpenBLAS, head rows at d=32, V=221 differ from 142 rows on. At the
    default DECODE_BATCH_BYTES, a 6-lambda sweep of the synthetic task keeps
    its largest advance_rows block under that; raising the budget past it
    fails here until rows are batch-invariant at every count."""
    blocks = []
    real_advance = CheckpointLmScorer.advance_rows
    monkeypatch.setattr(CheckpointLmScorer, "advance_rows",
                        lambda self, block, parents, tokens: blocks.append(len(tokens))
                        or real_advance(self, block, parents, tokens))
    config = synth_pipeline["config"]
    decode_utterances(synth_pipeline["paths"].lattice_dir,
                      CheckpointLmScorer(synth_pipeline["checkpoint"]),
                      [FusionConfig(lam=lam) for lam in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)],
                      synth_pipeline["vocab"])
    assert max(blocks) * config.model_dim * config.vocab_size < 1e6


def test_batched_decode_makes_one_lm_call_per_step_per_batch(synth_pipeline, monkeypatch):
    """A work count that needs no timing: a batch makes one advance_rows call
    per step of its longest lattice, not one per step of each utterance, so
    a fall-back to one search per utterance fails here on any host."""
    searches, calls = [], []
    real_search = fusion_mod.beam_search_fusion
    monkeypatch.setattr(fusion_mod, "beam_search_fusion",
                        lambda jobs, lm: searches.append([s for s, _ in jobs])
                        or real_search(jobs, lm))
    real_advance = CheckpointLmScorer.advance_rows
    monkeypatch.setattr(CheckpointLmScorer, "advance_rows",
                        lambda self, *a: calls.append(1) or real_advance(self, *a))
    paths = synth_pipeline["paths"]
    decode_utterances(paths.lattice_dir, CheckpointLmScorer(synth_pipeline["checkpoint"]),
                      [FusionConfig(lam=0.3, beam_size=4)], synth_pipeline["vocab"])
    longest = [max(s.max_steps for s in jobs) - 1 for jobs in searches]
    per_utterance = [s.max_steps - 1 for jobs in searches for s in jobs]
    assert len(per_utterance) == len(list(paths.lattice_dir.glob("*.lat"))) == 60
    assert len(calls) == sum(longest)
    assert (len(searches), len(calls), sum(per_utterance)) == (4, 24, 310)


def random_block(rng, kind):
    """A (B, V) block of fused scores of one kind, and B and V."""
    b, v = int(rng.integers(1, 11)), int(rng.integers(4, 31))
    x = rng.standard_normal((b, v)) * 3 - 20
    if kind == "quantised":  # few distinct values: many exact ties at the cut
        x = np.round(x / 4)
    elif kind == "equal":
        x = np.full((b, v), -7.5)
    elif kind == "nonfinite":
        x[rng.random((b, v)) < 0.3] = -np.inf
        x[rng.random((b, v)) < 0.05] = np.inf
        x[rng.random((b, v)) < 0.05] = np.nan
    elif kind == "sparse":  # fewer finite candidates than most beams
        x[rng.random((b, v)) < 0.95] = -np.inf
    return x, b, v


class TestSelect:
    """_select keeps the survivors, and their order, of a full lexsort."""

    @pytest.mark.parametrize("seed,kind", enumerate(["continuous", "quantised", "equal",
                                                     "nonfinite", "sparse"]))
    def test_matches_full_lexsort_on_random_blocks(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            x, b, v = random_block(rng, kind)
            # beam_size from 1 to past B * V
            for beam in {1, int(rng.integers(1, b * v + 4)), b * v, b * v + 3}:
                got = fusion_mod._select(x.ravel(), beam)
                want = reference_select(x.ravel(), beam)
                np.testing.assert_array_equal(got, want)

    def test_ties_at_the_cut_keep_the_smaller_indices(self):
        flat = np.array([-1.0, -2.0, -2.0, -3.0, -2.0, -2.0, -1.0])
        np.testing.assert_array_equal(fusion_mod._select(flat, 4), [0, 1, 2, 6])
        assert fusion_mod._select(np.full(5, -np.inf), 3).size == 0

    def test_eos_column_matches_masked_full_block(self):
        # The last step reads the EOS column alone; it must pick what a
        # selection over the whole block with every other column at -inf picks.
        rng = np.random.default_rng(7)
        for kind in ("continuous", "quantised", "equal", "nonfinite") * 50:
            x, b, v = random_block(rng, kind)
            beam = int(rng.integers(1, b + 3))
            masked = x.copy()
            masked[:, np.arange(v) != EOS_ID] = -np.inf
            got = fusion_mod._select(x[:, EOS_ID], beam) * v + EOS_ID
            np.testing.assert_array_equal(got, reference_select(masked.ravel(), beam))

    @pytest.mark.parametrize("seed,case", enumerate(["uniform", "quantised", "random"]))
    def test_searches_match_full_lexsort(self, seed, case, monkeypatch):
        rng = np.random.default_rng(seed)
        runs = []
        for i in range(20):
            v, t = int(rng.integers(5, 12)), int(rng.integers(2, 7))
            if case == "uniform":  # every candidate of a step ties
                src, lm = LatticeSource(np.full((t, v), -np.log(v))), UniformLm(v)
            else:
                lat = random_lattice(v, t, i + 1100)
                if case == "quantised":
                    lat = np.log(np.round(np.exp(lat) * 4) + 1)
                    lat -= np.log(np.exp(lat).sum(axis=1, keepdims=True))
                src, lm = LatticeSource(lat), TableLm.random(v, 5, seed=i)
            configs = sweep_configs(rng, lam_pool=(0.0, 0.5, 1.0))
            runs.append(([(src, c) for c in configs], lm))
        fast = [beam_search_fusion(*run) for run in runs]
        monkeypatch.setattr(fusion_mod, "_select", reference_select)
        assert fast == [beam_search_fusion(*run) for run in runs]

    def test_lexsort_sees_only_the_candidates_at_the_cut(self, monkeypatch):
        # At the benchmark's shape (beam 8, V = 221) with continuous scores
        # no two candidates tie, so each step sorts exactly the survivors:
        # a full sort of the B * V block must not come back.
        sizes = []
        real = np.lexsort
        monkeypatch.setattr(fusion_mod.np, "lexsort",
                            lambda keys: sizes.append(len(keys[0])) or real(keys))
        src = LatticeSource(random_lattice(221, 12, seed=1200))
        beam_search_fusion([(src, FusionConfig(lam=lam, beam_size=8)) for lam in (0.0, 0.6)],
                           TableLm.random(221, 9, seed=1200))
        assert len(sizes) >= 20 and max(sizes) == 8


class TestLatticeFiles:
    def test_text_round_trip_exact(self, tmp_path):
        frames = random_lattice(10, 5, seed=16)
        save_lattice(frames, tmp_path / "a.lat")
        back = load_lattice(tmp_path / "a.lat")
        assert np.array_equal(back, frames)

    def test_binary_round_trip_close(self, tmp_path):
        frames = random_lattice(10, 5, seed=17)
        save_binary_lattice(frames, tmp_path / "a.lat")
        back = load_lattice(tmp_path / "a.lat")
        assert back.shape == frames.shape
        assert np.abs(back - frames).max() < 1e-6

    def test_binary_detected_by_magic(self, tmp_path):
        frames = random_lattice(6, 4, seed=18)
        save_lattice(frames, tmp_path / "t.lat")
        save_binary_lattice(frames, tmp_path / "b.lat")
        assert (tmp_path / "b.lat").read_bytes()[:6] == b"latb1\n"
        assert (tmp_path / "t.lat").read_text().startswith("lat1 4 6")

    def test_text_header_errors(self, tmp_path):
        p = tmp_path / "x.lat"
        p.write_text("nope 1 2\n0 0\n")
        with pytest.raises(ValueError, match="header"):
            load_lattice(p)
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_lattice(p)
        p.write_text("lat1 3 4\n0 0 0 0\n")
        with pytest.raises(ValueError, match="rows"):
            load_lattice(p)
        p.write_text("lat1 1 4\n0 0 0\n")
        with pytest.raises(ValueError, match="values"):
            load_lattice(p)

    def test_binary_payload_error(self, tmp_path):
        p = tmp_path / "x.lat"
        save_binary_lattice(random_lattice(6, 4, seed=19), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-4])
        with pytest.raises(ValueError, match="payload"):
            load_lattice(p)


class TestDecodeFiles:
    def test_round_trip(self, tmp_path):
        rows = [
            DecodeRow("utt1", "hello there", -1.25, -3.5, -2.3),
            DecodeRow("utt2", "", -0.5, 0.0, -0.5),
        ]
        write_decodes(rows, tmp_path / "d.tsv")
        back = read_decodes(tmp_path / "d.tsv")
        assert [r.utt_id for r in back] == ["utt1", "utt2"]
        assert back[0].text == "hello there"
        assert back[0].e2e_logprob == pytest.approx(-1.25)
        assert back[1].combined == pytest.approx(-0.5)

    def test_malformed_line_rejected(self, tmp_path):
        (tmp_path / "d.tsv").write_text("utt1\tonly-two\n")
        with pytest.raises(ValueError, match="columns"):
            read_decodes(tmp_path / "d.tsv")

    def test_undecodable_byte_names_the_file(self, tmp_path):
        (tmp_path / "d.tsv").write_bytes(b"utt1\t\xff\t-1.0\t-2.0\t-3.0\n")
        with pytest.raises(ValueError, match=r"d\.tsv: not UTF-8"):
            read_decodes(tmp_path / "d.tsv")

    def test_directory_decode_sorted(self, tmp_path, synth_pipeline):
        vocab = synth_pipeline["vocab"]
        rng = np.random.default_rng(20)
        for name in ("b-utt", "a-utt", "c-utt"):
            ids = rng.integers(4, vocab.size, size=3)
            save_lattice(one_hot_lattice(tuple(ids), vocab.size),
                         tmp_path / f"{name}.lat")
        (rows,) = decode_utterances(tmp_path, None,
                                    [FusionConfig(lam=0.0, beam_size=4)], vocab)
        assert [r.utt_id for r in rows] == ["a-utt", "b-utt", "c-utt"]

    def test_directory_without_lattices(self, tmp_path, synth_pipeline):
        with pytest.raises(FileNotFoundError):
            decode_utterances(tmp_path, None,
                              [FusionConfig(lam=0.0, beam_size=4)],
                              synth_pipeline["vocab"])

    def test_directory_vocab_mismatch(self, tmp_path, synth_pipeline):
        save_lattice(random_lattice(9, 3, seed=21), tmp_path / "u.lat")
        with pytest.raises(VocabMismatchError):
            decode_utterances(tmp_path, None,
                              [FusionConfig(lam=0.0, beam_size=4)],
                              synth_pipeline["vocab"])
