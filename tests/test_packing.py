"""Sequence packing: segment layout, loss masks, padding accounting."""

import numpy as np
import pytest

from moefusion.packing import pack_batches
from moefusion.tokenizer import BOS_ID, EOS_ID, PAD_ID


def sents(*lists):
    return [list(s) for s in lists]


class TestLayout:
    def test_three_sentences_share_one_row(self):
        batches, stats = pack_batches(
            sents([4, 5, 6], [7, 8, 9], [10, 11, 12]),
            max_seq_len=16, batch_size=1, packing_factor=4, seed=0)
        assert len(batches) == 1
        b = batches[0]
        assert b.tokens.shape == (1, 16)
        row = b.tokens[0]
        # All three fit one row in any order the seed shuffles them into.
        assert {tuple(row[i:i + 5]) for i in (0, 5, 10)} == {
            (BOS_ID, 4, 5, 6, EOS_ID),
            (BOS_ID, 7, 8, 9, EOS_ID),
            (BOS_ID, 10, 11, 12, EOS_ID),
        }
        assert row[15] == PAD_ID
        assert list(b.segment_ids[0][:15]) == [1] * 5 + [2] * 5 + [3] * 5
        assert b.segment_ids[0][15] == 0
        # 4 supervised next-token positions per 5-token segment
        assert b.loss_mask.sum() == 12

    def test_mask_never_crosses_segments(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 10, size=200)
        batches, _ = pack_batches(
            [list(rng.integers(4, 50, size=n)) for n in lengths],
            max_seq_len=32, batch_size=4, seed=1, packing_factor=4)
        for b in batches:
            live = b.segment_ids > 0
            same = b.segment_ids[:, :-1] == b.segment_ids[:, 1:]
            expect = live[:, :-1] & same
            assert np.array_equal(b.loss_mask[:, :-1], expect)
            assert not b.loss_mask[:, -1].any()

    def test_mask_positions_are_countable(self):
        batches, stats = pack_batches(
            sents([4], [5, 6]), max_seq_len=8, batch_size=1, packing_factor=4, seed=0)
        # [BOS 4 EOS] gives 2 positions, [BOS 5 6 EOS] gives 3
        assert sum(b.loss_mask.sum() for b in batches) == 5

    def test_packing_factor_one_gives_one_segment_per_row(self):
        batches, _ = pack_batches(
            sents([4, 5], [6, 7], [8, 9]),
            max_seq_len=16, batch_size=2, packing_factor=1, seed=0)
        for b in batches:
            for row in b.segment_ids:
                assert set(row) <= {0, 1}

    def test_long_sentences_truncated(self):
        batches, stats = pack_batches(
            sents(range(4, 40)), max_seq_len=16, batch_size=1, packing_factor=4, seed=0)
        assert stats.truncated == 1
        row = batches[0].tokens[0]
        assert row[0] == BOS_ID and row[15] == EOS_ID
        assert list(row[1:15]) == list(range(4, 18))

    def test_pad_rows_complete_final_batch(self):
        batches, stats = pack_batches(
            sents([4, 5, 6, 7, 8, 9]), max_seq_len=8, batch_size=4, packing_factor=4, seed=0)
        assert len(batches) == 1
        b = batches[0]
        assert b.tokens.shape == (4, 8)
        assert (b.tokens[1:] == PAD_ID).all()
        assert (b.segment_ids[1:] == 0).all()
        assert not b.loss_mask[1:].any()


class TestStats:
    def test_counts_and_padding_fraction(self):
        batches, stats = pack_batches(
            sents([4, 5, 6], [7, 8, 9]), max_seq_len=8, batch_size=1, packing_factor=4, seed=0)
        assert stats.sentences == 2
        assert stats.truncated == 0
        assert stats.rows == len(batches) * 1
        total = sum(b.tokens.size for b in batches)
        pad = sum((b.tokens == PAD_ID).sum() for b in batches)
        assert stats.padding_fraction == pytest.approx(pad / total)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no sentences"):
            pack_batches([], max_seq_len=8, batch_size=2, packing_factor=4, seed=0)


class TestDeterminism:
    def test_same_seed_same_batches(self):
        data = [[4 + i % 20, 5, 6] for i in range(50)]
        a, _ = pack_batches(data, max_seq_len=16, batch_size=4, seed=7, packing_factor=4)
        b, _ = pack_batches(data, max_seq_len=16, batch_size=4, seed=7, packing_factor=4)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.tokens, y.tokens)
            assert np.array_equal(x.segment_ids, y.segment_ids)
            assert np.array_equal(x.loss_mask, y.loss_mask)

    def test_seed_changes_order(self):
        data = [[4 + i % 20, 5, 6] for i in range(50)]
        a, _ = pack_batches(data, max_seq_len=16, batch_size=4, seed=7, packing_factor=4)
        b, _ = pack_batches(data, max_seq_len=16, batch_size=4, seed=8, packing_factor=4)
        assert any(not np.array_equal(x.tokens, y.tokens)
                   for x, y in zip(a, b))


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            pack_batches(sents([4]), max_seq_len=2, batch_size=1, packing_factor=4, seed=0)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            pack_batches(sents([4]), max_seq_len=8, batch_size=0, packing_factor=4, seed=0)

    def test_empty_sentence_packs_to_bos_eos(self):
        batches, _ = pack_batches(sents([]), max_seq_len=8, batch_size=1, packing_factor=4, seed=0)
        row = batches[0].tokens[0]
        assert list(row[:2]) == [BOS_ID, EOS_ID]
        assert batches[0].loss_mask.sum() == 1
