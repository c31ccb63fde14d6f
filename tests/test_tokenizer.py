"""Vocabulary induction, greedy encoding, round trips, and file formats."""

import numpy as np
import pytest

from moefusion.errors import VocabMismatchError
from moefusion.tokenizer import (
    BOS_ID, EOS_ID, PAD_ID, UNK_ID, WORD_SEP,
    Vocab, decode_text, encode, read_corpus, read_manifest,
    train_wordpiece,
)


def test_reserved_ids_are_fixed():
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)


def test_single_letter_corpus_merges_pairs():
    # corpus "aaaa", room for exactly two non-reserved pieces
    vocab = train_wordpiece(["aaaa"], 6)
    assert vocab.pieces == ["<pad>", "<s>", "</s>", "<unk>", "a", "aa"]


def test_merge_tiebreak_is_lexicographic():
    # pairs (a,b), (c,d) and (sep,c) all occur twice; "ab" is the smallest
    # merged string and must win the first merge slot
    vocab = train_wordpiece(["ab cd ab cd"], 10)
    assert vocab.pieces[-1] == "ab"


def test_round_trip():
    corpus = ["hello world", "hello there world"]
    vocab = train_wordpiece(corpus, 64)
    for text in corpus + ["world hello", "there there"]:
        seq = encode(text, vocab)
        assert decode_text(seq.ids, vocab) == text


def test_training_is_deterministic():
    corpus = ["the cat sat", "the dog sat", "a cat ran"]
    v1 = train_wordpiece(corpus, 48)
    v2 = train_wordpiece(corpus, 48)
    assert v1.pieces == v2.pieces


def test_encode_greedy_prefers_longest():
    vocab = train_wordpiece(["abab abab abab"], 16)
    assert "abab" in vocab.piece_to_id
    seq = encode("abab", vocab)
    assert seq.ids == [vocab.piece_to_id["abab"]]


def test_unknown_span_collapses_to_single_unk():
    vocab = train_wordpiece(["ab ab"], 12)
    seq = encode("a!!b", vocab)
    a, b = vocab.piece_to_id["a"], vocab.piece_to_id["b"]
    assert seq.ids == [a, UNK_ID, b]
    # two separate unknown spans give two UNKs
    seq2 = encode("a!b!a", vocab)
    assert seq2.ids == [a, UNK_ID, b, UNK_ID, a]


def test_unk_decodes_as_literal():
    vocab = train_wordpiece(["ab"], 12)
    assert decode_text([UNK_ID], vocab) == "<unk>"


def test_ids_always_in_range():
    corpus = ["some words here", "more words there"]
    vocab = train_wordpiece(corpus, 96)
    rng = np.random.default_rng(0)
    words = "some words here more there unknownzz".split()
    for _ in range(50):
        text = " ".join(rng.choice(words, size=4))
        for i in encode(text, vocab).ids:
            assert 0 <= i < vocab.size
            assert i == UNK_ID or i >= 4


def test_vocab_size_must_fit_alphabet():
    with pytest.raises(ValueError, match="alphabet"):
        train_wordpiece(["abcdefgh"], 8)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_wordpiece([], 16)
    with pytest.raises(ValueError):
        train_wordpiece(["   ", ""], 16)


def test_word_marker_only_on_later_words():
    vocab = train_wordpiece(["aa bb", "bb aa"], 24)
    seq = encode("aa bb", vocab)
    text = decode_text(seq.ids, vocab)
    assert text == "aa bb"
    assert WORD_SEP + "bb" in vocab.piece_to_id


class TestVocabFile:
    def test_save_load_round_trip(self, tmp_path):
        vocab = train_wordpiece(["the quick brown fox"], 64)
        p = tmp_path / "v.wpv"
        vocab.save(p)
        loaded = Vocab.load(p)
        assert loaded.pieces == vocab.pieces
        # byte determinism
        p2 = tmp_path / "v2.wpv"
        loaded.save(p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_header_declares_size(self, tmp_path):
        vocab = train_wordpiece(["ab"], 12)
        p = tmp_path / "v.wpv"
        vocab.save(p)
        first = p.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"wpv1 {vocab.size}"

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.wpv"
        p.write_text("nope 3\na\nb\nc\n")
        with pytest.raises(ValueError, match="header"):
            Vocab.load(p)

    def test_non_numeric_count_names_the_file(self, tmp_path):
        p = tmp_path / "bad.wpv"
        p.write_text("wpv1 abc\n<pad>\n<s>\n</s>\n<unk>\n")
        with pytest.raises(ValueError, match=r"bad\.wpv: bad vocab header 'wpv1 abc'"):
            Vocab.load(p)

    def test_undecodable_byte_names_the_file(self, tmp_path):
        p = tmp_path / "bad.wpv"
        p.write_bytes(b"wpv1 5\n<pad>\n<s>\n</s>\n<unk>\n\xff\n")
        with pytest.raises(ValueError, match=r"bad\.wpv: not UTF-8"):
            Vocab.load(p)

    def test_count_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.wpv"
        p.write_text("wpv1 6\n<pad>\n<s>\n</s>\n<unk>\na\n")
        with pytest.raises(ValueError, match="declares"):
            Vocab.load(p)

    def test_reserved_block_enforced(self, tmp_path):
        p = tmp_path / "bad.wpv"
        p.write_text("wpv1 5\n<pad>\n<s>\n<unk>\n</s>\na\n")
        with pytest.raises(VocabMismatchError):
            Vocab.load(p)

    def test_duplicate_piece_rejected(self):
        with pytest.raises(VocabMismatchError, match="duplicate"):
            Vocab(["<pad>", "<s>", "</s>", "<unk>", "a", "a"])


class TestManifest:
    def test_reads_locale_paths(self, tmp_path):
        (tmp_path / "en.txt").write_text("hello world\n")
        (tmp_path / "de.txt").write_text("hallo welt\n")
        m = tmp_path / "m.tsv"
        m.write_text("en\ten.txt\nde\tde.txt\n")
        entries = read_manifest(m)
        assert [loc for loc, _ in entries] == ["en", "de"]
        pooled = read_corpus(m)
        assert pooled == [("en", "hello world"), ("de", "hallo welt")]

    def test_missing_file_names_locale(self, tmp_path):
        m = tmp_path / "m.tsv"
        m.write_text("sw\tnope.txt\n")
        with pytest.raises(FileNotFoundError, match="sw"):
            read_manifest(m)

    def test_malformed_line_rejected(self, tmp_path):
        m = tmp_path / "m.tsv"
        m.write_text("just-one-column\n")
        with pytest.raises(ValueError, match="locale"):
            read_manifest(m)

    def test_empty_manifest_rejected(self, tmp_path):
        m = tmp_path / "m.tsv"
        m.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="no corpora"):
            read_manifest(m)
