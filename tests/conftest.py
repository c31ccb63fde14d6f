import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from moefusion.adafactor import AdafactorHyper
from moefusion.model import MoeLmConfig
from moefusion.synthetic import gen_synthetic
from moefusion.tokenizer import Vocab, encode, read_corpus
from moefusion.trainer import train


@pytest.fixture
def tiny_config():
    return MoeLmConfig(
        num_layers=2, model_dim=16, num_heads=2, head_dim=8,
        num_experts=4, experts_per_token=2, vocab_size=32, max_seq_len=16,
    )


@pytest.fixture(scope="session")
def synth_pipeline(tmp_path_factory):
    """One generated task plus a trained LM, shared by the expensive tests."""
    root = tmp_path_factory.mktemp("synth")
    paths = gen_synthetic(root, seed=0)
    vocab = Vocab.load(paths.vocab)
    sentences = [encode(text, vocab) for _, text in read_corpus(paths.lm_manifest)]
    config = MoeLmConfig(
        num_layers=2, model_dim=32, num_heads=2, head_dim=16,
        num_experts=4, experts_per_token=2, vocab_size=vocab.size,
        max_seq_len=64,
    )
    hyper = AdafactorHyper(learning_rate=0.05, warmup_steps=50)
    ckpt, log = train(sentences, config, hyper, steps=300, seed=0, batch_size=8)
    return {
        "paths": paths,
        "vocab": vocab,
        "config": config,
        "checkpoint": ckpt,
        "train_log": log,
    }
