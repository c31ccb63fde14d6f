"""The traced benchmark's wrap map names functions the program has.

bench/worker.py:install wraps program functions at the attributes where
their callers look them up. A rename there would otherwise surface only in a
traced benchmark run; installing and restoring the wrappers here fails first.
Likewise, an autodiff op the training step stops calling would make its
per-op metric read 0 rather than fail, and a train-lm that stops calling
train or encode the way the traced `train` metrics read them would break
those metrics silently.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import moefusion.cli as cli
from moefusion import autodiff
from moefusion.model import MoeLmConfig, init_params
from moefusion.packing import pack_batches
from moefusion.tokenizer import read_corpus
from moefusion.trainer import batch_loss

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_install_wraps_existing_functions_and_restore_puts_them_back(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # worker imports its siblings by name
    spans, worker = _load(monkeypatch, "spans"), _load(monkeypatch, "worker")
    tracer = spans.Tracer()
    try:
        worker.install(tracer)
        installed = list(tracer._installed)
        assert installed
        for module, attr, fn in installed:
            assert callable(fn) and getattr(module, attr) is not fn
    finally:
        tracer.restore()
    for module, attr, fn in installed:
        assert getattr(module, attr) is fn


def test_a_training_step_calls_every_traced_autodiff_op(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    _load(monkeypatch, "spans")
    ops = _load(monkeypatch, "worker").AUTODIFF_OPS
    calls = Counter()
    for op in ops:
        fn = getattr(autodiff, op)
        monkeypatch.setattr(autodiff, op,
                            lambda *a, _op=op, _fn=fn, **k: calls.update([_op]) or _fn(*a, **k))
    config = MoeLmConfig(num_layers=2, model_dim=16, num_heads=2, head_dim=8,
                         num_experts=4, experts_per_token=2, vocab_size=32,
                         max_seq_len=16)
    rng = np.random.default_rng(0)
    sentences = [list(rng.integers(4, 32, size=6)) for _ in range(8)]
    batches, _ = pack_batches(sentences, max_seq_len=16, batch_size=2, packing_factor=4, seed=0)
    params = {n: autodiff.Var(v) for n, v in init_params(config, 0).items()}
    loss, _ = batch_loss(params, batches[0], config)
    autodiff.backward(loss)
    assert {op: calls[op] for op in ops if not calls[op]} == {}


def test_traced_train_lm_feeds_the_train_metrics(monkeypatch, synth_pipeline, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    spans, worker = _load(monkeypatch, "spans"), _load(monkeypatch, "worker")
    paths = synth_pipeline["paths"]
    tracer = spans.Tracer()
    try:
        worker.install(tracer)
        assert cli.main(["train-lm", "--manifest", str(paths.lm_manifest),
                         "--vocab", str(paths.vocab), "--output-dir", str(tmp_path / "lm"),
                         "--dim", "16", "--head-dim", "8", "--max-seq-len", "32",
                         "--steps", "1", "--batch-size", "4"]) == 0
    finally:
        tracer.restore()
    (train_call,) = tracer.named("trainer.train")
    assert worker.step_peak_mb(train_call.info) > 0
    assert len(tracer.named("tokenizer.encode")) == len(list(read_corpus(paths.lm_manifest)))
