"""Acceptance gate: ten checks covering scale accounting, sparse execution,
routing, fusion search, gradients, the end-to-end pipeline, scoring, and
reproducibility. Each test prints exactly one [criterion NN] PASS/FAIL line.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import TableLm, dense_mixture, grad_check, random_lattice, search
import moefusion.model as model_mod
from moefusion import autodiff as ad
from moefusion.accounting import count_params_flops
from moefusion.checkpoint import save_checkpoint
from moefusion.cli import main as cli_main
from moefusion.fusion import (
    CheckpointLmScorer, FusionConfig, LatticeSource, decode_utterances, exhaustive_oracle,
)
from moefusion.model import (
    FfnParams, MoeLmConfig, _mixture, build_forward, gate_topk, init_params,
)
from moefusion.packing import pack_batches
from moefusion.tokenizer import encode
from moefusion.trainer import batch_loss, train
from moefusion.adafactor import AdafactorHyper
from moefusion.wer import wer, werr, WerBreakdown, read_utt_file


def _report(capsys, num, ok, desc):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if capsys is None:
        print(line)
    else:
        with capsys.disabled():
            print(line)
    assert ok, line


def test_criterion_01_parameter_scale(capsys):
    t0 = time.perf_counter()
    rep = count_params_flops(MoeLmConfig())
    total, active = rep.total_params, rep.active_params_per_token
    ok = total == 1_882_976_256
    ok = ok and active == 126_231_552
    ok = ok and abs(total - 1.9e9) / 1.9e9 < 0.15
    ok = ok and abs(active - 145e6) / 145e6 < 0.20
    ok = ok and active / total < 0.08
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(capsys, 1, ok,
            f"default config has {total:,} params, {active:,} active/token "
            f"({active / total:.1%}) in {elapsed:.3f}s")


def test_criterion_02_compute_parity(capsys):
    t0 = time.perf_counter()
    base = MoeLmConfig().to_dict()
    reports = {}
    for e in (2, 8, 64):
        base["num_experts"] = e
        reports[e] = count_params_flops(MoeLmConfig.from_dict(base))
    non_gating = {r.non_gating_flops for r in reports.values()}
    ok = len(non_gating) == 1
    g2 = reports[2].flops_per_token["gating"]
    ok = ok and all(
        reports[e].flops_per_token["gating"] * 2 == g2 * e for e in reports
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(capsys, 2, ok,
            f"non-gating flops identical across E in (2, 8, 64) at "
            f"{non_gating.pop():,}/token; gating exactly linear in E "
            f"({elapsed:.3f}s)")


def test_criterion_03_sparse_dense_equivalence(capsys, monkeypatch, tmp_path):
    d, f = 16, 64
    rng = np.random.default_rng(30)
    experts = [
        FfnParams(
            w1=rng.standard_normal((d, f)) * 0.2,
            b1=rng.standard_normal(f) * 0.01,
            w2=rng.standard_normal((f, d)) * 0.2,
            b2=rng.standard_normal(d) * 0.01,
        )
        for _ in range(2)
    ]
    gate = rng.standard_normal((d, 2))
    x = rng.standard_normal((1000, d))
    layer_gap = np.abs(
        _mixture(x, gate, experts.__getitem__, 2)[0]
        - dense_mixture(x, gate, experts.__getitem__, 2)[0]
    ).max()

    cfg = MoeLmConfig(num_layers=2, model_dim=16, num_heads=2, head_dim=8,
                      num_experts=2, experts_per_token=2, vocab_size=32,
                      max_seq_len=16)
    data = [list(rng.integers(4, 12, size=rng.integers(3, 8)))
            for _ in range(40)]
    hyper = AdafactorHyper(learning_rate=0.05, warmup_steps=10, lr_schedule="inverse_sqrt")
    _, log_s = train(data, cfg, hyper, steps=20, seed=0, batch_size=4, packing_factor=4,
                     checkpoint_dir=tmp_path / "sparse")
    # The dense run swaps the reference in for the model's own mixture.
    monkeypatch.setattr(model_mod, "_mixture", dense_mixture)
    _, log_d = train(data, cfg, hyper, steps=20, seed=0, batch_size=4, packing_factor=4,
                     checkpoint_dir=tmp_path / "dense")
    step_gap = max(abs(a - b) for a, b in zip(log_s.losses, log_d.losses))

    ok = layer_gap <= 1e-6 and step_gap <= 1e-5 and len(log_s.losses) == 20
    _report(capsys, 3, ok,
            f"sparse vs dense mixture: layer output gap {layer_gap:.2e} "
            f"(<=1e-6), 20-step training loss gap {step_gap:.2e} (<=1e-5)")


def test_criterion_04_routing_invariants(capsys):
    n_tokens = 100_000
    d = 8
    worst_sum_gap = 0.0
    ok = True
    for e in (2, 4, 8, 64):
        rng = np.random.default_rng([40, e])
        gate = rng.standard_normal((d, e))
        out = gate_topk(rng.standard_normal((n_tokens, d)), gate, 2)
        ok = ok and out.expert_indices.shape == (n_tokens, 2)
        ok = ok and bool((out.expert_indices[:, 0] != out.expert_indices[:, 1]).all())
        worst_sum_gap = max(worst_sum_gap,
                            float(np.abs(out.combine_weights.sum(axis=1) - 1.0).max()))
        # exact ties must resolve to the two lowest expert indices and do so
        # identically on repeated evaluation
        tie = gate_topk(np.zeros((1, d)), gate * 0.0, 2)
        again = gate_topk(np.zeros((1, d)), gate * 0.0, 2)
        ok = ok and tie.expert_indices.tolist() == [[0, 1]]
        ok = ok and np.array_equal(again.expert_indices, tie.expert_indices)
        ok = ok and np.allclose(tie.combine_weights, [[0.5, 0.5]], atol=1e-12)
    ok = ok and worst_sum_gap <= 1e-6
    _report(capsys, 4, ok,
            f"top-2 over {n_tokens:,} tokens x E in (2, 4, 8, 64): always 2 "
            f"distinct experts, weight sum gap {worst_sum_gap:.2e} (<=1e-6), "
            f"deterministic lowest-index ties")


def test_criterion_05_fusion_search(capsys, synth_pipeline):
    t0 = time.perf_counter()
    scorer = CheckpointLmScorer(synth_pipeline["checkpoint"])
    v = scorer.vocab_size

    # (a) lam = 0 with a trained LM attached is token-identical to no LM
    identical = 0
    for seed in range(100):
        src = LatticeSource(random_lattice(v, 4, seed + 5000))
        cfg = FusionConfig(lam=0.0, beam_size=8)
        with_lm = search(src, scorer, cfg)
        without = search(src, None, cfg)
        if [h.tokens for h in with_lm] == [h.tokens for h in without]:
            identical += 1
    ok = identical == 100

    # (b) beam 64 equals the exhaustive oracle on small instances
    lm = TableLm.random(8, 6, seed=50)
    agree = 0
    decomposition_gap = 0.0
    for seed in range(50):
        src = LatticeSource(random_lattice(8, 4, seed + 6000))
        hyps = search(
            src, lm, FusionConfig(lam=0.3, beam_size=64))
        oracle = exhaustive_oracle(src, lm, 0.3, max_len=3)
        if hyps[0].tokens == oracle.tokens and \
                abs(hyps[0].combined - oracle.combined) < 1e-9:
            agree += 1
        # (c) every reported hypothesis decomposes exactly
        for h in hyps:
            decomposition_gap = max(
                decomposition_gap,
                abs(h.combined - (h.e2e_logprob + 0.3 * h.lm_logprob)))
    elapsed = time.perf_counter() - t0
    ok = ok and agree == 50 and decomposition_gap <= 1e-9 and elapsed < 60
    _report(capsys, 5, ok,
            f"lam=0 identical to no-LM on {identical}/100 lattices; beam-64 "
            f"matched the oracle on {agree}/50 instances; combined-score "
            f"decomposition gap {decomposition_gap:.2e} (<=1e-9) in "
            f"{elapsed:.1f}s")


def test_criterion_06_full_model_gradients(capsys):
    t0 = time.perf_counter()
    cfg = MoeLmConfig(num_layers=2, model_dim=16, num_heads=2, head_dim=8,
                      num_experts=4, experts_per_token=2, vocab_size=32,
                      max_seq_len=16)
    rng = np.random.default_rng(60)
    sentence = list(rng.integers(4, 32, size=rng.integers(3, 7)))
    # One sentence of 3-6 tokens, padded out to a row of 8.
    (batch,), _ = pack_batches([sentence], max_seq_len=8, batch_size=1, packing_factor=4, seed=0)
    params = init_params(cfg, 0)

    def loss_fn(p):
        var_params = {n: ad.Var(v) for n, v in p.items()}
        loss, _ = batch_loss(var_params, batch, cfg)
        ad.backward(loss)
        grads = {
            n: (v.grad if v.grad is not None else np.zeros_like(v.value))
            for n, v in var_params.items()
        }
        return float(loss.value), grads

    report = grad_check(loss_fn, params, epsilon=1e-3, max_checked=4000,
                        seed=0)
    elapsed = time.perf_counter() - t0
    ok = report.max_relative_error < 1e-4 and elapsed < 120
    _report(capsys, 6, ok,
            f"finite differences over {report.num_checked} of "
            f"{sum(v.size for v in params.values())} params: max relative "
            f"error {report.max_relative_error:.2e} (<1e-4) at "
            f"{report.worst_parameter} in {elapsed:.1f}s")


def test_criterion_07_pipeline_improves_wer(capsys, synth_pipeline):
    t0 = time.perf_counter()
    paths = synth_pipeline["paths"]
    vocab = synth_pipeline["vocab"]
    scorer = CheckpointLmScorer(synth_pipeline["checkpoint"])
    refs = read_utt_file(paths.refs)

    def decode_wer(lam, lm):
        (rows,) = decode_utterances(paths.lattice_dir, lm,
                                    [FusionConfig(lam=lam, beam_size=8)], vocab)
        pooled = WerBreakdown()
        for r in rows:
            pooled = pooled + wer(refs[r.utt_id][1], r.text)
        return rows, pooled.wer

    no_lm_rows, base_wer = decode_wer(0.0, None)
    lam0_rows, lam0_wer = decode_wer(0.0, scorer)
    texts_match = [r.text for r in no_lm_rows] == [r.text for r in lam0_rows]

    fused = {}
    for lam in (0.1, 0.2, 0.3, 0.4, 0.5):
        _, fused[lam] = decode_wer(lam, scorer)
    best_lam, best_wer = min(fused.items(), key=lambda kv: kv[1])
    elapsed = time.perf_counter() - t0
    ok = (texts_match and lam0_wer == base_wer and best_wer < base_wer
          and elapsed < 600)
    _report(capsys, 7, ok,
            f"synthetic pipeline: lam=0 reproduces the no-LM decodes "
            f"(wer {base_wer:.4f}); fusion reaches wer {best_wer:.4f} at "
            f"lam={best_lam:g} in {elapsed:.1f}s")


def test_criterion_08_wer_reference_agreement(capsys):
    def reference_distance(r, h):
        prev = {j: j for j in range(len(h) + 1)}
        for i in range(1, len(r) + 1):
            cur = {0: i}
            for j in range(1, len(h) + 1):
                cur[j] = min(
                    prev[j - 1] + (r[i - 1] != h[j - 1]),
                    prev[j] + 1,
                    cur[j - 1] + 1,
                )
            prev = cur
        return prev[len(h)]

    rng = np.random.default_rng(80)
    words = [f"w{i}" for i in range(10)]
    mismatches = 0
    whole = WerBreakdown()
    shards = [WerBreakdown(), WerBreakdown(), WerBreakdown()]
    for idx in range(10_000):
        r = [words[i] for i in rng.integers(0, 10, rng.integers(1, 8))]
        h = [words[i] for i in rng.integers(0, 10, rng.integers(0, 8))]
        b = wer(" ".join(r), " ".join(h))
        if b.errors != reference_distance(r, h):
            mismatches += 1
        whole = whole + b
        shards[idx % 3] = shards[idx % 3] + b
    merged = shards[0] + shards[1] + shards[2]
    ok = mismatches == 0 and merged == whole and merged.wer == whole.wer
    _report(capsys, 8, ok,
            f"edit-distance totals matched an independent reference on "
            f"10,000 random pairs with {mismatches} mismatches; shard-merged "
            f"counts identical to pooled counts")


def test_criterion_09_cli_reproducibility(capsys, tmp_path):
    def pipeline(root: Path):
        root.mkdir()
        task = root / "task"
        assert cli_main(["gen-synthetic", "--output-dir", str(task),
                         "--seed", "0", "--sentences", "120",
                         "--eval-utts", "10", "--vocab-size", "256"]) == 0
        vocab = root / "vocab.wpv"
        assert cli_main(["train-tokenizer", "--manifest",
                         str(task / "tokenizer_manifest.tsv"),
                         "--vocab-size", "256", "--output", str(vocab)]) == 0
        lm = root / "lm"
        assert cli_main(["train-lm", "--manifest",
                         str(task / "lm_manifest.tsv"),
                         "--vocab", str(task / "vocab.wpv"),
                         "--output-dir", str(lm), "--seed", "0",
                         "--dim", "16", "--head-dim", "8",
                         "--max-seq-len", "32", "--steps", "60",
                         "--warmup", "10", "--batch-size", "8"]) == 0
        decodes = root / "decodes.tsv"
        assert cli_main(["decode", "--lattice-dir", str(task / "lattices"),
                         "--vocab", str(task / "vocab.wpv"),
                         "--lm", str(lm), "--lambda", "0.3",
                         "--output", str(decodes)]) == 0
        rep = root / "report"
        assert cli_main(["evaluate", "--refs", str(task / "refs.tsv"),
                         "--hyps", str(decodes),
                         "--output-dir", str(rep)]) == 0
        return {
            "vocab(generated)": (task / "vocab.wpv").read_bytes(),
            "vocab(cli)": vocab.read_bytes(),
            "lm manifest": (lm / "manifest.json").read_bytes(),
            "lm weights": (lm / "weights.bin").read_bytes(),
            "decodes": decodes.read_bytes(),
            "report.csv": (rep / "report.csv").read_bytes(),
            "report.json": (rep / "report.json").read_bytes(),
        }

    a = pipeline(tmp_path / "run_a")
    b = pipeline(tmp_path / "run_b")
    differing = sorted(k for k in a if a[k] != b[k])
    ok = not differing and len(a) == 7
    _report(capsys, 9, ok,
            "two seed-0 CLI pipelines produced byte-identical vocab, "
            "checkpoint, decodes and reports"
            + (f" (differs: {differing})" if differing else ""))


def test_criterion_10_relative_reduction_arithmetic(capsys):
    r1 = werr(11.3, 10.8)
    r2 = werr(11.7, 10.8)
    ok = 0.043 <= r1 <= 0.045
    ok = ok and abs(r1 - 0.0442478) < 1e-6
    ok = ok and round(r2, 3) == 0.077
    ok = ok and abs(r2 - 0.0769231) < 1e-6
    _report(capsys, 10, ok,
            f"relative reduction 11.3->10.8 = {r1:.2%} (in [4.3%, 4.5%]); "
            f"11.7->10.8 = {r2:.2%} (~7.7%)")
