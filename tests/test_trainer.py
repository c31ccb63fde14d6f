"""Training loop behavior: progress, determinism, padding neutrality."""

import re
import weakref

import numpy as np
import pytest

from helpers import dense_mixture
import moefusion.model as model_mod
import moefusion.trainer as trainer_mod
from moefusion import autodiff as ad
from moefusion.adafactor import AdafactorHyper, adafactor_step
from moefusion.checkpoint import load_checkpoint
from moefusion.errors import NumericError
from moefusion.model import MoeLmConfig, init_params
from moefusion.packing import PackedBatch, pack_batches
from moefusion.tokenizer import PAD_ID
from moefusion.trainer import TrainLog, batch_loss, train

CFG = MoeLmConfig(num_layers=2, model_dim=16, num_heads=2, head_dim=8,
                  num_experts=4, experts_per_token=2, vocab_size=32,
                  max_seq_len=16)
HYPER = AdafactorHyper(learning_rate=0.05, warmup_steps=10, lr_schedule="inverse_sqrt")


def corpus(n=60, seed=0):
    rng = np.random.default_rng(seed)
    # small repetitive vocabulary so the loss can actually drop
    return [list(rng.integers(4, 12, size=rng.integers(3, 8)))
            for _ in range(n)]


class TestProgress:
    def test_loss_drops_noticeably(self, tmp_path):
        ckpt, log = train(corpus(), CFG, HYPER, steps=60, seed=0,
                          batch_size=4, packing_factor=4,
                          checkpoint_dir=tmp_path)
        first = np.mean(log.losses[:5])
        last = np.mean(log.losses[-5:])
        assert last < 0.8 * first
        assert ckpt.training_step == 60
        written = load_checkpoint(tmp_path)
        assert written.training_step == 60
        assert all(np.array_equal(written.tensors[n], t) for n, t in ckpt.tensors.items())

    def test_log_is_complete(self, tmp_path):
        _, log = train(corpus(), CFG, HYPER, steps=10, seed=0,
                       batch_size=4, packing_factor=4, checkpoint_dir=tmp_path)
        assert [r.step for r in log.steps] == list(range(1, 11))
        assert all(np.isfinite(r.loss) for r in log.steps)
        assert all(r.loss == pytest.approx(
            r.ce_loss + CFG.aux_loss_weight * r.aux_loss) for r in log.steps)

    def test_plateau_stops_early(self, monkeypatch, tmp_path):
        # constant-ish tiny corpus levels off quickly
        data = [[4, 5, 6]] * 20
        monkeypatch.setattr(trainer_mod, "PLATEAU_WINDOW", 10)
        monkeypatch.setattr(trainer_mod, "PLATEAU_REL_TOL", 1e-4)
        _, log = train(data, CFG, HYPER, steps=400, seed=0,
                       batch_size=4, packing_factor=4, checkpoint_dir=tmp_path)
        assert log.stopped_early
        assert len(log.steps) < 400

    def test_write_csv(self, tmp_path):
        _, log = train(corpus(), CFG, HYPER, steps=3, seed=0,
                       batch_size=4, packing_factor=4, checkpoint_dir=tmp_path)
        out = tmp_path / "log.csv"
        log.write_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,loss,ce_loss,aux_loss,tokens_per_sec"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == log.steps[0].loss


class TestDeterminism:
    def test_checkpoints_bitwise_equal(self, tmp_path):
        a, la = train(corpus(), CFG, HYPER, steps=15, seed=3,
                      batch_size=4, packing_factor=4, checkpoint_dir=tmp_path / "a")
        b, lb = train(corpus(), CFG, HYPER, steps=15, seed=3,
                      batch_size=4, packing_factor=4, checkpoint_dir=tmp_path / "b")
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name]), name
        assert la.losses == lb.losses
        for f in ("manifest.json", "weights.bin"):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f

    def test_seed_changes_run(self, tmp_path):
        a, _ = train(corpus(), CFG, HYPER, steps=5, seed=3,
                     batch_size=4, packing_factor=4, checkpoint_dir=tmp_path)
        b, _ = train(corpus(), CFG, HYPER, steps=5, seed=4,
                     batch_size=4, packing_factor=4, checkpoint_dir=tmp_path)
        assert any(not np.array_equal(a.tensors[n], b.tensors[n])
                   for n in a.tensors)


class TestPaddingNeutrality:
    def test_pad_content_cannot_change_loss_or_grads(self):
        batches, _ = pack_batches(corpus(8, seed=5), max_seq_len=16, batch_size=2,
                                  packing_factor=4, seed=0)
        batch = batches[0]
        assert (batch.segment_ids == 0).any(), "need padding to perturb"
        params = init_params(CFG, 0)

        def eval_batch(b):
            var_params = {n: ad.Var(v) for n, v in params.items()}
            loss, _ = batch_loss(var_params, b, CFG)
            ad.backward(loss)
            return float(loss.value), {
                n: (v.grad.copy() if v.grad is not None else 0.0)
                for n, v in var_params.items()
            }

        loss1, grads1 = eval_batch(batch)
        tokens = batch.tokens.copy()
        tokens[batch.segment_ids == 0] = 17  # arbitrary live-range token
        perturbed = PackedBatch(tokens=tokens, segment_ids=batch.segment_ids,
                                loss_mask=batch.loss_mask)
        loss2, grads2 = eval_batch(perturbed)
        assert loss1 == loss2
        for n in grads1:
            assert np.array_equal(grads1[n], grads2[n]), n


class TestMoeImpls:
    def test_sparse_and_dense_training_agree(self, monkeypatch, tmp_path):
        cfg = MoeLmConfig(num_layers=2, model_dim=16, num_heads=2, head_dim=8,
                          num_experts=2, experts_per_token=2, vocab_size=32,
                          max_seq_len=16)
        a, la = train(corpus(30), cfg, HYPER, steps=20, seed=0,
                      batch_size=4, packing_factor=4, checkpoint_dir=tmp_path)
        calls = []
        monkeypatch.setattr(model_mod, "_mixture",
                            lambda *args: calls.append(1) or dense_mixture(*args))
        b, lb = train(corpus(30), cfg, HYPER, steps=20, seed=0,
                      batch_size=4, packing_factor=4, checkpoint_dir=tmp_path)
        # The dense run really went through the reference: once per MoE
        # layer per step, not through a copy of _mixture bound earlier.
        assert len(calls) == 20 * len(cfg.moe_layers)
        for x, y in zip(la.losses, lb.losses):
            assert abs(x - y) <= 1e-5
        for n in a.tensors:
            assert np.abs(a.tensors[n] - b.tensors[n]).max() < 1e-5, n


class TestStepMemory:
    def test_a_steps_memory_is_freed_in_order(self, monkeypatch, tmp_path):
        """When a step starts, no gradient of the step before is alive, nor
        any weight its optimizer step replaced but the embedding, which the
        graph's tied output head views; when it reaches its backward pass,
        that graph and the embedding are gone too."""
        grads, weights, roots = [], {}, []

        def alive(refs):
            return [name for name, ref in refs if ref() is not None]

        def spy_step(params, step_grads, *args):
            grads.extend((n, weakref.ref(g)) for n, g in step_grads.items())
            weights.update((n, weakref.ref(w)) for n, w in params.items())
            return adafactor_step(params, step_grads, *args)

        def spy_loss(*args):
            assert alive(grads) == [] and alive(weights.items()) in ([], ["embed.weight"])
            return batch_loss(*args)

        def spy_backward(root):
            assert alive(weights.items()) == [] and alive(roots) == []
            backward(root)
            roots.append(("loss", weakref.ref(root.value)))

        def spy_save(*args):
            assert alive(grads) == []
            save(*args)

        backward, save = ad.backward, trainer_mod.save_checkpoint
        monkeypatch.setattr(trainer_mod, "adafactor_step", spy_step)
        monkeypatch.setattr(trainer_mod, "batch_loss", spy_loss)
        monkeypatch.setattr(ad, "backward", spy_backward)
        monkeypatch.setattr(trainer_mod, "save_checkpoint", spy_save)
        train(corpus(), CFG, HYPER, steps=3, seed=0, batch_size=4, packing_factor=2,
              checkpoint_dir=tmp_path)
        assert len(grads) == 3 * len(weights) and (tmp_path / "weights.bin").exists()


class TestFailure:
    def test_divergence_names_the_step(self, monkeypatch, tmp_path):
        bad = {n: v * 1e200 for n, v in init_params(CFG, 0).items()}
        monkeypatch.setattr(trainer_mod, "init_params", lambda config, seed: bad)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match=r"step 1"):
                train(corpus(), CFG, HYPER, steps=5, seed=0,
                      batch_size=4, packing_factor=4, checkpoint_dir=tmp_path)

    def test_non_finite_gradient_names_step_and_tensor(self, monkeypatch, tmp_path):
        real = trainer_mod.batch_loss

        def poisoned(params, batch, config):
            # A zero-valued term whose vjp hands final_ln.gain a NaN: the loss
            # stays finite and only the gradient goes bad.
            loss, extras = real(params, batch, config)
            gain = params["final_ln.gain"]
            bad = ad.Var(0.0, (gain,),
                         (lambda g: np.full(gain.shape, np.nan),))
            return ad.add(loss, bad), extras

        monkeypatch.setattr(trainer_mod, "batch_loss", poisoned)
        with pytest.raises(NumericError) as info:
            train(corpus(), CFG, HYPER, steps=3, seed=0,
                  batch_size=4, packing_factor=4, checkpoint_dir=tmp_path)
        msg = str(info.value)
        assert re.search(r"\bstep 1\b", msg)
        assert "'final_ln.gain'" in msg and "non-finite" in msg

    def test_zero_steps_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            train(corpus(), CFG, HYPER, steps=0, seed=0, batch_size=4, packing_factor=4,
                  checkpoint_dir=tmp_path)

    def test_batch_without_targets_rejected(self):
        batch = PackedBatch(
            tokens=np.full((1, 4), PAD_ID),
            segment_ids=np.zeros((1, 4), dtype=int),
            loss_mask=np.zeros((1, 4), dtype=bool),
        )
        var_params = {n: ad.Var(v) for n, v in init_params(CFG, 0).items()}
        with pytest.raises(ValueError):
            batch_loss(var_params, batch, CFG)
