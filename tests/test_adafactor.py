"""Optimizer update rule: factored second moments, clipping, schedules."""

import numpy as np
import pytest

from moefusion.adafactor import AdafactorHyper, AdafactorState, adafactor_step
from moefusion.errors import ConfigError


def run_steps(params, grad_fn, hyper, n):
    state = AdafactorState()
    for t in range(1, n + 1):
        params, state = adafactor_step(params, grad_fn(params), t, hyper,
                                       state)
    return params, state


class TestSchedules:
    def test_decay_curve_values(self):
        h = AdafactorHyper()
        assert h.decay(1) == pytest.approx(0.0)
        assert h.decay(2) == pytest.approx(1 - 2 ** -0.8)
        # late steps saturate at the cap
        assert h.decay(10_000_000) == pytest.approx(0.99)

    def test_warmup_then_inverse_sqrt(self):
        h = AdafactorHyper(learning_rate=0.1, warmup_steps=100)
        assert h.lr(1) == pytest.approx(0.1 * 1 / 100)
        assert h.lr(50) == pytest.approx(0.1 * 0.5)
        assert h.lr(100) == pytest.approx(0.1)
        assert h.lr(400) == pytest.approx(0.1 * 0.5)

    def test_constant_schedule_is_flat(self):
        h = AdafactorHyper(learning_rate=0.3, warmup_steps=10,
                           lr_schedule="constant")
        assert h.lr(1) == pytest.approx(0.3)
        assert h.lr(10_000) == pytest.approx(0.3)

    def test_bad_hyper_rejected(self):
        with pytest.raises(ConfigError):
            AdafactorHyper(beta2=1.5)
        with pytest.raises(ConfigError):
            AdafactorHyper(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            AdafactorHyper(lr_schedule="cosine")


class TestUpdateRule:
    def test_first_step_is_scale_invariant(self):
        # relative update, so scaling the gradient leaves the step unchanged
        h = AdafactorHyper(learning_rate=0.1, warmup_steps=1)
        p = {"w": np.full((4, 6), 2.0)}
        g1 = {"w": np.full((4, 6), 0.5)}
        g2 = {"w": np.full((4, 6), 500.0)}
        out1, _ = adafactor_step(p, g1, 1, h, AdafactorState())
        out2, _ = adafactor_step(p, g2, 1, h, AdafactorState())
        assert np.allclose(out1["w"], out2["w"], atol=1e-12)

    def test_zero_grad_leaves_params(self):
        h = AdafactorHyper(learning_rate=0.1, warmup_steps=1)
        p = {"w": np.ones((3, 3)), "b": np.ones(3)}
        out, _ = adafactor_step(p, {"w": np.zeros((3, 3)),
                                    "b": np.zeros(3)}, 1, h,
                                AdafactorState())
        assert np.array_equal(out["w"], p["w"])
        assert np.array_equal(out["b"], p["b"])

    def test_no_first_moment_kept(self):
        h = AdafactorHyper()
        p = {"w": np.ones((3, 4))}
        _, state = adafactor_step(p, {"w": np.ones((3, 4))}, 1, h,
                                  AdafactorState())
        assert "w" in state.row and "w" in state.col
        assert not hasattr(state, "momentum")
        assert state.row["w"].shape == (3,)
        assert state.col["w"].shape == (4,)

    def test_vectors_use_full_second_moment(self):
        h = AdafactorHyper()
        p = {"b": np.ones(5)}
        _, state = adafactor_step(p, {"b": np.ones(5)}, 1, h,
                                  AdafactorState())
        assert state.full["b"].shape == (5,)
        assert "b" not in state.row

    def test_factored_matches_full_on_rank_one(self):
        # rank-1 squared gradients factor exactly
        rng = np.random.default_rng(0)
        r = np.abs(rng.standard_normal(6)) + 0.1
        c = np.abs(rng.standard_normal(8)) + 0.1
        g = np.sqrt(np.outer(r, c))
        p = {"w": rng.standard_normal((6, 8))}
        hf = AdafactorHyper(learning_rate=0.01, warmup_steps=1, factored=True)
        hu = AdafactorHyper(learning_rate=0.01, warmup_steps=1, factored=False)
        pf, pu = dict(p), dict(p)
        sf, su = AdafactorState(), AdafactorState()
        for t in range(1, 6):
            pf, sf = adafactor_step(pf, {"w": g}, t, hf, sf)
            pu, su = adafactor_step(pu, {"w": g}, t, hu, su)
        assert np.abs(pf["w"] - pu["w"]).max() < 1e-9

    def test_update_magnitude_bounded_by_clip(self):
        h = AdafactorHyper(learning_rate=0.5, warmup_steps=1,
                           clip_threshold=1.0)
        rng = np.random.default_rng(1)
        p = {"w": np.zeros((10, 10))}
        g = {"w": rng.standard_normal((10, 10)) * 100}
        out, _ = adafactor_step(p, g, 1, h, AdafactorState())
        rms = np.sqrt(np.mean((out["w"] - p["w"]) ** 2))
        assert rms <= 0.5 * 1.0 + 1e-9

    def test_descends_a_quadratic(self):
        h = AdafactorHyper(learning_rate=0.05, warmup_steps=10)
        target = np.array([[1.0, -2.0], [3.0, 0.5]])

        def grad(params):
            return {"w": 2 * (params["w"] - target)}

        p = {"w": np.zeros((2, 2))}
        start = float(np.sum((p["w"] - target) ** 2))
        p, _ = run_steps(p, grad, h, 200)
        end = float(np.sum((p["w"] - target) ** 2))
        assert end < 0.05 * start


class TestSafety:
    def test_step_index_starts_at_one(self):
        h = AdafactorHyper()
        with pytest.raises(ValueError):
            adafactor_step({"w": np.ones(2)}, {"w": np.ones(2)}, 0, h,
                           AdafactorState())

    def test_nan_gradient_rejected(self):
        h = AdafactorHyper()
        with pytest.raises(Exception):
            adafactor_step({"w": np.ones(2)}, {"w": np.array([1.0, np.nan])},
                           1, h, AdafactorState())

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(2)
        p0 = {"w": rng.standard_normal((5, 7)), "b": rng.standard_normal(7)}
        g = {"w": rng.standard_normal((5, 7)), "b": rng.standard_normal(7)}
        h = AdafactorHyper(learning_rate=0.02, warmup_steps=5)
        a, _ = run_steps(dict(p0), lambda _: g, h, 10)
        b, _ = run_steps(dict(p0), lambda _: g, h, 10)
        assert np.array_equal(a["w"], b["w"])
        assert np.array_equal(a["b"], b["b"])

    def test_input_params_not_mutated(self):
        p = {"w": np.ones((3, 3))}
        keep = p["w"].copy()
        h = AdafactorHyper(learning_rate=0.1, warmup_steps=1)
        adafactor_step(p, {"w": np.ones((3, 3))}, 1, h, AdafactorState())
        assert np.array_equal(p["w"], keep)


def reference_step(params, grads, t, hyper, state):
    """The textbook rule: build vhat = outer(r, c) / mean(r) in full.

    Returns (new params, state, {name: whether the RMS clip was active}).
    """
    beta, lr = hyper.decay(t), hyper.lr(t)
    out, clipped = {}, {}
    for name, p in params.items():
        g = grads[name]
        sq = g * g + 1e-30
        if hyper.factored and g.ndim == 2:
            r = state.row.get(name, np.zeros(g.shape[0]))
            c = state.col.get(name, np.zeros(g.shape[1]))
            r = beta * r + (1.0 - beta) * sq.mean(axis=1)
            c = beta * c + (1.0 - beta) * sq.mean(axis=0)
            state.row[name], state.col[name] = r, c
            vhat = np.outer(r, c) / r.mean()
        else:
            v = beta * state.full.get(name, np.zeros_like(g)) + (1.0 - beta) * sq
            state.full[name] = v
            vhat = v
        u = g / np.sqrt(vhat)
        rms_u = np.sqrt(np.mean(u * u))
        clipped[name] = rms_u > hyper.clip_threshold
        u = u / max(1.0, rms_u / hyper.clip_threshold)
        out[name] = p - lr * u
    return out, state, clipped


class TestOuterProductFree:
    """adafactor_step never builds the full moment; it matches the rule that does."""

    @pytest.mark.parametrize("factored", [True, False])
    @pytest.mark.parametrize("clip", [0.5, 100.0])
    def test_matches_reference_over_steps(self, factored, clip):
        rng = np.random.default_rng([7, int(factored), int(clip)])
        h = AdafactorHyper(learning_rate=0.03, warmup_steps=2,
                           clip_threshold=clip, factored=factored)
        shapes = {"w": (6, 9), "tall": (11, 3), "b": (9,)}
        p = {n: rng.standard_normal(s) + 3.0 for n, s in shapes.items()}
        pr = {n: v.copy() for n, v in p.items()}
        s, sr = AdafactorState(), AdafactorState()
        any_clipped = set()
        for t in range(1, 4):
            # uneven row and column scales, so the factored moment is not exact
            g = {n: rng.standard_normal(shape) * rng.uniform(0.1, 10, shape)
                 for n, shape in shapes.items()}
            p_prev = p
            p_in = {n: v.copy() for n, v in p.items()}
            g_in = {n: v.copy() for n, v in g.items()}
            p, s = adafactor_step(p_prev, g, t, h, s)
            pr, sr, clipped = reference_step(pr, g, t, h, sr)
            any_clipped |= {n for n, c in clipped.items() if c}
            for n in shapes:
                np.testing.assert_allclose(p[n], pr[n], rtol=1e-12, atol=0)
                assert np.array_equal(g[n], g_in[n])
                assert np.array_equal(p_prev[n], p_in[n])
            for acc, ref in ((s.row, sr.row), (s.col, sr.col), (s.full, sr.full)):
                assert acc.keys() == ref.keys()
                for n in acc:
                    np.testing.assert_allclose(acc[n], ref[n], rtol=1e-12, atol=0)
        # clip 0.5 is active on every tensor, clip 100 on none
        assert any_clipped == (set(shapes) if clip < 1 else set())

    def test_zero_dim_tensor(self):
        h = AdafactorHyper(learning_rate=0.1, warmup_steps=1)
        p, g = {"s": np.array(2.0)}, {"s": np.array(-0.5)}
        out, _ = adafactor_step(p, g, 1, h, AdafactorState())
        ref, _, _ = reference_step(p, g, 1, h, AdafactorState())
        assert out["s"].shape == ()
        assert out["s"] == pytest.approx(ref["s"], rel=1e-12)
