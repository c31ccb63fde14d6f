"""Dense kernels against hand values and extended-precision oracles."""

import mpmath
import numpy as np
import pytest

from helpers import grad_check
from moefusion.errors import NumericError
from moefusion.autodiff import log_softmax, softmax


def mp_log_softmax(values):
    """50-digit reference for log_softmax, returned as float64."""
    with mpmath.workdps(50):
        vals = [mpmath.mpf(v) for v in values]
        m = max(vals)
        z = mpmath.log(sum(mpmath.e**(v - m) for v in vals)) + m
        return np.array([float(v - z) for v in vals])


class TestSoftmax:
    def test_rows_sum_to_one_at_large_magnitude(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 9)) * 1e3
        x[0] = [1e3, -1e3, 999.5, 0.0, 1e3, -999.0, 500.0, 2.0, 1e3]
        p = softmax(x)
        assert np.all(np.isfinite(p)) and np.all(p >= 0)
        assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12

    def test_equals_exp_of_log_softmax(self):
        rng = np.random.default_rng(4)
        for scale in (1.0, 30.0, 1e3):
            x = rng.standard_normal((4, 6, 11)) * scale
            assert np.allclose(softmax(x), np.exp(log_softmax(x)),
                               rtol=1e-12, atol=1e-300)


class TestLogSoftmax:
    def test_uniform(self):
        out = log_softmax(np.zeros(4))
        assert np.allclose(out, np.log(0.25), atol=1e-12)

    def test_extreme_magnitudes_match_extended_precision(self):
        for v in ([1000.0, 0.0], [700.0, 700.0, -700.0], [-1e3, 1e3, 999.5]):
            got = log_softmax(np.array(v))
            want = mp_log_softmax(v)
            assert np.allclose(got, want, atol=1e-12), (v, got, want)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(16) * 100
        a = log_softmax(x)
        b = log_softmax(x + 123.456)
        assert np.abs(a - b).max() < 1e-9

    def test_exp_sums_to_one_for_large_inputs(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1e3, 1e3, size=(10_000, 8))
        out = log_softmax(x)
        sums = np.exp(out).sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_softmax(np.zeros((0,)))

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            log_softmax(np.array([1.0, np.nan]))


def row_logsumexp(x):
    """log(sum(exp(x))) along the last axis, read from log_softmax as
    LatticeSource reads each lattice row's normalizer."""
    shifted = log_softmax(x)
    return x.max(-1) - shifted.max(-1)


def mp_logsumexp(values):
    with mpmath.workdps(50):
        vals = [mpmath.mpf(v) for v in values]
        m = max(vals)
        return float(mpmath.log(sum(mpmath.e**(v - m) for v in vals)) + m)


class TestLogsumexp:
    def test_two_zeros(self):
        assert abs(row_logsumexp(np.zeros(2)) - np.log(2.0)) < 1e-15

    def test_overflow_range(self):
        got = row_logsumexp(np.array([700.0, 700.0]))
        assert abs(got - mp_logsumexp([700.0, 700.0])) < 1e-12
        assert abs(got - (700.0 + np.log(2.0))) < 1e-12

    def test_singleton(self):
        assert row_logsumexp(np.array([-3.5])) == -3.5

    def test_lower_bounded_by_max(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.uniform(-500, 500, size=rng.integers(1, 10))
            assert row_logsumexp(v) >= v.max() - 1e-12

    def test_axis(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert np.allclose(row_logsumexp(x), [np.log(2), 1 + np.log(2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            row_logsumexp(np.array([]))


class TestGradCheck:
    @staticmethod
    def quadratic(params):
        loss = 0.5 * sum(float((v * v).sum()) for v in params.values())
        grads = {n: v.copy() for n, v in params.items()}
        return loss, grads

    def test_exact_quadratic(self):
        rng = np.random.default_rng(4)
        params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
        rep = grad_check(self.quadratic, params)
        assert rep.max_relative_error < 1e-7
        assert rep.num_checked == 17

    def test_detects_wrong_gradient(self):
        def bad(params):
            loss, grads = self.quadratic(params)
            grads["a"] = grads["a"] * 1.5
            return loss, grads

        params = {"a": np.ones((2, 2))}
        rep = grad_check(bad, params)
        assert rep.max_relative_error > 0.1
        assert rep.worst_parameter[0] == "a"

    def test_epsilon_range_enforced(self):
        params = {"a": np.ones(2)}
        for eps in (1e-8, 1e-2, 0.0):
            with pytest.raises(ValueError, match="epsilon"):
                grad_check(self.quadratic, params, epsilon=eps)

    def test_subset_is_seeded_and_capped(self):
        rng = np.random.default_rng(5)
        params = {"w": rng.standard_normal((40, 30))}
        r1 = grad_check(self.quadratic, params, max_checked=50, seed=9)
        r2 = grad_check(self.quadratic, params, max_checked=50, seed=9)
        assert r1.num_checked == 50
        assert r1.worst_parameter == r2.worst_parameter
        assert r1.max_relative_error == r2.max_relative_error

    def test_nonfinite_loss_rejected(self):
        def nan_loss(params):
            return float("nan"), {n: np.zeros_like(v) for n, v in params.items()}

        with pytest.raises(NumericError):
            grad_check(nan_loss, {"a": np.ones(2)})

    def test_restores_parameters(self):
        params = {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
        before = params["a"].copy()
        grad_check(self.quadratic, params)
        assert np.array_equal(params["a"], before)
