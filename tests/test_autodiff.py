"""Finite-difference checks for every autodiff op's hand-written vjp."""

import numpy as np
import pytest

from moefusion import autodiff as ad
from moefusion.numerics import grad_check


def fd_check(build, params, tol=1e-6, eps=1e-5):
    """build(vars) -> Var of any shape; loss = sum(out * fixed projection)."""
    shapes = {n: np.asarray(v).shape for n, v in params.items()}
    rng = np.random.default_rng(0xF00D)
    proj = {}

    def loss_fn(p):
        vars_ = {n: ad.Var(v) for n, v in p.items()}
        out = build(vars_)
        if not proj:
            proj["r"] = rng.standard_normal(out.value.shape)
        loss = ad.sum_(ad.mul(out, proj["r"]))
        ad.backward(loss)
        grads = {
            n: (v.grad if v.grad is not None else np.zeros(shapes[n]))
            for n, v in vars_.items()
        }
        return float(loss.value), grads

    rep = grad_check(loss_fn, params, epsilon=eps)
    assert rep.max_relative_error < tol, rep
    return rep


def rnd(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def test_add_broadcast():
    fd_check(lambda v: ad.add(v["a"], v["b"]),
             {"a": rnd(3, 4, seed=1), "b": rnd(4, seed=2)})


def test_sub_and_neg():
    fd_check(lambda v: ad.neg(ad.sub(v["a"], v["b"])),
             {"a": rnd(2, 5, seed=3), "b": rnd(2, 5, seed=4)})


def test_mul_broadcast():
    fd_check(lambda v: ad.mul(v["a"], v["b"]),
             {"a": rnd(2, 3, 4, seed=5), "b": rnd(3, 4, seed=6)})


def test_mul_by_constant_array():
    c = rnd(3, 3, seed=7)
    fd_check(lambda v: ad.mul(v["a"], c), {"a": rnd(3, 3, seed=8)})


def test_scale_and_pow():
    fd_check(lambda v: ad.scale(ad.pow_const(v["a"], 3.0), 0.25),
             {"a": rnd(4, seed=9) + 3.0})


def test_matmul_2d():
    fd_check(lambda v: ad.matmul(v["a"], v["b"]),
             {"a": rnd(4, 3, seed=10), "b": rnd(3, 5, seed=11)})


def test_matmul_batched():
    fd_check(lambda v: ad.matmul(v["a"], v["b"]),
             {"a": rnd(2, 3, 4, 5, seed=12), "b": rnd(2, 3, 5, 2, seed=13)})


def test_reshape_swapaxes():
    fd_check(lambda v: ad.swapaxes(ad.reshape(v["a"], (2, 3, 4)), 0, 2),
             {"a": rnd(6, 4, seed=14)})


def test_sum_axis_keepdims():
    fd_check(lambda v: ad.sum_(v["a"], axis=1, keepdims=True),
             {"a": rnd(3, 5, seed=15)})


def test_sum_all():
    fd_check(lambda v: ad.sum_(v["a"]), {"a": rnd(3, 2, seed=16)})


def test_mean():
    fd_check(lambda v: ad.mean(v["a"], axis=-1), {"a": rnd(4, 6, seed=17)})


def test_softmax():
    fd_check(lambda v: ad.softmax(v["a"], axis=-1), {"a": rnd(5, 7, seed=18)})


def test_log_softmax():
    fd_check(lambda v: ad.log_softmax(v["a"], axis=-1),
             {"a": rnd(2, 3, 9, seed=19)})


def test_gelu():
    fd_check(lambda v: ad.gelu(v["a"]), {"a": rnd(4, 4, seed=20) * 2})


def test_take_rows_with_duplicates():
    ids = np.array([0, 2, 2, 1, 0])
    fd_check(lambda v: ad.take_rows(v["w"], ids), {"w": rnd(3, 4, seed=21)})


def test_take_rows_2d_index():
    ids = np.array([[0, 1], [1, 0]])
    fd_check(lambda v: ad.take_rows(v["w"], ids), {"w": rnd(2, 3, seed=22)})


def test_gather_cols():
    idx = np.array([[0, 2], [1, 3], [3, 0]])
    fd_check(lambda v: ad.gather_cols(v["a"], idx), {"a": rnd(3, 4, seed=23)})


def test_gather_pairs_with_duplicates():
    rows = np.array([0, 1, 1, 0])
    cols = np.array([2, 0, 0, 2])
    fd_check(lambda v: ad.gather_pairs(v["a"], rows, cols),
             {"a": rnd(2, 3, seed=24)})


def test_gather_last():
    idx = np.array([[0, 3], [2, 1]])
    fd_check(lambda v: ad.gather_last(v["a"], idx), {"a": rnd(2, 2, 4, seed=25)})


def test_scatter_add_rows_with_duplicates():
    idx = np.array([0, 2, 0])
    fd_check(lambda v: ad.scatter_add_rows(v["base"], idx, v["rows"]),
             {"base": rnd(4, 3, seed=26), "rows": rnd(3, 3, seed=27)})


def test_scatter_onto_constant_base():
    idx = np.array([1, 1])
    base = np.zeros((3, 2))
    fd_check(lambda v: ad.scatter_add_rows(base, idx, v["rows"]),
             {"rows": rnd(2, 2, seed=28)})


def test_reused_node_accumulates():
    x = ad.Var(np.array([2.0, -1.0]))
    y = ad.add(ad.mul(x, x), x)  # y = x^2 + x, dy/dx = 2x + 1
    ad.backward(ad.sum_(y))
    assert np.allclose(x.grad, 2 * x.value + 1)


def test_diamond_graph():
    x = ad.Var(np.array([3.0]))
    a = ad.scale(x, 2.0)
    b = ad.scale(x, 5.0)
    out = ad.add(a, b)
    ad.backward(ad.sum_(out))
    assert x.grad[0] == 7.0


def test_backward_requires_scalar():
    x = ad.Var(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, x))


def test_constants_get_no_gradient():
    x = ad.Var(np.ones(3))
    c = np.full(3, 2.0)
    out = ad.sum_(ad.mul(x, c))
    ad.backward(out)
    assert np.allclose(x.grad, c)
    # the constant never became part of the graph
    assert all(isinstance(p, ad.Var) for p in out._parents)


def test_gelu_matches_power_formula():
    # The op writes x**3 and x**2 as products. Compared against the power
    # formula relative to max(|ref|, 1): near the zeros of GELU and of its
    # derivative, cancellation makes a plain relative error meaningless.
    x = np.linspace(-10.0, 10.0, 20001)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * x ** 3))
    ref = 0.5 * x * (1.0 + t)
    dref = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * c * (1.0 + 3 * 0.044715 * x ** 2)
    xv = ad.Var(x)
    ad.backward(ad.sum_(ad.gelu(xv)))
    y = ad.gelu(x).value
    assert (np.abs(y - ref) / np.maximum(np.abs(ref), 1.0)).max() <= 1e-15
    assert (np.abs(xv.grad - dref) / np.maximum(np.abs(dref), 1.0)).max() <= 1e-15


@pytest.mark.parametrize("a_shape", [(3, 5, 4), (2, 3, 5, 4)])
def test_matmul_vjp_b_flattens_the_batch(a_shape):
    rng = np.random.default_rng(41)
    a = rng.standard_normal(a_shape)
    b = ad.Var(rng.standard_normal((4, 6)))
    g = rng.standard_normal(a_shape[:-1] + (6,))
    ad.backward(ad.matmul(a, b), seed_grad=g)
    # the batched-then-summed product the flattened GEMM replaces
    ref = np.matmul(np.swapaxes(a, -1, -2), g).reshape(-1, 4, 6).sum(axis=0)
    assert b.grad.shape == (4, 6)
    np.testing.assert_allclose(b.grad, ref, rtol=1e-12, atol=1e-12)


def keep_all_backward(root):
    """Reference backward that leaves every node's .grad in place."""
    root.grad = np.ones_like(root.value)
    for node in reversed(ad._topo(root)):
        if node.grad is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            pg = vjp(node.grad)
            parent.grad = pg if parent.grad is None else parent.grad + pg


def test_backward_frees_intermediate_grads():
    rng = np.random.default_rng(42)
    xv, wv = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))

    def graph():
        x, w = ad.Var(xv), ad.Var(wv)
        h = ad.gelu(ad.matmul(x, w))
        h = ad.add(h, ad.scale(h, 0.5))  # h reaches the loss along two paths
        return x, w, ad.sum_(ad.mul(h, ad.softmax(h)))

    x, w, loss = graph()
    nodes = ad._topo(loss)
    ad.backward(loss)
    assert {id(n) for n in nodes if not n._parents} == {id(x), id(w)}
    assert all(n.grad is None for n in nodes if n._parents)

    x_ref, w_ref, loss_ref = graph()
    keep_all_backward(loss_ref)
    assert np.array_equal(x.grad, x_ref.grad)
    assert np.array_equal(w.grad, w_ref.grad)
