"""Finite-difference checks for every autodiff op's hand-written vjp."""

import numpy as np
import pytest

from helpers import composed_attention, fd_check, record_var_inits
from moefusion import autodiff as ad
from moefusion.model import ATTN_MASK_VALUE, _attention_bias


def rnd(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def test_add_broadcast():
    fd_check(lambda v: ad.add(v["a"], v["b"]),
             {"a": rnd(3, 4, seed=1), "b": rnd(4, seed=2)})


def test_mul_broadcast():
    fd_check(lambda v: ad.mul(v["a"], v["b"]),
             {"a": rnd(2, 3, 4, seed=5), "b": rnd(3, 4, seed=6)})


def test_mul_by_constant_array():
    c = rnd(3, 3, seed=7)
    fd_check(lambda v: ad.mul(v["a"], c), {"a": rnd(3, 3, seed=8)})


def test_mul_by_python_float():
    fd_check(lambda v: ad.mul(v["a"], 0.25), {"a": rnd(4, seed=9)})


def test_matmul_2d():
    fd_check(lambda v: ad.matmul(v["a"], v["b"]),
             {"a": rnd(4, 3, seed=10), "b": rnd(3, 5, seed=11)})


def test_matmul_batched():
    fd_check(lambda v: ad.matmul(v["a"], v["b"]),
             {"a": rnd(2, 3, 4, 5, seed=12), "b": rnd(2, 3, 5, 2, seed=13)})


def test_reshape_swapaxes():
    fd_check(lambda v: ad.swapaxes(ad.reshape(v["a"], (2, 3, 4)), 0, 2),
             {"a": rnd(6, 4, seed=14)})


def test_sum_axis():
    fd_check(lambda v: ad.sum_(v["a"], axis=1),
             {"a": rnd(3, 5, seed=15)})


def test_sum_all():
    fd_check(lambda v: ad.sum_(v["a"]), {"a": rnd(3, 2, seed=16)})


def test_softmax():
    fd_check(lambda v: ad.softmax(v["a"]), {"a": rnd(5, 7, seed=18)})


def test_log_softmax():
    fd_check(lambda v: ad.log_softmax(v["a"]),
             {"a": rnd(2, 3, 9, seed=19)})


def test_gelu():
    fd_check(lambda v: ad.gelu(v["a"]), {"a": rnd(4, 4, seed=20) * 2})


def ffn_inputs(rows):
    return {"x": rnd(rows, 3, seed=21) * 2, "w1": rnd(3, 4, seed=22),
            "b1": rnd(4, seed=23), "w2": rnd(4, 3, seed=24), "b2": rnd(3, seed=25)}


@pytest.mark.parametrize("rows", [5, 1])
def test_ffn(rows):
    fd_check(lambda v: ad.ffn(v["x"], v["w1"], v["b1"], v["w2"], v["b2"]), ffn_inputs(rows))


def test_ffn_with_a_constant_bias():
    inputs = ffn_inputs(5)
    b1 = inputs.pop("b1")
    fd_check(lambda v: ad.ffn(v["x"], v["w1"], b1, v["w2"], v["b2"]), inputs)


def test_ffn_equals_the_ops_it_fuses_bit_for_bit():
    inputs = ffn_inputs(6)
    composed = lambda x, w1, b1, w2, b2: ad.gelu(x @ w1 + b1) @ w2 + b2  # noqa: E731
    assert np.array_equal(ad.ffn(**inputs), composed(**inputs))
    grads = []
    for op in (ad.ffn, composed):
        vars_ = {n: ad.Var(v) for n, v in inputs.items()}
        ad.backward(ad.sum_(ad.mul(op(**vars_), rnd(6, 3, seed=26))))
        grads.append([v.grad for v in vars_.values()])
    assert all(np.array_equal(a, b) for a, b in zip(*grads))


# (queries, keys, bias) of the two attention shapes the model runs: a packed
# training batch under its causal, segment-isolating mask (a padded tail
# included), and a decode step's one query over a row's cached keys.
ATTENTION_CASES = {
    "train": (6, 6, _attention_bias(np.array([[1, 1, 1, 2, 2, 0], [1, 1, 1, 1, 1, 1]]))),
    "decode": (1, 5, 0.0),
}


def attention_inputs(case):
    # A head width of 5 makes the 1/sqrt(dh) scale inexact, so the order of
    # the multiplies shows in the bits.
    tq, tk, _ = ATTENTION_CASES[case]
    return {"q": rnd(2, 3, tq, 5, seed=40), "k": rnd(2, 3, tk, 5, seed=41),
            "v": rnd(2, 3, tk, 5, seed=42)}


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention(case):
    bias = ATTENTION_CASES[case][2]
    assert case == "decode" or (bias == ATTN_MASK_VALUE).any()
    fd_check(lambda v: ad.attention(v["q"], v["k"], v["v"], bias), attention_inputs(case))


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention_equals_the_ops_it_fuses_bit_for_bit(case):
    inputs, bias = attention_inputs(case), ATTENTION_CASES[case][2]
    outs, grads = [], []
    for op in (ad.attention, composed_attention):
        outs.append(op(*inputs.values(), bias).tobytes())
        vars_ = {n: ad.Var(v) for n, v in inputs.items()}
        out = op(*vars_.values(), bias)
        ad.backward(ad.sum_(ad.mul(out, rnd(*out.shape, seed=43))))
        grads.append([v.grad.tobytes() for v in vars_.values()])
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


def test_layer_norm_broadcast_gain_and_bias():
    fd_check(lambda v: ad.layer_norm(v["x"], v["gain"], v["bias"]),
             {"x": rnd(2, 3, 5, seed=29), "gain": rnd(5, seed=30),
              "bias": rnd(5, seed=31)})


def test_layer_norm_normalises_last_axis():
    y = ad.layer_norm(rnd(4, 7, seed=32) * 3 + 2, np.ones(7), np.zeros(7))
    assert np.abs(y.mean(axis=-1)).max() < 1e-12
    assert np.abs(y.var(axis=-1) - 1).max() < 1e-5


def test_take_rows_with_duplicates():
    ids = np.array([0, 2, 2, 1, 0])
    fd_check(lambda v: ad.take_rows(v["w"], ids), {"w": rnd(3, 4, seed=21)})


def test_take_rows_2d_index():
    ids = np.array([[0, 1], [1, 0]])
    fd_check(lambda v: ad.take_rows(v["w"], ids), {"w": rnd(2, 3, seed=22)})


def test_gather_pairs_with_duplicates():
    rows = np.array([0, 1, 1, 0])
    cols = np.array([2, 0, 0, 2])
    fd_check(lambda v: ad.gather_pairs(v["a"], rows, cols),
             {"a": rnd(2, 3, seed=24)})


def test_gather_pairs_picks_columns_per_row():
    # (n, 1) rows against (n, k) columns: the router's top-k pick.
    rows = np.arange(3)[:, None]
    cols = np.array([[0, 2], [1, 3], [3, 0]])
    out = ad.gather_pairs(rnd(3, 4, seed=23), rows, cols)
    assert out.shape == (3, 2)
    fd_check(lambda v: ad.gather_pairs(v["a"], rows, cols), {"a": rnd(3, 4, seed=23)})


def test_gather_pairs_column_vector_with_duplicates():
    # (m, 1) by (m, 1): the combine weight of each (token, slot) choice.
    rows = np.array([[2], [0], [2]])
    cols = np.array([[1], [0], [1]])
    fd_check(lambda v: ad.gather_pairs(v["a"], rows, cols), {"a": rnd(3, 2, seed=25)})


def test_concat_rows():
    fd_check(lambda v: ad.concat_rows([v["a"], v["b"], v["c"]]),
             {"a": rnd(2, 3, seed=43), "b": rnd(1, 3, seed=44), "c": rnd(4, 3, seed=45)})


def test_concat_rows_with_a_constant_part():
    const = rnd(2, 3, seed=46)
    fd_check(lambda v: ad.concat_rows([v["a"], const, v["b"]]),
             {"a": rnd(3, 3, seed=47), "b": rnd(1, 3, seed=48)})
    a = ad.Var(rnd(3, 3, seed=47))
    out = ad.concat_rows([a, const])
    assert len(out._parents) == 1 and out._parents[0] is a


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
    a = ad.mul(x, 2.0)
    b = ad.mul(x, 5.0)
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


def test_ops_on_constants_return_arrays(monkeypatch):
    made = record_var_inits(monkeypatch)
    a, b, m = rnd(3, 4, seed=33), rnd(4, seed=34), rnd(4, 2, seed=35)
    idx = np.array([[0, 2], [1, 3], [3, 0]])
    outs = [ad.add(a, b), ad.mul(a, b), ad.mul(a, 2.0),
            ad.matmul(a, m), ad.reshape(a, (4, 3)), ad.swapaxes(a, 0, 1),
            ad.sum_(a, axis=1), ad.softmax(a), ad.log_softmax(a), ad.gelu(a),
            ad.layer_norm(a, b, b), ad.ffn(a, m, b[:2], m.T, b), ad.take_rows(a, [2, 0]),
            ad.gather_pairs(a, [0, 1], [3, 2]),
            ad.gather_pairs(a, np.arange(3)[:, None], idx),
            ad.concat_rows([a, m.T]),
            ad.scatter_add_rows(a, [0, 0], rnd(2, 4, seed=36))]
    assert all(type(o) is np.ndarray for o in outs)
    assert np.array_equal(outs[3], a @ m)
    assert made == []


def test_operators_build_the_graph_from_either_side():
    a, m, b = rnd(3, 4, seed=37), rnd(4, 2, seed=38), rnd(2, seed=39)
    w = ad.Var(m)
    assert isinstance(a @ w + b, ad.Var)  # ndarray @ Var, then Var + ndarray
    ad.backward(ad.sum_(b + a @ w))  # ndarray + Var
    np.testing.assert_allclose(w.grad, np.outer(a.sum(axis=0), np.ones(2)), rtol=1e-12)
    x = ad.Var(a)
    ad.backward(ad.sum_(x @ m))
    np.testing.assert_allclose(x.grad, np.ones((3, 2)) @ m.T, rtol=1e-12)


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
    y = ad.gelu(x)
    assert (np.abs(y - ref) / np.maximum(np.abs(ref), 1.0)).max() <= 1e-15
    assert (np.abs(xv.grad - dref) / np.maximum(np.abs(dref), 1.0)).max() <= 1e-15


@pytest.mark.parametrize("a_shape", [(3, 5, 4), (2, 3, 5, 4)])
def test_matmul_vjp_b_flattens_the_batch(a_shape):
    rng = np.random.default_rng(41)
    a = rng.standard_normal(a_shape)
    b = ad.Var(rng.standard_normal((4, 6)))
    g = rng.standard_normal(a_shape[:-1] + (6,))
    # sum(out * g) hands the product the cotangent g, bit for bit
    ad.backward(ad.sum_(ad.mul(ad.matmul(a, b), g)))
    # a^T g over the batch, summed: one (4, 6) gradient for the shared b
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
        h = ad.add(h, ad.mul(h, 0.5))  # h reaches the loss along two paths
        return x, w, ad.sum_(ad.mul(h, ad.softmax(h)))

    x, w, loss = graph()
    nodes = ad._topo(loss)
    ad.backward(loss)
    assert {id(n) for n in nodes if not n._parents} == {id(x), id(w)}
    assert all(n.grad is None for n in nodes if n._parents)
    assert all(n._vjps == () for n in nodes)

    x_ref, w_ref, loss_ref = graph()
    keep_all_backward(loss_ref)
    assert np.array_equal(x.grad, x_ref.grad)
    assert np.array_equal(w.grad, w_ref.grad)
