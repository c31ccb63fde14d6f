"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Var wraps an ndarray value plus the closures needed to push a cotangent
back to its parents. Plain ndarrays (or scalars) mixed into an op are treated
as constants and receive no gradient. The op set is exactly what the language
model forward pass needs; each vector-Jacobian product is hand-written and
covered by finite-difference tests.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Var",
    "add", "sub", "mul", "neg", "pow_const", "scale",
    "matmul", "reshape", "swapaxes",
    "sum_", "mean",
    "softmax", "log_softmax", "gelu",
    "take_rows", "gather_cols", "gather_pairs", "gather_last",
    "scatter_add_rows",
    "backward",
]


class Var:
    """Node in the computation graph."""

    __slots__ = ("value", "grad", "_parents", "_vjps")

    def __init__(self, value, _parents=(), _vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._vjps = _vjps

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def _val(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _node(value, links):
    """Build a Var from (parent, vjp) pairs, dropping constant parents."""
    links = [(p, f) for p, f in links if isinstance(p, Var)]
    return Var(value, tuple(p for p, _ in links), tuple(f for _, f in links))


def _unbroadcast(g, shape):
    # Sum g down to `shape` along the axes numpy broadcasting expanded.
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a, b):
    av, bv = _val(a), _val(b)
    return _node(av + bv, [
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    ])


def sub(a, b):
    av, bv = _val(a), _val(b)
    return _node(av - bv, [
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(-g, bv.shape)),
    ])


def mul(a, b):
    av, bv = _val(a), _val(b)
    return _node(av * bv, [
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    ])


def neg(a):
    return _node(-_val(a), [(a, lambda g: -g)])


def scale(a, c):
    """Multiply by a python float constant."""
    c = float(c)
    return _node(_val(a) * c, [(a, lambda g: g * c)])


def pow_const(a, p):
    av = _val(a)
    p = float(p)
    return _node(av ** p, [(a, lambda g: g * p * av ** (p - 1.0))])


def matmul(a, b):
    """Batched matrix product; batch dims of Var operands must match exactly."""
    av, bv = _val(a), _val(b)
    out = np.matmul(av, bv)

    def vjp_a(g):
        ga = np.matmul(g, np.swapaxes(bv, -1, -2))
        return _unbroadcast(ga, av.shape)

    def vjp_b(g):
        if bv.ndim == 2 and av.ndim > 2:
            # One GEMM over the flattened batch, not a (B, k, n) stack to sum.
            k = av.shape[-1]
            return av.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
        gb = np.matmul(np.swapaxes(av, -1, -2), g)
        return _unbroadcast(gb, bv.shape)

    return _node(out, [(a, vjp_a), (b, vjp_b)])


def reshape(a, shape):
    av = _val(a)
    return _node(av.reshape(shape), [(a, lambda g: g.reshape(av.shape))])


def swapaxes(a, ax1, ax2):
    return _node(np.swapaxes(_val(a), ax1, ax2),
                 [(a, lambda g: np.swapaxes(g, ax1, ax2))])


def sum_(a, axis=None, keepdims=False):
    av = _val(a)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, av.shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, av.shape).copy()

    return _node(av.sum(axis=axis, keepdims=keepdims), [(a, vjp)])


def mean(a, axis=None, keepdims=False):
    av = _val(a)
    n = av.size if axis is None else av.shape[axis]
    s = sum_(a, axis=axis, keepdims=keepdims)
    return scale(s, 1.0 / n)


def softmax(a, axis=-1):
    av = _val(a)
    m = av.max(axis=axis, keepdims=True)
    e = np.exp(av - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return y * (g - (g * y).sum(axis=axis, keepdims=True))

    return _node(y, [(a, vjp)])


def log_softmax(a, axis=-1):
    av = _val(a)
    m = av.max(axis=axis, keepdims=True)
    shifted = av - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    def vjp(g):
        return g - np.exp(y) * g.sum(axis=axis, keepdims=True)

    return _node(y, [(a, vjp)])


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(a):
    """tanh-approximation GELU; the vjp differentiates the approximation."""
    x = _val(a)
    # Powers as multiplies: numpy's float ** is far slower than a product.
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * (x2 * x))
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return g * dy

    return _node(y, [(a, vjp)])


def take_rows(w, ids):
    """Index the leading axis of w with an integer array (any shape)."""
    wv = _val(w)
    ids = np.asarray(ids)

    def vjp(g):
        out = np.zeros_like(wv)
        np.add.at(out, ids, g)
        return out

    return _node(wv[ids], [(w, vjp)])


def gather_cols(a, idx):
    """Per-row column gather: out[i, j] = a[i, idx[i, j]].

    idx must have no duplicate columns within a row (true for top-k
    selections), which makes the scatter in the vjp collision-free.
    """
    av = _val(a)
    idx = np.asarray(idx)

    def vjp(g):
        out = np.zeros_like(av)
        np.put_along_axis(out, idx, g, axis=1)
        return out

    return _node(np.take_along_axis(av, idx, axis=1), [(a, vjp)])


def gather_pairs(a, rows, cols):
    """out[i] = a[rows[i], cols[i]] for 1-D index arrays."""
    av = _val(a)
    rows = np.asarray(rows)
    cols = np.asarray(cols)

    def vjp(g):
        out = np.zeros_like(av)
        np.add.at(out, (rows, cols), g)
        return out

    return _node(av[rows, cols], [(a, vjp)])


def gather_last(a, idx):
    """Gather one element per position along the last axis: out[..] = a[.., idx[..]]."""
    av = _val(a)
    idx = np.asarray(idx)

    def vjp(g):
        out = np.zeros_like(av)
        np.put_along_axis(out, idx[..., None], g[..., None], axis=-1)
        return out

    return _node(np.take_along_axis(av, idx[..., None], axis=-1)[..., 0],
                 [(a, vjp)])


def scatter_add_rows(base, idx, rows):
    """base with rows added at positions idx along axis 0 (duplicates accumulate)."""
    bv = _val(base)
    rv = _val(rows)
    idx = np.asarray(idx)
    out = bv.copy()
    np.add.at(out, idx, rv)
    return _node(out, [
        (base, lambda g: g),
        (rows, lambda g: g[idx]),
    ])


def _topo(root):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root, seed_grad=None):
    """Accumulate gradients into .grad of the leaf Vars reachable from root.

    root must be scalar unless seed_grad supplies the cotangent explicitly.
    A node with parents has its .grad freed (set to None) once its vjps have
    run, so intermediate gradients do not outlive their use; only leaves
    (Vars built directly from arrays) keep a gradient.
    """
    if seed_grad is None:
        if root.value.size != 1:
            raise ValueError("backward() on a non-scalar requires seed_grad")
        seed_grad = np.ones_like(root.value)
    root.grad = np.asarray(seed_grad, dtype=np.float64)
    for node in reversed(_topo(root)):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            pg = vjp(g)
            if parent.grad is None:
                parent.grad = pg
            else:
                parent.grad = parent.grad + pg
        if node._parents:
            node.grad = None
