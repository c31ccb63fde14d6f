"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Var wraps an ndarray value plus the closures needed to push a cotangent
back to its parents. Plain ndarrays (or scalars) mixed into an op are treated
as constants and receive no gradient. An op whose inputs are all constants
returns a bare ndarray and records nothing, so the same layer code runs a
training graph on Vars and a plain numpy computation on arrays. Var supports
`+` and `@` (either side may be an ndarray); every other op is a function.
The op set is exactly what the language model forward pass and its loss
need: elementwise add and mul; matmul, reshape, swapaxes and sum_;
softmax, log_softmax, gelu and layer_norm; ffn, the two-layer GELU FFN,
and attention, scaled dot-product attention, each as one op; and the
indexing ops take_rows, gather_pairs, concat_rows and scatter_add_rows,
which route tokens to experts and back. Each vector-Jacobian product is
hand-written and covered by finite-difference tests.
"""

from __future__ import annotations

import numpy as np

from . import numerics

__all__ = [
    "Var",
    "value",
    "add", "mul",
    "matmul", "reshape", "swapaxes",
    "sum_",
    "softmax", "log_softmax", "gelu", "layer_norm", "ffn", "attention",
    "take_rows", "gather_pairs", "concat_rows", "scatter_add_rows",
    "backward",
]


class Var:
    """Node in the computation graph."""

    __slots__ = ("value", "grad", "_parents", "_vjps")
    # numpy defers to Var, so ndarray + Var and ndarray @ Var reach __radd__
    # and __rmatmul__ instead of building an object array.
    __array_ufunc__ = None

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

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)


def value(x):
    """The array behind x: a Var's value, or x itself as a float64 array."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _node(out, links):
    """A Var over the Var parents of (parent, vjp) pairs; bare out if none."""
    for p, _ in links:
        if isinstance(p, Var):
            return Var(out, *zip(*[link for link in links if isinstance(link[0], Var)]))
    return out


def _unbroadcast(g, shape):
    # Sum g down to `shape` along the axes numpy broadcasting expanded.
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a, b):
    av, bv = value(a), value(b)
    return _node(av + bv, [
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    ])


def mul(a, b):
    av, bv = value(a), value(b)
    return _node(av * bv, [
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    ])


def matmul(a, b):
    """Batched matrix product; batch dims of Var operands must match exactly."""
    av, bv = value(a), value(b)
    out = np.matmul(av, bv)

    def vjp_a(g):
        ga = np.matmul(g, np.swapaxes(bv, -1, -2))
        return _unbroadcast(ga, av.shape)

    def vjp_b(g):
        gb = np.matmul(np.swapaxes(av, -1, -2), g)
        return _unbroadcast(gb, bv.shape)

    return _node(out, [(a, vjp_a), (b, vjp_b)])


def reshape(a, shape):
    av = value(a)
    return _node(av.reshape(shape), [(a, lambda g: g.reshape(av.shape))])


def swapaxes(a, ax1, ax2):
    return _node(np.swapaxes(value(a), ax1, ax2),
                 [(a, lambda g: np.swapaxes(g, ax1, ax2))])


def sum_(a, axis=None):
    av = value(a)

    def vjp(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(gg, av.shape).copy()

    return _node(av.sum(axis=axis), [(a, vjp)])


def softmax(a):
    """Along the last axis."""
    y = numerics.softmax(value(a))

    def vjp(g):
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _node(y, [(a, vjp)])


def log_softmax(a):
    """Along the last axis. Checked: a non-finite input raises NumericError."""
    y = numerics.log_softmax(value(a))

    def vjp(g):
        return g - np.exp(y) * g.sum(axis=-1, keepdims=True)

    return _node(y, [(a, vjp)])


_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu_parts(x):
    """(x * x, tanh of the approximation's inner term, gelu(x)) for an array x."""
    # Powers as multiplies: numpy's float ** is far slower than a product.
    x2 = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * (x2 * x)))
    return x2, t, 0.5 * x * (1.0 + t)


def _gelu_grad(x, x2, t):
    """d gelu / dx from x and the first two of _gelu_parts(x)."""
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner


def gelu(a):
    """tanh-approximation GELU; the vjp differentiates the approximation."""
    x = value(a)
    x2, t, y = _gelu_parts(x)
    return _node(y, [(a, lambda g: g * _gelu_grad(x, x2, t))])


def ffn(x, w1, b1, w2, b2):
    """gelu(x @ w1 + b1) @ w2 + b2 over (N, d) rows x, as one op.

    The node keeps only x and the pre-activation: the vjps recompute GELU
    and its derivative, and the first of them to run computes the
    pre-activation's cotangent (g @ w2^T) * gelu'(pre), which the vjps of
    x, w1 and b1 share.
    """
    ins = (x, w1, b1, w2, b2)
    # Decoding calls this on plain arrays several times a step: no unwrapping.
    on_graph = Var in map(type, ins)
    xv, w1v, b1v, w2v, b2v = map(value, ins) if on_graph else ins
    pre = np.matmul(xv, w1v) + b1v
    out = np.matmul(gelu(pre), w2v) + b2v
    if not on_graph:
        return out
    saved = []

    def recomputed(g):
        # [gelu(pre), cotangent of pre], built once per backward.
        if not saved:
            x2, t, y = _gelu_parts(pre)
            saved.extend([y, np.matmul(g, w2v.T) * _gelu_grad(pre, x2, t)])
        return saved

    return _node(out, [
        (x, lambda g: np.matmul(recomputed(g)[1], w1v.T)),
        (w1, lambda g: np.matmul(xv.T, recomputed(g)[1])),
        (b1, lambda g: recomputed(g)[1].sum(axis=0)),
        (w2, lambda g: np.matmul(recomputed(g)[0].T, g)),
        (b2, lambda g: g.sum(axis=0)),
    ])


def attention(q, k, v, bias):
    """softmax(q k^T / sqrt(dh) + bias) v over (B, H, Tq, dh) queries and
    (B, H, Tk, dh) keys and values, as one op; bias is a constant.

    The node keeps only q, k, v and the probabilities p. The first vjp to
    run computes the scaled scores' cotangent, p * (gp - sum(gp * p)) *
    scale with gp = g v^T, which the vjps of q and k share. Forward and
    vjps run the numpy calls of the matmul, mul, add and softmax nodes they
    replace, in their order, so the results are theirs bit for bit.
    """
    qv, kv, vv = value(q), value(k), value(v)
    scale = 1.0 / np.sqrt(qv.shape[-1])
    p = numerics.softmax(np.matmul(qv, np.swapaxes(kv, 2, 3)) * scale + bias)
    saved = []

    def scores_grad(g):
        if not saved:
            gp = np.matmul(g, np.swapaxes(vv, -1, -2))
            saved.append(p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale)
        return saved[0]

    return _node(np.matmul(p, vv), [
        (q, lambda g: np.matmul(scores_grad(g), kv)),
        (k, lambda g: np.swapaxes(np.matmul(np.swapaxes(qv, -1, -2), scores_grad(g)), 2, 3)),
        (v, lambda g: np.matmul(np.swapaxes(p, -1, -2), g)),
    ])


def layer_norm(x, gain, bias):
    """Normalise the last axis to zero mean, unit variance (eps 1e-6); then gain, bias."""
    xv, gv, bv = value(x), value(gain), value(bias)
    inv_n = 1.0 / xv.shape[-1]
    xc = xv - xv.sum(axis=-1, keepdims=True) * inv_n
    inv = ((xc * xc).sum(axis=-1, keepdims=True) * inv_n + 1e-6) ** -0.5
    xhat = xc * inv

    def vjp_x(g):
        gh = g * gv
        return inv * (gh - gh.sum(axis=-1, keepdims=True) * inv_n
                      - xhat * ((gh * xhat).sum(axis=-1, keepdims=True) * inv_n))

    return _node(xhat * gv + bv, [
        (x, vjp_x),
        (gain, lambda g: _unbroadcast(g * xhat, gv.shape)),
        (bias, lambda g: _unbroadcast(g, bv.shape)),
    ])


def take_rows(w, ids):
    """Index the leading axis of w with an integer array (any shape)."""
    wv = value(w)
    ids = np.asarray(ids)

    def vjp(g):
        out = np.zeros_like(wv)
        np.add.at(out, ids, g)
        return out

    return _node(wv[ids], [(w, vjp)])


def gather_pairs(a, rows, cols):
    """out[...] = a[rows[...], cols[...]] for integer index arrays that broadcast.

    rows of shape (n, 1) against cols of shape (n, k) pick k columns per row;
    repeated (row, col) pairs accumulate in the vjp.
    """
    av = value(a)
    rows = np.asarray(rows)
    cols = np.asarray(cols)

    def vjp(g):
        out = np.zeros_like(av)
        np.add.at(out, (rows, cols), g)
        return out

    return _node(av[rows, cols], [(a, vjp)])


def concat_rows(parts):
    """Join arrays or Vars along axis 0; each part's vjp is its slice of g."""
    vals = [value(p) for p in parts]
    ends = np.cumsum([v.shape[0] for v in vals]).tolist()
    return _node(np.concatenate(vals, axis=0), [
        (p, lambda g, a=a, b=b: g[a:b])
        for p, a, b in zip(parts, [0, *ends], ends)
    ])


def scatter_add_rows(base, idx, rows):
    """base with rows added at positions idx along axis 0 (duplicates accumulate)."""
    bv = value(base)
    rv = value(rows)
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


def backward(root):
    """Accumulate gradients into .grad of the leaf Vars reachable from root.

    root must be scalar; it is seeded with gradient 1 (to differentiate a
    non-scalar y against a cotangent g, call backward on sum_(mul(y, g))).
    Once a node's vjps have run they are dropped (with the arrays they
    hold), and a node with parents has its .grad freed (set to None), so
    neither saved activations nor intermediate gradients outlive their use;
    only leaves (Vars built directly from arrays) keep a gradient. The graph
    can therefore be differentiated once.
    """
    if root.value.size != 1:
        raise ValueError(f"backward() needs a scalar root, got shape {root.value.shape}")
    root.grad = np.ones_like(root.value)
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
        node._vjps = ()
        if node._parents:
            node.grad = None
