"""Minimal reverse-mode gradient engine.

Every differentiable quantity in this package (exact forward pass,
activation bounds, dual objective) is built from a small set of array
primitives.  Each primitive works on plain numpy arrays and on :class:`Var`
nodes; mixing the two is allowed.  A node records only its Var operands,
each with the VJP that carries the node's gradient back to that operand;
an array operand is a constant.  Gradients follow a frozen-selection
subgradient convention: all case-split masks ([.]_+/[.]_- signs, ReLU
masks, top-k selections) are fixed at their forward values, so the
backward pass is the gradient of a piecewise-linear function evaluated on
its active piece.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

__all__ = [
    "Var",
    "val",
    "is_var",
    "matmul",
    "transpose",
    "relu",
    "pos",
    "negpart",
    "asum",
    "gather",
    "expand_dims",
    "exp",
    "log",
    "log_softmax_entry",
    "backward",
    "gradient",
]


class Var:
    """A node in the computation graph wrapping a float ndarray."""

    # keep numpy from consuming us in mixed expressions; reflected
    # operators on Var handle ndarray <op> Var
    __array_ufunc__ = None

    __slots__ = ("value", "grad", "_parents")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)  # (Var, vjp) pairs

    @property
    def shape(self):
        return self.value.shape

    @property
    def T(self):
        return transpose(self)

    def __add__(self, other):
        return _add(self, other)

    def __radd__(self, other):
        return _add(other, self)

    def __sub__(self, other):
        return _add(self, _neg(other))

    def __rsub__(self, other):
        return _add(other, _neg(self))

    def __neg__(self):
        return _neg(self)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(other, self)

    def __truediv__(self, other):
        return _div(self, other)


def is_var(x):
    return isinstance(x, Var)


def val(x):
    """Numeric value of x whether it is a Var or an array."""
    if isinstance(x, Var):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` undoing numpy broadcasting."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _parents(*operands):
    """The (Var, VJP) pairs of an op from its (operand, d, other) triples, in the order given.

    Only a Var operand gets a VJP: g -> d(g, other) summed down to the
    operand's shape.  A constant operand gets none.
    """
    return [(x, lambda g, d=d, o=other, sh=x.value.shape: _unbroadcast(d(g, o), sh))
            for x, d, other in operands if isinstance(x, Var)]


def _same(g, _):
    return g


def _by_denominator(g, fraction):
    n, d = fraction
    return -g * n / (d * d)


# leading batch axes of the other operand are summed out by _unbroadcast
def _matmul_left(g, right):
    return g @ right.swapaxes(-1, -2)


def _matmul_right(g, left):
    return left.swapaxes(-1, -2) @ g


def _add(a, b):
    av, bv = val(a), val(b)
    return Var(av + bv, _parents((a, _same, None), (b, _same, None)))


def _neg(a):
    if not is_var(a):
        return -np.asarray(a, dtype=np.float64)
    return Var(-a.value, [(a, lambda g: -g)])


def _mul(a, b):
    av, bv = val(a), val(b)
    return Var(av * bv, _parents((a, np.multiply, bv), (b, np.multiply, av)))


def _div(a, b):
    """a / b for a Var a (only `Var.__truediv__` calls this)."""
    av, bv = a.value, val(b)
    return Var(av / bv, _parents((a, np.divide, bv), (b, _by_denominator, (av, bv))))


def matmul(a, b):
    if not (is_var(a) or is_var(b)):
        return np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    av, bv = val(a), val(b)
    return Var(av @ bv, _parents((a, _matmul_left, bv), (b, _matmul_right, av)))


def transpose(a):
    if not is_var(a):
        return np.asarray(a, dtype=np.float64).T
    return Var(a.value.T, [(a, lambda g: g.T)])


def relu(a):
    """max(a, 0) with the mask frozen at the forward value."""
    if not is_var(a):
        return np.maximum(np.asarray(a, dtype=np.float64), 0.0)
    mask = (a.value > 0).astype(np.float64)
    return Var(a.value * mask, [(a, lambda g, m=mask: g * m)])


def pos(a):
    """[a]_+ = max(a, 0)."""
    return relu(a)


def negpart(a):
    """[a]_- = max(-a, 0); nonnegative by construction."""
    return relu(_neg(a))


def asum(a, axis=None, keepdims=False):
    if not is_var(a):
        return np.asarray(a, dtype=np.float64).sum(axis=axis, keepdims=keepdims)

    def vjp(g, sh=a.value.shape, ax=axis):
        if ax is not None:  # put the summed axes back as unit axes
            axes = [x % len(sh) for x in (ax if isinstance(ax, tuple) else (ax,))]
            g = np.reshape(g, [1 if i in axes else size for i, size in enumerate(sh)])
        return np.broadcast_to(g, sh).copy()

    return Var(a.value.sum(axis=axis, keepdims=keepdims), [(a, vjp)])


def gather(a, indices):
    """Select flat entries of a by a fixed index array, shaped like the index."""
    idx = np.asarray(indices, dtype=np.intp)
    if not is_var(a):
        return np.asarray(a, dtype=np.float64).ravel()[idx]

    def vjp(g, sh=a.value.shape, ix=idx):
        out = np.zeros(int(np.prod(sh)), dtype=np.float64)
        np.add.at(out, ix, np.asarray(g, dtype=np.float64))
        return out.reshape(sh)

    return Var(a.value.ravel()[idx], [(a, vjp)])


def expand_dims(a, axis):
    """a with a unit axis inserted at `axis` (a reshape: cheaper than np.expand_dims)."""
    x = val(a)
    ax = axis % (x.ndim + 1)
    shape = x.shape[:ax] + (1,) + x.shape[ax:]
    if not is_var(a):
        return x.reshape(shape)
    vjp = [(a, lambda g, sh=x.shape: np.reshape(g, sh))]
    return Var(x.reshape(shape), vjp)


def exp(a):
    if not is_var(a):
        return np.exp(np.asarray(a, dtype=np.float64))
    out = np.exp(a.value)
    return Var(out, [(a, lambda g, o=out: g * o)])


def log(a):
    if not is_var(a):
        return np.log(np.asarray(a, dtype=np.float64))
    return Var(np.log(a.value), [(a, lambda g, o=a.value: g / o)])


def log_softmax_entry(logits, index):
    """log softmax(logits)[index] for a 1-d logit vector, max-shifted."""
    z = val(logits)
    shift = float(z.max())
    shifted = logits - shift
    lse = log(asum(exp(shifted)))
    picked = gather(shifted, [int(index)])
    return asum(picked) - lse


def backward(loss):
    """Accumulate gradients of a scalar Var into .grad of every ancestor."""
    if not is_var(loss):
        raise TypeError("backward() needs a Var")
    if loss.value.size != 1:
        raise ValueError("backward() needs a scalar loss")
    if not np.all(np.isfinite(loss.value)):
        raise FloatingPointError("non-finite loss value")

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads = {id(loss): np.ones_like(loss.value)}
    for node in reversed(order):
        g = grads[id(node)]  # written by a child, which comes earlier in this order
        node.grad = g if node.grad is None else node.grad + g
        for parent, vjp in node._parents:
            contrib = vjp(g)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = np.asarray(contrib, dtype=np.float64)


def gradient(loss_closure, params):
    """Gradient of a scalar loss w.r.t. GcnParams.

    `loss_closure` receives a params object whose weights and biases are
    Var leaves and must return a scalar Var.  Returns (loss value, params
    structure of gradient arrays).
    """
    w_vars = [Var(w) for w in params.weights]
    b_vars = [Var(b) for b in params.biases]
    shadow = replace(params, weights=w_vars, biases=b_vars)
    loss = loss_closure(shadow)
    if not is_var(loss):
        # loss never touched the parameters
        zero_w = [np.zeros_like(w) for w in params.weights]
        zero_b = [np.zeros_like(b) for b in params.biases]
        return float(np.asarray(loss)), replace(params, weights=zero_w, biases=zero_b)
    backward(loss)
    gw = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in w_vars]
    gb = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in b_vars]
    return float(loss.value), replace(params, weights=gw, biases=gb)
