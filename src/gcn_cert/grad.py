"""Minimal reverse-mode gradient engine.

Every differentiable quantity in this package (exact forward pass,
activation bounds, dual objective) is built from a small set of array
primitives.  Each primitive works on plain numpy arrays and on :class:`Var`
nodes; mixing the two is allowed.  Gradients follow a frozen-selection
subgradient convention: all case-split masks ([.]_+/[.]_- signs, ReLU
masks, top-k selections) are fixed at their forward values, so the
backward pass is the gradient of a piecewise-linear function evaluated on
its active piece.
"""

from __future__ import annotations

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
    "total",
    "gather",
    "expand_dims",
    "exp",
    "log",
    "log_softmax_entry",
    "backward",
    "gradient",
    "finite_difference_check",
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

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

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


def _add(a, b):
    av, bv = val(a), val(b)
    out = av + bv
    parents = []
    if is_var(a):
        parents.append((a, lambda g, sh=av.shape: _unbroadcast(g, sh)))
    if is_var(b):
        parents.append((b, lambda g, sh=bv.shape: _unbroadcast(g, sh)))
    return Var(out, parents)


def _neg(a):
    if not is_var(a):
        return -np.asarray(a, dtype=np.float64)
    return Var(-a.value, [(a, lambda g: -g)])


def _mul(a, b):
    av, bv = val(a), val(b)
    out = av * bv
    parents = []
    if is_var(a):
        parents.append((a, lambda g, o=bv, sh=av.shape: _unbroadcast(g * o, sh)))
    if is_var(b):
        parents.append((b, lambda g, o=av, sh=bv.shape: _unbroadcast(g * o, sh)))
    return Var(out, parents)


def _div(a, b):
    """a / b for a Var a (only `Var.__truediv__` calls this)."""
    av, bv = a.value, val(b)
    out = av / bv
    parents = [(a, lambda g, o=bv, sh=av.shape: _unbroadcast(g / o, sh))]
    if is_var(b):
        parents.append(
            (b, lambda g, n=av, d=bv, sh=bv.shape: _unbroadcast(-g * n / (d * d), sh))
        )
    return Var(out, parents)


def matmul(a, b):
    if not (is_var(a) or is_var(b)):
        return np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    av, bv = val(a), val(b)
    out = av @ bv
    parents = []
    # leading batch axes of the other operand are summed out of the VJP
    if is_var(a):
        parents.append((a, lambda g, o=bv, sh=av.shape: _unbroadcast(g @ o.swapaxes(-1, -2), sh)))
    if is_var(b):
        parents.append((b, lambda g, o=av, sh=bv.shape: _unbroadcast(o.swapaxes(-1, -2) @ g, sh)))
    return Var(out, parents)


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


def total(a):
    """Sum of all entries as a scalar."""
    return asum(a)


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
    lse = log(total(exp(shifted)))
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
        g = grads.get(id(node))
        if g is None:
            continue
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
    shadow = params.replace(weights=w_vars, biases=b_vars)
    loss = loss_closure(shadow)
    if not is_var(loss):
        # loss never touched the parameters
        zero_w = [np.zeros_like(w) for w in params.weights]
        zero_b = [np.zeros_like(b) for b in params.biases]
        return float(np.asarray(loss)), params.replace(weights=zero_w, biases=zero_b)
    backward(loss)
    gw = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in w_vars]
    gb = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in b_vars]
    return float(loss.value), params.replace(weights=gw, biases=gb)


def finite_difference_check(loss_closure, params, rng=None, num_coords=10, eps=1e-6):
    """Max relative error of analytic vs central-difference derivatives.

    Samples `num_coords` parameter coordinates uniformly.  The relative
    error uses max(1, |fd|, |analytic|) as denominator so tiny matching
    derivatives do not blow it up.
    """
    rng = np.random.default_rng() if rng is None else rng
    _, grads = gradient(loss_closure, params)
    tensors = list(params.weights) + list(params.biases)
    gtensors = list(grads.weights) + list(grads.biases)
    sizes = np.array([t.size for t in tensors])
    flat_total = int(sizes.sum())
    worst = 0.0
    for _ in range(num_coords):
        flat = int(rng.integers(flat_total))
        ti = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
        local = flat - int(np.cumsum(sizes)[ti - 1]) if ti > 0 else flat
        t = tensors[ti]
        orig = t.flat[local]
        t.flat[local] = orig + eps
        hi = float(val(loss_closure(params)))
        t.flat[local] = orig - eps
        lo = float(val(loss_closure(params)))
        t.flat[local] = orig
        fd = (hi - lo) / (2.0 * eps)
        an = gtensors[ti].flat[local]
        rel = abs(fd - an) / max(1.0, abs(fd), abs(an))
        worst = max(worst, rel)
    return worst
