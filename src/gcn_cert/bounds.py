"""Pre-activation interval bounds and the crossing/linear neuron partition."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grad
from .gcn import GcnParams
from .graph_core import SlicedProblem

__all__ = [
    "Budget",
    "ActivationBounds",
    "CROSSING",
    "NONNEG",
    "NONPOS",
    "first_layer_bounds",
    "deeper_layer_bounds",
    "classify_partition",
    "compute_bounds",
    "compute_bounds_sweep",
    "top_k",
]

CROSSING = 0
NONNEG = 1
NONPOS = 2


@dataclass(frozen=True)
class Budget:
    """Per-node (q) and global (Q) L0 flip budgets."""

    local_q: int
    global_Q: int

    def __post_init__(self):
        if self.local_q < 0 or self.global_Q < 0:
            raise ValueError("budgets must be nonnegative")

    def effective_q(self, num_features: int) -> int:
        return min(self.local_q, num_features)

    def effective_Q(self, num_nodes: int, num_features: int) -> int:
        # more than q flips per node can never be used; same for N*q overall
        return min(self.global_Q, num_nodes * self.effective_q(num_features))


@dataclass
class ActivationBounds:
    """Lower/upper pre-activation bounds per layer l = 2..L-1, and their ReLU relaxation.

    lower[l] / upper[l] / partition[l] are indexed by layer number.
    Bound matrices may be grad.Var during training; partitions are plain
    int arrays computed from the forward values.  The relaxation is
    derived once per layer: 0/1 masks `cross` and `nonneg` of the
    crossing and nonnegative entries, and on crossing entries the upper
    envelope's slope S/(S-R) (also the default Omega) and offset
    S*R/(S-R); both are 0 elsewhere and follow R and S on the tape.
    """

    lower: dict
    upper: dict
    partition: dict
    cross: dict = field(init=False, repr=False)
    nonneg: dict = field(init=False, repr=False)
    slope: dict = field(init=False, repr=False)
    offset: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.cross, self.nonneg, self.slope, self.offset = {}, {}, {}, {}
        for l in self.layers():
            R, S = self.lower[l], self.upper[l]
            cross = (self.partition[l] == CROSSING).astype(np.float64)
            denom = (S - R) * cross + (1.0 - cross)  # 1 off the crossing entries
            self.cross[l] = cross
            self.nonneg[l] = (self.partition[l] == NONNEG).astype(np.float64)
            self.slope[l] = (S * cross) / denom
            self.offset[l] = (S * R * cross) / denom

    def layers(self):
        return sorted(self.lower.keys())


def first_layer_bounds(sp: SlicedProblem, params: GcnParams, budget: Budget):
    """Tight bounds (R^(2), S^(2)) on the first hidden pre-activations.

    Per entry (m, j), the bound is the clean pre-activation plus/minus the
    sum of the Q largest admissible per-flip changes; each flip candidate
    for neighbor n is one of the q largest per-feature effects.  All
    selections are frozen index masks, so the result is differentiable in
    the parameters under the fixed-mask convention.

    Contract: ``sp.sliced_attrs`` is binary (``Graph`` enforces it and
    ``slice_problem`` is the only constructor of ``SlicedProblem``), so
    toggling X[n, d] changes unit j by W+[d, j] or W-[d, j], whichever
    direction the bound moves.  Ties in a row's top q go to the ascending
    feature id; ties in the top Q across rows go to the ascending
    (node, feature) id n*D + d.  Both rules fix which entries the
    gradient flows through.  This is the one-budget case of
    `_first_layer_sweep`.
    """
    return _first_layer_sweep(sp, params, [budget])[0]


def _first_layer_sweep(sp: SlicedProblem, params: GcnParams, budgets) -> list:
    """`first_layer_bounds` for each of `budgets`, which share q, from one selection.

    The top-Q picks of every budget are a prefix of one total order, so the
    selection runs once, at the largest Q, and each budget sums its prefix.
    """
    if len({b.local_q for b in budgets}) != 1:
        raise ValueError("a sweep takes one or more budgets that share one local budget q")
    X = sp.sliced_attrs
    A1 = sp.sliced_mp[0]
    W, b = params.weights[0], params.biases[0]
    n_outer, D = X.shape

    q = budgets[0].effective_q(D)
    Qs = [bud.effective_Q(n_outer, D) for bud in budgets]

    H_dot = grad.matmul(grad.matmul(A1, X), W) + b
    if q == 0 or max(Qs) == 0:
        return [(H_dot, H_dot)] * len(budgets)

    # active features of each row, ascending, padded with the id D
    nnz = np.count_nonzero(X, axis=1)
    active = np.full((n_outer, nnz.max(initial=0)), D)
    active[np.arange(active.shape[1]) < nnz[:, None]] = np.nonzero(X)[1]

    # toggling an off feature raises unit j by W+[d, j] and lowers it by
    # W-[d, j]; toggling an active one does the reverse
    Wp, Wm = grad.pos(W), grad.negpart(W)
    A1 = grad.val(A1)
    upper = _budgeted_increase(A1, X, active, Wp, Wm, q, Qs)
    lower = _budgeted_increase(A1, X, active, Wm, Wp, q, Qs)
    return [(H_dot - lower[Q], H_dot + upper[Q]) if Q else (H_dot, H_dot) for Q in Qs]


# rows at least this long are picked by a float partition in `top_k`; the
# complex-key partition is faster below it (timings in CHANGES.md)
_FLOAT_ROW_MIN = 512
# rows at least this long, with one ascending id row, are picked by k
# passes of argmax when k <= _PEEL_K_MAX (timings in CHANGES.md)
_PEEL_ROW_MIN = 256
_PEEL_K_MAX = 3


def _key_picks(values, ids, k):
    """Each row's k smallest complex keys -value + i*id, in no particular order."""
    key = np.empty(np.broadcast_shapes(np.shape(values), np.shape(ids)), dtype=np.complex128)
    key.real = -values
    key.imag = ids
    return np.partition(key, k - 1, axis=-1)[..., :k]


def _peel_top(values, ids, k, shape):
    """`top_k` by k passes of argmax, for one strictly ascending id row.

    argmax returns the first position of a row's maximum, and positions
    ascend with ids, so the picks come in key order.  Each pass writes -inf
    at its pick in a copy of the rows; a row whose picks are not all > -inf
    reached an entry that is -inf (perhaps a written one) or NaN, and is
    picked again by `_key_picks`.
    """
    m = shape[-1]
    rows = np.empty(shape)
    rows[...] = values
    rows = rows.reshape(-1, m)
    flat, starts = rows.reshape(-1), np.arange(0, rows.size, m)
    top_v = np.empty((k, len(rows)))
    at = np.empty((k, len(rows)), dtype=np.intp)
    for j in range(k):
        at[j] = rows.argmax(axis=1)
        at[j] += starts
        top_v[j] = flat[at[j]]
        flat[at[j]] = -np.inf
    top_i = ids[at - starts]
    bad = ~(top_v > -np.inf).all(axis=0)
    top_v, top_i = np.ascontiguousarray(top_v.T), np.ascontiguousarray(top_i.T)
    if bad.any():
        top = np.sort(_key_picks(np.broadcast_to(values, shape).reshape(-1, m)[bad], ids, k), axis=-1)
        top_v[bad], top_i[bad] = -top.real, top.imag
    return top_v.reshape(shape[:-1] + (k,)), top_i.reshape(shape[:-1] + (k,))


def top_k(values, ids, k):
    """Each row's k largest values and their ids, in descending order; ties go to the smaller id.

    Rows run along the last axis; `values` and the integer `ids` broadcast
    together, and 1 <= k <= the row length.  The order is that of complex
    keys -value + i*id: complex numbers order by real, then imaginary part,
    so ascending keys are descending values with ties to the smaller id.
    There are three paths to that order:

    - rows of at least `_PEEL_ROW_MIN` entries, with k <= `_PEEL_K_MAX` and
      `ids` one strictly ascending 1-D array, take k passes of argmax
      (`_peel_top`).  argmax breaks ties to the smaller position, which is
      the smaller id only because the ids ascend along the row.  Each pass
      writes -inf at its pick, so a row whose picks are not all > -inf (it
      reached a -inf or NaN entry) is picked again on the keys;
    - other rows shorter than `_FLOAT_ROW_MIN` are one partition on the keys;
    - longer rows take k positions from one float partition of the values;
      a row that has more than k entries >= its k-th value left out a tie
      at that value, and only those rows are picked again on the keys.

    The partition paths then sort only the k picks, on their keys.
    """
    shape = np.broadcast_shapes(np.shape(values), np.shape(ids))
    m = shape[-1]
    if m >= _PEEL_ROW_MIN and k <= _PEEL_K_MAX and np.ndim(ids) == 1 and (np.diff(ids) > 0).all():
        return _peel_top(values, np.asarray(ids, dtype=np.intp), k, shape)
    if m < _FLOAT_ROW_MIN:
        top = np.sort(_key_picks(values, ids, k), axis=-1)
    else:
        neg, ids = np.broadcast_to(np.negative(values), shape), np.broadcast_to(ids, shape)
        pos = np.argpartition(neg, k - 1, axis=-1)[..., :k]
        top = np.empty(pos.shape, dtype=np.complex128)
        top.real = np.take_along_axis(neg, pos, axis=-1)
        top.imag = np.take_along_axis(ids, pos, axis=-1)
        # argpartition puts the k-th value at position k - 1
        tied = np.count_nonzero(neg <= top.real[..., k - 1 : k], axis=-1) > k
        if tied.any():
            top[tied] = _key_picks(-neg[tied], ids[tied], k)
        top = np.sort(top, axis=-1)
    return -top.real, top.imag.astype(np.intp)


def _budgeted_increase(A1, X, active, W_off, W_on, q, Qs):
    """{Q: sum of the top-Q of {A1[m,n] * (q-largest effects of row n)} per (m,j)} for each Q > 0 in Qs.

    The effect of toggling X[n, d] on unit j is W_off[d, j] when the
    feature is off and W_on[d, j] when it is active; both are >= 0.
    """
    n_outer, D = X.shape
    off, on = grad.val(W_off), grad.val(W_on)
    h2 = off.shape[1]
    units = np.arange(h2)[:, None]

    # Row n's q largest effects on unit j lie among its active features
    # and its first q off features in the order of W_off[:, j] (descending,
    # ties to the smaller d); at most nnz(n) active features come before
    # those, so the top q + nnz_max features of that order hold them.
    K = min(D, q + active.shape[1])
    off_head, head = top_k(off.T, np.arange(D), K)  # (h2, K)
    # candidates per (j, n): the head features that are off in row n, then
    # the row's active features; an entry of -inf is never picked
    off_eff = np.where(X[:, head] == 0, off_head, -np.inf).transpose(1, 0, 2)
    on_eff = np.vstack([on, np.full((1, h2), -np.inf)])[active].transpose(2, 0, 1)
    feat = np.concatenate(
        [np.broadcast_to(head[:, None, :], off_eff.shape), np.broadcast_to(active, on_eff.shape)], axis=2
    )  # (h2, n, K + nnz_max)
    eff = np.concatenate([off_eff, on_eff], axis=2)
    eff, feat = top_k(eff, feat, q)  # (h2, n, q)
    # the picks of unit j as one row over (n, k): (h2, n*q)
    eff, feat = eff.reshape(h2, n_outer * q), feat.reshape(h2, n_outer * q)

    # the candidates A1[m, n] * eff per (m, j) in descending order, ties to
    # the smaller (node, feature) id n*D + d, down to the largest Q: each
    # budget's top Q is a prefix of it.  A1 >= 0 keeps each row's top q.
    node = np.repeat(np.arange(n_outer), q)
    Q_max = max(Qs)
    _, ids = top_k(A1[:, None, node] * eff, node * D + feat, Q_max)
    n_top, d_top = np.divmod(ids, D)  # (M, h2, Q_max)

    coef = A1[np.arange(A1.shape[0])[:, None, None], n_top]
    at = d_top * h2 + units  # flat index of (d, j) in W
    on_pick = X[n_top, d_top] != 0
    out = {}
    for Q in sorted(set(Qs) - {0}):
        c, a, o = coef[..., :Q], at[..., :Q], on_pick[..., :Q]
        out[Q] = grad.asum(grad.gather(W_off, a) * (c * ~o) + grad.gather(W_on, a) * (c * o), axis=2)
    return out


def deeper_layer_bounds(lower_prev, upper_prev, A_dot, W, b):
    """Interval propagation to the next layer.

    Inputs are the previous layer's pre-activation bounds; they are
    clamped through the ReLU before propagating, and the bias shifts both
    ends of the interval.
    """
    Rbar = grad.relu(lower_prev)
    Sbar = grad.relu(upper_prev)
    Wp, Wm = grad.pos(W), grad.negpart(W)
    lower = grad.matmul(A_dot, grad.matmul(Rbar, Wp) - grad.matmul(Sbar, Wm)) + b
    upper = grad.matmul(A_dot, grad.matmul(Sbar, Wp) - grad.matmul(Rbar, Wm)) + b
    return lower, upper


def classify_partition(lower, upper) -> np.ndarray:
    """Per-entry tags; R=S=0 counts as nonpos, R=S!=0 is exact (never crossing)."""
    R, S = grad.val(lower), grad.val(upper)
    if np.any(R > S + 1e-12):
        raise ValueError("lower bound exceeds upper bound")
    tags = np.full(R.shape, CROSSING, dtype=np.int8)
    tags[R >= 0] = NONNEG
    tags[S <= 0] = NONPOS
    return tags


def compute_bounds(sp: SlicedProblem, params: GcnParams, budget: Budget) -> ActivationBounds:
    """Bounds and partition for every hidden layer l = 2..L-1."""
    return _layer_bounds(sp, params, *first_layer_bounds(sp, params, budget))


def compute_bounds_sweep(sp: SlicedProblem, params: GcnParams, budgets) -> list:
    """`compute_bounds` for each of `budgets`, which share q; the first-layer selection runs once."""
    return [_layer_bounds(sp, params, R, S) for R, S in _first_layer_sweep(sp, params, budgets)]


def _layer_bounds(sp, params, R, S) -> ActivationBounds:
    """ActivationBounds from the first-layer bounds (R, S), propagated through the deeper layers."""
    L = sp.layer_count
    lower, upper, partition = {}, {}, {}
    lower[2], upper[2] = R, S
    partition[2] = classify_partition(R, S)
    for l in range(3, L):
        R, S = deeper_layer_bounds(R, S, sp.sliced_mp[l - 2], params.weights[l - 2], params.biases[l - 2])
        lower[l], upper[l] = R, S
        partition[l] = classify_partition(R, S)
    return ActivationBounds(lower=lower, upper=upper, partition=partition)
