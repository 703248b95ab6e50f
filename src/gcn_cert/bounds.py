"""Pre-activation interval bounds and the crossing/linear neuron partition."""

from __future__ import annotations

from dataclasses import dataclass

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
    """Lower/upper pre-activation bounds per layer l = 2..L-1.

    lower[l] / upper[l] / partition[l] are indexed by layer number.
    Bound matrices may be grad.Var during training; partitions are plain
    int arrays computed from the forward values.
    """

    lower: dict
    upper: dict
    partition: dict

    def crossing_mask(self, layer: int) -> np.ndarray:
        return (self.partition[layer] == CROSSING).astype(np.float64)

    def nonneg_mask(self, layer: int) -> np.ndarray:
        return (self.partition[layer] == NONNEG).astype(np.float64)

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
    gradient flows through.
    """
    X = sp.sliced_attrs
    A1 = sp.sliced_mp[0]
    W, b = params.weights[0], params.biases[0]
    n_outer, D = X.shape

    q = budget.effective_q(D)
    Q = budget.effective_Q(n_outer, D)

    H_dot = grad.matmul(grad.matmul(A1, X), W) + b
    if q == 0 or Q == 0:
        return H_dot, H_dot

    # active features of each row, ascending, padded with the id D
    nnz = np.count_nonzero(X, axis=1)
    active = np.full((n_outer, nnz.max(initial=0)), D)
    active[np.arange(active.shape[1]) < nnz[:, None]] = np.nonzero(X)[1]

    # toggling an off feature raises unit j by W+[d, j] and lowers it by
    # W-[d, j]; toggling an active one does the reverse
    Wp, Wm = grad.pos(W), grad.negpart(W)
    A1 = grad.val(A1)
    upper = _budgeted_increase(A1, X, active, Wp, Wm, q, Q)
    lower = _budgeted_increase(A1, X, active, Wm, Wp, q, Q)
    return H_dot - lower, H_dot + upper


def _key(values, ids):
    """Complex keys -value + i*id: complex numbers order by real, then imaginary part
    (sort, partition and max alike), so ascending keys are descending values, ties to the smaller id."""
    key = np.empty(np.shape(values), dtype=np.complex128)
    key.real = -values
    key.imag = ids
    return key


def _top(values, ids, k):
    """Indices of the k largest values along the last axis, ties to the smaller id, in no particular order."""
    return np.argpartition(_key(values, ids), k - 1, axis=-1)[..., :k]


def _budgeted_increase(A1, X, active, W_off, W_on, q, Q):
    """Sum of the top-Q of {A1[m,n] * (q-largest effects of row n)} per (m,j).

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
    head = _top(off.T, np.arange(D), K)  # (h2, K)
    # candidates per (j, n): the head features that are off in row n, then
    # the row's active features; an entry of -inf is never picked
    off_eff = np.where(X[:, head] == 0, np.take_along_axis(off.T, head, axis=1), -np.inf)
    off_eff = off_eff.transpose(1, 0, 2)
    on_eff = np.vstack([on, np.full((1, h2), -np.inf)])[active].transpose(2, 0, 1)
    feat = np.concatenate(
        [np.broadcast_to(head[:, None, :], off_eff.shape), np.broadcast_to(active, on_eff.shape)], axis=2
    )  # (h2, n, K + nnz_max)
    eff = np.concatenate([off_eff, on_eff], axis=2)
    pick = _top(eff, feat, q)  # (h2, n, q)
    # the picks of unit j as one row over (n, k): (h2, n*q)
    feat = np.take_along_axis(feat, pick, axis=2).reshape(h2, n_outer * q)
    eff = np.take_along_axis(eff, pick, axis=2).reshape(h2, n_outer * q)
    is_on = (pick >= K).reshape(h2, n_outer * q)

    # top Q of the candidates A1[m, n] * eff per (m, j), ties to the
    # smaller (node, feature) id n*D + d; A1 >= 0 keeps each row's top q
    node = np.repeat(np.arange(n_outer), q)
    top = _top(A1[:, None, node] * eff, node * D + feat, Q)  # (M, h2, Q)

    coef = A1[np.arange(A1.shape[0])[:, None, None], node[top]]
    at = feat[units, top] * h2 + units  # flat index of (d, j) in W
    on_pick = is_on[units, top]
    picked = grad.gather(W_off, at) * (coef * ~on_pick) + grad.gather(W_on, at) * (coef * on_pick)
    return grad.asum(picked, axis=2)


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
    L = sp.layer_count
    lower, upper, partition = {}, {}, {}
    R, S = first_layer_bounds(sp, params, budget)
    lower[2], upper[2] = R, S
    partition[2] = classify_partition(R, S)
    for l in range(3, L):
        R, S = deeper_layer_bounds(R, S, sp.sliced_mp[l - 2], params.weights[l - 2], params.biases[l - 2])
        lower[l], upper[l] = R, S
        partition[l] = classify_partition(R, S)
    return ActivationBounds(lower=lower, upper=upper, partition=partition)
