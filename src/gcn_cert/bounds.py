"""Pre-activation interval bounds and the crossing/linear neuron partition."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import grad
from .gcn import GcnParams
from .graph_core import SlicedProblem, row_span

__all__ = [
    "Budget",
    "ActivationBounds",
    "FlipTable",
    "flip_table",
    "CROSSING",
    "NONNEG",
    "NONPOS",
    "first_layer_bounds",
    "deeper_layer_bounds",
    "classify_partition",
    "compute_bounds",
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
            raise ValueError(f"budgets must be nonnegative (q={self.local_q}, Q={self.global_Q})")

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


def first_layer_bounds(sp: SlicedProblem, params: GcnParams, budget: Budget, table=None):
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

    The selection of row m depends only on m's own neighbours, W1, q and
    Q, so a whole-graph pass selects once per node into a `FlipTable`
    (`flip_table`) and hands it here: the picks at any Q <= its Q_max are
    a prefix of its rows of ``sp.hop_sets[-2]``, else they come from the
    slice.  `cli` builds a table once per command and `Trainer` once per
    metrics row and per batch, each from the weights of that moment.  A
    table is never kept past its call: training updates W in place, and a
    kept table would go stale.
    """
    X, A1 = sp.sliced_attrs, sp.sliced_mp[0]
    W, b = params.weights[0], params.biases[0]
    n_outer, D = X.shape
    q, Q = budget.effective_q(D), budget.effective_Q(n_outer, D)

    H_dot = grad.matmul(grad.matmul(A1, X), W) + b
    if Q == 0:
        return H_dot, H_dot

    # toggling an off feature raises unit j by W+[d, j] and lowers it by
    # W-[d, j]; toggling an active one does the reverse
    Wp, Wm = grad.pos(W), grad.negpart(W)
    if table is None:
        A1 = grad.val(A1)
        nz = A1 != 0
        cols, weight = _padded_rows(np.count_nonzero(nz, axis=1), np.nonzero(nz)[1], A1[nz])
        effects = _flip_effects(X, grad.val(Wp), grad.val(Wm), q)
        up, down = (_flip_picks(cols, weight, X, eff, feat, Q) for eff, feat in effects)
    else:
        up, down = table.rows(sp.hop_sets[-2], q, Q)
    return H_dot - _pick_sum(down, Wm, Wp, Q), H_dot + _pick_sum(up, Wp, Wm, Q)


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


class _Picks(NamedTuple):
    """Each (row m, unit j)'s flip picks in descending order of effect: (rows, units, width) arrays.

    `at` is the flat index d*h + j of W[d, j], `coef` the weight A_hat[m, n]
    of the pick's node n (0 on padding) and `on` whether X[n, d] is active.
    """

    at: np.ndarray
    coef: np.ndarray
    on: np.ndarray

    @classmethod
    def zeros(cls, shape):
        return cls(np.zeros(shape, dtype=np.intp), np.zeros(shape), np.zeros(shape, dtype=bool))

    def take(self, rows):
        return _Picks(self.at[rows], self.coef[rows], self.on[rows])


def _padded_rows(lengths, cols, weights):
    """(cols, weight) arrays of rows holding `lengths` entries, from the entries' columns and weights
    row after row; rows are padded to the longest with column 0 and weight 0."""
    slots = np.arange(lengths.max(initial=0)) < lengths[:, None]
    padded_cols, padded_weights = np.zeros(slots.shape, dtype=np.intp), np.zeros(slots.shape)
    padded_cols[slots], padded_weights[slots] = cols, weights
    return padded_cols, padded_weights


# at most this many candidates in one chunk of the `_flip_effects` of `flip_table`
# (rows * h * (K + nnz_max)) and in one of its blocks (rows * slots * q * h)
_TABLE_CANDIDATES = 1 << 18


def _flip_effects(X, Wp, Wm, q, max_candidates=None):
    """Each X row's q largest toggle effects on each unit, as (eff, feat) (n, h2, q) arrays: [upper, lower].

    They come in descending order of effect, ties to the smaller feature.
    The effect of toggling X[n, d] on unit j is off[d, j] when the feature
    is off and on[d, j] when it is active; the upper bound toggles
    (off, on) = (Wp, Wm), the lower bound the reverse (numeric, >= 0).  A
    row's effects depend only on the row, W and q, so rows may be taken in
    chunks of at most `max_candidates` candidates (all at once when None)
    and each is selected once, whatever rows it is taken with.
    """
    n, D = X.shape
    h2 = Wp.shape[1]
    # active features of each X row, ascending, padded with the id D
    nnz = np.count_nonzero(X, axis=1)
    active = np.full((n, nnz.max(initial=0)), D)
    active[np.arange(active.shape[1]) < nnz[:, None]] = np.nonzero(X)[1]
    # Row n's q largest effects on unit j lie among its active features and
    # its first q off features in the order of off[:, j] (descending, ties
    # to the smaller d); at most nnz(n) active features come before those,
    # so the top q + nnz_max features of that order hold them.
    K = min(D, q + active.shape[1])
    chunk = n if max_candidates is None else max(1, max_candidates // (h2 * (K + active.shape[1])))
    sides = []
    for off, on in ((Wp, Wm), (Wm, Wp)):
        off_head, head = top_k(off.T, np.arange(D), K)  # (h2, K)
        on_pad = np.vstack([on, np.full((1, h2), -np.inf)])
        eff, feat = np.empty((n, h2, q)), np.empty((n, h2, q), dtype=np.intp)
        for start in range(0, n, chunk):
            rows = slice(start, start + chunk)
            # candidates per (n, j): the head features that are off in row n,
            # then the row's active features; an entry of -inf is never picked
            off_eff = np.where(X[rows][:, head] == 0, off_head, -np.inf)
            on_eff = on_pad[active[rows]].transpose(0, 2, 1)
            ids = np.concatenate(
                [np.broadcast_to(head, off_eff.shape), np.broadcast_to(active[rows, None, :], on_eff.shape)], axis=2
            )  # (chunk, h2, K + nnz_max)
            eff[rows], feat[rows] = top_k(np.concatenate([off_eff, on_eff], axis=2), ids, q)
        sides.append((eff, feat))
    return sides


def _flip_picks(cols, weight, X, eff, feat, Q_max) -> _Picks:
    """The first-layer flip picks of a block of A_hat rows for one bound.

    Row m of the block has the stored neighbours cols[m, s], rows of X and
    of their `_flip_effects` (eff, feat) for that bound, with weights
    weight[m, s] >= 0, ascending in node id along s; padding slots have
    weight 0.  For unit j, the candidates of row m are weight[m, s] times
    each of neighbour s's q largest toggle effects, and the picks are the
    min(Q_max, slots * q) largest, descending, ties to the smaller
    (slot, feature), which is the smaller (node, feature) id n*D + d.
    """
    M, S = cols.shape
    D = X.shape[1]
    h2, q = eff.shape[1:]
    k = min(Q_max, S * q)
    if k == 0:
        return _Picks.zeros((M, h2, 0))
    # the candidates of unit j for row m as one row over (slot, pick):
    # weight >= 0 keeps each neighbour's top q in order
    cand = (weight[:, :, None, None] * eff[cols]).transpose(0, 2, 1, 3).reshape(M, h2, S * q)
    ids = (np.arange(S)[:, None, None] * D + feat[cols]).transpose(0, 2, 1, 3).reshape(M, h2, S * q)
    _, ids = top_k(cand, ids, k)
    slot, d = np.divmod(ids, D)  # (M, h2, k)
    rows = np.arange(M)[:, None, None]
    return _Picks(d * h2 + np.arange(h2)[:, None], weight[rows, slot], X[cols[rows, slot], d] != 0)


def _pick_sum(picks: _Picks, W_off, W_on, Q):
    """The sum over each (m, j)'s first Q > 0 picks of coef times the toggled W entry.

    An off pick adds W_off[d, j] and an active one W_on[d, j]; the gathers
    keep W on the tape.  Past a row's stored picks the sum runs on over
    zero-weight padding, so it has Q terms, as a selection from the whole
    slice has (its candidates off m's neighbours have weight 0).
    """
    if Q > picks.at.shape[-1]:
        picks = [np.pad(x, [(0, 0), (0, 0), (0, Q - x.shape[-1])]) for x in picks]
    at, coef, on = (x[..., :Q] for x in picks)
    return grad.asum(grad.gather(W_off, at) * (coef * ~on) + grad.gather(W_on, at) * (coef * on), axis=2)


@dataclass(frozen=True)
class FlipTable:
    """The first-layer flip picks of a set of nodes, from `flip_table`; row i belongs to nodes[i].

    It holds no weights: a target sums W at its rows' picks
    (`first_layer_bounds`), so W stays on the tape.  It is valid only for
    the W1 it was selected from, and for its q and every Q <= Q_max.
    """

    nodes: np.ndarray  # ascending global ids
    q: int  # effective local budget
    Q_max: int
    upper: _Picks
    lower: _Picks

    def rows(self, nodes, q, Q):
        """(upper, lower) picks of `nodes`, for a target whose effective budgets are q and Q <= Q_max."""
        if q != self.q or Q > self.Q_max:
            raise ValueError(f"table built for q={self.q}, Q<={self.Q_max}; asked for q={q}, Q={Q}")
        nodes = np.asarray(nodes)
        at = np.searchsorted(self.nodes, nodes)
        found = at < self.nodes.size
        found[found] = self.nodes[at[found]] == nodes[found]
        if not found.all():
            raise ValueError(f"node {nodes[~found][0]} is not in the table")
        return self.upper.take(at), self.lower.take(at)


def flip_table(mp, attributes, params: GcnParams, budget: Budget, nodes) -> FlipTable:
    """A `FlipTable` of the A_hat rows `nodes` for `budget`'s q and Q_max = its Q, from the values of W1.

    `mp` is the graph's CSR A_hat and `attributes` its binary N x D matrix.
    Each node's picks come from its own stored neighbours (`_flip_picks`),
    so they equal the picks that any target's slice selects for it.  The
    toggle effects of every neighbour are selected once (`_flip_effects`);
    rows are then ranked in blocks of like degree, at most
    `_TABLE_CANDIDATES` candidates a block.
    """
    q, Q_max = budget.effective_q(attributes.shape[1]), budget.global_Q
    W = grad.val(params.weights[0])
    Wp, Wm = grad.pos(W), grad.negpart(W)
    h2 = W.shape[1]
    if not mp.has_sorted_indices:
        mp = mp.sorted_indices()
    nodes = np.unique(np.asarray(nodes, dtype=np.intp))
    deg = mp.indptr[nodes + 1] - mp.indptr[nodes]
    width = min(Q_max, int(deg.max(initial=0)) * q)
    if width == 0:
        empty = _Picks.zeros((nodes.size, h2, 0))
        return FlipTable(nodes, q, Q_max, empty, empty)
    # the nodes the rows read: each one's effects are selected once a side
    touched = np.unique(mp.indices[row_span(mp, nodes)[0]])
    X = attributes[touched]
    position = np.empty(mp.shape[0], dtype=np.intp)
    position[touched] = np.arange(touched.size)
    # blocks of rows of like degree; a block's slots are its last (largest) degree
    order = np.argsort(deg, kind="stable")
    blocks, start = [], 0
    while start < nodes.size:
        stop = start + 1
        while stop < nodes.size and (stop + 1 - start) * deg[order[stop]] * q * h2 <= _TABLE_CANDIDATES:
            stop += 1
        span, lengths = row_span(mp, nodes[order[start:stop]])
        blocks.append((order[start:stop], *_padded_rows(lengths, position[mp.indices[span]], mp.data[span])))
        start = stop
    sides = []
    for eff, feat in _flip_effects(X, Wp, Wm, q, _TABLE_CANDIDATES):
        side = _Picks.zeros((nodes.size, h2, width))
        for block, cols, weight in blocks:
            picks = _flip_picks(cols, weight, X, eff, feat, Q_max)
            k = picks.at.shape[-1]
            side.at[block, :, :k], side.coef[block, :, :k], side.on[block, :, :k] = picks
        sides.append(side)
    return FlipTable(nodes, q, Q_max, sides[0], sides[1])


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


def compute_bounds(sp: SlicedProblem, params: GcnParams, budget: Budget, table=None) -> ActivationBounds:
    """Bounds and partition for every hidden layer l = 2..L-1; `table` as in `first_layer_bounds`."""
    if params.layer_count != sp.layer_count:
        raise ValueError(f"params of depth L={params.layer_count} on a slice of depth L={sp.layer_count}")
    if params.layer_count < 3:
        raise ValueError(f"params of dims {params.dims} have no hidden layer; the dual bound needs one")
    R, S = first_layer_bounds(sp, params, budget, table)
    lower, upper, partition = {2: R}, {2: S}, {2: classify_partition(R, S)}
    for l in range(3, sp.layer_count):
        R, S = deeper_layer_bounds(R, S, sp.sliced_mp[l - 2], params.weights[l - 2], params.biases[l - 2])
        lower[l], upper[l], partition[l] = R, S, classify_partition(R, S)
    return ActivationBounds(lower=lower, upper=upper, partition=partition)
