import itertools

import numpy as np
import pytest
import scipy.sparse

from gcn_cert import bounds, gcn, grad
from gcn_cert.bounds import (
    CROSSING,
    NONNEG,
    NONPOS,
    Budget,
    classify_partition,
    compute_bounds,
    deeper_layer_bounds,
    first_layer_bounds,
    top_k,
)
from gcn_cert.gcn import GcnParams
from gcn_cert.graph_core import Graph, SlicedProblem, build_message_passing, first_layer_nodes, slice_problem

import oracle
from conftest import forced_tie_slice, single_node_problem
from oracle import random_tiny_instance


def _enumerated_range(sp, params, budget):
    """Exact min/max of the first pre-activation over admissible X-tilde."""
    X = sp.sliced_attrs
    n, D = X.shape
    lo = None
    hi = None
    for flips in oracle.iter_admissible(n, D, budget):
        Xt = X.copy()
        for r, d in flips:
            Xt[r, d] = 1.0 - Xt[r, d]
        H = sp.sliced_mp[0] @ Xt @ params.weights[0] + params.biases[0]
        lo = H if lo is None else np.minimum(lo, H)
        hi = H if hi is None else np.maximum(hi, H)
    return lo, hi


def _reference_first_layer_bounds(sp, params, budget):
    """The earlier dense implementation: M x n x D x h candidate tensor.

    Kept as the reference that ``first_layer_bounds`` must reproduce,
    values and gradients alike.
    """
    X = sp.sliced_attrs
    A1 = sp.sliced_mp[0]
    W, b = params.weights[0], params.biases[0]
    n_outer, D = X.shape
    M = A1.shape[0]
    h2 = grad.val(W).shape[1]
    q = budget.effective_q(D)
    Q = budget.effective_Q(n_outer, D)
    H_dot = grad.matmul(grad.matmul(A1, X), W) + b
    if q == 0 or Q == 0:
        return H_dot, H_dot
    Wp, Wm = grad.pos(W), grad.negpart(W)
    up = grad.expand_dims(1.0 - X, 2) * grad.expand_dims(Wp, 0) + grad.expand_dims(X, 2) * grad.expand_dims(Wm, 0)
    down = grad.expand_dims(X, 2) * grad.expand_dims(Wp, 0) + grad.expand_dims(1.0 - X, 2) * grad.expand_dims(Wm, 0)

    def budgeted_increase(effect):
        eff_val = grad.val(effect)
        A1_val = grad.val(A1)
        sel_mask = np.zeros((n_outer, D, h2))
        cols = np.tile(np.arange(D), (n_outer, 1))
        for j in range(h2):
            idx = np.lexsort((cols, -eff_val[:, :, j]), axis=1)[:, :q]
            np.put_along_axis(sel_mask[:, :, j], idx, 1.0, axis=1)
        cand = A1_val[:, :, None, None] * eff_val[None, :, :, :] * sel_mask[None, :, :, :]
        flat = cand.reshape(M, n_outer * D, h2)
        keep = np.zeros_like(flat)
        for m in range(M):
            for j in range(h2):
                valid = np.flatnonzero(sel_mask.reshape(n_outer * D, h2)[:, j])
                order = np.lexsort((valid, -flat[m, valid, j]))
                keep[m, valid[order[:Q]], j] = 1.0
        keep4 = keep.reshape(M, n_outer, D, h2)
        contrib = grad.expand_dims(effect, 0) * (keep4 * A1_val[:, :, None, None])
        return grad.asum(contrib, axis=(1, 2))

    return H_dot - budgeted_increase(down), H_dot + budgeted_increase(up)


def _random_first_layer_instance(rng, ties):
    """A sliced problem plus parameters and budget, built directly.

    With ``ties`` the weights are small integers (with duplicated
    columns and feature rows) and A1 has equal nonzero entries, so both
    selections meet equal values.  Some rows of X are all zero, some all
    one; q ranges past D and Q covers 1 and n*q.
    """
    n, D, M, h = (int(v) for v in rng.integers(1, [7, 9, 5, 5]))
    X = (rng.random((n, D)) < rng.choice([0.1, 0.5, 0.9])).astype(float)
    X[rng.random(n) < 0.2] = 0.0
    X[rng.random(n) < 0.2] = 1.0
    A1 = rng.random((M, n)) * (rng.random((M, n)) < 0.7)
    W = rng.normal(size=(D, h))
    if ties:
        A1 = np.where(A1 > 0, 0.5, 0.0)
        W = rng.integers(-2, 3, size=(D, h)).astype(float)
        if h > 1:
            W[:, 1] = W[:, 0]
        if D > 1:
            W[-1] = W[0]
    params = GcnParams([W, rng.normal(size=(h, 2))], [rng.normal(size=h), np.zeros(2)])
    q = int(rng.integers(0, D + 2))
    qe = min(q, D)
    Q = int(rng.choice([1, n * qe, rng.integers(1, n * qe + 2)]))
    A2 = rng.random((1, M))
    sp = SlicedProblem(
        target=0,
        layer_count=3,
        sliced_mp=[A1, A2],
        sliced_attrs=X,
        hop_sets=[np.array([0]), np.arange(M), np.arange(n)],
    )
    return sp, params, Budget(q, Q)


def test_first_layer_bounds_match_dense_reference(rng):
    """The partition-based selection equals the old 4-D one, ties included."""
    for trial in range(240):
        sp, params, budget = _random_first_layer_instance(rng, ties=trial % 3 == 0)
        R, S = first_layer_bounds(sp, params, budget)
        R_ref, S_ref = _reference_first_layer_bounds(sp, params, budget)
        np.testing.assert_allclose(R, R_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(S, S_ref, rtol=0, atol=1e-12)
        for side in (0, 1):
            G = rng.normal(size=R.shape)

            def loss(p, fn):
                return grad.asum(fn(sp, p, budget)[side] * G)

            _, got = grad.gradient(lambda p: loss(p, first_layer_bounds), params)
            _, ref = grad.gradient(lambda p: loss(p, _reference_first_layer_bounds), params)
            np.testing.assert_allclose(got.weights[0], ref.weights[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.biases[0], ref.biases[0], rtol=0, atol=1e-12)


# -- the selection as it was before `top_k`: complex keys built at each call
# site, `_reference_top_positions` (unordered) and a sort of the picks


def _reference_key(values, ids):
    """Complex keys -value + i*id: ascending keys are descending values, ties to the smaller id."""
    key = np.empty(np.shape(values), dtype=np.complex128)
    key.real = -values
    key.imag = ids
    return key


def _reference_top_positions(values, ids, k):
    """Positions of the k largest values along the last axis, ties to the smaller id, in no particular order."""
    return np.argpartition(_reference_key(values, ids), k - 1, axis=-1)[..., :k]


def _reference_top(values, ids, k):
    """(values, ids) of the `_reference_top_positions` picks, sorted by key."""
    values, ids = np.broadcast_arrays(values, ids)
    pos = _reference_top_positions(values, ids, k)
    pos = np.take_along_axis(pos, np.argsort(np.take_along_axis(_reference_key(values, ids), pos, -1), axis=-1), -1)
    return np.take_along_axis(values, pos, -1), np.take_along_axis(ids, pos, -1)


def _top_k_cases(rng):
    """(values, ids, k): forced ties, shuffled ids, -inf entries, k = 1 and k = the row length, broadcast ids."""
    for trial in range(200):
        B, n, D = (int(v) for v in rng.integers(1, [4, 5, 12]))
        values = rng.integers(0, 3, size=(B, n, D)).astype(float)  # mostly ties
        if trial % 2:
            values += rng.normal(size=values.shape) * (rng.random(values.shape) < 0.5)
        if trial % 3 == 0:
            values[rng.random(values.shape) < 0.3] = -np.inf
        k = [1, D, int(rng.integers(1, D + 1))][trial % 3]
        ids = np.arange(D)  # broadcast against every row
        if trial % 4 == 1:
            ids = np.argsort(rng.random((B, n, D)), axis=-1)  # a permutation per row, not position order
        elif trial % 4 == 2:
            ids = np.arange(D) + D * np.arange(n)[:, None]  # ids n*D + d, broadcast over B
        elif trial % 4 == 3:
            ids = rng.permutation(D)[::-1] * 7  # one shuffled order for every row
        yield values, ids, k


def test_top_k_matches_complex_key_reference(rng):
    """top_k returns the values and ids of the old selection, identical, and in key order."""
    for values, ids, k in _top_k_cases(rng):
        got_v, got_i = top_k(values, ids, k)
        ref_v, ref_i = _reference_top(values, ids, k)
        np.testing.assert_array_equal(got_v, ref_v)
        np.testing.assert_array_equal(got_i, ref_i)
        assert got_i.dtype == np.intp and got_v.shape == values.shape[:-1] + (k,)
        # the order is descending value, ties to the smaller id
        v, i = np.broadcast_arrays(values, ids)
        for row_v, row_i, top_v, top_i in zip(v.reshape(-1, v.shape[-1]), i.reshape(-1, v.shape[-1]),
                                              got_v.reshape(-1, k), got_i.reshape(-1, k)):
            order = np.lexsort((row_i, -row_v))[:k]
            np.testing.assert_array_equal(top_v, row_v[order])
            np.testing.assert_array_equal(top_i, row_i[order])


def _long_top_k_cases(rng):
    """(values, ids, k) on rows just below and at `top_k`'s float-partition length, and of length 2 879.

    Every row length, kind of values, kind of ids and k in {1, m - 1, m,
    random} meet, on (B, n) = (1, 1), (1, 3) or (3, 2) rows in turn.  Rows
    of a few values tie at the k-th value, so the float partition leaves out
    tied entries with smaller ids; the other kinds have fewer than k finite
    entries, one value, mostly zeros, or no ties.
    """
    cut = bounds._FLOAT_ROW_MIN
    combos = itertools.product([cut - 1, cut, 2879], range(5), range(3), range(4))
    for i, (D, kind, id_kind, k_kind) in enumerate(combos):
        B, n = [(1, 1), (1, 3), (3, 2)][i % 3]
        k = [1, D - 1, D, int(rng.integers(2, D - 1))][k_kind]
        if kind == 0:  # a few values
            values = rng.integers(0, 4, size=(B, n, D)).astype(float)
        elif kind == 1:  # fewer than k finite entries
            values = np.full((B, n, D), -np.inf)
            for row in values.reshape(-1, D):
                finite = rng.choice(D, size=int(rng.integers(0, k)), replace=False)
                row[finite] = rng.normal(size=finite.size)
        elif kind == 2:  # every entry equal
            values = np.full((B, n, D), rng.normal())
        elif kind == 3:  # wide ties at 0
            values = rng.normal(size=(B, n, D)) * (rng.random((B, n, D)) < 0.05)
        else:
            values = rng.normal(size=(B, n, D))
        ids = [
            np.arange(D),  # broadcast against every row
            np.argsort(rng.random((B, n, D)), axis=-1),  # a permutation per row
            np.arange(D) + D * np.arange(n)[:, None],  # ids n*D + d, broadcast over B
        ][id_kind]
        yield values, ids, k


def test_top_k_float_rows_match_complex_key_reference(rng):
    """Rows long enough for the float partition give the old selection's values and ids, identical."""
    repaired = 0
    for values, ids, k in _long_top_k_cases(rng):
        got_v, got_i = top_k(values, ids, k)
        ref_v, ref_i = _reference_top(values, ids, k)
        np.testing.assert_array_equal(got_v, ref_v)
        np.testing.assert_array_equal(got_i, ref_i)
        assert got_i.dtype == np.intp and got_v.shape == values.shape[:-1] + (k,)
        # rows whose float picks alone miss a tied entry with a smaller id
        ids = np.broadcast_to(ids, values.shape)
        pos = np.argpartition(-values, k - 1, axis=-1)[..., :k]
        repaired += np.count_nonzero(np.sort(np.take_along_axis(ids, pos, -1), -1) != np.sort(ref_i, -1))
    assert repaired > 0


def _peel_cases(rng):
    """(values, ids, k) on rows just below and at `top_k`'s argmax-peeling length, and of length 300 and 2 879.

    Every row length, k in 1..`_PEEL_K_MAX` and kind of values meet, on
    (B, n) = (1, 1), (1, 3) or (3, 2) rows in turn.  The kinds are ties at
    the first, the k-th and the (k+1)-th value (a tie at the k-th value
    straddles the k picks), wide ties at 0, rows of one value, rows holding
    -inf, and rows with fewer than k finite entries.  The ids ascend, as
    positions or with gaps.
    """
    cut = bounds._PEEL_ROW_MIN
    combos = itertools.product([cut - 1, cut, 300, 2879], range(1, bounds._PEEL_K_MAX + 1), range(7))
    for i, (D, k, kind) in enumerate(combos):
        B, n = [(1, 1), (1, 3), (3, 2)][i % 3]
        values = rng.normal(size=(B, n, D))
        if kind < 3:  # a tie at the first, k-th or (k+1)-th value, reached from a larger position too
            rank = [0, k - 1, k][kind]
            for row in values.reshape(-1, D):
                order = np.argsort(-row)
                tied = np.append(order[rank : rank + 2], rng.integers(D))
                row[tied] = row[order[rank]]
        elif kind == 3:  # wide ties at 0
            values = np.maximum(values, 0.0) * (rng.random((B, n, D)) < 0.01)
        elif kind == 4:  # every entry equal
            values[:] = rng.normal()
        elif kind == 5:  # -inf entries, some among the top k
            values[rng.random((B, n, D)) < 0.3] = -np.inf
            values[..., :k] = -np.inf
        else:  # fewer than k finite entries
            values = np.full((B, n, D), -np.inf)
            for row in values.reshape(-1, D):
                finite = rng.choice(D, size=int(rng.integers(0, k)), replace=False)
                row[finite] = rng.normal(size=finite.size)
        ids = np.arange(D) if i % 2 else np.cumsum(rng.integers(1, 4, size=D))
        yield values, ids, k


def test_top_k_argmax_peeling_matches_complex_key_reference(rng, peel_calls):
    """Rows long enough for argmax peeling give the old selection's values and ids, identical."""
    reached_inf = 0
    for values, ids, k in _peel_cases(rng):
        before = len(peel_calls)
        got_v, got_i = top_k(values, ids, k)
        ref_v, ref_i = _reference_top(values, ids, k)
        np.testing.assert_array_equal(got_v, ref_v)
        np.testing.assert_array_equal(got_i, ref_i)
        assert got_i.dtype == np.intp and got_v.shape == values.shape[:-1] + (k,)
        assert (len(peel_calls) > before) == (values.shape[-1] >= bounds._PEEL_ROW_MIN)
        # rows whose k picks reach a -inf entry, which peeling alone would pick twice
        reached_inf += np.count_nonzero(ref_v[..., -1] == -np.inf)
    assert reached_inf > 0


def test_top_k_argmax_peeling_only_for_one_ascending_id_row(rng, peel_calls):
    """2-D ids, 1-D ids that do not strictly ascend, and k > `_PEEL_K_MAX` keep the partition paths."""
    D = 300
    values = rng.integers(0, 3, size=(2, 3, D)).astype(float)
    swapped = np.arange(D)
    swapped[[5, 9]] = swapped[[9, 5]]
    cases = [
        (np.arange(D)[::-1], 3),  # descending
        (swapped, 2),  # ascending but for one swap
        (np.repeat(np.arange(D // 2), 2), 1),  # ascending, not strictly
        (np.broadcast_to(np.arange(D), (3, D)), 3),  # ascending, but 2-D
        (np.arange(D) + D * np.arange(3)[:, None], 3),  # ids n*D + d
        (np.arange(D), bounds._PEEL_K_MAX + 1),
    ]
    for ids, k in cases:
        got_v, got_i = top_k(values, ids, k)
        ref_v, ref_i = _reference_top(values, ids, k)
        np.testing.assert_array_equal(got_v, ref_v)
        np.testing.assert_array_equal(got_i, ref_i)
    assert not peel_calls


def test_top_k_returns_c_contiguous_arrays_on_every_path(rng, peel_calls):
    """Argmax peeling, the key partition and the float partition each return C-contiguous values and ids.

    Small-integer values tie often, so the float path's tie repair runs; a
    row of -inf entries sends the peeling path to its key repair.
    """
    for m, k, peeled in [(300, 3, True), (100, 3, False), (2 * bounds._FLOAT_ROW_MIN, 5, False)]:
        values = rng.integers(0, 3, size=(6, 24, m)).astype(float)
        values[0, 0] = -np.inf
        before = len(peel_calls)
        got_v, got_i = top_k(values, np.arange(m), k)
        assert (len(peel_calls) > before) == peeled
        ref_v, ref_i = _reference_top(values, np.arange(m), k)
        np.testing.assert_array_equal(got_v, ref_v)
        np.testing.assert_array_equal(got_i, ref_i)
        assert got_v.flags.c_contiguous and got_i.flags.c_contiguous, (m, k, got_v.strides, got_i.strides)


def _reference_budgeted_increase(A1, X, active, W_off, W_on, q, Qs):
    """`bounds._budgeted_increase` as it was before `top_k`, selecting on its own complex keys."""
    n_outer, D = X.shape
    off, on = grad.val(W_off), grad.val(W_on)
    h2 = off.shape[1]
    units = np.arange(h2)[:, None]
    K = min(D, q + active.shape[1])
    head = _reference_top_positions(off.T, np.arange(D), K)  # (h2, K)
    off_eff = np.where(X[:, head] == 0, np.take_along_axis(off.T, head, axis=1), -np.inf)
    off_eff = off_eff.transpose(1, 0, 2)
    on_eff = np.vstack([on, np.full((1, h2), -np.inf)])[active].transpose(2, 0, 1)
    feat = np.concatenate(
        [np.broadcast_to(head[:, None, :], off_eff.shape), np.broadcast_to(active, on_eff.shape)], axis=2
    )
    eff = np.concatenate([off_eff, on_eff], axis=2)
    pick = _reference_top_positions(eff, feat, q)  # (h2, n, q)
    feat = np.take_along_axis(feat, pick, axis=2).reshape(h2, n_outer * q)
    eff = np.take_along_axis(eff, pick, axis=2).reshape(h2, n_outer * q)
    node = np.repeat(np.arange(n_outer), q)
    Q_max = max(Qs)
    key = _reference_key(A1[:, None, node] * eff, node * D + feat)
    top = np.sort(np.partition(key, Q_max - 1, axis=-1)[..., :Q_max], axis=-1)
    n_top, d_top = np.divmod(top.imag.astype(np.intp), D)
    coef = A1[np.arange(A1.shape[0])[:, None, None], n_top]
    at = d_top * h2 + units
    on_pick = X[n_top, d_top] != 0
    out = {}
    for Q in sorted(set(Qs) - {0}):
        c, a, o = coef[..., :Q], at[..., :Q], on_pick[..., :Q]
        out[Q] = grad.asum(grad.gather(W_off, a) * (c * ~o) + grad.gather(W_on, a) * (c * o), axis=2)
    return out


def _reference_first_layer_sweep(sp, params, budgets):
    """The first-layer bounds of each of `budgets`, which share q, as selected before selection went per
    node: each (m, j) ranks all n*q candidates of the slice, zero-weight ones included, once at the largest
    Q, by `_reference_budgeted_increase`, and each budget sums its prefix."""
    X = sp.sliced_attrs
    A1 = sp.sliced_mp[0]
    W, b = params.weights[0], params.biases[0]
    n_outer, D = X.shape
    q = budgets[0].effective_q(D)
    Qs = [bud.effective_Q(n_outer, D) for bud in budgets]
    H_dot = grad.matmul(grad.matmul(A1, X), W) + b
    if q == 0 or max(Qs) == 0:
        return [(H_dot, H_dot)] * len(budgets)
    nnz = np.count_nonzero(X, axis=1)
    active = np.full((n_outer, nnz.max(initial=0)), D)
    active[np.arange(active.shape[1]) < nnz[:, None]] = np.nonzero(X)[1]
    Wp, Wm = grad.pos(W), grad.negpart(W)
    upper = _reference_budgeted_increase(A1, X, active, Wp, Wm, q, Qs)
    lower = _reference_budgeted_increase(A1, X, active, Wm, Wp, q, Qs)
    return [(H_dot - lower[Q], H_dot + upper[Q]) if Q else (H_dot, H_dot) for Q in Qs]


def _slice_table(sp, params, budget):
    """A `FlipTable` of the first-layer rows of a hand-built L = 3 slice: its A1 block as rows 0..M-1
    of an n x n CSR matrix, so row m's stored entries are A1[m]'s nonzeros."""
    A1, X = sp.sliced_mp[0], sp.sliced_attrs
    M, n = A1.shape
    mp = scipy.sparse.csr_array(np.vstack([A1, np.zeros((n - M, n))]))
    return bounds.flip_table(mp, X.astype(bool), params, budget, sp.hop_sets[1])


@pytest.mark.parametrize(
    "D, h, q, Qs",
    [
        (2879, 16, 29, [0, 1, 12, 29 * 30]),
        (2879, 16, 3000, [40, 2879]),
        (300, 32, 3, [1, 12, 90]),
        (300, 32, 1, [5]),
        # the W-column head just below and at top_k's float-partition length
        (bounds._FLOAT_ROW_MIN - 1, 16, 29, [0, 12, 29 * 30]),
        (bounds._FLOAT_ROW_MIN, 32, 3, [1, 12, 90]),
    ],
)
def test_first_layer_picks_match_complex_key_reference_on_forced_ties(D, h, q, Qs):
    """Cora-ML- and certify-pga-shape slices with forced ties: the same picks as the old selection.

    The picks decide which W entries each bound's gradient reaches, so
    bitwise-equal bounds and W/b gradients on the tape mean equal picks.
    `first_layer_bounds` at each Q, with the picks from the slice and from
    one `FlipTable` built inside the loss at the largest Q, from the
    weights' values as training builds it, is checked against the old
    whole-slice selection of that Q alone; Q = 29 * 30 runs past every
    row's own n*q candidates.
    """
    rng = np.random.default_rng(D + q)
    sp, params = forced_tie_slice(rng, n=30, M=9, D=D, h=h, K=7)
    budgets = [Budget(q, Q) for Q in Qs]
    G = rng.normal(size=(len(Qs), 2, 9, h))

    def run(first_layer, with_table=False):
        def loss(p):
            table = (_slice_table(sp, p, Budget(q, max(Qs))),) if with_table else ()
            bnds = [first_layer(sp, p, budget, *table) for budget in budgets]
            out.append([(grad.val(R), grad.val(S)) for R, S in bnds])
            return sum(grad.asum(R * g[0]) + grad.asum(S * g[1]) for (R, S), g in zip(bnds, G))

        out = []
        _, grads = grad.gradient(loss, params)
        return out[0], grads

    runs = [run(first_layer_bounds), run(first_layer_bounds, with_table=True)]
    ref, ref_grads = run(lambda sp, p, budget: _reference_first_layer_sweep(sp, p, [budget])[0])
    for got, got_grads in runs:
        for (R, S), (R_ref, S_ref) in zip(got, ref, strict=True):
            np.testing.assert_array_equal(R, R_ref)
            np.testing.assert_array_equal(S, S_ref)
        for a, b in zip(got_grads.weights + got_grads.biases, ref_grads.weights + ref_grads.biases):
            np.testing.assert_array_equal(a, b)


def _random_graph_problem(rng, ties):
    """A random graph with isolated nodes, a GCN of one or two hidden layers and a budget.

    q runs past D and Q past N*q; with ``ties`` the weights are small
    integers, so many flip effects are equal.
    """
    N, D = int(rng.integers(4, 15)), int(rng.integers(2, 9))
    A = np.triu(rng.random((N, N)) < 0.25, 1)
    A[:, rng.integers(N)] = A[rng.integers(N)] = False  # at least one isolated node
    A = A | A.T
    X = rng.random((N, D)) < rng.choice([0.1, 0.5, 0.9])
    graph = Graph(num_nodes=N, num_features=D, num_classes=3, adjacency=A.astype(float), attributes=X)
    dims = [D, *rng.integers(1, 6, size=int(rng.integers(1, 3))), 3]
    params = gcn.glorot_params(dims, seed=int(rng.integers(2**31)))
    if ties:
        params.weights[0][...] = rng.integers(-2, 3, size=params.weights[0].shape)
    q = int(rng.choice([1, D, D + 2, rng.integers(1, D + 1)]))
    Q = int(rng.choice([1, rng.integers(1, N * min(q, D) + 1), N * min(q, D) + 3]))
    return graph, params, Budget(q, Q)


def test_compute_bounds_from_a_graph_table_equals_the_slice_on_every_node(rng):
    """On every node of random graphs, bounds from a whole-graph `FlipTable` equal the bounds selected
    from the node's slice, bitwise, values and the gradients of a random loss on them alike."""
    for trial in range(60):
        graph, params, budget = _random_graph_problem(rng, ties=trial % 2 == 0)
        mp = build_message_passing(graph)
        L = params.layer_count
        table = bounds.flip_table(mp, graph.attributes, params, budget, np.arange(graph.num_nodes))
        for t in range(graph.num_nodes):
            sp = slice_problem(graph, mp, t, L)
            got = compute_bounds(sp, params, budget, table)
            ref = compute_bounds(sp, params, budget)
            for l in ref.layers():
                for a, b in ((got.lower[l], ref.lower[l]), (got.upper[l], ref.upper[l])):
                    np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(got.partition[l], ref.partition[l])
            G = {l: rng.normal(size=(2, *ref.lower[l].shape)) for l in ref.layers()}

            def loss(p, table):
                bnds = compute_bounds(sp, p, budget, table)
                return sum(grad.asum(bnds.lower[l] * g[0] + bnds.upper[l] * g[1]) for l, g in G.items())

            got_v, got_g = grad.gradient(lambda p: loss(p, table), params)
            ref_v, ref_g = grad.gradient(lambda p: loss(p, None), params)
            assert got_v == ref_v
            for a, b in zip(got_g.weights + got_g.biases, ref_g.weights + ref_g.biases, strict=True):
                np.testing.assert_array_equal(a, b)


def test_flip_table_sorts_unsorted_column_indices(rng):
    """A CSR A_hat whose rows store their columns in descending order gives the picks of the sorted one, bitwise."""
    for trial in range(20):
        graph, params, budget = _random_graph_problem(rng, ties=trial % 2 == 0)
        mp = build_message_passing(graph)
        # each row's stored entries reversed; rows keep their (column, weight) pairs
        order = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(mp.indptr[:-1], mp.indptr[1:])])
        unsorted = scipy.sparse.csr_array((mp.data[order], mp.indices[order], mp.indptr), shape=mp.shape)
        assert not unsorted.has_sorted_indices
        nodes = np.arange(graph.num_nodes)
        got = bounds.flip_table(unsorted, graph.attributes, params, budget, nodes)
        ref = bounds.flip_table(mp, graph.attributes, params, budget, nodes)
        for side in ("upper", "lower"):
            for a, b in zip(getattr(got, side), getattr(ref, side), strict=True):
                np.testing.assert_array_equal(a, b)


def test_flip_table_serves_its_nodes_at_its_budget_only():
    """`first_layer_nodes` is the union of the targets' ``hop_sets[-2]``; a table of those rows serves
    those targets, at its own q and at every Q up to its own, and names a node it lacks."""
    graph = Graph(num_nodes=6, num_features=2, num_classes=2, adjacency=np.eye(6, k=1) + np.eye(6, k=-1),
                  attributes=np.eye(6, 2))  # the path 0 - 1 - ... - 5
    mp = build_message_passing(graph)
    for L, rows in ((2, [0, 5]), (3, [0, 1, 4, 5]), (4, [0, 1, 2, 3, 4, 5])):
        np.testing.assert_array_equal(first_layer_nodes(mp, [0, 5], L), rows)
    params = gcn.glorot_params([2, 3, 2, 2], seed=0)  # L = 4: the first layer reads N_2(t)
    rows = first_layer_nodes(mp, [0, 1], 4)
    np.testing.assert_array_equal(rows, [0, 1, 2, 3])
    table = bounds.flip_table(mp, graph.attributes, params, Budget(1, 2), rows)
    for t, Q in itertools.product((0, 1), (0, 1, 2)):
        sp = slice_problem(graph, mp, t, 4)
        got, ref = compute_bounds(sp, params, Budget(1, Q), table), compute_bounds(sp, params, Budget(1, Q))
        np.testing.assert_array_equal(got.upper[2], ref.upper[2])
    with pytest.raises(ValueError, match="table built for q=1, Q<=2; asked for q=2, Q=2"):
        compute_bounds(sp, params, Budget(2, 2), table)
    with pytest.raises(ValueError, match="asked for q=1, Q=3"):
        first_layer_bounds(sp, params, Budget(1, 3), table)
    for t in (2, 5):  # N_2(2) and N_2(5) both hold node 4, which neither target reads
        with pytest.raises(ValueError, match="node 4 is not in the table"):
            compute_bounds(slice_problem(graph, mp, t, 4), params, Budget(1, 2), table)


def test_a_table_built_at_Q_max_gives_the_slice_bounds_at_every_smaller_Q(rng):
    """A whole-graph `FlipTable` built at a budget's Q serves every node at each Q <= it, zero included:
    `first_layer_bounds` reads a prefix of each row's picks and equals the slice's selection, bitwise."""
    for trial in range(30):
        graph, params, budget = _random_graph_problem(rng, ties=trial % 2 == 0)
        mp = build_message_passing(graph)
        table = bounds.flip_table(mp, graph.attributes, params, budget, np.arange(graph.num_nodes))
        Q_max = budget.global_Q
        for t, Q in itertools.product(range(graph.num_nodes), sorted({0, 1, Q_max // 2, Q_max - 1, Q_max})):
            sp = slice_problem(graph, mp, t, params.layer_count)
            got = first_layer_bounds(sp, params, Budget(budget.local_q, Q), table)
            ref = first_layer_bounds(sp, params, Budget(budget.local_q, Q))
            for a, b in zip(got, ref, strict=True):
                np.testing.assert_array_equal(a, b)


def _assert_each_budget_matches_the_reference(sp, params, q, Q_max, rng):
    """first_layer_bounds at each Q = 0..Q_max against one `_reference_first_layer_sweep` over every Q, in
    shuffled order, bitwise."""
    budgets = [Budget(q, int(Q)) for Q in rng.permutation(Q_max + 1)]
    for budget, (R_ref, S_ref) in zip(budgets, _reference_first_layer_sweep(sp, params, budgets), strict=True):
        R, S = first_layer_bounds(sp, params, budget)
        np.testing.assert_array_equal(R, R_ref)
        np.testing.assert_array_equal(S, S_ref)


def test_first_layer_bounds_match_the_reference_at_every_budget(rng):
    """`first_layer_bounds` of each Q alone gives the bounds that the old whole-slice selection gives
    that Q from one ranking at the largest Q.

    Forced-tie first-layer instances with q = 0, q = D, q = D + 1 and
    random q, and tiny two- and three-layer GCNs; Q runs from 0 past n*q.
    """
    for trial in range(90):
        sp, params, budget = _random_first_layer_instance(rng, ties=trial % 3 != 2)
        n, D = sp.sliced_attrs.shape
        q = [0, D, D + 1, budget.local_q][trial % 4]
        _assert_each_budget_matches_the_reference(sp, params, q, n * min(q, D) + 2, rng)
    for trial in range(20):
        sp, params, budget = random_tiny_instance(rng, hidden_layers=1 + trial % 2)
        n, D = sp.sliced_attrs.shape
        _assert_each_budget_matches_the_reference(sp, params, budget.local_q, n * min(budget.local_q, D) + 1, rng)


def test_budget_validation_and_clamping():
    with pytest.raises(ValueError):
        Budget(-1, 0)
    b = Budget(5, 100)
    assert b.effective_q(3) == 3
    assert b.effective_Q(4, 3) == 12
    assert Budget(1, 2).effective_Q(10, 5) == 2


def test_zero_budget_bounds_collapse(rng):
    sp, params, _ = random_tiny_instance(rng)
    R, S = first_layer_bounds(sp, params, Budget(0, 5))
    H = sp.sliced_mp[0] @ sp.sliced_attrs @ params.weights[0] + params.biases[0]
    np.testing.assert_array_equal(R, H)
    np.testing.assert_array_equal(S, H)


def test_first_layer_hand_example():
    sp = single_node_problem([0, 0])
    params = GcnParams(
        [np.array([[2.0], [-1.0]]), np.array([[1.0, 0.0]])],
        [np.zeros(1), np.zeros(2)],
    )
    R, S = first_layer_bounds(sp, params, Budget(1, 1))
    assert S[0, 0] == pytest.approx(2.0)
    assert R[0, 0] == pytest.approx(-1.0)


def test_all_ones_attrs_nonnegative_weights_cannot_increase():
    sp = single_node_problem([1, 1])
    params = GcnParams(
        [np.array([[0.5], [2.0]]), np.array([[1.0, 0.0]])],
        [np.array([0.3]), np.zeros(2)],
    )
    R, S = first_layer_bounds(sp, params, Budget(2, 2))
    H = sp.sliced_mp[0] @ sp.sliced_attrs @ params.weights[0] + params.biases[0]
    np.testing.assert_allclose(S, H)
    assert np.all(R <= H)


def test_first_layer_tightness_against_enumeration(rng):
    for _ in range(30):
        sp, params, budget = random_tiny_instance(rng)
        R, S = first_layer_bounds(sp, params, budget)
        lo, hi = _enumerated_range(sp, params, budget)
        np.testing.assert_allclose(R, lo, atol=1e-9)
        np.testing.assert_allclose(S, hi, atol=1e-9)


def test_bounds_monotone_in_budget(rng):
    sp, params, _ = random_tiny_instance(rng)
    prev = None
    for Q in range(4):
        R, S = first_layer_bounds(sp, params, Budget(2, Q))
        if prev is not None:
            assert np.all(S >= prev[1] - 1e-12)
            assert np.all(R <= prev[0] + 1e-12)
        prev = (R, S)
    R1, S1 = first_layer_bounds(sp, params, Budget(1, 3))
    R2, S2 = first_layer_bounds(sp, params, Budget(2, 3))
    assert np.all(S2 >= S1 - 1e-12)
    assert np.all(R2 <= R1 + 1e-12)


def test_deeper_bounds_nonnegative_weights_formula(rng):
    lower = rng.normal(size=(2, 3))
    upper = lower + rng.random((2, 3))
    A = rng.random((2, 2))
    W = rng.random((3, 2))  # W >= 0
    b = rng.normal(size=2)
    R, S = deeper_layer_bounds(lower, upper, A, W, b)
    np.testing.assert_allclose(S, A @ np.maximum(upper, 0.0) @ W + b)
    np.testing.assert_allclose(R, A @ np.maximum(lower, 0.0) @ W + b)


def test_deeper_bounds_degenerate_interval_is_exact(rng):
    H = np.abs(rng.normal(size=(2, 3)))
    A = rng.random((2, 2))
    W = rng.normal(size=(3, 2))
    b = rng.normal(size=2)
    R, S = deeper_layer_bounds(H, H, A, W, b)
    np.testing.assert_allclose(R, S, atol=1e-12)
    np.testing.assert_allclose(R, A @ H @ W + b, atol=1e-12)


def test_deeper_bounds_sound_for_sampled_activations(rng):
    for _ in range(20):
        lower = rng.normal(size=(3, 4))
        upper = lower + rng.random((3, 4))
        A = rng.random((2, 3))
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        R, S = deeper_layer_bounds(lower, upper, A, W, b)
        for _ in range(50):
            H = lower + rng.random(lower.shape) * (upper - lower)
            out = A @ np.maximum(H, 0.0) @ W + b
            assert np.all(out >= R - 1e-9)
            assert np.all(out <= S + 1e-9)


def test_classify_partition_tags():
    R = np.array([[-1.0, 0.0, 0.0, -2.0]])
    S = np.array([[2.0, 3.0, 0.0, -1.0]])
    tags = classify_partition(R, S)
    assert list(tags[0]) == [CROSSING, NONNEG, NONPOS, NONPOS]
    with pytest.raises(ValueError, match="lower bound"):
        classify_partition(np.array([[1.0]]), np.array([[0.0]]))


def test_compute_bounds_contains_exact_hidden_range(rng):
    for _ in range(15):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        X = sp.sliced_attrs
        n, D = X.shape
        for flips in oracle.iter_admissible(n, D, budget):
            Xt = X.copy()
            for r, d in flips:
                Xt[r, d] = 1.0 - Xt[r, d]
            H = sp.sliced_mp[0] @ Xt @ params.weights[0] + params.biases[0]
            assert np.all(H >= bnds.lower[2] - 1e-9)
            assert np.all(H <= bnds.upper[2] + 1e-9)
        assert (bnds.partition[2] == CROSSING).sum() == bnds.cross[2].sum()
        assert bnds.layers() == [2]
