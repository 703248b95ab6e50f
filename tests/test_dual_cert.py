import dataclasses
import functools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gcn_cert import bounds, dual_cert, gcn, grad, primal_attack
from gcn_cert.bounds import CROSSING, NONNEG, ActivationBounds, Budget, classify_partition, compute_bounds
from gcn_cert.dual_cert import (
    DualState,
    NON_ROBUST,
    ROBUST,
    UNDECIDED,
    backward_phi,
    certify,
    class_vector,
    closed_form_eta_rho,
    competing_classes,
    dual_state,
    dual_states,
    dual_value_differentiable,
    evaluate_dual,
    margin_vector,
    optimize_omega,
    status_curve,
)

import oracle
from conftest import bisection_probes, forced_tie_slice
from oracle import random_tiny_instance


def _bounds_from(R, S):
    R, S = np.asarray(R, dtype=float), np.asarray(S, dtype=float)
    return ActivationBounds(lower={2: R}, upper={2: S}, partition={2: classify_partition(R, S)})


def test_default_omega_values():
    """The default Omega is the bounds' envelope slope S / (S - R)."""
    bnds = _bounds_from([[-2.0, -1.0, -3.0]], [[2.0, 3.0, 1.0]])
    np.testing.assert_allclose(bnds.slope[2], [[0.5, 0.75, 0.25]])


def test_default_omega_zero_outside_crossing():
    bnds = _bounds_from([[1.0, -2.0]], [[3.0, -1.0]])
    om = bnds.slope[2]
    assert om[0, 0] == 0.0 and om[0, 1] == 0.0


def test_backward_phi_zero_c(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    phi, phi_hat, delta = backward_phi(sp, params, bnds, bnds.slope, np.zeros(params.dims[-1]))
    assert all(np.all(p == 0) for p in phi.values())
    assert all(np.all(p == 0) for p in phi_hat.values())
    assert np.all(delta == 0)


def test_backward_phi_last_layer_is_minus_c(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    c = class_vector(0, 1, params.dims[-1])
    phi, _, _ = backward_phi(sp, params, bnds, bnds.slope, c)
    np.testing.assert_array_equal(phi[sp.layer_count], -c.reshape(1, -1))


def test_backward_phi_exact_on_nonnegative_partition(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    # force every hidden entry into the exactly-linear nonnegative case
    shape = np.asarray(bnds.lower[2]).shape
    bnds = _bounds_from(np.full(shape, 0.5), np.full(shape, 2.0))
    c = class_vector(0, 1, params.dims[-1])
    phi, phi_hat, _ = backward_phi(sp, params, bnds, bnds.slope, c)
    np.testing.assert_allclose(phi[2], phi_hat[2])


def test_delta_nonnegative_always(rng):
    for _ in range(100):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        c = class_vector(0, params.dims[-1] - 1, params.dims[-1])
        _, _, delta = backward_phi(sp, params, bnds, bnds.slope, c)
        assert np.all(delta >= 0.0)


def _pairs(picks, D):
    """The (node, feature) pairs of one row of closed_form_eta_rho's picks, in order."""
    return [divmod(i, D) for i in picks.tolist()]


def _positive(pairs, delta):
    """The pairs whose delta entry is > 0, in order: the flips of a DualState whose picks are `pairs`."""
    return [(n, d) for n, d in pairs if delta[n, d] > 0]


def _states_from_closed_form(delta, budget):
    """The DualStates `_state` builds for each row of the stack delta (B, n, D), from closed_form_eta_rho alone."""
    eta, rho, picks, info = closed_form_eta_rho(delta, budget)
    p = dual_cert._Pass({}, {}, delta, eta, rho, None, np.zeros(len(delta)), picks, info)
    return [dual_cert._state(p, b, {}) for b in range(len(delta))]


def _closed_form_row(delta, budget):
    """(eta, rho, picks as pairs, flips) of closed_form_eta_rho on the one-row stack delta[None]."""
    eta, rho, picks, _ = closed_form_eta_rho(delta[None], budget)
    (st_,) = _states_from_closed_form(delta[None], budget)
    return eta[0], rho[0], _pairs(picks[0], delta.shape[1]), st_.flips


def test_closed_form_eta_rho_examples():
    delta = np.array([[3.0, 1.0], [2.0, 0.0]])
    eta, rho, s_q, flips = _closed_form_row(delta, Budget(1, 1))
    assert rho == 3.0
    np.testing.assert_array_equal(eta, [0.0, 0.0])
    assert s_q == flips == [(0, 0)]

    eta, rho, s_q, flips = _closed_form_row(delta, Budget(1, 2))
    assert rho == 2.0
    np.testing.assert_array_equal(eta, [1.0, 0.0])
    assert sorted(s_q) == [(0, 0), (1, 0)] and flips == s_q

    # a pick with delta = 0 is not a flip
    eta, rho, s_q, flips = _closed_form_row(np.array([[3.0, 1.0], [0.0, 0.0]]), Budget(1, 2))
    assert s_q == [(0, 0), (1, 0)] and flips == [(0, 0)]


def test_closed_form_eta_rho_degenerate():
    delta = np.zeros((2, 3))
    eta, rho, s_q, flips = _closed_form_row(delta, Budget(2, 2))
    assert rho == 0.0 and np.all(eta == 0.0) and len(s_q) == 2 and flips == []

    eta, rho, s_q, flips = _closed_form_row(np.ones((2, 3)), Budget(0, 2))
    assert rho == 0.0 and np.all(eta == 0.0) and s_q == flips == []
    eta, rho, s_q, flips = _closed_form_row(np.ones((2, 3)), Budget(2, 0))
    assert rho == 0.0 and np.all(eta == 0.0) and s_q == flips == []


def _reduced_dual(delta, eta, rho, q, Q):
    psi = np.maximum(delta - eta[:, None] - rho, 0.0)
    return -psi.sum() - q * eta.sum() - Q * rho


@settings(max_examples=60, deadline=None)
@given(
    delta=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4),
        elements=st.floats(0.0, 10.0),
    ),
    q=st.integers(1, 2),
    Q=st.integers(1, 4),
)
def test_closed_form_eta_rho_beats_breakpoint_grid(delta, q, Q):
    budget = Budget(q, Q)
    n, D = delta.shape
    eta, rho, _, _ = _closed_form_row(delta, budget)
    qe, Qe = budget.effective_q(D), budget.effective_Q(n, D)
    best = _reduced_dual(delta, eta, rho, qe, Qe)
    for rho_c in np.concatenate([[0.0], delta.ravel()]):
        o = -np.sort(-delta, axis=1)[:, qe - 1]
        eta_c = np.maximum(0.0, o - rho_c)
        assert best >= _reduced_dual(delta, eta_c, rho_c, qe, Qe) - 1e-9


def test_evaluate_dual_zero_c_is_zero(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    st_ = dual_state(sp, params, bnds, budget, np.zeros(params.dims[-1]))
    assert st_.value == pytest.approx(0.0, abs=1e-12)


def test_zero_budget_dual_equals_clean_margin(rng):
    for _ in range(10):
        sp, params, _ = random_tiny_instance(rng)
        budget = Budget(2, 0)
        bnds = compute_bounds(sp, params, budget)
        logits = gcn.forward_sliced(sp, params).logits
        K = params.dims[-1]
        c = class_vector(0, K - 1, K)
        st_ = dual_state(sp, params, bnds, budget, c)
        assert st_.value == pytest.approx(float(logits[0] - logits[K - 1]), abs=1e-9)
        assert np.all(dual_cert._dual_pass(sp, params, bnds, budget, c[None], bnds.slope).psi == 0.0)


def test_weak_duality_against_enumeration(rng):
    for _ in range(25):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        K = params.dims[-1]
        y_star = gcn.predict(gcn.forward_sliced(sp, params))
        for k in range(K):
            if k == y_star:
                continue
            st_ = dual_state(sp, params, bnds, budget, class_vector(y_star, k, K))
            exact = oracle.enumerate_exact_margin(sp, params, budget, y_star, k)
            assert st_.value <= exact + 1e-9


def test_dual_scaling_in_c_with_fixed_omega(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    K = params.dims[-1]
    c = class_vector(0, K - 1, K)
    a = dual_state(sp, params, bnds, budget, c)
    b = dual_state(sp, params, bnds, budget, 2.0 * c)
    assert b.value == pytest.approx(2.0 * a.value, rel=1e-9, abs=1e-9)


def test_dual_state_invariants(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    K = params.dims[-1]
    c = class_vector(0, 1, K)
    st_ = dual_state(sp, params, bnds, budget, c)
    p = dual_cert._dual_pass(sp, params, bnds, budget, c[None], bnds.slope)
    eta, rho, psi, delta = p.eta[0], p.rho[0], p.psi[0], p.delta[0]
    assert np.all(eta >= 0.0) and rho >= 0.0
    assert np.all(delta >= 0.0)
    assert st_.value == p.g[0] and st_.flips == _positive(_pairs(p.picks[0], delta.shape[1]), delta)
    np.testing.assert_allclose(psi, np.maximum(delta - eta[:, None] - rho, 0.0), atol=1e-12)
    for l, om in st_.omega.items():
        assert np.all((om >= 0.0) & (om <= 1.0))


def test_optimize_omega_zero_steps_matches_default(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    c = class_vector(0, 1, params.dims[-1])
    base = dual_state(sp, params, bnds, budget, c)
    opt = optimize_omega(sp, params, bnds, budget, c, steps=0)
    assert opt.value == pytest.approx(base.value, abs=1e-12)


def test_optimize_omega_never_degrades(rng):
    for _ in range(10):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        c = class_vector(0, 1, params.dims[-1])
        base = dual_state(sp, params, bnds, budget, c)
        opt = optimize_omega(sp, params, bnds, budget, c, steps=30)
        assert opt.value >= base.value - 1e-12


def test_margin_vector_definition(rng):
    for _ in range(10):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        K = params.dims[-1]
        y = int(rng.integers(K))
        mv = margin_vector(sp, params, bnds, budget, y)
        assert isinstance(mv, np.ndarray) and mv.shape == (K,)
        assert mv[y] == 0.0
        for k in range(K):
            if k != y:
                assert mv[k] == -dual_state(sp, params, bnds, budget, class_vector(y, k, K)).value
    with pytest.raises(ValueError, match="out of range"):
        margin_vector(sp, params, bnds, budget, K + 3)


def test_competing_classes_rejects_a_class_out_of_range():
    others, C = competing_classes(1, 3)
    np.testing.assert_array_equal(others, [0, 2])
    np.testing.assert_array_equal(C, [[-1.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
    for y in (3, -1):
        with pytest.raises(ValueError, match="out of range"):
            competing_classes(y, 3)


def test_dual_states_rejects_the_tape(rng):
    """dual_states holds values; Var params raise rather than drop the tape."""
    sp, params, budget = random_tiny_instance(rng)
    _, C = competing_classes(0, params.dims[-1])
    shadow = dataclasses.replace(params, weights=[grad.Var(w) for w in params.weights])
    with pytest.raises(TypeError, match="numeric"):
        dual_states(sp, shadow, compute_bounds(sp, shadow, budget), budget, C)


def test_margin_vector_zero_budget_is_clean_margin(rng):
    sp, params, _ = random_tiny_instance(rng)
    budget = Budget(1, 0)
    bnds = compute_bounds(sp, params, budget)
    logits = gcn.forward_sliced(sp, params).logits
    mv = margin_vector(sp, params, bnds, budget, 0)
    for k in range(1, params.dims[-1]):
        assert mv[k] == pytest.approx(-(logits[0] - logits[k]), abs=1e-9)


def test_certify_zero_budget_is_robust(rng):
    sp, params, _ = random_tiny_instance(rng)
    y_star = gcn.predict(gcn.forward_sliced(sp, params))
    cert = certify(sp, params, Budget(1, 0), y_star)
    assert cert.status == ROBUST


def test_certify_statuses_consistent_with_enumeration(rng):
    seen = set()
    for _ in range(40):
        sp, params, budget = random_tiny_instance(rng)
        y_star = gcn.predict(gcn.forward_sliced(sp, params))
        cert = certify(sp, params, budget, y_star)
        seen.add(cert.status)
        K = params.dims[-1]
        exact = min(
            oracle.enumerate_exact_margin(sp, params, budget, y_star, k)
            for k in range(K)
            if k != y_star
        )
        if cert.status == ROBUST:
            assert exact > 0.0
            assert cert.primal_margins is None
        elif cert.status == NON_ROBUST:
            assert exact < 0.0
        else:
            assert cert.status == UNDECIDED
        if cert.primal_margins is not None:
            for k in range(K):
                if k != y_star:
                    assert cert.dual_lower[k] <= cert.primal_margins[k] + 1e-9
    assert ROBUST in seen  # the sample exercises the common branch


def test_certify_zero_dual_bound_is_not_robust(rng):
    """A dual bound of exactly 0.0 does not certify: robust needs g > 0."""
    sp, params, _ = random_tiny_instance(rng)
    W2, b2 = params.weights[-1].copy(), params.biases[-1].copy()
    W2[:, :2], b2[1] = 0.0, b2[0]  # classes 0 and 1 tie on every input, with exact zeros
    params = dataclasses.replace(params, weights=[params.weights[0], W2], biases=[params.biases[0], b2])
    cert = certify(sp, params, Budget(1, 2), 0)
    assert cert.dual_lower[1] == 0.0
    assert cert.status != ROBUST


def _tiny_curves(rng, count):
    """`count` random tiny instances, with 1 and 2 hidden layers in turn, each with its predicted class
    and the budget (q, global_Q + 2) whose curve runs over Q = 0..global_Q + 2."""
    for trial in range(count):
        sp, params, budget = random_tiny_instance(rng, hidden_layers=1 + trial % 2)
        y_star = gcn.predict(gcn.forward_sliced(sp, params))
        yield sp, params, y_star, Budget(budget.local_q, budget.global_Q + 2)


def _curve_budgets(budget):
    """The budgets whose statuses `status_curve(…, budget, …)` lists, in its order."""
    return [Budget(budget.local_q, Q) for Q in range(budget.global_Q + 1)]


@pytest.mark.parametrize("mode", ["default", "optimized"])
def test_status_curve_equals_certify_per_budget(rng, mode):
    """Where certify's status never weakens as Q grows, the sweep gives each budget the status certify
    gives it alone.

    Elsewhere a status that differs from certify's is carried from a
    budget that certify gives it: robust from a larger Q, non-robust from a
    smaller one (the optimized mode has such a draw here).
    """
    monotone = 0
    seen = set()
    for sp, params, y_star, budget in _tiny_curves(rng, 20):
        ref = [certify(sp, params, b, y_star, mode).status for b in _curve_budgets(budget)]
        got = status_curve(sp, params, budget, y_star, mode)
        for i, (status, alone) in enumerate(zip(got, ref)):
            assert status == alone or (status == ROBUST and ROBUST in ref[i:]) or (
                status == NON_ROBUST and NON_ROBUST in ref[:i]
            )
        weakens = any(
            (a == NON_ROBUST and b != NON_ROBUST) or (b == ROBUST and a != ROBUST)
            for i, a in enumerate(ref)
            for b in ref[i + 1 :]
        )
        if not weakens:
            assert got == ref
            monotone += 1
        seen.update(ref)
    assert monotone >= 19 and len(seen) >= 2


def test_certify_and_status_curve_refuse_an_unknown_mode(rng):
    """Only a name in MODES runs: a misspelt "optimized" is an error, not the default mode."""
    sp, params, _ = random_tiny_instance(rng)
    assert dual_cert.MODES == ("default", "optimized")
    with pytest.raises(ValueError, match="mode 'optimised' not in"):
        certify(sp, params, Budget(1, 2), 0, "optimised")
    with pytest.raises(ValueError, match="mode 'optimised' not in"):
        status_curve(sp, params, Budget(1, 2), 0, "optimised")


@pytest.mark.parametrize("mode", ["default", "optimized"])
def test_status_curve_carries_only_sound_statuses(rng, monkeypatch, mode):
    """Every status the sweep carries rather than evaluates holds by exact enumeration, and the deeper
    bounds are built once per evaluated budget, no more.

    A carried robust status has an exact worst-case margin > 0 for every
    competing class, a carried non-robust one a margin < 0 for some class.
    Each evaluated budget gets certify's status; `compute_bounds` is called
    once per evaluation, at the evaluated budget, as many times as bisection
    on certify's per-budget statuses probes, so a per-budget loop fails.
    """
    bounds_of, calls, evaluated = dual_cert.compute_bounds, [], []
    duals = dual_cert.duals

    def count(sp, params, budget, table=None):
        calls.append(budget)
        return bounds_of(sp, params, budget, table)

    def record(sp, params, budget, y_star, mode="default", table=None):
        evaluated.append(budget)
        return duals(sp, params, budget, y_star, mode, table)

    monkeypatch.setattr(dual_cert, "compute_bounds", count)
    monkeypatch.setattr(dual_cert, "duals", record)
    carried = {ROBUST: 0, NON_ROBUST: 0}
    total = per_budget = 0
    for sp, params, y_star, budget in _tiny_curves(rng, 12):
        budgets = _curve_budgets(budget)
        ref = [certify(sp, params, b, y_star, mode).status for b in budgets]
        calls.clear()
        evaluated.clear()
        got = status_curve(sp, params, budget, y_star, mode)
        assert calls == evaluated and len(calls) == len(bisection_probes(ref))
        total, per_budget = total + len(calls), per_budget + len(budgets)
        assert len(set(evaluated)) == len(evaluated)
        others, _ = competing_classes(y_star, params.dims[-1])
        for b, status, alone in zip(budgets, got, ref):
            if b in evaluated:
                assert status == alone
                continue
            exact = [oracle.enumerate_exact_margin(sp, params, b, y_star, int(k)) for k in others]
            assert status in carried
            assert min(exact) > 0 if status == ROBUST else min(exact) < 0
            carried[status] += 1
    assert min(carried.values()) > 0
    assert total < 0.75 * per_budget


# -- the per-class dual pass as it was before class batching: the reference
# the batched dual_states is compared against.  It derives the ReLU
# relaxation from the partition itself, as the dual did before
# ActivationBounds held it.


def _reference_envelope_slope(bounds, layer):
    """(S/(S-R) on crossing entries and 0 elsewhere, the denominator (1 off crossing entries), the crossing mask)."""
    R, S = bounds.lower[layer], bounds.upper[layer]
    cross = (bounds.partition[layer] == CROSSING).astype(np.float64)
    denom = (S - R) * cross + (1.0 - cross)
    return (S * cross) / denom, denom, cross


def _reference_default_omega(bounds):
    return {l: _reference_envelope_slope(bounds, l)[0] for l in bounds.layers()}


def _reference_backward_phi(sp, params, bounds, omega, c):
    L = sp.layer_count
    c = np.asarray(c, dtype=np.float64)
    phi = {L: -c.reshape(1, -1)}
    phi_hat = {}
    for l in range(L - 1, 0, -1):
        A_dot = sp.sliced_mp[l - 1]
        W = params.weights[l - 1]
        phi_hat[l] = grad.matmul(grad.matmul(A_dot.T, phi[l + 1]), grad.transpose(W))
        if l >= 2:
            slope, _, cross = _reference_envelope_slope(bounds, l)
            nonneg = (bounds.partition[l] == NONNEG).astype(np.float64)
            crossing_part = slope * grad.pos(phi_hat[l]) - omega[l] * cross * grad.negpart(phi_hat[l])
            phi[l] = nonneg * phi_hat[l] + cross * crossing_part
    X = sp.sliced_attrs
    delta = grad.pos(phi_hat[1]) * (1.0 - X) + grad.negpart(phi_hat[1]) * X
    return phi, phi_hat, delta


def _reference_closed_form_eta_rho(delta, budget):
    delta_v = grad.val(delta)
    n, D = delta_v.shape
    q = budget.effective_q(D)
    Q = budget.effective_Q(n, D)
    if q == 0 or Q == 0:
        return np.zeros(n), 0.0, [], {"o_idx": None, "rho_idx": None, "q": q, "Q": Q}
    cols = np.tile(np.arange(D), (n, 1))
    order = np.lexsort((cols, -delta_v), axis=1)
    top_q = order[:, :q]
    rows = np.repeat(np.arange(n), q)
    feats = top_q.ravel()
    vals = delta_v[rows, feats]
    global_order = np.lexsort((feats, rows, -vals))
    chosen = global_order[:Q]
    s_q = [(int(rows[i]), int(feats[i])) for i in chosen]
    rho_pos = chosen[-1]
    rho = float(vals[rho_pos])
    o_idx = np.arange(n) * D + top_q[:, q - 1]
    eta = np.maximum(0.0, delta_v.ravel()[o_idx] - rho)
    info = {"o_idx": o_idx, "rho_idx": int(rows[rho_pos]) * D + int(feats[rho_pos]), "q": q, "Q": Q}
    return eta, rho, s_q, info


def _reference_evaluate_dual(sp, params, bounds, eta, rho, phi, phi_hat, delta, budget):
    L = sp.layer_count
    X = sp.sliced_attrs
    n, D = X.shape
    q, Q = budget.effective_q(D), budget.effective_Q(n, D)
    g = 0.0
    for l in bounds.layers():
        R, S = bounds.lower[l], bounds.upper[l]
        _, denom, cross = _reference_envelope_slope(bounds, l)
        g = g + grad.asum((S * R * cross) / denom * grad.pos(phi_hat[l]))
    for l in range(1, L):
        g = g - grad.asum(phi[l + 1] * params.biases[l - 1])
    g = g - grad.asum(X * phi_hat[1])
    if q > 0 and Q > 0:
        eta_col = grad.expand_dims(eta, 1) if grad.is_var(eta) else np.asarray(eta).reshape(-1, 1)
        psi = grad.relu(delta - eta_col - rho)
        g = g - grad.asum(psi)
        g = g - q * grad.asum(eta) - Q * grad.asum(rho)
    else:
        psi = np.zeros_like(grad.val(delta))
    return g, psi


class _ReferenceState(NamedTuple):
    """Every tensor of one per-class reference dual evaluation."""

    omega: dict
    eta: np.ndarray
    rho: float
    phi: dict
    phi_hat: dict
    delta: np.ndarray
    psi: np.ndarray
    value: float
    s_q: list
    c: np.ndarray


def _reference_dual_state(sp, params, bounds, budget, c, omega=None):
    if omega is None:
        omega = _reference_default_omega(bounds)
    phi, phi_hat, delta = _reference_backward_phi(sp, params, bounds, omega, c)
    eta, rho, s_q, _ = _reference_closed_form_eta_rho(delta, budget)
    g, psi = _reference_evaluate_dual(sp, params, bounds, eta, rho, phi, phi_hat, delta, budget)
    return _ReferenceState(
        omega={l: grad.val(om).copy() for l, om in omega.items()},
        eta=np.asarray(eta, dtype=np.float64),
        rho=float(rho),
        phi={l: grad.val(p) for l, p in phi.items()},
        phi_hat={l: grad.val(p) for l, p in phi_hat.items()},
        delta=grad.val(delta),
        psi=grad.val(psi),
        value=float(grad.val(g)),
        s_q=s_q,
        c=np.asarray(c, dtype=np.float64),
    )


def _reference_dual_value_differentiable(sp, params, bounds, budget, c, omega):
    phi, phi_hat, delta = _reference_backward_phi(sp, params, bounds, omega, c)
    _, _, _, info = _reference_closed_form_eta_rho(grad.val(delta), budget)
    if info["o_idx"] is None:
        eta, rho = np.zeros(grad.val(delta).shape[0]), 0.0
    else:
        flat_rho = grad.gather(delta, [info["rho_idx"]])
        o = grad.gather(delta, info["o_idx"])
        mask = (grad.val(o) - grad.val(flat_rho) > 0).astype(np.float64)
        eta = (o - flat_rho) * mask
        rho = flat_rho
    g, _ = _reference_evaluate_dual(sp, params, bounds, eta, rho, phi, phi_hat, delta, budget)
    return g


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def _assert_dual_states_match_reference(sp, params, budget, y):
    """dual_states over every competing class against the per-class reference."""
    K = params.dims[-1]
    n, D = sp.sliced_attrs.shape
    bnds = compute_bounds(sp, params, budget)
    others, C = competing_classes(y, K)
    np.testing.assert_array_equal(C, [class_vector(y, k, K) for k in others])
    states = dual_states(sp, params, bnds, budget, C)
    # dual_states runs this pass: its rows hold each state's delta and picks
    p = dual_cert._dual_pass(sp, params, bnds, budget, C, bnds.slope)
    _, _, _, info = closed_form_eta_rho(p.delta, budget)
    for b, (c, st_) in enumerate(zip(C, states)):
        ref = _reference_dual_state(sp, params, bnds, budget, c)
        _, _, _, ref_info = _reference_closed_form_eta_rho(ref.delta, budget)
        assert isinstance(st_.value, float)
        _close(st_.value, ref.value)
        assert _pairs(p.picks[b], D) == ref.s_q
        assert st_.flips == _positive(ref.s_q, ref.delta)
        if ref_info["o_idx"] is None:
            assert info["o_idx"] is None and info["rho_idx"] is None
        else:
            np.testing.assert_array_equal(info["o_idx"][b] - b * n * D, ref_info["o_idx"])
            assert info["rho_idx"][b] - b * n * D == ref_info["rho_idx"]
        for got, want in [(p.eta[b], ref.eta), (p.rho[b], ref.rho), (p.delta[b], ref.delta), (p.psi[b], ref.psi)]:
            _close(got, want)
        for l in ref.phi:
            _close(p.phi[l][b], ref.phi[l])
        for l in ref.phi_hat:
            _close(p.phi_hat[l][b], ref.phi_hat[l])
        np.testing.assert_array_equal(-p.phi[sp.layer_count][b], ref.c[None])
        one = dual_cert._dual_pass(sp, params, bnds, budget, c[None], bnds.slope)
        assert _pairs(one.picks[0], D) == ref.s_q
        assert dual_state(sp, params, bnds, budget, c).flips == _positive(ref.s_q, ref.delta)

    # tape gradients in the parameters (training) of a random mix of classes,
    # through the margin vector p = -g(e_y - e_k)
    r = np.random.default_rng(len(C)).normal(size=len(C))
    mix = np.zeros(K)
    mix[others] = -r

    def batched(shadow):
        bb = compute_bounds(sp, shadow, budget)
        return grad.asum(margin_vector(sp, shadow, bb, budget, y) * mix)

    def per_class(shadow):
        bb = compute_bounds(sp, shadow, budget)
        om = _reference_default_omega(bb)
        terms = (w * _reference_dual_value_differentiable(sp, shadow, bb, budget, c, om) for w, c in zip(r, C))
        return sum(terms, 0.0)

    v_new, g_new = grad.gradient(batched, params)
    v_ref, g_ref = grad.gradient(per_class, params)
    _close(v_new, v_ref)
    for a, b_ in zip(g_new.weights + g_new.biases, g_ref.weights + g_ref.biases):
        _close(a, b_)

    # tape gradients in Omega (Omega-PGA) for one class
    if bnds.layers():
        c = C[-1]
        om_new = {l: grad.Var(om) for l, om in bnds.slope.items()}
        om_ref = {l: grad.Var(om) for l, om in _reference_default_omega(bnds).items()}
        g1 = dual_value_differentiable(sp, params, bnds, budget, c, om_new)
        g2 = _reference_dual_value_differentiable(sp, params, bnds, budget, c, om_ref)
        _close(grad.val(g1), grad.val(g2))
        grad.backward(g1)
        grad.backward(g2)
        for l in om_new:
            _close(om_new[l].grad, om_ref[l].grad)


@pytest.mark.parametrize("budget", [None, Budget(0, 3), Budget(2, 0), Budget(9, 2), Budget(2, 10**6)])
def test_dual_states_match_per_class_reference_on_tiny_instances(budget):
    """q = 0, Q = 0, q >= D and Q = n*q, besides each instance's own budget."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        sp, params, own = random_tiny_instance(rng)
        y = int(rng.integers(params.dims[-1]))
        _assert_dual_states_match_reference(sp, params, budget or own, y)


def test_relaxation_and_single_class_pass_equal_reference_bitwise():
    """ActivationBounds' relaxation and the one-class dual pass equal the references bit for bit.

    One class runs as a one-row batch, with the reference's arithmetic in the
    reference's order, so every value is bitwise equal; wider batches are
    held to 1e-12 by the tests above.  Tiny instances at L = 3 and 4,
    their all-nonnegative variants, and Cora-ML-shape forced-tie slices.
    """
    rng = np.random.default_rng(31)
    cases = [random_tiny_instance(rng, hidden_layers=1 + i % 2) for i in range(40)]
    for q, Q in [(29, 12), (29, 29 * 30), (3000, 40)]:
        cases.append((*forced_tie_slice(np.random.default_rng(q + Q), n=30, M=9, D=2879, h=16, K=7), Budget(q, Q)))
    for i, (sp, params, budget) in enumerate(cases):
        bnds = compute_bounds(sp, params, budget)
        if i % 5 == 4 and i < 40:
            bnds = _nonneg_bounds_like(bnds)
        for l in bnds.layers():
            slope, denom, cross = _reference_envelope_slope(bnds, l)
            np.testing.assert_array_equal(bnds.slope[l], slope)
            np.testing.assert_array_equal(bnds.cross[l], cross)
            np.testing.assert_array_equal(bnds.nonneg[l], (bnds.partition[l] == NONNEG).astype(np.float64))
            np.testing.assert_array_equal(bnds.offset[l], (bnds.upper[l] * bnds.lower[l] * cross) / denom)
        K = params.dims[-1]
        for k in range(1, K):
            c = class_vector(0, k, K)
            st_, ref = dual_state(sp, params, bnds, budget, c), _reference_dual_state(sp, params, bnds, budget, c)
            # dual_state runs this pass: its row holds the state's delta and picks
            p = dual_cert._dual_pass(sp, params, bnds, budget, c[None], bnds.slope)
            assert st_.value == ref.value and _pairs(p.picks[0], sp.sliced_attrs.shape[1]) == ref.s_q
            assert st_.flips == _positive(ref.s_q, ref.delta)
            for got, want in [(p.phi, ref.phi), (p.phi_hat, ref.phi_hat)]:
                for l in want:
                    np.testing.assert_array_equal(got[l][0], want[l])
            for got, want in [(p.delta[0], ref.delta), (p.eta[0], ref.eta), (p.rho[0], ref.rho), (p.psi[0], ref.psi)]:
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("q, Q", [(29, 12), (29, 29 * 30), (0, 12), (29, 0), (3000, 40)])
def test_dual_states_match_per_class_reference_on_forced_ties(q, Q):
    rng = np.random.default_rng(q + Q)
    sp, params = forced_tie_slice(rng, n=30, M=9, D=2879, h=16, K=7)
    _assert_dual_states_match_reference(sp, params, Budget(q, Q), 2)


def test_closed_form_eta_rho_batched_matches_reference_on_ties():
    """Small-integer delta stacks: nearly every selection is decided by a tie rule."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        B, n, D = (int(v) for v in rng.integers(1, 6, size=3))
        delta = rng.integers(0, 3, size=(B, n, D)).astype(float)
        budget = Budget(int(rng.integers(0, D + 2)), int(rng.integers(0, n * D + 2)))
        eta, rho, picks, info = closed_form_eta_rho(delta, budget)
        states = _states_from_closed_form(delta, budget)
        for b in range(B):
            e, r, s, ref_info = _reference_closed_form_eta_rho(delta[b], budget)
            np.testing.assert_array_equal(eta[b], e)
            assert rho[b] == r and _pairs(picks[b], D) == s
            assert states[b].flips == _positive(s, delta[b])
            if ref_info["o_idx"] is not None:
                np.testing.assert_array_equal(info["o_idx"][b] - b * n * D, ref_info["o_idx"])
                assert info["rho_idx"][b] - b * n * D == ref_info["rho_idx"]


# -- Omega-PGA as it was before the written-out gradient: one class at a time,
# a tape for every step's dg/dOmega, and a second dual evaluation of the candidate


def _reference_optimize_omega(sp, params, bounds, budget, c, steps=dual_cert.PGA_STEPS, step_size=dual_cert.PGA_STEP_SIZE):
    best_om = {l: grad.val(om).copy() for l, om in _reference_default_omega(bounds).items()}
    best = _reference_dual_state(sp, params, bounds, budget, c, omega=best_om)
    lr = step_size
    for _ in range(steps):
        om_vars = {l: grad.Var(best_om[l]) for l in best_om}
        g = _reference_dual_value_differentiable(sp, params, bounds, budget, c, om_vars)
        if not grad.is_var(g):
            break
        grad.backward(g)
        cand_om = {}
        moved = False
        for l in best_om:
            dg = om_vars[l].grad
            if dg is None:
                cand_om[l] = best_om[l]
                continue
            cross = _reference_envelope_slope(bounds, l)[2]
            cand_om[l] = np.clip(best_om[l] + lr * dg * cross, 0.0, 1.0)
            moved = True
        if not moved:
            break
        cand = _reference_dual_state(sp, params, bounds, budget, c, omega=cand_om)
        if cand.value > best.value + 1e-15:
            best, best_om = cand, cand_om
        else:
            lr *= dual_cert.PGA_STEP_SHRINK
            if lr < dual_cert.PGA_MIN_STEP:
                break
    return best


def _record_state_rows(mp):
    """A list that gets (picks, delta) of the pass row behind each DualState `dual_cert._state` builds under `mp`."""
    rows, state = [], dual_cert._state

    def record(p, b, omega):
        rows.append((p.picks[b], p.delta[b]))
        return state(p, b, omega)

    mp.setattr(dual_cert, "_state", record)
    return rows


def _assert_pga_matches_reference(sp, params, bnds, budget, C, steps):
    D = sp.sliced_attrs.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        rows = _record_state_rows(mp)
        states = optimize_omega(sp, params, bnds, budget, C, steps=steps)
    assert len(states) == len(rows) == len(C)
    for c, st_, (picks, delta) in zip(C, states, rows):
        ref = _reference_optimize_omega(sp, params, bnds, budget, c, steps=steps)
        assert isinstance(st_.value, float)
        _close(st_.value, ref.value)
        assert _pairs(picks, D) == ref.s_q
        assert st_.flips == _positive(ref.s_q, ref.delta)
        assert st_.omega.keys() == ref.omega.keys()
        for l in ref.omega:
            _close(st_.omega[l], ref.omega[l])
        # the pass at the state's Omega: row 0 holds its eta, rho and psi
        p = dual_cert._dual_pass(sp, params, bnds, budget, c[None], st_.omega)
        _close(p.g[0], st_.value)
        for got, want in [(p.eta[0], ref.eta), (p.rho[0], ref.rho), (delta, ref.delta), (p.psi[0], ref.psi)]:
            _close(got, want)
        np.testing.assert_array_equal(-p.phi[sp.layer_count][0], ref.c[None])
    # the one-class form runs the same ascent
    one = optimize_omega(sp, params, bnds, budget, C[-1], steps=steps)
    assert isinstance(one, DualState) and one.value == states[-1].value


def _nonneg_bounds_like(bnds):
    """Every hidden entry in the exactly-linear nonnegative case: no crossing neuron."""
    lower = {l: np.full(np.shape(r), 0.5) for l, r in bnds.lower.items()}
    upper = {l: np.full(np.shape(r), 2.0) for l, r in bnds.upper.items()}
    return ActivationBounds(lower=lower, upper=upper, partition={l: classify_partition(lower[l], upper[l]) for l in lower})


@pytest.mark.parametrize("hidden_layers", [1, 2])
def test_optimize_omega_matches_taped_reference_on_tiny_instances(hidden_layers):
    """Batched PGA against the per-class taped ascent: 100 instances each at L = 3 and L = 4.

    Steps cycle through 0, 1, 50 and 200; budgets through each instance's own,
    q = 0, Q = 0 and q >= D; every fifth instance has no crossing neuron.
    """
    rng = np.random.default_rng(17 + hidden_layers)
    seen_crossing = 0
    for i in range(100):
        sp, params, own = random_tiny_instance(rng, hidden_layers=hidden_layers)
        assert sp.layer_count == hidden_layers + 2
        budget = [own, Budget(0, 3), Budget(2, 0), Budget(9, 2)][(i // 4) % 4]
        bnds = compute_bounds(sp, params, budget)
        if i % 5 == 4:
            bnds = _nonneg_bounds_like(bnds)
        seen_crossing += any(bnds.cross[l].any() for l in bnds.layers())
        _, C = competing_classes(int(rng.integers(params.dims[-1])), params.dims[-1])
        _assert_pga_matches_reference(sp, params, bnds, budget, C, steps=[0, 1, 50, 200][i % 4])
    assert seen_crossing >= 30


@pytest.mark.parametrize("steps", [0, 1, 50, 200])
def test_optimize_omega_matches_taped_reference_on_forced_ties(steps):
    """certify-pga shape (D = 300, h = 32, K = 7, q = 3, Q = 12) with forced delta and phi_hat ties."""
    rng = np.random.default_rng(40 + steps)
    sp, params = forced_tie_slice(rng, n=30, M=9, D=300, h=32, K=7)
    budget = Budget(3, 12)
    bnds = compute_bounds(sp, params, budget)
    assert bnds.cross[2].any()
    _, C = competing_classes(2, 7)
    _assert_pga_matches_reference(sp, params, bnds, budget, C, steps)


def test_dual_states_and_pga_are_bitwise_equal_with_and_without_argmax_peeling(monkeypatch, peel_calls):
    """certify-pga shape (n = 6, D = 300, q = 3): `top_k`'s argmax peeling changes no value, Omega, delta, pick or flip."""
    rng = np.random.default_rng(18)
    sp, params = forced_tie_slice(rng, n=6, M=4, D=300, h=32, K=7)
    budget = Budget(3, 12)
    bnds = compute_bounds(sp, params, budget)
    assert bnds.cross[2].any()
    _, C = competing_classes(2, 7)
    rows = _record_state_rows(monkeypatch)

    def run():
        """Each state with the picks and delta of its pass row."""
        rows.clear()
        states = dual_states(sp, params, bnds, budget, C) + optimize_omega(sp, params, bnds, budget, C)
        return list(zip(states, list(rows), strict=True))

    on = run()
    n_peeled = len(peel_calls)
    monkeypatch.setattr(bounds, "_PEEL_ROW_MIN", 10**9)
    off = run()
    assert n_peeled > 0 and len(peel_calls) == n_peeled

    def bits(a):
        a = np.asarray(a)
        return a.dtype, a.shape, a.tobytes()

    for (got, (got_picks, got_delta)), (want, (want_picks, want_delta)) in zip(on, off, strict=True):
        assert bits(got.value) == bits(want.value) and bits(got_delta) == bits(want_delta)
        assert bits(got_picks) == bits(want_picks) and got.flips == want.flips
        assert got.omega.keys() == want.omega.keys()
        for l in want.omega:
            assert bits(got.omega[l]) == bits(want.omega[l])


def _written_out_gradient(sp, params, bnds, budget, C, omega):
    """dg/dOmega for every row of C at one Omega, from one batched pass."""
    om = {l: np.repeat(o[None], len(C), axis=0) for l, o in omega.items()}
    p = dual_cert._dual_pass(sp, params, bnds, budget, C, om)
    return dual_cert._omega_gradient(sp, params, bnds, budget, p, np.arange(len(C)), om)


def _assert_gradient_matches_tape(sp, params, bnds, budget, C, omega):
    mine = _written_out_gradient(sp, params, bnds, budget, C, omega)
    assert mine.keys() == omega.keys()
    for b, c in enumerate(C):
        om_vars = {l: grad.Var(o) for l, o in omega.items()}
        grad.backward(dual_value_differentiable(sp, params, bnds, budget, c, om_vars))
        for l, v in om_vars.items():
            _close(mine[l][b], v.grad)


@pytest.mark.parametrize("hidden_layers", [1, 2])
def test_omega_gradient_matches_tape_on_tiny_instances(hidden_layers):
    """Random Omega and Omega at 0 and at 1 on the crossing entries, every competing class."""
    rng = np.random.default_rng(23 + hidden_layers)
    for _ in range(60):
        sp, params, budget = random_tiny_instance(rng, hidden_layers=hidden_layers)
        bnds = compute_bounds(sp, params, budget)
        _, C = competing_classes(int(rng.integers(params.dims[-1])), params.dims[-1])
        for fill in (None, 0.0, 1.0):
            omega = {
                l: (rng.random(np.shape(o)) if fill is None else np.full(np.shape(o), fill)) * bnds.cross[l]
                for l, o in bnds.slope.items()
            }
            _assert_gradient_matches_tape(sp, params, bnds, budget, C, omega)


@pytest.mark.parametrize("q, Q", [(3, 12), (1, 1), (400, 40), (3, 10**6)])
def test_omega_gradient_matches_tape_at_relu_ties(q, Q):
    """Integer weights put phi_hat entries exactly at 0, where relu'(0) = 0 on the tape.

    Zero rows of W1 make whole columns of phi_hat[1], and so of delta, exactly 0.
    """
    rng = np.random.default_rng(q + Q)
    sp, params = forced_tie_slice(rng, n=30, M=9, D=300, h=32, K=7)
    params.weights[0][:10] = 0.0
    budget = Budget(q, Q)
    bnds = compute_bounds(sp, params, budget)
    _, C = competing_classes(2, 7)
    omega = bnds.slope
    p = dual_cert._dual_pass(sp, params, bnds, budget, C, omega)
    cross = bnds.cross[2].astype(bool)
    assert (p.phi_hat[2][:, cross] == 0).any() and (p.phi_hat[1] == 0).any()
    _assert_gradient_matches_tape(sp, params, bnds, budget, C, omega)


# -- psi and dg/dOmega from each node row's top q picks, against the dense
# formula and the dense reverse sweep they replaced


def _reference_omega_gradient(sp, params, bounds, budget, p, rows, omega):
    """`dual_cert._omega_gradient` as a dense sweep: dg/d delta over (B, n, D), then one matmul by W."""
    L = sp.layer_count
    X = sp.sliced_attrs
    n, D = X.shape
    q, Q = budget.effective_q(D), budget.effective_Q(n, D)
    info = p.info
    psi_pos = p.psi[rows] > 0
    # dg/d delta: -1 where psi > 0, plus the eta/rho terms at the selected entries
    g_delta = -psi_pos.astype(np.float64)
    if info["o_idx"] is not None:
        B = len(g_delta)
        count = psi_pos.sum(axis=2)
        # eta_n = [o_n - rho]_+ at the frozen selection; g holds -q sum(eta) - Q rho
        g_o = (count - q) * (p.eta[rows] > 0)
        g_rho = count.sum(axis=1) - Q - g_o.sum(axis=1)
        flat = g_delta.reshape(B, n * D)
        flat[np.arange(B)[:, None], info["o_idx"][rows] % (n * D)] += g_o
        flat[np.arange(B), info["rho_idx"][rows] % (n * D)] += g_rho
    # delta = [phi_hat[1] (1 - 2X)]_+, and g holds -<X, phi_hat[1]>
    g_hat = g_delta * (p.delta[rows] > 0) * (1.0 - 2.0 * X) - X
    out = {}
    for l in range(2, L):
        A, W, b = sp.sliced_mp[l - 2], grad.val(params.weights[l - 2]), grad.val(params.biases[l - 2])
        g_phi = A @ (g_hat @ W) - b
        ph = p.phi_hat[l][rows]
        cross = bounds.cross[l]
        out[l] = -(g_phi * np.maximum(-ph, 0.0)) * cross
        if l < L - 1:
            g_cross = g_phi * cross
            g_hat = (
                g_phi * bounds.nonneg[l]
                + g_cross * bounds.slope[l] * (ph > 0)
                + g_cross * (omega[l] * cross) * (ph < 0)
                + bounds.offset[l] * (ph > 0)
            )
    return out


def _round_off_instance():
    """A tiny instance (L = 3) whose node 0 has a non-pick delta entry tied with its q-th pick o.

    Features 0 and 1 have equal W1 rows and share node 0's X value, so
    delta[:, 0, 0] == delta[:, 0, 1] for every class vector; at q = 1 feature
    1 is never picked while feature 0 is.  64 random class vectors give rows
    where psi at o is > 0 by round-off.
    """
    rng = np.random.default_rng(0)
    sp, params, _ = random_tiny_instance(rng)
    X = sp.sliced_attrs.copy()
    X[0, 1] = X[0, 0]
    params.weights[0][1] = params.weights[0][0] = 3.0 * params.weights[0][0]
    sp = dataclasses.replace(sp, sliced_attrs=X)
    budget = Budget(1, X.shape[0])
    return sp, params, budget, rng.normal(size=(64, params.dims[-1]))


@functools.cache
def _pick_cases():
    """(name, sp, params, budget, bounds, C, Omega): the cases of the pick-based psi and dg/dOmega tests.

    Tiny instances at L = 3 and 4 (own budget, q = 0, Q = 0), forced-tie
    slices at the Cora-ML and certify-pga shapes with random Omega per row,
    and the round-off instance.  Built once: the tests only read them.
    """
    rng = np.random.default_rng(19)

    def case(name, sp, params, budget, C):
        bnds = compute_bounds(sp, params, budget)
        omega = {l: rng.random((len(C),) + np.shape(o)) * bnds.cross[l] for l, o in bnds.slope.items()}
        return name, sp, params, budget, bnds, C, omega

    cases = []
    for i in range(24):
        sp, params, own = random_tiny_instance(rng, hidden_layers=1 + i % 2)
        budget = [own, Budget(0, 3), Budget(2, 0)][i % 3]
        _, C = competing_classes(int(rng.integers(params.dims[-1])), params.dims[-1])
        cases.append(case(f"tiny-{i}", sp, params, budget, C))
    n = 30
    for D, h in [(2879, 16), (300, 32)]:
        for q, Q in [(3, 12), (29, 12), (29, n * 29), (3000, 40)]:
            sp, params = forced_tie_slice(np.random.default_rng(D + q + Q), n=n, M=9, D=D, h=h, K=7)
            cases.append(case(f"ties-{D}-{q}-{Q}", sp, params, Budget(q, Q), competing_classes(2, 7)[1]))
    cases.append(case("round-off", *_round_off_instance()))
    return cases


def test_psi_and_g_from_picks_equal_dense_formula_bitwise():
    """The numeric pass's psi equals [(delta - eta) - rho]_+ and its g equals the dense `evaluate_dual` bytes."""
    for name, sp, params, budget, bnds, C, omega in _pick_cases():
        p = dual_cert._dual_pass(sp, params, bnds, budget, C, omega)
        g, psi = evaluate_dual(sp, params, bnds, p.eta, p.rho, p.phi, p.phi_hat, p.delta, budget)
        assert p.g.dtype == g.dtype and p.g.tobytes() == g.tobytes(), name
        assert np.array_equal(p.psi, psi), name
        if p.info["top_q_idx"] is not None:
            assert np.array_equal(psi, np.maximum((p.delta - p.eta[..., None]) - p.rho[:, None, None], 0.0)), name
        if name == "round-off":
            # psi > 0 at the tied non-pick entry comes only from the whole-row branch
            assert (psi[:, 0, 1] > 0).any() and (psi[:, 0, 0] > 0).any()


def _with_round_off(p):
    """p with psi set to 1e-17 at the q-th pick o of every node row and at that row's largest other delta entry (q < D).

    Both sweeps read psi from the pass, so this puts a round-off row, whose
    other entry need not share its W1 row with o, in every node row.
    """
    others = p.delta.copy()
    others.reshape(-1)[p.info["top_q_idx"]] = -np.inf
    psi = p.psi.copy()
    psi.reshape(-1)[p.info["o_idx"]] = 1e-17
    np.put_along_axis(psi, others.argmax(axis=2)[..., None], 1e-17, axis=2)
    return p._replace(psi=psi)


def test_omega_gradient_from_picks_equals_dense_sweep():
    """`_omega_gradient` equals the dense reverse sweep, on all rows and on strict row subsets.

    Each pass with picks runs a second time with round-off put into its psi
    in every node row (`_with_round_off`).
    """
    for name, sp, params, budget, bnds, C, omega in _pick_cases():
        p = dual_cert._dual_pass(sp, params, bnds, budget, C, omega)
        passes = [p]
        if p.info["top_q_idx"] is not None and p.info["top_q_idx"].shape[-1] < p.delta.shape[-1]:
            passes.append(_with_round_off(p))
        B = len(C)
        for p in passes:
            for rows in [np.arange(B), np.arange(B)[::2], np.array([B - 1]), np.array([B - 1, 0])]:
                om = {l: o[rows] for l, o in omega.items()}
                got = dual_cert._omega_gradient(sp, params, bnds, budget, p, rows, om)
                want = _reference_omega_gradient(sp, params, bnds, budget, p, rows, om)
                assert got.keys() == want.keys(), name
                for l in want:
                    np.testing.assert_array_equal(got[l], want[l], err_msg=name)


def test_optimize_omega_same_with_dense_gradient_sweep(monkeypatch):
    """certify-pga shape forced ties: Omega-PGA reaches the same values, Omega, picks and flips with the dense sweep."""
    sp, params = forced_tie_slice(np.random.default_rng(43), n=30, M=9, D=300, h=32, K=7)
    budget = Budget(3, 12)
    bnds = compute_bounds(sp, params, budget)
    assert bnds.cross[2].any()
    _, C = competing_classes(2, 7)
    rows = _record_state_rows(monkeypatch)
    picks = optimize_omega(sp, params, bnds, budget, C)
    monkeypatch.setattr(dual_cert, "_omega_gradient", _reference_omega_gradient)
    dense = optimize_omega(sp, params, bnds, budget, C)
    assert len(rows) == 2 * len(C)
    for got, want, (got_picks, _), (want_picks, _) in zip(picks, dense, rows[: len(C)], rows[len(C) :], strict=True):
        assert got.value == want.value and np.array_equal(got_picks, want_picks) and got.flips == want.flips
        for l in want.omega:
            np.testing.assert_array_equal(got.omega[l], want.omega[l])


def test_deeper_gcn_sandwich_chain():
    """dual(default) <= dual(PGA) <= exact <= primal on two-hidden-layer instances (L = 4)."""
    rng = np.random.default_rng(29)
    for _ in range(30):
        sp, params, budget = random_tiny_instance(rng, hidden_layers=2)
        y = gcn.predict(gcn.forward_sliced(sp, params))
        bnds = compute_bounds(sp, params, budget)
        others, C = competing_classes(y, params.dims[-1])
        opts = optimize_omega(sp, params, bnds, budget, C, steps=100)
        for k, base, opt in zip(others, dual_states(sp, params, bnds, budget, C), opts):
            exact = oracle.enumerate_exact_margin(sp, params, budget, y, k)
            primal = primal_attack.construct_and_evaluate(sp, params, base, budget, y, k)
            chain = [base.value, opt.value, exact, primal]
            for a, b in zip(chain, chain[1:]):
                assert a <= b + 1e-9, chain
