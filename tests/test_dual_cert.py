import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gcn_cert import dual_cert, gcn, grad, oracle
from gcn_cert.bounds import ActivationBounds, Budget, classify_partition, compute_bounds
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
    default_omega,
    dual_state,
    dual_states,
    dual_value_differentiable,
    evaluate_dual,
    margin_vector,
    optimize_omega,
)

from gcn_cert.gcn import GcnParams
from gcn_cert.graph_core import SlicedProblem

from conftest import random_tiny_instance


def _bounds_from(R, S):
    R, S = np.asarray(R, dtype=float), np.asarray(S, dtype=float)
    return ActivationBounds(lower={2: R}, upper={2: S}, partition={2: classify_partition(R, S)})


def test_default_omega_values():
    bnds = _bounds_from([[-2.0, -1.0, -3.0]], [[2.0, 3.0, 1.0]])
    np.testing.assert_allclose(default_omega(bnds)[2], [[0.5, 0.75, 0.25]])


def test_default_omega_zero_outside_crossing():
    bnds = _bounds_from([[1.0, -2.0]], [[3.0, -1.0]])
    om = default_omega(bnds)[2]
    assert om[0, 0] == 0.0 and om[0, 1] == 0.0


def test_backward_phi_zero_c(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    phi, phi_hat, delta = backward_phi(sp, params, bnds, default_omega(bnds), np.zeros(params.dims[-1]))
    assert all(np.all(p == 0) for p in phi.values())
    assert all(np.all(p == 0) for p in phi_hat.values())
    assert np.all(delta == 0)


def test_backward_phi_last_layer_is_minus_c(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    c = class_vector(0, 1, params.dims[-1])
    phi, _, _ = backward_phi(sp, params, bnds, default_omega(bnds), c)
    np.testing.assert_array_equal(phi[sp.layer_count], -c.reshape(1, -1))


def test_backward_phi_exact_on_nonnegative_partition(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    # force every hidden entry into the exactly-linear nonnegative case
    shape = np.asarray(bnds.lower[2]).shape
    bnds = _bounds_from(np.full(shape, 0.5), np.full(shape, 2.0))
    c = class_vector(0, 1, params.dims[-1])
    phi, phi_hat, _ = backward_phi(sp, params, bnds, default_omega(bnds), c)
    np.testing.assert_allclose(phi[2], phi_hat[2])


def test_delta_nonnegative_always(rng):
    for _ in range(100):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        c = class_vector(0, params.dims[-1] - 1, params.dims[-1])
        _, _, delta = backward_phi(sp, params, bnds, default_omega(bnds), c)
        assert np.all(delta >= 0.0)


def test_closed_form_eta_rho_examples():
    delta = np.array([[3.0, 1.0], [2.0, 0.0]])
    eta, rho, s_q, _ = closed_form_eta_rho(delta, Budget(1, 1))
    assert rho == 3.0
    np.testing.assert_array_equal(eta, [0.0, 0.0])
    assert s_q == [(0, 0)]

    eta, rho, s_q, _ = closed_form_eta_rho(delta, Budget(1, 2))
    assert rho == 2.0
    np.testing.assert_array_equal(eta, [1.0, 0.0])
    assert sorted(s_q) == [(0, 0), (1, 0)]


def test_closed_form_eta_rho_degenerate():
    delta = np.zeros((2, 3))
    eta, rho, s_q, _ = closed_form_eta_rho(delta, Budget(2, 2))
    assert rho == 0.0 and np.all(eta == 0.0) and len(s_q) == 2

    eta, rho, s_q, _ = closed_form_eta_rho(np.ones((2, 3)), Budget(0, 2))
    assert rho == 0.0 and np.all(eta == 0.0) and s_q == []
    eta, rho, s_q, _ = closed_form_eta_rho(np.ones((2, 3)), Budget(2, 0))
    assert rho == 0.0 and np.all(eta == 0.0) and s_q == []


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
    eta, rho, _, _ = closed_form_eta_rho(delta, budget)
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
        assert np.all(st_.psi == 0.0)


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
            exact = oracle.enumerate_exact_margin(sp, params, budget, y_star, k).exact_min_margin
            assert st_.value <= exact + 1e-9


def test_dual_scaling_in_c_with_fixed_omega(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    K = params.dims[-1]
    c = class_vector(0, K - 1, K)
    om = default_omega(bnds)
    a = dual_state(sp, params, bnds, budget, c, omega=om)
    b = dual_state(sp, params, bnds, budget, 2.0 * c, omega=om)
    assert b.value == pytest.approx(2.0 * a.value, rel=1e-9, abs=1e-9)


def test_dual_state_invariants(rng):
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    K = params.dims[-1]
    st_ = dual_state(sp, params, bnds, budget, class_vector(0, 1, K))
    assert np.all(st_.eta >= 0.0) and st_.rho >= 0.0
    assert np.all(st_.delta >= 0.0)
    eta_col = st_.eta[:, None]
    np.testing.assert_allclose(st_.psi, np.maximum(st_.delta - eta_col - st_.rho, 0.0), atol=1e-12)
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
    sp, params, budget = random_tiny_instance(rng)
    bnds = compute_bounds(sp, params, budget)
    K = params.dims[-1]
    mv = margin_vector(sp, params, bnds, budget, 0)
    assert mv.entries[0] == 0.0
    g = dual_state(sp, params, bnds, budget, class_vector(0, 1, K)).value
    assert mv.entries[1] == pytest.approx(-g, abs=1e-12)
    with pytest.raises(ValueError, match="out of range"):
        margin_vector(sp, params, bnds, budget, K + 3)


def test_margin_vector_zero_budget_is_clean_margin(rng):
    sp, params, _ = random_tiny_instance(rng)
    budget = Budget(1, 0)
    bnds = compute_bounds(sp, params, budget)
    logits = gcn.forward_sliced(sp, params).logits
    mv = margin_vector(sp, params, bnds, budget, 0)
    for k in range(1, params.dims[-1]):
        assert mv.entries[k] == pytest.approx(-(logits[0] - logits[k]), abs=1e-9)


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
            oracle.enumerate_exact_margin(sp, params, budget, y_star, k).exact_min_margin
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
    params = params.replace(weights=[params.weights[0], W2], biases=[params.biases[0], b2])
    cert = certify(sp, params, Budget(1, 2), 0)
    assert cert.dual_lower[1] == 0.0
    assert cert.status != ROBUST


# -- the per-class dual pass as it was before class batching: the reference
# the batched dual_states is compared against


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
            slope, _, cross = dual_cert._envelope_slope(bounds, l)
            nonneg = bounds.nonneg_mask(l)
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
        _, denom, cross = dual_cert._envelope_slope(bounds, l)
        g = g + grad.total((S * R * cross) / denom * grad.pos(phi_hat[l]))
    for l in range(1, L):
        g = g - grad.total(phi[l + 1] * params.biases[l - 1])
    g = g - grad.total(X * phi_hat[1])
    if q > 0 and Q > 0:
        eta_col = grad.expand_dims(eta, 1) if grad.is_var(eta) else np.asarray(eta).reshape(-1, 1)
        psi = grad.relu(delta - eta_col - rho)
        g = g - grad.total(psi)
        g = g - q * grad.total(eta) - Q * grad.total(rho)
    else:
        psi = np.zeros_like(grad.val(delta))
    return g, psi


def _reference_dual_state(sp, params, bounds, budget, c, omega=None):
    if omega is None:
        omega = default_omega(bounds)
    phi, phi_hat, delta = _reference_backward_phi(sp, params, bounds, omega, c)
    eta, rho, s_q, _ = _reference_closed_form_eta_rho(delta, budget)
    g, psi = _reference_evaluate_dual(sp, params, bounds, eta, rho, phi, phi_hat, delta, budget)
    return DualState(
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
    _, _, _, info = closed_form_eta_rho(np.stack([st_.delta for st_ in states]), budget)
    for b, (c, st_) in enumerate(zip(C, states)):
        ref = _reference_dual_state(sp, params, bnds, budget, c)
        _, _, _, ref_info = _reference_closed_form_eta_rho(ref.delta, budget)
        assert isinstance(st_.value, float)
        _close(st_.value, ref.value)
        assert st_.s_q == ref.s_q
        if ref_info["o_idx"] is None:
            assert info["o_idx"] is None and info["rho_idx"] is None
        else:
            np.testing.assert_array_equal(info["o_idx"][b] - b * n * D, ref_info["o_idx"])
            assert info["rho_idx"][b] - b * n * D == ref_info["rho_idx"]
        for got, want in [(st_.eta, ref.eta), (st_.rho, ref.rho), (st_.delta, ref.delta), (st_.psi, ref.psi)]:
            _close(got, want)
        for l in ref.phi:
            _close(st_.phi[l], ref.phi[l])
        for l in ref.phi_hat:
            _close(st_.phi_hat[l], ref.phi_hat[l])
        np.testing.assert_array_equal(st_.c, ref.c)
        assert dual_state(sp, params, bnds, budget, c).s_q == ref.s_q

    # tape gradients in the parameters (training) of a random mix of classes
    r = np.random.default_rng(len(C)).normal(size=len(C))

    def batched(shadow):
        bb = compute_bounds(sp, shadow, budget)
        sts = dual_states(sp, shadow, bb, budget, C)
        return sum((w * st_.value for w, st_ in zip(r, sts)), 0.0)

    def per_class(shadow):
        bb = compute_bounds(sp, shadow, budget)
        om = default_omega(bb)
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
        om_new = {l: grad.Var(om) for l, om in default_omega(bnds).items()}
        om_ref = {l: grad.Var(om) for l, om in default_omega(bnds).items()}
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


def _forced_tie_slice(rng, n, M, D, h, K):
    """A Cora-ML-shape slice (L = 3) built to put many delta entries in exact ties.

    Dyadic message-passing weights and integer W keep the arithmetic exact;
    duplicated feature columns (with equal W rows) and all-zero attribute
    rows repeat whole delta columns and rows.
    """
    A1 = rng.choice([0.0, 0.25, 0.5], size=(M, n), p=[0.6, 0.2, 0.2])
    A1[np.arange(M), np.arange(M)] = 0.5
    A2 = np.full((1, M), 0.25)
    X = (rng.random((n, D)) < 0.02).astype(float)
    src = rng.integers(D, size=D // 4)
    dst = rng.integers(D, size=D // 4)
    X[:, dst] = X[:, src]
    X[rng.random(n) < 0.2] = 0.0
    W1 = rng.integers(-2, 3, size=(D, h)).astype(float)
    W1[dst] = W1[src]
    W2 = rng.integers(-2, 3, size=(h, K)).astype(float)
    b1 = rng.integers(-3, 4, size=h).astype(float)
    b2 = rng.integers(-1, 2, size=K).astype(float)
    sp = SlicedProblem(
        target=0, layer_count=3, sliced_mp=[A1, A2], sliced_attrs=X,
        hop_sets=[np.array([0]), np.arange(M), np.arange(n)],
    )
    return sp, GcnParams([W1, W2], [b1, b2])


@pytest.mark.parametrize("q, Q", [(29, 12), (29, 29 * 30), (0, 12), (29, 0), (3000, 40)])
def test_dual_states_match_per_class_reference_on_forced_ties(q, Q):
    rng = np.random.default_rng(q + Q)
    sp, params = _forced_tie_slice(rng, n=30, M=9, D=2879, h=16, K=7)
    _assert_dual_states_match_reference(sp, params, Budget(q, Q), 2)


def test_closed_form_eta_rho_batched_matches_reference_on_ties():
    """Small-integer delta stacks: nearly every selection is decided by a tie rule."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        B, n, D = (int(v) for v in rng.integers(1, 6, size=3))
        delta = rng.integers(0, 3, size=(B, n, D)).astype(float)
        budget = Budget(int(rng.integers(0, D + 2)), int(rng.integers(0, n * D + 2)))
        eta, rho, s_q, info = closed_form_eta_rho(delta, budget)
        for b in range(B):
            e, r, s, ref_info = _reference_closed_form_eta_rho(delta[b], budget)
            np.testing.assert_array_equal(eta[b], e)
            assert rho[b] == r and s_q[b] == s
            if ref_info["o_idx"] is not None:
                np.testing.assert_array_equal(info["o_idx"][b] - b * n * D, ref_info["o_idx"])
                assert info["rho_idx"][b] - b * n * D == ref_info["rho_idx"]
