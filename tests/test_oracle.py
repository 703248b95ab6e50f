from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcn_cert import gcn, grad
from gcn_cert.bounds import CROSSING, NONNEG, Budget, compute_bounds
from gcn_cert.dual_cert import class_vector, dual_state
from gcn_cert.gcn import GcnParams
from gcn_cert.graph_core import Graph, build_message_passing, slice_problem

from conftest import single_node_problem
from oracle import (
    MAX_LP_VARIABLES,
    LpModel,
    admissible_flip_count,
    binary_inner_lp_minimum,
    build_primal_lp,
    check_eta_rho_optimality,
    check_integrality,
    enumerate_exact_margin,
    iter_admissible,
    random_tiny_instance,
    solve_lp,
)


# -- enumeration -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    D=st.integers(1, 3),
    q=st.integers(0, 3),
    Q=st.integers(0, 4),
)
def test_flip_count_matches_enumeration(n, D, q, Q):
    budget = Budget(q, Q)
    listed = list(iter_admissible(n, D, budget))
    assert len(listed) == admissible_flip_count(n, D, budget)
    assert len(set(listed)) == len(listed)
    for flips in listed:
        assert len(flips) <= budget.effective_Q(n, D)
        per_row = np.bincount([r for r, _ in flips], minlength=n)
        assert per_row.max(initial=0) <= budget.effective_q(D)


def test_enumeration_guard(rng):
    sp, params, _ = random_tiny_instance(rng)
    with pytest.raises(ValueError, match="guard"):
        enumerate_exact_margin(sp, params, Budget(5, 100), 0, 1, guard=10)


def test_enumeration_zero_budget_is_clean_margin(rng):
    sp, params, _ = random_tiny_instance(rng)
    logits = gcn.forward_sliced(sp, params).logits
    exact = enumerate_exact_margin(sp, params, Budget(1, 0), 0, 1)
    assert exact == pytest.approx(float(logits[0] - logits[1]), abs=1e-12)


def test_enumeration_hand_example():
    sp = single_node_problem([0, 0])
    params = GcnParams(
        [np.array([[2.0], [-1.0]]), np.array([[1.0, -1.0]])],
        [np.zeros(1), np.zeros(2)],
    )
    exact = enumerate_exact_margin(sp, params, Budget(1, 1), 0, 1)
    assert exact == pytest.approx(0.0, abs=1e-12)


def test_enumeration_monotone_in_budget(rng):
    sp, params, _ = random_tiny_instance(rng)
    prev = np.inf
    for Q in range(4):
        exact = enumerate_exact_margin(sp, params, Budget(1, Q), 0, 1)
        assert exact <= prev + 1e-12
        prev = exact


# -- LP solve --------------------------------------------------------------


def _empty_rows(nv):
    return dict(a_eq=np.zeros((0, nv)), b_eq=np.zeros(0))


def test_solve_lp_box_minimum():
    model = LpModel(
        objective=np.array([-1.0]),
        a_ub=np.zeros((0, 1)),
        b_ub=np.zeros(0),
        lo=np.zeros(1),
        hi=np.ones(1),
        **_empty_rows(1),
    )
    value, x, _ = solve_lp(model)
    assert value == pytest.approx(-1.0, abs=1e-9)
    assert x[0] == pytest.approx(1.0, abs=1e-9)


def test_solve_lp_simplex_facet():
    model = LpModel(
        objective=np.array([1.0, 1.0]),
        a_ub=np.array([[-1.0, -1.0]]),
        b_ub=np.array([-1.0]),
        lo=np.zeros(2),
        hi=np.full(2, np.inf),
        **_empty_rows(2),
    )
    value, x, _ = solve_lp(model)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert x.sum() == pytest.approx(1.0, abs=1e-9)


def test_solve_lp_infeasible_and_unbounded():
    infeasible = LpModel(
        objective=np.array([1.0]),
        a_ub=np.array([[1.0], [-1.0]]),
        b_ub=np.array([-2.0, -3.0]),  # x <= -2 and x >= 3
        lo=np.array([-np.inf]),
        hi=np.array([np.inf]),
        **_empty_rows(1),
    )
    with pytest.raises(RuntimeError, match="infeasible"):
        solve_lp(infeasible)
    unbounded = LpModel(
        objective=np.array([-1.0]),
        a_ub=np.zeros((0, 1)),
        b_ub=np.zeros(0),
        lo=np.zeros(1),
        hi=np.array([np.inf]),
        **_empty_rows(1),
    )
    with pytest.raises(RuntimeError, match="unbounded"):
        solve_lp(unbounded)


def _lagrangian_value(model, y):
    """min over the inequality rows and bounds of c.x - y.(A_eq x - b_eq)."""
    nv = model.objective.size
    relaxed = LpModel(
        objective=model.objective - model.a_eq.T @ y,
        a_ub=model.a_ub,
        b_ub=model.b_ub,
        lo=model.lo,
        hi=model.hi,
        **_empty_rows(nv),
    )
    return solve_lp(relaxed)[0] + float(y @ model.b_eq)


def test_simplex_multipliers_with_redundant_and_negated_rows():
    # u + v = -1 appears twice, with a negative right-hand side and a free
    # u; the redundant copy gets multiplier 0
    model = LpModel(
        objective=np.array([1.0, 2.0]),
        a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
        b_eq=np.array([-1.0, -1.0]),
        a_ub=np.zeros((0, 2)),
        b_ub=np.zeros(0),
        lo=np.array([-np.inf, 0.0]),
        hi=np.array([np.inf, np.inf]),
    )
    value, _, y = solve_lp(model)
    assert value == pytest.approx(-1.0, abs=1e-9)
    assert y.sum() == pytest.approx(1.0, abs=1e-9)
    assert (np.abs(y) <= 1e-12).sum() == 1
    assert _lagrangian_value(model, y) == pytest.approx(value, abs=1e-9)


def test_simplex_multipliers_are_an_optimal_dual_of_the_certification_lp(rng):
    for _ in range(15):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        y_star = gcn.predict(gcn.forward_sliced(sp, params))
        c = class_vector(y_star, (y_star + 1) % params.dims[-1], params.dims[-1])
        model = build_primal_lp(sp, params, bnds, budget, c)
        value, _, y = solve_lp(model)
        assert len(y) == len(model.b_eq)
        assert _lagrangian_value(model, y) == pytest.approx(value, abs=1e-8)


# -- certification LP ------------------------------------------------------


def test_lp_zero_budget_equals_clean_margin(rng):
    sp, params, _ = random_tiny_instance(rng)
    budget = Budget(1, 0)
    bnds = compute_bounds(sp, params, budget)
    c = class_vector(0, 1, params.dims[-1])
    model = build_primal_lp(sp, params, bnds, budget, c)
    value, x, _ = solve_lp(model)
    logits = gcn.forward_sliced(sp, params).logits
    assert value == pytest.approx(float(logits[0] - logits[1]), abs=1e-8)
    # the zero eps budget pins the attribute block to the clean values
    assert x[0] == pytest.approx(sp.sliced_attrs[0, 0], abs=1e-8)


def test_lp_is_a_relaxation_of_enumeration(rng):
    for _ in range(15):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        K = params.dims[-1]
        y_star = gcn.predict(gcn.forward_sliced(sp, params))
        for k in range(K):
            if k == y_star:
                continue
            c = class_vector(y_star, k, K)
            value = solve_lp(build_primal_lp(sp, params, bnds, budget, c))[0]
            exact = enumerate_exact_margin(sp, params, budget, y_star, k)
            assert value <= exact + 1e-6
            st = dual_state(sp, params, bnds, budget, c)
            assert st.value <= value + 1e-6  # weak duality against the LP


def _reference_build_primal_lp(sp, params, bounds, budget, c):
    """The named-variable LP builder that build_primal_lp replaced, kept verbatim
    but for its return value: the seven LpModel arrays, in field order.

    The relaxed certification problem as an explicit dense LP.

    Variables: the attribute block (= H^(1)), slack magnitudes eps, every
    pre-activation Hhat^(l), and post-activations H^(l) for crossing
    neurons only (the exactly-linear cases are substituted away).
    """
    L = sp.layer_count
    X = sp.sliced_attrs
    n_outer, D = X.shape
    K = grad.val(params.weights[-1]).shape[1]
    c = np.asarray(c, dtype=np.float64)

    names, lo, hi = [], [], []

    def add_var(name, low, high):
        names.append(name)
        lo.append(low)
        hi.append(high)
        return len(names) - 1

    x_idx = {(n, d): add_var(f"X_{n}_{d}", 0.0, 1.0) for n in range(n_outer) for d in range(D)}
    e_idx = {(n, d): add_var(f"eps_{n}_{d}", 0.0, np.inf) for n in range(n_outer) for d in range(D)}
    hhat_idx = {}
    for l in range(2, L + 1):
        rows = sp.sliced_mp[l - 2].shape[0]
        width = grad.val(params.weights[l - 2]).shape[1]
        for m in range(rows):
            for j in range(width):
                hhat_idx[(l, m, j)] = add_var(f"Hhat{l}_{m}_{j}", -np.inf, np.inf)
    h_idx = {}
    for l in range(2, L):
        part = bounds.partition[l]
        for m in range(part.shape[0]):
            for j in range(part.shape[1]):
                if part[m, j] == CROSSING:
                    h_idx[(l, m, j)] = add_var(f"H{l}_{m}_{j}", 0.0, np.inf)

    nv = len(names)
    if nv > MAX_LP_VARIABLES:
        raise ValueError(f"LP too large for the LP oracle: {nv} > {MAX_LP_VARIABLES} variables")

    a_eq, b_eq = [], []
    a_ub, b_ub = [], []

    # layer equalities (dual variables Phi)
    for l in range(2, L + 1):
        A_dot = sp.sliced_mp[l - 2]
        W = grad.val(params.weights[l - 2])
        b = grad.val(params.biases[l - 2])
        rows, width = A_dot.shape[0], W.shape[1]
        for m in range(rows):
            for j in range(width):
                row = np.zeros(nv)
                row[hhat_idx[(l, m, j)]] = 1.0
                for n in range(A_dot.shape[1]):
                    if A_dot[m, n] == 0.0:
                        continue
                    for k in range(W.shape[0]):
                        coef = A_dot[m, n] * W[k, j]
                        if coef == 0.0:
                            continue
                        if l == 2:
                            row[x_idx[(n, k)]] -= coef
                        else:
                            tag = bounds.partition[l - 1][n, k]
                            if tag == CROSSING:
                                row[h_idx[(l - 1, n, k)]] -= coef
                            elif tag == NONNEG:
                                row[hhat_idx[(l - 1, n, k)]] -= coef
                a_eq.append(row)
                b_eq.append(b[j])

    # |X - Xdot| <= eps (dual gamma+/-)
    for n in range(n_outer):
        for d in range(D):
            row = np.zeros(nv)
            row[x_idx[(n, d)]] = 1.0
            row[e_idx[(n, d)]] = -1.0
            a_ub.append(row)
            b_ub.append(X[n, d])
            row = np.zeros(nv)
            row[x_idx[(n, d)]] = -1.0
            row[e_idx[(n, d)]] = -1.0
            a_ub.append(row)
            b_ub.append(-X[n, d])

    # budget rows (dual eta, rho)
    for n in range(n_outer):
        row = np.zeros(nv)
        for d in range(D):
            row[e_idx[(n, d)]] = 1.0
        a_ub.append(row)
        b_ub.append(float(budget.local_q))
    row = np.zeros(nv)
    for key, i in e_idx.items():
        row[i] = 1.0
    a_ub.append(row)
    b_ub.append(float(budget.global_Q))

    # convex envelope on crossing neurons (dual mu, lambda; tau is the
    # H >= 0 variable bound)
    for (l, m, j), hi_var in h_idx.items():
        R = grad.val(bounds.lower[l])[m, j]
        S = grad.val(bounds.upper[l])[m, j]
        row = np.zeros(nv)
        row[hhat_idx[(l, m, j)]] = 1.0
        row[hi_var] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
        row = np.zeros(nv)
        row[hi_var] = S - R
        row[hhat_idx[(l, m, j)]] = -S
        a_ub.append(row)
        b_ub.append(-S * R)

    objective = np.zeros(nv)
    for k in range(K):
        objective[hhat_idx[(L, 0, k)]] = c[k]

    return (
        objective,
        np.array(a_eq).reshape(-1, nv),
        np.array(b_eq, dtype=np.float64),
        np.array(a_ub).reshape(-1, nv),
        np.array(b_ub, dtype=np.float64),
        np.array(lo, dtype=np.float64),
        np.array(hi, dtype=np.float64),
    )


def test_block_builder_matches_the_reference_builder():
    """build_primal_lp gives the reference builder's seven arrays exactly, on
    one- and two-hidden-layer instances, for every competing class, also at
    Q = 0 (no crossing neuron) and q = 0."""
    rng = np.random.default_rng(15)
    no_crossing = deep_crossing = 0
    for hidden_layers in (1, 2):
        for i in range(240):
            sp, params, budget = random_tiny_instance(rng, hidden_layers=hidden_layers)
            if i % 6 == 4:
                budget = Budget(budget.local_q, 0)
            elif i % 6 == 5:
                budget = Budget(0, budget.global_Q)
            bnds = compute_bounds(sp, params, budget)
            crossing = [np.count_nonzero(bnds.partition[l] == CROSSING) for l in range(2, sp.layer_count)]
            no_crossing += sum(crossing) == 0
            deep_crossing += sum(crossing[1:]) > 0
            K = params.dims[-1]
            y_star = gcn.predict(gcn.forward_sliced(sp, params))
            for k in range(K):
                if k == y_star:
                    continue
                c = class_vector(y_star, k, K)
                model = build_primal_lp(sp, params, bnds, budget, c)
                reference = _reference_build_primal_lp(sp, params, bnds, budget, c)
                for a, b in zip(astuple(model), reference, strict=True):
                    assert np.array_equal(a, b)
    assert no_crossing > 0 and deep_crossing > 0


def test_lp_size_guard():
    X = np.zeros((1, 301))
    g = Graph(num_nodes=1, num_features=301, num_classes=2, adjacency=np.zeros((1, 1)), attributes=X)
    sp = slice_problem(g, build_message_passing(g), 0, 3)
    params = gcn.glorot_params([301, 2, 2])
    budget = Budget(1, 1)
    bnds = compute_bounds(sp, params, budget)
    with pytest.raises(ValueError, match="too large"):
        build_primal_lp(sp, params, bnds, budget, np.array([1.0, -1.0]))


# -- structural checks -----------------------------------------------------


def test_integrality_holds_at_zero_budget(rng):
    sp, params, _ = random_tiny_instance(rng)
    budget = Budget(1, 0)
    bnds = compute_bounds(sp, params, budget)
    ok, relaxed, best = check_integrality(sp, params, bnds, budget, class_vector(0, 1, params.dims[-1]))
    assert ok
    assert relaxed == pytest.approx(best, abs=1e-8)


def test_relaxation_gap_counterexample():
    """Fractional attributes can park both hidden neurons at the ReLU kink.

    With Hhat_j = 1 - 2 x_j and a positive downstream coefficient on each
    neuron, x = (1/2, 1/2) is feasible for the relaxed budget and reaches
    objective 0, while every admissible binary point pays at least 1.  The
    relaxed flip set itself stays integral: check_integrality holds.
    """
    sp = single_node_problem([0, 0])
    params = GcnParams(
        [np.array([[-2.0, 0.0], [0.0, -2.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])],
        [np.array([1.0, 1.0]), np.zeros(2)],
    )
    budget = Budget(1, 1)
    bnds = compute_bounds(sp, params, budget)
    np.testing.assert_allclose(bnds.lower[2], [[-1.0, -1.0]])
    np.testing.assert_allclose(bnds.upper[2], [[1.0, 1.0]])
    c = np.array([1.0, 0.0])  # objective = H_1 + H_2 after the output layer
    relaxed = solve_lp(build_primal_lp(sp, params, bnds, budget, c))[0]
    best = binary_inner_lp_minimum(sp, params, bnds, budget, c)
    assert relaxed == pytest.approx(0.0, abs=1e-8)
    assert best == pytest.approx(1.0, abs=1e-8)
    ok, flip_relaxed, flip_binary = check_integrality(sp, params, bnds, budget, c)
    assert ok
    assert flip_relaxed == pytest.approx(0.0, abs=1e-8)
    assert flip_binary == pytest.approx(0.0, abs=1e-8)
    # the exact binary network agrees with the inner-LP minimum here
    exact = enumerate_exact_margin(sp, params, budget, 0, 1)
    assert exact == pytest.approx(1.0, abs=1e-12)


def test_eta_rho_check_trivial_and_hand_cases():
    ok, lp_opt, greedy, h = check_eta_rho_optimality(np.zeros((2, 2)), Budget(1, 1))
    assert ok and lp_opt == pytest.approx(0.0, abs=1e-9)

    delta = np.array([[3.0, 1.0], [2.0, 0.0]])
    ok, lp_opt, greedy, h = check_eta_rho_optimality(delta, Budget(1, 1))
    assert ok
    assert lp_opt == pytest.approx(3.0, abs=1e-9)
    assert greedy == pytest.approx(3.0, abs=1e-9)
    assert h == pytest.approx(3.0, abs=1e-9)


def test_eta_rho_check_rejects_negative_delta():
    with pytest.raises(ValueError, match="nonnegative"):
        check_eta_rho_optimality(np.array([[-1.0]]), Budget(1, 1))


def test_eta_rho_check_on_random_draws(rng):
    for _ in range(60):
        n = int(rng.integers(1, 5))
        D = int(rng.integers(1, 5))
        delta = np.abs(rng.normal(size=(n, D)))
        delta[rng.random((n, D)) < 0.3] = 0.0
        budget = Budget(int(rng.integers(0, 3)), int(rng.integers(0, 5)))
        ok, lp_opt, greedy, h = check_eta_rho_optimality(delta, budget)
        assert ok, (lp_opt, greedy, h)
