import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcn_cert import gcn
from gcn_cert.bounds import Budget, compute_bounds
from gcn_cert.dual_cert import class_vector, dual_state
from gcn_cert.gcn import GcnParams
from gcn_cert.graph_core import Graph, build_message_passing, slice_problem
from gcn_cert.oracle import (
    LpModel,
    admissible_flip_count,
    binary_inner_lp_minimum,
    build_primal_lp,
    check_eta_rho_optimality,
    check_integrality,
    enumerate_exact_margin,
    iter_admissible,
    solve_lp,
    solve_lp_multipliers,
)

from conftest import random_tiny_instance, single_node_problem


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
    res = enumerate_exact_margin(sp, params, Budget(1, 0), 0, 1)
    assert res.count_enumerated == 1
    assert res.exact_min_margin == pytest.approx(float(logits[0] - logits[1]), abs=1e-12)


def test_enumeration_hand_example():
    sp = single_node_problem([0, 0])
    params = GcnParams(
        [np.array([[2.0], [-1.0]]), np.array([[1.0, -1.0]])],
        [np.zeros(1), np.zeros(2)],
    )
    res = enumerate_exact_margin(sp, params, Budget(1, 1), 0, 1)
    assert res.count_enumerated == 3  # clean, flip dim 0, flip dim 1
    assert res.exact_min_margin == pytest.approx(0.0, abs=1e-12)


def test_enumeration_monotone_in_budget(rng):
    sp, params, _ = random_tiny_instance(rng)
    prev = np.inf
    for Q in range(4):
        res = enumerate_exact_margin(sp, params, Budget(1, Q), 0, 1)
        assert res.exact_min_margin <= prev + 1e-12
        prev = res.exact_min_margin


# -- LP solve --------------------------------------------------------------


def _empty_rows(nv):
    return dict(a_eq=np.zeros((0, nv)), b_eq=np.zeros(0))


def test_solve_lp_box_minimum():
    model = LpModel(
        var_names=["x"],
        objective=np.array([-1.0]),
        a_ub=np.zeros((0, 1)),
        b_ub=np.zeros(0),
        lo=np.zeros(1),
        hi=np.ones(1),
        **_empty_rows(1),
    )
    value, x = solve_lp(model)
    assert value == pytest.approx(-1.0, abs=1e-9)
    assert x[0] == pytest.approx(1.0, abs=1e-9)


def test_solve_lp_simplex_facet():
    model = LpModel(
        var_names=["x", "y"],
        objective=np.array([1.0, 1.0]),
        a_ub=np.array([[-1.0, -1.0]]),
        b_ub=np.array([-1.0]),
        lo=np.zeros(2),
        hi=np.full(2, np.inf),
        **_empty_rows(2),
    )
    value, x = solve_lp(model)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert x.sum() == pytest.approx(1.0, abs=1e-9)


def test_solve_lp_infeasible_and_unbounded():
    infeasible = LpModel(
        var_names=["x"],
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
        var_names=["x"],
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
    nv = model.num_vars
    relaxed = LpModel(
        var_names=model.var_names,
        objective=model.objective - model.a_eq.T @ y,
        a_ub=model.a_ub,
        b_ub=model.b_ub,
        lo=model.lo,
        hi=model.hi,
        **_empty_rows(nv),
    )
    value, _ = solve_lp(relaxed)
    return value + float(y @ model.b_eq)


def test_simplex_multipliers_with_redundant_and_negated_rows():
    # u + v = -1 appears twice, with a negative right-hand side and a free
    # u; the redundant copy gets multiplier 0
    model = LpModel(
        var_names=["u", "v"],
        objective=np.array([1.0, 2.0]),
        a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
        b_eq=np.array([-1.0, -1.0]),
        a_ub=np.zeros((0, 2)),
        b_ub=np.zeros(0),
        lo=np.array([-np.inf, 0.0]),
        hi=np.array([np.inf, np.inf]),
    )
    value, _, y = solve_lp_multipliers(model)
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
        value, _, y = solve_lp_multipliers(model)
        assert len(y) == len(model.b_eq)
        assert _lagrangian_value(model, y) == pytest.approx(value, abs=1e-8)


# -- certification LP ------------------------------------------------------


def test_lp_zero_budget_equals_clean_margin(rng):
    sp, params, _ = random_tiny_instance(rng)
    budget = Budget(1, 0)
    bnds = compute_bounds(sp, params, budget)
    c = class_vector(0, 1, params.dims[-1])
    model = build_primal_lp(sp, params, bnds, budget, c)
    value, x = solve_lp(model)
    logits = gcn.forward_sliced(sp, params).logits
    assert value == pytest.approx(float(logits[0] - logits[1]), abs=1e-8)
    # the zero eps budget pins the attribute block to the clean values
    assert x[model.index("X_0_0")] == pytest.approx(sp.sliced_attrs[0, 0], abs=1e-8)


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
            value, _ = solve_lp(build_primal_lp(sp, params, bnds, budget, c))
            exact = enumerate_exact_margin(sp, params, budget, y_star, k).exact_min_margin
            assert value <= exact + 1e-6
            st = dual_state(sp, params, bnds, budget, c)
            assert st.value <= value + 1e-6  # weak duality against the LP


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
    relaxed, _ = solve_lp(build_primal_lp(sp, params, bnds, budget, c))
    best = binary_inner_lp_minimum(sp, params, bnds, budget, c)
    assert relaxed == pytest.approx(0.0, abs=1e-8)
    assert best == pytest.approx(1.0, abs=1e-8)
    ok, flip_relaxed, flip_binary = check_integrality(sp, params, bnds, budget, c)
    assert ok
    assert flip_relaxed == pytest.approx(0.0, abs=1e-8)
    assert flip_binary == pytest.approx(0.0, abs=1e-8)
    # the exact binary network agrees with the inner-LP minimum here
    exact = enumerate_exact_margin(sp, params, budget, 0, 1).exact_min_margin
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
