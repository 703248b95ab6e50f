import numpy as np
import pytest

from gcn_cert import dual_cert, gcn, oracle
from gcn_cert.bounds import Budget, compute_bounds
from gcn_cert.dual_cert import DualState, class_vector, competing_classes, dual_state, dual_states
from gcn_cert.primal_attack import Perturbation, construct, construct_and_evaluate

from conftest import random_tiny_instance


def test_construct_zero_delta_is_identity(rng):
    """c = 0 makes every delta entry 0: the state's picks hold no flip, and construct changes nothing."""
    sp, params, _ = random_tiny_instance(rng)
    budget = Budget(1, 2)
    bnds = compute_bounds(sp, params, budget)
    C = np.zeros((1, params.dims[-1]))
    p = dual_cert._dual_pass(sp, params, bnds, budget, C, bnds.slope)
    assert p.picks.shape == (1, 2) and not p.delta.any()
    (st,) = dual_states(sp, params, bnds, budget, C)
    assert st.flips == []
    pert = construct(st, budget, sp.sliced_attrs)
    assert pert.flips == []
    np.testing.assert_array_equal(pert.perturbed_attrs, sp.sliced_attrs)


def test_construct_keeps_strictly_positive_selected_entries(rng):
    """With every entry picked (q = D, Q = n*D), a state's flips are its picks with delta > 0, in pick order,
    and construct toggles exactly those."""
    zero_picks = flips_seen = 0
    for _ in range(20):
        sp, params, _ = random_tiny_instance(rng)
        X = sp.sliced_attrs
        n, D = X.shape
        budget = Budget(D, n * D)
        bnds = compute_bounds(sp, params, budget)
        _, C = competing_classes(0, params.dims[-1])
        p = dual_cert._dual_pass(sp, params, bnds, budget, C, bnds.slope)
        for b, st in enumerate(dual_states(sp, params, bnds, budget, C)):
            pairs = [divmod(i, D) for i in p.picks[b].tolist()]
            assert st.flips == [(i, d) for i, d in pairs if p.delta[b, i, d] > 0]
            zero_picks += len(pairs) - len(st.flips)
            flips_seen += len(st.flips)
            pert = construct(st, budget, X)
            assert pert.flips == st.flips
            toggled = np.zeros(X.shape, dtype=bool)
            toggled[tuple(np.array(st.flips, dtype=np.intp).reshape(-1, 2).T)] = True
            np.testing.assert_array_equal(pert.perturbed_attrs, np.where(toggled, 1.0 - X, X))
    assert zero_picks > 0 and flips_seen > 0


@pytest.mark.parametrize("flip", [(-1, 0), (0, -1), (2, 0), (5, 0), (0, 2)])
def test_a_flip_outside_the_attributes_is_rejected(flip):
    """A negative flip must not wrap to the last row or column, and one past the shape is a ValueError too."""
    attrs = np.array([[1.0, 0.0], [0.0, 1.0]])
    wrapped = attrs.copy()
    if max(flip) < 2:
        wrapped[flip] = 1.0 - wrapped[flip]
    with pytest.raises(ValueError, match="outside the attribute matrix"):
        Perturbation([flip], wrapped).validate(Budget(2, 2), attrs)
    with pytest.raises(ValueError, match="outside the attribute matrix"):
        construct(DualState(omega={}, value=0.0, flips=[flip]), Budget(2, 2), attrs)
    np.testing.assert_array_equal(attrs, [[1.0, 0.0], [0.0, 1.0]])


def test_construct_empty_budget(rng):
    sp, params, _ = random_tiny_instance(rng)
    budget = Budget(1, 0)
    bnds = compute_bounds(sp, params, budget)
    st = dual_state(sp, params, bnds, budget, class_vector(0, 1, params.dims[-1]))
    pert = construct(st, budget, sp.sliced_attrs)
    assert pert.flips == []


def test_validate_rejects_budget_violations():
    attrs = np.zeros((2, 3))
    flipped = attrs.copy()
    flipped[0, :2] = 1.0
    p = Perturbation(flips=[(0, 0), (0, 1)], perturbed_attrs=flipped)
    with pytest.raises(ValueError, match="local budget"):
        p.validate(Budget(1, 5), attrs)
    with pytest.raises(ValueError, match="global budget"):
        p.validate(Budget(2, 1), attrs)
    with pytest.raises(ValueError, match="binary"):
        Perturbation(flips=[], perturbed_attrs=np.full((2, 3), 0.5)).validate(Budget(1, 1), attrs)
    p.validate(Budget(2, 2), attrs)


def test_validate_rejects_a_matrix_other_than_the_listed_flips():
    """perturbed_attrs must be attrs with exactly the listed flips toggled, each listed once."""
    attrs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    flipped = attrs.copy()
    flipped[0, 0] = 1.0
    Perturbation(flips=[(0, 0)], perturbed_attrs=flipped).validate(Budget(2, 2), attrs)
    unlisted = flipped.copy()
    unlisted[1, 2] = 1.0
    with pytest.raises(ValueError, match="exactly the listed flips"):
        Perturbation(flips=[(0, 0)], perturbed_attrs=unlisted).validate(Budget(2, 2), attrs)
    with pytest.raises(ValueError, match="exactly the listed flips"):
        Perturbation(flips=[(0, 0), (1, 1)], perturbed_attrs=flipped).validate(Budget(2, 2), attrs)
    with pytest.raises(ValueError, match="listed more than once"):
        Perturbation(flips=[(0, 0), (0, 0)], perturbed_attrs=flipped).validate(Budget(2, 2), attrs)


def test_constructed_perturbation_is_feasible(rng):
    for _ in range(30):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        K = params.dims[-1]
        st = dual_state(sp, params, bnds, budget, class_vector(0, K - 1, K))
        pert = construct(st, budget, sp.sliced_attrs)
        D = sp.sliced_attrs.shape[1]
        assert len(pert.flips) <= budget.global_Q
        diff = np.abs(pert.perturbed_attrs - sp.sliced_attrs)
        assert diff.sum() == len(pert.flips)
        assert diff.sum(axis=1).max(initial=0) <= budget.local_q


def test_empty_flip_set_evaluates_clean_margin(rng):
    sp, params, _ = random_tiny_instance(rng)
    budget = Budget(1, 0)
    bnds = compute_bounds(sp, params, budget)
    K = params.dims[-1]
    st = dual_state(sp, params, bnds, budget, class_vector(0, K - 1, K))
    logits = gcn.forward_sliced(sp, params).logits
    margin = construct_and_evaluate(sp, params, st, budget, 0, K - 1)
    assert margin == pytest.approx(float(logits[0] - logits[K - 1]), abs=1e-12)


def test_sandwich_dual_exact_primal(rng):
    for _ in range(25):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        K = params.dims[-1]
        y_star = gcn.predict(gcn.forward_sliced(sp, params))
        for k in range(K):
            if k == y_star:
                continue
            st = dual_state(sp, params, bnds, budget, class_vector(y_star, k, K))
            exact = oracle.enumerate_exact_margin(sp, params, budget, y_star, k)
            primal = construct_and_evaluate(sp, params, st, budget, y_star, k)
            assert st.value <= exact + 1e-9
            assert exact <= primal + 1e-9


def test_gap_nonnegative_with_optimized_omega(rng):
    for _ in range(5):
        sp, params, budget = random_tiny_instance(rng)
        bnds = compute_bounds(sp, params, budget)
        K = params.dims[-1]
        c = class_vector(0, K - 1, K)
        opt = dual_cert.optimize_omega(sp, params, bnds, budget, c, steps=50)
        primal = construct_and_evaluate(sp, params, opt, budget, 0, K - 1)
        assert primal - opt.value >= -1e-9
