import numpy as np
import pytest

from gcn_cert import dual_cert, gcn, oracle
from gcn_cert.bounds import Budget, compute_bounds
from gcn_cert.dual_cert import DualState, class_vector, dual_state
from gcn_cert.primal_attack import Perturbation, construct, construct_and_evaluate

from conftest import random_tiny_instance


def _dual_with(delta, s_q, attrs):
    return DualState(omega={}, delta=delta, value=0.0, s_q=s_q)


def test_construct_zero_delta_is_identity():
    attrs = np.array([[1.0, 0.0], [0.0, 1.0]])
    delta = np.zeros((2, 2))
    pert = construct(_dual_with(delta, [(0, 0), (1, 1)], attrs), Budget(1, 2), attrs)
    assert pert.flips == []
    np.testing.assert_array_equal(pert.perturbed_attrs, attrs)


def test_construct_keeps_strictly_positive_selected_entries():
    attrs = np.zeros((2, 2))
    delta = np.array([[3.0, 1.0], [2.0, 0.0]])
    pert = construct(_dual_with(delta, [(0, 0)], attrs), Budget(1, 1), attrs)
    assert pert.flips == [(0, 0)]
    assert pert.perturbed_attrs[0, 0] == 1.0
    assert pert.perturbed_attrs.sum() == 1.0


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
