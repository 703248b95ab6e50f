"""End-to-end acceptance suite.

Each test here checks one headline guarantee of the package at its stated
tolerance, against independent oracles (enumeration, explicit LP, finite
differences).  Tiny instances are sized so exhaustive enumeration is exact
ground truth.
"""

import math
import os
import time

import numpy as np
import pytest

from gcn_cert import dual_cert, gcn, primal_attack, robust_train
from gcn_cert.bounds import Budget, compute_bounds, first_layer_bounds
from gcn_cert.dual_cert import class_vector, closed_form_eta_rho, dual_state, optimize_omega
from gcn_cert.graph_core import Graph, build_message_passing, slice_problem
from gcn_cert.robust_train import TrainConfig, Trainer

import oracle
from oracle import random_tiny_graph, random_tiny_instance


def _random_class_pair(rng, sp, params):
    y_star = gcn.predict(gcn.forward_sliced(sp, params))
    K = params.dims[-1]
    others = [k for k in range(K) if k != y_star]
    return y_star, int(rng.choice(others))


def test_acceptance_1_sandwich_chain_on_100_instances():
    """g(default) <= g(PGA) <= LP <= exact <= primal, each within 1e-6."""
    rng = np.random.default_rng(1)
    start = time.monotonic()
    for i in range(100):
        sp, params, budget = random_tiny_instance(rng)
        y_star, k = _random_class_pair(rng, sp, params)
        c = class_vector(y_star, k, params.dims[-1])
        bnds = compute_bounds(sp, params, budget)
        base = dual_state(sp, params, bnds, budget, c)
        opt = optimize_omega(sp, params, bnds, budget, c, steps=200)
        lp_val = oracle.solve_lp(oracle.build_primal_lp(sp, params, bnds, budget, c))[0]
        exact = oracle.enumerate_exact_margin(sp, params, budget, y_star, k)
        primal = primal_attack.construct_and_evaluate(sp, params, base, budget, y_star, k)
        chain = [base.value, opt.value, lp_val, exact, primal]
        for a, b in zip(chain, chain[1:]):
            assert a <= b + 1e-6, f"instance {i}: chain {chain}"
    assert time.monotonic() - start < 120.0


def test_acceptance_2_relaxation_integrality():
    """The relaxed flip set is integral for the LP's X-part, 1e-6.

    At the certification LP's optimal multipliers, the X-part of the
    Lagrangian has the same minimum over the relaxed flip set (X in [0, 1],
    |X - Xdot| row sums <= q, total <= Q) as over the admissible binary
    flip sets: the set's vertices are binary.  The closed-form budget duals
    rely on this when they pick a binary s_q.  The whole ReLU relaxation is
    not integral in this sense; its own gap is pinned in
    test_oracle.test_relaxation_gap_counterexample.
    """
    rng = np.random.default_rng(2)
    failures = []
    for i in range(20):
        sp, params, budget = random_tiny_instance(rng)
        y_star, k = _random_class_pair(rng, sp, params)
        c = class_vector(y_star, k, params.dims[-1])
        bnds = compute_bounds(sp, params, budget)
        ok, relaxed, best = oracle.check_integrality(sp, params, bnds, budget, c, tol=1e-6)
        if not ok:
            failures.append((i, best - relaxed))
    assert not failures, f"integrality gaps on {len(failures)}/20 instances: {failures}"


def test_acceptance_3_first_layer_bound_tightness():
    """Enumerated min/max of the first pre-activations equals R/S, 1e-9."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        sp, params, budget = random_tiny_instance(rng)
        R, S = first_layer_bounds(sp, params, budget)
        X = sp.sliced_attrs
        n, D = X.shape
        lo, hi = None, None
        for flips in oracle.iter_admissible(n, D, budget):
            Xt = X.copy()
            for r, d in flips:
                Xt[r, d] = 1.0 - Xt[r, d]
            H = sp.sliced_mp[0] @ Xt @ params.weights[0] + params.biases[0]
            lo = H if lo is None else np.minimum(lo, H)
            hi = H if hi is None else np.maximum(hi, H)
        np.testing.assert_allclose(R, lo, atol=1e-9)
        np.testing.assert_allclose(S, hi, atol=1e-9)


def test_acceptance_4_closed_form_budget_duals():
    """Closed-form (eta, rho): breakpoint-grid max and alpha-LP, 1e-9."""
    rng = np.random.default_rng(4)
    for i in range(200):
        n = int(rng.integers(1, 5))
        D = int(rng.integers(1, 5))
        delta = np.abs(rng.normal(size=(n, D)))
        delta[rng.random((n, D)) < 0.25] = 0.0
        budget = Budget(int(rng.integers(0, 3)), int(rng.integers(0, 6)))
        qe, Qe = budget.effective_q(D), budget.effective_Q(n, D)

        eta, rho, _, _ = closed_form_eta_rho(delta[None], budget)
        eta, rho = eta[0], rho[0]

        def reduced(eta_c, rho_c):
            psi = np.maximum(delta - eta_c[:, None] - rho_c, 0.0)
            return -psi.sum() - qe * eta_c.sum() - Qe * rho_c

        best = reduced(eta, rho)
        if qe > 0 and Qe > 0:
            for rho_c in np.concatenate([[0.0], delta.ravel()]):
                o = -np.sort(-delta, axis=1)[:, qe - 1]
                eta_c = np.maximum(0.0, o - rho_c)
                assert best >= reduced(eta_c, rho_c) - 1e-9, f"draw {i}"

        ok, lp_opt, greedy, h = oracle.check_eta_rho_optimality(delta, budget, tol=1e-9)
        assert ok, f"draw {i}: lp={lp_opt} greedy={greedy} h={h}"


@pytest.mark.parametrize("mode", ["CE", "RCE", "RH", "RH_U"])
def test_acceptance_5_loss_gradients_match_finite_differences(mode):
    """Every training loss matches central differences, rel err <= 1e-4."""
    rng = np.random.default_rng(5)
    draws = 0
    rejected = 0
    while draws < 50:
        graph, params, budget = random_tiny_graph(rng)
        tc = TrainConfig(mode=mode, budget=budget, hidden_dims=(3,))
        trainer = Trainer(graph, tc)
        batch = sorted(trainer._labeled_set)
        if mode == "RH_U" and len(trainer.unlabeled):
            batch.append(int(trainer.unlabeled[0]))
        closure = lambda p: trainer.batch_loss(batch, p)
        err = oracle.finite_difference_check(closure, params, rng=rng, num_coords=2)
        if err > 1e-4:
            # non-kink draws only: an isolated mismatch means the stencil
            # straddled a kink, so the draw is re-sampled; a systematic
            # gradient bug would trip the rejection cap instead
            rejected += 1
            assert rejected <= 5, f"{mode}: {rejected} rejected draws, last rel err {err}"
            continue
        draws += 1


def test_acceptance_6_training_constants():
    assert robust_train.MARGIN_LABELED == pytest.approx(math.log(0.9 / 0.1))
    assert robust_train.MARGIN_LABELED == pytest.approx(2.197225, abs=1e-6)
    assert robust_train.MARGIN_UNLABELED == pytest.approx(math.log(0.6 / 0.4))
    assert robust_train.MARGIN_UNLABELED == pytest.approx(0.405465, abs=1e-6)
    for D, q in [(20, 1), (100, 1), (101, 2), (1433, 15)]:
        assert robust_train.default_local_budget(D) == q


def _planted_partition(seed=0, n=100, D=20, labeled_frac=0.1):
    """Two communities with class-correlated binary attributes."""
    rng = np.random.default_rng(seed)
    half = n // 2
    y = np.array([0] * half + [1] * (n - half))
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p = 0.10 if y[i] == y[j] else 0.01
            if rng.random() < p:
                A[i, j] = A[j, i] = 1.0
    X = np.zeros((n, D))
    for i in range(n):
        own = slice(0, D // 2) if y[i] == 0 else slice(D // 2, D)
        other = slice(D // 2, D) if y[i] == 0 else slice(0, D // 2)
        # sparse own-class signal: ~1-2 active features per node, so a
        # handful of flips genuinely threatens a margin-greedy classifier
        X[i, own] = (rng.random(D // 2) < 0.12).astype(float)
        X[i, other] = (rng.random(D - D // 2) < 0.05).astype(float)
    labels = np.full(n, -1)
    per_class = max(1, int(round(n * labeled_frac / 2)))
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(y == cls))[:per_class]
        labels[idx] = cls
    split = np.where(labels >= 0, "labeled", "unlabeled").astype(object)
    graph = Graph(
        num_nodes=n,
        num_features=D,
        num_classes=2,
        adjacency=A,
        attributes=X,
        labels=labels,
        split=split,
    )
    return graph, y


def _certified_robust_fraction(graph, params, budget):
    mp = build_message_passing(graph)
    robust = 0
    for t in range(graph.num_nodes):
        sp = slice_problem(graph, mp, t, params.layer_count)
        y_star = gcn.predict(gcn.forward_sliced(sp, params))
        cert = dual_cert.certify(sp, params, budget, y_star)
        robust += cert.status == dual_cert.ROBUST
    return robust / graph.num_nodes


def _unlabeled_accuracy(graph, params, truth):
    logits = gcn.forward_full(graph, build_message_passing(graph), params)
    pred = np.argmax(logits, axis=1)
    mask = np.asarray(graph.labels) < 0
    return float(np.mean(pred[mask] == truth[mask]))


def test_acceptance_7_robust_training_effect():
    """Hinge training at Q=4 at least doubles the certified-robust
    fraction of a planted-partition graph relative to plain CE, while
    keeping unlabeled accuracy within 5 points.  Runtime < 10 min."""
    start = time.monotonic()
    graph, truth = _planted_partition(seed=0)
    budget = Budget(robust_train.default_local_budget(graph.num_features), 4)

    def run(mode, max_epochs, phase2_epochs=None):
        cfg = TrainConfig(
            mode=mode,
            budget=budget,
            hidden_dims=(8,),
            max_epochs=max_epochs,
            phase2_epochs=phase2_epochs,
            patience=max_epochs,
            seed=0,
            eval_every=0,
        )
        params, _ = robust_train.train(graph, cfg)
        return params

    # CE is run well past its accuracy plateau (converges by ~epoch 100);
    # the hinge model gets a long labeled phase and a short self-training
    # phase over all nodes (the unlabeled hinge destabilizes an unconverged
    # model if run for as long as phase 1)
    ce_params = run("CE", 250)
    rh_params = run("RH_U", 400, phase2_epochs=40)

    ce_robust = _certified_robust_fraction(graph, ce_params, budget)
    rh_robust = _certified_robust_fraction(graph, rh_params, budget)
    ce_acc = _unlabeled_accuracy(graph, ce_params, truth)
    rh_acc = _unlabeled_accuracy(graph, rh_params, truth)

    elapsed = time.monotonic() - start
    detail = (
        f"robust: CE {ce_robust:.2f} vs RH_U {rh_robust:.2f}; "
        f"accuracy: CE {ce_acc:.2f} vs RH_U {rh_acc:.2f}; {elapsed:.0f}s"
    )
    assert rh_robust >= 2.0 * ce_robust, detail
    assert rh_acc >= ce_acc - 0.05, detail
    assert elapsed < 600.0, detail


def test_acceptance_8_omega_optimization_gap_study():
    """Optimized-slope duals close the duality gap: median gap no worse
    than with default slopes, and at least half the instances reach a gap
    below 1e-6.

    The gap is measured against the relaxation optimum (the explicit LP),
    which is the tightest value any dual-feasible point can attain; the
    remaining distance to the exact margin is the relaxation's own gap
    (see test_oracle.test_relaxation_gap_counterexample)."""
    rng = np.random.default_rng(8)
    default_gaps, optimized_gaps = [], []
    for _ in range(60):
        sp, params, budget = random_tiny_instance(rng)
        y_star, k = _random_class_pair(rng, sp, params)
        c = class_vector(y_star, k, params.dims[-1])
        bnds = compute_bounds(sp, params, budget)
        base = dual_state(sp, params, bnds, budget, c)
        opt = optimize_omega(sp, params, bnds, budget, c, steps=400)
        lp_val = oracle.solve_lp(oracle.build_primal_lp(sp, params, bnds, budget, c))[0]
        default_gaps.append(lp_val - base.value)
        optimized_gaps.append(lp_val - opt.value)
    assert np.median(optimized_gaps) <= np.median(default_gaps) + 1e-12
    assert np.mean(np.asarray(optimized_gaps) <= 1e-6) >= 0.5


CORA_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "cora_ml")


def test_acceptance_9_cora_ml_optional():
    """Optional large-graph check; needs Cora-ML files on disk."""
    edges = os.path.join(CORA_DIR, "edges.tsv")
    attrs = os.path.join(CORA_DIR, "attributes.tsv")
    labels = os.path.join(CORA_DIR, "labels.tsv")
    if not all(os.path.exists(p) for p in (edges, attrs, labels)):
        pytest.skip("Cora-ML dataset files not present under data/cora_ml/")
    from gcn_cert import cli

    bundle = cli.load_dataset(edges, attrs, labels_path=labels)
    graph = bundle.graph
    rng = np.random.default_rng(0)
    labeled = rng.permutation(graph.num_nodes)[: graph.num_nodes // 10]
    labels_arr = np.full(graph.num_nodes, -1)
    labels_arr[labeled] = np.asarray(graph.labels)[labeled]
    graph = Graph(
        num_nodes=graph.num_nodes,
        num_features=graph.num_features,
        num_classes=graph.num_classes,
        adjacency=graph.adjacency,
        attributes=graph.attributes,
        labels=labels_arr,
    )
    budget = Budget(robust_train.default_local_budget(graph.num_features), 12)
    cfg = TrainConfig(mode="CE", budget=budget, hidden_dims=(32,), max_epochs=30, patience=10, eval_every=0)
    params, _ = robust_train.train(graph, cfg)
    frac = _certified_robust_fraction(graph, params, budget)
    assert 0.40 <= frac <= 0.70
