import math

import numpy as np
import pytest

from gcn_cert import dual_cert, gcn, robust_train
from gcn_cert.bounds import Budget, compute_bounds
from gcn_cert.graph_core import Graph
from gcn_cert.robust_train import (
    MARGIN_LABELED,
    MARGIN_UNLABELED,
    TrainConfig,
    Trainer,
    default_local_budget,
    robust_cross_entropy_loss,
    robust_hinge_loss,
    train,
)

from conftest import random_tiny_graph


def _mv(entries):
    return np.asarray(entries, dtype=float)


def test_margin_constants():
    assert MARGIN_LABELED == pytest.approx(2.197225, abs=1e-6)
    assert MARGIN_LABELED == math.log(0.9 / 0.1)
    assert MARGIN_UNLABELED == pytest.approx(0.405465, abs=1e-6)
    assert MARGIN_UNLABELED == math.log(0.6 / 0.4)


def test_default_local_budget():
    assert default_local_budget(20) == 1
    assert default_local_budget(100) == 1
    assert default_local_budget(101) == 2
    assert default_local_budget(1433) == 15


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        TrainConfig(mode="SGD")
    with pytest.raises(ValueError, match="margin"):
        TrainConfig(margin_labeled=0.1, margin_unlabeled=0.5)
    cfg = TrainConfig(mode="RH_U")
    assert cfg.margin_labeled == MARGIN_LABELED
    assert cfg.margin_unlabeled == MARGIN_UNLABELED


def test_robust_cross_entropy_values():
    assert robust_cross_entropy_loss(_mv([0.0, -50.0]), 0) == pytest.approx(0.0, abs=1e-9)
    assert robust_cross_entropy_loss(_mv([0.0, 0.0]), 0) == pytest.approx(math.log(2.0))
    assert robust_cross_entropy_loss(_mv([0.0, 2.0]), 0) == pytest.approx(2.126928, abs=1e-6)


def test_robust_hinge_values():
    assert robust_hinge_loss(_mv([0.0, -5.0]), 0, 2.0) == 0.0
    assert robust_hinge_loss(_mv([0.0, -1.0]), 0, 2.0) == 1.0
    assert robust_hinge_loss(_mv([0.0, 3.0, -3.0]), 0, 2.0) == 5.0


def _trainer(rng, mode="RH", **cfg_kw):
    graph, params, budget = random_tiny_graph(rng)
    cfg = TrainConfig(mode=mode, budget=budget, hidden_dims=(3,), **cfg_kw)
    tr = Trainer(graph, cfg)
    tr._labeled_set = set(int(t) for t in tr.labeled)
    params = gcn.glorot_params(tr.dims, seed=1)
    for b in params.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    return tr, params


def test_empty_batch_is_l2_only(rng):
    tr, params = _trainer(rng)
    expected = tr.config.l2_strength * sum(float((w * w).sum()) for w in params.weights)
    assert float(tr.combined_loss([], params)) == pytest.approx(expected, abs=1e-12)
    assert float(tr.ce_loss([], params)) == pytest.approx(expected, abs=1e-12)
    assert float(tr.rce_loss([], params)) == pytest.approx(expected, abs=1e-12)


def test_combined_loss_decomposition(rng):
    tr, params = _trainer(rng)
    batch = sorted(tr._labeled_set)
    got = float(tr.combined_loss(batch, params))
    expected = tr.config.l2_strength * sum(float((w * w).sum()) for w in params.weights)
    for t in batch:
        sp = tr.slices[t]
        y = int(tr.labels[t])
        bnds = compute_bounds(sp, params, tr.budget)
        mv = dual_cert.margin_vector(sp, params, bnds, tr.budget, y)
        expected += robust_hinge_loss(mv.entries, y, tr.config.margin_labeled)
        expected += float(gcn.cross_entropy(gcn.forward_sliced(sp, params).logits, y))
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_combined_loss_reduces_to_ce_when_certified_past_margin():
    # two-class single node with a huge clean margin and an empty budget:
    # every hinge term is zero, so the combined loss is exactly CE + L2
    graph = Graph(
        num_nodes=1,
        num_features=1,
        num_classes=2,
        adjacency=np.zeros((1, 1)),
        attributes=np.ones((1, 1)),
        labels=np.array([0]),
    )
    cfg = TrainConfig(mode="RH", budget=Budget(1, 0), hidden_dims=(1,))
    tr = Trainer(graph, cfg)
    params = gcn.GcnParams(
        [np.array([[1.0]]), np.array([[10.0, -10.0]])],
        [np.zeros(1), np.zeros(2)],
    )
    got = float(tr.combined_loss([0], params))
    expected = float(tr.ce_loss([0], params))
    assert got == pytest.approx(expected, abs=1e-12)


def test_semi_supervised_loss_decomposition(rng):
    tr, params = _trainer(rng, mode="RH_U")
    lab = sorted(tr._labeled_set)
    unlab = [int(t) for t in tr.unlabeled][:2]
    got = float(tr.semi_supervised_loss(lab, unlab, params))
    expected = float(tr.combined_loss(lab, params))
    for t in unlab:
        sp = tr.slices[t]
        y_pred = gcn.predict(gcn.forward_sliced(sp, params))
        bnds = compute_bounds(sp, params, tr.budget)
        mv = dual_cert.margin_vector(sp, params, bnds, tr.budget, y_pred)
        expected += robust_hinge_loss(mv.entries, y_pred, tr.config.margin_unlabeled)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)
    assert float(tr.semi_supervised_loss(lab, [], params)) == pytest.approx(
        float(tr.combined_loss(lab, params)), abs=1e-12
    )


def test_rce_loss_decomposition(rng):
    tr, params = _trainer(rng, mode="RCE")
    batch = sorted(tr._labeled_set)
    got = float(tr.rce_loss(batch, params))
    expected = tr.config.l2_strength * sum(float((w * w).sum()) for w in params.weights)
    for t in batch:
        sp = tr.slices[t]
        y = int(tr.labels[t])
        bnds = compute_bounds(sp, params, tr.budget)
        mv = dual_cert.margin_vector(sp, params, bnds, tr.budget, y)
        expected += robust_cross_entropy_loss(mv.entries, y)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_train_requires_labeled_nodes():
    graph = Graph(
        num_nodes=2,
        num_features=2,
        num_classes=2,
        adjacency=np.zeros((2, 2)),
        attributes=np.eye(2),
        labels=np.array([-1, -1]),
    )
    with pytest.raises(ValueError, match="labeled"):
        train(graph, TrainConfig(mode="CE", budget=Budget(1, 1), hidden_dims=(2,)))


def test_ce_training_reduces_loss(rng):
    graph, _, budget = random_tiny_graph(rng, all_labeled=True)
    cfg = TrainConfig(mode="CE", budget=budget, hidden_dims=(3,), max_epochs=25, patience=25, seed=3)
    tr = Trainer(graph, cfg)
    params, log = tr.train()
    assert len(log) > 1
    assert log[-1]["loss"] < log[0]["loss"]
    assert all(row["phase"] == 1 for row in log)


def test_rh_u_training_two_phase_log(rng):
    graph, _, budget = random_tiny_graph(rng)
    cfg = TrainConfig(mode="RH_U", budget=budget, hidden_dims=(2,), max_epochs=3, patience=3, seed=5)
    params, log = train(graph, cfg)
    phases = [row["phase"] for row in log]
    assert 1 in phases and 2 in phases
    assert phases == sorted(phases)
    params.validate()
    row = log[-1]
    for key in (
        "epoch",
        "phase",
        "loss",
        "mean_worst_case_margin_labeled",
        "mean_worst_case_margin_unlabeled",
        "train_acc",
        "test_acc",
    ):
        assert key in row


def test_phase2_epochs_caps_second_phase(rng):
    graph, _, budget = random_tiny_graph(rng)
    cfg = TrainConfig(
        mode="RH_U", budget=budget, hidden_dims=(2,),
        max_epochs=3, phase2_epochs=1, patience=3, seed=5,
    )
    _, log = train(graph, cfg)
    assert sum(row["phase"] == 1 for row in log) == 3
    assert sum(row["phase"] == 2 for row in log) == 1
    with pytest.raises(ValueError, match="phase2_epochs"):
        TrainConfig(mode="RH_U", phase2_epochs=0)


def test_training_is_deterministic(rng):
    graph, _, budget = random_tiny_graph(rng)
    cfg = dict(mode="RH", budget=budget, hidden_dims=(2,), max_epochs=3, patience=3, seed=11)
    p1, log1 = train(graph, TrainConfig(**cfg))
    p2, log2 = train(graph, TrainConfig(**cfg))
    assert log1 == log2
    for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
        assert np.array_equal(a, b)
