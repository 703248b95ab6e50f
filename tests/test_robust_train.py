import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gcn_cert import dual_cert, gcn, grad, robust_train
from gcn_cert.bounds import Budget, compute_bounds
from gcn_cert.graph_core import Graph, build_message_passing, slice_problem
from gcn_cert.robust_train import (
    MARGIN_LABELED,
    MARGIN_UNLABELED,
    TrainConfig,
    Trainer,
    default_local_budget,
    robust_hinge_loss,
    train,
)

from conftest import path_graph
from oracle import random_tiny_graph


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
    for bad, match in [
        (dict(batch_size=0), "batch_size"),
        (dict(max_epochs=-1), "max_epochs"),
        (dict(learning_rate=float("nan")), "learning_rate"),
        (dict(learning_rate=0.0), "learning_rate"),
        (dict(dropout_rate=1.0), "dropout_rate"),
        (dict(dropout_rate=-0.1), "dropout_rate"),
        (dict(hidden_dims=(4, 0)), "hidden widths"),
        (dict(hidden_dims=()), "hidden layer"),
        (dict(l2_strength=float("nan")), "l2_strength"),
        (dict(l2_strength=-1e-5), "l2_strength"),
        (dict(seed=-1), "seed"),
        (dict(patience=-1), "patience"),
        (dict(eval_every=-2), "eval_every"),
    ]:
        with pytest.raises(ValueError, match=match):
            TrainConfig(**bad)
    TrainConfig(max_epochs=0, dropout_rate=0.0, eval_every=0)


def test_robust_cross_entropy_values():
    """RCE is exact CE with the margin vector p as logits."""
    assert gcn.cross_entropy(_mv([0.0, -50.0]), 0) == pytest.approx(0.0, abs=1e-9)
    assert gcn.cross_entropy(_mv([0.0, 0.0]), 0) == pytest.approx(math.log(2.0))
    assert gcn.cross_entropy(_mv([0.0, 2.0]), 0) == pytest.approx(2.126928, abs=1e-6)


def test_robust_hinge_values():
    assert robust_hinge_loss(_mv([0.0, -5.0]), 0, 2.0) == 0.0
    assert robust_hinge_loss(_mv([0.0, -1.0]), 0, 2.0) == 1.0
    assert robust_hinge_loss(_mv([0.0, 3.0, -3.0]), 0, 2.0) == 5.0


def _trainer(rng, mode="RH", **cfg_kw):
    graph, params, budget = random_tiny_graph(rng)
    cfg = TrainConfig(mode=mode, budget=budget, hidden_dims=(3,), **cfg_kw)
    tr = Trainer(graph, cfg)
    params = gcn.glorot_params(tr.dims, seed=1)
    for b in params.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    return tr, params


def _slice(tr, t):
    """Node t's slice, as the trainer cuts it."""
    return slice_problem(tr.graph, tr.mp, t, len(tr.dims))


def _with_mode(tr, mode):
    """The same trainer (graph, propagation matrix, rng) under another training mode."""
    tr.config = replace(tr.config, mode=mode)
    return tr


def test_trainer_setup_slices_no_node(rng, monkeypatch):
    calls = []
    monkeypatch.setattr(robust_train, "slice_problem", lambda *a, _f=slice_problem: calls.append(a[2]) or _f(*a))
    tr, params = _trainer(rng)
    assert calls == [] and not hasattr(tr, "slices")
    tr.batch_loss([int(tr.labeled[0])], params)
    assert calls == [int(tr.labeled[0])]


def test_empty_batch_is_l2_only(rng):
    tr, params = _trainer(rng)
    expected = tr.config.l2_strength * sum(float((w * w).sum()) for w in params.weights)
    for mode in ("RH", "CE", "RCE", "RH_U"):
        assert float(_with_mode(tr, mode).batch_loss([], params)) == pytest.approx(expected, abs=1e-12)


def test_rh_loss_decomposition(rng):
    tr, params = _trainer(rng)
    batch = sorted(tr._labeled_set)
    got = float(tr.batch_loss(batch, params))
    expected = tr.config.l2_strength * sum(float((w * w).sum()) for w in params.weights)
    for t in batch:
        sp = _slice(tr, t)
        y = int(tr.labels[t])
        bnds = compute_bounds(sp, params, tr.budget)
        mv = dual_cert.margin_vector(sp, params, bnds, tr.budget, y)
        expected += robust_hinge_loss(mv, y, MARGIN_LABELED)
        expected += float(gcn.cross_entropy(gcn.forward_sliced(sp, params).logits, y))
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_rh_loss_reduces_to_ce_when_certified_past_margin():
    # two-class single node with a huge clean margin and an empty budget:
    # every hinge term is zero, so the RH loss is exactly CE + L2
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
    got = float(tr.batch_loss([0], params))
    expected = float(_with_mode(tr, "CE").batch_loss([0], params))
    assert got == pytest.approx(expected, abs=1e-12)


def test_rh_u_loss_decomposition(rng):
    tr, params = _trainer(rng, mode="RH_U")
    lab = sorted(tr._labeled_set)
    unlab = [int(t) for t in tr.unlabeled][:2]
    got = float(tr.batch_loss(lab + unlab, params))
    expected = float(tr.batch_loss(lab, params))
    for t in unlab:
        sp = _slice(tr, t)
        y_pred = gcn.predict(gcn.forward_sliced(sp, params))
        bnds = compute_bounds(sp, params, tr.budget)
        mv = dual_cert.margin_vector(sp, params, bnds, tr.budget, y_pred)
        expected += robust_hinge_loss(mv, y_pred, MARGIN_UNLABELED)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)
    assert float(tr.batch_loss(lab, params)) == pytest.approx(
        float(_with_mode(tr, "RH").batch_loss(lab, params)), abs=1e-12
    )


def test_rce_loss_decomposition(rng):
    tr, params = _trainer(rng, mode="RCE")
    batch = sorted(tr._labeled_set)
    got = float(tr.batch_loss(batch, params))
    expected = tr.config.l2_strength * sum(float((w * w).sum()) for w in params.weights)
    for t in batch:
        sp = _slice(tr, t)
        y = int(tr.labels[t])
        bnds = compute_bounds(sp, params, tr.budget)
        mv = dual_cert.margin_vector(sp, params, bnds, tr.budget, y)
        expected += gcn.cross_entropy(mv, y)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_margin_vector_on_the_tape_is_one_var(rng):
    tr, params = _trainer(rng)
    t = int(tr.labeled[0])
    y = int(tr.labels[t])
    sp = _slice(tr, t)
    seen = []

    def loss(shadow):
        p = dual_cert.margin_vector(sp, shadow, compute_bounds(sp, shadow, tr.budget), tr.budget, y)
        seen.append(p)
        return robust_hinge_loss(p, y, MARGIN_LABELED) + grad.asum(shadow.weights[0])

    grad.gradient(loss, params)
    (p,) = seen
    assert grad.is_var(p) and p.shape == (tr.graph.num_classes,)
    assert p.value[y] == 0.0
    numeric = dual_cert.margin_vector(sp, params, compute_bounds(sp, params, tr.budget), tr.budget, y)
    np.testing.assert_array_equal(p.value, numeric)


def test_train_requires_labeled_nodes():
    graph = Graph(
        num_nodes=2,
        num_features=2,
        num_classes=2,
        adjacency=np.zeros((2, 2)),
        attributes=np.eye(2),
        labels=np.array([-1, -1]),
    )
    with pytest.raises(ValueError, match="no node is labeled"):
        Trainer(graph, TrainConfig(mode="CE", budget=Budget(1, 1), hidden_dims=(2,)))  # before any training


def test_train_rejects_a_labeled_node_without_a_label():
    """A split that marks a node labeled on a graph with no labels is a ValueError, not a TypeError."""
    graph = Graph(
        num_nodes=2,
        num_features=2,
        num_classes=2,
        adjacency=np.zeros((2, 2)),
        attributes=np.eye(2),
        split=np.array(["labeled", "unlabeled"]),
    )
    with pytest.raises(ValueError, match="node 0 is marked labeled but has no label"):
        Trainer(graph, TrainConfig(mode="CE", budget=Budget(1, 1), hidden_dims=(2,)))  # before any training


def test_training_budget_fills_in_the_default_it_is_not_given():
    assert robust_train.training_budget(101) == Budget(default_local_budget(101), robust_train.DEFAULT_GLOBAL_Q)
    assert robust_train.training_budget(101, Q=3) == Budget(2, 3)
    assert robust_train.training_budget(101, q=5) == Budget(5, robust_train.DEFAULT_GLOBAL_Q)
    with pytest.raises(ValueError, match=r"budgets must be nonnegative \(q=-1, Q=12\)"):
        robust_train.training_budget(101, q=-1)


@pytest.mark.parametrize("mode, phase", [("CE", 1), ("RCE", 1), ("RH", 1), ("RH_U", 1), ("RH_U", 2)])
def test_batch_loss_slices_at_the_depth_of_the_params(mode, phase):
    """On [D, 4, K, K] params, the loss and gradient do not depend on the `hidden_dims` the trainer was given."""
    graph, _, budget = random_tiny_graph(np.random.default_rng(0), all_labeled=phase == 1)
    D, K = graph.num_features, graph.num_classes
    params = gcn.glorot_params([D, 4, K, K], seed=3)
    batch = list(range(graph.num_nodes)) if phase == 2 else [int(t) for t in graph.labeled_nodes()]
    got = []
    for hidden_dims in [(4,), (4, K)]:
        tr = Trainer(graph, TrainConfig(mode=mode, budget=budget, hidden_dims=hidden_dims))
        got.append(grad.gradient(lambda p: tr.batch_loss(batch, p), params))
    _assert_same_gradient(*got)
    assert len(got[0][1].weights) == 3 and np.any(got[0][1].weights[2])  # w2 is in the loss


def test_train_rejects_params_whose_widths_the_graph_does_not_fix(rng):
    graph, _, budget = random_tiny_graph(rng, all_labeled=True)
    D, K = graph.num_features, graph.num_classes
    tr = Trainer(graph, TrainConfig(mode="CE", budget=budget, hidden_dims=(4,), max_epochs=2))
    for dims in ([D, 4, K + 1], [D + 1, 4, K], [D, 4, 4, K + 1]):
        with pytest.raises(ValueError, match=re.escape(f"params of dims {dims} do not fit the graph's D={D}, K={K}")):
            tr.train(gcn.glorot_params(dims))
    assert tr.epochs == 0


def test_a_model_with_no_hidden_layer_is_refused_where_it_is_bounded():
    """The dual bound needs a hidden layer: `certify`, `status_curve` and a training run that bounds the model
    raise a ValueError naming its dims; CE that logs no metrics rows never bounds it and trains it."""
    graph, _, budget = random_tiny_graph(np.random.default_rng(0), all_labeled=True)
    D, K = graph.num_features, graph.num_classes
    params = gcn.glorot_params([D, K], seed=0)
    message = re.escape(f"params of dims {[D, K]} have no hidden layer")
    sp = slice_problem(graph, build_message_passing(graph), 0, 2)
    for evaluate in (dual_cert.certify, dual_cert.status_curve):
        with pytest.raises(ValueError, match=message):
            evaluate(sp, params, budget, 0)
    for mode, eval_every in (("RH", 0), ("CE", 1)):
        cfg = TrainConfig(mode=mode, budget=budget, max_epochs=2, eval_every=eval_every)
        with pytest.raises(ValueError, match=message):
            Trainer(graph, cfg).train(params)
    trainer = Trainer(graph, TrainConfig(mode="CE", budget=budget, max_epochs=2, eval_every=0))
    trainer.train(params)
    assert trainer.epochs == 2


def test_training_stops_after_patience_epochs_without_improvement(rng):
    """Steps too small to lower the loss by 1e-9 stall every epoch after the first; `patience` stalls end the phase."""
    graph, _, budget = random_tiny_graph(rng, all_labeled=True)
    cfg = TrainConfig(mode="CE", budget=budget, hidden_dims=(2,), learning_rate=1e-15, max_epochs=50, patience=3)
    _, log = train(graph, cfg)
    assert [row["epoch"] for row in log] == [1, 2, 3, 4]


def test_non_finite_batch_loss_keeps_the_last_finite_epoch(rng, monkeypatch):
    """A NaN loss in epoch 2 ends training with the parameters after epoch 1, and RH_U skips phase 2."""
    graph, _, budget = random_tiny_graph(rng)
    cfg = dict(budget=budget, hidden_dims=(2,), max_epochs=5, patience=5, seed=2)
    # phase 1 of RH_U is RH on the labeled nodes, so one RH epoch is what the aborted run must return
    expected, expected_log = train(graph, TrainConfig(mode="RH", **{**cfg, "max_epochs": 1}))
    calls = []

    def nan_in_epoch_2(self, batch, params, dropout_rng=None, _real=Trainer.batch_loss):
        calls.append(list(batch))
        return grad.Var(math.nan) if len(calls) == 2 else _real(self, batch, params, dropout_rng)

    monkeypatch.setattr(Trainer, "batch_loss", nan_in_epoch_2)
    params, log = train(graph, TrainConfig(mode="RH_U", **cfg))
    assert len(calls) == 2  # one batch an epoch: the NaN came in epoch 2, and phase 2 never ran
    _assert_same_log(log, expected_log)
    assert [row["phase"] for row in log] == [1]
    for a, b in zip(params.weights + params.biases, expected.weights + expected.biases):
        assert np.array_equal(a, b)


def test_an_epoch_loss_that_overflows_keeps_the_parameters_before_the_epoch(rng, monkeypatch):
    """Two batches of finite loss 1e308 sum past the float range: `_run_phase` aborts the epoch and returns
    the parameters from before it, although each batch took an Adam step."""
    graph, params, budget = random_tiny_graph(rng, all_labeled=True)
    trainer = Trainer(graph, TrainConfig(mode="CE", budget=budget, hidden_dims=(params.dims[1],), batch_size=1))
    start = params.copy()

    def huge(self, batch, params, dropout_rng=None, _real=Trainer.batch_loss):
        return _real(self, batch, params, dropout_rng) + 1e308  # still finite, and its gradient is the real one

    monkeypatch.setattr(Trainer, "batch_loss", huge)
    log = []
    returned, epoch, aborted = trainer._run_phase(params, 1, [0, 1], log, 0)
    assert aborted and epoch == 1 and log == []
    for a, b in zip(returned.weights + returned.biases, start.weights + start.biases, strict=True):
        assert np.array_equal(a, b)
    assert not all(np.array_equal(a, b) for a, b in zip(params.weights, start.weights))  # the steps were taken


def test_ce_training_reduces_loss(rng):
    graph, _, budget = random_tiny_graph(rng, all_labeled=True)
    cfg = TrainConfig(mode="CE", budget=budget, hidden_dims=(3,), max_epochs=25, patience=25, seed=3)
    tr = Trainer(graph, cfg)
    params, log = tr.train()
    assert len(log) > 1
    assert log[-1]["loss"] < log[0]["loss"]
    assert all(row["phase"] == 1 for row in log)


def test_accuracy_scores_only_nodes_with_a_label():
    """Nodes without a label (-1) are not scored; with none left, accuracy is nan."""
    tr = Trainer(path_graph(), TrainConfig(mode="CE", budget=Budget(1, 1), hidden_dims=(2,)))
    params = gcn.glorot_params(tr.dims, seed=0)
    row = tr.metrics_row(params, 1, 1, 0.0)
    assert list(tr.unlabeled) == [2] and math.isnan(row["test_acc"])
    assert row["train_acc"] in (0.0, 0.5, 1.0)
    pred = np.zeros(3, dtype=int)  # labels are [0, 1, -1]
    assert tr._accuracy(pred, [0, 1, 2]) == 0.5
    assert math.isnan(tr._accuracy(pred, [2])) and math.isnan(tr._accuracy(pred, []))


def test_metrics_row_runs_one_full_forward_and_no_sliced_one(rng, monkeypatch):
    """A row's margins and accuracies read one full-graph prediction; no node is predicted again from its slice."""
    graph, params, budget = random_tiny_graph(rng)
    tr = Trainer(graph, TrainConfig(mode="RH_U", budget=budget, hidden_dims=tuple(params.dims[1:-1])))
    assert len(tr.labeled) and len(tr.unlabeled)
    calls = []
    monkeypatch.setattr(gcn, "forward_full", lambda *a, _f=gcn.forward_full: calls.append("full") or _f(*a))
    monkeypatch.setattr(gcn, "forward_sliced", lambda *a, **k: calls.append("sliced"))
    row = tr.metrics_row(params, 1, 1, 0.0)
    assert calls == ["full"]
    assert tuple(row) == robust_train.LOG_FIELDS


def _assert_same_log(a, b):
    """Log rows equal entry by entry; two nan entries count as equal."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.keys() == rb.keys()
        for k in ra:
            assert ra[k] == rb[k] or (math.isnan(ra[k]) and math.isnan(rb[k])), (k, ra, rb)


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
    _assert_same_log(log1, log2)
    for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
        assert np.array_equal(a, b)


# -- differential check against the per-mode loss methods ------------------
# The loss before `Trainer.batch_loss`: one method per mode, a closure that
# dispatched on the phase, and a second p-vector next to `margin_vector`.
# The p-vector is a list of one entry per class, each a 0-d Var gathered from
# the batched dual's g on the tape, and the robust losses loop over it.


def _reference_p_vector(self, sp, params, y):
    bnds = compute_bounds(sp, params, self.budget)
    others, C = dual_cert.competing_classes(y, self.graph.num_classes)
    g = dual_cert._dual_pass(sp, params, bnds, self.budget, C, bnds.slope).g
    p = [np.float64(0.0)] * self.graph.num_classes
    for b, k in enumerate(others):
        p[k] = -(grad.gather(g, b) if grad.is_var(g) else float(g[b]))
    return p


def _reference_robust_cross_entropy_loss(p, y_star):
    shift = max(float(grad.val(p_k)) for p_k in p)
    s = 0.0
    for p_k in p:
        s = s + grad.exp(p_k - shift)
    return grad.log(s) + shift - p[y_star]


def _reference_robust_hinge_loss(p, y_star, margin):
    loss = 0.0
    for k, p_k in enumerate(p):
        if k != y_star:
            loss = loss + grad.relu(p_k + margin)
    return loss


def _reference_exact_ce(self, sp, params, y, dropout_rng=None):
    rate = self.config.dropout_rate if dropout_rng is not None else 0.0
    trace = gcn.forward_sliced(sp, params, dropout_rate=rate, dropout_rng=dropout_rng)
    return gcn.cross_entropy(trace.logits, y)


def _reference_l2_penalty(self, params):
    pen = 0.0
    for w in params.weights:
        pen = pen + grad.asum(w * w)
    return self.config.l2_strength * pen


def _reference_combined_loss(self, batch, params, dropout_rng=None):
    loss = _reference_l2_penalty(self, params)
    for t in batch:
        y = int(self.labels[t])
        sp = _slice(self, t)
        entries = _reference_p_vector(self, sp, params, y)
        loss = loss + _reference_robust_hinge_loss(entries, y, MARGIN_LABELED)
        loss = loss + _reference_exact_ce(self, sp, params, y, dropout_rng)
    return loss


def _reference_semi_supervised_loss(self, labeled_batch, unlabeled_batch, params, dropout_rng=None):
    loss = _reference_combined_loss(self, labeled_batch, params, dropout_rng)
    for t in unlabeled_batch:
        sp = _slice(self, t)
        trace = gcn.forward_sliced(sp, params.copy())
        y_pred = gcn.predict(trace)
        entries = _reference_p_vector(self, sp, params, y_pred)
        loss = loss + _reference_robust_hinge_loss(entries, y_pred, MARGIN_UNLABELED)
    return loss


def _reference_rce_loss(self, batch, params):
    loss = _reference_l2_penalty(self, params)
    for t in batch:
        y = int(self.labels[t])
        entries = _reference_p_vector(self, _slice(self, t), params, y)
        loss = loss + _reference_robust_cross_entropy_loss(entries, y)
    return loss


def _reference_ce_loss(self, batch, params, dropout_rng=None):
    loss = _reference_l2_penalty(self, params)
    for t in batch:
        loss = loss + _reference_exact_ce(self, _slice(self, t), params, int(self.labels[t]), dropout_rng)
    return loss


def _reference_batch_loss_closure(self, phase, batch):
    cfg = self.config
    dropout_rng = np.random.default_rng(self.rng.integers(2**32)) if cfg.dropout_rate > 0 else None

    def closure(shadow):
        if cfg.mode == "CE":
            return _reference_ce_loss(self, batch, shadow, dropout_rng)
        if cfg.mode == "RCE":
            return _reference_rce_loss(self, batch, shadow)
        if cfg.mode == "RH" or phase == 1:
            return _reference_combined_loss(self, batch, shadow, dropout_rng)
        lab = [t for t in batch if t in self._labeled_set]
        unlab = [t for t in batch if t not in self._labeled_set]
        return _reference_semi_supervised_loss(self, lab, unlab, shadow, dropout_rng)

    return closure


def _reference_run_phase(self, params, phase, pool, log, epoch_offset, max_epochs=None):
    cfg = self.config
    if max_epochs is None:
        max_epochs = cfg.max_epochs
    adam = robust_train._Adam(params, cfg.learning_rate)
    best_loss = np.inf
    stall = 0
    last_finite = params.copy()
    epoch = epoch_offset
    for _ in range(max_epochs):
        epoch += 1
        order = pool.copy()
        self.rng.shuffle(order)
        epoch_loss, nbatches = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            batch = list(order[start:start + cfg.batch_size])
            closure = _reference_batch_loss_closure(self, phase, batch)
            try:
                value, grads = grad.gradient(closure, params)
            except FloatingPointError:
                return last_finite, epoch, True
            adam.step(params, grads)
            epoch_loss += value
            nbatches += 1
        epoch_loss /= max(nbatches, 1)
        if not np.isfinite(epoch_loss):
            return last_finite, epoch, True
        last_finite = params.copy()
        if cfg.eval_every and (epoch % cfg.eval_every == 0):
            log.append(_reference_metrics_row(self, params, epoch, phase, epoch_loss))
        if epoch_loss < best_loss - 1e-9:
            best_loss = epoch_loss
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break
    return params, epoch, False


def _reference_worst_case_margins(self, params, nodes, use_labels):
    vals = []
    for t in nodes:
        sp = _slice(self, t)
        y = int(self.labels[t]) if use_labels else gcn.predict(gcn.forward_sliced(sp, params))
        others = np.delete(np.asarray(_reference_p_vector(self, sp, params, y), dtype=float), y)
        vals.append(float(-np.max(others)) if others.size else 0.0)
    return float(np.mean(vals)) if vals else 0.0


def _reference_accuracy(self, params, nodes):
    nodes = [t for t in nodes if self.labels is not None and self.labels[t] >= 0]
    if not nodes:
        return math.nan
    pred = np.argmax(gcn.forward_full(self.graph, self.mp, params), axis=1)
    return float(np.mean(pred[nodes] == self.labels[nodes]))


def _reference_metrics_row(self, params, epoch, phase, loss):
    return {
        "epoch": epoch,
        "phase": phase,
        "loss": loss,
        "mean_worst_case_margin_labeled": _reference_worst_case_margins(self, params, self.labeled, True),
        "mean_worst_case_margin_unlabeled": _reference_worst_case_margins(self, params, self.unlabeled, False),
        "train_acc": _reference_accuracy(self, params, self.labeled),
        "test_acc": _reference_accuracy(self, params, self.unlabeled),
    }


class _ReferenceTrainer(Trainer):
    _run_phase = _reference_run_phase


def _assert_same_gradient(a, b):
    (va, ga), (vb, gb) = a, b
    assert va == vb
    for x, y in zip(ga.weights + ga.biases, gb.weights + gb.biases, strict=True):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
def test_batch_loss_matches_reference_bitwise(dropout_rate):
    rng = np.random.default_rng(10)
    mixed = 0
    for _ in range(30):
        graph, params, budget = random_tiny_graph(rng, hidden_layers=int(rng.integers(1, 3)))
        for mode, phase in [("CE", 1), ("RCE", 1), ("RH", 1), ("RH_U", 1), ("RH_U", 2)]:
            cfg = TrainConfig(
                mode=mode, budget=budget, hidden_dims=tuple(params.dims[1:-1]),
                dropout_rate=dropout_rate, seed=int(rng.integers(2**31)),
            )
            tr = Trainer(graph, cfg)
            pool = list(range(graph.num_nodes)) if phase == 2 else [int(t) for t in tr.labeled]
            order = [pool[i] for i in rng.permutation(len(pool))]
            batch = order[: int(rng.integers(min(2, len(order)), len(order) + 1))]
            mixed += any(t in tr._labeled_set for t in batch) and not all(t in tr._labeled_set for t in batch)
            # both draw the batch's dropout generator from the trainer's rng, as training does
            state = tr.rng.bit_generator.state
            ref = grad.gradient(_reference_batch_loss_closure(tr, phase, batch), params)
            tr.rng.bit_generator.state = state
            dropout_rng = np.random.default_rng(tr.rng.integers(2**32)) if dropout_rate > 0 else None
            _assert_same_gradient(grad.gradient(lambda p: tr.batch_loss(batch, p, dropout_rng), params), ref)
    assert mixed >= 10


@pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
def test_rh_u_training_matches_reference_bitwise(dropout_rate, monkeypatch):
    rng = np.random.default_rng(11)
    for seed in range(3):
        graph, _, budget = random_tiny_graph(rng)
        cfg = TrainConfig(
            mode="RH_U", budget=budget, hidden_dims=(3,), learning_rate=0.05, batch_size=3,
            dropout_rate=dropout_rate, max_epochs=3, phase2_epochs=2, patience=5, seed=seed,
        )
        p_ref, log_ref = _ReferenceTrainer(graph, cfg).train()
        with monkeypatch.context() as m:
            forwards = []
            m.setattr(gcn, "forward_full", lambda *a, _f=gcn.forward_full: forwards.append(1) or _f(*a))
            p_new, log_new = Trainer(graph, cfg).train()
        assert len(forwards) == len(log_new) == 5  # one full-graph forward per metrics row
        _assert_same_log(log_new, log_ref)
        for a, b in zip(p_new.weights + p_new.biases, p_ref.weights + p_ref.biases, strict=True):
            assert np.array_equal(a, b)
