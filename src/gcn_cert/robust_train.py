"""Training loops: standard CE, robust CE, robust hinge, and the
semi-supervised robust hinge variant with a second margin for unlabeled
nodes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual_cert, gcn, grad
from .bounds import Budget, compute_bounds
from .gcn import GcnParams
from .graph_core import Graph, build_message_passing, slice_problem

__all__ = [
    "TrainConfig",
    "Trainer",
    "default_local_budget",
    "robust_cross_entropy_loss",
    "robust_hinge_loss",
    "train",
    "MARGIN_LABELED",
    "MARGIN_UNLABELED",
]

# log-odds margins from the experimental setup: 90% worst-case confidence
# on labeled nodes, 60% on unlabeled ones
MARGIN_LABELED = math.log(0.9 / 0.1)
MARGIN_UNLABELED = math.log(0.6 / 0.4)

MODES = ("CE", "RCE", "RH", "RH_U")


def default_local_budget(num_features: int) -> int:
    """Per-node budget q = ceil(0.01 * D)."""
    return max(1, math.ceil(0.01 * num_features))


@dataclass
class TrainConfig:
    mode: str = "CE"
    budget: Budget | None = None  # filled from the dataset if omitted
    margin_labeled: float = MARGIN_LABELED
    margin_unlabeled: float = MARGIN_UNLABELED
    learning_rate: float = 0.001
    l2_strength: float = 1e-5
    batch_size: int = 20
    dropout_rate: float = 0.5
    use_dropout: bool = False
    max_epochs: int = 200
    phase2_epochs: int | None = None  # RH_U only; defaults to max_epochs
    patience: int = 20
    seed: int = 0
    hidden_dims: tuple = (32,)
    eval_every: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} not in {MODES}")
        if not (self.margin_labeled >= self.margin_unlabeled >= 0):
            raise ValueError("need margin_labeled >= margin_unlabeled >= 0")
        if self.phase2_epochs is not None and self.phase2_epochs < 1:
            raise ValueError("phase2_epochs must be >= 1 when set")


def robust_cross_entropy_loss(p, y_star: int):
    """-log softmax(p)[y*], max-shifted; grad-aware.  p holds one entry per class (numbers
    or scalar grad.Vars), p[y*] = 0: the negated dual margins act as logits."""
    shift = max(float(grad.val(p_k)) for p_k in p)
    s = 0.0
    for p_k in p:
        s = s + grad.exp(p_k - shift)
    return grad.log(s) + shift - p[y_star]


def robust_hinge_loss(p, y_star: int, margin: float):
    """Sum over competing classes of max(0, p_k + M); grad-aware."""
    loss = 0.0
    for k, p_k in enumerate(p):
        if k != y_star:
            loss = loss + grad.relu(p_k + margin)
    return loss


class _Adam:
    def __init__(self, params: GcnParams, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(w) for w in params.weights + params.biases]
        self.v = [np.zeros_like(w) for w in params.weights + params.biases]

    def step(self, params: GcnParams, grads: GcnParams):
        self.t += 1
        tensors = params.weights + params.biases
        gs = grads.weights + grads.biases
        for i, (x, g) in enumerate(zip(tensors, gs)):
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            m_hat = self.m[i] / (1 - self.b1**self.t)
            v_hat = self.v[i] / (1 - self.b2**self.t)
            x -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class Trainer:
    """Owns the graph, per-node slices, and the loss closures."""

    def __init__(self, graph: Graph, config: TrainConfig):
        self.graph = graph
        self.config = config
        if config.budget is None:
            self.budget = Budget(default_local_budget(graph.num_features), 12)
        else:
            self.budget = config.budget
        self.dims = [graph.num_features, *config.hidden_dims, graph.num_classes]
        self.layer_count = len(self.dims)
        self.mp = build_message_passing(graph)
        self.slices = {
            t: slice_problem(graph, self.mp, t, self.layer_count)
            for t in range(graph.num_nodes)
        }
        self.labels = np.asarray(graph.labels) if graph.labels is not None else None
        self.labeled = graph.labeled_nodes()
        self.unlabeled = graph.unlabeled_nodes()
        self.rng = np.random.default_rng(config.seed)

    # -- grad-aware loss pieces -------------------------------------------

    def _p_vector(self, sp, params, y):
        """p_k = -g(e_y - e_k) from one batched dual pass, p_y = 0; grad-aware."""
        bnds = compute_bounds(sp, params, self.budget)
        others, C = dual_cert.competing_classes(y, self.graph.num_classes)
        p = [np.float64(0.0)] * self.graph.num_classes
        for k, st in zip(others, dual_cert.dual_states(sp, params, bnds, self.budget, C)):
            p[k] = -st.value
        return p

    def _exact_ce(self, sp, params, y, dropout_rng=None):
        rate = self.config.dropout_rate if (self.config.use_dropout and dropout_rng is not None) else 0.0
        trace = gcn.forward_sliced(sp, params, dropout_rate=rate, dropout_rng=dropout_rng)
        return gcn.cross_entropy(trace.logits, y)

    def _l2_penalty(self, params):
        pen = 0.0
        for w in params.weights:  # weights only, biases excluded
            pen = pen + grad.total(w * w)
        return self.config.l2_strength * pen

    def combined_loss(self, batch, params, dropout_rng=None):
        """Robust hinge (margin M1) plus exact CE over labeled nodes, + L2."""
        loss = self._l2_penalty(params)
        for t in batch:
            y = int(self.labels[t])
            sp = self.slices[t]
            entries = self._p_vector(sp, params, y)
            loss = loss + robust_hinge_loss(entries, y, self.config.margin_labeled)
            loss = loss + self._exact_ce(sp, params, y, dropout_rng)
        return loss

    def semi_supervised_loss(self, labeled_batch, unlabeled_batch, params, dropout_rng=None):
        """Labeled terms as in combined_loss, plus hinge at margin M2 on the
        unlabeled nodes w.r.t. their current predicted class."""
        loss = self.combined_loss(labeled_batch, params, dropout_rng)
        for t in unlabeled_batch:
            sp = self.slices[t]
            trace = gcn.forward_sliced(sp, params.copy())  # prediction is a constant
            y_pred = gcn.predict(trace)
            entries = self._p_vector(sp, params, y_pred)
            loss = loss + robust_hinge_loss(entries, y_pred, self.config.margin_unlabeled)
        return loss

    def rce_loss(self, batch, params):
        loss = self._l2_penalty(params)
        for t in batch:
            y = int(self.labels[t])
            entries = self._p_vector(self.slices[t], params, y)
            loss = loss + robust_cross_entropy_loss(entries, y)
        return loss

    def ce_loss(self, batch, params, dropout_rng=None):
        loss = self._l2_penalty(params)
        for t in batch:
            loss = loss + self._exact_ce(self.slices[t], params, int(self.labels[t]), dropout_rng)
        return loss

    # -- metrics -----------------------------------------------------------

    def _worst_case_margins(self, params, nodes, use_labels):
        vals = []
        for t in nodes:
            sp = self.slices[t]
            if use_labels:
                y = int(self.labels[t])
            else:
                y = gcn.predict(gcn.forward_sliced(sp, params))
            bnds = compute_bounds(sp, params, self.budget)
            mv = dual_cert.margin_vector(sp, params, bnds, self.budget, y)
            others = np.delete(mv.entries, y)
            vals.append(float(-np.max(others)) if others.size else 0.0)
        return float(np.mean(vals)) if vals else 0.0

    def _accuracy(self, params, nodes):
        if self.labels is None or len(nodes) == 0:
            return 0.0
        logits = gcn.forward_full(self.graph, self.mp, params)
        pred = np.argmax(logits, axis=1)
        return float(np.mean(pred[nodes] == self.labels[nodes]))

    def metrics_row(self, params, epoch, phase, loss):
        return {
            "epoch": epoch,
            "phase": phase,
            "loss": loss,
            "mean_worst_case_margin_labeled": self._worst_case_margins(params, self.labeled, True),
            "mean_worst_case_margin_unlabeled": self._worst_case_margins(params, self.unlabeled, False),
            "train_acc": self._accuracy(params, self.labeled),
            "test_acc": self._accuracy(params, self.unlabeled),
        }

    # -- optimization ------------------------------------------------------

    def _batch_loss_closure(self, phase, batch):
        cfg = self.config
        dropout_rng = np.random.default_rng(self.rng.integers(2**32)) if cfg.use_dropout else None

        def closure(shadow):
            if cfg.mode == "CE":
                return self.ce_loss(batch, shadow, dropout_rng)
            if cfg.mode == "RCE":
                return self.rce_loss(batch, shadow)
            if cfg.mode == "RH" or phase == 1:
                return self.combined_loss(batch, shadow, dropout_rng)
            lab = [t for t in batch if t in self._labeled_set]
            unlab = [t for t in batch if t not in self._labeled_set]
            return self.semi_supervised_loss(lab, unlab, shadow, dropout_rng)

        return closure

    def _run_phase(self, params, phase, pool, log, epoch_offset, max_epochs=None):
        cfg = self.config
        if max_epochs is None:
            max_epochs = cfg.max_epochs
        adam = _Adam(params, cfg.learning_rate)
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
                closure = self._batch_loss_closure(phase, batch)
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
                log.append(self.metrics_row(params, epoch, phase, epoch_loss))
            if epoch_loss < best_loss - 1e-9:
                best_loss = epoch_loss
                stall = 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    break
        return params, epoch, False

    def train(self, params: GcnParams | None = None):
        cfg = self.config
        if len(self.labeled) == 0:
            raise ValueError("labeled set is empty")
        if params is None:
            params = gcn.glorot_params(self.dims, seed=cfg.seed)
        self._labeled_set = set(int(t) for t in self.labeled)
        log = []
        pool1 = list(int(t) for t in self.labeled)
        params, epoch, aborted = self._run_phase(params, 1, pool1, log, 0)
        if cfg.mode == "RH_U" and not aborted:
            pool2 = list(range(self.graph.num_nodes))
            params, epoch, aborted = self._run_phase(
                params, 2, pool2, log, epoch, max_epochs=cfg.phase2_epochs
            )
        return params.validate(), log


def train(graph: Graph, config: TrainConfig, params: GcnParams | None = None):
    """Train a GCN per the configured mode; returns (params, log rows)."""
    return Trainer(graph, config).train(params)
