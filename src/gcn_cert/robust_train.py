"""Training loops: standard CE, robust CE, robust hinge, and the
semi-supervised robust hinge variant with a second margin for unlabeled
nodes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual_cert, gcn, grad
from .bounds import Budget, flip_table
from .gcn import GcnParams
from .graph_core import Graph, build_message_passing, first_layer_nodes, slice_problem

__all__ = [
    "TrainConfig",
    "Trainer",
    "default_local_budget",
    "DEFAULT_GLOBAL_Q",
    "training_budget",
    "robust_hinge_loss",
    "train",
    "MARGIN_LABELED",
    "MARGIN_UNLABELED",
    "LOG_FIELDS",
]

# log-odds margins from the experimental setup: 90% worst-case confidence
# on labeled nodes, 60% on unlabeled ones
MARGIN_LABELED = math.log(0.9 / 0.1)
MARGIN_UNLABELED = math.log(0.6 / 0.4)

MODES = ("CE", "RCE", "RH", "RH_U")

# the columns of a training-log row, in the order `gcn-cert train` writes them
LOG_FIELDS = (
    "epoch", "phase", "loss", "mean_worst_case_margin_labeled", "mean_worst_case_margin_unlabeled",
    "train_acc", "test_acc",
)

# global flip budget Q when the config sets none
DEFAULT_GLOBAL_Q = 12


def default_local_budget(num_features: int) -> int:
    """Per-node budget q = ceil(0.01 * D)."""
    return max(1, math.ceil(0.01 * num_features))


def training_budget(num_features: int, q: int | None = None, Q: int | None = None) -> Budget:
    """Budget(q, Q), with default_local_budget(D) for a q and DEFAULT_GLOBAL_Q for a Q that is None."""
    return Budget(default_local_budget(num_features) if q is None else q, DEFAULT_GLOBAL_Q if Q is None else Q)


@dataclass
class TrainConfig:
    mode: str = "CE"
    budget: Budget | None = None  # omitted: training_budget(D)
    learning_rate: float = 0.001
    l2_strength: float = 1e-5
    batch_size: int = 20
    dropout_rate: float = 0.0  # dropout in the exact CE terms is on exactly when > 0
    max_epochs: int = 200
    phase2_epochs: int | None = None  # RH_U only; defaults to max_epochs
    patience: int = 20
    seed: int = 0
    hidden_dims: tuple = (32,)  # sizes only the model that `Trainer.train` draws when given none
    eval_every: int = 1  # log a metrics row every this many epochs; 0 logs none

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} not in {MODES}")
        if self.phase2_epochs is not None and self.phase2_epochs < 1:
            raise ValueError("phase2_epochs must be >= 1 when set")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (0 <= self.dropout_rate < 1):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not math.isfinite(self.l2_strength) or self.l2_strength < 0:
            raise ValueError(f"l2_strength must be finite and >= 0, got {self.l2_strength}")
        # the dual bound needs at least one hidden layer
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"need at least one hidden layer and hidden widths >= 1, got {self.hidden_dims}")


def robust_hinge_loss(p, y_star: int, margin: float):
    """Sum over competing classes k != y* of max(0, p_k + M), for the (K,) margin vector p; grad-aware."""
    competing = np.ones(grad.val(p).shape)
    competing[y_star] = 0.0
    return grad.asum(grad.relu(p + margin) * competing)


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
    """Owns the graph, its propagation matrix and the training loss; slices nodes on demand, at the depth of the
    parameters it is given; checks the labeled set."""

    def __init__(self, graph: Graph, config: TrainConfig):
        self.labeled = graph.labeled_nodes()
        if self.labeled.size == 0:
            raise ValueError("no node is labeled; training needs at least one labeled node")
        no_label = self.labeled[graph.labels[self.labeled] < 0]
        if no_label.size:
            raise ValueError(f"node {no_label[0]} is marked labeled but has no label")
        self.graph = graph
        self.config = config
        self.budget = training_budget(graph.num_features) if config.budget is None else config.budget
        self.dims = [graph.num_features, *config.hidden_dims, graph.num_classes]
        self.mp = build_message_passing(graph)
        self.labels = graph.labels
        self.unlabeled = graph.unlabeled_nodes()
        self._labeled_set = set(int(t) for t in self.labeled)
        self.rng = np.random.default_rng(config.seed)
        self.epochs = 0  # epochs that the last `train` completed, over both phases

    # -- the training loss -------------------------------------------------

    def _flip_table(self, params, targets):
        """The first-layer flip picks of `targets`' first layers, selected from the current values of W1.

        Built per batch and per metrics row and then dropped: `_Adam.step`
        updates W in place, so a kept table would go stale.
        """
        rows = first_layer_nodes(self.mp, targets, params.layer_count)
        return flip_table(self.mp, self.graph.attributes, params, self.budget, rows)

    def batch_loss(self, batch, params, dropout_rng=None):
        """L2 on the weights plus one term per node of `batch`; grad-aware.

        A labeled node adds exact CE (mode CE), robust CE (RCE: CE on the margin
        vector p as logits), or the robust hinge at MARGIN_LABELED plus exact CE
        (RH, RH_U).  An unlabeled node adds the robust hinge at MARGIN_UNLABELED
        w.r.t. its current prediction, held constant.  Labeled nodes are summed
        first, then unlabeled ones, each in batch order.  `dropout_rng` drives dropout at
        `dropout_rate` in the exact CE terms; without one there is no dropout.
        """
        cfg = self.config
        pen = 0.0
        for w in params.weights:  # weights only, biases excluded
            pen = pen + grad.asum(w * w)
        loss = cfg.l2_strength * pen
        rate = cfg.dropout_rate if dropout_rng is not None else 0.0
        labeled = [t for t in batch if t in self._labeled_set]
        unlabeled = [t for t in batch if t not in self._labeled_set]
        table = self._flip_table(params, unlabeled if cfg.mode == "CE" else batch)  # the nodes it bounds
        for t in labeled:
            sp, y = slice_problem(self.graph, self.mp, t, params.layer_count), int(self.labels[t])
            if cfg.mode == "RCE":
                loss = loss + gcn.cross_entropy(dual_cert.margin_vector(sp, params, self.budget, y, table), y)
                continue
            if cfg.mode != "CE":
                p = dual_cert.margin_vector(sp, params, self.budget, y, table)
                loss = loss + robust_hinge_loss(p, y, MARGIN_LABELED)
            logits = gcn.forward_sliced(sp, params, dropout_rate=rate, dropout_rng=dropout_rng).logits
            loss = loss + gcn.cross_entropy(logits, y)
        held = params.copy() if unlabeled else None  # predictions see the values, not the tape
        for t in unlabeled:
            sp = slice_problem(self.graph, self.mp, t, params.layer_count)
            y = gcn.predict(gcn.forward_sliced(sp, held))
            p = dual_cert.margin_vector(sp, params, self.budget, y, table)
            loss = loss + robust_hinge_loss(p, y, MARGIN_UNLABELED)
        return loss

    # -- metrics -----------------------------------------------------------

    def _worst_case_margins(self, params, nodes, classes, table):
        """Mean over `nodes` of min_{k != y} -p_k, with y = classes[t] for node t; 0.0 for no nodes."""
        vals = []
        for t in nodes:
            sp, y = slice_problem(self.graph, self.mp, t, params.layer_count), int(classes[t])
            others = np.delete(dual_cert.margin_vector(sp, params, self.budget, y, table), y)
            vals.append(float(-np.max(others)) if others.size else 0.0)
        return float(np.mean(vals)) if vals else 0.0

    def _accuracy(self, pred, nodes):
        """Share of the `nodes` with a label (>= 0) that `pred` gets right; nan when none has one."""
        nodes = np.asarray(nodes, dtype=np.intp)
        nodes = nodes[self.labels[nodes] >= 0]
        return float(np.mean(pred[nodes] == self.labels[nodes])) if nodes.size else math.nan

    def metrics_row(self, params, epoch, phase, loss):
        """One log row keyed by LOG_FIELDS: unlabeled margins and both accuracies read one prediction.

        Every node's first-layer flip picks are selected once, into one table.
        """
        pred = np.argmax(gcn.forward_full(self.graph, self.mp, params), axis=1)
        table = self._flip_table(params, np.arange(self.graph.num_nodes))
        values = (
            epoch, phase, loss,
            self._worst_case_margins(params, self.labeled, self.labels, table),
            self._worst_case_margins(params, self.unlabeled, pred, table),
            self._accuracy(pred, self.labeled),
            self._accuracy(pred, self.unlabeled),
        )
        return dict(zip(LOG_FIELDS, values, strict=True))

    # -- optimization ------------------------------------------------------

    def _run_phase(self, params, phase, pool, log, max_epochs):
        """Up to `max_epochs` epochs over `pool`, counted on from `self.epochs`; returns (params, aborted).

        An epoch whose loss is not finite aborts the phase with the parameters from before it, uncounted.
        """
        cfg = self.config
        adam = _Adam(params, cfg.learning_rate)
        best_loss = np.inf
        stall = 0
        last_finite = params.copy()
        for _ in range(max_epochs):
            order = pool.copy()
            self.rng.shuffle(order)
            epoch_loss, nbatches = 0.0, 0
            for start in range(0, len(order), cfg.batch_size):
                batch = list(order[start:start + cfg.batch_size])
                dropout_rng = np.random.default_rng(self.rng.integers(2**32)) if cfg.dropout_rate > 0 else None
                try:
                    value, grads = grad.gradient(lambda p: self.batch_loss(batch, p, dropout_rng), params)
                except FloatingPointError:
                    return last_finite, True
                adam.step(params, grads)
                epoch_loss += value
                nbatches += 1
            epoch_loss /= max(nbatches, 1)
            if not np.isfinite(epoch_loss):
                return last_finite, True
            last_finite = params.copy()
            self.epochs += 1
            if cfg.eval_every and (self.epochs % cfg.eval_every == 0):
                log.append(self.metrics_row(params, self.epochs, phase, epoch_loss))
            if epoch_loss < best_loss - 1e-9:
                best_loss = epoch_loss
                stall = 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    break
        return params, False

    def train(self, params: GcnParams | None = None):
        cfg = self.config
        self.epochs = 0
        if params is None:
            params = gcn.glorot_params(self.dims, seed=cfg.seed)
        elif params.dims[0] != self.dims[0] or params.dims[-1] != self.dims[-1]:
            raise ValueError(f"params of dims {params.dims} do not fit the graph's D={self.dims[0]}, K={self.dims[-1]}")
        log = []
        params, aborted = self._run_phase(params, 1, [int(t) for t in self.labeled], log, cfg.max_epochs)
        if cfg.mode == "RH_U" and not aborted:
            pool = list(range(self.graph.num_nodes))
            params, _ = self._run_phase(params, 2, pool, log, cfg.phase2_epochs or cfg.max_epochs)
        return params.validate(), log


def train(graph: Graph, config: TrainConfig, params: GcnParams | None = None):
    """Train a GCN per the configured mode; returns (params, log rows)."""
    return Trainer(graph, config).train(params)
