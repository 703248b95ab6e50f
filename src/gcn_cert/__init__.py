"""Certifiable robustness of graph convolutional networks to L0-bounded
binary attribute perturbations: dual certificates, exact oracles, primal
attacks, and robust training."""

from .bounds import ActivationBounds, Budget, compute_bounds
from .dual_cert import (
    Certificate,
    DualState,
    certify,
    dual_state,
    dual_states,
    margin_vector,
    optimize_omega,
    status_curve,
)
from .gcn import GcnParams, forward_full, forward_sliced, glorot_params, load_checkpoint, predict, save_checkpoint
from .graph_core import Graph, SlicedProblem, build_message_passing, slice_problem
from .primal_attack import Perturbation, construct, construct_and_evaluate
from .robust_train import TrainConfig, Trainer, train

__version__ = "0.1.0"

__all__ = [
    "ActivationBounds",
    "Budget",
    "Certificate",
    "DualState",
    "GcnParams",
    "Graph",
    "Perturbation",
    "SlicedProblem",
    "TrainConfig",
    "Trainer",
    "build_message_passing",
    "certify",
    "compute_bounds",
    "construct",
    "construct_and_evaluate",
    "dual_state",
    "dual_states",
    "forward_full",
    "forward_sliced",
    "glorot_params",
    "load_checkpoint",
    "margin_vector",
    "optimize_omega",
    "predict",
    "save_checkpoint",
    "slice_problem",
    "status_curve",
    "train",
]
