"""Exact GCN forward pass (full-graph and sliced), parameters, losses."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from . import grad
from .graph_core import Graph, SlicedProblem

__all__ = [
    "GcnParams",
    "ForwardTrace",
    "glorot_params",
    "forward_sliced",
    "forward_full",
    "predict",
    "cross_entropy",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class GcnParams:
    """Weights W^(l) and biases b^(l), l = 1..L-1."""

    weights: list
    biases: list

    @property
    def layer_count(self) -> int:
        return len(self.weights) + 1

    @property
    def dims(self):
        ds = [grad.val(w).shape[0] for w in self.weights]
        ds.append(grad.val(self.weights[-1]).shape[1])
        return ds

    def validate(self):
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            w, b = grad.val(w), grad.val(b)
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {l}: W {w.shape} vs b {b.shape}")
            if l + 1 < len(self.weights):
                nxt = grad.val(self.weights[l + 1])
                if w.shape[1] != nxt.shape[0]:
                    raise ValueError(f"layer {l}->{l + 1}: {w.shape} vs {nxt.shape}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l}: non-finite parameter")
        return self

    def copy(self) -> "GcnParams":
        return GcnParams(
            [grad.val(w).copy() for w in self.weights],
            [grad.val(b).copy() for b in self.biases],
        )


@dataclass
class ForwardTrace:
    """The result of one sliced forward pass: `logits`, the target's K-vector."""

    logits: object


def glorot_params(dims, seed=0) -> GcnParams:
    """Glorot-uniform initialized parameters for the given layer dims."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return GcnParams(weights, biases).validate()


def forward_sliced(
    sp: SlicedProblem,
    params: GcnParams,
    attrs_override=None,
    dropout_rate: float = 0.0,
    dropout_rng=None,
) -> ForwardTrace:
    """Evaluate the sliced GNN; logits come without the final softmax.

    Works on plain arrays and on grad.Var parameters.  Dropout (training
    only) is applied to post-ReLU activations with inverted scaling; a
    `dropout_rate` > 0 needs a `dropout_rng`.
    """
    if dropout_rate > 0.0 and dropout_rng is None:
        raise ValueError(f"dropout_rate={dropout_rate} needs a dropout_rng")
    L = sp.layer_count
    H = sp.sliced_attrs if attrs_override is None else np.asarray(attrs_override, dtype=np.float64)
    if grad.val(H).shape != sp.sliced_attrs.shape:
        raise ValueError(
            f"attrs_override shape {grad.val(H).shape} != {sp.sliced_attrs.shape}"
        )
    for l in range(1, L):
        A_dot = sp.sliced_mp[l - 1]
        W, b = params.weights[l - 1], params.biases[l - 1]
        if grad.val(W).shape[0] != grad.val(H).shape[1]:
            raise ValueError(
                f"layer {l}: weight shape {grad.val(W).shape} does not chain "
                f"with activation shape {grad.val(H).shape}"
            )
        H_hat = grad.matmul(grad.matmul(A_dot, H), W) + b
        if l < L - 1:
            H = grad.relu(H_hat)
            if dropout_rate > 0.0:
                keep = (dropout_rng.random(grad.val(H).shape) >= dropout_rate).astype(np.float64)
                H = H * (keep / (1.0 - dropout_rate))
    logits = grad.gather(H_hat, np.arange(grad.val(H_hat).size))  # the one row, flattened
    return ForwardTrace(logits=logits)


def forward_full(graph: Graph, mp: csr_array, params: GcnParams, attrs_override=None):
    """Full-graph logits (N x K), softmax omitted."""
    H = np.asarray(graph.attributes if attrs_override is None else attrs_override, dtype=np.float64)
    L = params.layer_count
    for l in range(1, L):
        W = grad.val(params.weights[l - 1])
        b = grad.val(params.biases[l - 1])
        H_hat = mp @ H @ W + b
        H = np.maximum(H_hat, 0.0) if l < L - 1 else H_hat
    return H


def predict(trace_or_logits) -> int:
    """Argmax class; ties go to the smaller class index."""
    logits = trace_or_logits.logits if isinstance(trace_or_logits, ForwardTrace) else trace_or_logits
    logits = grad.val(logits)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    return int(np.argmax(logits))


def cross_entropy(logits, label: int):
    """-log softmax(logits)[label], max-shifted; grad-aware."""
    k = grad.val(logits).shape[0]
    if not (0 <= label < k):
        raise ValueError(f"label {label} out of range [0, {k})")
    return -grad.log_softmax_entry(logits, label)


def save_checkpoint(params: GcnParams, path):
    """JSON checkpoint with hex floats for an exact round-trip."""
    doc = {
        "L": params.layer_count,
        "dims": [int(d) for d in params.dims],
        "weights": [[f.hex() for f in np.asarray(w, dtype=np.float64).ravel()] for w in params.weights],
        "biases": [[f.hex() for f in np.asarray(b, dtype=np.float64).ravel()] for b in params.biases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path) -> GcnParams:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    dims = doc["dims"]
    if not doc["L"] == len(dims) == len(doc["weights"]) + 1 == len(doc["biases"]) + 1:
        raise ValueError(
            f"L={doc['L']}, {len(dims)} dims, {len(doc['weights'])} weight and "
            f"{len(doc['biases'])} bias lists do not agree"
        )
    weights, biases = [], []
    for l in range(doc["L"] - 1):
        weights.append(_hex_floats(doc["weights"][l]).reshape(dims[l], dims[l + 1]))
        biases.append(_hex_floats(doc["biases"][l]))
    return GcnParams(weights, biases).validate()


def _hex_floats(entries) -> np.ndarray:
    """The float64 array of `entries`, hex-float strings, decoded by `float.fromhex` in one C-level pass."""
    return np.fromiter(map(float.fromhex, entries), np.float64)
