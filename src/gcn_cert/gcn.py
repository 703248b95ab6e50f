"""Exact GCN forward pass (full-graph and sliced), parameters, losses and `.npz` checkpoints."""

from __future__ import annotations

import io
import math
import tokenize
import zipfile
import zlib
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
    if params.layer_count != L:
        raise ValueError(f"params of depth L={params.layer_count} on a slice of depth L={L}")
    H = sp.sliced_attrs if attrs_override is None else np.asarray(attrs_override, dtype=np.float64)
    if H.shape != sp.sliced_attrs.shape:
        raise ValueError(f"attrs_override shape {H.shape} != {sp.sliced_attrs.shape}")
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


def forward_full(graph: Graph, mp: csr_array, params: GcnParams):
    """Full-graph logits (N x K), softmax omitted."""
    H = np.asarray(graph.attributes, dtype=np.float64)
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
    """Write `w0…`, `b0…` as float64 to an uncompressed `.npz`; fixed entry dates make its bytes reproducible."""
    arrays = {f"w{l}": w for l, w in enumerate(params.weights)} | {f"b{l}": b for l, b in enumerate(params.biases)}
    with open(path, "wb") as fh:  # given a name without ".npz", np.savez would append it
        np.savez(fh, **{name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()})


def _npz_arrays(data) -> list:
    """(name less ".npy", array) of each member of the `.npz` bytes `data`.  A member whose `.npy` header claims
    other than its stored byte count, or an object array, raises ValueError before any array is made."""
    fmt, arrays = np.lib.format, []
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        for info in archive.infolist():
            with archive.open(info) as fh:
                read_header = fmt.read_array_header_1_0 if fmt.read_magic(fh) == (1, 0) else fmt.read_array_header_2_0
                shape, fortran_order, dtype = read_header(fh)
                claimed = fh.tell() + math.prod(shape) * dtype.itemsize
                if dtype.hasobject:
                    raise ValueError(f"{info.filename}: object arrays are not read (allow_pickle=False)")
                if claimed != info.file_size:
                    raise ValueError(f"{info.filename}: its .npy header claims {claimed} bytes, not {info.file_size}")
                a = np.frombuffer(bytearray(fh.read(claimed - fh.tell())), dtype)
            arrays.append((info.filename.removesuffix(".npy"), a.reshape(shape, order="F" if fortran_order else "C")))
    return arrays


def load_checkpoint(path) -> GcnParams:
    """The parameters `save_checkpoint` wrote to `path`; a malformed file, a JSON one included, raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()  # parsed in memory, so a damaged offset is not an OSError of the file
    if not data.startswith(b"PK\x03\x04"):
        raise ValueError("not an .npz zip archive (JSON checkpoints are no longer read)")
    try:
        arrays = _npz_arrays(data)
    except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, RuntimeError, tokenize.TokenError) as exc:
        raise ValueError(f"damaged .npz archive ({type(exc).__name__}: {exc})") from None
    names, arrays = [name for name, _ in arrays], dict(arrays)
    layers = len(names) // 2
    if not layers or sorted(names) != sorted(f"{p}{l}" for p in "wb" for l in range(layers)):
        raise ValueError(f"holds arrays {names}, not w0…, b0… of one count")
    weights, biases = [arrays[f"w{l}"] for l in range(layers)], [arrays[f"b{l}"] for l in range(layers)]
    for l, (w, b) in enumerate(zip(weights, biases)):
        if (w.ndim, w.dtype, b.ndim, b.dtype) != (2, np.float64, 1, np.float64):
            raise ValueError(f"layer {l}: W is {w.ndim}-D {w.dtype}, b {b.ndim}-D {b.dtype}; need 2-D and 1-D float64")
    return GcnParams(weights, biases).validate()
