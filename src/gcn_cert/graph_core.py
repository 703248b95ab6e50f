"""Graph data model, GCN message-passing matrix, per-target slicing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["Graph", "SlicedProblem", "build_message_passing", "slice_problem"]

LABELED = "labeled"
UNLABELED = "unlabeled"


@dataclass(frozen=True)
class Graph:
    """Attributed graph with binary adjacency and binary node attributes.

    adjacency: N x N symmetric binary, dense or SciPy sparse; stored as a
        CSR array with no explicit zeros. Diagonal entries are allowed.
    attributes: N x D binary, stored as a dense bool array (8x smaller
        than float64); slices convert their rows to float64.
    labels: optional int array of length N, -1 where unknown.
    split: optional array of "labeled"/"unlabeled" strings, length N.
    """

    num_nodes: int
    num_features: int
    num_classes: int
    adjacency: sp.csr_array
    attributes: np.ndarray
    labels: np.ndarray | None = None
    split: np.ndarray | None = None

    def __post_init__(self):
        # copy: the canonicalisation below works in place
        A = sp.csr_array(self.adjacency, dtype=np.float64, copy=True)
        A.sum_duplicates()
        A.eliminate_zeros()
        if A.shape != (self.num_nodes, self.num_nodes):
            raise ValueError(f"adjacency shape {A.shape} != N={self.num_nodes}")
        if (A != A.T).nnz:
            raise ValueError("adjacency must be symmetric")
        if not (A.data == 1.0).all():
            raise ValueError("adjacency must be binary")
        X = np.asarray(self.attributes)
        if X.shape != (self.num_nodes, self.num_features):
            raise ValueError(f"attributes shape {X.shape} != ({self.num_nodes}, {self.num_features})")
        X_bool = X.astype(bool)
        if not np.array_equal(X_bool, X):
            raise ValueError("attributes must be binary")
        if self.labels is not None:
            lab = np.asarray(self.labels)
            known = lab[lab >= 0]
            if known.size and (known.max() >= self.num_classes):
                raise ValueError("label out of range")
        object.__setattr__(self, "adjacency", A)
        object.__setattr__(self, "attributes", X_bool)

    def dense_adjacency(self) -> np.ndarray:
        return self.adjacency.toarray()

    def labeled_nodes(self) -> np.ndarray:
        if self.split is None:
            if self.labels is None:
                return np.array([], dtype=int)
            return np.flatnonzero(np.asarray(self.labels) >= 0)
        return np.flatnonzero(np.asarray(self.split) == LABELED)

    def unlabeled_nodes(self) -> np.ndarray:
        if self.split is None:
            if self.labels is None:
                return np.arange(self.num_nodes)
            return np.flatnonzero(np.asarray(self.labels) < 0)
        return np.flatnonzero(np.asarray(self.split) == UNLABELED)


@dataclass(frozen=True)
class SlicedProblem:
    """Everything needed to evaluate one target node's output.

    hop_sets[k] lists (sorted ascending) the node ids reachable from the
    target within k hops, self included.  sliced_mp[l-1] has shape
    |hop_sets[L-l]| x |hop_sets[L-l+1]| for l = 1..L-1.
    """

    target: int
    layer_count: int
    sliced_mp: list = field(default_factory=list)
    sliced_attrs: np.ndarray = None
    hop_sets: list = field(default_factory=list)

    @property
    def neighborhood(self) -> np.ndarray:
        """Global node ids of the outermost hop set N_{L-1}(t)."""
        return self.hop_sets[-1]


def build_message_passing(graph: Graph) -> sp.csr_array:
    """A_hat = D~^{-1/2} (A v I) D~^{-1/2} as CSR; every diagonal entry is stored."""
    A_tilde = graph.adjacency + sp.identity(graph.num_nodes, format="csr")
    deg = np.diff(A_tilde.indptr)
    inv_sqrt = 1.0 / np.sqrt(deg)
    rows = np.repeat(np.arange(graph.num_nodes), deg)
    A_tilde.data = inv_sqrt[rows] * inv_sqrt[A_tilde.indices]
    return A_tilde


def slice_problem(graph: Graph, mp: sp.csr_array, target: int, layer_count: int) -> SlicedProblem:
    """Restrict the GCN to the (L-1)-hop neighborhood of the target.

    Because A_hat stores its diagonal, the columns that the rows
    A_hat[hop_k] touch are exactly hop_{k+1}, so one pass over those rows'
    stored entries yields both the next hop set and the dense block
    A_hat[hop_k, hop_{k+1}].
    """
    if not (0 <= target < graph.num_nodes):
        raise ValueError(f"target {target} out of range [0, {graph.num_nodes})")
    if layer_count < 2:
        raise ValueError("layer_count must be >= 2")
    # work arrays are per call: threads may slice the same graph concurrently
    reach = np.zeros(graph.num_nodes, dtype=bool)
    reach[target] = True
    position = np.empty(graph.num_nodes, dtype=np.intp)  # index of a node in its hop set
    hop_sets = [np.array([target], dtype=int)]
    blocks = []
    for _ in range(layer_count - 1):
        hop = hop_sets[-1]
        starts = mp.indptr[hop]
        lengths = mp.indptr[hop + 1] - starts
        ends = np.cumsum(lengths)
        # where the rows' stored entries sit in indices/data, row after row
        span = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
        cols = mp.indices[span]
        reach[cols] = True
        nxt = np.flatnonzero(reach)
        position[nxt] = np.arange(nxt.size)
        block = np.zeros((hop.size, nxt.size))
        block[np.repeat(np.arange(hop.size), lengths), position[cols]] = mp.data[span]
        blocks.append(block)
        hop_sets.append(nxt)
    return SlicedProblem(
        target=target,
        layer_count=layer_count,
        sliced_mp=blocks[::-1],
        sliced_attrs=graph.attributes[hop_sets[-1]].astype(np.float64),
        hop_sets=hop_sets,
    )
