"""Graph data model, GCN message-passing matrix, per-target slicing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["Graph", "SlicedProblem", "build_message_passing", "first_layer_nodes", "row_span", "slice_problem"]

LABELED = "labeled"
UNLABELED = "unlabeled"


@dataclass(frozen=True)
class Graph:
    """Attributed graph with binary adjacency and binary node attributes.

    adjacency: N x N symmetric binary, dense or SciPy sparse; stored as a
        CSR array with no explicit zeros. Diagonal entries are allowed.
    attributes: N x D binary, stored as a dense bool array (8x smaller
        than float64); slices convert their rows to float64.
    labels: int array of length N, -1 where a label is unknown; all -1
        when none is given.
    split: array of "labeled"/"unlabeled" strings, length N; when none is
        given, a node is labeled exactly when it has a label.
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
        if X.dtype != bool and not np.array_equal(X_bool, X):
            raise ValueError("attributes must be binary")
        N = self.num_nodes
        labels = np.full(N, -1, dtype=np.int64) if self.labels is None else np.asarray(self.labels)
        if labels.shape != (N,) or labels.dtype.kind != "i":
            raise ValueError(f"labels must be ints of shape ({N},), got {labels.dtype} of shape {labels.shape}")
        if labels.max(initial=-1) >= self.num_classes:
            raise ValueError(f"label {labels.max()} out of range [0, {self.num_classes})")
        split = np.where(labels >= 0, LABELED, UNLABELED) if self.split is None else np.asarray(self.split)
        if split.shape != (N,):
            raise ValueError(f"split shape {split.shape} != ({N},)")
        if not ((split == LABELED) | (split == UNLABELED)).all():
            raise ValueError(f"split entries must be {LABELED!r} or {UNLABELED!r}")
        object.__setattr__(self, "adjacency", A)
        object.__setattr__(self, "attributes", X_bool)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "split", split)

    def dense_adjacency(self) -> np.ndarray:
        return self.adjacency.toarray()

    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.split == LABELED)

    def unlabeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.split == UNLABELED)


@dataclass(frozen=True)
class SlicedProblem:
    """Everything needed to evaluate one target node's output.

    hop_sets[k] lists (sorted ascending) the node ids reachable from the
    target within k hops, self included.  sliced_mp[l-1] has shape
    |hop_sets[L-l]| x |hop_sets[L-l+1]| for l = 1..L-1.
    """

    target: int
    sliced_mp: list = field(default_factory=list)
    sliced_attrs: np.ndarray = None
    hop_sets: list = field(default_factory=list)

    @property
    def layer_count(self) -> int:
        """L, read off the blocks: one per layer l = 1..L-1."""
        return len(self.sliced_mp) + 1

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


def row_span(mp: sp.csr_array, rows) -> tuple:
    """(span, lengths): where the stored entries of `rows` sit in mp.indices/data, row after row, and
    how many each row has."""
    starts = mp.indptr[rows]
    lengths = mp.indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths), lengths


def first_layer_nodes(mp: sp.csr_array, targets, layer_count: int) -> np.ndarray:
    """The nodes whose A_hat rows feed the first layer of any of `targets`: the union of their
    ``hop_sets[-2]`` (the N_{L-2}(t) of `slice_problem`), ascending."""
    reach = np.zeros(mp.shape[0], dtype=bool)
    reach[np.asarray(targets, dtype=np.intp)] = True
    for _ in range(layer_count - 2):
        reach[mp.indices[row_span(mp, np.flatnonzero(reach))[0]]] = True
    return np.flatnonzero(reach)


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
        span, lengths = row_span(mp, hop)
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
        sliced_mp=blocks[::-1],
        sliced_attrs=graph.attributes[hop_sets[-1]].astype(np.float64),
        hop_sets=hop_sets,
    )
