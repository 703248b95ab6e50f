"""Shared fixtures: small hand-built graphs, forced-tie slices, a Graph comparison, checkpoints with a
hand-made `w0.npy` member and the probes of a status curve's bisection.  Tiny random instances come from
the test helper `oracle`."""

import io
import zipfile

import numpy as np
import pytest

from gcn_cert import bounds
from gcn_cert.dual_cert import NON_ROBUST, ROBUST
from gcn_cert.gcn import GcnParams
from gcn_cert.graph_core import Graph, SlicedProblem, build_message_passing, slice_problem


def path_graph():
    """Path 0 - 1 - 2 with two binary features."""
    A = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    X = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
    return Graph(
        num_nodes=3,
        num_features=2,
        num_classes=2,
        adjacency=A,
        attributes=X,
        labels=np.array([0, 1, -1]),
    )


def assert_graphs_equal(a, b):
    """Equal sizes, adjacency, attributes, labels and split, dtypes included."""
    assert (a.num_nodes, a.num_features, a.num_classes) == (b.num_nodes, b.num_features, b.num_classes)
    assert a.adjacency.dtype == b.adjacency.dtype and (a.adjacency != b.adjacency).nnz == 0
    for x, y in ((a.attributes, b.attributes), (a.labels, b.labels), (a.split, b.split)):
        assert (x is None) == (y is None)
        if x is not None:
            assert x.dtype == y.dtype and np.array_equal(x, y)


def lying_npy(rows):
    """`.npy` bytes whose header claims shape (rows, 3) but which store only 32 bytes of data."""
    member = io.BytesIO()
    np.lib.format.write_array_header_1_0(member, {"descr": "<f8", "fortran_order": False, "shape": (rows, 3)})
    return member.getvalue() + bytes(32)


def write_checkpoint_with_w0(path, arrays, w0):
    """Write `arrays` as an `.npz` whose `w0.npy` member holds the bytes `w0`; return the path as a string."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, a in arrays.items():
            member = io.BytesIO()
            np.save(member, a)
            zf.writestr(f"{name}.npy", w0 if name == "w0" else member.getvalue())
    return str(path)


def single_node_problem(X_row):
    """The L = 3 slice of a one-node graph whose attribute row is X_row."""
    X = np.asarray([X_row], dtype=float)
    g = Graph(
        num_nodes=1,
        num_features=X.shape[1],
        num_classes=2,
        adjacency=np.zeros((1, 1)),
        attributes=X,
    )
    return slice_problem(g, build_message_passing(g), 0, 3)


def forced_tie_slice(rng, n, M, D, h, K):
    """A Cora-ML-shape slice (L = 3) built to put many delta entries in exact ties.

    Dyadic message-passing weights and integer W keep the arithmetic exact;
    duplicated feature columns (with equal W rows) and all-zero attribute
    rows repeat whole delta columns and rows.
    """
    A1 = rng.choice([0.0, 0.25, 0.5], size=(M, n), p=[0.6, 0.2, 0.2])
    A1[np.arange(M), np.arange(M)] = 0.5
    A2 = np.full((1, M), 0.25)
    X = (rng.random((n, D)) < 0.02).astype(float)
    src = rng.integers(D, size=D // 4)
    dst = rng.integers(D, size=D // 4)
    X[:, dst] = X[:, src]
    X[rng.random(n) < 0.2] = 0.0
    W1 = rng.integers(-2, 3, size=(D, h)).astype(float)
    W1[dst] = W1[src]
    W2 = rng.integers(-2, 3, size=(h, K)).astype(float)
    b1 = rng.integers(-3, 4, size=h).astype(float)
    b2 = rng.integers(-1, 2, size=K).astype(float)
    sp = SlicedProblem(
        target=0, sliced_mp=[A1, A2], sliced_attrs=X,
        hop_sets=[np.array([0]), np.arange(M), np.arange(n)],
    )
    return sp, GcnParams([W1, W2], [b1, b2])


def bisection_probes(statuses):
    """The positions that bisection evaluates on a curve whose per-budget statuses are `statuses`."""
    probes, runs = [], [(0, len(statuses))]
    while runs:
        lo, hi = runs.pop()
        if lo < hi:
            mid = (lo + hi) // 2
            probes.append(mid)
            if statuses[mid] != NON_ROBUST:
                runs.append((mid + 1, hi))
            if statuses[mid] != ROBUST:
                runs.append((lo, mid))
    return probes


@pytest.fixture
def path():
    return path_graph()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def peel_calls(monkeypatch):
    """The argument tuples of every call `bounds.top_k` makes to its argmax-peeling path."""
    calls = []
    peel = bounds._peel_top
    monkeypatch.setattr(bounds, "_peel_top", lambda *a: calls.append(a) or peel(*a))
    return calls
