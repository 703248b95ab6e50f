import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from gcn_cert import gcn
from gcn_cert.cli import load_dataset
from gcn_cert.graph_core import Graph, build_message_passing, slice_problem

from conftest import path_graph, random_tiny_graph


def _graph(A, X, **kw):
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float)
    return Graph(
        num_nodes=A.shape[0],
        num_features=X.shape[1],
        num_classes=kw.pop("num_classes", 2),
        adjacency=A,
        attributes=X,
        **kw,
    )


def test_single_node_message_passing():
    g = _graph(np.zeros((1, 1)), [[1.0]])
    mp = build_message_passing(g)
    assert np.array_equal(mp.toarray(), [[1.0]])


def test_two_node_message_passing():
    g = _graph([[0, 1], [1, 0]], [[1], [0]])
    mp = build_message_passing(g)
    assert np.allclose(mp.toarray(), 0.5)


def test_path_message_passing_values():
    mp = build_message_passing(path_graph())
    A_hat = mp.toarray()
    assert A_hat[0, 0] == pytest.approx(0.5)
    assert A_hat[0, 1] == pytest.approx(1.0 / np.sqrt(6.0))
    assert A_hat[1, 1] == pytest.approx(1.0 / 3.0)
    assert A_hat[1, 2] == pytest.approx(1.0 / np.sqrt(6.0))
    assert A_hat[2, 2] == pytest.approx(0.5)
    assert A_hat[0, 2] == 0.0
    assert np.array_equal(A_hat, A_hat.T)


def test_path_slicing_shapes_and_hop_sets():
    g = path_graph()
    mp = build_message_passing(g)
    sp = slice_problem(g, mp, 0, 3)
    assert [list(s) for s in sp.hop_sets] == [[0], [0, 1], [0, 1, 2]]
    assert sp.sliced_mp[0].shape == (2, 3)
    assert sp.sliced_mp[1].shape == (1, 2)
    assert np.array_equal(sp.sliced_attrs, g.attributes)
    assert np.array_equal(sp.neighborhood, [0, 1, 2])
    A_hat = mp.toarray()
    assert np.array_equal(sp.sliced_mp[0], A_hat[np.ix_([0, 1], [0, 1, 2])])
    assert np.array_equal(sp.sliced_mp[1], A_hat[np.ix_([0], [0, 1])])


def test_isolated_node_slices_to_itself():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 1.0
    g = _graph(A, np.eye(3))
    mp = build_message_passing(g)
    sp = slice_problem(g, mp, 2, 3)
    assert all(list(s) == [2] for s in sp.hop_sets)
    assert sp.sliced_mp[0].shape == (1, 1)
    assert sp.sliced_mp[0][0, 0] == pytest.approx(1.0)


def test_complete_graph_hop_sets_saturate():
    A = 1.0 - np.eye(3)
    g = _graph(A, np.ones((3, 2)))
    sp = slice_problem(g, build_message_passing(g), 1, 3)
    assert list(sp.hop_sets[0]) == [1]
    assert list(sp.hop_sets[1]) == [0, 1, 2]
    assert list(sp.hop_sets[2]) == [0, 1, 2]


def test_sliced_forward_matches_full(rng):
    for _ in range(20):
        graph, params, _ = random_tiny_graph(rng)
        mp = build_message_passing(graph)
        full = gcn.forward_full(graph, mp, params)
        for t in range(graph.num_nodes):
            sp = slice_problem(graph, mp, t, params.layer_count)
            logits = gcn.forward_sliced(sp, params).logits
            np.testing.assert_allclose(logits, full[t], atol=1e-12)


def test_labeled_unlabeled_split():
    g = path_graph()
    assert list(g.labeled_nodes()) == [0, 1]
    assert list(g.unlabeled_nodes()) == [2]
    g2 = _graph(np.zeros((2, 2)), np.eye(2), split=np.array(["unlabeled", "labeled"], dtype=object))
    assert list(g2.labeled_nodes()) == [1]
    assert list(g2.unlabeled_nodes()) == [0]


def test_labels_and_split_are_always_arrays():
    """With neither given, every node is unlabeled: labels all -1 and split all "unlabeled"."""
    g = _graph(np.zeros((3, 3)), np.eye(3))
    assert g.labels.dtype.kind == "i" and list(g.labels) == [-1, -1, -1]
    assert list(g.split) == ["unlabeled"] * 3
    assert list(g.labeled_nodes()) == [] and list(g.unlabeled_nodes()) == [0, 1, 2]
    g = _graph(np.zeros((2, 2)), np.eye(2), split=np.array(["labeled", "unlabeled"]))
    assert list(g.labels) == [-1, -1] and list(g.labeled_nodes()) == [0]


def test_split_is_derived_from_labels_when_none_is_given():
    g = path_graph()  # labels [0, 1, -1]
    assert list(g.split) == ["labeled", "labeled", "unlabeled"]
    given = _graph(np.zeros((3, 3)), np.eye(3), labels=np.array([0, 1, -1]), split=np.array(["unlabeled"] * 3))
    assert list(given.split) == ["unlabeled"] * 3 and list(given.labeled_nodes()) == []


@pytest.mark.parametrize(
    "kw, match",
    [
        (dict(labels=np.array([0, 1])), "labels"),
        (dict(labels=np.array([0, 1, -1, 0])), "labels"),
        (dict(labels=np.zeros((3, 1), dtype=int)), "labels"),
        (dict(labels=np.array([0.0, 1.0, -1.0])), "labels"),
        (dict(split=np.array(["labeled", "unlabeled"])), "split"),
        (dict(split=np.array(["labeled"] * 4)), "split"),
        (dict(split=np.array(["labeled", "unlabeled", "test"])), "split"),
    ],
    ids=["labels_short", "labels_long", "labels_2d", "labels_float", "split_short", "split_long", "split_tag"],
)
def test_graph_rejects_labels_or_split_of_another_shape(kw, match):
    with pytest.raises(ValueError, match=match):
        _graph(np.zeros((3, 3)), np.eye(3), **kw)


def test_graph_validation_errors():
    with pytest.raises(ValueError, match="symmetric"):
        _graph([[0, 1], [0, 0]], np.eye(2))
    with pytest.raises(ValueError, match="binary"):
        _graph([[0, 2], [2, 0]], np.eye(2))
    with pytest.raises(ValueError, match="binary"):
        _graph(np.zeros((2, 2)), [[0.5, 0], [0, 1]])
    with pytest.raises(ValueError, match="shape"):
        Graph(num_nodes=3, num_features=2, num_classes=2, adjacency=np.zeros((2, 2)), attributes=np.eye(2))
    with pytest.raises(ValueError, match="label"):
        _graph(np.zeros((2, 2)), np.eye(2), labels=np.array([0, 5]))
    csr = scipy.sparse.csr_array
    with pytest.raises(ValueError, match="symmetric"):
        Graph(num_nodes=2, num_features=2, num_classes=2, adjacency=csr([[0.0, 1.0], [0.0, 0.0]]), attributes=np.eye(2))
    with pytest.raises(ValueError, match="binary"):
        Graph(num_nodes=2, num_features=2, num_classes=2, adjacency=csr([[0.0, 2.0], [2.0, 0.0]]), attributes=np.eye(2))
    with pytest.raises(ValueError, match="shape"):
        Graph(num_nodes=3, num_features=2, num_classes=2, adjacency=csr(np.zeros((2, 2))), attributes=np.ones((3, 2)))


def test_slice_validation_errors(path):
    mp = build_message_passing(path)
    with pytest.raises(ValueError, match="out of range"):
        slice_problem(path, mp, 5, 3)
    with pytest.raises(ValueError, match="layer_count"):
        slice_problem(path, mp, 0, 1)


# -- the dense graph core this package used before the CSR one ------------
# Graphs of 64 nodes or more stored A_hat as CSR and densified it again
# before slicing; that round trip is exact, so it is left out here.


def _reference_build_message_passing(A):
    A_tilde = A.copy()
    np.fill_diagonal(A_tilde, 1.0)
    deg = A_tilde.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return inv_sqrt[:, None] * A_tilde * inv_sqrt[None, :]


def _reference_hop_sets(A, target, layer_count):
    reach = np.zeros(A.shape[0], dtype=bool)
    reach[target] = True
    sets = [np.array([target], dtype=int)]
    for _ in range(layer_count - 1):
        reach = reach | (A[reach].sum(axis=0) > 0)
        sets.append(np.flatnonzero(reach))
    return sets


def _reference_slice_problem(A, X, A_hat, target, layer_count):
    hop_sets = _reference_hop_sets(A, target, layer_count)
    sliced = []
    for l in range(1, layer_count):
        rows = hop_sets[layer_count - l - 1]
        cols = hop_sets[layer_count - l]
        sliced.append(A_hat[np.ix_(rows, cols)])
    return hop_sets, sliced, X[hop_sets[-1], :]


def _random_adjacency(rng, n):
    """Symmetric 0/1 matrix with some isolated nodes and, at random, ones on the diagonal."""
    A = np.triu((rng.random((n, n)) < rng.uniform(0.0, 6.0 / n)).astype(float), 1)
    A = A + A.T
    isolated = rng.random(n) < 0.1
    A[isolated, :] = A[:, isolated] = 0.0
    if rng.random() < 0.5:
        A[np.diag_indices(n)] = rng.random(n) < 0.5
    return A


def _with_stored_zeros(rng, A):
    """CSR of A that also stores explicit zeros at random non-edges."""
    extra = (rng.random(A.shape) < 0.05) & (A == 0)
    rows, cols = np.nonzero((A != 0) | extra)
    M = scipy.sparse.csr_array((A[rows, cols], (rows, cols)), shape=A.shape)
    assert M.nnz == rows.size
    return M


def test_slice_matches_dense_reference():
    rng = np.random.default_rng(5)
    sizes = [1, 2, 3, 4, 7, 12, 30, 63, 64, 65, 100, 150] + list(rng.integers(1, 151, size=12))
    stored_zeros = 0
    for n in sizes:
        n = int(n)
        A = _random_adjacency(rng, n)
        D = int(rng.integers(1, 6))
        X = (rng.random((n, D)) < 0.4).astype(float)
        adjacency = A
        if rng.random() < 0.5:
            adjacency = _with_stored_zeros(rng, A)
            stored_zeros += adjacency.nnz > np.count_nonzero(A)
        g = Graph(num_nodes=n, num_features=D, num_classes=2, adjacency=adjacency, attributes=X)
        mp = build_message_passing(g)
        A_hat = _reference_build_message_passing(A)
        assert np.array_equal(mp.toarray(), A_hat)
        targets = range(n) if n <= 20 else rng.choice(n, size=20, replace=False)
        for t in targets:
            for L in (2, 3, 4):
                got = slice_problem(g, mp, int(t), L)
                hop_sets, sliced, attrs = _reference_slice_problem(A, X, A_hat, int(t), L)
                assert len(got.hop_sets) == len(hop_sets)
                assert all(np.array_equal(a, b) for a, b in zip(got.hop_sets, hop_sets))
                assert len(got.sliced_mp) == len(sliced)
                assert all(np.array_equal(a, b) for a, b in zip(got.sliced_mp, sliced))
                assert np.array_equal(got.sliced_attrs, attrs)
    assert stored_zeros >= 3


def test_load_and_slice_hold_no_dense_adjacency(tmp_path):
    """One dense 4000 x 4000 float64 copy alone would be 128 MB."""
    N = 4000
    edges = tmp_path / "edges.tsv"
    edges.write_text("".join(f"{i}\t{i + 1}\n" for i in range(N - 1)), encoding="utf-8")
    attrs = tmp_path / "attrs.tsv"
    attrs.write_text("".join(f"{i}\t{i % 2}\n" for i in range(N)), encoding="utf-8")
    tracemalloc.start()
    try:
        graph = load_dataset(str(edges), str(attrs), num_classes=2).graph
        mp = build_message_passing(graph)
        sp = slice_problem(graph, mp, N // 2, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [list(s) for s in sp.hop_sets] == [[2000], [1999, 2000, 2001], [1998, 1999, 2000, 2001, 2002]]
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
