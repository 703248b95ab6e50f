import math
import tracemalloc

import numpy as np
import pytest

from gcn_cert import gcn
from gcn_cert.bounds import compute_bounds
from gcn_cert.gcn import GcnParams, cross_entropy, forward_sliced, glorot_params, load_checkpoint, predict, save_checkpoint
from gcn_cert.graph_core import build_message_passing, slice_problem

from conftest import lying_npy, single_node_problem, write_checkpoint_with_w0
from oracle import random_tiny_graph


def test_forward_zero_params_gives_zero_logits():
    sp = single_node_problem([1])
    params = GcnParams([np.zeros((1, 2)), np.zeros((2, 2))], [np.zeros(2), np.zeros(2)])
    assert np.array_equal(forward_sliced(sp, params).logits, [0.0, 0.0])


def test_forward_bias_only_net():
    sp = single_node_problem([1])
    b2 = np.array([0.3, -0.7])
    params = GcnParams([np.zeros((1, 2)), np.zeros((2, 2))], [np.array([1.0, -1.0]), b2])
    np.testing.assert_allclose(forward_sliced(sp, params).logits, b2)


def test_forward_hand_example():
    sp = single_node_problem([1])
    params = GcnParams(
        [np.array([[2.0]]), np.array([[1.0, -1.0]])],
        [np.array([-1.0]), np.zeros(2)],
    )
    np.testing.assert_allclose(forward_sliced(sp, params).logits, [1.0, -1.0])


def test_forward_is_pure(rng):
    graph, params, _ = random_tiny_graph(rng)
    mp = build_message_passing(graph)
    sp = slice_problem(graph, mp, 0, 3)
    a = forward_sliced(sp, params).logits
    b = forward_sliced(sp, params).logits
    assert np.array_equal(a, b)


def test_forward_rejects_bad_override_shape():
    sp = single_node_problem([1, 1])
    params = glorot_params([2, 2, 2])
    with pytest.raises(ValueError, match="attrs_override"):
        forward_sliced(sp, params, attrs_override=np.zeros((2, 2)))


def test_predict_values_and_ties():
    assert predict(np.array([3.0, 1.0])) == 0
    assert predict(np.array([0.0, 0.0])) == 0
    assert predict(np.array([-1.0, 2.0, 0.0])) == 1


def test_predict_shift_invariance(rng):
    for _ in range(50):
        logits = rng.normal(size=4)
        assert predict(logits) == predict(logits + 17.3)


def test_predict_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        predict(np.array([np.nan, 0.0]))


def test_cross_entropy_values():
    assert float(cross_entropy(np.array([0.0, 0.0]), 0)) == pytest.approx(math.log(2.0))
    assert float(cross_entropy(np.array([1000.0, 0.0]), 0)) < 1e-9
    assert float(cross_entropy(np.array([1.0, 2.0, 3.0]), 2)) == pytest.approx(0.407606, abs=1e-6)
    with pytest.raises(ValueError, match="label"):
        cross_entropy(np.array([0.0, 0.0]), 2)


def test_checkpoint_round_trip_is_exact(tmp_path, rng):
    params = glorot_params([5, 4, 3], seed=7)
    for b in params.biases:
        b += rng.normal(size=b.shape)
    path = tmp_path / "model.npz"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)


def test_checkpoint_round_trip_keeps_every_bit_of_signed_zeros_subnormals_and_extremes(tmp_path):
    tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    special = [0.0, -0.0, 5e-324, -5e-324, tiny - 5e-324, tiny, -tiny, big, -big, np.nextafter(1.0, 2.0), 1 / 3, -1e300]
    params = GcnParams([np.array(special).reshape(3, 4), np.array(special[:8]).reshape(4, 2)], [np.zeros(4), -np.zeros(2)])
    save_checkpoint(params, tmp_path / "model.npz")
    loaded = load_checkpoint(tmp_path / "model.npz")
    for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name", ["model.json", "model"])
def test_save_checkpoint_writes_exactly_the_path_it_is_given(tmp_path, name):
    save_checkpoint(glorot_params([2, 3, 2], seed=0), tmp_path / name)
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
    assert load_checkpoint(tmp_path / name).dims == [2, 3, 2]


def test_load_checkpoint_raises_only_value_error_on_a_truncated_or_corrupted_file(tmp_path):
    """Every prefix of a checkpoint, and every one-byte corruption of it, loads or raises ValueError."""
    path = tmp_path / "model.npz"
    save_checkpoint(glorot_params([2, 3, 2], seed=0), path)
    good = path.read_bytes()
    variants = [good[:i] for i in range(len(good))]
    variants += [good[:i] + bytes([good[i] ^ flip]) + good[i + 1 :] for i in range(len(good)) for flip in (0x01, 0xFF)]
    rejected = 0
    for data in variants:
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except ValueError:
            rejected += 1
    assert rejected >= len(good)  # at least every strict prefix


def test_load_checkpoint_rejects_a_header_that_lies_about_its_size_without_allocating_it(tmp_path):
    """A w0.npy member that claims 240 MB of data and stores 32 bytes is refused from its header alone."""
    params = glorot_params([3, 4, 2], seed=0)
    arrays = {f"w{l}": w for l, w in enumerate(params.weights)} | {f"b{l}": b for l, b in enumerate(params.biases)}
    path = write_checkpoint_with_w0(tmp_path / "lie.npz", arrays, lying_npy(10**7))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"w0\.npy: its \.npy header claims 240000128 bytes, not 160"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24  # far below the 240 MB that the header claims


def test_params_validation():
    with pytest.raises(ValueError):
        GcnParams([np.zeros((2, 3))], [np.zeros(2)]).validate()
    with pytest.raises(ValueError):
        GcnParams([np.zeros((2, 3)), np.zeros((4, 2))], [np.zeros(3), np.zeros(2)]).validate()
    with pytest.raises(ValueError, match="non-finite"):
        GcnParams([np.full((1, 1), np.nan)], [np.zeros(1)]).validate()
    assert glorot_params([3, 2, 2]).dims == [3, 2, 2]
    assert glorot_params([3, 2, 2]).layer_count == 3


def test_dropout_zeroes_activations():
    sp = single_node_problem([1])
    params = GcnParams(
        [np.array([[2.0]]), np.array([[1.0, -1.0]])],
        [np.array([1.0]), np.zeros(2)],
    )
    clean = forward_sliced(sp, params).logits
    dropped = forward_sliced(sp, params, dropout_rate=0.9999, dropout_rng=np.random.default_rng(0)).logits
    assert not np.allclose(clean, dropped)
    assert np.allclose(dropped, 0.0)


def test_dropout_needs_a_generator():
    sp = single_node_problem([1])
    params = glorot_params([1, 2, 2], seed=0)
    with pytest.raises(ValueError, match="dropout_rng"):
        forward_sliced(sp, params, dropout_rate=0.5)
    assert np.array_equal(forward_sliced(sp, params, dropout_rate=0.0).logits, forward_sliced(sp, params).logits)


def test_forward_sliced_rejects_weights_that_do_not_chain(rng):
    """A first-layer weight whose input width is not the graph's D is a ValueError naming both shapes."""
    graph, params, _ = random_tiny_graph(rng)
    sp = slice_problem(graph, build_message_passing(graph), 0, params.layer_count)
    D = graph.num_features
    wide = GcnParams([np.zeros((D + 1, params.dims[1])), *params.weights[1:]], params.biases)
    with pytest.raises(ValueError, match=rf"layer 1: weight shape \({D + 1}, \d+\) does not chain with activation "
                                         rf"shape \(\d+, {D}\)"):
        forward_sliced(sp, wide)


def test_a_slice_and_its_parameters_must_agree_on_depth():
    """An L = 3 slice under an L = 4 model is a ValueError in the sliced forward and in the bounds, not 5 logits."""
    graph, _, budget = random_tiny_graph(np.random.default_rng(0), all_labeled=True)
    sp = slice_problem(graph, build_message_passing(graph), 0, 3)
    params = glorot_params([graph.num_features, 4, 5, graph.num_classes], seed=0)
    assert sp.layer_count == len(sp.sliced_mp) + 1 == 3
    with pytest.raises(ValueError, match="params of depth L=4 on a slice of depth L=3"):
        forward_sliced(sp, params)
    with pytest.raises(ValueError, match="params of depth L=4 on a slice of depth L=3"):
        compute_bounds(sp, params, budget)
