import numpy as np
import pytest

from gcn_cert import dual_cert, gcn, grad
from gcn_cert.bounds import compute_bounds
from gcn_cert.gcn import GcnParams
from gcn_cert.grad import Var, backward, gradient

from oracle import finite_difference_check, random_tiny_instance


def _scalar_fd(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi.flat[i] += eps
        lo.flat[i] -= eps
        g.flat[i] = (fn(hi) - fn(lo)) / (2.0 * eps)
    return g


def test_primitives_match_numpy_on_plain_arrays(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    np.testing.assert_array_equal(grad.matmul(a, b), a @ b)
    np.testing.assert_array_equal(grad.transpose(a), a.T)
    np.testing.assert_array_equal(grad.relu(a), np.maximum(a, 0.0))
    np.testing.assert_array_equal(grad.pos(a), np.maximum(a, 0.0))
    np.testing.assert_array_equal(grad.negpart(a), np.maximum(-a, 0.0))
    np.testing.assert_array_equal(grad.asum(a, axis=1), a.sum(axis=1))
    np.testing.assert_array_equal(grad.asum(a), a.sum())
    np.testing.assert_array_equal(grad.gather(a, [0, 5]), a.ravel()[[0, 5]])
    np.testing.assert_array_equal(grad.expand_dims(a, 0), a[None])
    np.testing.assert_allclose(grad.exp(a), np.exp(a))


def test_identity_pos_minus_negpart(rng):
    a = rng.normal(size=(5, 5))
    np.testing.assert_allclose(grad.pos(a) - grad.negpart(a), a)


def test_composite_gradient_matches_finite_differences(rng):
    W = rng.normal(size=(3, 3))
    A = rng.normal(size=(2, 3))
    c = rng.normal(size=3)

    def fn(w):
        return float(np.maximum(A @ w, 0.0).sum() + np.exp(0.1 * w).sum() + (w @ c) @ c)

    v = Var(W)
    loss = grad.asum(grad.relu(grad.matmul(A, v))) + grad.asum(grad.exp(0.1 * v)) + grad.asum(
        grad.matmul(grad.matmul(v, c.reshape(3, 1)).T, c.reshape(3, 1))
    )
    backward(loss)
    np.testing.assert_allclose(v.grad, _scalar_fd(fn, W), atol=1e-6)


def test_relu_subgradient_zero_at_kink():
    v = Var(np.array([0.0, -1.0, 2.0]))
    loss = grad.asum(grad.relu(v))
    backward(loss)
    np.testing.assert_array_equal(v.grad, [0.0, 0.0, 1.0])


def test_log_softmax_entry_gradient(rng):
    z = rng.normal(size=4)

    def fn(x):
        s = x - x.max()
        return float(s[2] - np.log(np.exp(s).sum()))

    v = Var(z)
    backward(grad.log_softmax_entry(v, 2))
    np.testing.assert_allclose(v.grad, _scalar_fd(fn, z), atol=1e-6)


def test_gather_accumulates_duplicate_indices():
    v = Var(np.arange(4.0))
    loss = grad.asum(grad.gather(v, [1, 1, 3]))
    backward(loss)
    np.testing.assert_array_equal(v.grad, [0.0, 2.0, 0.0, 1.0])


def test_broadcasting_gradients(rng):
    a = rng.normal(size=(3, 1))
    b = rng.normal(size=(1, 4))
    va, vb = Var(a), Var(b)
    backward(grad.asum(va * vb))
    np.testing.assert_allclose(va.grad, np.broadcast_to(b, (3, 4)).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(vb.grad, np.broadcast_to(a, (3, 4)).sum(axis=0, keepdims=True))


def test_gradient_of_a_loss_that_touches_no_parameter_is_zero():
    params = GcnParams([np.ones((2, 3)), np.ones((3, 2))], [np.zeros(3), np.zeros(2)])
    value, g = gradient(lambda p: 2.5, params)
    assert value == 2.5
    assert all(np.array_equal(x, np.zeros_like(x)) for x in g.weights + g.biases)


def test_backward_leaves_gradients_on_leaf_vars_only(rng):
    """An intermediate Var, the loss included, keeps no .grad; a leaf gets its closed form, and a second pass adds."""
    a = rng.normal(size=(3, 1))
    b = rng.normal(size=(1, 4))
    va, vb = Var(a), Var(b)
    product = va * vb
    hidden = grad.relu(product)
    loss = grad.asum(hidden)
    backward(loss)
    assert product.grad is None and hidden.grad is None and loss.grad is None
    on = a * b > 0
    np.testing.assert_allclose(va.grad, (b * on).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(vb.grad, (a * on).sum(axis=0, keepdims=True))
    backward(loss)
    assert product.grad is None and hidden.grad is None and loss.grad is None
    np.testing.assert_allclose(va.grad, 2 * (b * on).sum(axis=1, keepdims=True))


@pytest.mark.parametrize(
    "op, var_a, var_b",
    [(op, var_a, var_b) for op in ("add", "mul", "div", "matmul")
     for var_a, var_b in ((True, True), (True, False), (False, True)) if var_a or op != "div"],  # only a Var divides
)
def test_binary_ops_record_each_var_operand_with_its_vjp(rng, op, var_a, var_b):
    """A binary op's parents are its Var operands, in operand order, each with the closed-form VJP (bitwise);
    an array operand is no parent."""
    a = rng.normal(size=(3, 4))
    b = rng.uniform(1.0, 2.0, size=(4, 4) if op == "matmul" else (1, 4))
    g = rng.normal(size=(3, 4))
    fn, vjp_a, vjp_b = {
        "add": (lambda x, y: x + y, lambda: g, lambda: g.sum(axis=0, keepdims=True)),
        "mul": (lambda x, y: x * y, lambda: g * b, lambda: (g * a).sum(axis=0, keepdims=True)),
        "div": (lambda x, y: x / y, lambda: g / b, lambda: (-g * a / (b * b)).sum(axis=0, keepdims=True)),
        "matmul": (grad.matmul, lambda: g @ b.T, lambda: a.T @ g),
    }[op]
    x, y = Var(a) if var_a else a, Var(b) if var_b else b
    out = fn(x, y)
    expected = [(v, vjp()) for v, vjp, is_var in ((x, vjp_a, var_a), (y, vjp_b, var_b)) if is_var]
    assert [p for p, _ in out._parents] == [v for v, _ in expected]
    for (_, vjp), (_, want) in zip(out._parents, expected):
        np.testing.assert_array_equal(vjp(g), want)


def test_loss_and_gradient_are_bit_identical_on_rerun(rng):
    """One robust loss through bounds and the class-batched dual, and its gradient, computed twice."""
    sp, params, budget = random_tiny_instance(rng)

    def ce(shadow):
        return -grad.log_softmax_entry(gcn.forward_sliced(sp, shadow).logits, 0)

    def loss(shadow):
        p = dual_cert.margin_vector(sp, shadow, compute_bounds(sp, shadow, budget), budget, 0)
        return grad.asum(p * p) + ce(shadow)

    first_value, first = gradient(loss, params)
    second_value, second = gradient(loss, params)
    assert first_value == second_value
    for a, b in zip(first.weights + first.biases, second.weights + second.biases):
        np.testing.assert_array_equal(a, b)
    assert any(np.any(a != 0) for a in first.weights)
    # the dual carries gradient: the loss is not CE alone
    _, ce_only = gradient(ce, params)
    assert any(np.any(a != b) for a, b in zip(first.weights, ce_only.weights))


def test_backward_errors():
    with pytest.raises(TypeError):
        backward(np.float64(3.0))
    with pytest.raises(ValueError, match="scalar"):
        backward(Var(np.zeros(3)))
    with pytest.raises(FloatingPointError):
        backward(Var(np.nan) * 1.0)


def test_gradient_of_parameter_free_loss_is_zero():
    params = GcnParams([np.ones((2, 2))], [np.zeros(2)])
    value, grads = gradient(lambda shadow: np.float64(7.0), params)
    assert value == 7.0
    assert np.all(grads.weights[0] == 0.0)
    assert np.all(grads.biases[0] == 0.0)


def test_gradient_returns_params_structure(rng):
    params = GcnParams([rng.normal(size=(2, 3)), rng.normal(size=(3, 2))], [rng.normal(size=3), rng.normal(size=2)])

    def closure(shadow):
        loss = 0.0
        for w in shadow.weights:
            loss = loss + grad.asum(w * w)
        for b in shadow.biases:
            loss = loss + grad.asum(grad.relu(b))
        return loss

    value, grads = gradient(closure, params)
    for w, gw in zip(params.weights, grads.weights):
        np.testing.assert_allclose(gw, 2.0 * w)
    for b, gb in zip(params.biases, grads.biases):
        np.testing.assert_allclose(gb, (b > 0).astype(float))


def test_finite_difference_check_on_smooth_loss(rng):
    params = GcnParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])

    def closure(shadow):
        return grad.asum(grad.exp(0.1 * shadow.weights[0])) + grad.asum(shadow.biases[0] * shadow.biases[0])

    assert finite_difference_check(closure, params, rng=rng, num_coords=8) < 1e-7


def test_linear_chain_gradient_closed_form(rng):
    # c^T (A2 relu(A1 X W1 + b1) W2 + b2) with all pre-activations positive:
    # the W1 gradient is the exact linear-chain product
    A1 = np.abs(rng.normal(size=(2, 3)))
    A2 = np.abs(rng.normal(size=(1, 2)))
    X = np.abs(rng.normal(size=(3, 4)))
    W1 = np.abs(rng.normal(size=(4, 3))) + 0.1
    W2 = rng.normal(size=(3, 2))
    c = rng.normal(size=2)
    params = GcnParams([W1, W2], [np.zeros(3), np.zeros(2)])

    def closure(shadow):
        H = grad.relu(grad.matmul(grad.matmul(A1, X), shadow.weights[0]) + shadow.biases[0])
        out = grad.matmul(grad.matmul(A2, H), shadow.weights[1]) + shadow.biases[1]
        return grad.asum(out * c)

    _, grads = gradient(closure, params)
    expected = (A1 @ X).T @ (A2.T @ (c[None, :] @ W2.T))
    np.testing.assert_allclose(grads.weights[0], expected, atol=1e-10)
