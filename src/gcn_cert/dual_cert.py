"""Dual lower bounds on the worst-case class margin, and certificates.

The dual objective g is evaluated by a backward pass through the sliced
GCN (dual tensors Phi / Phi_hat), followed by a closed-form choice of the
budget duals (eta, rho).  Any feasible (Omega, eta, rho) makes g a valid
lower bound on the exact worst-case margin, so a positive value for every
competing class certifies robustness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grad
from .bounds import ActivationBounds, Budget, _key, compute_bounds
from .gcn import GcnParams
from .graph_core import SlicedProblem

__all__ = [
    "DualState",
    "MarginVector",
    "Certificate",
    "default_omega",
    "backward_phi",
    "closed_form_eta_rho",
    "evaluate_dual",
    "dual_state",
    "dual_states",
    "optimize_omega",
    "margin_vector",
    "certify",
    "class_vector",
    "competing_classes",
]

ROBUST = "robust"
NON_ROBUST = "non_robust"
UNDECIDED = "undecided"

# projected-gradient-ascent defaults for Omega
PGA_STEPS = 200
PGA_STEP_SIZE = 0.05
PGA_STEP_SHRINK = 0.5
PGA_MIN_STEP = 1e-12


@dataclass
class DualState:
    """One dual evaluation for a (target node, class pair); value may be a 0-d grad.Var."""

    omega: dict
    eta: np.ndarray
    rho: float
    phi: dict
    phi_hat: dict
    delta: np.ndarray
    psi: np.ndarray
    value: float
    s_q: list
    c: np.ndarray


@dataclass
class MarginVector:
    """Negated dual bounds per class; entry y is exactly zero."""

    entries: np.ndarray
    y: int


@dataclass
class Certificate:
    node: int
    budget: Budget
    y_star: int
    dual_lower: np.ndarray
    primal_margins: np.ndarray | None
    status: str


def class_vector(y_star: int, y: int, num_classes: int) -> np.ndarray:
    c = np.zeros(num_classes)
    c[y_star] += 1.0
    c[y] -= 1.0
    return c


def default_omega(bounds: ActivationBounds) -> dict:
    """Omega = S / (S - R) on crossing entries, zero elsewhere.

    Grad-aware: when the bounds carry Vars (robust training), the default
    Omega is itself a function of the parameters and gradients flow
    through it.
    """
    return {l: _envelope_slope(bounds, l)[0] for l in bounds.layers()}


def _envelope_slope(bounds: ActivationBounds, layer: int):
    """S/(S-R) on crossing entries (safe elsewhere), as a grad-aware pair."""
    R, S = bounds.lower[layer], bounds.upper[layer]
    cross = bounds.crossing_mask(layer)
    denom = (S - R) * cross + (1.0 - cross)
    return (S * cross) / denom, denom, cross


def backward_phi(sp: SlicedProblem, params: GcnParams, bounds: ActivationBounds, omega: dict, c):
    """Dual backward pass; returns (phi, phi_hat, delta) keyed by layer.

    c is a class vector (K,) or a stack C (B, K), which gives every tensor a batch axis.
    """
    L = sp.layer_count
    c = np.asarray(c, dtype=np.float64)
    phi = {L: -c[..., None, :]}
    phi_hat = {}
    for l in range(L - 1, 0, -1):
        A_dot = sp.sliced_mp[l - 1]
        W = params.weights[l - 1]
        phi_hat[l] = grad.matmul(grad.matmul(A_dot.T, phi[l + 1]), grad.transpose(W))
        if l >= 2:
            slope, _, cross = _envelope_slope(bounds, l)
            nonneg = bounds.nonneg_mask(l)
            crossing_part = slope * grad.pos(phi_hat[l]) - omega[l] * cross * grad.negpart(phi_hat[l])
            phi[l] = nonneg * phi_hat[l] + cross * crossing_part
    # flipping X[n, d] gains [phi_hat]_+ where X = 0 and [phi_hat]_- where X = 1
    delta = grad.relu(phi_hat[1] * (1.0 - 2.0 * sp.sliced_attrs))
    return phi, phi_hat, delta


def closed_form_eta_rho(delta, budget: Budget):
    """Optimal (eta, rho) for fixed Omega, plus the selected index sets.

    delta is (n, D) or a stack (B, n, D), which gives eta and rho a batch
    axis and s_q one list per row.  Returns (eta, rho, s_q, info): s_q lists
    the (node, feature) pairs of the Q largest budget-feasible delta entries,
    in descending order; info holds the flat indices into delta that rebuild
    eta/rho differentiably.  Ties go to the smaller feature within a row, then
    to the smaller id n*D + d.  Partitions on complex keys pick each row's top
    q, then the top Q of those; only the Q picks are sorted.
    """
    delta_v = grad.val(delta)
    n, D = delta_v.shape[-2:]
    d3 = delta_v.reshape(-1, n, D)
    B = d3.shape[0]
    q = budget.effective_q(D)
    Q = budget.effective_Q(n, D)
    if q == 0 or Q == 0:
        eta, rho, s_q, o_idx, rho_idx = np.zeros((B, n)), np.zeros(B), [[] for _ in range(B)], None, None
    else:
        # keys of each row's top q, unordered; the largest is the q-th pick o
        top_q = np.partition(_key(d3, np.arange(D)), q - 1, axis=2)[..., :q]
        o = top_q.max(axis=2)
        # the top Q of the n*q candidates, in order, with ids n*D + d across rows
        cand = (top_q + 1j * D * np.arange(n)[:, None]).reshape(B, n * q)
        top = np.sort(np.partition(cand, Q - 1, axis=1)[:, :Q], axis=1)
        ids = top.imag.astype(np.intp)
        base = np.arange(B) * (n * D)
        o_idx = base[:, None] + np.arange(0, n * D, D) + o.imag.astype(np.intp)
        rho_idx = base + ids[:, -1]
        rho = d3.ravel()[rho_idx]
        eta = np.maximum(0.0, -o.real - rho[:, None])
        s_q = [[divmod(i, D) for i in row] for row in ids.tolist()]
    info = {"o_idx": o_idx, "rho_idx": rho_idx, "q": q, "Q": Q}
    if delta_v.ndim == 2:
        eta, rho, s_q = eta[0], float(rho[0]), s_q[0]
        if o_idx is not None:
            info.update(o_idx=o_idx[0], rho_idx=int(rho_idx[0]))
    return eta, rho, s_q, info


def evaluate_dual(sp, params, bounds, eta, rho, phi, phi_hat, delta, budget):
    """Dual objective g for (eta, rho) and the tensors of `backward_phi`; grad-aware.

    A stack C (B, K) gives g a leading batch axis, as it gives eta and rho.
    `budget` weighs the penalty terms; they vanish with an empty budget.
    """
    L = sp.layer_count
    X = sp.sliced_attrs
    n, D = X.shape
    q, Q = budget.effective_q(D), budget.effective_Q(n, D)

    g = 0.0
    for l in bounds.layers():
        R, S = bounds.lower[l], bounds.upper[l]
        _, denom, cross = _envelope_slope(bounds, l)
        coef = (S * R * cross) / denom
        g = g + grad.asum(coef * grad.pos(phi_hat[l]), axis=(-2, -1))
    for l in range(1, L):
        g = g - grad.asum(phi[l + 1] * params.biases[l - 1], axis=(-2, -1))
    g = g - grad.asum(X * phi_hat[1], axis=(-2, -1))

    if q > 0 and Q > 0:
        rho_col = grad.expand_dims(grad.expand_dims(rho, -1), -1)
        psi = grad.relu(delta - grad.expand_dims(eta, -1) - rho_col)
        g = g - grad.asum(psi, axis=(-2, -1))
        g = g - q * grad.asum(eta, axis=-1) - Q * rho
    else:
        psi = np.zeros_like(grad.val(delta))
    return g, psi


def dual_states(sp, params, bounds, budget, C, omega=None) -> list:
    """One DualState per row of the class matrix C (B, K), from one batched pass.

    Closed-form (eta, rho).  When params, bounds or omega carry grad.Vars, eta and rho
    are gathered from delta at the frozen selection and each value is a 0-d grad.Var.
    """
    if omega is None:
        omega = default_omega(bounds)
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    # one class runs unbatched: 2-D arithmetic is cheaper on small slices
    one = len(C) == 1
    phi, phi_hat, delta = backward_phi(sp, params, bounds, omega, C[0] if one else C)
    eta, rho, s_q, info = closed_form_eta_rho(delta, budget)
    if grad.is_var(delta) and info["o_idx"] is not None:
        rho = grad.gather(delta, info["rho_idx"])
        o = grad.gather(delta, info["o_idx"])
        eta = (o - grad.expand_dims(rho, -1)) * (grad.val(o) > grad.val(rho)[..., None])
    g, psi = evaluate_dual(sp, params, bounds, eta, rho, phi, phi_hat, delta, budget)

    om = {l: grad.val(w).copy() for l, w in omega.items()}
    phi = {l: grad.val(p) for l, p in phi.items()}
    phi_hat = {l: grad.val(p) for l, p in phi_hat.items()}
    eta, rho, delta, psi = grad.val(eta), grad.val(rho), grad.val(delta), grad.val(psi)
    # row b of each batched array; the index () keeps an unbatched one whole
    if one:
        rows, s_q, values = [()], [s_q], [g if grad.is_var(g) else float(grad.val(g))]
    else:
        rows = range(len(C))
        values = [grad.gather(g, b) for b in rows] if grad.is_var(g) else grad.val(g).tolist()
    return [
        DualState(
            omega=om,
            eta=eta[b],
            rho=float(rho[b]),
            phi={l: p[b] for l, p in phi.items()},
            phi_hat={l: p[b] for l, p in phi_hat.items()},
            delta=delta[b],
            psi=psi[b],
            value=value,
            s_q=s_q_b,
            c=c,
        )
        for b, value, s_q_b, c in zip(rows, values, s_q, C)
    ]


def dual_state(sp, params, bounds, budget, c, omega=None) -> DualState:
    """Full dual evaluation for one class vector c; numeric output."""
    return dual_states(sp, params, bounds, budget, c, omega)[0]


def dual_value_differentiable(sp, params, bounds, budget, c, omega):
    """g for one class vector c, as a grad.Var when params, bounds or omega carry Vars."""
    return dual_states(sp, params, bounds, budget, c, omega)[0].value


def optimize_omega(sp, params, bounds, budget, c, steps=PGA_STEPS, step_size=PGA_STEP_SIZE) -> DualState:
    """Monotone projected gradient ascent on Omega.

    Each step moves from the best iterate so far with closed-form (eta,
    rho); the step size is halved whenever the move does not improve g
    (backtracking), so the result converges to a local maximum and never
    degrades the default-Omega start.
    """
    best_om = {l: grad.val(om).copy() for l, om in default_omega(bounds).items()}
    best = dual_state(sp, params, bounds, budget, c, omega=best_om)
    lr = step_size
    for _ in range(steps):
        om_vars = {l: grad.Var(best_om[l]) for l in best_om}
        g = dual_value_differentiable(sp, params, bounds, budget, c, om_vars)
        if not grad.is_var(g):
            break  # no crossing entries: g does not depend on Omega
        grad.backward(g)
        cand_om = {}
        moved = False
        for l in best_om:
            dg = om_vars[l].grad
            if dg is None:
                cand_om[l] = best_om[l]
                continue
            cross = bounds.crossing_mask(l)
            cand_om[l] = np.clip(best_om[l] + lr * dg * cross, 0.0, 1.0)
            moved = True
        if not moved:
            break
        cand = dual_state(sp, params, bounds, budget, c, omega=cand_om)
        if cand.value > best.value + 1e-15:
            best, best_om = cand, cand_om
        else:
            lr *= PGA_STEP_SHRINK
            if lr < PGA_MIN_STEP:
                break
    return best


def competing_classes(y: int, num_classes: int):
    """(others, C): the classes k != y, ascending, and the rows e_y - e_k."""
    others = np.array([k for k in range(num_classes) if k != y], dtype=np.intp)
    C = np.zeros((others.size, num_classes))
    C[:, y], C[np.arange(others.size), others] = 1.0, -1.0
    return others, C


def _competing_states(sp, params, bounds, budget, y, mode):
    """(others, one DualState per competing class k, for c = e_y - e_k)."""
    K = grad.val(params.weights[-1]).shape[1]
    if not (0 <= y < K):
        raise ValueError(f"class {y} out of range [0, {K})")
    others, C = competing_classes(y, K)
    if mode == "optimized":
        return others, [optimize_omega(sp, params, bounds, budget, c) for c in C]
    return others, dual_states(sp, params, bounds, budget, C)


def margin_vector(sp, params, bounds, budget, y, mode="default") -> MarginVector:
    """p_k = -g(c^k) with c^k = e_y - e_k; p_y = 0 exactly."""
    others, states = _competing_states(sp, params, bounds, budget, y, mode)
    entries = np.zeros(len(others) + 1)
    entries[others] = [-st.value for st in states]
    return MarginVector(entries=entries, y=y)


def certify(sp, params, budget, y_star, mode="default") -> Certificate:
    """Robust / non-robust / undecided status for one target node.

    Robust means every competing dual bound g(e_y* - e_k) is strictly
    positive, with no round-off tolerance: g is a valid lower bound on the
    worst-case margin, and a tolerance would certify nodes whose bound is
    <= 0.  Otherwise each class's dual solution yields a flip set; the node
    is non-robust if one of them flips the exact network, else undecided.
    """
    from . import primal_attack

    bnds = compute_bounds(sp, params, budget)
    others, states = _competing_states(sp, params, bnds, budget, y_star, mode)
    dual_lower = np.zeros(len(others) + 1)
    dual_lower[others] = [st.value for st in states]
    if others.size == 0 or dual_lower[others].min() > 0:
        return Certificate(sp.target, budget, y_star, dual_lower, None, ROBUST)
    primal = np.zeros(dual_lower.size)
    for k, st in zip(others, states):
        primal[k] = primal_attack.construct_and_evaluate(sp, params, st, budget, y_star, k)
    status = NON_ROBUST if primal[others].min() < 0 else UNDECIDED
    return Certificate(sp.target, budget, y_star, dual_lower, primal, status)
