"""Dual lower bounds on the worst-case class margin, and certificates.

The dual objective g is evaluated by a backward pass through the sliced
GCN (dual tensors Phi / Phi_hat), followed by a closed-form choice of the
budget duals (eta, rho).  Any feasible (Omega, eta, rho) makes g a valid
lower bound on the exact worst-case margin, so a positive value for every
competing class certifies robustness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import grad, primal_attack
from .bounds import ActivationBounds, Budget, compute_bounds, top_k
from .gcn import GcnParams
from .graph_core import SlicedProblem

__all__ = [
    "DualState",
    "Certificate",
    "backward_phi",
    "closed_form_eta_rho",
    "evaluate_dual",
    "dual_state",
    "dual_states",
    "optimize_omega",
    "margin_vector",
    "duals",
    "certify",
    "status_curve",
    "class_vector",
    "competing_classes",
]

ROBUST = "robust"
NON_ROBUST = "non_robust"
UNDECIDED = "undecided"
MODES = ("default", "optimized")  # the default Omega, or Omega-PGA from it

# projected-gradient-ascent defaults for Omega
PGA_STEPS = 200
PGA_STEP_SIZE = 0.05
PGA_STEP_SHRINK = 0.5
PGA_MIN_STEP = 1e-12


@dataclass
class DualState:
    """One numeric dual evaluation for a (target node, class pair): Omega, g and the flips, its picks with delta > 0."""

    omega: dict
    value: float
    flips: list


@dataclass
class Certificate:
    """A node's status at a budget, with its evidence: the dual bound and primal margin of each class (0 at y_star).

    `flips` are the global (node, feature) pairs of the competing class with the smallest primal margin, the first
    such class; `primal_margins` and `flips` are None for a robust node.
    """

    node: int
    budget: Budget
    y_star: int
    dual_lower: np.ndarray
    primal_margins: np.ndarray | None
    status: str
    flips: list | None


def class_vector(y_star: int, y: int, num_classes: int) -> np.ndarray:
    c = np.zeros(num_classes)
    c[y_star] += 1.0
    c[y] -= 1.0
    return c


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
            cross = bounds.cross[l]
            crossing_part = bounds.slope[l] * grad.pos(phi_hat[l]) - omega[l] * cross * grad.negpart(phi_hat[l])
            phi[l] = bounds.nonneg[l] * phi_hat[l] + cross * crossing_part
    # flipping X[n, d] gains [phi_hat]_+ where X = 0 and [phi_hat]_- where X = 1
    delta = grad.relu(phi_hat[1] * (1.0 - 2.0 * sp.sliced_attrs))
    return phi, phi_hat, delta


def closed_form_eta_rho(delta, budget: Budget):
    """Optimal (eta, rho) for fixed Omega, plus the selected index sets; grad-aware.

    delta is a stack (B, n, D); eta is (B, n) and rho (B,).  Returns (eta,
    rho, picks, info): picks (B, Q) holds the ids n*D + d of the Q largest
    budget-feasible delta entries of each row, in descending order (those
    with delta > 0 are a DualState's flips, `_state`); info holds the flat
    indices into delta of each node row's top q picks (B, n, q) in
    descending order, of its q-th pick o (the last of them) and of rho.
    eta and rho are gathered from delta at those frozen indices, so they
    carry the tape when delta does.  Ties go to the smaller feature within a
    row, then to the smaller id n*D + d: `bounds.top_k` picks each row's top
    q, then the top Q of those.
    """
    B, n, D = grad.val(delta).shape
    q = budget.effective_q(D)
    Q = budget.effective_Q(n, D)
    if q == 0 or Q == 0:
        info = {"top_q_idx": None, "o_idx": None, "rho_idx": None}
        return np.zeros((B, n)), np.zeros(B), np.zeros((B, 0), dtype=np.intp), info
    # each row's top q; the last is the q-th pick o
    top_q, feat = top_k(grad.val(delta), np.arange(D), q)
    # the top Q of the n*q candidates, with ids n*D + d across rows
    flat = feat + np.arange(0, n * D, D)[:, None]
    _, ids = top_k(top_q.reshape(B, n * q), flat.reshape(B, n * q), Q)
    base = np.arange(B) * (n * D)
    top_q_idx = base[:, None, None] + flat
    o_idx = top_q_idx[..., -1]
    rho_idx = base + ids[:, -1]
    rho = grad.gather(delta, rho_idx)
    o = grad.gather(delta, o_idx)
    eta = (o - grad.expand_dims(rho, -1)) * (grad.val(o) > grad.val(rho)[:, None])
    return eta, rho, ids, {"top_q_idx": top_q_idx, "o_idx": o_idx, "rho_idx": rho_idx}


def evaluate_dual(sp, params, bounds, eta, rho, phi, phi_hat, delta, budget, top_q_idx=None):
    """Dual objective g for (eta, rho) and the tensors of `backward_phi`; grad-aware.

    g has the leading batch axis of the stack C (B, K), as eta and rho do.
    `budget` weighs the penalty terms; they vanish with an empty budget.
    With the top-q pick indices of `closed_form_eta_rho` and a numeric
    delta, psi = [delta - eta - rho]_+ is computed at the picks only
    (`_psi_at_picks`), bitwise equal to the dense formula that the tape
    keeps.
    """
    L = sp.layer_count
    X = sp.sliced_attrs
    n, D = X.shape
    q, Q = budget.effective_q(D), budget.effective_Q(n, D)

    g = 0.0
    for l in bounds.layers():
        g = g + grad.asum(bounds.offset[l] * grad.pos(phi_hat[l]), axis=(-2, -1))
    for l in range(1, L):
        g = g - grad.asum(phi[l + 1] * params.biases[l - 1], axis=(-2, -1))
    g = g - grad.asum(X * phi_hat[1], axis=(-2, -1))

    if q > 0 and Q > 0:
        if top_q_idx is None or grad.is_var(delta):
            rho_col = grad.expand_dims(grad.expand_dims(rho, -1), -1)
            psi = grad.relu(delta - grad.expand_dims(eta, -1) - rho_col)
        else:
            psi = _psi_at_picks(delta, eta, rho, top_q_idx)
        g = g - grad.asum(psi, axis=(-2, -1))
        g = g - q * grad.asum(eta, axis=-1) - Q * rho
    else:
        psi = np.zeros_like(grad.val(delta))
    return g, psi


def _psi_at_picks(delta, eta, rho, top_q_idx):
    """psi = [(delta - eta) - rho]_+ for a numeric stack delta (B, n, D), from each node row's top q picks.

    Rounding is monotone and every other entry of a row is <= its q-th pick
    o, so its psi is <= psi at o.  With o > rho, eta = o - rho rounded, and
    psi at o is 0 unless eta + rho rounded below o; only such round-off
    rows are computed over all D entries.  Every entry gets the arithmetic
    of the dense formula, so psi is bitwise equal to it.
    """
    psi = np.zeros(delta.shape)
    at = np.maximum((delta.reshape(-1)[top_q_idx] - eta[..., None]) - rho[:, None, None], 0.0)
    psi.reshape(-1)[top_q_idx] = at
    whole = at[..., -1] > 0
    if whole.any():
        psi[whole] = np.maximum((delta[whole] - eta[whole][:, None]) - rho[np.nonzero(whole)[0], None], 0.0)
    return psi


class _Pass(NamedTuple):
    """The tensors of one dual evaluation; batched ones carry a leading row axis."""

    phi: dict
    phi_hat: dict
    delta: object
    eta: object
    rho: object
    psi: object
    g: object
    picks: np.ndarray
    info: dict


def _dual_pass(sp, params, bounds, budget, C, omega) -> _Pass:
    """`backward_phi`, closed-form (eta, rho) and `evaluate_dual` for a stack C (B, K); grad-aware."""
    phi, phi_hat, delta = backward_phi(sp, params, bounds, omega, C)
    eta, rho, picks, info = closed_form_eta_rho(delta, budget)
    g, psi = evaluate_dual(sp, params, bounds, eta, rho, phi, phi_hat, delta, budget, info["top_q_idx"])
    return _Pass(phi, phi_hat, delta, eta, rho, psi, g, picks, info)


def _state(p: _Pass, b, omega) -> DualState:
    """The DualState of row b of the numeric batched pass p; its flips are the row's picks with delta > 0."""
    delta = p.delta[b].reshape(-1)
    return DualState(omega, float(p.g[b]), [divmod(i, p.delta.shape[-1]) for i in p.picks[b].tolist() if delta[i] > 0])


def dual_states(sp, params, bounds, budget, C) -> list:
    """One numeric DualState per row of the class matrix C (B, K), from one batched pass at the default Omega.

    Closed-form (eta, rho).  Raises TypeError when params or bounds carry
    grad.Vars: the states hold values and would drop the tape.  On the tape, use
    `margin_vector` or `dual_value_differentiable`.
    """
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    p = _dual_pass(sp, params, bounds, budget, C, bounds.slope)
    if grad.is_var(p.g):
        raise TypeError("dual_states takes numeric params and bounds, not grad.Vars")
    om = {l: np.array(w) for l, w in bounds.slope.items()}
    return [_state(p, b, om) for b in range(len(C))]


def dual_state(sp, params, bounds, budget, c) -> DualState:
    """Full dual evaluation for one class vector c at the default Omega; numeric output."""
    return dual_states(sp, params, bounds, budget, c)[0]


def dual_value_differentiable(sp, params, bounds, budget, c, omega):
    """g for one class vector c, as a grad.Var when params, bounds or omega carry Vars."""
    return grad.asum(_dual_pass(sp, params, bounds, budget, np.atleast_2d(c), omega).g)


def _omega_gradient(sp, params, bounds, budget, p: _Pass, rows, omega) -> dict:
    """dg/dOmega[l] for `rows` of a numeric batched pass p; `omega` is those rows' Omega.

    Omega enters g only through phi[l] at crossing entries, as -Omega * [phi_hat[l]]_-,
    so this is one reverse sweep of the backward pass: from dg/d delta, through A_dot
    and W, up the layers.  It is the tape's subgradient of `dual_value_differentiable`:
    every case-split mask and the eta/rho selection of p stay frozen, and relu'(0) = 0.

    dg/d delta is -1 where psi > 0, plus the eta/rho terms at the o and rho picks,
    and psi > 0 only at each node row's top q picks, except in the round-off rows
    of `_psi_at_picks`.  So dg/d phi_hat[1] = dg/d delta * (1 - 2X) * [delta > 0] - X
    is -X but at the picks and in the round-off rows, and only those entries are
    computed.  They are small integers, exact in any order, so the one matmul by W1
    sums the same array as a dense sweep would, and g's gradient is bitwise its.
    """
    L = sp.layer_count
    X = sp.sliced_attrs
    n, D = X.shape
    q, Q = budget.effective_q(D), budget.effective_Q(n, D)
    R = len(rows)
    # delta = [phi_hat[1] (1 - 2X)]_+, and g holds -<X, phi_hat[1]>
    g_hat = np.empty((R, n, D))
    g_hat[...] = -X
    if p.info["top_q_idx"] is not None:
        idx = p.info["top_q_idx"][rows]
        at = idx % (n * D)
        node, feat = np.divmod(at, D)
        pos = p.psi.reshape(-1)[idx] > 0
        count = pos.sum(axis=2)
        # a round-off row may hold psi > 0 off its picks: its whole row is computed
        rb, rn = np.nonzero(pos[..., -1])
        if rb.size:
            whole = p.psi[rows[rb], rn] > 0
            count[rb, rn] = whole.sum(axis=1)
            g_hat[rb, rn] = -(whole * (1.0 - 2.0 * X[rn]) * (p.delta[rows[rb], rn] > 0)) - X[rn]
        # dg/d delta at the picks: -1 where psi > 0, plus the eta/rho terms.  eta_n = [o_n - rho]_+
        # at the frozen selection, g holds -q sum(eta) - Q rho, and rho is one of node rho_n's picks
        g_o = (count - q) * (p.eta[rows] > 0)
        g_rho = count.sum(axis=1) - Q - g_o.sum(axis=1)
        g_pick = -pos.astype(np.float64)
        g_pick[..., -1] += g_o
        rho_idx, r = p.info["rho_idx"][rows], np.arange(R)
        rho_n = rho_idx % (n * D) // D
        g_pick[r, rho_n] += g_rho[:, None] * (idx[r, rho_n] == rho_idx[:, None])
        x = X[node, feat]
        g_pick = g_pick * (1.0 - 2.0 * x) * (p.delta.reshape(-1)[idx] > 0) - x
        g_hat.reshape(-1)[at + (r * (n * D))[:, None, None]] = g_pick
    out = {}
    for l in range(2, L):
        A, W, b = sp.sliced_mp[l - 2], grad.val(params.weights[l - 2]), grad.val(params.biases[l - 2])
        g_phi = A @ (g_hat @ W) - b
        ph = p.phi_hat[l][rows]
        cross = bounds.cross[l]
        out[l] = -(g_phi * np.maximum(-ph, 0.0)) * cross
        if l < L - 1:
            g_cross = g_phi * cross
            g_hat = (
                g_phi * bounds.nonneg[l]
                + g_cross * bounds.slope[l] * (ph > 0)
                + g_cross * (omega[l] * cross) * (ph < 0)
                + bounds.offset[l] * (ph > 0)
            )
    return out


def optimize_omega(sp, params, bounds, budget, c, steps=PGA_STEPS):
    """Monotone projected gradient ascent on Omega, for c (K,) or every row of a stack C (B, K).

    Returns a DualState for c, or one per row of C.  Each row starts at the
    default Omega and keeps its own best iterate, step size and stopping
    rule.  A step moves every active row from its best iterate along
    dg/dOmega (`_omega_gradient`, no tape), projects onto [0, 1] and
    evaluates all candidates in one batched dual pass with closed-form
    (eta, rho).  A candidate that improves g by more than 1e-15 becomes its
    row's best, and its pass supplies the row's next gradient; otherwise the
    row's step size is halved (backtracking).  So each step costs one dual
    evaluation, the result never degrades the default-Omega start, and it
    converges to a local maximum.  A row leaves the batch when its step
    size falls below PGA_MIN_STEP, or when its projected move is exactly
    zero: the candidate would equal the best iterate at every smaller step.
    """
    C = np.atleast_2d(np.asarray(c, dtype=np.float64))
    rows = np.arange(len(C))
    best_om = {l: np.repeat(grad.val(om)[None], len(C), axis=0) for l, om in bounds.slope.items()}
    p = _dual_pass(sp, params, bounds, budget, C, best_om)
    dg = _omega_gradient(sp, params, bounds, budget, p, rows, best_om)
    # each row's best value, and the pass and row of it that hold the best iterate
    best_g, at = p.g.copy(), [(p, b) for b in rows]
    lr = np.full(len(C), PGA_STEP_SIZE)
    active = rows
    for _ in range(steps):
        cand_om = {
            l: np.clip(om[active] + lr[active, None, None] * dg[l][active] * bounds.cross[l], 0.0, 1.0)
            for l, om in best_om.items()
        }
        moved = np.zeros(active.size, dtype=bool)
        for l, om in cand_om.items():
            moved |= (om != best_om[l][active]).any(axis=(1, 2))
        active, cand_om = active[moved], {l: om[moved] for l, om in cand_om.items()}
        if not active.size:
            break
        p = _dual_pass(sp, params, bounds, budget, C[active], cand_om)
        improved = p.g > best_g[active] + 1e-15
        up, won = np.flatnonzero(improved), active[improved]
        best_g[won] = p.g[up]
        up_om = {l: om[up] for l, om in cand_om.items()}
        for l, om in up_om.items():
            best_om[l][won] = om
        for b, i in zip(won, up):
            at[b] = (p, i)
        for l, g_l in _omega_gradient(sp, params, bounds, budget, p, up, up_om).items():
            dg[l][won] = g_l
        lr[active[~improved]] *= PGA_STEP_SHRINK
        active = active[lr[active] >= PGA_MIN_STEP]
    best = [_state(q, i, {l: om[b] for l, om in best_om.items()}) for b, (q, i) in enumerate(at)]
    return best if np.ndim(c) == 2 else best[0]


def competing_classes(y: int, num_classes: int):
    """(others, C): the classes k != y, ascending, and the rows e_y - e_k."""
    if not (0 <= y < num_classes):
        raise ValueError(f"class {y} out of range [0, {num_classes})")
    others = np.array([k for k in range(num_classes) if k != y], dtype=np.intp)
    C = np.zeros((others.size, num_classes))
    C[:, y], C[np.arange(others.size), others] = 1.0, -1.0
    return others, C


def margin_vector(sp, params, budget, y, table=None):
    """p_k = -g(e_y - e_k) for every class k at the default Omega, as one (K,) array; p_y = 0.

    Grad-aware: on the tape, p is a (K,) grad.Var.  `table` is as in `duals`.
    """
    _, C = competing_classes(y, params.dims[-1])
    bounds = compute_bounds(sp, params, budget, table)
    g = _dual_pass(sp, params, bounds, budget, C, bounds.slope).g
    # row b of C is e_y - e_k, so its negative part puts -g_b at k and nothing at y
    return grad.matmul(g, np.minimum(C, 0.0))


def duals(sp, params, budget, y_star, mode="default", table=None):
    """(others, states): the classes competing with y_star and their DualStates at `budget` under `mode`, one of MODES.

    The one evaluation of a node at a budget; `table` is an optional `bounds.FlipTable`, as in `first_layer_bounds`.
    """
    if mode not in MODES:
        raise ValueError(f"mode {mode!r} not in {MODES}")
    others, C = competing_classes(y_star, params.dims[-1])
    bnds = compute_bounds(sp, params, budget, table)
    return others, (optimize_omega if mode == "optimized" else dual_states)(sp, params, bnds, budget, C)


def certify(sp, params, budget, y_star, mode="default", table=None) -> Certificate:
    """Robust / non-robust / undecided status for one target node.

    Robust means every competing dual bound g(e_y* - e_k) is strictly
    positive, with no round-off tolerance: g is a valid lower bound on the
    worst-case margin, and a tolerance would certify nodes whose bound is
    <= 0.  Otherwise each class's dual solution yields a flip set; the node
    is non-robust if one of them flips the exact network, else undecided;
    the certificate keeps the flip set of the smallest margin.
    `status_curve` gives the status alone for Q = 0..budget.global_Q; `mode` and `table` are as in `duals`.
    """
    others, states = duals(sp, params, budget, y_star, mode, table)
    dual_lower = np.zeros(len(others) + 1)
    dual_lower[others] = [st.value for st in states]
    if others.size == 0 or dual_lower[others].min() > 0:
        return Certificate(sp.target, budget, y_star, dual_lower, None, ROBUST, None)
    primal = np.zeros(dual_lower.size)
    for k, st in zip(others, states):
        primal[k] = primal_attack.construct_and_evaluate(sp, params, st, budget, y_star, k)
    b = int(np.argmin(primal[others]))  # the first class of the smallest margin
    status = NON_ROBUST if primal[others[b]] < 0 else UNDECIDED
    flips = [(int(sp.neighborhood[n]), int(d)) for n, d in states[b].flips]
    return Certificate(sp.target, budget, y_star, dual_lower, primal, status, flips)


def status_curve(sp, params, budget, y_star, mode="default", table=None) -> list:
    """`certify`'s status at Budget(budget.local_q, Q) for Q = 0..budget.global_Q, evaluating only unknown ones.

    A dual bound > 0 at Q bounds every flip set of a smaller Q, and a flip set admissible at Q is admissible at
    a larger one (q fixed): "robust" carries down, "non-robust" up, "undecided" nothing.  Each run of unknown
    budgets is bisected at its middle.  A carried status is sound, but need not be what `certify` gives that
    budget alone.  Each evaluated budget gets its own `duals`; the primal stops at a flip.
    """
    # half-open runs of global budgets Q whose status is unknown; an evaluated one that none settles is undecided
    status, runs = np.full(budget.global_Q + 1, UNDECIDED, dtype=object), [(0, budget.global_Q + 1)]
    while runs:
        lo, hi = runs.pop()
        if lo == hi:
            continue
        mid = (lo + hi) // 2
        at = Budget(budget.local_q, mid)
        others, states = duals(sp, params, at, y_star, mode, table)
        if all(st.value > 0 for st in states):
            status[lo : mid + 1] = ROBUST
            runs.append((mid + 1, hi))
        elif any(primal_attack.construct_and_evaluate(sp, params, st, at, y_star, k) < 0
                 for k, st in zip(others, states)):
            status[mid:hi] = NON_ROBUST
            runs.append((lo, mid))
        else:
            runs += [(lo, mid), (mid + 1, hi)]
    return status.tolist()
