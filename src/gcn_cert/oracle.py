"""Independent verification machinery.

Everything here is a test fixture: seeded tiny random instances,
brute-force enumeration of the exact worst-case margin, the explicit
linear program of the relaxation solved by SciPy's HiGHS, and the
optimality checks for the closed-form budget duals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from . import gcn, grad
from .bounds import CROSSING, NONNEG, Budget
from .gcn import GcnParams
from .graph_core import Graph, SlicedProblem, build_message_passing, slice_problem

__all__ = [
    "LpModel",
    "EnumerationResult",
    "enumerate_exact_margin",
    "admissible_flip_count",
    "iter_admissible",
    "build_primal_lp",
    "solve_lp",
    "binary_inner_lp_minimum",
    "check_integrality",
    "check_eta_rho_optimality",
    "random_tiny_graph",
    "random_tiny_instance",
]

MAX_LP_VARIABLES = 300


@dataclass
class LpModel:
    """min c^T x subject to A_eq x = b_eq, A_ub x <= b_ub, lo <= x <= hi."""

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@dataclass
class EnumerationResult:
    exact_min_margin: float
    count_enumerated: int


# ---------------------------------------------------------------------------
# tiny random instances (tests, oracle-verify, grad-check)


def random_tiny_graph(rng, all_labeled=False, hidden_layers=1):
    """Random graph small enough for exhaustive oracles (<= 6 nodes), with a GCN of
    `hidden_layers` hidden layers; one hidden layer draws what it always drew."""
    n = int(rng.integers(3, 7))
    D = int(rng.integers(2, 6))
    K = int(rng.integers(2, 4))
    A = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    A = A + A.T
    X = (rng.random((n, D)) < 0.5).astype(float)
    labels = rng.integers(0, K, size=n)
    if not all_labeled:
        labels[rng.random(n) < 0.4] = -1
        labels[0] = rng.integers(0, K)
    graph = Graph(
        num_nodes=n,
        num_features=D,
        num_classes=K,
        adjacency=A,
        attributes=X,
        labels=labels,
    )
    budget = Budget(int(rng.integers(1, 3)), int(rng.integers(1, 4)))
    hidden = [int(rng.integers(2, 5)) for _ in range(hidden_layers)]
    params = gcn.glorot_params([D, *hidden, K], seed=int(rng.integers(2**31)))
    # nonzero biases keep pre-activations off the exact ReLU kink
    for b in params.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    return graph, params, budget


def random_tiny_instance(rng, all_labeled=False, hidden_layers=1):
    """A random tiny graph sliced at a random target for a GCN of `hidden_layers` + 1 layers."""
    graph, params, budget = random_tiny_graph(rng, all_labeled=all_labeled, hidden_layers=hidden_layers)
    mp = build_message_passing(graph)
    target = int(rng.integers(graph.num_nodes))
    spr = slice_problem(graph, mp, target, hidden_layers + 2)
    return spr, params, budget


# ---------------------------------------------------------------------------
# brute-force enumeration


def admissible_flip_count(num_rows: int, num_features: int, budget: Budget) -> int:
    """|X_{q,Q}|: flip sets with <= q flips per row and <= Q in total."""
    q = budget.effective_q(num_features)
    Q = budget.effective_Q(num_rows, num_features)
    poly = np.zeros(Q + 1, dtype=object)
    poly[0] = 1
    for _ in range(num_rows):
        row = [comb(num_features, s) for s in range(min(q, Q) + 1)]
        nxt = np.zeros(Q + 1, dtype=object)
        for total in range(Q + 1):
            for s, ways in enumerate(row):
                if s > total:
                    break
                nxt[total] += poly[total - s] * ways
        poly = nxt
    return int(poly.sum())


def iter_admissible(num_rows: int, num_features: int, budget: Budget):
    """Yield admissible flip sets as tuples of (row, feature) pairs."""
    q = budget.effective_q(num_features)
    Q = budget.effective_Q(num_rows, num_features)

    def per_row_choices():
        out = [()]
        for s in range(1, q + 1):
            out.extend(itertools.combinations(range(num_features), s))
        return out

    choices = per_row_choices()

    def rec(row, remaining, acc):
        if row == num_rows:
            yield tuple(acc)
            return
        for ch in choices:
            if len(ch) > remaining:
                continue
            acc.extend((row, d) for d in ch)
            yield from rec(row + 1, remaining - len(ch), acc)
            del acc[len(acc) - len(ch):]

    yield from rec(0, Q, [])


def enumerate_exact_margin(
    sp: SlicedProblem, params: GcnParams, budget: Budget, y_star: int, y: int, guard: int = 10**6
) -> EnumerationResult:
    """Exact minimum margin over all admissible binary perturbations."""
    X = sp.sliced_attrs
    n, D = X.shape
    count = admissible_flip_count(n, D, budget)
    if count > guard:
        raise ValueError(
            f"enumeration refused: {count} admissible perturbations over "
            f"{n} nodes x {D} features exceeds the guard of {guard}"
        )
    best = np.inf
    seen = 0
    for flips in iter_admissible(n, D, budget):
        seen += 1
        Xt = X.copy()
        for r, d in flips:
            Xt[r, d] = 1.0 - Xt[r, d]
        logits = grad.val(gcn.forward_sliced(sp, params, attrs_override=Xt).logits)
        best = min(best, float(logits[y_star] - logits[y]))
    return EnumerationResult(exact_min_margin=best, count_enumerated=seen)


# ---------------------------------------------------------------------------
# explicit primal LP


def _budget_rows(n, D):
    """Row sums of an n x D block, one row per node, then the total: the q and Q rows."""
    return np.vstack([np.kron(np.eye(n), np.ones(D)), np.ones(n * D)])


def build_primal_lp(sp: SlicedProblem, params: GcnParams, bounds, budget: Budget, c) -> LpModel:
    """The relaxed certification problem as an explicit dense LP.

    The variables come in blocks, each row-major: the attribute block X
    (= H^(1)) in columns 0..n*D-1, the slack magnitudes eps, every
    pre-activation Hhat^(l) for l = 2..L, and the post-activations H^(l)
    of the crossing neurons of l = 2..L-1 (the exactly-linear cases are
    substituted away).
    """
    L = sp.layer_count
    X = sp.sliced_attrs
    n_outer, D = X.shape
    nd = n_outer * D
    weights = [grad.val(w) for w in params.weights]
    crossing = {l: bounds.partition[l].ravel() == CROSSING for l in range(2, L)}

    # columns of every Hhat^(l) block, then of every H^(l) block
    nv = 2 * nd
    hhat, h = {}, {}
    for l in range(2, L + 1):
        hhat[l] = nv + np.arange(sp.sliced_mp[l - 2].shape[0] * weights[l - 2].shape[1])
        nv += hhat[l].size
    first_h = nv
    for l in range(2, L):
        h[l] = nv + np.arange(np.count_nonzero(crossing[l]))
        nv += h[l].size
    if nv > MAX_LP_VARIABLES:
        raise ValueError(f"LP too large for the LP oracle: {nv} > {MAX_LP_VARIABLES} variables")

    # layer equalities (dual variables Phi): Hhat^(l) - kron(A_dot, W^T) input = b
    a_eq, b_eq = [], []
    for l in range(2, L + 1):
        if l == 2:
            inputs = np.arange(nd)
        else:  # H^(l-1) on crossing inputs, Hhat^(l-1) on nonnegative ones, nothing on nonpositive ones
            inputs = np.where(bounds.partition[l - 1].ravel() == NONNEG, hhat[l - 1], -1)
            inputs[crossing[l - 1]] = h[l - 1]
        used = inputs >= 0
        block = np.zeros((hhat[l].size, nv))
        block[:, hhat[l]] = np.eye(hhat[l].size)
        block[:, inputs[used]] = -np.kron(sp.sliced_mp[l - 2], weights[l - 2].T)[:, used]
        a_eq.append(block)
        b_eq.append(np.tile(grad.val(params.biases[l - 2]), sp.sliced_mp[l - 2].shape[0]))

    # |X - Xdot| <= eps as two rows per entry (dual gamma+/-), then the
    # budget rows (dual eta, rho)
    box = np.zeros((2 * nd, nv))
    box[:, :nd] = np.kron(np.eye(nd), [[1.0], [-1.0]])
    box[:, nd:2 * nd] = np.kron(np.eye(nd), [[-1.0], [-1.0]])
    sums = np.zeros((n_outer + 1, nv))
    sums[:, nd:2 * nd] = _budget_rows(n_outer, D)
    a_ub = [box, sums]
    b_ub = [
        np.column_stack([X.ravel(), -X.ravel()]).ravel(),
        np.append(np.full(n_outer, float(budget.local_q)), float(budget.global_Q)),
    ]

    # convex envelope on crossing neurons (dual mu, lambda; tau is the
    # H >= 0 variable bound), two rows per neuron
    for l in range(2, L):
        pre, post = hhat[l][crossing[l]], h[l]
        R = grad.val(bounds.lower[l]).ravel()[crossing[l]]
        S = grad.val(bounds.upper[l]).ravel()[crossing[l]]
        rows = 2 * np.arange(post.size)
        block = np.zeros((2 * post.size, nv))
        block[rows, pre] = 1.0
        block[rows, post] = -1.0
        block[rows + 1, post] = S - R
        block[rows + 1, pre] = -S
        a_ub.append(block)
        b_ub.append(np.column_stack([np.zeros(post.size), -S * R]).ravel())

    objective = np.zeros(nv)
    objective[hhat[L][: weights[-1].shape[1]]] = np.asarray(c, dtype=np.float64)
    lo = np.zeros(nv)
    lo[2 * nd:first_h] = -np.inf
    hi = np.full(nv, np.inf)
    hi[:nd] = 1.0
    return LpModel(
        objective=objective,
        a_eq=np.vstack(a_eq),
        b_eq=np.concatenate(b_eq),
        a_ub=np.vstack(a_ub),
        b_ub=np.concatenate(b_ub),
        lo=lo,
        hi=hi,
    )


# ---------------------------------------------------------------------------
# LP solve (HiGHS)


def solve_lp(model: LpModel):
    """Optimal value, primal point x and multipliers y of the equality rows.

    y is HiGHS's dual of the equality rows, so the Lagrangian
    c.x - y.(A_eq x - b_eq) minimised over the remaining constraints
    attains the LP optimum.  Raises RuntimeError with HiGHS's message
    when the LP is infeasible, unbounded or not solved.
    """
    from scipy.optimize import linprog  # here, so importing the CLI does not load scipy.optimize

    rows = {}
    if model.a_eq.size:
        rows.update(A_eq=model.a_eq, b_eq=model.b_eq)
    if model.a_ub.size:
        rows.update(A_ub=model.a_ub, b_ub=model.b_ub)
    res = linprog(model.objective, bounds=np.column_stack([model.lo, model.hi]), method="highs", **rows)
    if res.status != 0:
        raise RuntimeError(f"LP not solved: {res.message}")
    return float(res.fun), res.x, res.eqlin.marginals


# ---------------------------------------------------------------------------
# structural checks


def binary_inner_lp_minimum(sp, params, bounds, budget, c):
    """Minimum over admissible binary X of the certification LP with X fixed.

    This can lie above the joint LP optimum: with the H variables
    minimised out, the LP value is a convex piecewise-linear function of
    X whose minimum over the relaxed flip set may be fractional
    (test_oracle.test_relaxation_gap_counterexample pins such a case).
    """
    model = build_primal_lp(sp, params, bounds, budget, c)
    X = sp.sliced_attrs
    n, D = X.shape
    best = np.inf
    for flips in iter_admissible(n, D, budget):
        Xt = X.copy()
        for r, d in flips:
            Xt[r, d] = 1.0 - Xt[r, d]
        lo, hi = model.lo.copy(), model.hi.copy()
        lo[: n * D] = hi[: n * D] = Xt.ravel()
        best = min(best, solve_lp(replace(model, lo=lo, hi=hi))[0])
    return best


def check_integrality(sp, params, bounds, budget, c, tol=1e-6):
    """The relaxed flip set is integral for the certification LP's X-part.

    The relaxed flip set is X in [0, 1] with |X - Xdot| row sums <= q and
    total <= Q.  Its constraint matrix (a box plus a laminar family of
    row and total sums) is totally unimodular, so every vertex is an
    admissible binary flip set and a linear function of X has the same
    minimum over the relaxed set as over the binary flip sets;
    closed_form_eta_rho relies on this when it picks a binary s_q.

    The linear function checked is the X-part of the LP's Lagrangian at
    the optimal multipliers y of the layer equalities (phi rows),
    g = -A_eq[:, X]^T y, which the LP's optimal X* minimises over the
    relaxed set.  binary_minimum = relaxed_optimum + min_b g.(X_b - X*)
    over admissible binary X_b, so the two agree exactly when the
    property holds.

    Returns (ok, relaxed_optimum, binary_minimum).
    """
    model = build_primal_lp(sp, params, bounds, budget, c)
    relaxed, x, y = solve_lp(model)
    X = sp.sliced_attrs
    n, D = X.shape
    g = -(model.a_eq[:, : n * D].T @ y).reshape(n, D)
    to_clean = float(np.sum(g * (X - x[: n * D].reshape(n, D))))
    flip_gain = g * (1.0 - 2.0 * X)  # change of g.X when one bit flips
    best = min(sum(flip_gain[r, d] for r, d in flips) for flips in iter_admissible(n, D, budget))
    binary = relaxed + to_clean + best
    return abs(binary - relaxed) <= tol, relaxed, binary


def check_eta_rho_optimality(delta, budget: Budget, tol=1e-9):
    """Closed-form (eta, rho) attains the alpha-LP optimum (KKT check).

    Returns (ok, lp_optimum, greedy_value, h_value).
    """
    from .dual_cert import closed_form_eta_rho

    delta = np.asarray(delta, dtype=np.float64)
    if (delta < 0).any():
        raise ValueError("delta must be nonnegative")
    n, D = delta.shape
    q = budget.effective_q(D)
    Q = budget.effective_Q(n, D)

    model = LpModel(
        objective=-delta.ravel(),
        a_eq=np.zeros((0, n * D)),
        b_eq=np.zeros(0),
        a_ub=_budget_rows(n, D),
        b_ub=np.append(np.full(n, float(q)), float(Q)),
        lo=np.zeros(n * D),
        hi=np.ones(n * D),
    )
    lp_opt = -solve_lp(model)[0]

    eta, rho, picks, _ = closed_form_eta_rho(delta[None], budget)
    eta, rho = eta[0], rho[0]
    greedy = float(sum(delta.ravel()[picks[0]]))
    if q == 0 or Q == 0:
        # empty budget: the box-penalty term vanishes (rho -> inf limit)
        h = 0.0
    else:
        h = float(np.maximum(delta - eta[:, None] - rho, 0.0).sum() + q * eta.sum() + Q * rho)
    ok = abs(greedy - lp_opt) <= tol and abs(h - lp_opt) <= tol
    return ok, lp_opt, greedy, h
