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
    "solve_lp_multipliers",
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

    var_names: list
    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def num_vars(self):
        return len(self.var_names)

    def index(self, name):
        if not hasattr(self, "_index"):
            self._index = {n: i for i, n in enumerate(self.var_names)}
        return self._index[name]


@dataclass
class EnumerationResult:
    exact_min_margin: float
    argmin_perturbation: np.ndarray
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
    best_x = X.copy()
    seen = 0
    for flips in iter_admissible(n, D, budget):
        seen += 1
        Xt = X.copy()
        for r, d in flips:
            Xt[r, d] = 1.0 - Xt[r, d]
        logits = grad.val(gcn.forward_sliced(sp, params, attrs_override=Xt).logits)
        margin = float(logits[y_star] - logits[y])
        if margin < best:
            best, best_x = margin, Xt
    return EnumerationResult(exact_min_margin=best, argmin_perturbation=best_x, count_enumerated=seen)


# ---------------------------------------------------------------------------
# explicit primal LP


def build_primal_lp(sp: SlicedProblem, params: GcnParams, bounds, budget: Budget, c) -> LpModel:
    """The relaxed certification problem as an explicit dense LP.

    Variables: the attribute block (= H^(1)), slack magnitudes eps, every
    pre-activation Hhat^(l), and post-activations H^(l) for crossing
    neurons only (the exactly-linear cases are substituted away).
    """
    L = sp.layer_count
    X = sp.sliced_attrs
    n_outer, D = X.shape
    K = grad.val(params.weights[-1]).shape[1]
    c = np.asarray(c, dtype=np.float64)

    names, lo, hi = [], [], []

    def add_var(name, low, high):
        names.append(name)
        lo.append(low)
        hi.append(high)
        return len(names) - 1

    x_idx = {(n, d): add_var(f"X_{n}_{d}", 0.0, 1.0) for n in range(n_outer) for d in range(D)}
    e_idx = {(n, d): add_var(f"eps_{n}_{d}", 0.0, np.inf) for n in range(n_outer) for d in range(D)}
    hhat_idx = {}
    for l in range(2, L + 1):
        rows = sp.sliced_mp[l - 2].shape[0]
        width = grad.val(params.weights[l - 2]).shape[1]
        for m in range(rows):
            for j in range(width):
                hhat_idx[(l, m, j)] = add_var(f"Hhat{l}_{m}_{j}", -np.inf, np.inf)
    h_idx = {}
    for l in range(2, L):
        part = bounds.partition[l]
        for m in range(part.shape[0]):
            for j in range(part.shape[1]):
                if part[m, j] == CROSSING:
                    h_idx[(l, m, j)] = add_var(f"H{l}_{m}_{j}", 0.0, np.inf)

    nv = len(names)
    if nv > MAX_LP_VARIABLES:
        raise ValueError(f"LP too large for the LP oracle: {nv} > {MAX_LP_VARIABLES} variables")

    a_eq, b_eq = [], []
    a_ub, b_ub = [], []

    # layer equalities (dual variables Phi)
    for l in range(2, L + 1):
        A_dot = sp.sliced_mp[l - 2]
        W = grad.val(params.weights[l - 2])
        b = grad.val(params.biases[l - 2])
        rows, width = A_dot.shape[0], W.shape[1]
        for m in range(rows):
            for j in range(width):
                row = np.zeros(nv)
                row[hhat_idx[(l, m, j)]] = 1.0
                for n in range(A_dot.shape[1]):
                    if A_dot[m, n] == 0.0:
                        continue
                    for k in range(W.shape[0]):
                        coef = A_dot[m, n] * W[k, j]
                        if coef == 0.0:
                            continue
                        if l == 2:
                            row[x_idx[(n, k)]] -= coef
                        else:
                            tag = bounds.partition[l - 1][n, k]
                            if tag == CROSSING:
                                row[h_idx[(l - 1, n, k)]] -= coef
                            elif tag == NONNEG:
                                row[hhat_idx[(l - 1, n, k)]] -= coef
                a_eq.append(row)
                b_eq.append(b[j])

    # |X - Xdot| <= eps (dual gamma+/-)
    for n in range(n_outer):
        for d in range(D):
            row = np.zeros(nv)
            row[x_idx[(n, d)]] = 1.0
            row[e_idx[(n, d)]] = -1.0
            a_ub.append(row)
            b_ub.append(X[n, d])
            row = np.zeros(nv)
            row[x_idx[(n, d)]] = -1.0
            row[e_idx[(n, d)]] = -1.0
            a_ub.append(row)
            b_ub.append(-X[n, d])

    # budget rows (dual eta, rho)
    for n in range(n_outer):
        row = np.zeros(nv)
        for d in range(D):
            row[e_idx[(n, d)]] = 1.0
        a_ub.append(row)
        b_ub.append(float(budget.local_q))
    row = np.zeros(nv)
    for key, i in e_idx.items():
        row[i] = 1.0
    a_ub.append(row)
    b_ub.append(float(budget.global_Q))

    # convex envelope on crossing neurons (dual mu, lambda; tau is the
    # H >= 0 variable bound)
    for (l, m, j), hi_var in h_idx.items():
        R = grad.val(bounds.lower[l])[m, j]
        S = grad.val(bounds.upper[l])[m, j]
        row = np.zeros(nv)
        row[hhat_idx[(l, m, j)]] = 1.0
        row[hi_var] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
        row = np.zeros(nv)
        row[hi_var] = S - R
        row[hhat_idx[(l, m, j)]] = -S
        a_ub.append(row)
        b_ub.append(-S * R)

    objective = np.zeros(nv)
    for k in range(K):
        objective[hhat_idx[(L, 0, k)]] = c[k]

    return LpModel(
        var_names=names,
        objective=objective,
        a_eq=np.array(a_eq).reshape(-1, nv),
        b_eq=np.array(b_eq, dtype=np.float64),
        a_ub=np.array(a_ub).reshape(-1, nv),
        b_ub=np.array(b_ub, dtype=np.float64),
        lo=np.array(lo, dtype=np.float64),
        hi=np.array(hi, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# LP solve (HiGHS)


def solve_lp(model: LpModel):
    """Optimal value and primal point of an LpModel."""
    value, x, _ = solve_lp_multipliers(model)
    return value, x


def solve_lp_multipliers(model: LpModel):
    """Like solve_lp, plus optimal multipliers y of the equality rows.

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
    x_cols = [model.index(f"X_{r}_{d}") for r in range(n) for d in range(D)]
    best = np.inf
    for flips in iter_admissible(n, D, budget):
        Xt = X.copy()
        for r, d in flips:
            Xt[r, d] = 1.0 - Xt[r, d]
        lo, hi = model.lo.copy(), model.hi.copy()
        lo[x_cols] = hi[x_cols] = Xt.ravel()
        value, _ = solve_lp(replace(model, lo=lo, hi=hi))
        best = min(best, value)
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
    relaxed, x, y = solve_lp_multipliers(model)
    X = sp.sliced_attrs
    n, D = X.shape
    x_cols = [model.index(f"X_{r}_{d}") for r in range(n) for d in range(D)]
    g = -(model.a_eq[:, x_cols].T @ y).reshape(n, D)
    to_clean = float(np.sum(g * (X - x[x_cols].reshape(n, D))))
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

    nv = n * D
    names = [f"alpha_{i}_{d}" for i in range(n) for d in range(D)]
    a_ub, b_ub = [], []
    for i in range(n):
        row = np.zeros(nv)
        row[i * D:(i + 1) * D] = 1.0
        a_ub.append(row)
        b_ub.append(float(q))
    a_ub.append(np.ones(nv))
    b_ub.append(float(Q))
    model = LpModel(
        var_names=names,
        objective=-delta.ravel(),
        a_eq=np.zeros((0, nv)),
        b_eq=np.zeros(0),
        a_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        lo=np.zeros(nv),
        hi=np.ones(nv),
    )
    neg_opt, _ = solve_lp(model)
    lp_opt = -neg_opt

    eta, rho, s_q, _ = closed_form_eta_rho(delta[None], budget)
    eta, rho, s_q = eta[0], rho[0], s_q[0]
    greedy = float(sum(delta[i, d] for i, d in s_q))
    if q == 0 or Q == 0:
        # empty budget: the box-penalty term vanishes (rho -> inf limit)
        h = 0.0
    else:
        h = float(np.maximum(delta - eta[:, None] - rho, 0.0).sum() + q * eta.sum() + Q * rho)
    ok = abs(greedy - lp_opt) <= tol and abs(h - lp_opt) <= tol
    return ok, lp_opt, greedy, h
