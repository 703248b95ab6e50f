"""Independent verification machinery.

Everything here is a test fixture: seeded tiny random instances,
brute-force enumeration of the exact worst-case margin, the explicit
linear program of the relaxation with its auditable constraint-to-dual-
variable naming, a dense two-phase simplex solver (Bland's anti-cycling
rule), and the optimality checks for the closed-form budget duals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from math import comb

import numpy as np

from . import gcn, grad
from .bounds import CROSSING, NONNEG, Budget
from .gcn import GcnParams
from .graph_core import Graph, SlicedProblem, build_message_passing, slice_problem

__all__ = [
    "LpModel",
    "EnumerationResult",
    "SimplexError",
    "enumerate_exact_margin",
    "admissible_flip_count",
    "iter_admissible",
    "build_primal_lp",
    "solve_lp",
    "solve_lp_multipliers",
    "write_lp_text",
    "binary_inner_lp_minimum",
    "check_integrality",
    "check_eta_rho_optimality",
    "random_tiny_graph",
    "random_tiny_instance",
]

MAX_LP_VARIABLES = 300


class SimplexError(RuntimeError):
    pass


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
    eq_names: list = field(default_factory=list)
    ub_names: list = field(default_factory=list)

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
    Constraint names record the dual variable owning each row.
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
        raise ValueError(f"LP too large for the dense oracle: {nv} > {MAX_LP_VARIABLES} variables")

    a_eq, b_eq, eq_names = [], [], []
    a_ub, b_ub, ub_names = [], [], []

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
                eq_names.append(f"phi{l}_{m}_{j}")

    # |X - Xdot| <= eps (dual gamma+/-)
    for n in range(n_outer):
        for d in range(D):
            row = np.zeros(nv)
            row[x_idx[(n, d)]] = 1.0
            row[e_idx[(n, d)]] = -1.0
            a_ub.append(row)
            b_ub.append(X[n, d])
            ub_names.append(f"gamma_plus_{n}_{d}")
            row = np.zeros(nv)
            row[x_idx[(n, d)]] = -1.0
            row[e_idx[(n, d)]] = -1.0
            a_ub.append(row)
            b_ub.append(-X[n, d])
            ub_names.append(f"gamma_minus_{n}_{d}")

    # budget rows (dual eta, rho)
    for n in range(n_outer):
        row = np.zeros(nv)
        for d in range(D):
            row[e_idx[(n, d)]] = 1.0
        a_ub.append(row)
        b_ub.append(float(budget.local_q))
        ub_names.append(f"eta_{n}")
    row = np.zeros(nv)
    for key, i in e_idx.items():
        row[i] = 1.0
    a_ub.append(row)
    b_ub.append(float(budget.global_Q))
    ub_names.append("rho")

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
        ub_names.append(f"mu_{l}_{m}_{j}")
        row = np.zeros(nv)
        row[hi_var] = S - R
        row[hhat_idx[(l, m, j)]] = -S
        a_ub.append(row)
        b_ub.append(-S * R)
        ub_names.append(f"lambda_{l}_{m}_{j}")

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
        eq_names=eq_names,
        ub_names=ub_names,
    )


# ---------------------------------------------------------------------------
# dense two-phase simplex


def _pivot(T, cost, basis, r, col):
    T[r] /= T[r, col]
    for i in range(T.shape[0]):
        if i != r and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[r]
    if cost[col] != 0.0:
        cost -= cost[col] * T[r]
    basis[r] = col


def _simplex(T, cost, basis, tol=1e-9, max_iter=20000):
    """Bland's-rule simplex on an equality tableau; cost row updated in place."""
    m = T.shape[0]
    for i in range(m):
        j = basis[i]
        if abs(cost[j]) > 0.0:
            cost -= cost[j] * T[i]
    for _ in range(max_iter):
        enter = -1
        for j in range(T.shape[1] - 1):
            if cost[j] < -tol:
                enter = j
                break
        if enter < 0:
            return
        ratio, leave = np.inf, -1
        for i in range(m):
            if T[i, enter] > tol:
                r = T[i, -1] / T[i, enter]
                if r < ratio - tol or (abs(r - ratio) <= tol and (leave < 0 or basis[i] < basis[leave])):
                    ratio, leave = r, i
        if leave < 0:
            raise SimplexError("unbounded linear program")
        _pivot(T, cost, basis, leave, enter)
    raise SimplexError("simplex iteration limit reached")


def solve_lp(model: LpModel, tol: float = 1e-8):
    """Optimal value and primal point of an LpModel.

    Two-phase dense simplex with Bland's anti-cycling rule.  On numerical
    failure the solve is retried once with a slightly perturbed objective
    to break degeneracy; the returned value is re-evaluated with the
    original objective at the recovered vertex.
    """
    value, x, _ = solve_lp_multipliers(model, tol)
    return value, x


def solve_lp_multipliers(model: LpModel, tol: float = 1e-8):
    """Like solve_lp, plus optimal multipliers y of the equality rows.

    y comes from the final simplex basis (B^T y = c_B), so the Lagrangian
    c.x - y.(A_eq x - b_eq) minimised over the remaining constraints
    attains the LP optimum.  Rows dropped as redundant get multiplier 0.
    After a perturbed retry, y belongs to the perturbed objective.
    """
    try:
        return _solve_lp_once(model, model.objective, tol)
    except SimplexError:
        rng = np.random.default_rng(0)
        jitter = model.objective + rng.normal(scale=1e-9, size=model.num_vars)
        _, x, y = _solve_lp_once(model, jitter, tol)
        return float(model.objective @ x), x, y


def _solve_lp_once(model: LpModel, objective, tol):
    nv = model.num_vars
    lo, hi = model.lo.copy(), model.hi.copy()

    # substitute each variable by one or two nonnegative columns
    cols, col_sign, col_shift, extra_ub = [], [], [], []
    for i in range(nv):
        if np.isfinite(lo[i]):
            cols.append((i, 1.0, lo[i]))
            if np.isfinite(hi[i]):
                extra_ub.append((len(cols) - 1, hi[i] - lo[i]))
        elif np.isfinite(hi[i]):
            cols.append((i, -1.0, hi[i]))
        else:
            cols.append((i, 1.0, 0.0))
            cols.append((i, -1.0, 0.0))

    nz = len(cols)
    sub = np.zeros((nv, nz))
    shift = np.zeros(nv)
    for zj, (i, sign, off) in enumerate(cols):
        sub[i, zj] = sign
        if off != 0.0:
            shift[i] = off  # at most one shifted column per variable

    rows = []
    if model.a_eq.size:
        rows.append((model.a_eq, model.b_eq, False))
    if model.a_ub.size:
        rows.append((model.a_ub, model.b_ub, True))

    A_rows, b_rows, is_slack_row = [], [], []
    for A, b, slacked in rows:
        for r in range(A.shape[0]):
            A_rows.append(A[r] @ sub)
            b_rows.append(b[r] - A[r] @ shift)
            is_slack_row.append(slacked)
    for zj, ub in extra_ub:
        row = np.zeros(nz)
        row[zj] = 1.0
        A_rows.append(row)
        b_rows.append(ub)
        is_slack_row.append(True)

    n_slack = sum(is_slack_row)
    m = len(A_rows)
    A_full = np.zeros((m, nz + n_slack))
    b_full = np.array(b_rows, dtype=np.float64)
    si = 0
    for r in range(m):
        A_full[r, :nz] = A_rows[r]
        if is_slack_row[r]:
            A_full[r, nz + si] = 1.0
            si += 1
    neg = b_full < 0
    A_full[neg] *= -1.0
    b_full[neg] *= -1.0

    n_total = nz + n_slack
    # phase 1
    A1 = np.hstack([A_full, np.eye(m)])
    T = np.hstack([A1, b_full[:, None]])
    basis = list(range(n_total, n_total + m))
    cost1 = np.zeros(n_total + m + 1)
    cost1[n_total:-1] = 1.0
    _simplex(T, cost1, basis)
    if -cost1[-1] > 1e-7:
        raise SimplexError("infeasible linear program")
    # drive artificials out of the basis
    keep_rows = []
    redundant = []  # original rows that the kept rows span
    for i in range(m):
        if basis[i] >= n_total:
            piv = -1
            for j in range(n_total):
                if abs(T[i, j]) > 1e-9:
                    piv = j
                    break
            if piv < 0:
                # the artificial's unit column shows that its own row is a
                # combination of the others
                redundant.append(basis[i] - n_total)
                continue
            _pivot(T, cost1, basis, i, piv)
        keep_rows.append(i)
    T = T[keep_rows][:, list(range(n_total)) + [-1]]
    basis = [basis[i] for i in keep_rows]

    # phase 2
    c_orig = np.asarray(objective, dtype=np.float64)
    cz = np.zeros(n_total + 1)
    cz[:nz] = c_orig @ sub
    c_basic_cols = cz[:n_total].copy()
    _simplex(T, cz, basis)

    z = np.zeros(n_total)
    for i, j in enumerate(basis):
        z[j] = T[i, -1]
    x = sub @ z[:nz] + shift
    value = float(c_orig @ x)

    # multipliers: B^T y = c_B on the final basis, in the original row signs
    spanning = np.setdiff1d(np.arange(m), redundant)
    y = np.zeros(m)
    y[spanning] = np.linalg.solve(A_full[np.ix_(spanning, basis)].T, c_basic_cols[basis])
    y[neg] *= -1.0
    n_eq = model.a_eq.shape[0] if model.a_eq.size else 0
    return value, x, y[:n_eq]


def write_lp_text(model: LpModel, path):
    """Dump the model in CPLEX LP text format for external cross-checking."""
    lines = ["Minimize", " obj: " + _lin_expr(model.objective, model.var_names), "Subject To"]
    for name, row, rhs in zip(model.eq_names, model.a_eq, model.b_eq):
        lines.append(f" {name}: {_lin_expr(row, model.var_names)} = {rhs!r}")
    for name, row, rhs in zip(model.ub_names, model.a_ub, model.b_ub):
        lines.append(f" {name}: {_lin_expr(row, model.var_names)} <= {rhs!r}")
    lines.append("Bounds")
    for i, name in enumerate(model.var_names):
        lno = "-inf" if not np.isfinite(model.lo[i]) else repr(model.lo[i])
        hno = "+inf" if not np.isfinite(model.hi[i]) else repr(model.hi[i])
        lines.append(f" {lno} <= {name} <= {hno}")
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _lin_expr(row, names):
    terms = [f"{'+' if v >= 0 else '-'} {abs(v)!r} {n}" for v, n in zip(row, names) if v != 0.0]
    return " ".join(terms) if terms else "0 " + names[0]


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
    a_ub, b_ub, ub_names = [], [], []
    for i in range(n):
        row = np.zeros(nv)
        row[i * D:(i + 1) * D] = 1.0
        a_ub.append(row)
        b_ub.append(float(q))
        ub_names.append(f"row_{i}")
    a_ub.append(np.ones(nv))
    b_ub.append(float(Q))
    ub_names.append("total")
    model = LpModel(
        var_names=names,
        objective=-delta.ravel(),
        a_eq=np.zeros((0, nv)),
        b_eq=np.zeros(0),
        a_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        lo=np.zeros(nv),
        hi=np.ones(nv),
        ub_names=ub_names,
    )
    neg_opt, _ = solve_lp(model)
    lp_opt = -neg_opt

    eta, rho, s_q, _ = closed_form_eta_rho(delta, budget)
    greedy = float(sum(delta[i, d] for i, d in s_q))
    if q == 0 or Q == 0:
        # empty budget: the box-penalty term vanishes (rho -> inf limit)
        h = 0.0
    else:
        h = float(np.maximum(delta - eta[:, None] - rho, 0.0).sum() + q * eta.sum() + Q * rho)
    ok = abs(greedy - lp_opt) <= tol and abs(h - lp_opt) <= tol
    return ok, lp_opt, greedy, h
