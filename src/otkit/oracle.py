"""Exact small-instance solvers used solely for verification.

A dense two-phase simplex backs an exact transport LP, the joint
barycenter LP, and a grid search for the regularized barycenter.  These
are the independent oracles the approximate solvers are certified
against.  The simplex enters the column of most negative reduced cost
(Dantzig's rule) and falls back to Bland's rule for any pivot that would
not move the objective.  That keeps Bland's termination guarantee and
takes about a third of the pivots of pure Bland on the transport LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    as_matrix,
    as_weights,
    reg_primal_objective,
)
from .sinkhorn import sinkhorn_solve

#: Pivot / zero tolerance for the simplex tableau.
PIVOT_TOL = 1e-10
#: Feasibility tolerance promised on returned optimal solutions.
SOLUTION_TOL = 1e-9

MAX_OT_SIZE = 32
MAX_BARYCENTER_VARS = 400
MAX_GRID_SUPPORT = 3


@dataclass
class LpSolution:
    """Result of an exact LP solve in standard form min c'x, Ax = b, x >= 0.

    ``pivots`` counts the simplex pivots of phase 1, the drive-out of
    artificial variables and phase 2; it is deterministic for fixed inputs.
    """

    objective: float
    primal: np.ndarray
    status: str  # "optimal" | "infeasible" | "unbounded"
    reduced_costs: np.ndarray | None = None
    pivots: int = 0


def _bland_pivot_column(obj_row: np.ndarray) -> int | None:
    neg = np.nonzero(obj_row < -PIVOT_TOL)[0]
    return int(neg[0]) if neg.size else None


def _bland_pivot_row(T: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    column = T[:-1, col]
    rhs = T[:-1, -1]
    rows = np.nonzero(column > PIVOT_TOL)[0]
    if rows.size == 0:
        return None
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    # Bland tie-break: among minimum ratios, leave the smallest basis index.
    ties = rows[np.abs(ratios - best) <= PIVOT_TOL * (1.0 + abs(best))]
    return int(ties[np.argmin(basis[ties])])


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    # One rank-one update of the rows the pivot column touches; their
    # pivot-column entries become exactly zero.
    T[rows] -= T[rows, col, None] * T[row]
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, max_pivots: int) -> tuple[str, int]:
    """Pivot the tableau [A | b; reduced costs | -objective] to optimality.

    Each pivot enters the column of most negative reduced cost (Dantzig)
    and leaves the row of minimum ratio, ties to the smallest basic index.
    When that pivot would be degenerate (its ratio-test step is at most
    ``PIVOT_TOL``), the pivot is made by Bland's rule instead: the first
    column of negative reduced cost, and among the minimum ratios the row
    of smallest basic index.  This terminates.  A cycle returns to the
    same basis, so the objective is constant over it and, as no pivot
    raises it, every pivot in the cycle is degenerate.  Every degenerate
    pivot is a Bland pivot, so the cycle would consist of Bland pivots,
    which Bland's theorem rules out.  ``max_pivots`` bounds the work in
    floating point, where the theorem's exact arithmetic does not hold.
    Returns the status and the number of pivots made.
    """
    for pivots in range(max_pivots):
        obj_row = T[-1, :-1]
        col = int(np.argmin(obj_row))
        if obj_row[col] >= -PIVOT_TOL:
            return "optimal", pivots
        row = _bland_pivot_row(T, basis, col)
        if row is None:
            return "unbounded", pivots
        if T[row, -1] <= PIVOT_TOL * T[row, col]:
            col = _bland_pivot_column(obj_row)
            row = _bland_pivot_row(T, basis, col)
            if row is None:
                return "unbounded", pivots
        _pivot(T, basis, row, col)
    raise RuntimeError("simplex exceeded pivot budget")


def simplex_solve(c, A, b, max_pivots: int = 200_000) -> LpSolution:
    """Solve min c'x subject to Ax = b, x >= 0 by two-phase dense simplex.

    Pivots follow ``_run_simplex``: Dantzig's rule, with Bland's rule on
    degenerate steps.  Phase 1 starts from an artificial basis whose
    columns are not stored: an artificial that leaves the basis never
    re-enters, so a cycle keeps its column set fixed and the termination
    argument holds.  Redundant rows left with basic artificials at zero
    after phase 1 are dropped.  Returns the final reduced-cost vector
    alongside the optimum so optimality can be certified externally.
    """
    c = np.asarray(c, dtype=float).copy()
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1 tableau: [A | b]; basis index n + i marks the artificial of
    # row i, whose identity column is never read and so not stored.
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = np.arange(n, n + m)
    # Reduced costs with the artificial basis: rc_j = -sum_i A_ij, value -sum b.
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()

    status, pivots = _run_simplex(T, basis, max_pivots)
    if status != "optimal" or -T[-1, -1] > SOLUTION_TOL:
        return LpSolution(float("nan"), np.full(n, np.nan), "infeasible", pivots=pivots)

    # Drive remaining artificials out of the basis; rows that admit no
    # structural pivot are redundant constraints and are removed.
    keep_rows = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n:
            candidates = np.nonzero(np.abs(T[r, :n]) > PIVOT_TOL)[0]
            if candidates.size:
                _pivot(T, basis, r, int(candidates[0]))
                pivots += 1
            else:
                keep_rows[r] = False
    T = T[np.append(np.flatnonzero(keep_rows), m)]
    basis = basis[keep_rows]

    # Phase 2 objective row: c less the basic costs times the rows, which
    # zeroes the reduced costs of the basic columns.
    T[-1, :n] = c
    T[-1, -1] = 0.0
    T[-1] -= c[basis] @ T[:-1]

    status, phase2 = _run_simplex(T, basis, max_pivots)
    pivots += phase2
    if status == "unbounded":
        return LpSolution(float("-inf"), np.full(n, np.nan), "unbounded", pivots=pivots)

    x = np.zeros(n)
    x[basis] = T[:-1, -1]
    x = np.maximum(x, 0.0)
    return LpSolution(
        objective=float(c @ x),
        primal=x,
        status="optimal",
        reduced_costs=T[-1, :n].copy(),
        pivots=pivots,
    )


def exact_ot_lp(C, p, q) -> LpSolution:
    """Exact optimum of the transport LP over U(p, q) at desk scale.

    Returns the optimal value and a vertex plan (flattened row-major into
    ``primal``).  One redundant marginal row is dropped (the constraint
    matrix has rank 2n - 1).
    """
    C = as_matrix(C)
    p = as_weights(p)
    q = as_weights(q)
    n = p.size
    if n > MAX_OT_SIZE:
        raise DomainError(f"exact_ot_lp refuses n={n} > {MAX_OT_SIZE}")
    if C.shape != (n, n) or q.size != n:
        raise DomainError("cost/marginal dimensions disagree")

    nvars = n * n
    nrows = 2 * n - 1
    A = np.zeros((nrows, nvars))
    for i in range(n):
        A[i, i * n : (i + 1) * n] = 1.0  # row sums
    for j in range(n - 1):
        A[n + j, j::n] = 1.0  # column sums, last column dropped
    b = np.concatenate([p, q[:-1]])

    sol = simplex_solve(C.ravel(), A, b)
    if sol.status != "optimal":
        return sol
    plan = sol.primal.reshape(n, n)
    err = max(
        float(np.abs(plan.sum(axis=1) - p).max()),
        float(np.abs(plan.sum(axis=0) - q).max()),
    )
    if err > SOLUTION_TOL:
        raise RuntimeError(f"LP solution violates marginals by {err:.3e}")
    return sol


def exact_barycenter_lp(measures, C) -> tuple[np.ndarray, float]:
    """Exact non-regularized fixed-support barycenter by one joint LP.

    Variables are the m coupling matrices plus the common marginal q; the
    problem is jointly linear.  Returns (q_opt, optimal objective).
    """
    sol = _barycenter_lp(measures, C)
    return sol.primal[-as_matrix(C).shape[0] :], float(sol.objective)


def _barycenter_lp(measures, C) -> LpSolution:
    """The optimal solution of ``exact_barycenter_lp``'s LP: the m plans,
    flattened row-major, then q in ``primal``, and the simplex pivots."""
    C = as_matrix(C)
    ps = [as_weights(m) for m in measures]
    m = len(ps)
    if m == 0:
        raise DomainError("need at least one measure")
    n = ps[0].size
    nvars = m * n * n + n
    if nvars > MAX_BARYCENTER_VARS:
        raise DomainError(
            f"exact_barycenter_lp refuses {nvars} variables > {MAX_BARYCENTER_VARS}"
        )

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for l, p in enumerate(ps):
        off = l * n * n
        for i in range(n):
            row = np.zeros(nvars)
            row[off + i * n : off + (i + 1) * n] = 1.0
            rows.append(row)
            rhs.append(p[i])
    # Column sums tied to q.  One redundant row per l >= 2 is dropped
    # (rank of the stacked system is 2mn - (m - 1)).
    for l in range(m):
        off = l * n * n
        last = n if l == 0 else n - 1
        for j in range(last):
            row = np.zeros(nvars)
            row[off + j : off + n * n : n] = 1.0
            row[m * n * n + j] = -1.0
            rows.append(row)
            rhs.append(0.0)

    cost = np.concatenate([np.tile(C.ravel() / m, m), np.zeros(n)])
    sol = simplex_solve(cost, np.asarray(rows), np.asarray(rhs))
    if sol.status != "optimal":
        raise RuntimeError(f"barycenter LP ended with status {sol.status}")
    q_opt = sol.primal[m * n * n :]
    for l, p in enumerate(ps):
        plan = sol.primal[l * n * n : (l + 1) * n * n].reshape(n, n)
        err = max(
            float(np.abs(plan.sum(axis=1) - p).max()),
            float(np.abs(plan.sum(axis=0) - q_opt).max()),
        )
        if err > SOLUTION_TOL:
            raise RuntimeError(f"barycenter LP solution infeasible by {err:.3e}")
    return sol


def regularized_wb_grid(measures, C, gamma: float, grid_step: float) -> tuple[np.ndarray, float]:
    """Brute-force regularized barycenter over a simplex grid.

    Evaluates the averaged regularized transport value at every strictly
    interior grid point of spacing ``grid_step`` (boundary points are
    skipped: the Sinkhorn evaluation needs positive marginals, and the
    entropic minimizer is interior).  Intended for n <= 3 only.
    """
    C = as_matrix(C)
    ps = [as_weights(m) for m in measures]
    n = ps[0].size
    if n > MAX_GRID_SUPPORT:
        raise DomainError(f"regularized_wb_grid refuses n={n} > {MAX_GRID_SUPPORT}")
    k = int(round(1.0 / grid_step))
    if k < 2:
        raise DomainError("grid_step too coarse")

    def reg_ot_value(p, q) -> float:
        state, plan = sinkhorn_solve(
            C, gamma, p, q, eps_prime=1e-10, check_every=1
        )
        return reg_primal_objective(plan.entries, C, gamma)

    best_q, best_val = None, np.inf
    for q in _interior_grid(n, k):
        val = float(np.mean([reg_ot_value(p, q) for p in ps]))
        if val < best_val:
            best_q, best_val = q, val
    if best_q is None:
        raise DomainError("grid contains no interior point; refine grid_step")
    return best_q, best_val


def _interior_grid(n: int, k: int):
    """Yield simplex points with all coordinates positive multiples of 1/k."""
    if n == 1:
        yield np.array([1.0])
        return
    if n == 2:
        for i in range(1, k):
            yield np.array([i / k, (k - i) / k])
        return
    for i in range(1, k - 1):
        for j in range(1, k - i):
            rest = k - i - j
            if rest >= 1:
                yield np.array([i / k, j / k, rest / k])
