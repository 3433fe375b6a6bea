"""Exact small-instance solvers used solely for verification.

These are the independent oracles the approximate solvers are certified
against.  The transport LP is solved by the transportation simplex on
the n x n plan (``_transport_simplex``): a strongly feasible spanning
tree, one vectorized reduced-cost pass per pivot.  A dense two-phase
simplex backs the joint barycenter LP; it enters the column of most
negative reduced cost (Dantzig's rule) and falls back to Bland's rule for
any pivot that would not move the objective, which keeps Bland's
termination guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, as_matrix, as_weights

#: Pivot / zero tolerance for the simplex tableau.
PIVOT_TOL = 1e-10
#: Feasibility tolerance promised on returned optimal solutions.
SOLUTION_TOL = 1e-9

MAX_OT_SIZE = 32
MAX_BARYCENTER_VARS = 400


@dataclass
class LpSolution:
    """Result of an exact LP solve in standard form min c'x, Ax = b, x >= 0.

    ``pivots`` counts basis changes and is deterministic for fixed inputs.
    From ``simplex_solve``: the pivots of phase 1, the drive-out of
    artificial variables and phase 2.  From ``_transport_simplex``: the
    cells of the north-west corner start plus the tree pivots.
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


def _transport_simplex(C, p, q, max_pivots: int, observe=None) -> LpSolution:
    """Transportation simplex on the m x n plan: min <C, X> over X >= 0
    with row sums p and column sums q, for nonnegative p and q of one
    total mass.

    The basis is a spanning tree of m + n - 1 cells over the row and
    column nodes, rooted at row 0, with potentials u (rows) and v
    (columns) such that u_i + v_j = C_ij on every tree cell.  Rows and
    columns of zero mass are set aside before the solve and get the
    largest potentials that keep their reduced costs nonnegative; with
    no mass on either side the plan is zero.

    * Start: the north-west corner places m + n - 1 cells.  Where the row
      and column run out together it moves right, and in the last column
      it takes the rest of the row, so each cell of zero mass hangs below
      its row (its column is the child): the tree is *strongly feasible*.
    * Entering cell: the most negative reduced cost of C - u (+) v over
      the cells off the tree, found in one vectorized pass; the solve is
      optimal once that minimum is >= -``PIVOT_TOL``.  Tree cells are
      left out: their reduced costs are zero only up to the rounding of
      u and v, which grows with |C|, and a tree cell taken as entering
      would close no cycle.
    * Leaving cell: the entering cell (k, l) closes a cycle through the
      apex w where the tree paths of row k and column l meet.  Walk it
      from w down to column l, across (k, l), and from row k up to w.
      Mass moves by theta, the least mass of the cells the walk
      decreases; of the cells at that least mass (blocking), the last
      one met leaves.
    * Update: the subtree the leaving cell cuts off re-hangs from the
      entering cell, and only its potentials are recomputed from C.

    Strong feasibility (each zero-mass cell has its column as the child)
    holds throughout; this is Cunningham's rule (1976).  On row k's path
    the cells that lose theta have their row as the child, hence positive
    mass, so theta = 0 only when the leaving cell is on column l's path.
    After the pivot every cell with its row as the child has positive
    mass.  Off the re-hung path (from the entering cell to the leaving
    one) orientations stay, and the cells that drop to zero are blocking
    cells met before the leaving one, which are on column l's path and
    have their column as the child.  On the re-hung path orientations
    flip, and a cell that ends with its row as the child either gained
    theta > 0 (k's side) or comes after the leaving cell in the walk (l's
    side), so was not blocking.  The entering cell has its row as the
    child only when k's side was cut off, and then carries theta > 0.

    Hence no cycling.  A pivot with theta > 0 lowers the cost.  One with
    theta = 0 cuts off a subtree that holds column l, and re-hanging it
    sets v_l <- C_kl - u_k = v_l + rc_kl < v_l: every column of the
    subtree drops by |rc_kl| and every row rises by it, so the sum of
    u_i - v_j rises.  Both quantities are functions of the tree, so no
    tree recurs.  The masses stay exactly nonnegative in floating point
    (x - theta >= 0 when x >= theta); ``max_pivots`` bounds the tree
    pivots where rounding of the potentials might void the argument.

    ``pivots`` counts basis changes: the cells the north-west corner
    places (each replaces an artificial, as a phase-1 pivot of the dense
    simplex would) plus the tree pivots.

    ``observe``, if given, is called with the tree after the start and
    after every pivot: a dict from each tree cell (i, j), indexed within
    the rows and columns of positive mass, to its mass and whether its
    column is the child.
    """
    C = as_matrix(C)
    p = as_weights(p)
    q = as_weights(q)
    rows = np.flatnonzero(p > 0)
    cols = np.flatnonzero(q > 0)
    if rows.size == 0 or cols.size == 0:
        # Nothing to move: the zero plan, with v_j = min_i C_ij.
        reduced = C - C.min(axis=0)
        return LpSolution(0.0, np.zeros(C.size), "optimal", reduced.ravel())
    sub = C[np.ix_(rows, cols)]
    cost = sub.tolist()
    a, b = p[rows].tolist(), q[cols].tolist()
    m, n = len(a), len(b)
    u, v = np.zeros(m), np.zeros(n)
    # Node r < m is row r, node m + c is column c; a tree cell is named by
    # its child node, whose parent is the other end.
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    adjacent = [[] for _ in range(m + n)]
    mass = {}
    tree = np.zeros((m, n), dtype=bool)

    def cell(node):
        return (node, parent[node] - m) if node < m else (parent[node], node - m)

    def hang(node, above):
        parent[node], depth[node] = above, depth[above] + 1
        i, j = cell(node)
        if node < m:
            u[i] = cost[i][j] - v[j]
        else:
            v[j] = cost[i][j] - u[i]

    def link(x, y):
        adjacent[x].append(y)
        adjacent[y].append(x)

    def report():
        if observe is not None:
            observe({cell(c): (mass[cell(c)], c >= m) for c in range(1, m + n)})

    i = j = 0
    node, above = m, 0
    while True:
        x = a[i] if j == n - 1 else min(a[i], b[j])
        mass[i, j] = x
        tree[i, j] = True
        a[i] -= x
        b[j] -= x
        link(node, above)
        hang(node, above)
        if i == m - 1 and j == n - 1:
            break
        if j == n - 1 or (i < m - 1 and a[i] < b[j]):
            i += 1
            node, above = i, m + j
        else:
            j += 1
            node, above = m + j, i

    report()
    for pivots in range(max_pivots + 1):
        reduced = sub - u[:, None] - v
        reduced[tree] = 0.0
        k, l = divmod(int(reduced.argmin()), n)
        if reduced[k, l] >= -PIVOT_TOL:
            break
        if pivots == max_pivots:
            raise RuntimeError("transport simplex exceeded pivot budget")
        # The tree paths of row k and column l up to the apex, as child
        # nodes; the cells at even positions lose theta, the others gain.
        x, y = k, m + l
        from_k, from_l = [], []
        while depth[x] > depth[y]:
            from_k.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            from_l.append(y)
            y = parent[y]
        while x != y:
            from_k.append(x)
            from_l.append(y)
            x, y = parent[x], parent[y]
        theta = min(mass[cell(c)] for c in from_k[::2] + from_l[::2])
        blocking_k = [c for c in from_k[::2] if mass[cell(c)] == theta]
        out = blocking_k[-1] if blocking_k else next(
            c for c in from_l[::2] if mass[cell(c)] == theta)
        for path in (from_k, from_l):
            for t, c in enumerate(path):
                mass[cell(c)] += -theta if t % 2 == 0 else theta
        mass[k, l] = theta
        del mass[cell(out)]
        tree[k, l] = True
        tree[cell(out)] = False
        adjacent[out].remove(parent[out])
        adjacent[parent[out]].remove(out)
        link(k, m + l)
        # Re-hang the cut-off subtree from the entering cell.
        stack = [(k, m + l) if out in from_k else (m + l, k)]
        while stack:
            node, above = stack.pop()
            hang(node, above)
            stack.extend((c, node) for c in adjacent[node] if c != above)
        report()

    plan = np.zeros(C.shape)
    for (i, j), x in mass.items():
        plan[rows[i], cols[j]] = x
    U, V = np.zeros(C.shape[0]), np.zeros(C.shape[1])
    U[rows], V[cols] = u, v
    # Zero-mass rows, then columns: the largest potentials with
    # nonnegative reduced costs.
    if rows.size < U.size:
        U[p <= 0] = (C[p <= 0][:, cols] - v).min(axis=1)
    if cols.size < V.size:
        V[q <= 0] = (C[:, q <= 0] - U[:, None]).min(axis=0)
    return LpSolution(
        objective=float(C.ravel() @ plan.ravel()),
        primal=plan.ravel(),
        status="optimal",
        reduced_costs=(C - U[:, None] - V).ravel(),
        pivots=m + n - 1 + pivots,
    )


def exact_ot_lp(C, p, q) -> LpSolution:
    """Exact optimum of the transport LP over U(p, q) at desk scale.

    Solved by ``_transport_simplex``.  Returns the optimal value, a vertex
    plan (flattened row-major into ``primal``) and the reduced costs
    C - u (+) v of an optimal dual pair; status "infeasible" when a
    weight is negative or the masses differ by more than
    ``SOLUTION_TOL``.
    """
    C = as_matrix(C)
    p = as_weights(p)
    q = as_weights(q)
    n = p.size
    if n > MAX_OT_SIZE:
        raise DomainError(f"exact_ot_lp refuses n={n} > {MAX_OT_SIZE}")
    if C.shape != (n, n) or q.size != n:
        raise DomainError("cost/marginal dimensions disagree")
    if (p < 0).any() or (q < 0).any() or not abs(p.sum() - q.sum()) <= SOLUTION_TOL:
        return LpSolution(float("nan"), np.full(n * n, np.nan), "infeasible")

    sol = _transport_simplex(C, p, q, max_pivots=200_000)
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
