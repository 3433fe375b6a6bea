"""Exact LP oracles: simplex correctness, transport LP, barycenter LP; a
grid search for the regularized barycenter."""

import numpy as np
import pytest

from otkit.core import (
    CostMatrix,
    DiscreteMeasure,
    DomainError,
    as_matrix,
    as_weights,
    reg_primal_objective,
)
from otkit.oracle import (
    exact_barycenter_lp,
    exact_ot_lp,
    simplex_solve,
    _run_simplex,
    _transport_simplex,
)
from otkit.rounding import round_to_polytope
from otkit.sinkhorn import sinkhorn_solve
from conftest import random_instance, random_measures


class TestSimplex:
    def test_basic_lp(self):
        # min -x1 - 2 x2 s.t. x1 + x2 + s = 4, x1 + 3 x2 + t = 6
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
        b = np.array([4.0, 6.0])
        sol = simplex_solve(c, A, b)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-5.0)  # x = (3, 1)
        assert np.allclose(sol.primal[:2], [3.0, 1.0])

    def test_infeasible(self):
        # x1 = 1 and x1 = 2 simultaneously
        sol = simplex_solve(np.zeros(1), np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
        assert sol.status == "infeasible"

    def test_unbounded(self):
        # min -x1 with only x2 pinned
        sol = simplex_solve(np.array([-1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([1.0]))
        assert sol.status == "unbounded"

    def test_redundant_rows_handled(self):
        # duplicate constraint rows
        c = np.array([1.0, 1.0])
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0])
        sol = simplex_solve(c, A, b)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)

    def test_beale_cycling_lp(self):
        # Beale's LP: Dantzig's rule with smallest-index ties cycles from the
        # slack basis (x1, x2, x3); the optimum is -1/20.
        c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0])
        A = np.array([[1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
                      [0.0, 1.0, 0.0, 0.5, -90.0, -0.02, 3.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        sol = simplex_solve(c, A, b)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-0.05, abs=1e-12)
        # from the cycling basis itself, with a budget pure Dantzig exhausts
        T = np.zeros((4, 8))
        T[:3, :7], T[:3, -1], T[-1, :7] = A, b, c
        status, _ = _run_simplex(T, np.arange(3), max_pivots=100)
        assert status == "optimal"
        assert -T[-1, -1] == pytest.approx(-0.05, abs=1e-12)


def _marginal_rows(n):
    """Row sums, then column sums, of a row-major n x n plan."""
    return np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))])


def _highs(c, A, b):
    from scipy.optimize import linprog

    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def _transport_instance(kind, n):
    C, p, q = random_instance(500 + n, n)
    if kind == "uniform":  # p = q: the diagonal plan is optimal and degenerate
        p = q = np.full(n, 1.0 / n)
    elif kind == "integer":  # many tied costs
        U = np.random.default_rng(n).integers(0, 3, (n, n))
        C = CostMatrix((U + U.T).astype(float))
    return C, p, q


class TestAgreesWithHighs:
    @pytest.mark.parametrize("kind", ["random", "uniform", "integer"])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_transport(self, kind, n):
        C, p, q = _transport_instance(kind, n)
        sol = exact_ot_lp(C, p, q)
        assert sol.status == "optimal"
        highs = _highs(C.entries.ravel(), _marginal_rows(n), np.concatenate([p, q]))
        assert abs(sol.objective - highs) <= 1e-9
        plan = sol.primal.reshape(n, n)
        assert np.abs(plan.sum(axis=1) - p).max() <= 1e-9
        assert np.abs(plan.sum(axis=0) - q).max() <= 1e-9
        assert sol.reduced_costs.min() >= -1e-9
        assert np.abs(sol.primal * sol.reduced_costs).max() <= 1e-9

    @pytest.mark.parametrize("m, n", [(2, 3), (6, 8)])
    def test_barycenter(self, m, n):
        C, measures = random_measures(600 + n, m, n)
        ps = [mu.weights for mu in measures]
        q_opt, val = exact_barycenter_lp(ps, C)
        # plans (l, i, j) then q: row sums p_l, column sums q
        q_cols = np.vstack([np.zeros((n, n)), -np.eye(n)])
        A = np.hstack([np.kron(np.eye(m), _marginal_rows(n)), np.tile(q_cols, (m, 1))])
        b = np.concatenate([np.concatenate([pl, np.zeros(n)]) for pl in ps])
        cost = np.concatenate([np.tile(C.entries.ravel() / m, m), np.zeros(n)])
        assert abs(val - _highs(cost, A, b)) <= 1e-9
        assert q_opt.sum() == pytest.approx(1.0, abs=1e-9)


class TestExactOtLp:
    def test_diagonal_optimum(self):
        p = np.array([0.3, 0.7])
        C = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        sol = exact_ot_lp(C, p, p)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.primal.reshape(2, 2), np.diag(p), atol=1e-12)

    def test_hand_derived_two_by_two(self):
        # cost = 0.9 - 2 pi_00, maximized pi_00 = min(p_0, q_0) = 0.3
        C = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        sol = exact_ot_lp(C, [0.3, 0.7], [0.6, 0.4])
        assert sol.objective == pytest.approx(0.3, abs=1e-12)
        assert np.allclose(sol.primal.reshape(2, 2), [[0.3, 0.0], [0.3, 0.4]], atol=1e-12)

    def test_lower_bounds_any_feasible_plan(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            C, p, q = random_instance(40 + seed, 6)
            opt = exact_ot_lp(C, p, q).objective
            raw = rng.uniform(0.0, 1.0, (6, 6))
            raw /= raw.sum()
            feasible = round_to_polytope(raw, p, q)
            assert opt <= float((feasible.entries * C.entries).sum()) + 1e-9

    def test_vertex_support_size(self):
        for seed in range(5):
            C, p, q = random_instance(60 + seed, 7)
            sol = exact_ot_lp(C, p, q)
            assert np.count_nonzero(sol.primal > 1e-12) <= 2 * 7 - 1

    def test_optimality_certificate(self):
        C, p, q = random_instance(77, 8)
        sol = exact_ot_lp(C, p, q)
        assert sol.reduced_costs is not None
        assert sol.reduced_costs.min() >= -1e-9
        # complementary slackness: positive variables have zero reduced cost
        slack = np.abs(sol.primal * sol.reduced_costs)
        assert slack.max() <= 1e-9

    def test_feasibility_of_solution(self):
        C, p, q = random_instance(78, 9)
        sol = exact_ot_lp(C, p, q)
        plan = sol.primal.reshape(9, 9)
        assert np.abs(plan.sum(axis=1) - p).max() <= 1e-9
        assert np.abs(plan.sum(axis=0) - q).max() <= 1e-9

    def test_pivot_count_below_bland(self):
        # Bland's rule throughout took 2053 pivots on this instance
        C, p, q = random_instance(0, 32)
        first, second = exact_ot_lp(C, p, q), exact_ot_lp(C, p, q)
        assert first.pivots == second.pivots < 2053

    def test_size_refusal(self):
        n = 33
        with pytest.raises(DomainError):
            exact_ot_lp(np.zeros((n, n)), np.full(n, 1 / n), np.full(n, 1 / n))


def _tied_instance(seed):
    """Integer marginals in {0, 1, 2} (zero-mass rows and columns) and
    integer costs in {0, 1, 2}: degenerate pivots and tied reduced costs
    everywhere."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    C = rng.integers(0, 3, (n, n)).astype(float)
    p, q = (rng.integers(0, 3, n).astype(float) for _ in range(2))
    p[rng.integers(n)] += 1.0
    q[rng.integers(n)] += 1.0
    return C, p / p.sum(), q / q.sum()


class TestTransportSimplex:
    @pytest.mark.parametrize("kind", ["random", "uniform", "integer"])
    def test_pivot_budget(self, kind):
        # the dense simplex took 670, 2431 and 654 pivots on these instances
        C, p, q = _transport_instance(kind, 32)
        first, second = exact_ot_lp(C, p, q), exact_ot_lp(C, p, q)
        assert first.pivots == second.pivots <= 250
        assert np.array_equal(first.primal, second.primal)

    def test_matches_dense_simplex_on_ties(self):
        for seed in range(200):
            C, p, q = _tied_instance(seed)
            n = p.size
            sol = _transport_simplex(C, p, q, max_pivots=20 * n * n)
            ref = simplex_solve(C.ravel(), _marginal_rows(n), np.concatenate([p, q]))
            plan = sol.primal.reshape(n, n)
            assert sol.pivots <= 20 * n * n, seed
            assert abs(sol.objective - ref.objective) <= 1e-12, seed
            assert np.abs(plan.sum(axis=1) - p).max() <= 1e-12, seed
            assert np.abs(plan.sum(axis=0) - q).max() <= 1e-12, seed
            assert sol.reduced_costs.min() >= -1e-9, seed
            assert np.abs(sol.primal * sol.reduced_costs).max() <= 1e-9, seed

    def test_strongly_feasible_after_every_pivot(self):
        # Cunningham's leaving rule: every tree cell of zero mass has its
        # column as the child.  Leaving by the first blocking cell instead
        # of the last breaks this on tied instances.
        trees = degenerate = 0

        def check(tree):
            nonlocal trees, degenerate
            trees += 1
            for cell, (mass, column_is_child) in tree.items():
                assert mass >= 0.0, cell
                if mass == 0.0:
                    degenerate += 1
                    assert column_is_child, cell

        for seed in range(200):
            C, p, q = _tied_instance(seed)
            _transport_simplex(C, p, q, max_pivots=20 * p.size ** 2, observe=check)
        assert trees > 400 and degenerate > 0

    def test_large_costs(self):
        # u_i + v_j = C_ij holds on tree cells only up to rounding, which
        # grows with |C|: a tree cell must never be taken as entering.
        for seed in range(40):
            n = 4 + seed % 13
            C, p, q = random_instance(seed, n)
            C = C.entries * 1e10
            sol = exact_ot_lp(C, p, q)
            ref = simplex_solve(C.ravel(), _marginal_rows(n), np.concatenate([p, q]))
            assert sol.status == "optimal", seed
            assert abs(sol.objective - ref.objective) <= 1e-9 * ref.objective, seed
            assert sol.reduced_costs.min() >= -1e-9 * C.max(), seed

    def test_pivot_budget_error(self):
        C, p, q = random_instance(0, 8)
        with pytest.raises(RuntimeError, match="pivot budget"):
            _transport_simplex(C, p, q, max_pivots=0)

    def test_unbalanced_masses_infeasible(self):
        C, p, q = random_instance(79, 6)
        q = q.copy()
        q[0] += 1e-6
        sol = exact_ot_lp(C, p, q)
        assert sol.status == "infeasible"
        assert np.isnan(sol.objective)
        negative = np.array([1.5, -0.5, 0.0, 0.0, 0.0, 0.0])
        assert exact_ot_lp(C, negative, np.full(6, 1 / 6)).status == "infeasible"

    def test_zero_mass_zero_plan(self):
        C = np.arange(9.0).reshape(3, 3)
        sol = exact_ot_lp(C, np.zeros(3), np.zeros(3))
        assert sol.status == "optimal" and sol.objective == 0.0
        assert np.array_equal(sol.primal, np.zeros(9))
        assert sol.reduced_costs.min() == 0.0

    def test_does_not_call_dense_simplex(self, monkeypatch):
        import otkit.oracle

        def refuse(*args, **kwargs):
            raise AssertionError("exact_ot_lp called simplex_solve")

        monkeypatch.setattr(otkit.oracle, "simplex_solve", refuse)
        C, p, q = random_instance(80, 10)
        assert exact_ot_lp(C, p, q).status == "optimal"


class TestExactBarycenterLp:
    def test_single_measure(self):
        C, p, _ = random_instance(90, 4)
        q_opt, val = exact_barycenter_lp([p], C)
        assert val == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(q_opt, p, atol=1e-9)

    def test_identical_measures(self):
        C, p, _ = random_instance(91, 5)
        q_opt, val = exact_barycenter_lp([p, p, p], C)
        assert val == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(q_opt, p, atol=1e-9)

    def test_never_above_candidate_marginals(self):
        # the optimum is at most the value of placing q at any single p_l
        C, p, q = random_instance(92, 3)
        _, val = exact_barycenter_lp([p, q], C)
        at_p = 0.5 * (exact_ot_lp(C, p, p).objective + exact_ot_lp(C, q, p).objective)
        at_q = 0.5 * (exact_ot_lp(C, p, q).objective + exact_ot_lp(C, q, q).objective)
        assert val <= min(at_p, at_q) + 1e-9

    def test_size_refusal(self):
        C = np.zeros((8, 8))
        ms = [np.full(8, 1 / 8)] * 8  # 8 * 64 + 8 = 520 > 400
        with pytest.raises(DomainError):
            exact_barycenter_lp(ms, C)


#: The grid search below refuses larger supports.
MAX_GRID_SUPPORT = 3


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
        _, plan = sinkhorn_solve(C, gamma, p, q, eps_prime=1e-10, check_every=1)
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


class TestRegularizedGrid:
    def test_identical_measures_small_gamma(self):
        # at small gamma the regularized minimizer is near p, so the best
        # grid point is within one cell of it
        C, p, _ = random_instance(95, 2)
        gamma = 0.05 * C.inf_norm
        q_grid, _ = regularized_wb_grid([p, p], C, gamma, grid_step=0.1)
        assert np.abs(q_grid - p).max() <= 0.1 + 1e-12

    def test_refinement_monotonicity(self):
        C, p, q = random_instance(96, 2)
        gamma = 0.2 * C.inf_norm
        _, coarse = regularized_wb_grid([p, q], C, gamma, grid_step=0.125)
        _, fine = regularized_wb_grid([p, q], C, gamma, grid_step=0.0625)
        assert fine <= coarse + 1e-12

    def test_matches_ibp_on_two_point_support(self):
        from otkit.barycenter import BarycenterProblem, ibp_solve

        C, p, q = random_instance(97, 2)
        gamma = 0.2 * C.inf_norm
        step = 0.05
        q_grid, _ = regularized_wb_grid([p, q], C, gamma, grid_step=step)
        problem = BarycenterProblem((DiscreteMeasure(p), DiscreteMeasure(q)), C, gamma)
        sol = ibp_solve(problem, eps_prime=1e-8)
        assert np.abs(q_grid - sol.q_bar).max() <= step + 1e-4

    def test_size_refusal(self):
        with pytest.raises(DomainError):
            regularized_wb_grid([np.full(4, 0.25)], np.zeros((4, 4)), 0.1, 0.1)


def test_grid_consistent_with_long_sinkhorn():
    # the grid oracle's per-point evaluation agrees with a direct solve
    C, p, q = random_instance(98, 2)
    gamma = 0.3 * C.inf_norm
    state, plan = sinkhorn_solve(C, gamma, p, q, eps_prime=1e-10, check_every=1)
    direct = reg_primal_objective(plan.entries, C, gamma)
    q_grid, val = regularized_wb_grid([p], C, gamma, grid_step=0.02)
    # minimizing over q can only do as well as or better than W_gamma(p, q)
    assert val <= direct + 1e-6
