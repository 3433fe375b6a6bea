"""Barycenter solvers: IBP half-steps, pipelines, the smooth dual, conjugates."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from otkit.aam import accelerated_ot
from otkit.barycenter import (
    BarycenterProblem,
    WbDualState,
    accelerated_ibp,
    barycenter_ibp,
    fenchel_dual_gradient,
    fenchel_dual_ot,
    ibp_solve,
    ibp_step,
    wb_dual_gradients,
    wb_dual_objective,
)
from otkit.core import DiscreteMeasure, DomainError, reg_primal_objective
from otkit.oracle import exact_barycenter_lp, exact_ot_lp
from otkit.sinkhorn import approx_ot_sinkhorn, sinkhorn_solve
from conftest import grid_cost, random_instance, random_measures


def make_problem(seed, m, n, gamma_scale=0.2):
    C, measures = random_measures(seed, m, n)
    return BarycenterProblem(tuple(measures), C, gamma_scale * C.inf_norm)


def log_domain_ibp(problem, eps_prime, max_sweeps=100_000):
    """Reference IBP loop: every half-step is a log-sum-exp over the stacked
    log couplings.  Returns the half-step count and the (m, n, n) couplings
    at the first sweep whose column marginals agree to eps_prime."""
    logK = problem.log_kernel
    P = problem.measure_stack()
    u, v = np.zeros_like(P), np.zeros_like(P)
    for sweep in range(1, max_sweeps + 1):
        s = logsumexp(logK[None] + u[:, :, None], axis=1)
        v = s.mean(axis=0)[None] - s
        u = np.log(P) - logsumexp(logK[None] + v[:, None, :], axis=2)
        plans = np.exp(u[:, :, None] + v[:, None, :] + logK[None])
        cols = plans.sum(axis=1)
        if np.abs(cols - cols.mean(axis=0)).sum(axis=1).mean() <= eps_prime:
            return 2 * sweep, plans
    raise AssertionError("reference did not converge")


class TestIbpStep:
    def test_single_measure_v_update_is_zero(self):
        problem = make_problem(50, 1, 4)
        state = WbDualState.initial(1, 4)
        state = ibp_step(state, problem)  # v half-step comes first
        assert np.abs(state.v).max() == 0.0

    def test_v_update_preserves_zero_sum(self):
        problem = make_problem(51, 3, 5)
        state = WbDualState.initial(3, 5)
        for _ in range(8):
            state = ibp_step(state, problem)
            assert np.abs(state.v.sum(axis=0)).max() <= 1e-9

    def test_u_update_matches_row_marginals(self):
        problem = make_problem(52, 3, 5)
        state = WbDualState.initial(3, 5)
        state = ibp_step(state, problem)
        state = ibp_step(state, problem)  # u half-step
        logK = problem.log_kernel
        for l in range(3):
            B = np.exp(state.u[l][:, None] + state.v[l][None, :] + logK)
            assert np.abs(B.sum(axis=1) - problem.measures[l].weights).max() <= 1e-9

    def test_v_update_equalizes_column_marginals(self):
        problem = make_problem(53, 3, 4)
        state = WbDualState.initial(3, 4)
        for _ in range(3):
            state = ibp_step(state, problem)
            state = ibp_step(state, problem)
        state = ibp_step(state, problem)  # v half-step
        logK = problem.log_kernel
        cols = []
        for l in range(3):
            B = np.exp(state.u[l][:, None] + state.v[l][None, :] + logK)
            cols.append(B.sum(axis=0))
        cols = np.asarray(cols)
        assert np.abs(cols - cols[0]).max() <= 1e-9

    def test_identical_measures_fixed_after_one_sweep(self):
        C, measures = random_measures(54, 3, 4)
        problem = BarycenterProblem((measures[0],) * 3, C, 0.3 * C.inf_norm)
        state = WbDualState.initial(3, 4)
        state = ibp_step(state, problem)
        state = ibp_step(state, problem)
        again = ibp_step(ibp_step(state, problem), problem)
        assert np.abs(again.u - state.u).max() <= 1e-12
        assert np.abs(again.v - state.v).max() <= 1e-12

    def test_rejects_zero_measure_entries(self):
        C, measures = random_measures(55, 2, 3)
        problem = BarycenterProblem(
            (measures[0], DiscreteMeasure(np.array([0.5, 0.5, 0.0]))), C, 0.3
        )
        with pytest.raises(DomainError):
            ibp_step(WbDualState.initial(2, 3), problem)


class TestIbpSolve:
    def test_identical_measures_stop_immediately(self):
        C, measures = random_measures(56, 3, 5)
        problem = BarycenterProblem((measures[0],) * 3, C, 0.3 * C.inf_norm)
        sol = ibp_solve(problem, eps_prime=1e-8)
        assert sol.state.iteration == 2  # one sweep; spread is identically zero
        cols = np.stack([plan.sum(axis=0) for plan in sol.plans])
        assert np.abs(cols - cols[0]).max() <= 1e-12

    def test_mirror_symmetry_gives_palindromic_marginal(self):
        rng = np.random.default_rng(57)
        n = 6
        p1 = rng.uniform(0.5, 1.5, n)
        p1 /= p1.sum()
        p2 = p1[::-1].copy()
        C = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        problem = BarycenterProblem(
            (DiscreteMeasure(p1), DiscreteMeasure(p2)), C, 0.5
        )
        sol = ibp_solve(problem, eps_prime=1e-10)
        assert np.abs(sol.q_bar - sol.q_bar[::-1]).max() <= 1e-9

    def test_dual_value_matches_long_run(self):
        problem = make_problem(58, 3, 8)
        short = ibp_solve(problem, eps_prime=1e-6)
        long = ibp_solve(problem, eps_prime=1e-10)
        assert abs(
            wb_dual_objective(short.state, problem) - wb_dual_objective(long.state, problem)
        ) <= 1e-6

    def test_dual_monotone_per_half_sweep(self):
        # Each half-step is an exact block minimizer of the smooth dual.
        problem = make_problem(59, 3, 5)
        state = WbDualState.initial(3, 5)
        last = wb_dual_objective(state, problem)
        for _ in range(30):
            state = ibp_step(state, problem)
            value = wb_dual_objective(state, problem)
            assert value <= last + 1e-11
            last = value

    def test_stacked_kernel_matches_log_domain_when_absorbing(self):
        # ||C||_inf / gamma = 800: the per-measure scalings outgrow their
        # bound, so the shared kernel is absorbed into one per measure.
        rng = np.random.default_rng(61)
        measures = tuple(DiscreteMeasure(w) for w in rng.uniform(0.5, 1.5, (3, 16)))
        C = grid_cost(4)
        problem = BarycenterProblem(measures, C, C.inf_norm / 800.0)
        t_ref, plans_ref = log_domain_ibp(problem, 1e-6)
        sol = ibp_solve(problem, eps_prime=1e-6)
        assert sol.state.kernel.absorptions > 0
        assert sol.state.iteration == t_ref
        assert np.abs(np.stack(sol.plans) - plans_ref).max() <= 1e-12

    def test_trace_dual_value_takes_no_extra_pass(self, monkeypatch):
        # The trace row reads 1' B_l 1 off the sweep's column marginals, so
        # a traced solve makes no log_masses pass of its own.
        import otkit.kernel

        rng = np.random.default_rng(62)
        measures = tuple(DiscreteMeasure(w) for w in rng.uniform(0.5, 1.5, (3, 16)))
        C = grid_cost(4)
        problem = BarycenterProblem(measures, C, C.inf_norm / 800.0)
        calls = []
        log_masses = otkit.kernel.log_masses

        def counted(*args):
            calls.append(1)
            return log_masses(*args)

        monkeypatch.setattr(otkit.kernel, "log_masses", counted)
        trace: list[dict] = []
        sol = ibp_solve(problem, eps_prime=1e-6, trace=trace)
        assert sol.state.kernel.absorptions > 0
        assert calls == []
        expected = wb_dual_objective(sol.state, problem)
        assert trace[-1]["dual_value"] == pytest.approx(expected, rel=1e-12)

    def test_budget_exhaustion_carries_trace(self):
        from otkit.core import ConvergenceError

        problem = make_problem(58, 3, 8, gamma_scale=0.05)
        trace: list[dict] = []
        with pytest.raises(ConvergenceError) as err:
            ibp_solve(problem, eps_prime=1e-12, max_sweeps=3, trace=trace)
        assert err.value.trace and err.value.trace[-1]["sweep"] == 3

    def test_exactness_checks_recorded(self):
        problem = make_problem(60, 2, 4)
        checks: list[dict] = []
        ibp_solve(problem, eps_prime=1e-6, checks=checks)
        assert any(c["kind"] == "u" for c in checks)
        assert any(c["kind"] == "v" for c in checks)
        for c in checks:
            assert c.get("row_marginal_err", 0.0) <= 1e-9
            assert c.get("v_sum_err", 0.0) <= 1e-9
            assert c.get("col_coincide_err", 0.0) <= 1e-9


class TestBarycenterPipelines:
    def test_single_measure_recovers_input(self):
        C, measures = random_measures(61, 1, 4)
        q_bar, plans, report = barycenter_ibp(measures, C, eps=0.25 * C.inf_norm)
        assert exact_ot_lp(C, measures[0].weights, q_bar).objective <= 0.25 * C.inf_norm
        assert len(plans) == 1
        assert plans[0].feasible_for is not None

    def test_two_measure_gap_against_joint_lp(self):
        C, measures = random_measures(62, 2, 3)
        eps = 0.25 * C.inf_norm
        _, lp_val = exact_barycenter_lp([m.weights for m in measures], C)
        for solver in (barycenter_ibp, accelerated_ibp):
            q_bar, plans, _ = solver(measures, C, eps)
            val = np.mean(
                [exact_ot_lp(C, m.weights, q_bar).objective for m in measures]
            )
            assert val - lp_val <= eps

    def test_rounded_plans_exactly_feasible(self):
        # Both solvers round onto the caller's measures, not the smoothed ones.
        C, measures = random_measures(63, 2, 3)
        for solver in (barycenter_ibp, accelerated_ibp):
            q_bar, plans, _ = solver(measures, C, eps=0.25 * C.inf_norm)
            for plan, m in zip(plans, measures):
                assert np.abs(plan.row_marginals - m.weights).max() <= 1e-12
                assert np.abs(plan.col_marginals - q_bar).max() <= 1e-12

    def test_identical_measures_near_input(self):
        # the non-regularized optimum is p itself; the pipeline's marginal
        # must be eps-close in transport cost
        C, measures = random_measures(64, 3, 4)
        same = [measures[0]] * 3
        eps = 0.25 * C.inf_norm
        for solver in (barycenter_ibp, accelerated_ibp):
            q_bar, _, _ = solver(same, C, eps)
            assert exact_ot_lp(C, measures[0].weights, q_bar).objective <= eps

    def test_cross_solver_agreement(self):
        C, measures = random_measures(65, 3, 8)
        eps = 0.25 * C.inf_norm
        q_i, _, _ = barycenter_ibp(measures, C, eps)
        q_a, _, _ = accelerated_ibp(measures, C, eps)
        val_i = np.mean([exact_ot_lp(C, m.weights, q_i).objective for m in measures])
        val_a = np.mean([exact_ot_lp(C, m.weights, q_a).objective for m in measures])
        assert abs(val_i - val_a) <= eps

    def test_schedules_recorded(self):
        # The epsilon-pipeline's schedule table, one row per solver:
        # (solve, gamma * ln n / eps, eps' * ||C||_inf / eps).
        C, measures = random_measures(66, 2, 4)
        p, q = (m.weights for m in measures)
        eps = 0.3 * C.inf_norm
        table = (
            (lambda: approx_ot_sinkhorn(C, p, q, eps)[1], 1 / 4, 1 / 8),
            (lambda: accelerated_ot(C, p, q, eps)[1], 1 / 3, 1 / 8),
            (lambda: barycenter_ibp(measures, C, eps)[2], 1 / 4, 1 / 4),
            (lambda: accelerated_ibp(measures, C, eps)[2], 1 / 2, 1 / 8),
        )
        for solve, gamma_factor, eps_prime_factor in table:
            report = solve()
            assert report.params["gamma"] == pytest.approx(gamma_factor * eps / math.log(4))
            assert report.params["eps_prime"] == pytest.approx(eps_prime_factor * eps / C.inf_norm)
            assert report.params["short_circuit"] is False
            assert report.params["gamma_override"] is False

    def test_ibp_certificate_is_computed(self):
        # certificate = duality gap + rounding cost gap, as for accelerated_ibp
        for seed, eps_scale in ((70, 0.25), (71, 0.1)):
            C, measures = random_measures(seed, 3, 6)
            eps = eps_scale * C.inf_norm
            _, _, report = barycenter_ibp(measures, C, eps)
            cert = report.certificate
            assert math.isfinite(cert) and cert >= 0.0
            assert cert != eps
            # on these instances the computed bound is well inside eps
            assert cert < 0.5 * eps

    def test_aibp_line_search_passes_per_iteration(self):
        C, measures = random_measures(65, 3, 8)
        _, _, report = accelerated_ibp(measures, C, 0.03 * C.inf_norm)
        assert report.iterations > 10
        assert 0 < report.extras["line_search_evals"] <= 8 * report.iterations

    def test_aibp_exactness_checks(self):
        C, measures = random_measures(67, 2, 3)
        checks: list[dict] = []
        accelerated_ibp(measures, C, eps=0.25 * C.inf_norm, checks=checks)
        for c in checks:
            assert c.get("row_marginal_err", 0.0) <= 1e-9
            assert c.get("v_sum_err", 0.0) <= 1e-9
            assert c.get("col_coincide_err", 0.0) <= 1e-9


class TestSmoothWbDual:
    def test_origin_zero_cost(self):
        n, gamma = 4, 0.3
        uniform = DiscreteMeasure(np.full(n, 1.0 / n))
        problem = BarycenterProblem((uniform, uniform), np.zeros((n, n)), gamma)
        val = wb_dual_objective((np.zeros((2, n)), np.zeros((2, n))), problem)
        assert val == pytest.approx(2.0 * gamma * math.log(n))

    def test_per_block_shift_invariance(self):
        problem = make_problem(68, 2, 4)
        rng = np.random.default_rng(3)
        u = rng.normal(size=(2, 4))
        v = rng.normal(size=(2, 4))
        base = wb_dual_objective((u, v), problem)
        shifted = wb_dual_objective((u + np.array([[1.3], [-0.4]]), v), problem)
        assert shifted == pytest.approx(base, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        problem = make_problem(69, 2, 3)
        rng = np.random.default_rng(4)
        u = rng.normal(size=(2, 3))
        v = rng.normal(size=(2, 3))
        gu, gv = wb_dual_gradients((u, v), problem)
        x = np.concatenate([u.ravel(), v.ravel()])

        def f(z):
            return wb_dual_objective((z[:6].reshape(2, 3), z[6:].reshape(2, 3)), problem)

        fd = np.zeros(x.size)
        for k in range(x.size):
            h = 1e-6 * (1.0 + abs(x[k]))
            e = np.zeros(x.size)
            e[k] = h
            fd[k] = (f(x + e) - f(x - e)) / (2 * h)
        grad = np.concatenate([gu.ravel(), gv.ravel()])
        assert np.linalg.norm(grad - fd) / np.linalg.norm(grad) <= 1e-5

    def test_gradient_blocks_vanish_at_ibp_fixed_point(self):
        problem = make_problem(70, 2, 4)
        sol = ibp_solve(problem, eps_prime=1e-12)
        gu, gv = wb_dual_gradients(sol.state, problem)
        assert np.abs(gu).max() <= 1e-9
        # v-gradient vanishes in the constrained subspace
        assert np.abs(gv - gv.mean(axis=0)).max() <= 1e-9


class TestFenchelConjugate:
    def test_value_at_origin_zero_cost(self):
        n, gamma = 5, 0.4
        rng = np.random.default_rng(5)
        p = rng.uniform(0.5, 1.5, n)
        p /= p.sum()
        val = fenchel_dual_ot(np.zeros(n), p, np.zeros((n, n)), gamma)
        assert val == pytest.approx(gamma * math.log(n) - gamma * float(p @ np.log(p)))

    def test_constant_shift_adds_exactly(self):
        C, p, _ = random_instance(71, 5)
        u = np.random.default_rng(6).normal(size=5)
        base = fenchel_dual_ot(u, p, C, 0.3)
        assert fenchel_dual_ot(u + 0.9, p, C, 0.3) == pytest.approx(base + 0.9, abs=1e-10)

    def test_fenchel_inequality(self):
        C, p, q = random_instance(72, 5)
        gamma = 0.3 * C.inf_norm
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.normal(size=5)
            # W_gamma(q, p) from a tight regularized solve
            _, plan = sinkhorn_solve(C, gamma, q, p, 1e-10, check_every=1)
            w_gamma = reg_primal_objective(plan.entries, C, gamma)
            assert fenchel_dual_ot(u, p, C, gamma) >= float(u @ q) - w_gamma - 1e-8

    def test_midpoint_convexity(self):
        C, p, _ = random_instance(73, 4)
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = rng.normal(size=4), rng.normal(size=4)
            mid = fenchel_dual_ot(0.5 * (a + b), p, C, 0.4)
            assert mid <= 0.5 * (
                fenchel_dual_ot(a, p, C, 0.4) + fenchel_dual_ot(b, p, C, 0.4)
            ) + 1e-12

    def test_gradient_on_simplex(self):
        C, p, _ = random_instance(74, 6)
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = fenchel_dual_gradient(rng.normal(size=6), p, C, 0.5)
            assert g.min() >= 0.0
            assert g.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gradient_uniform_at_origin_zero_cost(self):
        p = np.array([0.4, 0.35, 0.25])
        g = fenchel_dual_gradient(np.zeros(3), p, np.zeros((3, 3)), 0.7)
        assert np.allclose(g, 1.0 / 3.0, atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        C, p, _ = random_instance(75, 4)
        rng = np.random.default_rng(10)
        u = rng.normal(size=4)
        g = fenchel_dual_gradient(u, p, C, 0.5)
        fd = np.zeros(4)
        for k in range(4):
            h = 1e-6 * (1.0 + abs(u[k]))
            e = np.zeros(4)
            e[k] = h
            fd[k] = (
                fenchel_dual_ot(u + e, p, C, 0.5) - fenchel_dual_ot(u - e, p, C, 0.5)
            ) / (2 * h)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) <= 1e-5

    def test_rejects_zero_measure_entry(self):
        with pytest.raises(DomainError):
            fenchel_dual_ot(np.zeros(2), np.array([1.0, 0.0]), np.zeros((2, 2)), 0.5)
