"""Accelerated alternating minimization: smooth dual, iterate algebra, pipeline."""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from otkit.aam import (
    AamState,
    _aam_step,
    _dual_at,
    _slope_and_curvature,
    aam_iterate,
    aam_solve,
    accelerated_ot,
    distance_bound,
    dual_objective_lip,
    dual_partial_gradients,
    newton_line_search,
    normalized_coupling,
)
from otkit.barycenter import (
    BarycenterProblem,
    accelerated_ibp,
    fenchel_dual_gradients,
    fenchel_dual_values,
    wb_dual_gradients,
    wb_dual_objective,
)
from otkit.core import DomainError, NumericalError, reg_primal_objective, transport_cost
from otkit.kernel import conjugate_pass, couplings, dual_value
from otkit.oracle import exact_ot_lp
from otkit.sinkhorn import approx_ot_sinkhorn
from otkit.verify import approx_instances
from otkit.io import dump_report_json
from conftest import random_instance, random_measures


def _phi(state_vec, C, gamma, p, q):
    n = state_vec.size // 2
    return dual_objective_lip((state_vec[:n], state_vec[n:]), C, gamma, p, q)


class TestSmoothDual:
    def test_origin_zero_cost(self):
        n, gamma = 6, 0.3
        p = np.full(n, 1.0 / n)
        val = dual_objective_lip((np.zeros(n), np.zeros(n)), np.zeros((n, n)), gamma, p, p)
        assert val == pytest.approx(2.0 * gamma * math.log(n))

    def test_shift_invariance(self):
        C, p, q = random_instance(30, 5)
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=5), rng.normal(size=5)
        base = dual_objective_lip((u, v), C, 0.4, p, q)
        shifted = dual_objective_lip((u + 3.7, v - 1.2), C, 0.4, p, q)
        assert shifted == pytest.approx(base, abs=1e-10)

    def test_matches_sinkhorn_fixed_point_value(self):
        # at a converged dual point, -phi equals the regularized objective
        from otkit.sinkhorn import sinkhorn_solve

        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        gamma = 0.05
        state, plan = sinkhorn_solve(C, gamma, p, q, 1e-11, check_every=1)
        phi = dual_objective_lip(state, C, gamma, p, q)
        assert -phi == pytest.approx(reg_primal_objective(plan.entries, C, gamma), abs=1e-9)


class TestGradients:
    def test_zero_where_marginal_matches(self):
        n = 4
        p = np.full(n, 1.0 / n)
        q = np.array([0.4, 0.3, 0.2, 0.1])
        gu, gv = dual_partial_gradients(
            (np.zeros(n), np.zeros(n)), np.zeros((n, n)), 0.5, p, q
        )
        assert np.abs(gu).max() <= 1e-15
        assert np.allclose(gv, 0.5 * (np.full(n, 1.0 / n) - q))

    def test_blocks_sum_to_zero(self):
        C, p, q = random_instance(31, 6)
        rng = np.random.default_rng(1)
        gu, gv = dual_partial_gradients(
            (rng.normal(size=6), rng.normal(size=6)), C, 0.3, p, q
        )
        assert abs(gu.sum()) <= 1e-12
        assert abs(gv.sum()) <= 1e-12

    def test_finite_differences(self):
        C, p, q = random_instance(32, 4)
        rng = np.random.default_rng(2)
        x = rng.normal(size=8)
        gu, gv = dual_partial_gradients((x[:4], x[4:]), C, 0.6, p, q)
        grad = np.concatenate([gu, gv])
        fd = np.zeros(8)
        for k in range(8):
            h = 1e-6 * (1.0 + abs(x[k]))
            e = np.zeros(8)
            e[k] = h
            fd[k] = (_phi(x + e, C, 0.6, p, q) - _phi(x - e, C, 0.6, p, q)) / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(grad) <= 1e-5


class TestIterate:
    def test_first_step_weight_formula(self):
        # with zero accumulated weight, a1 = 2 delta / ||grad||^2
        C, p, q = random_instance(33, 5)
        gamma = 0.3
        state0 = AamState.initial(C, gamma)
        state1 = aam_iterate(state0, C, gamma, p, q)
        mu = state1.mu
        gu, gv = dual_partial_gradients((mu[:5], mu[5:]), C, gamma, p, q)
        gsq = float(gu @ gu + gv @ gv)
        delta = _phi(mu, C, gamma, p, q) - _phi(state1.eta, C, gamma, p, q)
        assert state1.A_big == pytest.approx(2.0 * delta / gsq, rel=1e-10)

    def test_step_equation_residual(self):
        C, p, q = random_instance(34, 6)
        gamma = 0.2 * C.inf_norm
        state = AamState.initial(C, gamma)
        for _ in range(15):
            prev = state
            state = aam_iterate(state, C, gamma, p, q)
            a = state.A_big - prev.A_big
            mu = state.mu
            gu, gv = dual_partial_gradients((mu[:6], mu[6:]), C, gamma, p, q)
            gsq = float(gu @ gu + gv @ gv)
            residual = (
                _phi(mu, C, gamma, p, q)
                - a * a / (2.0 * (prev.A_big + a)) * gsq
                - _phi(state.eta, C, gamma, p, q)
            )
            assert abs(residual) <= 1e-10

    def test_monotone_dual_values(self):
        C, p, q = random_instance(35, 8)
        gamma = 0.15 * C.inf_norm
        state = AamState.initial(C, gamma)
        last = _phi(state.eta, C, gamma, p, q)
        for _ in range(40):
            state = aam_iterate(state, C, gamma, p, q)
            value = _phi(state.eta, C, gamma, p, q)
            assert value <= last + 1e-11
            last = value

    def test_state_carries_dual_value_at_eta(self):
        C, p, q = random_instance(35, 8)
        gamma = 0.15 * C.inf_norm
        state = AamState.initial(C, gamma)
        for _ in range(10):
            state = aam_iterate(state, C, gamma, p, q)
            assert state.phi_eta == _phi(state.eta, C, gamma, p, q)

    def test_accumulated_weight_nondecreasing(self):
        C, p, q = random_instance(36, 5)
        state = AamState.initial(C, 0.3)
        for _ in range(20):
            prev = state
            state = aam_iterate(state, C, 0.3, p, q)
            assert state.A_big >= prev.A_big

    def test_plan_average_simplex(self):
        C, p, q = random_instance(37, 6)
        state = AamState.initial(C, 0.2)
        for _ in range(30):
            state = aam_iterate(state, C, 0.2, p, q)
            assert state.plan_avg.min() >= 0.0
            assert state.plan_avg.sum() == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariance_pointwise(self):
        # the normalization leaves the dual value, both gradient blocks and
        # the coupling unchanged at any point
        C, p, q = random_instance(38, 5)
        rng = np.random.default_rng(12)
        for _ in range(10):
            u, v = rng.normal(size=5) * 3, rng.normal(size=5) * 3
            us, vs = u - u.max(), v - v.max()
            assert dual_objective_lip((us, vs), C, 0.3, p, q) == pytest.approx(
                dual_objective_lip((u, v), C, 0.3, p, q), abs=1e-12
            )
            g1 = np.concatenate(dual_partial_gradients((u, v), C, 0.3, p, q))
            g2 = np.concatenate(dual_partial_gradients((us, vs), C, 0.3, p, q))
            assert np.abs(g1 - g2).max() <= 1e-12
            assert np.abs(
                normalized_coupling(u, v, C, 0.3) - normalized_coupling(us, vs, C, 0.3)
            ).max() <= 1e-12


def _absorbing_instance(seed, n):
    """Support point 0 lies at cost >= 1 from every point, itself included,
    and gamma = 0.01: the couplings' row and column 0 start near
    exp(-100) relative to the rest, so the exact steps' scalings leave
    their bound and the scaling kernel absorbs them."""
    C, p, q = random_instance(seed, n)
    C = C.entries.copy()
    C[0, :] = C[:, 0] = 1.0 + np.random.default_rng(seed).uniform(0.0, 1.0, n)
    C[0, 0] = 1.0
    return C, p, q, 0.01


def _engine_instances():
    C, p, q = random_instance(44, 7)
    yield "plain", C.entries, p, q, 0.2 * C.inf_norm
    yield ("absorbing", *_absorbing_instance(45, 7))


class TestEngine:
    def test_one_pass_matches_public_views(self):
        for label, C, p, q, gamma in _engine_instances():
            state = AamState.initial(C, gamma)
            absorptions = 0
            for _ in range(12):
                state = aam_iterate(state, C, gamma, p, q)
                u, v = state.mu[:7], state.mu[7:]
                phi, gu, gv, pi, _ = _dual_at(u[None], v[None], -C / gamma, gamma, p[None], q[None])
                ref_gu, ref_gv = dual_partial_gradients((u, v), C, gamma, p, q)
                assert abs(phi - dual_objective_lip((u, v), C, gamma, p, q)) <= 1e-13, label
                assert np.abs(gu[0] - ref_gu).max() <= 1e-13, label
                assert np.abs(gv[0] - ref_gv).max() <= 1e-13, label
                assert np.abs(pi[0] - normalized_coupling(u, v, C, gamma)).max() <= 1e-13, label
                absorptions = state.absorptions
            assert (absorptions > 0) == (label == "absorbing")

    def test_kernel_matches_dense_logsumexp_reference(self):
        # exp(-C / gamma) underflows at row and column 0; the reference
        # normalizes every dense log array by scipy's logsumexp instead.
        C, _, _, _ = _absorbing_instance(50, 7)
        gamma = 1.0 / 800.0
        L = -C / gamma
        assert np.exp(L).min() < 1e-300
        rng = np.random.default_rng(50)
        for m in (1, 3):
            u, v = rng.normal(size=(m, 7)), rng.normal(size=(m, 7))
            P, Q = rng.dirichlet(np.ones(7), size=m), rng.dirichlet(np.ones(7), size=m)
            log_b = u[:, :, None] + v[:, None, :] + L
            ref_log_mass = logsumexp(log_b, axis=(1, 2))
            ref_pi = np.exp(log_b - ref_log_mass[:, None, None])
            ref_phi = gamma * (ref_log_mass - (u * P).sum(axis=1) - (v * Q).sum(axis=1)).sum()
            pi, rows, cols, log_mass = couplings(u, v, L)
            assert np.abs(pi - ref_pi).max() <= 1e-13
            assert np.abs(rows - ref_pi.sum(axis=2)).max() <= 1e-13
            assert np.abs(cols - ref_pi.sum(axis=1)).max() <= 1e-13
            assert np.abs(log_mass - ref_log_mass).max() <= 1e-13 * np.abs(ref_log_mass).max()
            assert abs(dual_value(u, v, L, gamma, P, Q) - ref_phi) <= 1e-13 * abs(ref_phi)

            Z = (u[:, None, :] - C) / gamma  # [k, j, i] = (u_ki - C_ji) / gamma
            ref_lse = logsumexp(Z, axis=2)
            ref_soft = np.exp(Z - ref_lse[:, :, None])
            ref_values = gamma * ((P * ref_lse).sum(axis=1) - (P * np.log(P)).sum(axis=1))
            ref_grads = np.einsum("kj,kji->ki", P, ref_soft)
            soft, lse_rows = conjugate_pass(u, C, gamma)
            assert np.abs(soft - ref_soft).max() <= 1e-13
            assert np.abs(lse_rows - ref_lse).max() <= 1e-13 * np.abs(ref_lse).max()
            values = fenchel_dual_values(u, P, C, gamma)
            assert np.abs(values - ref_values).max() <= 1e-13 * np.abs(ref_values).max()
            assert np.abs(fenchel_dual_gradients(u, P, C, gamma) - ref_grads).max() <= 1e-13

    def test_one_pass_matches_barycenter_views(self):
        C, measures = random_measures(46, 3, 6)
        for gamma in (0.2 * C.inf_norm, 0.01 * C.inf_norm):
            problem = BarycenterProblem(tuple(measures), C, gamma)
            P, scale = problem.measure_stack(), gamma / 3
            state = AamState.initial(C, gamma, 3)
            for _ in range(12):
                state = _aam_step(state, problem.log_kernel, scale, P)
                u, v = state.mu[:, :6], state.mu[:, 6:]
                phi, gu, gv, pi, _ = _dual_at(u, v, problem.log_kernel, scale, P)
                ref_gu, ref_gv = wb_dual_gradients((u, v), problem)
                assert abs(phi - wb_dual_objective((u, v), problem)) <= 1e-13
                assert np.abs(gu - ref_gu).max() <= 1e-13
                assert np.abs(gv - (ref_gv - ref_gv.mean(axis=0))).max() <= 1e-13
                for l in range(3):
                    assert np.abs(pi[l] - normalized_coupling(u[l], v[l], C, gamma)).max() <= 1e-13

    def test_barycenter_engine_keeps_zero_sum(self):
        C, measures = random_measures(47, 4, 6)
        problem = BarycenterProblem(tuple(measures), C, 0.1 * C.inf_norm)
        state = AamState.initial(C, problem.gamma, 4)
        blocks = set()
        for _ in range(30):
            state = _aam_step(state, problem.log_kernel, problem.gamma / 4, problem.measure_stack())
            blocks.add(state.block)
            for x in (state.eta, state.zeta, state.mu):
                assert np.abs(x[:, 6:].sum(axis=0)).max() <= 1e-12
        assert blocks == {"u", "v"}
        checks: list[dict] = []
        accelerated_ibp(measures, C, 0.03 * C.inf_norm, checks=checks)
        v_rows = [c for c in checks if c["kind"] == "v"]
        assert v_rows and max(c["v_sum_err"] for c in v_rows) <= 1e-12

    def test_m1_path_matches_aam_iterate(self):
        for label, C, p, q, gamma in _engine_instances():
            flat = AamState.initial(C, gamma)
            stacked = AamState.initial(C, gamma, 1)
            for _ in range(15):
                flat = aam_iterate(flat, C, gamma, p, q)
                stacked = _aam_step(stacked, -C / gamma, gamma, p[None], q[None])
                for name in ("eta", "zeta", "mu", "plan_avg"):
                    a, b = getattr(flat, name), getattr(stacked, name)
                    assert np.array_equal(a, b.reshape(a.shape)), (label, name)
                for name in ("A_big", "phi_eta", "block", "line_search_evals",
                             "absorptions", "exp_passes"):
                    assert getattr(flat, name) == getattr(stacked, name), (label, name)

    def test_exp_passes_count_every_pass(self):
        for label, C, p, q, gamma in _engine_instances():
            state = AamState.initial(C, gamma)
            assert state.exp_passes == 1
            for _ in range(15):
                state = aam_iterate(state, C, gamma, p, q)
                assert state.exp_passes == (
                    1 + state.line_search_evals + 2 * state.iteration + 2 * state.absorptions
                ), label
        for _, (C, p, q) in approx_instances():
            _, report = accelerated_ot(C, p.weights, q.weights, 0.1 * C.inf_norm)
            assert report.extras["exp_passes"] == (
                report.extras["line_search_evals"] + 2 * report.iterations + 1
            )
            _, report = aam_solve(C, 0.05 * C.inf_norm, p.weights, q.weights,
                                  gap_tol=2e-7, check_every=5)
            assert report.extras["exp_passes"] == (
                report.extras["line_search_evals"] + 2 * report.iterations + 1
                + report.iterations // 5
            )
        C, measures = random_measures(65, 3, 8)
        _, _, report = accelerated_ibp(measures, C, 0.1 * C.inf_norm)
        assert report.extras["exp_passes"] == (
            report.extras["line_search_evals"] + 2 * report.iterations + 1
        )

    def test_work_counters_are_byte_identical_across_runs(self):
        C, p, q = random_instance(48, 10)
        C_b, measures = random_measures(49, 3, 6)
        runs = []
        for _ in range(2):
            _, r1 = accelerated_ot(C, p, q, 0.1 * C.inf_norm)
            _, r2 = aam_solve(C, 0.1 * C.inf_norm, p, q, gap_tol=1e-7)
            _, _, r3 = accelerated_ibp(measures, C_b, 0.1 * C_b.inf_norm)
            runs.append(dump_report_json({"ot": r1.extras, "aam": r2.extras, "aibp": r3.extras}))
        assert runs[0] == runs[1]
        assert '"exp_passes"' in runs[0]


def _bisect_slope(slope, steps=200):
    """Reference minimizer on [0, 1]: bisection of the slope's sign."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _transport_line(seed, n, gamma):
    """Random potentials, a direction and the slope along it, computed from
    ``dual_partial_gradients``, for the search's unstacked (m = 1) form."""
    C, p, q = random_instance(seed, n)
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=n), rng.normal(size=n)
    du, dv = 3.0 * rng.normal(size=n), 3.0 * rng.normal(size=n)

    def slope(b):
        gu, gv = dual_partial_gradients((u + b * du, v + b * dv), C, gamma, p, q)
        return float(du @ gu + dv @ gv)

    args = (-C.entries / gamma, u[None], v[None], du[None], dv[None], gamma, p[None], q[None])
    return args, slope


def _barycenter_line(seed, m, n):
    """The same for the stacked barycenter dual, from ``wb_dual_gradients``."""
    C, measures = random_measures(seed, m, n)
    problem = BarycenterProblem(tuple(measures), C, 0.2 * C.inf_norm)
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(m, n)), rng.normal(size=(m, n))
    du, dv = 3.0 * rng.normal(size=(m, n)), 3.0 * rng.normal(size=(m, n))

    def slope(b):
        gu, gv = wb_dual_gradients((u + b * du, v + b * dv), problem)
        return float((du * gu).sum() + (dv * gv).sum())

    args = (problem.log_kernel, u, v, du, dv, problem.gamma / m, problem.measure_stack(), None)
    return args, slope


def _lines():
    for seed in range(20):
        yield _transport_line(100 + seed, 4 + seed % 5, 0.1 + 0.05 * (seed % 4))
        yield _barycenter_line(200 + seed, 1 + seed % 3, 3 + seed % 4)


class TestNewtonLineSearch:
    def test_slope_and_curvature_match_gradients_and_differences(self):
        for args, slope in _lines():
            for b in (0.0, 0.3, 1.0):
                s, c = _slope_and_curvature(*args, b)
                assert s == pytest.approx(slope(b), rel=1e-10, abs=1e-14)
                h = 1e-5
                fd = (slope(b + h) - slope(b - h)) / (2.0 * h)
                assert c >= 0.0
                assert c == pytest.approx(fd, rel=1e-5, abs=1e-12)

    def test_matches_slope_bisection(self):
        interior = 0
        for args, slope in _lines():
            # Point the direction downhill at 0; the minimizer is then in (0, 1].
            log_kernel, u, v, du, dv, *rest = args
            sign = -1.0 if slope(0.0) > 0.0 else 1.0
            args = (log_kernel, u, v, sign * du, sign * dv, *rest)
            beta, evals = newton_line_search(*args)
            ref = _bisect_slope(lambda b: _slope_and_curvature(*args, b)[0])
            assert abs(beta - ref) <= 1e-12
            assert 0.0 < beta < 1.0 or evals <= 2
            assert evals <= 12  # bisection alone needs 49
            interior += 0.0 < beta < 1.0
        assert interior >= 30

    def test_boundary_cases_are_exact(self):
        (log_kernel, u, v, du, dv, *rest), slope = _transport_line(300, 6, 0.2)
        uphill = 1.0 if slope(0.0) > 0.0 else -1.0

        def line(t):
            return (log_kernel, u, v, t * du, t * dv, *rest)

        # The slope at 0 is positive, or zero along a zero direction.
        assert newton_line_search(*line(uphill)) == (0.0, 1)
        assert newton_line_search(*line(0.0)) == (0.0, 1)
        # A short step downhill: the slope at 1 is still negative.
        assert _slope_and_curvature(*line(-1e-3 * uphill), 1.0)[0] < 0.0
        assert newton_line_search(*line(-1e-3 * uphill)) == (1.0, 2)

    def test_non_finite_slope_raises(self):
        args, _ = _transport_line(301, 5, 0.2)
        log_kernel, u, v, du, dv, *rest = args
        du = du.copy()
        du[0, 2] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            newton_line_search(log_kernel, u, v, du, dv, *rest)

    def test_passes_per_iteration_on_criterion_4_instances(self):
        for _, (C, p, q) in approx_instances():
            _, report = accelerated_ot(C, p.weights, q.weights, 0.1 * C.inf_norm)
            assert report.extras["line_search_evals"] <= 8 * report.iterations
            _, report = aam_solve(C, 0.05 * C.inf_norm, p.weights, q.weights, gap_tol=2e-7)
            assert report.extras["line_search_evals"] <= 8 * report.iterations


class TestDistanceBound:
    def test_formula(self):
        C, p, q = random_instance(39, 8)
        gamma = 0.3
        D = distance_bound(C, gamma, p, q)
        expected = math.sqrt(4.0) * (
            C.inf_norm - 0.5 * gamma * math.log(min(p.min(), q.min()))
        )
        assert D == pytest.approx(expected)

    def test_positive(self):
        C, p, q = random_instance(39, 8)
        assert distance_bound(C, 0.3, p, q) > 0


class TestAcceleratedPipeline:
    def test_zero_weight_fixed_point_is_named(self):
        # The engine on the pipeline's gamma and smoothed measures for
        # C = [[0, 1], [1, 0]], p = (0, 1), q = (1/2, 1/2), eps = 0.05: from
        # iteration 15 on every step has weight 0 and changes nothing.
        # ``accelerated_ot`` stops on its LP bound before that (test_cli).
        from otkit.core import smooth_measure
        from otkit.sinkhorn import AAM_SCHEDULE

        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        p, q, eps = np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0.05
        gamma = eps / (AAM_SCHEDULE.gamma_div * math.log(2))
        weight = eps / AAM_SCHEDULE.eps_prime_div / AAM_SCHEDULE.smooth_div
        ps, qs = smooth_measure(p, weight).weights, smooth_measure(q, weight).weights
        state = AamState.initial(C, gamma)
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="weight a = 0 at iteration 15 leaves eta"):
            for _ in range(100):
                state = aam_iterate(state, C, gamma, ps, qs)
        assert time.perf_counter() - start < 1.0

    def test_aam_solve_names_a_zero_marginal(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="marginal must be strictly positive, found 0"):
                aam_solve(C, 0.05, np.array([0.0, 1.0]), np.array([0.5, 0.5]))

    def test_two_by_two_within_window(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        opt = exact_ot_lp(C, p, q).objective
        plan, _ = accelerated_ot(C, p, q, eps=0.05)
        cost = transport_cost(plan.entries, C)
        assert opt - 1e-12 <= cost <= opt + 0.05

    def test_random_against_lp_and_sinkhorn(self):
        C, p, q = random_instance(41, 16)
        eps = 0.1 * C.inf_norm
        plan_a, _ = accelerated_ot(C, p, q, eps)
        plan_s, _ = approx_ot_sinkhorn(C, p, q, eps)
        opt = exact_ot_lp(C, p, q).objective
        cost_a = transport_cost(plan_a.entries, C)
        cost_s = transport_cost(plan_s.entries, C)
        assert cost_a - opt <= eps
        assert abs(cost_a - cost_s) <= 2.0 * eps

    def test_envelopes_along_trace(self):
        from otkit.core import smooth_measure
        from otkit.sinkhorn import AAM_SCHEDULE

        C, p, q = random_instance(42, 8)
        eps = 0.1 * C.inf_norm
        trace: list[dict] = []
        _, report = accelerated_ot(C, p, q, eps, trace=trace)
        gamma = report.params["gamma"]
        weight = report.params["eps_prime"] / AAM_SCHEDULE.smooth_div
        ps, qs = smooth_measure(p, weight), smooth_measure(q, weight)
        D = distance_bound(C, gamma, ps.weights, qs.weights)
        for row in trace:
            t = row["iteration"]
            assert abs(row["duality_gap"]) <= 32.0 * D * D / (gamma * t * t)
            assert row["feasibility_l2"] <= 32.0 * D / (gamma * t * t)


def test_aam_solve_certificate():
    C, p, q = random_instance(43, 6)
    gamma = 0.1 * C.inf_norm
    state, report = aam_solve(C, gamma, p, q, gap_tol=1e-9)
    assert report.certificate <= 1e-9
    # the certified sandwich really contains the high-precision optimum
    from otkit.sinkhorn import sinkhorn_solve

    _, plan = sinkhorn_solve(C, gamma, p, q, 1e-11, check_every=1)
    w_star = reg_primal_objective(plan.entries, C, gamma)
    assert report.objective - 1e-9 <= w_star <= report.objective + report.certificate + 1e-9


def test_aam_solve_stationary_start():
    # C = 0 with p = q uniform: both gradient blocks vanish at the origin,
    # so every step takes the stationary branch and the weight A stays 0.
    n, gamma = 4, 0.5
    C, u = np.zeros((n, n)), np.full(n, 1.0 / n)
    gu, gv = dual_partial_gradients((np.zeros(n), np.zeros(n)), C, gamma, u, u)
    assert not gu.any() and not gv.any()
    state, report = aam_solve(C, gamma, u, u)
    assert report.iterations == 10
    assert abs(report.certificate) <= 1e-15
    assert state.A_big == 0.0
    assert not state.zeta.any()
    assert np.array_equal(state.plan_avg, np.full((n, n), 1.0 / n**2))
    assert report.objective == pytest.approx(-2.0 * gamma * math.log(n), rel=1e-15)
