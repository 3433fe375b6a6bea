"""Sinkhorn solver: exact half-steps, rate envelope, certificates, pipeline."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from otkit.core import (
    ConvergenceError,
    DomainError,
    NumericalError,
    marginal_violation,
    reg_primal_objective,
    transport_cost,
)
from otkit.aam import dual_objective_lip
from otkit.oracle import exact_ot_lp
from otkit.rounding import round_to_polytope
from otkit.sinkhorn import (
    ScalingKernel,
    SinkhornState,
    approx_ot_sinkhorn,
    coupled_plan,
    kl_project,
    radius_bound,
    reg_gap_certificate,
    sinkhorn_solve,
    sinkhorn_step,
)
from conftest import grid_cost, random_instance


def log_domain_sinkhorn(C, gamma, p, q, eps_prime, check_every, max_iter=100_000):
    """Reference loop: every half-step is a log-sum-exp over the log coupling.

    Returns the half-step count and the coupling at the first check whose
    l1 marginal violation is <= eps_prime.
    """
    Cg = C / gamma
    u, v = np.zeros(p.size), np.zeros(q.size)
    for t in range(1, max_iter + 1):
        logB = u[:, None] + v[None, :] - Cg
        if t % 2 == 1:
            u = u + np.log(p) - logsumexp(logB, axis=1)
        else:
            v = v + np.log(q) - logsumexp(logB, axis=0)
        if t % check_every == 0:
            plan = np.exp(u[:, None] + v[None, :] - Cg)
            if marginal_violation(plan, p, q) <= eps_prime:
                return t, plan
    raise AssertionError("reference did not converge")


class TestRadiusBound:
    def test_value(self):
        C, p, q = random_instance(1, 4)
        gamma = 0.5
        R = radius_bound(C, gamma, p, q)
        assert R == pytest.approx(C.inf_norm / gamma - math.log(min(p.min(), q.min())))

    def test_requires_positive_marginals(self):
        C, p, q = random_instance(1, 4)
        p = p.copy()
        p[0] = 0.0
        with pytest.raises(DomainError):
            radius_bound(C, 0.5, p, q)


class TestSinkhornStep:
    def test_row_marginal_exact_after_u_update(self):
        C, p, q = random_instance(2, 6)
        state = SinkhornState.initial(6)
        state = sinkhorn_step(state, C, 0.3, p, q)
        plan = coupled_plan(state.u, state.v, C, 0.3)
        assert np.abs(plan.sum(axis=1) - p).max() <= 1e-9

    def test_col_marginal_exact_after_v_update(self):
        C, p, q = random_instance(2, 6)
        state = SinkhornState.initial(6)
        state = sinkhorn_step(state, C, 0.3, p, q)
        state = sinkhorn_step(state, C, 0.3, p, q)
        plan = coupled_plan(state.u, state.v, C, 0.3)
        assert np.abs(plan.sum(axis=0) - q).max() <= 1e-9

    def test_uniform_constant_cost_fixed_in_two_steps(self):
        n = 3
        p = np.full(n, 1.0 / n)
        C = np.full((n, n), 0.8)
        state = SinkhornState.initial(n)
        for _ in range(2):
            state = sinkhorn_step(state, C, 0.4, p, p)
        plan = coupled_plan(state.u, state.v, C, 0.4)
        assert np.allclose(plan, 1.0 / n**2, atol=1e-12)
        assert state.last_violation <= 1e-12

    def test_rejects_nonpositive_marginal(self):
        C, p, q = random_instance(2, 4)
        bad = p.copy()
        bad[1] = 0.0
        with pytest.raises(DomainError, match="strictly positive"):
            sinkhorn_step(SinkhornState.initial(4), C, 0.3, bad, q)

    def test_monotone_dual_descent(self):
        # Each half-step is an exact block minimizer of the smooth dual.
        C, p, q = random_instance(3, 8)
        gamma = 0.1 * C.inf_norm
        state = SinkhornState.initial(8)
        last = dual_objective_lip(state, C, gamma, p, q)
        for _ in range(40):
            state = sinkhorn_step(state, C, gamma, p, q)
            value = dual_objective_lip(state, C, gamma, p, q)
            assert value <= last + 1e-12
            last = value


def test_dual_objective_smoke():
    # 2 gamma ln n at the origin with zero cost; the origin already
    # minimizes the dual along u up to a shift, so the traced dual of the
    # first half-steps reads the same value.
    n, gamma = 5, 0.7
    p = np.full(n, 1.0 / n)
    C = np.zeros((n, n))
    assert dual_objective_lip((np.zeros(n), np.zeros(n)), C, gamma, p, p) == (
        pytest.approx(2.0 * gamma * math.log(n))
    )
    trace: list[dict] = []
    sinkhorn_solve(C, gamma, p, p, 1e-12, check_every=1, trace=trace)
    assert trace
    for row in trace:
        assert row["dual_objective"] == pytest.approx(2.0 * gamma * math.log(n))


class TestSinkhornSolve:
    def test_product_form_converges_in_two_steps(self):
        p = np.array([0.3, 0.45, 0.25])
        q = np.array([0.5, 0.2, 0.3])
        state, plan = sinkhorn_solve(np.zeros((3, 3)), 0.5, p, q, 1e-10, check_every=1)
        assert state.iteration <= 2
        assert np.allclose(plan.entries, np.outer(p, q), atol=1e-12)

    def test_two_by_two_cost_against_lp(self):
        C, _, _ = random_instance(0, 2)
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        opt = exact_ot_lp(C, p, q).objective
        state, plan = sinkhorn_solve(C, 0.05, p, q, eps_prime=1e-6, check_every=1)
        rounded = round_to_polytope(plan.entries, p, q)
        assert abs(transport_cost(rounded.entries, C) - opt) <= 0.01

    def test_rate_envelope_small(self):
        for seed, n in ((10, 8), (11, 16)):
            C, p, q = random_instance(seed, n)
            gamma = 0.1 * C.inf_norm
            R = radius_bound(C, gamma, p, q)
            state = SinkhornState.initial(n)
            for _ in range(200):
                state = sinkhorn_step(state, C, gamma, p, q)
                if state.iteration > 2:
                    assert state.last_violation <= 4.0 * R / (state.iteration - 2)

    def test_iteration_envelope_honored(self):
        C, p, q = random_instance(12, 6)
        gamma = 0.2 * C.inf_norm
        eps_prime = 1e-2
        R = radius_bound(C, gamma, p, q)
        state, _ = sinkhorn_solve(C, gamma, p, q, eps_prime, check_every=1)
        assert state.iteration <= 2.0 + 4.0 * R / eps_prime + 1.0

    def test_budget_exhaustion_carries_trace(self):
        C, p, q = random_instance(13, 6)
        trace: list[dict] = []
        with pytest.raises(ConvergenceError) as err:
            sinkhorn_solve(C, 0.01, p, q, 1e-12, max_iter=20, check_every=5, trace=trace)
        assert err.value.trace
        assert err.value.trace[-1]["iteration"] == 20

    def test_kernel_matches_log_domain_when_absorbing(self):
        # ||C||_inf / gamma = 2000: exp(-C / gamma) underflows and the
        # scalings outgrow their bound, so the kernel absorbs them.
        C = grid_cost(4)
        rng = np.random.default_rng(14)
        p, q = rng.uniform(0.5, 1.5, (2, 16))
        p, q = p / p.sum(), q / q.sum()
        gamma = C.inf_norm / 2000.0
        t_ref, plan_ref = log_domain_sinkhorn(C.entries, gamma, p, q, 1e-3, check_every=1)
        state, plan = sinkhorn_solve(C, gamma, p, q, 1e-3, check_every=1)
        assert state.absorptions > 0
        assert state.iteration == t_ref
        assert np.abs(plan.entries - plan_ref).max() <= 1e-12

    def test_underflowed_columns_take_the_log_domain_step(self):
        # exp(-C / gamma) is [[1, 0], [0, 0]]: a multiplicative half-step
        # divides by zero, while the log domain reaches p q' (C is a sum of
        # row and column terms) in two half-steps.
        C = np.array([[0.0, 0.5], [0.5, 1.0]])
        p, q = np.array([0.6, 0.4]), np.array([0.3, 0.7])
        t_ref, plan_ref = log_domain_sinkhorn(C, 1e-4, p, q, 1e-9, check_every=1)
        state, plan = sinkhorn_solve(C, 1e-4, p, q, 1e-9, check_every=1)
        assert state.iteration == t_ref == 2
        assert np.abs(plan.entries - plan_ref).max() <= 1e-12
        assert np.abs(plan.entries - np.outer(p, q)).max() <= 1e-12

    def test_non_finite_potentials_raise_numerical_error(self):
        # C / gamma overflows: the log kernel is -inf everywhere, so the
        # log-domain redo has nothing to sum.
        p = np.array([0.5, 0.5])
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            sinkhorn_step(SinkhornState.initial(2), np.ones((2, 2)), 1e-310, p, p)

    def test_check_matches_dense_plan_violation(self):
        # The stopping check reads the violation off the scalings and two
        # matrix-vector products.  A loop over the same half-steps that
        # builds the dense plan at every check stops at the same half-step
        # with the same violations.  Checks every 5 half-steps land after
        # row and after column updates alike.
        C4 = grid_cost(4)
        rng = np.random.default_rng(16)
        p4, q4 = rng.uniform(0.5, 1.5, (2, 16))
        Cr, pr, qr = random_instance(17, 12)
        cases = (
            (C4, C4.inf_norm / 2000.0, p4 / p4.sum(), q4 / q4.sum(), 1e-3),
            (Cr, 0.05, pr, qr, 1e-6),
        )
        for C, gamma, p, q, eps_prime in cases:
            trace: list[dict] = []
            state, plan = sinkhorn_solve(C, gamma, p, q, eps_prime, check_every=5, trace=trace)
            n = p.size
            kernel = ScalingKernel.start(-C.entries / gamma, np.zeros((1, n)), np.zeros((1, n)))
            dense = []
            for t in range(1, state.iteration + 1):
                kernel = kernel.half_step(t % 2 == 1, (p if t % 2 == 1 else q)[None])
                if t % 5 == 0:
                    dense.append(marginal_violation(kernel.plans()[0], p, q))
            assert all(v > eps_prime for v in dense[:-1]) and dense[-1] <= eps_prime
            assert [row["iteration"] for row in trace] == list(range(5, state.iteration + 1, 5))
            for row, violation in zip(trace, dense):
                assert abs(row["violation"] - violation) <= 1e-14
            assert abs(state.last_violation - marginal_violation(plan.entries, p, q)) <= 1e-14

    def test_trace_dual_objective_matches_public_view(self):
        # The trace reads 1' B 1 off the marginals of the stopping check.
        # exp(-C / gamma) underflows here, so the kernel absorbs its
        # scalings; a loop over the same half-steps gives the potentials.
        C = grid_cost(4)
        rng = np.random.default_rng(18)
        p, q = rng.uniform(0.5, 1.5, (2, 16))
        p, q = p / p.sum(), q / q.sum()
        gamma = C.inf_norm / 2000.0
        assert np.exp(-C.entries / gamma).min() < 1e-300
        trace: list[dict] = []
        state, _ = sinkhorn_solve(C, gamma, p, q, 1e-3, check_every=5, trace=trace)
        assert state.absorptions > 0 and len(trace) == state.iteration // 5
        kernel = ScalingKernel.start(-C.entries / gamma, np.zeros((1, 16)), np.zeros((1, 16)))
        rows = iter(trace)
        for t in range(1, state.iteration + 1):
            kernel = kernel.half_step(t % 2 == 1, (p if t % 2 == 1 else q)[None])
            if t % 5 == 0:
                u, v = kernel.potentials()
                expected = dual_objective_lip((u[0], v[0]), C, gamma, p, q)
                assert next(rows)["dual_objective"] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_trace_columns(self):
        C, p, q = random_instance(15, 4)
        gamma = 0.3
        R = radius_bound(C, gamma, p, q)
        trace: list[dict] = []
        sinkhorn_solve(C, gamma, p, q, 1e-6, check_every=1, trace=trace)
        assert set(trace[0]) == {"iteration", "violation", "dual_objective", "certificate"}
        for row in trace:
            assert row["certificate"] == pytest.approx(0.5 * gamma * R * row["violation"])


class TestKlProject:
    def test_already_feasible_axis_unchanged(self):
        p = np.array([0.5, 0.5])
        plan = np.outer(p, p)
        assert np.allclose(kl_project(plan, p, "rows"), plan, atol=1e-15)

    def test_hand_row_rescale(self):
        plan = np.array([[0.5, 0.1], [0.1, 0.3]])
        target = np.array([0.5, 0.5])
        out = kl_project(plan, target, "rows")
        expected = plan * (target / plan.sum(axis=1))[:, None]
        assert np.allclose(out, expected, atol=1e-15)
        assert np.allclose(out, [[5 / 12, 1 / 12], [0.125, 0.375]], atol=1e-12)
        assert np.abs(out.sum(axis=1) - target).max() <= 1e-15

    def test_projection_minimizes_kl(self):
        # any other plan with the same row marginals has larger divergence
        from otkit.core import kl_divergence

        rng = np.random.default_rng(7)
        plan = rng.uniform(0.1, 1.0, (3, 3))
        target = np.array([0.2, 0.5, 0.3])
        out = kl_project(plan, target, "rows")
        base = kl_divergence(out, plan)
        for _ in range(20):
            other = rng.uniform(0.1, 1.0, (3, 3))
            other *= (target / other.sum(axis=1))[:, None]
            assert kl_divergence(other, plan) >= base - 1e-12

    def test_alternating_projections_match_log_domain(self):
        C, p, q = random_instance(16, 8)
        gamma = 0.2 * C.inf_norm
        plan_kl = np.exp(-C.entries / gamma)
        state = SinkhornState.initial(8)
        for t in range(30):
            state = sinkhorn_step(state, C, gamma, p, q)
            plan_kl = kl_project(plan_kl, p if t % 2 == 0 else q, "rows" if t % 2 == 0 else "columns")
            assert np.abs(coupled_plan(state.u, state.v, C, gamma) - plan_kl).max() <= 1e-9

    def test_invalid_axis(self):
        from otkit.core import ParameterError

        with pytest.raises(ParameterError):
            kl_project(np.ones((2, 2)), np.array([0.5, 0.5]), "diagonal")


class TestCertificate:
    def test_zero_for_feasible(self):
        p = np.array([0.5, 0.5])
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        state, _ = sinkhorn_solve(C, 0.5, p, p, 1e-12, check_every=1)
        assert reg_gap_certificate(state, C, 0.5, p, p) <= 1e-11

    def test_linear_in_violation(self):
        C, p, q = random_instance(17, 5)
        gamma = 0.3
        state = sinkhorn_step(SinkhornState.initial(5), C, gamma, p, q)
        cert = reg_gap_certificate(state, C, gamma, p, q)
        R = radius_bound(C, gamma, p, q)
        plan = coupled_plan(state.u, state.v, C, gamma)
        assert cert == pytest.approx(0.5 * gamma * R * marginal_violation(plan, p, q))

    def test_bounds_true_regularized_gap(self):
        C, p, q = random_instance(18, 8)
        gamma = 0.2 * C.inf_norm
        # high-precision run stands in for the exact regularized optimum
        _, plan_star = sinkhorn_solve(C, gamma, p, q, 1e-12, check_every=1)
        g_star = reg_primal_objective(plan_star.entries, C, gamma)
        state = SinkhornState.initial(8)
        for _ in range(60):
            state = sinkhorn_step(state, C, gamma, p, q)
            plan = coupled_plan(state.u, state.v, C, gamma)
            gap = reg_primal_objective(plan, C, gamma) - g_star
            assert gap <= reg_gap_certificate(state, C, gamma, p, q) + 1e-10


class TestApproxPipeline:
    def test_two_by_two_within_eps(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        opt = exact_ot_lp(C, p, q).objective
        plan, report = approx_ot_sinkhorn(C, p, q, eps=0.05)
        cost = transport_cost(plan.entries, C)
        assert opt <= cost <= opt + 0.05
        assert plan.feasible_for is not None

    def test_random_instances_within_eps(self):
        for seed in (20, 21, 22):
            C, p, q = random_instance(seed, 16)
            eps = 0.1 * C.inf_norm
            plan, _ = approx_ot_sinkhorn(C, p, q, eps)
            opt = exact_ot_lp(C, p, q).objective
            assert transport_cost(plan.entries, C) - opt <= eps

    def test_schedule_recorded(self):
        C, p, q = random_instance(23, 4)
        eps = 0.1 * C.inf_norm
        _, report = approx_ot_sinkhorn(C, p, q, eps)
        assert report.params["gamma"] == pytest.approx(eps / (4.0 * math.log(4)))
        assert report.params["eps_prime"] == pytest.approx(eps / (8.0 * C.inf_norm))


def test_cross_solver_regularized_agreement():
    from otkit.aam import aam_solve

    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    gamma = 0.05
    _, plan = sinkhorn_solve(C, gamma, p, q, eps_prime=1e-10, check_every=1)
    sink_val = reg_primal_objective(plan.entries, C, gamma)
    _, report = aam_solve(C, gamma, p, q, gap_tol=1e-8)
    assert abs(sink_val - report.objective) <= 1e-6
