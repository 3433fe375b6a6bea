"""Core types and numerical primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit.core import (
    CostMatrix,
    DiscreteMeasure,
    DomainError,
    ParameterError,
    TransportPlan,
    kl_divergence,
    logsumexp,
    lse,
    marginal_violation,
    neg_entropy,
    smooth_measure,
    transport_cost,
)
from otkit.aam import distance_bound
from otkit.barycenter import BarycenterProblem, ibp_solve
from otkit.decentralized import stochastic_dual_gradients
from otkit.kernel import conjugate_values
from otkit.sinkhorn import coupled_plan, radius_bound, sinkhorn_solve


class TestDiscreteMeasure:
    def test_normalizes_to_unit_mass(self):
        m = DiscreteMeasure(np.array([2.0, 6.0]))
        assert np.allclose(m.weights, [0.25, 0.75])
        assert abs(m.weights.sum() - 1.0) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([0.5, -0.1]))

    def test_rejects_zero_mass(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(np.zeros(3))

    def test_immutable(self):
        m = DiscreteMeasure(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            m.weights[0] = 1.0

    def test_rewrapping_shares_weights(self):
        m = DiscreteMeasure(np.array([1.0, 3.0]))
        assert DiscreteMeasure(m).weights is m.weights


class TestCostMatrix:
    def test_inf_norm_cached(self):
        C = CostMatrix(np.array([[0.0, 2.0], [2.0, 1.0]]))
        assert C.inf_norm == 2.0

    def test_accepts_asymmetric(self):
        A = np.array([[0.0, 1.0], [2.0, 0.0]])
        C = CostMatrix(A)
        assert np.array_equal(C.entries, A)
        assert np.array_equal(np.asarray(C), A)

    def test_rewrapping_shares_entries(self):
        C = CostMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        again = CostMatrix(C)
        assert again.entries is C.entries and again.inf_norm == 2.0

    def test_asymmetric_inf_norm(self):
        assert CostMatrix(np.array([[0.0, 1.0], [2.0, 0.0]])).inf_norm == 2.0
        assert CostMatrix(np.array([[0.0, 2.0], [1.0, 0.0]])).inf_norm == 2.0

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            CostMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))


class TestTransportPlan:
    def test_feasible_tag_validated(self):
        p = np.array([0.5, 0.5])
        plan = TransportPlan(np.full((2, 2), 0.25), feasible_for=(p, p))
        assert plan.total_mass == pytest.approx(1.0)

    def test_feasible_tag_rejects_violation(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        with pytest.raises(DomainError):
            TransportPlan(np.full((2, 2), 0.25), feasible_for=(p, q))

    def test_marginal_accessors(self):
        plan = TransportPlan(np.array([[0.5, 0.1], [0.1, 0.3]]))
        assert np.allclose(plan.row_marginals, [0.6, 0.4])
        assert np.allclose(plan.col_marginals, [0.6, 0.4])


@pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
@pytest.mark.parametrize("call", [
    "sinkhorn_solve", "radius_bound", "distance_bound", "ibp_solve",
    "conjugate_values", "stochastic_dual_gradients",
])
def test_marginals_must_be_strictly_positive(call, bad):
    # One check behind every solver's marginals; a NaN fails it as a zero does.
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    good, p = np.array([0.5, 0.5]), np.array([1.0, bad])
    calls = {
        "sinkhorn_solve": lambda: sinkhorn_solve(C, 0.1, p, good, 1e-6),
        "radius_bound": lambda: radius_bound(C, 0.1, good, p),
        "distance_bound": lambda: distance_bound(C, 0.1, p, good),
        # A NaN measure is refused by DiscreteMeasure, before ibp_solve.
        "ibp_solve": lambda: ibp_solve(BarycenterProblem((good, p), C, 0.1), 1e-6),
        "conjugate_values": lambda: conjugate_values(np.stack([good, p]), np.zeros((2, 2)), 0.1),
        "stochastic_dual_gradients": lambda: stochastic_dual_gradients(
            np.zeros((2, 2)), np.stack([good, p]), C, 0.1, np.random.default_rng(0)
        ),
    }
    match = f"marginal must be strictly positive, found {bad:g}$"
    if call == "ibp_solve" and math.isnan(bad):
        match = "measure weights must be finite"
    with pytest.raises(DomainError, match=match):
        calls[call]()


def test_radius_bound_overflow_names_the_bound():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = np.array([0.5, 0.5])
    with pytest.raises(DomainError, match=r"radius bound .* = inf is not finite") as err:
        radius_bound(C, 1e-320, p, p)
    assert "marginal" not in str(err.value)


class TestLogsumexp:
    def test_two_equal_terms(self):
        assert logsumexp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_no_overflow(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0))

    def test_weighted_convex_combination(self):
        assert logsumexp([0.0, 0.0], weights=[0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_single_element_exact(self):
        assert logsumexp([3.25]) == 3.25

    def test_empty_reduction(self):
        with pytest.raises(DomainError, match="empty reduction"):
            logsumexp([])

    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            logsumexp([0.0, 1.0], weights=[1.0])

    def test_nonpositive_weights(self):
        with pytest.raises(DomainError):
            logsumexp([0.0, 1.0], weights=[1.0, 0.0])

    def test_axis_reduction_with_all_minus_inf_slice(self):
        x = np.array([[-np.inf, -np.inf], [0.0, 0.0], [-np.inf, 2.0]])
        out = lse(x, axis=1)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(math.log(2.0), abs=1e-15)
        assert out[2] == 2.0
        assert lse(x) == pytest.approx(2.0 + math.log(1.0 + 2.0 * math.exp(-2.0)))

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        st.floats(-100, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, values, c):
        x = np.asarray(values)
        assert logsumexp(x + c) == pytest.approx(logsumexp(x) + c, abs=1e-12)


class TestScalingMatrix:
    """The coupling B(u, v) = exp(u_i + v_j - C_ij / gamma)."""

    def test_zero_everything_gives_ones(self):
        B = coupled_plan(np.zeros(3), np.zeros(3), np.zeros((3, 3)), gamma=1.0)
        assert np.allclose(B, 1.0)

    def test_cost_equal_gamma(self):
        B = coupled_plan(np.zeros(2), np.zeros(2), np.full((2, 2), 0.7), gamma=0.7)
        assert np.allclose(B, math.exp(-1.0))

    def test_row_scaling(self):
        u = np.array([math.log(2.0), 0.0])
        B = coupled_plan(u, np.zeros(2), np.zeros((2, 2)), gamma=1.0)
        assert np.allclose(B, [[2.0, 2.0], [1.0, 1.0]])

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ParameterError):
            coupled_plan(np.zeros(2), np.zeros(2), np.zeros((2, 2)), gamma=0.0)

    def test_shift_multiplies(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=4), rng.normal(size=4)
        C = rng.uniform(size=(4, 4))
        C = 0.5 * (C + C.T)
        base = coupled_plan(u, v, C, 0.5)
        shifted = coupled_plan(u + 0.3, v - 0.1, C, 0.5)
        assert np.allclose(shifted, math.exp(0.2) * base, rtol=1e-12)


class TestEntropyAndKl:
    def test_uniform_plan(self):
        assert neg_entropy(np.full((2, 2), 0.25)) == pytest.approx(-2.0 * math.log(2.0))

    def test_point_mass(self):
        assert neg_entropy(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0.0

    def test_half_diagonal(self):
        assert neg_entropy(np.diag([0.5, 0.5])) == pytest.approx(-math.log(2.0))

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            neg_entropy(np.array([[-0.1, 0.0], [0.0, 0.0]]))

    def test_range_on_feasible_plans(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = 5
            plan = rng.uniform(size=(n, n))
            plan /= plan.sum()
            assert -2.0 * math.log(n) - 1e-12 <= neg_entropy(plan) <= 0.0

    def test_kl_identical(self):
        a = np.full((2, 2), 0.25)
        assert kl_divergence(a, a) == 0.0

    def test_kl_quarter_vs_half(self):
        # sum over 4 cells of 0.25 ln(0.5) - 0.25 + 0.5 = 1 - ln 2
        a = np.full((2, 2), 0.25)
        b = np.full((2, 2), 0.5)
        assert kl_divergence(a, b) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

    def test_kl_half_vs_quarter(self):
        # sum over 4 cells of 0.5 ln 2 - 0.5 + 0.25 = 2 ln 2 - 1
        a = np.full((2, 2), 0.5)
        b = np.full((2, 2), 0.25)
        assert kl_divergence(a, b) == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)

    def test_kl_zero_reference_rejected(self):
        with pytest.raises(DomainError):
            kl_divergence(np.array([[0.5, 0.5]]), np.array([[0.5, 0.0]]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_kl_nonnegative_gibbs(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.05, 1.0, (3, 3))
        b = rng.uniform(0.05, 1.0, (3, 3))
        assert kl_divergence(a, b) >= 0.0
        assert kl_divergence(a, a) == 0.0


class TestMarginalViolation:
    def test_feasible_plan(self):
        p = np.array([0.6, 0.4])
        plan = np.outer(p, p)
        assert marginal_violation(plan, p, p) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        plan = np.array([[0.5, 0.1], [0.1, 0.3]])
        p = np.array([0.5, 0.5])
        assert marginal_violation(plan, p, p) == pytest.approx(0.4, abs=1e-14)

    def test_zero_plan(self):
        p = np.array([0.5, 0.5])
        assert marginal_violation(np.zeros((2, 2)), p, p) == pytest.approx(2.0)

    def test_plan_objects_give_the_matrix_value(self):
        plan = np.array([[0.5, 0.1], [0.1, 0.3]])
        p = np.array([0.5, 0.5])
        assert marginal_violation(TransportPlan(plan), p, p) == marginal_violation(plan, p, p)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            marginal_violation(np.zeros((2, 2)), np.ones(3) / 3, np.ones(2) / 2)


class TestTransportCost:
    def test_zero_cost(self):
        assert transport_cost(np.full((2, 2), 0.25), np.zeros((2, 2))) == 0.0

    def test_diagonal_plan_zero_diag_cost(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert transport_cost(np.diag([0.3, 0.7]), C) == 0.0

    def test_hand_value(self):
        plan = np.array([[0.3, 0.0], [0.3, 0.4]])
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert transport_cost(plan, C) == pytest.approx(0.3, abs=1e-15)


class TestSmoothMarginals:
    # The pipeline smooths each marginal with weight eps' / smooth_div; 8
    # is the transport schedules' divisor.
    def test_uniform_is_fixed(self):
        p = np.full(4, 0.25)
        assert np.allclose(smooth_measure(p, 0.5 / 8.0).weights, p, atol=1e-15)

    def test_hand_case_renormalized(self):
        # affine image of (1, 0) at eps' = 0.8 is (0.945, 0.045), total 0.99
        p = np.array([1.0, 0.0])
        ps = smooth_measure(p, 0.8 / 8.0)
        assert np.allclose(ps.weights, [0.945 / 0.99, 0.045 / 0.99], atol=1e-15)

    def test_small_eps_limit(self):
        p = np.array([0.3, 0.7])
        assert np.allclose(smooth_measure(p, 1e-9 / 8.0).weights, p, atol=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = rng.integers(2, 9)
            p = rng.uniform(0.0, 1.0, n)
            p[rng.integers(n)] = 0.0  # exercise zero entries
            if p.sum() == 0.0:
                continue
            p /= p.sum()
            eps_prime = float(rng.uniform(0.01, 1.9))
            ps = smooth_measure(p, eps_prime / 8.0)
            assert ps.min_weight >= (1.0 - eps_prime / 8.0) * eps_prime / (8.0 * n) - 1e-15
            assert np.abs(ps.weights - p).sum() <= eps_prime / 4.0 + 1e-12

    def test_rejects_out_of_range(self):
        p = np.array([0.5, 0.5])
        for weight in (0.0, 1.0, -0.125):
            with pytest.raises(ParameterError):
                smooth_measure(p, weight)
