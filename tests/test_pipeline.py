"""The shared epsilon-pipeline of the four approximate solvers: the vacuity
short-circuit, the LP lower bound and the certificate, and the recorded
schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import sinkhorn
from otkit.aam import accelerated_ot
from otkit.barycenter import accelerated_ibp, barycenter_ibp
from otkit.core import ConvergenceError, DiscreteMeasure, DomainError, ParameterError
from otkit.oracle import exact_barycenter_lp, exact_ot_lp
from otkit.rounding import round_to_polytope
from otkit.sinkhorn import GAP_KEYS, GAP_TRACE_COLUMNS, approx_ot_sinkhorn, lp_lower_bound
from otkit.verify import approx_instances, barycenter_instance
from conftest import random_instance, random_measures

SOLVERS = ("sinkhorn", "aam", "ibp", "aibp")


def run(solver, C, measures, eps):
    """(q, plans, report) of any of the four solvers; transport takes the
    first measure to the second."""
    if solver in ("sinkhorn", "aam"):
        p, q = (np.asarray(m, float) for m in measures)
        ot = approx_ot_sinkhorn if solver == "sinkhorn" else accelerated_ot
        plan, report = ot(C, p, q, eps)
        return q, [plan], report
    return (barycenter_ibp if solver == "ibp" else accelerated_ibp)(measures, C, eps)


def instance(solver, seed, n):
    if solver in ("sinkhorn", "aam"):
        C, p, q = random_instance(seed, n)
        return C, [DiscreteMeasure(p), DiscreteMeasure(q)]
    return random_measures(seed, 3, n)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("case", ["zero-cost", "eps-40-cost"])
def test_short_circuit(solver, case):
    if case == "zero-cost":
        C = np.zeros((2, 2))
        measures = [DiscreteMeasure(np.array([0.3, 0.7])), DiscreteMeasure(np.array([0.6, 0.4]))]
        eps = 0.1
    else:
        C, measures = instance(solver, 80, 5)
        eps = 40.0 * C.inf_norm
    q, plans, report = run(solver, C, measures, eps)
    if solver in ("ibp", "aibp"):
        sources = measures
        assert np.array_equal(q, np.mean([m.weights for m in measures], axis=0))
    else:
        sources = measures[:1]
        assert np.array_equal(q, measures[1].weights)
    assert report.params["short_circuit"] is True
    assert report.iterations == 0
    assert report.certificate == report.objective
    assert report.params["gamma"] is None and report.params["eps_prime"] is None
    assert set(GAP_KEYS) <= set(report.extras)
    costs = []
    for plan, m in zip(plans, sources, strict=True):
        assert plan.feasible_for is not None
        assert np.allclose(plan.entries, np.outer(m.weights, q))
        costs.append(float((plan.entries * np.asarray(C)).sum()))
    assert report.objective == pytest.approx(np.mean(costs), rel=1e-15, abs=0.0)
    if case == "zero-cost":
        assert report.objective == 0.0


@pytest.mark.parametrize("solver", ["sinkhorn", "aam"])
def test_short_circuit_certificate_bounds_the_excess(solver):
    # The product plan is far from optimal here; the certificate must say so.
    C, measures = instance(solver, 80, 5)
    _, _, report = run(solver, C, measures, 40.0 * C.inf_norm)
    optimum = exact_ot_lp(C, *(m.weights for m in measures)).objective
    assert report.objective - optimum > 0.3
    assert report.certificate >= report.objective - optimum


def lp_optimum(solver, C, measures) -> float:
    weights = [np.asarray(m, float) for m in measures]
    if solver in ("sinkhorn", "aam"):
        return exact_ot_lp(C, *weights).objective
    return exact_barycenter_lp(weights, C)[1]


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("seed", [41, 65])
def test_certificate_is_sum_of_positive_gaps(solver, seed):
    # certificate = objective - lower bound = (objective - OPT) + (OPT - lower
    # bound): the rounded plans' excess over the LP optimum plus the bound's
    # gap, both >= 0.
    C, measures = instance(solver, seed, 16 if solver in ("sinkhorn", "aam") else 8)
    eps = 0.1 * C.inf_norm
    _, _, report = run(solver, C, measures, eps)
    extras = report.extras
    assert set(GAP_KEYS) <= set(extras)
    assert extras["duality_gap"] == extras["primal_value"] + extras["dual_value"]
    assert report.certificate == report.objective - extras["lp_lower_bound"]
    optimum = lp_optimum(solver, C, measures)
    assert report.objective - optimum >= -1e-12
    assert report.certificate >= report.objective - optimum
    assert math.isfinite(report.certificate)
    assert report.certificate <= eps


def criterion_instances(solver):
    """(C, measures, eps) of criterion 2 and 4 (transport) or criterion 6
    (barycenter)."""
    if solver in ("sinkhorn", "aam"):
        return [(C, [p, q], 0.1 * C.inf_norm) for _, (C, p, q) in approx_instances()]
    return [(C, ms, 0.25 * C.inf_norm)
            for C, ms in (barycenter_instance(600 + k, m=2, n=3) for k in range(5))]


@pytest.mark.parametrize("solver", SOLVERS)
def test_certificate_bounds_the_excess_on_criterion_instances(solver):
    for C, measures, eps in criterion_instances(solver):
        _, _, report = run(solver, C, measures, eps)
        optimum = lp_optimum(solver, C, measures)
        assert report.extras["lp_lower_bound"] <= optimum
        assert report.certificate >= report.objective - optimum


def lp_column_potential(C, p, q) -> np.ndarray:
    """The column half v of an optimal LP dual pair, from the oracle's
    reduced costs C - u (+) v."""
    D = np.asarray(C) - exact_ot_lp(C, p, q).reduced_costs.reshape(np.shape(C))
    return D[0] - D[0, 0]


@given(
    st.integers(2, 8), st.integers(0, 2**31 - 1),
    st.sampled_from([1e-6, 1.0, 1e6]), st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e3]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_lower_bound_below_transport_lp(n, seed, cost_scale, noise):
    # g: an optimal dual column potential, plus noise of any size.
    C, p, q = random_instance(seed, n)
    C = cost_scale * C.entries
    rng = np.random.default_rng(seed)
    g = lp_column_potential(C, p, q) + noise * cost_scale * rng.normal(size=n)
    optimum = exact_ot_lp(C, p, q).objective
    lower = lp_lower_bound(C, g[None], p[None], q)
    assert lower <= optimum
    if noise == 0.0:
        assert lower >= optimum - 1e-12 * cost_scale


@given(st.integers(1, 3), st.integers(2, 8), st.integers(0, 2**31 - 1),
       st.sampled_from([1e-3, 1.0, 1e3]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_lower_bound_below_barycenter_lp(m, n, seed, scale):
    C, measures = random_measures(seed, m, n)
    P = np.stack([w.weights for w in measures])
    G = scale * np.random.default_rng(seed).normal(size=(m, n))
    _, optimum = exact_barycenter_lp(P, C)
    assert lp_lower_bound(C, G, P) <= optimum


def test_lower_bound_below_transport_lp_n32():
    C, p, q = random_instance(7, 32)
    optimum = exact_ot_lp(C, p, q).objective
    g = lp_column_potential(C, p, q)
    rng = np.random.default_rng(7)
    for noise in (0.0, 1e-6, 0.1, 10.0):
        lower = lp_lower_bound(C, (g + noise * rng.normal(size=32))[None], p[None], q)
        assert lower <= optimum
    assert lp_lower_bound(C, g[None], p[None], q) >= optimum - 1e-12


def test_lower_bound_is_shift_invariant():
    C, p, q = random_instance(8, 12)
    g = np.random.default_rng(8).normal(size=12)
    lower = lp_lower_bound(C, g[None], p[None], q)
    for c in (-1e3, -0.5, 0.5, 1e3):
        assert lp_lower_bound(C, (g + c)[None], p[None], q) == pytest.approx(lower, abs=1e-11)


@pytest.mark.parametrize("solver", SOLVERS)
def test_rounds_each_coupling_once_per_yield(solver, monkeypatch):
    calls = []

    def counting(plan, p, q):
        calls.append(1)
        return round_to_polytope(plan, p, q)

    monkeypatch.setattr(sinkhorn, "round_to_polytope", counting)
    C, measures = instance(solver, 41, 8)
    m = 1 if solver in ("sinkhorn", "aam") else len(measures)
    _, _, report = run(solver, C, measures, 0.03 * C.inf_norm)
    yields = report.iterations if solver in ("aam", "aibp") else 1
    assert yields > 1 or solver in ("sinkhorn", "ibp")
    assert len(calls) == m * yields


def test_gamma_override_is_recorded():
    C, measures = random_measures(66, 2, 4)
    for solver in (barycenter_ibp, accelerated_ibp):
        _, _, report = solver(measures, C, 0.3 * C.inf_norm, gamma=0.05)
        assert report.params["gamma"] == 0.05
        assert report.params["gamma_override"] is True


@pytest.mark.parametrize("solver", [barycenter_ibp, accelerated_ibp])
@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan])
def test_gamma_override_must_be_positive(solver, gamma):
    C, measures = random_measures(66, 2, 4)
    with pytest.raises(ParameterError, match="gamma must be positive"):
        solver(measures, C, 0.3 * C.inf_norm, gamma=gamma)


@pytest.mark.parametrize("solver", SOLVERS)
def test_mismatched_sizes_raise_domain_error(solver):
    C, measures = random_measures(81, 2, 4)
    measures = [measures[0], DiscreteMeasure(np.full(3, 1 / 3))]
    with pytest.raises(DomainError):
        run(solver, C, measures, 0.1 * C.inf_norm)


@pytest.mark.parametrize("solver", ["sinkhorn", "aam"])
@pytest.mark.parametrize("C, match", [
    ([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
    ([[0.0, np.nan], [1.0, 0.0]], "finite"),
    (np.ones((4, 6)), "square"),
], ids=["negative", "nan", "4x6"])
def test_invalid_cost_raises_domain_error(solver, C, match):
    rows, cols = np.shape(C)
    measures = [np.full(rows, 1.0 / rows), np.full(cols, 1.0 / cols)]
    with pytest.raises(DomainError, match=match):
        run(solver, np.array(C), measures, 0.1)


@pytest.mark.parametrize("solver", ["aam", "aibp"])
def test_budget_exhausted_raises_with_trace(solver):
    C, measures = instance(solver, 41, 8)
    # AIBP passes its LP bound at iteration 1 at eps = 0.1 ||C||_inf.
    eps = (0.1 if solver == "aam" else 0.03) * C.inf_norm
    trace: list[dict] = []
    with pytest.raises(ConvergenceError, match="within 2 iterations") as err:
        if solver == "aam":
            p, q = (np.asarray(m, float) for m in measures)
            accelerated_ot(C, p, q, eps, max_iter=2, trace=trace)
        else:
            accelerated_ibp(measures, C, eps, max_iter=2, trace=trace)
    assert err.value.trace is trace
    assert [row["iteration"] for row in trace] == [1, 2]
    assert all(tuple(row) == GAP_TRACE_COLUMNS for row in trace)


def asymmetric_measures(seed, m, n):
    """A cost with independent entries on either side of its zero diagonal,
    as a plain array, and m strictly positive measures."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(C, 0.0)
    return C, [DiscreteMeasure(rng.uniform(0.5, 1.5, n)) for _ in range(m)]


@pytest.mark.parametrize("solver", [barycenter_ibp, accelerated_ibp])
def test_barycenter_on_asymmetric_cost_within_eps(solver):
    C, measures = asymmetric_measures(3, 3, 6)
    weights = [m.weights for m in measures]
    eps = 0.1 * C.max()
    q_bar, _, _ = solver(measures, C, eps)
    _, optimum = exact_barycenter_lp(weights, C)
    value = np.mean([exact_ot_lp(C, w, q_bar).objective for w in weights])
    assert 0.0 <= value - optimum <= eps


@pytest.mark.parametrize("solver", ["sinkhorn", "aam"])
@pytest.mark.parametrize("p, q, eps, masses", [
    ([0.3, 0.3], [0.5, 0.5], 0.05, "source mass 0.6, target mass 1"),
    ([1.0, 1.0], [1.0, 1.0], 0.05, "source mass 2, target mass 2"),
    ([1.0, 1.0], [1.0, 1.0], 9.0, "source mass 2, target mass 2"),
    ([0.5, 0.5], [np.nan, 0.5], 0.05, "source mass 1, target mass nan"),
], ids=["unequal-mass", "mass-2", "mass-2-short-circuit", "nan"])
def test_transport_measures_must_be_probability_vectors(solver, p, q, eps, masses):
    # Refused up front, before the short-circuit, naming both masses.
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError, match=f"probability vectors: {masses}$"):
        run(solver, C, [p, q], eps)


@pytest.mark.parametrize("solver", ["sinkhorn", "aam"])
@pytest.mark.parametrize("eps", [0.05, 9.0], ids=["solve", "short-circuit"])
@pytest.mark.parametrize("side", ["source", "target"])
def test_negative_transport_entry_is_named(solver, eps, side):
    # Unit mass, so only the entry check can refuse it, before the short-circuit.
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    good, bad = [0.5, 0.5], [1.5, -0.5]
    measures = [bad, good] if side == "source" else [good, bad]
    with pytest.raises(DomainError, match=f"^{side} measure entry 1 is -0.5; it must be >= 0$"):
        run(solver, C, measures, eps)


@pytest.mark.parametrize("solver", ["sinkhorn", "ibp"])
def test_last_trace_row_is_the_reported_dual(solver):
    # The trace's dual column and the certificate read one stacked dual.
    trace: list[dict] = []
    if solver == "sinkhorn":
        C, p, q = random_instance(3, 30)
        _, report = approx_ot_sinkhorn(C, p, q, 0.05 * C.inf_norm, trace=trace)
        traced = trace[-1]["dual_objective"]
    else:
        C, measures = random_measures(5, 4, 12)
        _, _, report = barycenter_ibp(measures, C, 0.1 * C.inf_norm, trace=trace)
        traced = trace[-1]["dual_value"]
    assert traced == pytest.approx(report.extras["dual_value"], rel=1e-12, abs=0.0)
