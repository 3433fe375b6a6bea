"""The shared epsilon-pipeline of the four approximate solvers: the vacuity
short-circuit, the certificate and the recorded schedule."""

import math

import numpy as np
import pytest

from otkit.aam import accelerated_ot
from otkit.barycenter import accelerated_ibp, barycenter_ibp
from otkit.core import ConvergenceError, DiscreteMeasure, DomainError, ParameterError
from otkit.oracle import exact_barycenter_lp, exact_ot_lp
from otkit.sinkhorn import GAP_KEYS, GAP_TRACE_COLUMNS, approx_ot_sinkhorn
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


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("seed", [41, 65])
def test_certificate_is_sum_of_positive_gaps(solver, seed):
    C, measures = instance(solver, seed, 16 if solver in ("sinkhorn", "aam") else 8)
    eps = 0.1 * C.inf_norm
    _, _, report = run(solver, C, measures, eps)
    extras = report.extras
    assert set(GAP_KEYS) <= set(extras)
    assert extras["duality_gap"] == extras["primal_value"] + extras["dual_value"]
    assert report.certificate == max(extras["duality_gap"], 0.0) + max(extras["rounding_cost_gap"], 0.0)
    assert math.isfinite(report.certificate)
    assert report.certificate < 0.5 * eps


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
    eps = 0.1 * C.inf_norm
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
