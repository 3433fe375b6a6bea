"""Fixed-support Wasserstein barycenters.

Iterative Bregman projections (the m-measure generalization of Sinkhorn
with a shared geometric-mean column marginal), its accelerated variant on
the smooth dual with the zero-sum constraint on the column potentials,
and the Fenchel-Legendre machinery for the regularized transport value
used by the decentralized solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConvergenceError,
    CostMatrix,
    DiscreteMeasure,
    DomainError,
    ParameterError,
    SolveReport,
    TransportPlan,
    as_matrix,
    as_weights,
    lse,
    neg_entropy,
    smooth_measure,
    softmax,
    transport_cost,
)
from .aam import AamState, _aam_step, _couplings, _dual_value, _unpack
from .rounding import round_to_polytope
from .sinkhorn import ScalingKernel, _require_positive, default_max_iter

IBP_TRACE_COLUMNS = ("sweep", "iteration", "dual_value", "marginal_spread")
AIBP_TRACE_COLUMNS = (
    "iteration",
    "dual_value",
    "primal_value",
    "duality_gap",
    "rounding_cost_gap",
)


@dataclass(frozen=True)
class BarycenterProblem:
    """Shared-cost barycenter instance with uniform weights 1/m."""

    measures: tuple
    cost: CostMatrix
    gamma: float

    def __post_init__(self):
        if not self.measures:
            raise DomainError("need at least one measure")
        measures = tuple(
            m if isinstance(m, DiscreteMeasure) else DiscreteMeasure(np.asarray(m, float))
            for m in self.measures
        )
        n = measures[0].n
        if any(m.n != n for m in measures):
            raise DomainError("all measures must share the same support size")
        cost = self.cost if isinstance(self.cost, CostMatrix) else CostMatrix(self.cost)
        if cost.n != n:
            raise DomainError("cost matrix size must match the measure support")
        if not (self.gamma > 0):
            raise ParameterError("gamma must be positive")
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "cost", cost)

    @property
    def m(self) -> int:
        return len(self.measures)

    @property
    def n(self) -> int:
        return self.measures[0].n

    @property
    def log_kernel(self) -> np.ndarray:
        return -self.cost.entries / self.gamma

    def measure_stack(self) -> np.ndarray:
        return np.stack([m.weights for m in self.measures])


@dataclass(frozen=True)
class WbDualState:
    """Stacked dual iterate (u_l, v_l), with sum_l v_l = 0 after v-updates.

    ``kernel`` is the scaling kernel the potentials came from; ``ibp_step``
    starts one at (u, v) when it is None.
    """

    u: np.ndarray  # (m, n)
    v: np.ndarray  # (m, n)
    iteration: int = 0
    kernel: ScalingKernel | None = field(default=None, compare=False, repr=False)

    @classmethod
    def initial(cls, m: int, n: int) -> "WbDualState":
        return cls(np.zeros((m, n)), np.zeros((m, n)))


def _log_couplings(u: np.ndarray, v: np.ndarray, logK: np.ndarray) -> np.ndarray:
    """Stacked log couplings: entry (l, i, j) = u_li + v_lj + logK_ij."""
    return u[:, :, None] + v[:, None, :] + logK[None, :, :]


def ibp_step(state: WbDualState, problem: BarycenterProblem) -> WbDualState:
    """One exact half-step of alternating minimization of the stacked dual.

    Even iterations update the column potentials (each column marginal
    becomes the geometric mean of the current ones, preserving
    sum_l v_l = 0); odd iterations update the row potentials (each row
    marginal becomes p_l).  Both are half-steps of the stacked scaling
    kernel, which the returned state carries to the next call.
    """
    p = _require_positive(problem.measure_stack())
    kernel = state.kernel
    if kernel is None:
        kernel = ScalingKernel.start(problem.log_kernel, state.u, state.v)
    if state.iteration % 2 == 0:
        kernel = kernel.half_step(rows=False)
    else:
        kernel = kernel.half_step(rows=True, target=p)
    u, v = kernel.potentials()
    return WbDualState(u, v, state.iteration + 1, kernel)


def ibp_dual_value(state: WbDualState, problem: BarycenterProblem) -> float:
    """Dual value (1/m) sum_l ( 1' B(u_l, v_l) 1 - <u_l, p_l> )."""
    logB = _log_couplings(state.u, state.v, problem.log_kernel)
    masses = np.exp(lse(logB.reshape(problem.m, -1), axis=1))
    inner = (state.u * problem.measure_stack()).sum(axis=1)
    return float((masses - inner).mean())


@dataclass
class IbpSolution:
    """Outcome of an IBP run: dual state, per-measure couplings, mean marginal."""

    state: WbDualState
    plans: list[np.ndarray]
    q_bar: np.ndarray


def ibp_solve(
    problem: BarycenterProblem,
    eps_prime: float,
    max_sweeps: int | None = None,
    trace: list | None = None,
    checks: list | None = None,
) -> IbpSolution:
    """Run IBP sweeps until the column marginals agree to eps_prime.

    The adaptive stopping rule needs no objective values: stop once
    (1/m) sum_l || B'(u_l, v_l) 1 - q_bar ||_1 <= eps_prime, where q_bar
    is the mean of the column marginals.

    ``trace`` (if given) collects one row per sweep with the dual value
    and the marginal spread; ``checks`` collects per-half-step exactness
    diagnostics (row-marginal match after u-updates, sum_l v_l and
    geometric-mean coincidence after v-updates).
    """
    if not (eps_prime > 0):
        raise ParameterError("eps_prime must be positive")
    p = _require_positive(problem.measure_stack())
    if max_sweeps is None:
        max_sweeps = default_max_iter(problem.cost, problem.gamma, p.ravel(), p.ravel(), eps_prime)

    state = WbDualState.initial(problem.m, problem.n)
    for sweep in range(1, max_sweeps + 1):
        state = ibp_step(state, problem)  # v half-step
        if checks is not None:
            checks.append(_ibp_check_row(state, problem, kind="v"))
        state = ibp_step(state, problem)  # u half-step
        if checks is not None:
            checks.append(_ibp_check_row(state, problem, kind="u"))

        q_l = state.kernel.marginals(rows=False)
        q_bar = q_l.mean(axis=0)
        spread = float(np.abs(q_l - q_bar).sum(axis=1).mean())
        if trace is not None:
            trace.append(
                {
                    "sweep": sweep,
                    "iteration": state.iteration,
                    "dual_value": ibp_dual_value(state, problem),
                    "marginal_spread": spread,
                }
            )
        if spread <= eps_prime:
            return IbpSolution(state, list(state.kernel.plans()), q_bar)

    raise ConvergenceError(
        f"IBP did not reach marginal spread {eps_prime:g} in {max_sweeps} sweeps",
        trace=trace if trace is not None else [],
    )


def _ibp_check_row(state: WbDualState, problem: BarycenterProblem, kind: str) -> dict:
    logB = _log_couplings(state.u, state.v, problem.log_kernel)
    row = {"iteration": state.iteration, "kind": kind}
    if kind == "u":
        rows = np.exp(lse(logB, axis=2))
        row["row_marginal_err"] = float(
            np.abs(rows - problem.measure_stack()).sum(axis=1).max()
        )
    else:
        cols = np.exp(lse(logB, axis=1))
        log_geo = np.log(cols).mean(axis=0)
        row["col_coincide_err"] = float(np.abs(cols - np.exp(log_geo)).max())
        row["v_sum_err"] = float(np.abs(state.v.sum(axis=0)).max())
    return row


def barycenter_ibp(
    measures, C, eps: float, max_sweeps: int | None = None, gamma: float | None = None,
    trace: list | None = None, checks: list | None = None,
) -> tuple[np.ndarray, list[TransportPlan], SolveReport]:
    """Approximate the non-regularized barycenter through IBP.

    Schedule: gamma = eps / (4 ln n) and eps' = eps / (4 ||C||_inf).  The
    input measures are separated from zero with the mixing transform
    before solving (the scaling updates need strict positivity), the
    returned common marginal is the mass-normalized average of the
    couplings' column marginals, and each coupling is rounded onto
    U(p_l, q_bar) with the original p_l.

    ``gamma`` overrides the schedule for regularized-mode runs.
    """
    C = C if isinstance(C, CostMatrix) else CostMatrix(as_matrix(C))
    ms = [m if isinstance(m, DiscreteMeasure) else DiscreteMeasure(np.asarray(m, float)) for m in measures]
    n = ms[0].n
    if n < 2:
        raise ParameterError("need support size n >= 2")
    if not (eps > 0):
        raise ParameterError("eps must be positive")
    if C.inf_norm == 0.0:
        # Degenerate zero cost: every feasible choice is optimal.
        q_bar = np.mean([m.weights for m in ms], axis=0)
        plans = [
            round_to_polytope(np.outer(m.weights, q_bar), m.weights, q_bar) for m in ms
        ]
        report = SolveReport(0.0, 0, 0.0, {"gamma": None, "eps": eps, "eps_prime": None})
        return q_bar, plans, report

    sched_gamma = eps / (4.0 * math.log(n))
    eps_prime = eps / (4.0 * C.inf_norm)
    used_gamma = gamma if gamma is not None else sched_gamma
    smoothed = [smooth_measure(m.weights, eps_prime / 4.0) for m in ms]
    problem = BarycenterProblem(tuple(smoothed), C, used_gamma)

    sol = ibp_solve(problem, eps_prime, max_sweeps=max_sweeps, trace=trace, checks=checks)
    masses = np.array([plan.sum() for plan in sol.plans])
    q_bar = np.sum([plan.sum(axis=0) for plan in sol.plans], axis=0) / masses.sum()

    phi = wb_dual_objective(sol.state, problem)
    plans, objective, _, gap, cost_gap = _round_with_gaps(sol.plans, ms, q_bar, C, used_gamma, phi)
    report = SolveReport(
        objective=objective,
        iterations=sol.state.iteration,
        certificate=max(gap, 0.0) + max(cost_gap, 0.0),
        params={
            "gamma": used_gamma,
            "eps": eps,
            "eps_prime": eps_prime,
            "gamma_override": gamma is not None,
        },
        trace=trace,
        trace_columns=IBP_TRACE_COLUMNS,
    )
    return q_bar, plans, report


def _round_with_gaps(plans, measures, q_bar, C, gamma: float, phi: float):
    """Round each coupling onto U(p_l, q_bar) with the original p_l.

    Returns the rounded plans, their mean cost, the mean regularized primal
    value of the couplings, the duality gap (that value plus the dual value
    ``phi``) and the mean rounding cost gap; the certificate is the sum of
    the two gaps' positive parts.
    """
    rounded = [round_to_polytope(plan, m.weights, q_bar) for plan, m in zip(plans, measures)]
    costs = [transport_cost(plan, C) for plan in plans]
    rounded_costs = [transport_cost(r.entries, C) for r in rounded]
    cost_gap = float(np.mean([r - c for r, c in zip(rounded_costs, costs)]))
    primal = float(np.mean([c + gamma * neg_entropy(plan) for c, plan in zip(costs, plans)]))
    return rounded, float(np.mean(rounded_costs)), primal, primal + phi, cost_gap


# ---------------------------------------------------------------------------
# Smooth dual with the zero-sum constraint, and its accelerated solver
# ---------------------------------------------------------------------------

def wb_dual_objective(state, problem: BarycenterProblem) -> float:
    """Smooth barycenter dual (gamma/m) sum_l ( ln 1' B_l 1 - <u_l, p_l> ):
    the stacked dual of the AAM engine without its q term."""
    u, v = _unpack(state)
    return _dual_value(u, v, problem.log_kernel, problem.gamma / problem.m, problem.measure_stack())


def wb_dual_gradients(state, problem: BarycenterProblem) -> tuple[np.ndarray, np.ndarray]:
    """Unconstrained gradient blocks of ``wb_dual_objective``.

    grad_u[l] = (gamma/m) (normalized row marginals of B_l - p_l),
    grad_v[l] = (gamma/m) normalized column marginals of B_l.  The
    zero-sum constraint on v is handled by projection at the solver
    level, so these match central finite differences directly.
    """
    u, v = _unpack(state)
    _, rows, cols, _ = _couplings(u, v, problem.log_kernel)
    scale = problem.gamma / problem.m
    return scale * (rows - problem.measure_stack()), scale * cols


def accelerated_ibp(
    measures, C, eps: float, max_iter: int = 100_000, gamma: float | None = None,
    trace: list | None = None, checks: list | None = None,
) -> tuple[np.ndarray, list[TransportPlan], SolveReport]:
    """Approximate the non-regularized barycenter by the accelerated scheme.

    Schedule: gamma = eps / (2 ln n), eps' = eps / (8 ||C||_inf), measures
    smoothed by (1 - eps'/4)(p_l + eps'/(4n) 1) and renormalized.  Each
    outer check averages the normalized couplings' column marginals into
    q_bar, rounds every coupling onto U(p_l, q_bar) with the original p_l,
    and stops once the averaged rounding cost gap and the duality gap both
    fall below eps / 4.
    """
    C = C if isinstance(C, CostMatrix) else CostMatrix(as_matrix(C))
    ms = [m if isinstance(m, DiscreteMeasure) else DiscreteMeasure(np.asarray(m, float)) for m in measures]
    n = ms[0].n
    if n < 2:
        raise ParameterError("need support size n >= 2")
    if not (eps > 0):
        raise ParameterError("eps must be positive")
    if C.inf_norm == 0.0:
        q_bar = np.mean([m.weights for m in ms], axis=0)
        plans = [
            round_to_polytope(np.outer(m.weights, q_bar), m.weights, q_bar) for m in ms
        ]
        report = SolveReport(0.0, 0, 0.0, {"gamma": None, "eps": eps, "eps_prime": None})
        return q_bar, plans, report

    sched_gamma = eps / (2.0 * math.log(n))
    eps_prime = eps / (8.0 * C.inf_norm)
    used_gamma = gamma if gamma is not None else sched_gamma
    smoothed = [smooth_measure(m.weights, eps_prime / 4.0) for m in ms]
    problem = BarycenterProblem(tuple(smoothed), C, used_gamma)
    m = problem.m
    log_kernel, P = problem.log_kernel, problem.measure_stack()

    state = AamState.initial(C.entries, used_gamma, m)
    for _ in range(max_iter):
        state = _aam_step(state, log_kernel, used_gamma / m, P)
        if checks is not None:
            eta = WbDualState(state.eta[:, :n], state.eta[:, n:], state.iteration)
            checks.append(_ibp_check_row(eta, problem, kind=state.block))
        q_bar = state.plan_avg.sum(axis=1).mean(axis=0)
        rounded, objective, primal, gap, cost_gap = _round_with_gaps(
            state.plan_avg, ms, q_bar, C, used_gamma, state.phi_eta
        )
        if trace is not None:
            trace.append(
                {
                    "iteration": state.iteration,
                    "dual_value": state.phi_eta,
                    "primal_value": primal,
                    "duality_gap": gap,
                    "rounding_cost_gap": cost_gap,
                }
            )
        if cost_gap <= eps / 4.0 and gap <= eps / 4.0:
            report = SolveReport(
                objective=objective,
                iterations=state.iteration,
                certificate=max(gap, 0.0) + max(cost_gap, 0.0),
                params={
                    "gamma": used_gamma,
                    "eps": eps,
                    "eps_prime": eps_prime,
                    "gamma_override": gamma is not None,
                },
                trace=trace,
                trace_columns=AIBP_TRACE_COLUMNS,
                extras={
                    "line_search_evals": state.line_search_evals,
                    "exp_passes": state.exp_passes,
                },
            )
            return q_bar, rounded, report
    raise ConvergenceError(
        f"accelerated IBP did not stop within {max_iter} iterations",
        trace=trace if trace is not None else [],
    )


# ---------------------------------------------------------------------------
# Fenchel-Legendre transform of the regularized transport value
# ---------------------------------------------------------------------------

def _conjugate_args(U, P, C, gamma):
    if not (gamma > 0):
        raise ParameterError("gamma must be positive")
    U = np.asarray(U, dtype=float)
    P = np.asarray(P, dtype=float)
    if U.ndim != 2 or U.shape != P.shape:
        raise DomainError("expected matching (m, n) stacks of duals and measures")
    return U, P, as_matrix(C)


def fenchel_dual_values(U, P, C, gamma: float) -> np.ndarray:
    """``fenchel_dual_ot`` at every row pair (U[k], P[k]) of two (m, n)
    stacks, as an (m,) array, from one (m, n, n) log-sum-exp pass."""
    U, P, C = _conjugate_args(U, P, C, gamma)
    if np.any(P <= 0):
        raise DomainError("measure must be strictly positive")
    Z = U[:, None, :] - C
    Z /= gamma  # [k, j, i] = (u_ki - C_ji) / gamma
    lse_rows = lse(Z, axis=2)
    return gamma * np.einsum("kj,kj->k", P, lse_rows) - gamma * np.einsum("kj,kj->k", P, np.log(P))


def fenchel_dual_gradients(U, P, C, gamma: float) -> np.ndarray:
    """``fenchel_dual_gradient`` at every row pair (U[k], P[k]) of two
    (m, n) stacks, as an (m, n) array, from one (m, n, n) softmax pass."""
    U, P, C = _conjugate_args(U, P, C, gamma)
    Z = U[:, None, :] - C
    Z /= gamma
    soft = softmax(Z)  # [k, j]: softmax over i of (u_ki - C_ji) / gamma
    return (P[:, None, :] @ soft)[:, 0, :]


def fenchel_dual_ot(u, p, C, gamma: float) -> float:
    """Convex conjugate of the regularized transport value in its second
    marginal, evaluated in closed form.

    Value: gamma * sum_j p_j ln( sum_i exp((u_i - C_ji)/gamma) )
    - gamma * <p, ln p>.  Convex in u; adding c to every u_i adds exactly c.
    The m = 1 case of ``fenchel_dual_values``.
    """
    return float(fenchel_dual_values(as_weights(u)[None], as_weights(p)[None], C, gamma)[0])


def fenchel_dual_gradient(u, p, C, gamma: float) -> np.ndarray:
    """Gradient of ``fenchel_dual_ot``: a p-mixture of softmax columns.

    Component l: sum_j p_j softmax_i((u_i - C_ji)/gamma)[l].  Always a
    point of the probability simplex.  The m = 1 case of
    ``fenchel_dual_gradients``.
    """
    return fenchel_dual_gradients(as_weights(u)[None], as_weights(p)[None], C, gamma)[0]
