"""Fixed-support Wasserstein barycenters.

Iterative Bregman projections (the m-measure generalization of Sinkhorn
with a shared geometric-mean column marginal), its accelerated variant on
the smooth dual with the zero-sum constraint on the column potentials,
and the single-measure views of the conjugate of the regularized
transport value (``kernel.fenchel_dual_values`` and
``kernel.fenchel_dual_gradients``).
"""

from __future__ import annotations

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
    as_potentials,
    as_weights,
    strictly_positive,
)
from .aam import AamState, _aam_step
from .kernel import (
    ScalingKernel,
    couplings,
    dual_value,
    fenchel_dual_gradients,
    fenchel_dual_values,
    log_kernel,
    log_marginals,
)
from .sinkhorn import (
    AIBP_SCHEDULE,
    IBP_SCHEDULE,
    default_max_iter,
    epsilon_pipeline,
    radius_bound,
)

IBP_TRACE_COLUMNS = ("sweep", "iteration", "dual_value", "marginal_spread")


@dataclass(frozen=True)
class BarycenterProblem:
    """Shared-cost barycenter instance with uniform weights 1/m."""

    measures: tuple
    cost: CostMatrix
    gamma: float

    def __post_init__(self):
        if not self.measures:
            raise DomainError("need at least one measure")
        measures = tuple(DiscreteMeasure(m) for m in self.measures)
        n = measures[0].n
        if any(m.n != n for m in measures):
            raise DomainError("all measures must share the same support size")
        cost = CostMatrix(self.cost)
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
        return log_kernel(self.cost, self.gamma)

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


def ibp_step(state: WbDualState, problem: BarycenterProblem) -> WbDualState:
    """One exact half-step of alternating minimization of the stacked dual.

    Even iterations update the column potentials (each column marginal
    becomes the geometric mean of the current ones, preserving
    sum_l v_l = 0); odd iterations update the row potentials (each row
    marginal becomes p_l).  Both are half-steps of the stacked scaling
    kernel, which the returned state carries to the next call.
    """
    p = strictly_positive(problem.measure_stack(), "marginal")
    kernel = state.kernel
    if kernel is None:
        kernel = ScalingKernel.start(problem.log_kernel, state.u, state.v)
    if state.iteration % 2 == 0:
        kernel = kernel.half_step(rows=False)
    else:
        kernel = kernel.half_step(rows=True, target=p)
    u, v = kernel.potentials()
    return WbDualState(u, v, state.iteration + 1, kernel)


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
    (``wb_dual_objective``, the stacked smooth dual at scale gamma / m)
    and the marginal spread; ``checks`` collects per-half-step exactness
    diagnostics (row-marginal match after u-updates, sum_l v_l and
    geometric-mean coincidence after v-updates).
    """
    if not (eps_prime > 0):
        raise ParameterError("eps_prime must be positive")
    p = strictly_positive(problem.measure_stack(), "marginal")
    if max_sweeps is None:
        R = radius_bound(problem.cost, problem.gamma, p.ravel(), p.ravel())
        max_sweeps = default_max_iter(R, eps_prime)

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
            # wb_dual_objective without its exp pass: each q_l sums to 1' B_l 1.
            phi = dual_value(
                state.u, state.v, None, problem.gamma / problem.m, p,
                log_mass=np.log(q_l.sum(axis=1)),
            )
            trace.append(
                {
                    "sweep": sweep,
                    "iteration": state.iteration,
                    "dual_value": phi,
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
    row = {"iteration": state.iteration, "kind": kind}
    sums = np.exp(log_marginals(state.u, state.v, problem.log_kernel, rows=kind == "u"))
    if kind == "u":
        row["row_marginal_err"] = float(np.abs(sums - problem.measure_stack()).sum(axis=1).max())
    else:
        log_geo = np.log(sums).mean(axis=0)
        row["col_coincide_err"] = float(np.abs(sums - np.exp(log_geo)).max())
        row["v_sum_err"] = float(np.abs(state.v.sum(axis=0)).max())
    return row


def barycenter_ibp(
    measures, C, eps: float, max_sweeps: int | None = None, gamma: float | None = None,
    trace: list | None = None, checks: list | None = None,
) -> tuple[np.ndarray, list[TransportPlan], SolveReport]:
    """Approximate the non-regularized barycenter through IBP.

    Runs ``sinkhorn.epsilon_pipeline`` with ``IBP_SCHEDULE``: IBP stops at
    marginal spread eps' on the smoothed measures, and phi is the stacked
    dual at its final potentials.  ``gamma`` overrides the schedule for
    regularized-mode runs; ``trace`` and ``checks`` collect ``ibp_solve``'s
    rows.
    """

    def solve(C, gamma, eps_prime, smoothed, _):
        problem = BarycenterProblem(tuple(smoothed), C, gamma)
        sol = ibp_solve(problem, eps_prime, max_sweeps=max_sweeps, trace=trace, checks=checks)
        phi = wb_dual_objective(sol.state, problem)
        yield sol.plans, gamma * sol.state.v, phi, sol.state.iteration, {}

    return epsilon_pipeline(
        IBP_SCHEDULE, C, measures, None, eps, solve,
        gamma=gamma, trace=trace, trace_columns=IBP_TRACE_COLUMNS,
    )


# ---------------------------------------------------------------------------
# Smooth dual with the zero-sum constraint, and its accelerated solver
# ---------------------------------------------------------------------------

def wb_dual_objective(state, problem: BarycenterProblem) -> float:
    """Smooth barycenter dual (gamma/m) sum_l ( ln 1' B_l 1 - <u_l, p_l> ):
    the stacked dual of the AAM engine without its q term."""
    u, v = as_potentials(state)
    return dual_value(u, v, problem.log_kernel, problem.gamma / problem.m, problem.measure_stack())


def wb_dual_gradients(state, problem: BarycenterProblem) -> tuple[np.ndarray, np.ndarray]:
    """Unconstrained gradient blocks of ``wb_dual_objective``.

    grad_u[l] = (gamma/m) (normalized row marginals of B_l - p_l),
    grad_v[l] = (gamma/m) normalized column marginals of B_l.  The
    zero-sum constraint on v is handled by projection at the solver
    level, so these match central finite differences directly.
    """
    u, v = as_potentials(state)
    _, rows, cols, _ = couplings(u, v, problem.log_kernel)
    scale = problem.gamma / problem.m
    return scale * (rows - problem.measure_stack()), scale * cols


def accelerated_ibp(
    measures, C, eps: float, max_iter: int = 100_000, gamma: float | None = None,
    trace: list | None = None, checks: list | None = None,
) -> tuple[np.ndarray, list[TransportPlan], SolveReport]:
    """Approximate the non-regularized barycenter by the accelerated scheme.

    Runs ``sinkhorn.epsilon_pipeline`` with ``AIBP_SCHEDULE``: every
    iteration's averaged couplings give q_bar and are rounded onto
    U(p_l, q_bar), and the solve stops at the first iteration whose
    rounded plans cost on average at most eps above
    ``sinkhorn.lp_lower_bound`` at gamma times the v blocks of eta.
    ``gamma`` overrides the schedule; ``checks`` collects the
    block-exactness rows at every eta.
    """

    def solve(C, gamma, eps_prime, smoothed, _):
        problem = BarycenterProblem(tuple(smoothed), C, gamma)
        m, n = problem.m, problem.n
        log_kernel, P = problem.log_kernel, problem.measure_stack()
        state = AamState.initial(C.entries, gamma, m)
        for _ in range(max_iter):
            state = _aam_step(state, log_kernel, gamma / m, P)
            if checks is not None:
                eta = WbDualState(state.eta[:, :n], state.eta[:, n:], state.iteration)
                checks.append(_ibp_check_row(eta, problem, kind=state.block))
            G = gamma * state.eta[:, n:]
            yield state.plan_avg, G, state.phi_eta, state.iteration, {
                "line_search_evals": state.line_search_evals,
                "exp_passes": state.exp_passes,
            }

    return epsilon_pipeline(AIBP_SCHEDULE, C, measures, None, eps, solve, gamma=gamma, trace=trace)


# ---------------------------------------------------------------------------
# Conjugate of the regularized transport value, one measure at a time
# ---------------------------------------------------------------------------

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
