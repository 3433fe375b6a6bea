"""Primal-dual accelerated alternating minimization on the smooth dual.

The gradient step of an accelerated scheme is replaced by exact
minimization over the u or v block (whichever has the larger partial
gradient), while a weighted running average of the normalized couplings
reconstructs the primal plan.  The end-to-end pipeline pairs this with
marginal smoothing and polytope rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    NumericalError,
    ParameterError,
    RegularizationParams,
    SolveReport,
    TransportPlan,
    as_matrix,
    as_weights,
    lse,
    marginal_violation,
    reg_primal_objective,
    smooth_marginals,
    transport_cost,
)
from .rounding import round_to_polytope
from .sinkhorn import ScalingKernel

TRACE_COLUMNS = (
    "iteration",
    "dual_value",
    "primal_value",
    "duality_gap",
    "feasibility_l2",
    "rounding_cost_gap",
)

#: The line search stops once its sign bracket on the mixing weight is this
#: narrow: the slope's rounding noise then decides the last digits.
LINE_SEARCH_WIDTH = 1e-14


@dataclass(frozen=True)
class AamState:
    """Iterate of the accelerated scheme on the stacked (u, v) space.

    ``phi_eta`` is the dual value at eta (NaN before the first iteration)
    and ``line_search_evals`` counts the line search's exp passes so far.
    """

    eta: np.ndarray
    zeta: np.ndarray
    mu: np.ndarray
    A_big: float
    plan_avg: np.ndarray
    iteration: int = 0
    phi_eta: float = math.nan
    line_search_evals: int = 0

    @classmethod
    def initial(cls, C, gamma: float) -> "AamState":
        n = as_matrix(C).shape[0]
        zero = np.zeros(2 * n)
        return cls(
            eta=zero.copy(),
            zeta=zero.copy(),
            mu=zero.copy(),
            A_big=0.0,
            plan_avg=normalized_coupling(zero[:n], zero[n:], C, gamma),
        )


@dataclass(frozen=True)
class DistanceBound:
    """Bound on the dual solution norm for the zero starting point."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0):
            raise DomainError("distance bound requires strictly positive marginals")

    @classmethod
    def from_instance(cls, C, gamma: float, p, q) -> "DistanceBound":
        C = as_matrix(C)
        p = as_weights(p)
        q = as_weights(q)
        smallest = min(p.min(), q.min())
        if smallest <= 0:
            raise DomainError("marginal must be strictly positive")
        n = p.size
        return cls(
            math.sqrt(n / 2.0)
            * (float(C.max()) - 0.5 * gamma * math.log(smallest))
        )


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = x.size // 2
    return x[:n], x[n:]


def _unpack(pot) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(pot, "u"):
        return np.asarray(pot.u, float), np.asarray(pot.v, float)
    u, v = pot
    return np.asarray(u, float), np.asarray(v, float)


def dual_objective_lip(pot, C, gamma: float, p, q) -> float:
    """Smooth dual value gamma * (ln(1' B(u,v) 1) - <u, p> - <v, q>).

    Invariant under adding constants to u or v; evaluates to
    2 * gamma * ln n at the origin when C = 0.
    """
    u, v = _unpack(pot)
    if not (gamma > 0):
        raise ParameterError("gamma must be positive")
    logB = u[:, None] + v[None, :] - as_matrix(C) / gamma
    total = float(lse(logB.ravel()))
    return gamma * (total - float(u @ as_weights(p)) - float(v @ as_weights(q)))


def dual_partial_gradients(pot, C, gamma: float, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Partial gradients of the smooth dual w.r.t. u and v.

    grad_u = gamma * (normalized row marginals - p) and likewise for
    columns; each block sums to zero.  (This is the derivative of
    ``dual_objective_lip`` itself, verified against central finite
    differences.)
    """
    u, v = _unpack(pot)
    logB = u[:, None] + v[None, :] - as_matrix(C) / gamma
    log_rows = lse(logB, axis=1)
    log_cols = lse(logB, axis=0)
    total = lse(log_rows)
    row_m = np.exp(log_rows - total)
    col_m = np.exp(log_cols - total)
    return gamma * (row_m - as_weights(p)), gamma * (col_m - as_weights(q))


def normalized_coupling(u, v, C, gamma: float) -> np.ndarray:
    """Unit-mass coupling B(u, v) / (1' B(u, v) 1), computed stably."""
    logB = np.asarray(u, float)[:, None] + np.asarray(v, float)[None, :] - as_matrix(C) / gamma
    return np.exp(logB - lse(logB.ravel()))


def _slope_and_curvature(log_kernel, u, v, du, dv, scale, p, q, beta) -> tuple[float, float]:
    """phi'(beta) and phi''(beta) of the stacked smooth dual along (du, dv).

    Coupling l has log entries u_l + v_l' + L + beta * D_l with
    D_l = du_l + dv_l'.  With pi_l its normalized coupling, the dual
    scale * sum_l (ln 1' B_l 1 - <u_l, p_l> - <v_l, q_l>) has slope
    scale * sum_l (E[D_l] - <du_l, p_l> - <dv_l, q_l>) and curvature
    scale * sum_l Var[D_l] under pi_l (no q term when q is None).  One
    exp pass gives both: the variance comes from the row and column sums
    and one matrix-vector product, with du and dv centred on their means.
    """
    wu = u + beta * du
    wv = v + beta * dv
    B = (wu - wu.max(axis=1)[:, None])[:, :, None] + (wv - wv.max(axis=1)[:, None])[:, None, :]
    B += log_kernel
    B -= B.max(axis=(1, 2))[:, None, None]
    np.exp(B, out=B)
    mass = B.sum(axis=(1, 2))
    rows = B.sum(axis=2) / mass[:, None]
    cols = B.sum(axis=1) / mass[:, None]
    mean_u = (du * rows).sum(axis=1)
    mean_v = (dv * cols).sum(axis=1)
    cu = du - mean_u[:, None]
    cv = dv - mean_v[:, None]
    cov = (cu * np.matmul(B, cv[:, :, None])[:, :, 0]).sum(axis=1) / mass
    var = (rows * cu * cu).sum(axis=1) + (cols * cv * cv).sum(axis=1) + 2.0 * cov
    slope = mean_u + mean_v - (du * p).sum(axis=1)
    if q is not None:
        slope = slope - (dv * q).sum(axis=1)
    return scale * float(slope.sum()), scale * float(var.sum())


def newton_line_search(log_kernel, u, v, du, dv, scale: float, p, q=None) -> tuple[float, int]:
    """Minimize the stacked smooth dual over the segment (u, v) + beta (du, dv),
    beta in [0, 1]; see ``_slope_and_curvature`` for the dual.

    The dual is convex in beta, so its slope is nondecreasing.  Returns 0
    when the slope at 0 is >= 0 and 1 when the slope at 1 is <= 0.
    Otherwise it keeps a sign bracket on the slope and takes Newton steps
    inside it, starting from the end with the smaller slope magnitude, and
    bisects when a step leaves the bracket or the curvature is not
    positive.  A Newton step shorter than half of ``LINE_SEARCH_WIDTH`` is
    lengthened to that, so that the probe after convergence closes the
    bracket.  Stops once the bracket is at most ``LINE_SEARCH_WIDTH`` wide
    and returns its midpoint.  All arrays are (m, n).

    Returns:
        The mixing weight, and the number of exp passes spent on it.

    Raises:
        NumericalError: if a slope or curvature is not finite.
    """
    evals = 0

    def probe(beta: float) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        slope, curv = _slope_and_curvature(log_kernel, u, v, du, dv, scale, p, q, beta)
        if not (math.isfinite(slope) and math.isfinite(curv)):
            raise NumericalError("line search evaluated a non-finite slope or curvature")
        return slope, curv

    slope_lo, curv_lo = probe(0.0)
    if slope_lo >= 0.0:
        return 0.0, evals
    slope_hi, curv_hi = probe(1.0)
    if slope_hi <= 0.0:
        return 1.0, evals
    lo, hi = 0.0, 1.0
    if -slope_lo <= slope_hi:
        beta, slope, curv = lo, slope_lo, curv_lo
    else:
        beta, slope, curv = hi, slope_hi, curv_hi
    while hi - lo > LINE_SEARCH_WIDTH:
        step = -slope / curv if curv > 0.0 else math.nan
        if abs(step) < 0.5 * LINE_SEARCH_WIDTH:
            step = math.copysign(0.5 * LINE_SEARCH_WIDTH, step)
        if not (lo < beta + step < hi):
            step = 0.5 * (lo + hi) - beta
        beta += step
        slope, curv = probe(beta)
        if slope == 0.0:
            return beta, evals
        if slope < 0.0:
            lo = beta
        else:
            hi = beta
    return 0.5 * (lo + hi), evals


def _shift_blocks(x: np.ndarray) -> np.ndarray:
    """Shift each block so its largest entry is 0.

    The dual value, its gradients and the normalized coupling are all
    invariant under per-block constant shifts; pinning the max at 0 keeps
    every exponential bounded by 1 and is idempotent, so repeated
    normalization cannot drift the gauge.
    """
    u, v = _split(x)
    return np.concatenate([u - u.max(), v - v.max()])


def aam_iterate(state: AamState, C, gamma: float, p, q, shift_normalize: bool = True) -> AamState:
    """One full iteration of the accelerated alternating minimization.

    Line-searches the mixing weight on [0, 1], picks the block with the
    larger partial gradient, minimizes the dual exactly over it, solves
    the step-size quadratic, updates the momentum point, and folds the
    normalized coupling at mu into the primal average.
    """
    C = as_matrix(C)
    p = as_weights(p)
    q = as_weights(q)

    def phi(x: np.ndarray) -> float:
        return dual_objective_lip(_split(x), C, gamma, p, q)

    eta, zeta = state.eta, state.zeta
    evals = 0
    if np.array_equal(eta, zeta):
        mu = eta.copy()
    else:
        (eta_u, eta_v), (du, dv) = _split(eta), _split(zeta - eta)
        beta, evals = newton_line_search(
            -C / gamma, eta_u[None], eta_v[None], du[None], dv[None], gamma, p[None], q[None]
        )
        mu = beta * zeta + (1.0 - beta) * eta
    if shift_normalize:
        mu = _shift_blocks(mu)

    mu_u, mu_v = _split(mu)
    gu, gv = dual_partial_gradients((mu_u, mu_v), C, gamma, p, q)
    grad = np.concatenate([gu, gv])
    gsq = float(grad @ grad)
    phi_mu = phi(mu)
    if not math.isfinite(phi_mu):
        raise NumericalError(f"dual value not finite at mu (iteration {state.iteration})")

    rows = float(gu @ gu) >= float(gv @ gv)
    kernel = ScalingKernel.start(-C / gamma, mu_u[None], mu_v[None])
    kernel = kernel.half_step(rows, (p if rows else q)[None])
    eta_new = np.concatenate(kernel.potentials(), axis=1)[0]
    phi_eta_new = phi(eta_new)

    A = state.A_big
    pi_mu = normalized_coupling(mu_u, mu_v, C, gamma)
    if gsq <= 0.0:
        # Stationary momentum point: the averaging weight is degenerate and
        # the coupling at mu is already optimal.
        return AamState(
            eta=eta_new,
            zeta=zeta.copy(),
            mu=mu,
            A_big=A,
            plan_avg=pi_mu if A == 0.0 else state.plan_avg,
            iteration=state.iteration + 1,
            phi_eta=phi_eta_new,
            line_search_evals=state.line_search_evals + evals,
        )

    # Positive root of a^2 ||g||^2 - 2 delta a - 2 delta A = 0 with
    # delta = phi(mu) - phi(eta_new) >= 0 (exact block minimization).
    delta = max(phi_mu - phi_eta_new, 0.0)
    a = (delta + math.sqrt(delta * delta + 2.0 * delta * A * gsq)) / gsq
    A_new = A + a

    zeta_new = zeta - a * grad
    if shift_normalize:
        zeta_new = _shift_blocks(zeta_new)

    plan_avg = pi_mu if A_new == 0.0 else (a * pi_mu + A * state.plan_avg) / A_new
    return AamState(
        eta=eta_new,
        zeta=zeta_new,
        mu=mu,
        A_big=A_new,
        plan_avg=plan_avg,
        iteration=state.iteration + 1,
        phi_eta=phi_eta_new,
        line_search_evals=state.line_search_evals + evals,
    )


def aam_solve(
    C,
    gamma: float,
    p,
    q,
    gap_tol: float = 1e-8,
    max_iter: int = 200_000,
    check_every: int = 10,
    trace: list | None = None,
    shift_normalize: bool = True,
) -> tuple[AamState, SolveReport]:
    """Standalone regularized solve with a two-sided optimality certificate
    (the accelerated scheme has no intrinsic stopping rule, so one is
    imposed here).

    At every check the coupling at eta is rounded onto U(p, q); weak
    duality sandwiches the regularized optimum between -phi(eta) and the
    rounded plan's objective, so the sandwich width certifies the dual
    estimate.  Stops once the width is <= gap_tol; the report's objective
    is -phi(eta) and the certificate is the final width.
    """
    C = as_matrix(C)
    p = as_weights(p)
    q = as_weights(q)
    state = AamState.initial(C, gamma)
    for _ in range(max_iter):
        state = aam_iterate(state, C, gamma, p, q, shift_normalize=shift_normalize)
        if state.iteration % check_every != 0:
            continue
        phi_eta = state.phi_eta
        pi_eta = normalized_coupling(state.eta[: p.size], state.eta[p.size :], C, gamma)
        feasible = round_to_polytope(pi_eta, p, q)
        width = reg_primal_objective(feasible.entries, C, gamma) + phi_eta
        if trace is not None:
            primal = reg_primal_objective(state.plan_avg, C, gamma)
            row = _trace_row(
                state.iteration, phi_eta, primal, primal + phi_eta, state.plan_avg, p, q
            )
            row["certificate_width"] = width
            trace.append(row)
        if width <= gap_tol:
            report = SolveReport(
                objective=-phi_eta,
                iterations=state.iteration,
                certificate=width,
                params={"gamma": gamma, "gap_tol": gap_tol},
                trace=trace,
                trace_columns=TRACE_COLUMNS + ("certificate_width",),
                extras={
                    "dual_value": phi_eta,
                    "upper_bound": reg_primal_objective(feasible.entries, C, gamma),
                    "coupling_violation": marginal_violation(pi_eta, p, q),
                    "line_search_evals": state.line_search_evals,
                },
            )
            return state, report
    raise ConvergenceError(
        f"AAM did not certify the optimum to width {gap_tol:g} in {max_iter} iterations",
        trace=trace if trace is not None else [],
    )


def _trace_row(t, phi_eta, primal, gap, plan, p, q, cost_gap=None) -> dict:
    feas = math.sqrt(
        float(((plan.sum(axis=1) - p) ** 2).sum())
        + float(((plan.sum(axis=0) - q) ** 2).sum())
    )
    return {
        "iteration": t,
        "dual_value": phi_eta,
        "primal_value": primal,
        "duality_gap": gap,
        "feasibility_l2": feas,
        "rounding_cost_gap": cost_gap,
    }


def accelerated_ot(
    C, p, q, eps: float, max_iter: int = 100_000, trace: list | None = None
) -> tuple[TransportPlan, SolveReport]:
    """Epsilon-additive transport approximation by the accelerated scheme.

    Sets gamma = eps / (3 ln n) and eps' = eps / (8 ||C||_inf), smooths the
    marginals, and iterates; each outer check rounds the averaged plan
    onto U(p, q) and stops once the rounding cost gap and the duality gap
    both fall below eps / 6.  The vacuity short circuit of the Sinkhorn
    pipeline applies here too (it also covers C = 0, where the schedule
    for eps' is undefined).
    """
    if not (eps > 0):
        raise ParameterError("eps must be positive")
    C = as_matrix(C)
    p = as_weights(p)
    q = as_weights(q)
    n = p.size
    if n < 2:
        raise ParameterError("need support size n >= 2")
    c_inf = float(C.max())

    if eps >= 8.0 * c_inf:
        plan = TransportPlan(np.outer(p, q), feasible_for=(p, q))
        report = SolveReport(
            objective=transport_cost(plan.entries, C),
            iterations=0,
            certificate=0.0,
            params={"gamma": None, "eps": eps, "eps_prime": None, "short_circuit": True},
        )
        return plan, report

    schedule = RegularizationParams(
        gamma=eps / (3.0 * math.log(n)), eps=eps, eps_prime=eps / (8.0 * c_inf)
    )
    gamma, eps_prime = schedule.gamma, schedule.eps_prime
    p_s, q_s = smooth_marginals(p, q, eps_prime)
    ps, qs = p_s.weights, q_s.weights

    state = AamState.initial(C, gamma)
    for _ in range(max_iter):
        state = aam_iterate(state, C, gamma, ps, qs)
        plan_hat = round_to_polytope(state.plan_avg, p, q)
        cost_gap = transport_cost(plan_hat.entries, C) - transport_cost(state.plan_avg, C)
        phi_eta = state.phi_eta
        primal = reg_primal_objective(state.plan_avg, C, gamma)
        gap = primal + phi_eta
        if trace is not None:
            trace.append(
                _trace_row(state.iteration, phi_eta, primal, gap, state.plan_avg, ps, qs, cost_gap)
            )
        if cost_gap <= eps / 6.0 and gap <= eps / 6.0:
            report = SolveReport(
                objective=transport_cost(plan_hat.entries, C),
                iterations=state.iteration,
                certificate=max(gap, 0.0) + max(cost_gap, 0.0),
                params={
                    "gamma": gamma,
                    "eps": eps,
                    "eps_prime": eps_prime,
                    "short_circuit": False,
                },
                trace=trace,
                trace_columns=TRACE_COLUMNS,
                extras={
                    "dual_value": phi_eta,
                    "primal_value": primal,
                    "duality_gap": gap,
                    "rounding_cost_gap": cost_gap,
                    "line_search_evals": state.line_search_evals,
                },
            )
            return plan_hat, report
    raise ConvergenceError(
        f"accelerated OT did not stop within {max_iter} iterations",
        trace=trace if trace is not None else [],
    )
