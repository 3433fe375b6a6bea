"""Primal-dual accelerated alternating minimization on the smooth dual.

The gradient step of an accelerated scheme is replaced by exact
minimization over the u or v block (whichever has the larger partial
gradient), while a weighted running average of the normalized couplings
reconstructs the primal plan.  One engine, ``_aam_step``, runs the scheme
on the stacked dual of m couplings: transport is m = 1, and the
barycenter dual of ``barycenter.accelerated_ibp`` is the case without a q
term.  ``accelerated_ot`` runs it inside ``sinkhorn.epsilon_pipeline``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    NumericalError,
    SolveReport,
    TransportPlan,
    as_matrix,
    as_potentials,
    as_weights,
    marginal_violation,
    reg_primal_objective,
    strictly_positive,
)
from .kernel import ScalingKernel, couplings, dual_value, log_kernel
from .kernel import slope_and_curvature as _slope_and_curvature
from .rounding import round_to_polytope
from .sinkhorn import AAM_SCHEDULE, GAP_TRACE_COLUMNS, _gap_row, epsilon_pipeline

#: The line search stops once its sign bracket on the mixing weight is this
#: narrow: the slope's rounding noise then decides the last digits.
LINE_SEARCH_WIDTH = 1e-14


@dataclass(frozen=True)
class AamState:
    """Iterate of the accelerated scheme on the stacked (u, v) space.

    ``eta``, ``zeta`` and ``mu`` hold u and v side by side: (2n,) for
    transport, (m, 2n) for m stacked couplings.  ``plan_avg`` is the
    weighted average of the normalized couplings at mu, (n, n) or
    (m, n, n).  ``phi_eta`` is the dual value at eta (NaN before the first
    iteration), ``block`` the block ("u" or "v") the last exact step
    minimized over.  ``line_search_evals`` counts the line search's exp
    passes so far, ``absorptions`` the exact steps' kernel absorptions, and
    ``exp_passes`` every n^2 exp pass: the start, the line search, one at
    mu and one at eta per iteration, and two per absorption.
    """

    eta: np.ndarray
    zeta: np.ndarray
    mu: np.ndarray
    A_big: float
    plan_avg: np.ndarray
    iteration: int = 0
    phi_eta: float = math.nan
    block: str = ""
    line_search_evals: int = 0
    absorptions: int = 0
    exp_passes: int = 1

    @classmethod
    def initial(cls, C, gamma: float, m: int | None = None) -> "AamState":
        """The origin, for transport (m None) or for m stacked couplings."""
        L = log_kernel(C, gamma)
        n = L.shape[0]
        zero = np.zeros((1 if m is None else m, n))
        plans = couplings(zero, zero, L)[0]
        x = np.zeros((2 * n,) if m is None else (m, 2 * n))
        return cls(
            eta=x, zeta=x.copy(), mu=x.copy(), A_big=0.0,
            plan_avg=plans[0] if m is None else plans,
        )


def distance_bound(C, gamma: float, p, q) -> float:
    """Bound on the dual solution norm for the zero starting point,
    sqrt(n / 2) (||C||_inf - (gamma / 2) ln(min marginal entry)).

    Raises:
        DomainError: if a marginal entry is not > 0, or the bound is not
            finite and positive.
    """
    p = strictly_positive(as_weights(p), "marginal")
    q = strictly_positive(as_weights(q), "marginal")
    D = math.sqrt(p.size / 2.0) * (
        float(as_matrix(C).max()) - 0.5 * gamma * math.log(min(p.min(), q.min()))
    )
    if not (math.isfinite(D) and D > 0):
        raise DomainError(f"distance bound D = {D:g} is not finite and positive")
    return D


def dual_objective_lip(pot, C, gamma: float, p, q) -> float:
    """Smooth dual value gamma * (ln(1' B(u,v) 1) - <u, p> - <v, q>).

    Invariant under adding constants to u or v; evaluates to
    2 * gamma * ln n at the origin when C = 0.  The m = 1 view of the
    stacked dual the AAM engine evaluates.
    """
    u, v = as_potentials(pot)
    p, q = as_weights(p)[None], as_weights(q)[None]
    return dual_value(u[None], v[None], log_kernel(C, gamma), gamma, p, q)


def dual_partial_gradients(pot, C, gamma: float, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Partial gradients of the smooth dual w.r.t. u and v.

    grad_u = gamma * (normalized row marginals - p) and likewise for
    columns; each block sums to zero.  (This is the derivative of
    ``dual_objective_lip`` itself, verified against central finite
    differences.)
    """
    u, v = as_potentials(pot)
    _, rows, cols, _ = couplings(u[None], v[None], log_kernel(C, gamma))
    return gamma * (rows[0] - as_weights(p)), gamma * (cols[0] - as_weights(q))


def normalized_coupling(u, v, C, gamma: float) -> np.ndarray:
    """Unit-mass coupling B(u, v) / (1' B(u, v) 1), computed stably."""
    u, v = as_potentials((u, v))
    return couplings(u[None], v[None], log_kernel(C, gamma))[0][0]


def newton_line_search(log_kernel, u, v, du, dv, scale: float, p, q=None) -> tuple[float, int]:
    """Minimize the stacked smooth dual over the segment (u, v) + beta (du, dv),
    beta in [0, 1]; see ``kernel.slope_and_curvature`` for the dual.

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


def _shift_blocks(x: np.ndarray, n: int, v_too: bool) -> np.ndarray:
    """Shift each u_l (and each v_l when ``v_too``) so its largest entry is 0.

    The dual value, its gradients and the normalized couplings are all
    invariant under these shifts (a v_l shift only when the dual has its
    <v_l, q_l> term); pinning the max at 0 keeps every exponential bounded
    by 1 and is idempotent, so repeated normalization cannot drift the
    gauge.
    """
    x = x.copy()
    x[:, :n] -= x[:, :n].max(axis=1)[:, None]
    if v_too:
        x[:, n:] -= x[:, n:].max(axis=1)[:, None]
    return x


def _dual_at(u, v, log_kernel, scale: float, p, q=None):
    """The stacked dual at (u, v) from one exp pass: its value, both
    gradient blocks (the v block projected onto sum_l v_l = 0 when q is
    None), the normalized couplings and ln 1' B_l 1."""
    pi, rows, cols, log_mass = couplings(u, v, log_kernel)
    phi = dual_value(u, v, log_kernel, scale, p, q, log_mass)
    gu = scale * (rows - p)
    gv = scale * (cols - (cols.mean(axis=0) if q is None else q))
    return phi, gu, gv, pi, log_mass


def _aam_step(state: AamState, log_kernel, scale: float, p, q=None) -> AamState:
    """One iteration of accelerated alternating minimization on the stacked
    smooth dual scale * sum_l (ln 1' B_l 1 - <u_l, p_l> - <v_l, q_l>).

    Transport is m = 1 with a fixed q.  With q None (the barycenter dual,
    constrained to sum_l v_l = 0) the v-gradient is projected onto the
    zero-sum subspace, which both exact block steps keep, and v is never
    shifted.  Line-searches the mixing weight on [0, 1], then takes one exp
    pass at mu (``_dual_at``) for the gradient blocks, phi(mu), the
    normalized couplings and the scaling kernel of the exact step over the
    block with the larger gradient; solves the step-size quadratic,
    updates the momentum point, and folds the couplings at mu into the
    primal average.  phi at the new eta takes one more pass, through
    ``kernel.dual_value``.

    Raises:
        NumericalError: if phi(mu) is not finite, or if a step of weight
            a = 0 leaves eta, zeta and A unchanged, a fixed point that every
            later iteration would repeat.
    """
    m, n = p.shape
    eta, zeta = state.eta.reshape(m, 2 * n), state.zeta.reshape(m, 2 * n)
    evals = 0
    if np.array_equal(eta, zeta):
        mu = eta
    else:
        d = zeta - eta
        beta, evals = newton_line_search(
            log_kernel, eta[:, :n], eta[:, n:], d[:, :n], d[:, n:], scale, p, q
        )
        mu = beta * zeta + (1.0 - beta) * eta
    mu = _shift_blocks(mu, n, q is not None)

    mu_u, mu_v = mu[:, :n], mu[:, n:]
    phi_mu, gu, gv, pi_mu, log_mass = _dual_at(mu_u, mu_v, log_kernel, scale, p, q)
    if not math.isfinite(phi_mu):
        raise NumericalError(f"dual value not finite at mu (iteration {state.iteration})")
    gu_sq, gv_sq = float((gu * gu).sum()), float((gv * gv).sum())
    gsq = gu_sq + gv_sq

    # The couplings at mu are the kernel of the exact step once ln 1' B_l 1
    # is absorbed into the block the step recomputes.
    rows = gu_sq >= gv_sq
    absorbed = log_mass[:, None]
    u, v = (mu_u - absorbed, mu_v) if rows else (mu_u, mu_v - absorbed)
    kernel = ScalingKernel.start(log_kernel, u, v, K=pi_mu)
    kernel = kernel.half_step(rows, p if rows else q)
    eta_u, eta_v = kernel.potentials()
    phi_eta_new = dual_value(eta_u, eta_v, log_kernel, scale, p, q)

    shape = state.eta.shape
    A = state.A_big
    eta_new = np.concatenate([eta_u, eta_v], axis=1).reshape(shape)
    common = dict(
        eta=eta_new,
        mu=mu.reshape(shape),
        iteration=state.iteration + 1,
        phi_eta=phi_eta_new,
        block="u" if rows else "v",
        line_search_evals=state.line_search_evals + evals,
        absorptions=state.absorptions + kernel.absorptions,
        exp_passes=state.exp_passes + evals + 2 + 2 * kernel.absorptions,
    )
    pi_mu = pi_mu.reshape(state.plan_avg.shape)
    if gsq <= 0.0:
        # Stationary momentum point: the averaging weight is degenerate and
        # the coupling at mu is already optimal.
        return AamState(
            zeta=state.zeta.copy(), A_big=A,
            plan_avg=pi_mu if A == 0.0 else state.plan_avg, **common,
        )

    # Positive root of a^2 ||g||^2 - 2 delta a - 2 delta A = 0 with
    # delta = phi(mu) - phi(eta_new) >= 0 (exact block minimization).
    delta = max(phi_mu - phi_eta_new, 0.0)
    a = (delta + math.sqrt(delta * delta + 2.0 * delta * A * gsq)) / gsq
    A_new = A + a

    zeta_new = _shift_blocks(zeta - a * np.concatenate([gu, gv], axis=1), n, q is not None)
    if a == 0.0 and np.array_equal(zeta_new, zeta) and np.array_equal(eta_new, state.eta):
        raise NumericalError(
            f"AAM step weight a = 0 at iteration {state.iteration + 1} leaves eta, zeta and A "
            "unchanged: every later iteration would repeat it"
        )

    plan_avg = pi_mu if A_new == 0.0 else (a * pi_mu + A * state.plan_avg) / A_new
    return AamState(zeta=zeta_new.reshape(shape), A_big=A_new, plan_avg=plan_avg, **common)


def aam_iterate(state: AamState, C, gamma: float, p, q) -> AamState:
    """One full iteration of the accelerated alternating minimization: the
    m = 1 view of the stacked engine, with (2n,) iterates."""
    return _aam_step(state, log_kernel(C, gamma), gamma, as_weights(p)[None], as_weights(q)[None])


def aam_solve(
    C,
    gamma: float,
    p,
    q,
    gap_tol: float = 1e-8,
    max_iter: int = 200_000,
    check_every: int = 10,
    trace: list | None = None,
) -> tuple[AamState, SolveReport]:
    """Standalone regularized solve with a two-sided optimality certificate
    (the accelerated scheme has no intrinsic stopping rule, so one is
    imposed here).

    At every check the coupling at eta is rounded onto U(p, q); weak
    duality sandwiches the regularized optimum between -phi(eta) and the
    rounded plan's objective, so the sandwich width certifies the dual
    estimate.  Stops once the width is <= gap_tol; the report's objective
    is -phi(eta) and the certificate is the final width.

    Raises:
        DomainError: if a marginal entry is not > 0.
        ConvergenceError: if the width stays above gap_tol for max_iter
            iterations.
    """
    C = as_matrix(C)
    p = strictly_positive(as_weights(p), "marginal")
    q = strictly_positive(as_weights(q), "marginal")
    state = AamState.initial(C, gamma)
    for _ in range(max_iter):
        state = aam_iterate(state, C, gamma, p, q)
        if state.iteration % check_every != 0:
            continue
        phi_eta = state.phi_eta
        pi_eta = normalized_coupling(state.eta[: p.size], state.eta[p.size :], C, gamma)
        feasible = round_to_polytope(pi_eta, p, q)
        width = reg_primal_objective(feasible.entries, C, gamma) + phi_eta
        if trace is not None:
            primal = reg_primal_objective(state.plan_avg, C, gamma)
            row = _gap_row(
                state.iteration, phi_eta, primal, primal + phi_eta, state.plan_avg[None], p[None], q
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
                trace_columns=GAP_TRACE_COLUMNS + ("certificate_width",),
                extras={
                    "dual_value": phi_eta,
                    "upper_bound": reg_primal_objective(feasible.entries, C, gamma),
                    "coupling_violation": marginal_violation(pi_eta, p, q),
                    "line_search_evals": state.line_search_evals,
                    # The engine's passes and one per check, at eta.
                    "exp_passes": state.exp_passes + state.iteration // check_every,
                },
            )
            return state, report
    raise ConvergenceError(
        f"AAM did not certify the optimum to width {gap_tol:g} in {max_iter} iterations",
        trace=trace if trace is not None else [],
    )


def accelerated_ot(
    C, p, q, eps: float, max_iter: int = 100_000, trace: list | None = None
) -> tuple[TransportPlan, SolveReport]:
    """Epsilon-additive transport approximation by the accelerated scheme.

    Runs ``sinkhorn.epsilon_pipeline`` with ``AAM_SCHEDULE``: every
    iteration's averaged plan is rounded onto U(p, q), and the solve stops
    at the first iteration whose rounded plan costs at most eps above
    ``sinkhorn.lp_lower_bound`` at gamma times the v block of eta.  The
    plan returned is thus anywhere within eps of the LP optimum, and the
    report's certificate is its proven distance from the bound.
    """

    def solve(C, gamma, eps_prime, smoothed, smoothed_target):
        L, n = log_kernel(C, gamma), C.n
        ps, qs = smoothed[0].weights[None], smoothed_target.weights[None]
        state = AamState.initial(C, gamma)
        for _ in range(max_iter):
            state = _aam_step(state, L, gamma, ps, qs)
            G = gamma * state.eta[None, n:]
            yield state.plan_avg[None], G, state.phi_eta, state.iteration, {
                "line_search_evals": state.line_search_evals,
                "exp_passes": state.exp_passes,
            }

    _, (plan,), report = epsilon_pipeline(AAM_SCHEDULE, C, p, q, eps, solve, trace=trace)
    return plan, report
