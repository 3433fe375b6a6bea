"""Sinkhorn solver for the entropic transport dual, and the epsilon-pipeline.

Every half-step runs on ``kernel.ScalingKernel``, the
absorption-stabilized matrix-scaling kernel (Schmitzer, "Stabilized
sparse scaling algorithms for entropy regularized transport problems",
SIAM J. Sci. Comput. 2019): alternating exact block minimization of the
dual and its KL-projection reformulation; ``SinkhornState`` holds the
potentials u and v.  Around it sit the dual radius R (``radius_bound``, a
float), the suboptimality certificate (gamma R / 2) * violation, the
c-transform lower bound on the LP optimum (``lp_lower_bound``), and the
one epsilon-approximation pipeline (``epsilon_pipeline``) that Sinkhorn,
the accelerated scheme and both barycenter solvers run through:
short-circuit, schedule, smoothing, solve, rounding and certificate.  It
has one stopping rule: every candidate a solver yields is rounded and
bounded, and the first whose proven excess is at most eps is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

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
    marginal_violation,
    neg_entropy,
    smooth_measure,
    strictly_positive,
    transport_cost,
)
from .kernel import ScalingKernel, dual_value, log_kernel
from .rounding import round_to_polytope

TRACE_COLUMNS = ("iteration", "violation", "dual_objective", "certificate")

@dataclass(frozen=True)
class SinkhornState:
    """Dual iterate (u, v), half-step counter, last measured l1 violation,
    and the number of times the scaling kernel absorbed its scalings."""

    u: np.ndarray
    v: np.ndarray
    iteration: int = 0
    last_violation: float = math.inf
    absorptions: int = 0

    @classmethod
    def initial(cls, n: int) -> "SinkhornState":
        return cls(np.zeros(n), np.zeros(n))


def radius_bound(C, gamma: float, p, q) -> float:
    """Dual-iterate radius R = ||C||_inf / gamma - ln(min marginal entry).

    Raises:
        DomainError: if a marginal entry is not > 0, or R is not finite
            (||C||_inf / gamma overflows).
    """
    if not (gamma > 0):
        raise ParameterError("gamma must be positive")
    p = strictly_positive(as_weights(p), "marginal")
    q = strictly_positive(as_weights(q), "marginal")
    R = float(as_matrix(C).max()) / gamma - math.log(min(p.min(), q.min()))
    if not math.isfinite(R):
        raise DomainError(f"radius bound ||C||_inf / gamma - ln min(p, q) = {R:g} is not finite")
    return R


def coupled_plan(u, v, C, gamma: float) -> np.ndarray:
    """The coupling B(u, v) = exp(u_i + v_j - C_ij / gamma), built by the
    scaling kernel."""
    return ScalingKernel.start(log_kernel(C, gamma), u[None], v[None]).K[0]


def _coupling_sums(kernel: ScalingKernel) -> SimpleNamespace:
    """The kernel's single coupling known by its marginals alone, from two
    matrix-vector products instead of the dense plan."""
    rows, cols = kernel.marginals(rows=True)[0], kernel.marginals(rows=False)[0]
    return SimpleNamespace(row_marginals=rows, col_marginals=cols)


def sinkhorn_step(state: SinkhornState, C, gamma: float, p, q) -> SinkhornState:
    """One exact half-step of alternating dual minimization.

    Even iterations rebalance rows (u update), odd iterations columns
    (v update); afterwards the corresponding marginal of the coupling
    matches its target to float precision.  This is one half-step of the
    scaling kernel, started at the state's potentials.
    """
    p = strictly_positive(as_weights(p), "marginal")
    q = strictly_positive(as_weights(q), "marginal")
    rows = state.iteration % 2 == 0
    kernel = ScalingKernel.start(log_kernel(C, gamma), state.u[None], state.v[None])
    kernel = kernel.half_step(rows, (p if rows else q)[None])
    u, v = kernel.potentials()
    violation = marginal_violation(_coupling_sums(kernel), p, q)
    return SinkhornState(
        u[0],
        v[0],
        state.iteration + 1,
        violation,
        state.absorptions + kernel.absorptions,
    )


def reg_gap_certificate(state: SinkhornState, C, gamma: float, p, q) -> float:
    """Upper bound (gamma R / 2) * violation on the regularized suboptimality.

    Bounds g(pi(u, v)) - g(pi*_gamma) for the current coupling; zero once
    the coupling is feasible.
    """
    R = radius_bound(C, gamma, p, q)
    plan = coupled_plan(state.u, state.v, C, gamma)
    return 0.5 * gamma * R * marginal_violation(plan, p, q)


def default_max_iter(R: float, eps_prime: float) -> int:
    """Twice the theoretical iteration envelope at radius bound R, to
    tolerate float slack."""
    return int(math.ceil(2.0 + 8.0 * R / eps_prime))


def sinkhorn_solve(
    C,
    gamma: float,
    p,
    q,
    eps_prime: float,
    max_iter: int | None = None,
    check_every: int = 10,
    trace: list | None = None,
) -> tuple[SinkhornState, TransportPlan]:
    """Iterate Sinkhorn half-steps until the l1 marginal violation is small.

    Args:
        C: cost matrix.
        gamma: entropy weight, > 0.
        p, q: strictly positive marginals.
        eps_prime: target l1 marginal violation.
        max_iter: half-step budget; defaults to twice the rate envelope.
        check_every: violation is measured every this many half-steps, from
            the scalings and two matrix-vector products (the dense coupling
            is only materialized at output).
        trace: if a list is given, one (iteration, violation, dual,
            certificate) row is appended at every check; the dual is the
            stacked smooth dual ``kernel.dual_value`` at scale gamma.

    Returns:
        The first checked state whose violation is <= eps_prime, plus the
        coupling B(u, v) at that state.

    Raises:
        ConvergenceError: if the budget runs out; carries the trace.
        NumericalError: at the half-step whose potentials stop being finite.
    """
    if not (eps_prime > 0):
        raise ParameterError("eps_prime must be positive")
    if check_every < 1:
        raise ParameterError("check_every must be >= 1")
    C = as_matrix(C)
    R = radius_bound(C, gamma, p, q)
    p, q = as_weights(p), as_weights(q)
    if max_iter is None:
        max_iter = default_max_iter(R, eps_prime)

    n = p.size
    kernel = ScalingKernel.start(log_kernel(C, gamma), np.zeros((1, n)), np.zeros((1, n)))
    targets = (p[None], q[None])
    for t in range(1, max_iter + 1):
        kernel = kernel.half_step(t % 2 == 1, targets[(t - 1) % 2])
        if t % check_every == 0 or t == max_iter:
            sums = _coupling_sums(kernel)
            violation = marginal_violation(sums, p, q)
            u, v = kernel.potentials()
            if trace is not None:
                # The stacked dual without its exp pass: the row marginals
                # sum to 1' B 1.
                log_mass = np.log([sums.row_marginals.sum()])
                trace.append(
                    {
                        "iteration": t,
                        "violation": violation,
                        "dual_objective": dual_value(
                            u, v, None, gamma, p[None], q[None], log_mass=log_mass
                        ),
                        "certificate": 0.5 * gamma * R * violation,
                    }
                )
            if violation <= eps_prime:
                state = SinkhornState(u[0], v[0], t, violation, kernel.absorptions)
                return state, TransportPlan(kernel.plans()[0])

    raise ConvergenceError(
        f"sinkhorn did not reach violation {eps_prime:g} in {max_iter} half-steps",
        trace,
    )


def kl_project(plan, target, axis: str) -> np.ndarray:
    """KL projection of a positive plan onto a fixed row or column marginal.

    The minimizer of KL(. | plan) over the affine set with the selected
    marginal equal to ``target`` is the plain rescaling
    diag(target / current) applied to that axis, written out here in
    closed form so that it stays a reference independent of the scaling
    kernel.
    """
    pi = as_matrix(plan)
    t = strictly_positive(as_weights(target), "marginal")
    strictly_positive(pi, "kl_project plan")
    if axis == "rows":
        return pi * (t / pi.sum(axis=1))[:, None]
    if axis == "columns":
        return pi * (t / pi.sum(axis=0))[None, :]
    raise ParameterError(f"axis must be 'rows' or 'columns', got {axis!r}")


@dataclass(frozen=True)
class EpsilonSchedule:
    """One solver's row of the epsilon-pipeline's schedule table.

    gamma = eps / (gamma_div ln n) and eps' = eps / (eps_prime_div ||C||_inf);
    every measure is smoothed with weight eps' / smooth_div.
    """

    gamma_div: float
    eps_prime_div: float
    smooth_div: float


SINKHORN_SCHEDULE = EpsilonSchedule(4.0, 8.0, 8.0)
AAM_SCHEDULE = EpsilonSchedule(3.0, 8.0, 8.0)
IBP_SCHEDULE = EpsilonSchedule(4.0, 4.0, 4.0)
AIBP_SCHEDULE = EpsilonSchedule(2.0, 8.0, 4.0)

#: Certificate terms every epsilon-pipeline report carries in its extras,
#: besides ``lp_lower_bound``.
GAP_KEYS = ("dual_value", "primal_value", "duality_gap", "rounding_cost_gap")

#: The row the pipeline traces at every yield of every solver.
GAP_TRACE_COLUMNS = (
    "iteration",
    "dual_value",
    "primal_value",
    "duality_gap",
    "feasibility_l2",
    "rounding_cost_gap",
    "lp_lower_bound",
)


def _gap_row(t, phi, primal, gap, couplings, P, q, cost_gap=None, lower=None) -> dict:
    """One ``GAP_TRACE_COLUMNS`` row; feasibility_l2 is the l2 distance of
    the (m, n, n) couplings' marginals from the rows of P and from q."""
    feas = math.sqrt(
        float(((couplings.sum(axis=2) - P) ** 2).sum())
        + float(((couplings.sum(axis=1) - q) ** 2).sum())
    )
    return {
        "iteration": t,
        "dual_value": phi,
        "primal_value": primal,
        "duality_gap": gap,
        "feasibility_l2": feas,
        "rounding_cost_gap": cost_gap,
        "lp_lower_bound": lower,
    }


def _gaps(couplings, rounded, C, gamma: float, phi: float) -> tuple[float, float, float]:
    """The mean regularized primal value of the couplings, the duality gap
    (that value plus the dual value ``phi``) and the mean rounding cost gap
    of their rounded plans."""
    costs = [transport_cost(plan, C) for plan in couplings]
    cost_gap = float(np.mean([transport_cost(r.entries, C) - c for r, c in zip(rounded, costs)]))
    primal = float(np.mean([c + gamma * neg_entropy(plan) for c, plan in zip(costs, couplings)]))
    return primal, primal + phi, cost_gap


def lp_lower_bound(C, G, P, q=None) -> float:
    """Lower bound on the unregularized LP optimum from column potentials.

    Row l of the (m, n) array G is any potential g_l, for example gamma
    times a solver's v.  Shifted so that its largest entry is 0, its
    c-transform is f_l(i) = min_j (C_ij - g_l(j)), and the c-transform of
    f_l is g'_l(j) = min_i (C_ij - f_l(i)) >= g_l(j): two n^2 min passes
    per measure.  Then f_l(i) + g'_l(j) <= C_ij, so (f_l, g'_l) is feasible
    for the dual of the transport LP from p_l, the rows of P (Peyre and
    Cuturi, "Computational Optimal Transport", 2019, section 5.1):

    - transport (m = 1, target q): <f, p> + <g', q> <= OT(p, q);
    - barycenter (q None): every feasible q is a probability vector, so
      (1/m) sum_l <f_l, p_l> + min_j (1/m) sum_l g'_l(j) is at most the
      optimum of (1/m) sum_l OT(p_l, q) over q.

    Float margin: with g_l <= 0 every f_l lies in [0, ||C||_inf] and every
    g'_l in [-||C||_inf, ||C||_inf], so rounding C - f_l breaks
    feasibility by at most u ||C||_inf (u = 2^-53, the unit roundoff), and
    the dot products, the mean over l and the sum over l round by at most
    (n + m) u ||C||_inf each.  The value returned is the computed bound
    minus 8 (n + m + 1) u ||C||_inf, which covers all of these, so it is
    at most the exact LP optimum of measures of equal mass.
    """
    C = as_matrix(C)
    G = G - G.max(axis=1)[:, None]
    F, H = np.empty_like(G), np.empty_like(G)
    for l, g in enumerate(G):  # (n, n) temporaries, one measure at a time
        F[l] = (C - g).min(axis=1)
        H[l] = (C - F[l][:, None]).min(axis=0)
    m, n = G.shape
    value = float((F * P).sum(axis=1).mean())
    value += float(H[0] @ q) if q is not None else float(H.mean(axis=0).min())
    return value - 8.0 * (n + m + 1) * 2.0**-53 * float(C.max())


def epsilon_pipeline(
    schedule: EpsilonSchedule, C, measures, target, eps: float, solve,
    gamma: float | None = None, trace: list | None = None,
) -> tuple[np.ndarray, list[TransportPlan], SolveReport]:
    """Epsilon-additive approximation of transport or of the barycenter.

    Transport takes the one measure in ``measures`` to the fixed
    ``target``.  With ``target`` None the problem is the barycenter of
    ``measures``, and q is q_bar, the mass-normalized mean of the
    couplings' column marginals.  Either way C goes through
    ``CostMatrix``, and ``solve`` receives that ``CostMatrix``.

    At eps >= 8 ||C||_inf the additive bound is vacuous (every plan costs
    at most ||C||_inf), which also covers C = 0: q is the target or the
    mean measure and the plans are p_l q', without a solve; the LP lower
    bound is 0 there.  Otherwise the schedule gives gamma (unless
    ``gamma`` overrides it) and eps', the measures and the target are
    smoothed, and ``solve(C, gamma, eps_prime, smoothed, smoothed_target)``
    is a generator of candidates (couplings, G, phi, iteration, extras): m
    (n, n) couplings, the (m, n) column potentials G = gamma v, the smooth
    dual value phi, and solver diagnostics.  Every candidate's couplings
    are rounded once onto U(p_l, q) with the caller's p_l, and
    ``lp_lower_bound`` reads G against the caller's measures.  The first
    candidate whose objective (the mean cost of the rounded plans) is at
    most eps above the lower bound is returned.  If none is, the last one
    is returned when ``solve`` ends on its own worst-case rule, which
    already guarantees eps.  With ``trace`` every candidate is a
    ``GAP_TRACE_COLUMNS`` row.

    The certificate is objective - lower bound, which bounds the
    objective's excess over the LP optimum; ``extras`` carries the bound
    as ``lp_lower_bound``.  The ``GAP_KEYS`` terms, whose primal value
    takes an entropy pass, are computed for the returned candidate only,
    or for every candidate of a traced run.

    Returns:
        q (the target, or q_bar), the rounded plans, and the report.

    Raises:
        DomainError: if C is not square, finite and nonnegative, a
            measure's size does not match it, or a transport measure has
            a negative entry or a mass not within 1e-9 of 1.
        ParameterError: if eps or gamma is not > 0.
        ConvergenceError: from ``solve``, when its budget runs out before
            either rule stops it.
    """
    if not (eps > 0):
        raise ParameterError("eps must be positive")
    C = CostMatrix(C)
    if target is None:
        rows = [DiscreteMeasure(m).weights for m in measures]
    else:
        target = as_weights(target)
        rows = [as_weights(measures)]
    n = C.n
    if not rows or any(w.size != n for w in rows) or (target is not None and target.size != n):
        raise DomainError("measure sizes do not match the cost matrix")
    if n < 2:
        raise ParameterError("need support size n >= 2")
    P = np.stack(rows)
    if target is not None:
        masses = float(P.sum()), float(target.sum())
        # Not renormalized: a valid input keeps its bits.  NaN fails too.
        if not all(abs(mass - 1.0) <= 1e-9 for mass in masses):
            raise DomainError(
                "transport measures must be probability vectors: "
                f"source mass {masses[0]:.12g}, target mass {masses[1]:.12g}"
            )
        for name, w in (("source", P[0]), ("target", target)):
            if w.min() < 0:
                i = int(w.argmin())
                raise DomainError(f"{name} measure entry {i} is {w[i]:.12g}; it must be >= 0")
    record = dict(
        gamma=None, eps=eps, eps_prime=None, short_circuit=True, gamma_override=gamma is not None
    )

    if eps >= 8.0 * C.inf_norm:
        q = P.mean(axis=0) if target is None else target
        plans = [TransportPlan(np.outer(p, q), feasible_for=(p, q)) for p in P]
        objective = float(np.mean([transport_cost(plan.entries, C) for plan in plans]))
        # C >= 0 puts the optimum at >= 0: 0 is the LP lower bound, and the
        # objective bounds the excess.
        return q, plans, SolveReport(
            objective=objective,
            iterations=0,
            certificate=objective,
            params=record,
            trace=trace,
            trace_columns=GAP_TRACE_COLUMNS,
            extras={**dict.fromkeys(GAP_KEYS), "lp_lower_bound": 0.0},
        )

    if gamma is None:
        gamma = eps / (schedule.gamma_div * math.log(n))
    if not (gamma > 0):
        raise ParameterError(f"gamma must be positive, got {gamma!r}")
    # eps < 8 ||C||_inf here, so eps' < 8 / eps_prime_div <= 2.
    eps_prime = eps / (schedule.eps_prime_div * C.inf_norm)
    record.update(gamma=gamma, eps_prime=eps_prime, short_circuit=False)
    weight = eps_prime / schedule.smooth_div
    smoothed = [smooth_measure(p, weight) for p in P]
    smoothed_target = None if target is None else smooth_measure(target, weight)
    smoothed_stack = np.stack([m.weights for m in smoothed])
    for couplings, G, phi, iteration, extras in solve(
        C, gamma, eps_prime, smoothed, smoothed_target
    ):
        if target is None:
            masses = np.array([plan.sum() for plan in couplings])
            q = np.sum([plan.sum(axis=0) for plan in couplings], axis=0) / masses.sum()
        else:
            q = target
        rounded = [round_to_polytope(plan, p, q) for plan, p in zip(couplings, P)]
        objective = float(np.mean([transport_cost(r.entries, C) for r in rounded]))
        lower = lp_lower_bound(C, G, P, target)
        gaps = None
        if trace is not None:
            gaps = primal, gap, cost_gap = _gaps(couplings, rounded, C, gamma, phi)
            q_s = q if target is None else smoothed_target.weights
            trace.append(_gap_row(
                iteration, phi, primal, gap, couplings, smoothed_stack, q_s, cost_gap, lower
            ))
        if objective - lower <= eps:
            break
    primal, gap, cost_gap = gaps or _gaps(couplings, rounded, C, gamma, phi)
    return q, rounded, SolveReport(
        objective=objective,
        iterations=iteration,
        certificate=objective - lower,
        params=record,
        trace=trace,
        trace_columns=GAP_TRACE_COLUMNS,
        extras={
            "dual_value": phi,
            "primal_value": primal,
            "duality_gap": gap,
            "rounding_cost_gap": cost_gap,
            "lp_lower_bound": lower,
            **extras,
        },
    )


def approx_ot_sinkhorn(
    C, p, q, eps: float, max_iter: int | None = None, trace: list | None = None
) -> tuple[TransportPlan, SolveReport]:
    """Epsilon-additive approximation of the transport optimum by Sinkhorn.

    Runs ``epsilon_pipeline`` with ``SINKHORN_SCHEDULE``: one
    ``sinkhorn_solve`` call to violation eps'/2 on the smoothed marginals,
    the worst-case rule, yields the only candidate, and phi is the stacked
    dual at its final potentials.  ``trace`` gets that candidate's
    ``GAP_TRACE_COLUMNS`` row; ``sinkhorn_solve`` traces every check.
    """

    def solve(C, gamma, eps_prime, smoothed, smoothed_target):
        ps, qs = smoothed[0].weights, smoothed_target.weights
        state, plan = sinkhorn_solve(C, gamma, ps, qs, eps_prime / 2.0, max_iter=max_iter)
        couplings = plan.entries[None]
        phi = dual_value(
            state.u[None], state.v[None], None, gamma, ps[None], qs[None],
            log_mass=np.log(couplings.sum(axis=(1, 2))),
        )
        yield couplings, gamma * state.v[None], phi, state.iteration, {
            "violation_at_exit": state.last_violation
        }

    _, (plan,), report = epsilon_pipeline(SINKHORN_SCHEDULE, C, p, q, eps, solve, trace=trace)
    return plan, report
