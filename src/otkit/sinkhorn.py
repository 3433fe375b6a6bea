"""Sinkhorn solver for the entropic transport dual.

One absorption-stabilized matrix-scaling kernel (Schmitzer, "Stabilized
sparse scaling algorithms for entropy regularized transport problems",
SIAM J. Sci. Comput. 2019) carries every half-step: alternating exact
block minimization of the dual, its KL-projection reformulation, and the
stacked m-measure updates of iterative Bregman projections.  Around it
sit a computable suboptimality certificate and the end-to-end
epsilon-approximation pipeline (smooth marginals, solve to half the
marginal tolerance, round onto the polytope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    DualPotentials,
    NumericalError,
    ParameterError,
    RegularizationParams,
    SolveReport,
    TransportPlan,
    as_matrix,
    as_weights,
    log_scaling_matrix,
    lse,
    marginal_violation,
    smooth_marginals,
    transport_cost,
)
from .rounding import round_to_polytope

TRACE_COLUMNS = ("iteration", "violation", "dual_objective", "certificate")

#: A half-step whose new scalings leave [1/SCALING_BOUND, SCALING_BOUND] is
#: redone in the log domain.  Within the bound, a kernel entry that
#: underflows (< 2.3e-308) adds under SCALING_BOUND**2 * 2.3e-308 ~ 2e-248
#: to a coupling entry, far below what a marginal can resolve.
SCALING_BOUND = 1e30


@dataclass(frozen=True)
class ScalingKernel:
    """Absorption-stabilized diagonal scaling of m couplings on one support.

    Coupling l is diag(a_l) K_l diag(b_l) with K_l = exp(u_l + v_l' + L),
    where L = -C / gamma and (u_l, v_l) are the absorbed log potentials;
    the dual potentials are (u_l + ln a_l, v_l + ln b_l).  Until something
    is absorbed the couplings share K = exp(L), and a half-step is one
    matrix product with the stacked scalings.  A half-step that would
    leave the scaling bound, or divide by an underflowed sum, instead
    absorbs the scalings, redoes the update from the log domain and
    rebuilds K.  Half-steps return a new kernel; arrays are never
    modified in place.
    """

    log_kernel: np.ndarray  # (n, n)
    u: np.ndarray  # (m, n)
    v: np.ndarray  # (m, n)
    a: np.ndarray  # (m, n)
    b: np.ndarray  # (m, n)
    K: np.ndarray  # (1, n, n) while shared, else (m, n, n)
    absorptions: int = 0

    @classmethod
    def start(cls, log_kernel, u, v, absorptions: int = 0, K=None) -> "ScalingKernel":
        """Kernel at log potentials (u, v), each (m, n), with unit scalings.

        ``K``, when given, is exp(u_l + v_l' + L) already, as (m, n, n).
        """
        if K is None and (u.any() or v.any()):
            K = np.exp(u[:, :, None] + v[:, None, :] + log_kernel)
        elif K is None:
            K = np.exp(log_kernel)[None]
        return cls(log_kernel, u, v, np.ones(u.shape), np.ones(v.shape), K, absorptions)

    def potentials(self) -> tuple[np.ndarray, np.ndarray]:
        return self.u + np.log(self.a), self.v + np.log(self.b)

    def sums(self, rows: bool) -> np.ndarray:
        """K_l b_l (rows) or K_l' a_l (columns) for every l, as (m, n)."""
        K = self.K
        if K.shape[0] == 1:
            return self.b @ K[0].T if rows else self.a @ K[0]
        if rows:
            return np.matmul(K, self.b[:, :, None])[:, :, 0]
        return np.matmul(self.a[:, None, :], K)[:, 0, :]

    def marginals(self, rows: bool) -> np.ndarray:
        """Row (or column) marginals of every coupling, as (m, n), from one
        matrix product instead of the dense couplings."""
        return self.a * self.sums(True) if rows else self.b * self.sums(False)

    def plans(self) -> np.ndarray:
        """The couplings, as (m, n, n)."""
        return self.a[:, :, None] * self.K * self.b[:, None, :]

    def half_step(self, rows: bool, target=None) -> "ScalingKernel":
        """Rescale rows (or columns) so that coupling l has marginal target[l].

        ``target`` None imposes on every coupling the geometric mean over l
        of the unscaled sums, K' e^{u_l} for columns: the barycenter update,
        which keeps sum_l v_l = 0.

        Raises:
            NumericalError: if the log-domain update is not finite.
        """
        sums = self.sums(rows)
        with np.errstate(all="ignore"):
            if target is None:
                log_sums = np.log(sums)
                absorbed = self.u if rows else self.v
                scaling = np.exp((log_sums - absorbed).mean(axis=0) - log_sums)
            else:
                scaling = target / sums
        if 1.0 / SCALING_BOUND <= scaling.min() and scaling.max() <= SCALING_BOUND:
            return replace(self, a=scaling) if rows else replace(self, b=scaling)

        u, v = self.potentials()
        if rows:
            log_sums = lse(self.log_kernel + v[:, None, :], axis=2)
        else:
            log_sums = lse(self.log_kernel + u[:, :, None], axis=1)
        log_target = log_sums.mean(axis=0) if target is None else np.log(target)
        new = log_target - log_sums
        if not np.all(np.isfinite(new)):
            raise NumericalError("scaling half-step produced non-finite dual potentials")
        u, v = (new, v) if rows else (u, new)
        return ScalingKernel.start(self.log_kernel, u, v, self.absorptions + 1)


@dataclass(frozen=True)
class SinkhornState:
    """Dual iterate, half-step counter, last measured l1 violation, and the
    number of times the scaling kernel absorbed its scalings."""

    pot: DualPotentials
    iteration: int = 0
    last_violation: float = math.inf
    absorptions: int = 0

    @classmethod
    def initial(cls, n: int) -> "SinkhornState":
        return cls(pot=DualPotentials.zeros(n))


@dataclass(frozen=True)
class RadiusBound:
    """Dual-iterate radius R = ||C||_inf / gamma - ln(min marginal entry)."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError("radius bound is not finite; marginals must be strictly positive")

    @classmethod
    def from_instance(cls, C, gamma: float, p, q) -> "RadiusBound":
        if not (gamma > 0):
            raise ParameterError("gamma must be positive")
        C = as_matrix(C)
        p = as_weights(p)
        q = as_weights(q)
        smallest = min(p.min(), q.min())
        if smallest <= 0:
            raise DomainError("marginal must be strictly positive")
        return cls(float(C.max()) / gamma - math.log(smallest))


def _require_positive(w: np.ndarray) -> np.ndarray:
    if np.any(w <= 0):
        raise DomainError("marginal must be strictly positive")
    return w


def coupled_plan(u, v, C, gamma: float) -> np.ndarray:
    """Materialize the coupling B(u, v) from the log domain."""
    return np.exp(log_scaling_matrix(u, v, C, gamma))


def dual_objective(u, v, C, gamma: float, p, q) -> float:
    """Dual value gamma * (1' B(u,v) 1 - <u, p> - <v, q>).

    At u = v = 0 with C = 0 this is gamma * n^2, which doubles as an
    evaluation smoke test.
    """
    logB = log_scaling_matrix(u, v, C, gamma)
    mass = math.exp(lse(logB))
    return gamma * (mass - float(np.dot(u, as_weights(p))) - float(np.dot(v, as_weights(q))))


def _log_kernel(C, gamma: float) -> np.ndarray:
    if not (gamma > 0):
        raise ParameterError("gamma must be positive")
    return -as_matrix(C) / gamma


@dataclass(frozen=True)
class _CouplingSums:
    """A coupling known by its marginals alone."""

    row_marginals: np.ndarray
    col_marginals: np.ndarray


def _violation(kernel: ScalingKernel, p, q) -> float:
    """``marginal_violation`` of the kernel's single coupling, from its sums
    instead of the dense plan."""
    sums = _CouplingSums(kernel.marginals(rows=True)[0], kernel.marginals(rows=False)[0])
    return marginal_violation(sums, p, q)


def sinkhorn_step(state: SinkhornState, C, gamma: float, p, q) -> SinkhornState:
    """One exact half-step of alternating dual minimization.

    Even iterations rebalance rows (u update), odd iterations columns
    (v update); afterwards the corresponding marginal of the coupling
    matches its target to float precision.  This is one half-step of the
    scaling kernel, started at the state's potentials.
    """
    p = _require_positive(as_weights(p))
    q = _require_positive(as_weights(q))
    rows = state.iteration % 2 == 0
    kernel = ScalingKernel.start(_log_kernel(C, gamma), state.pot.u[None], state.pot.v[None])
    kernel = kernel.half_step(rows, (p if rows else q)[None])
    u, v = kernel.potentials()
    violation = _violation(kernel, p, q)
    return SinkhornState(
        DualPotentials(u[0], v[0]),
        state.iteration + 1,
        violation,
        state.absorptions + kernel.absorptions,
    )


def reg_gap_certificate(state: SinkhornState, C, gamma: float, p, q) -> float:
    """Upper bound (gamma R / 2) * violation on the regularized suboptimality.

    Bounds g(pi(u, v)) - g(pi*_gamma) for the current coupling; zero once
    the coupling is feasible.
    """
    R = RadiusBound.from_instance(C, gamma, p, q).value
    plan = coupled_plan(state.pot.u, state.pot.v, C, gamma)
    return 0.5 * gamma * R * marginal_violation(plan, p, q)


def default_max_iter(C, gamma: float, p, q, eps_prime: float) -> int:
    """Twice the theoretical iteration envelope, to tolerate float slack."""
    R = RadiusBound.from_instance(C, gamma, p, q).value
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
            certificate) row is appended at every check.

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
    p = _require_positive(as_weights(p))
    q = _require_positive(as_weights(q))
    if max_iter is None:
        max_iter = default_max_iter(C, gamma, p, q, eps_prime)
    R = RadiusBound.from_instance(C, gamma, p, q).value

    n = p.size
    kernel = ScalingKernel.start(_log_kernel(C, gamma), np.zeros((1, n)), np.zeros((1, n)))
    targets = (p[None], q[None])
    for t in range(1, max_iter + 1):
        kernel = kernel.half_step(t % 2 == 1, targets[(t - 1) % 2])
        if t % check_every == 0 or t == max_iter:
            violation = _violation(kernel, p, q)
            u, v = (x[0] for x in kernel.potentials())
            if trace is not None:
                trace.append(
                    {
                        "iteration": t,
                        "violation": violation,
                        "dual_objective": dual_objective(u, v, C, gamma, p, q),
                        "certificate": 0.5 * gamma * R * violation,
                    }
                )
            if violation <= eps_prime:
                state = SinkhornState(DualPotentials(u, v), t, violation, kernel.absorptions)
                return state, TransportPlan(kernel.plans()[0])

    raise ConvergenceError(
        f"sinkhorn did not reach violation {eps_prime:g} in {max_iter} half-steps",
        trace=trace if trace is not None else [],
    )


def kl_project(plan, target, axis: str) -> np.ndarray:
    """KL projection of a positive plan onto a fixed row or column marginal.

    The minimizer of KL(. | plan) over the affine set with the selected
    marginal equal to ``target`` is the plain rescaling
    diag(target / current) applied to that axis: one half-step of the
    scaling kernel whose log kernel is ln(plan).
    """
    pi = as_matrix(plan)
    t = _require_positive(as_weights(target))
    if np.any(pi <= 0):
        raise DomainError("kl_project requires a strictly positive plan")
    if axis not in ("rows", "columns"):
        raise ParameterError(f"axis must be 'rows' or 'columns', got {axis!r}")
    kernel = ScalingKernel.start(
        np.log(pi), np.zeros((1, pi.shape[0])), np.zeros((1, pi.shape[1]))
    )
    return kernel.half_step(axis == "rows", t[None]).plans()[0]


def approx_ot_sinkhorn(
    C, p, q, eps: float, max_iter: int | None = None, record_trace: bool = False
) -> tuple[TransportPlan, SolveReport]:
    """Epsilon-additive approximation of the transport optimum.

    Pipeline: set eps' = eps / (8 ||C||_inf), smooth the marginals, run the
    solver to violation eps'/2 at gamma = eps / (4 ln n), and round the
    coupling onto U(p, q).  When eps >= 8 ||C||_inf the additive bound is
    vacuous and the product plan p q' is returned directly.
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
        gamma=eps / (4.0 * math.log(n)), eps=eps, eps_prime=eps / (8.0 * c_inf)
    )
    gamma, eps_prime = schedule.gamma, schedule.eps_prime
    p_s, q_s = smooth_marginals(p, q, eps_prime)
    trace_rows: list[dict] | None = [] if record_trace else None
    state, plan_check = sinkhorn_solve(
        C,
        gamma,
        p_s.weights,
        q_s.weights,
        eps_prime / 2.0,
        max_iter=max_iter,
        trace=trace_rows,
    )
    plan_hat = round_to_polytope(plan_check.entries, p, q)
    R = RadiusBound.from_instance(C, gamma, p_s.weights, q_s.weights).value
    report = SolveReport(
        objective=transport_cost(plan_hat.entries, C),
        iterations=state.iteration,
        certificate=0.5 * gamma * R * state.last_violation,
        params={
            "gamma": gamma,
            "eps": eps,
            "eps_prime": eps_prime,
            "short_circuit": False,
        },
        trace=trace_rows,
        trace_columns=TRACE_COLUMNS,
        extras={
            "violation_at_exit": state.last_violation,
            "cost_moved_by_rounding": transport_cost(plan_hat.entries, C)
            - transport_cost(plan_check.entries, C),
        },
    )
    return plan_hat, report
