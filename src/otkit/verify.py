"""Acceptance harness: every release criterion as a runnable check.

Each criterion function builds its own seeded instances, runs the solvers
at the stated tolerances, and returns a CriterionResult; ``run_all``
drives them and formats one pass/fail line per criterion.  The pytest
acceptance module and the ``ot verify`` command both call into here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import aam, barycenter, decentralized, oracle, rounding, sinkhorn
from .core import (
    CostMatrix,
    DiscreteMeasure,
    ParameterError,
    marginal_violation,
    reg_primal_objective,
    smooth_measure,
    transport_cost,
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index} [{self.name}] {status} ({self.seconds:.1f}s) {self.detail}"


def _result(index, name, start, failures, detail_ok):
    elapsed = time.perf_counter() - start
    if failures:
        return CriterionResult(index, name, False, "; ".join(failures[:8]), elapsed)
    return CriterionResult(index, name, True, detail_ok, elapsed)


def ot_instance(seed: int, n: int):
    """Seeded symmetric cost plus strictly positive marginal pair."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(0.0, 1.0, (n, n))
    C = CostMatrix(0.5 * (U + U.T))
    p = DiscreteMeasure(rng.uniform(0.5, 1.5, n))
    q = DiscreteMeasure(rng.uniform(0.5, 1.5, n))
    return C, p, q


def barycenter_instance(seed: int, m: int, n: int):
    rng = np.random.default_rng(seed)
    U = rng.uniform(0.0, 1.0, (n, n))
    C = CostMatrix(0.5 * (U + U.T))
    measures = [DiscreteMeasure(rng.uniform(0.5, 1.5, n)) for _ in range(m)]
    return C, measures


def approx_instances():
    """The shared end-to-end instance set for criteria 2 and 4."""
    sizes = [4, 8, 16, 4, 8, 16, 4, 8, 16, 16]
    return [(seed, ot_instance(200 + seed, n)) for seed, n in enumerate(sizes)]


# --- criterion 1 -----------------------------------------------------------

def criterion_1() -> CriterionResult:
    """Rate envelope: violation <= 4R/(t-2) at every step t in (2, 500]."""
    start = time.perf_counter()
    failures = []
    worst_margin = math.inf
    for k in range(20):
        n = 8 if k < 10 else 32
        C, p, q = ot_instance(100 + k, n)
        gamma = 0.1 * C.inf_norm
        R = sinkhorn.radius_bound(C, gamma, p, q)
        state = sinkhorn.SinkhornState.initial(n)
        for _ in range(500):
            state = sinkhorn.sinkhorn_step(state, C, gamma, p, q)
            t = state.iteration
            if t > 2:
                bound = 4.0 * R / (t - 2)
                worst_margin = min(worst_margin, bound - state.last_violation)
                if state.last_violation > bound:
                    failures.append(
                        f"seed {100 + k}: violation {state.last_violation:.3e} "
                        f"> 4R/(t-2) = {bound:.3e} at t={t}"
                    )
                    break
    return _result(
        1, "sinkhorn-rate-envelope", start, failures,
        f"20 instances, worst envelope margin {worst_margin:.3e}",
    )


# --- criterion 2 -----------------------------------------------------------

def criterion_2() -> CriterionResult:
    """Approximation pipeline lands within eps of the exact LP optimum."""
    start = time.perf_counter()
    failures = []
    worst_gap = -math.inf
    for seed, (C, p, q) in approx_instances():
        eps = 0.1 * C.inf_norm
        plan, _ = sinkhorn.approx_ot_sinkhorn(C, p.weights, q.weights, eps)
        feas = max(
            float(np.abs(plan.row_marginals - p.weights).max()),
            float(np.abs(plan.col_marginals - q.weights).max()),
        )
        if feas > 1e-9:
            failures.append(f"instance {seed}: infeasible by {feas:.3e}")
            continue
        opt = oracle.exact_ot_lp(C, p.weights, q.weights).objective
        gap = transport_cost(plan.entries, C) - opt
        worst_gap = max(worst_gap, gap - eps)
        if gap > eps:
            failures.append(f"instance {seed}: gap {gap:.4e} > eps {eps:.4e}")
    return _result(
        2, "sinkhorn-approx-end-to-end", start, failures,
        f"10 instances, worst gap-minus-eps {worst_gap:.3e}",
    )


# --- criterion 3 -----------------------------------------------------------

def criterion_3() -> CriterionResult:
    """Rounding: exact feasibility, l1 movement bound, idempotence."""
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(300)
    for k in range(100):
        raw = rng.uniform(0.0, 1.0, (8, 8))
        raw /= raw.sum()  # unit total mass, marginals arbitrary
        p = rng.uniform(0.5, 1.5, 8)
        p /= p.sum()
        q = rng.uniform(0.5, 1.5, 8)
        q /= q.sum()
        violation = marginal_violation(raw, p, q)
        try:
            rounded = rounding.round_to_polytope(raw, p, q)
        except Exception as exc:  # feasibility is checked at construction
            failures.append(f"case {k}: {exc}")
            continue
        moved = float(np.abs(rounded.entries - raw).sum())
        if moved > violation + 1e-12:
            failures.append(f"case {k}: moved {moved:.3e} > violation {violation:.3e}")
        again = rounding.round_to_polytope(rounded.entries, p, q)
        if float(np.abs(again.entries - rounded.entries).max()) > 1e-12:
            failures.append(f"case {k}: rounding is not idempotent")
    return _result(3, "rounding-contract", start, failures, "100 random 8x8 plans")


# --- criterion 4 -----------------------------------------------------------

def criterion_4() -> CriterionResult:
    """Accelerated pipeline vs LP, solver agreement at fixed gamma, and the
    accelerated-method envelopes along the trace."""
    start = time.perf_counter()
    failures = []
    worst_gap = -math.inf
    worst_agree = 0.0
    for seed, (C, p, q) in approx_instances():
        eps = 0.1 * C.inf_norm
        trace: list[dict] = []
        plan, report = aam.accelerated_ot(C, p.weights, q.weights, eps, trace=trace)
        opt = oracle.exact_ot_lp(C, p.weights, q.weights).objective
        gap = transport_cost(plan.entries, C) - opt
        worst_gap = max(worst_gap, gap - eps)
        if gap > eps:
            failures.append(f"instance {seed}: gap {gap:.4e} > eps {eps:.4e}")

        # Envelopes with D from the zero start on the smoothed problem,
        # two blocks, operator norm squared 2.
        gamma = report.params["gamma"]
        eps_prime = report.params["eps_prime"]
        weight = eps_prime / sinkhorn.AAM_SCHEDULE.smooth_div
        p_s, q_s = smooth_measure(p.weights, weight), smooth_measure(q.weights, weight)
        D = aam.distance_bound(C, gamma, p_s.weights, q_s.weights)
        for row in trace:
            t = row["iteration"]
            gap_bound = 32.0 * D * D / (gamma * t * t)
            feas_bound = 32.0 * D / (gamma * t * t)
            if abs(row["duality_gap"]) > gap_bound:
                failures.append(
                    f"instance {seed}: duality gap {row['duality_gap']:.3e} "
                    f"breaks envelope {gap_bound:.3e} at t={t}"
                )
                break
            if row["feasibility_l2"] > feas_bound:
                failures.append(
                    f"instance {seed}: infeasibility {row['feasibility_l2']:.3e} "
                    f"breaks envelope {feas_bound:.3e} at t={t}"
                )
                break

        # Fixed-gamma regularized objective agreement between both solvers.
        # Each side carries its own certificate: the Sinkhorn value is within
        # (gamma R / 2) * violation of the optimum, the accelerated value
        # within its duality-sandwich width, so 1e-6 agreement is implied.
        gamma_fixed = 0.05 * C.inf_norm
        state, coupled = sinkhorn.sinkhorn_solve(
            C, gamma_fixed, p.weights, q.weights, eps_prime=1e-9, check_every=10
        )
        sink_val = reg_primal_objective(coupled.entries, C, gamma_fixed)
        _, aam_report = aam.aam_solve(
            C, gamma_fixed, p.weights, q.weights, gap_tol=2e-7
        )
        agree = abs(sink_val - aam_report.objective)
        worst_agree = max(worst_agree, agree)
        if agree > 1e-6:
            failures.append(
                f"instance {seed}: regularized objectives disagree by {agree:.3e}"
            )
    return _result(
        4, "accelerated-end-to-end", start, failures,
        f"worst gap-minus-eps {worst_gap:.3e}, worst solver disagreement {worst_agree:.3e}",
    )


# --- criterion 5 -----------------------------------------------------------

def _fd_gradient(f, x: np.ndarray) -> np.ndarray:
    g = np.zeros_like(x)
    for k in range(x.size):
        h = 1e-6 * (1.0 + abs(x[k]))
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(analytic)), 1e-12)
    return float(np.linalg.norm(analytic - fd)) / denom


def criterion_5() -> CriterionResult:
    """Analytic gradients match central finite differences to 1e-5."""
    start = time.perf_counter()
    failures = []
    worst = 0.0
    rng = np.random.default_rng(500)

    for k in range(50):
        n = 5
        C, p, q = ot_instance(1000 + k, n)
        gamma = 0.4 + 0.4 * rng.uniform()
        u = rng.normal(0.0, 1.0, n)
        v = rng.normal(0.0, 1.0, n)

        gu, gv = aam.dual_partial_gradients((u, v), C, gamma, p.weights, q.weights)
        x = np.concatenate([u, v])
        fd = _fd_gradient(
            lambda z: aam.dual_objective_lip((z[:n], z[n:]), C, gamma, p.weights, q.weights), x
        )
        err = _rel_err(np.concatenate([gu, gv]), fd)
        worst = max(worst, err)
        if err > 1e-5:
            failures.append(f"transport dual point {k}: rel err {err:.2e}")

    for k in range(50):
        m, n = 2, 4
        C, measures = barycenter_instance(1500 + k, m, n)
        gamma = 0.4 + 0.4 * rng.uniform()
        problem = barycenter.BarycenterProblem(tuple(measures), C, gamma)
        u = rng.normal(0.0, 1.0, (m, n))
        v = rng.normal(0.0, 1.0, (m, n))
        gu, gv = barycenter.wb_dual_gradients((u, v), problem)
        x = np.concatenate([u.ravel(), v.ravel()])

        def wb_phi(z):
            return barycenter.wb_dual_objective(
                (z[: m * n].reshape(m, n), z[m * n :].reshape(m, n)), problem
            )

        fd = _fd_gradient(wb_phi, x)
        err = _rel_err(np.concatenate([gu.ravel(), gv.ravel()]), fd)
        worst = max(worst, err)
        if err > 1e-5:
            failures.append(f"barycenter dual point {k}: rel err {err:.2e}")

    for k in range(50):
        n = 5
        C, p, _ = ot_instance(2000 + k, n)
        gamma = 0.4 + 0.4 * rng.uniform()
        u = rng.normal(0.0, 1.0, n)
        g = barycenter.fenchel_dual_gradient(u, p.weights, C, gamma)
        fd = _fd_gradient(
            lambda z: barycenter.fenchel_dual_ot(z, p.weights, C, gamma), u
        )
        err = _rel_err(g, fd)
        worst = max(worst, err)
        if err > 1e-5:
            failures.append(f"conjugate point {k}: rel err {err:.2e}")

    return _result(
        5, "gradient-finite-differences", start, failures,
        f"150 points, worst relative error {worst:.2e}",
    )


# --- criterion 6 -----------------------------------------------------------

def criterion_6() -> CriterionResult:
    """Both barycenter pipelines land within eps of the joint LP optimum,
    with the block-exactness identities holding every sweep."""
    start = time.perf_counter()
    failures = []
    worst_gap = -math.inf
    for k in range(5):
        C, measures = barycenter_instance(600 + k, m=2, n=3)
        eps = 0.25 * C.inf_norm
        _, lp_val = oracle.exact_barycenter_lp([m.weights for m in measures], C)

        for label, solver in (("ibp", barycenter.barycenter_ibp),
                              ("aibp", barycenter.accelerated_ibp)):
            checks: list[dict] = []
            q_bar, plans, _ = solver(measures, C, eps, checks=checks)
            val = float(
                np.mean(
                    [
                        oracle.exact_ot_lp(C, m.weights, q_bar).objective
                        for m in measures
                    ]
                )
            )
            gap = val - lp_val
            worst_gap = max(worst_gap, gap - eps)
            if gap > eps:
                failures.append(f"instance {k} {label}: gap {gap:.4e} > eps {eps:.4e}")
            for row in checks:
                if row.get("row_marginal_err", 0.0) > 1e-9:
                    failures.append(
                        f"instance {k} {label}: row marginal err "
                        f"{row['row_marginal_err']:.2e} at iteration {row['iteration']}"
                    )
                    break
                if row.get("v_sum_err", 0.0) > 1e-9:
                    failures.append(
                        f"instance {k} {label}: sum_l v_l err "
                        f"{row['v_sum_err']:.2e} at iteration {row['iteration']}"
                    )
                    break
                if row.get("col_coincide_err", 0.0) > 1e-9:
                    failures.append(
                        f"instance {k} {label}: geometric-mean mismatch "
                        f"{row['col_coincide_err']:.2e} at iteration {row['iteration']}"
                    )
                    break
    return _result(
        6, "barycenter-oracle-gap", start, failures,
        f"5 instances x 2 solvers, worst gap-minus-eps {worst_gap:.3e}",
    )


# --- criterion 7 -----------------------------------------------------------

DECENTRALIZED_ROUNDS = 12_000
DECENTRALIZED_EPS_SOLVER = 2e-4


def criterion_7() -> CriterionResult:
    """Decentralized runs reach consensus and the centralized optimum, with
    conservation and locality holding every round."""
    start = time.perf_counter()
    failures = []
    graphs = {
        "K4": [(i, j) for i in range(4) for j in range(i + 1, 4)],
        "P4": [(0, 1), (1, 2), (2, 3)],
    }
    C, measures = barycenter_instance(700, m=4, n=8)
    gamma = 0.1 * C.inf_norm
    eps_solver = DECENTRALIZED_EPS_SOLVER

    problem = barycenter.BarycenterProblem(tuple(measures), C, gamma)
    ibp_sol = barycenter.ibp_solve(problem, eps_solver)
    q_ref = ibp_sol.q_bar

    for name, edges in graphs.items():
        graph = decentralized.graph_laplacian(4, edges)
        step_L = decentralized.default_step_constant(graph, gamma)
        state = decentralized.initial_state(np.stack([mu.weights for mu in measures]), C, gamma)
        # Locality: the round's only cross-node read is mix(W, Q).  Every
        # round, W must be the graph's Laplacian with off-diagonal support
        # exactly the edge set in both directions, Q the previous round's
        # estimates, and the dual update exactly U - (W Q) / L.
        support = np.zeros((4, 4), dtype=bool)
        for i, j in graph.edges:
            support[i, j] = support[j, i] = True
        off_diagonal = ~np.eye(4, dtype=bool)
        bad_rounds = []
        max_drift = 0.0
        for rnd in range(DECENTRALIZED_ROUNDS):
            applied = []

            def mix(W, Q, _applied=applied):
                _applied.append((W, Q, W @ Q))
                return _applied[-1][2]

            new = decentralized.decentralized_dual_step(state, graph, C, gamma, step_L, mix=mix)
            local = len(applied) == 1
            if local:
                W, Q, WQ = applied[0]
                local = (
                    np.array_equal(W, graph.laplacian)
                    and np.array_equal((W != 0) & off_diagonal, support)
                    and np.array_equal(Q, state.Q)
                    and np.array_equal(new.U, state.U - WQ / step_L)
                )
            if not local:
                bad_rounds.append(rnd)
            state = new
            max_drift = max(max_drift, float(np.abs(state.U.sum(axis=0)).max()))
        if bad_rounds:
            failures.append(f"{name}: locality check failed in rounds {bad_rounds[:4]}")
        if max_drift > 1e-12:
            failures.append(f"{name}: sum_i u_i drifted by {max_drift:.3e}")
        cons = decentralized.consensus_error(state.Q)
        if cons > 1e-3:
            failures.append(f"{name}: consensus error {cons:.3e} > 1e-3")
        worst_q = float(np.abs(state.Q - q_ref).sum(axis=1).max())
        if worst_q > 5.0 * eps_solver:
            failures.append(
                f"{name}: node marginal off centralized answer by {worst_q:.3e} "
                f"> {5.0 * eps_solver:.1e}"
            )
    return _result(
        7, "decentralized-consensus", start, failures,
        f"K4+P4, {DECENTRALIZED_ROUNDS} rounds, solver tolerance {eps_solver:g}",
    )


# --- criterion 8 -----------------------------------------------------------

def criterion_8() -> CriterionResult:
    """Exact enumeration over the sampled index reproduces the full
    conjugate gradient."""
    start = time.perf_counter()
    failures = []
    worst = 0.0
    rng = np.random.default_rng(800)
    for k in range(20):
        n = 6
        C, p, _ = ot_instance(3000 + k, n)
        gamma = 0.2 + 0.6 * rng.uniform()
        u = rng.normal(0.0, 1.0, n)
        mix = np.zeros(n)
        for xi in range(n):
            mix += p.weights[xi] * decentralized.softmax_column(u, C, gamma, xi)
        full = barycenter.fenchel_dual_gradient(u, p.weights, C, gamma)
        err = float(np.abs(mix - full).max())
        worst = max(worst, err)
        if err > 1e-12:
            failures.append(f"point {k}: enumeration mismatch {err:.2e}")
    # An asymmetric cost: the draw must mix rows C[xi], as the gradient does.
    asym = np.random.default_rng(0)
    C = asym.uniform(0.0, 1.0, (5, 5))
    p = asym.dirichlet(np.ones(5))
    u = asym.normal(size=5)
    mix = sum(p[xi] * decentralized.softmax_column(u, C, 0.5, xi) for xi in range(5))
    err = float(np.abs(mix - barycenter.fenchel_dual_gradient(u, p, C, 0.5)).max())
    if err > 1e-12:
        failures.append(f"asymmetric cost: enumeration mismatch {err:.2e}")
    return _result(
        8, "stochastic-gradient-unbiased", start, failures,
        f"20 points, worst mismatch {worst:.2e}; asymmetric cost {err:.2e}",
    )


# --- criterion 9 -----------------------------------------------------------

def criterion_9() -> CriterionResult:
    """Sinkhorn half-steps match KL projections entrywise; the log-sum-exp
    reduction is shift invariant."""
    start = time.perf_counter()
    failures = []
    from .core import logsumexp

    rng = np.random.default_rng(900)
    for k in range(20):
        x = rng.normal(0.0, 5.0, rng.integers(1, 12))
        c = rng.normal(0.0, 50.0)
        if abs(logsumexp(x + c) - (logsumexp(x) + c)) > 1e-12:
            failures.append(f"logsumexp shift case {k}")

    for k in range(5):
        n = 8
        C, p, q = ot_instance(4000 + k, n)
        gamma = 0.2 * C.inf_norm
        state = sinkhorn.SinkhornState.initial(n)
        plan_kl = np.exp(-C.entries / gamma)
        for t in range(50):
            state = sinkhorn.sinkhorn_step(state, C, gamma, p, q)
            if t % 2 == 0:
                plan_kl = sinkhorn.kl_project(plan_kl, p.weights, "rows")
            else:
                plan_kl = sinkhorn.kl_project(plan_kl, q.weights, "columns")
            plan_log = sinkhorn.coupled_plan(state.u, state.v, C, gamma)
            diff = float(np.abs(plan_log - plan_kl).max())
            if diff > 1e-9:
                failures.append(f"instance {k}: plans diverge by {diff:.2e} at t={t + 1}")
                break
    return _result(
        9, "projection-equivalence-logsumexp", start, failures,
        "5 instances x 50 steps, 20 shift cases",
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run_all(only: list[int] | None = None, printer=print) -> list[CriterionResult]:
    """Run the requested criteria (all by default), printing one line each.
    Raises ``ParameterError`` for a number that names no criterion."""
    unknown = sorted(set(only or ()) - set(CRITERIA))
    if unknown:
        raise ParameterError(f"unknown acceptance criterion number(s) {unknown}")
    results = []
    for index in sorted(CRITERIA):
        if only and index not in only:
            continue
        result = CRITERIA[index]()
        results.append(result)
        if printer is not None:
            printer(result.format_line())
    return results
