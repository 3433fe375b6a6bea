"""Property checks on the program's outputs.

Each check returns a list of failure messages; an empty list means the
output passed.  The checks use numpy only, so they run in the benchmark's
parent process against the outputs the measured process saved and the
references the reference process computed.
"""

from __future__ import annotations

import numpy as np

#: Largest marginal deviation (max-abs) accepted for a plan declared feasible.
MARGINAL_TOL = 1e-9
#: Largest deviation of a simplex point's mass from 1.
SIMPLEX_TOL = 1e-9
#: Relative slack on "OPT <= objective" and on recomputed objectives,
#: scaled by max(1, |OPT|): a feasible plan's cost can undercut the LP
#: optimum only by the float error of its marginals.
VALUE_TOL = 1e-9


def plan_marginals(label, plan, p, q, tol=MARGINAL_TOL):
    """Plan is finite and nonnegative with row sums p and column sums q."""
    plan = np.asarray(plan, float)
    if plan.shape != (len(p), len(q)):
        return [f"{label}: plan shape {plan.shape} does not match ({len(p)}, {len(q)})"]
    if not np.all(np.isfinite(plan)):
        return [f"{label}: plan has non-finite entries"]
    failures = []
    if plan.min() < 0:
        failures.append(f"{label}: plan has a negative entry {plan.min():.3e}")
    row_err = float(np.abs(plan.sum(axis=1) - p).max())
    col_err = float(np.abs(plan.sum(axis=0) - q).max())
    if row_err > tol:
        failures.append(f"{label}: row marginals off by {row_err:.3e} > {tol:g}")
    if col_err > tol:
        failures.append(f"{label}: column marginals off by {col_err:.3e} > {tol:g}")
    return failures


def within_eps(label, objective, opt, eps):
    """OPT <= objective <= OPT + eps, up to the float slack VALUE_TOL."""
    slack = VALUE_TOL * max(1.0, abs(opt))
    if not np.isfinite(objective):
        return [f"{label}: objective is not finite"]
    if objective < opt - slack:
        return [f"{label}: objective {objective:.12g} below the LP optimum {opt:.12g}"]
    if objective > opt + eps + slack:
        return [
            f"{label}: objective {objective:.12g} exceeds OPT + eps = "
            f"{opt:.12g} + {eps:.6g} by {objective - opt - eps:.3e}"
        ]
    return []


def same_value(label, value, expected, tol=VALUE_TOL):
    """value equals expected to tol * max(1, |expected|)."""
    if not np.isfinite(value) or abs(value - expected) > tol * max(1.0, abs(expected)):
        return [f"{label}: {value!r} differs from the reference {expected!r}"]
    return []


def on_simplex(label, w, tol=SIMPLEX_TOL):
    """Nonnegative finite vector with unit mass."""
    w = np.asarray(w, float)
    if not np.all(np.isfinite(w)):
        return [f"{label}: non-finite entries"]
    failures = []
    if w.min() < 0:
        failures.append(f"{label}: negative entry {w.min():.3e}")
    if abs(float(w.sum()) - 1.0) > tol:
        failures.append(f"{label}: mass {float(w.sum()):.15g} is not 1")
    return failures


def message_count(label, messages, rounds, edges):
    """One message per edge per round."""
    if messages != rounds * edges:
        return [f"{label}: {messages} messages, expected {rounds} rounds x {edges} edges"]
    return []


def dual_descent(label, final, start):
    """The final dual value does not exceed its value at the zero start."""
    if not np.isfinite(final) or final > start + VALUE_TOL * max(1.0, abs(start)):
        return [f"{label}: dual value rose from {start:.12g} to {final:.12g}"]
    return []


def row_l1_within(label, plan, p, radius):
    """Row marginals lie within l1 distance ``radius`` of p."""
    dist = float(np.abs(np.asarray(plan, float).sum(axis=1) - p).sum())
    if not dist <= radius:
        return [f"{label}: row marginals {dist:.3e} from the measure in l1 > {radius:.3e}"]
    return []
