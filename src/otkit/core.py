"""Shared numerical primitives for entropic optimal transport.

Discrete measures, cost matrices and transport plans; the one
strict-positivity check (``strictly_positive``, which refuses NaN too)
behind every solver's marginals; entropy/KL functionals, the l1
marginal-violation metric, a max-subtracting log-sum-exp, and the
marginal-smoothing transform used by the approximation pipelines.  The
coupling B(u, v) is built by ``kernel.ScalingKernel``
(``sinkhorn.coupled_plan``).

All values are immutable after construction and safe to share across
threads; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class OtError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OtError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class ParameterError(OtError, ValueError):
    """Invalid solver parameter (e.g. nonpositive regularization weight)."""


class InputError(OtError, ValueError):
    """Malformed input file or run manifest."""


class NumericalError(OtError, ArithmeticError):
    """A solver step produced non-finite intermediate values."""


class ConvergenceError(OtError, RuntimeError):
    """Iteration budget exhausted before the stopping rule fired."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiscreteMeasure:
    """Point on the probability simplex.

    Weights are validated (finite, nonnegative, positive total mass) and
    renormalized at construction so the stored sum is exactly 1 to within
    a few ulp.
    """

    weights: np.ndarray

    def __post_init__(self):
        if isinstance(self.weights, DiscreteMeasure):
            # Checked, normalized and frozen already: share its weights.
            object.__setattr__(self, "weights", self.weights.weights)
            return
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("measure weights must be a nonempty 1-d vector")
        if not np.all(np.isfinite(w)):
            raise DomainError("measure weights must be finite")
        if np.any(w < 0):
            raise DomainError("measure weights must be nonnegative")
        total = float(w.sum())
        if total <= 0:
            raise DomainError("measure weights must have positive total mass")
        object.__setattr__(self, "weights", _freeze(w / total))

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def min_weight(self) -> float:
        return float(self.weights.min())

    def __len__(self) -> int:
        return self.weights.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.weights, dtype=dtype)


@dataclass(frozen=True)
class CostMatrix:
    """Square, finite, nonnegative transport cost matrix with cached max entry.

    C[i, j] is the cost of moving mass from support point i of the source
    measure (p, or each p_l of a barycenter) to support point j of the
    target (q, or the barycenter).  Every solver reads C in this
    orientation, and none needs it to be symmetric.
    """

    entries: np.ndarray
    inf_norm: float = field(init=False)

    def __post_init__(self):
        if isinstance(self.entries, CostMatrix):
            # Checked and frozen already: share its entries, not a copy.
            object.__setattr__(self, "inf_norm", self.entries.inf_norm)
            object.__setattr__(self, "entries", self.entries.entries)
            return
        c = np.asarray(self.entries, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
            raise DomainError(f"cost matrix must be square and nonempty, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise DomainError("cost matrix entries must be finite")
        if np.any(c < 0):
            raise DomainError("cost matrix entries must be nonnegative")
        object.__setattr__(self, "entries", _freeze(c))
        object.__setattr__(self, "inf_norm", float(c.max()))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


#: Tolerance on marginal equality for plans declared feasible.
FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling matrix, optionally certified feasible.

    ``feasible_for`` records the marginal pair (p, q) once a plan has been
    rounded onto the transportation polytope; construction then verifies
    both marginals to ``FEASIBILITY_TOL``.
    """

    entries: np.ndarray
    feasible_for: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        pi = np.asarray(self.entries, dtype=float)
        if pi.ndim != 2 or pi.size == 0:
            raise DomainError("transport plan must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(pi)):
            raise DomainError("transport plan entries must be finite")
        if np.any(pi < 0):
            raise DomainError("transport plan entries must be nonnegative")
        object.__setattr__(self, "entries", _freeze(pi))
        if self.feasible_for is not None:
            p, q = self.feasible_for
            p = _freeze(np.asarray(p, dtype=float))
            q = _freeze(np.asarray(q, dtype=float))
            row_err = float(np.abs(pi.sum(axis=1) - p).max())
            col_err = float(np.abs(pi.sum(axis=0) - q).max())
            if max(row_err, col_err) > FEASIBILITY_TOL:
                raise DomainError(
                    f"plan declared feasible but marginals deviate by "
                    f"{max(row_err, col_err):.3e} > {FEASIBILITY_TOL:g}"
                )
            object.__setattr__(self, "feasible_for", (p, q))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def row_marginals(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    @property
    def col_marginals(self) -> np.ndarray:
        return self.entries.sum(axis=0)

    @property
    def total_mass(self) -> float:
        return float(self.entries.sum())

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass
class SolveReport:
    """Outcome of one solver run: objective, certificate and trace.

    ``params`` records the exact schedule used (gamma, eps_prime, step
    constants, overrides), ``extras`` carries solver-specific diagnostics,
    and ``trace`` holds one dict per recorded iteration with the columns
    listed in ``trace_columns``.
    """

    objective: float
    iterations: int
    certificate: float
    params: dict
    seed: int | None = None
    trace: list[dict] | None = None
    trace_columns: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Coercion helpers
# ---------------------------------------------------------------------------

def as_weights(m) -> np.ndarray:
    """Return the weight vector of a measure-like object as a float array."""
    w = np.asarray(m, dtype=float)
    if w.ndim != 1:
        raise DomainError("expected a 1-d weight vector")
    return w


def strictly_positive(w, what: str) -> np.ndarray:
    """``w`` as a float array, refused unless every entry is > 0: a zero,
    negative or NaN entry is a ``DomainError`` that names ``what``."""
    w = np.asarray(w, dtype=float)
    bad = ~(w > 0)
    if bad.any():
        raise DomainError(f"{what} must be strictly positive, found {float(w[bad][0]):g}")
    return w


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DomainError("expected a 2-d matrix")
    return m


def as_potentials(pot) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) as float arrays, from a state with ``u`` and ``v`` or a pair."""
    u, v = (pot.u, pot.v) if hasattr(pot, "u") else pot
    return np.asarray(u, dtype=float), np.asarray(v, dtype=float)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def lse(x, axis=None):
    """Log of the sum of exponentials of ``x`` along ``axis`` (all entries
    by default), computed by subtracting the maximum.

    An all ``-inf`` slice reduces to ``-inf``, not NaN: its maximum is
    replaced by 0 before the subtraction.
    """
    x = np.asarray(x, dtype=float)
    top = np.max(x, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x - top), axis=axis, keepdims=True)) + top
    return np.squeeze(out, axis=axis)[()]


def logsumexp(values, weights=None) -> float:
    """Stable log of a (weighted) sum of exponentials of a vector.

    Computes ``log sum_i w_i exp(values_i)`` by max subtraction; exact for
    single-element input.  Weights, when given, must be strictly positive
    and of matching length.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("empty reduction")
    if not np.all(np.isfinite(x)):
        raise DomainError("logsumexp requires finite values")
    if weights is None:
        return float(lse(x))
    w = np.asarray(weights, dtype=float)
    if w.shape != x.shape:
        raise DomainError("values and weights must have the same length")
    return float(lse(x + np.log(strictly_positive(w, "logsumexp weights"))))


def _xlogy(x, y) -> np.ndarray:
    """x ln y entrywise, with 0 wherever x == 0 (so 0 ln 0 = 0)."""
    return x * np.log(np.where(x > 0, y, 1.0))


def neg_entropy(plan) -> float:
    """Negative entropy sum_ij pi_ij ln pi_ij, with the 0 ln 0 = 0 convention."""
    pi = as_matrix(plan)
    if np.any(pi < 0):
        raise DomainError("negative entry in plan")
    return float(_xlogy(pi, pi).sum())


def kl_divergence(a, b) -> float:
    """Generalized KL divergence sum(a ln(a/b) - a + b); nonnegative, 0 iff a == b."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DomainError("KL arguments must have matching shapes")
    if np.any(a < 0) or np.any(b < 0):
        raise DomainError("KL arguments must be nonnegative")
    if np.any((b == 0) & (a > 0)):
        raise DomainError("KL undefined: reference has a zero where plan is positive")
    return float((_xlogy(a, a) - _xlogy(a, b)).sum() - a.sum() + b.sum())


def marginal_violation(plan, p, q) -> float:
    """l1 distance of the plan's marginals from (p, q); zero iff feasible.

    ``plan`` is a matrix, or any object with ``row_marginals`` and
    ``col_marginals`` (a TransportPlan, or a coupling known by its sums).
    """
    if hasattr(plan, "row_marginals"):
        rows = as_weights(plan.row_marginals)
        cols = as_weights(plan.col_marginals)
    else:
        pi = as_matrix(plan)
        rows, cols = pi.sum(axis=1), pi.sum(axis=0)
    p = as_weights(p)
    q = as_weights(q)
    if (rows.size, cols.size) != (p.size, q.size):
        raise DomainError("plan and marginals have mismatched dimensions")
    return float(np.abs(rows - p).sum() + np.abs(cols - q).sum())


def transport_cost(plan, C) -> float:
    """Frobenius inner product of the cost matrix with the plan."""
    pi = as_matrix(plan)
    c = as_matrix(C)
    if pi.shape != c.shape:
        raise DomainError("plan and cost matrix have mismatched dimensions")
    return float((pi * c).sum())


def reg_primal_objective(plan, C, gamma: float) -> float:
    """Entropy-regularized primal objective <C, pi> + gamma * sum pi ln pi."""
    if not (gamma > 0):
        raise ParameterError("gamma must be positive")
    return transport_cost(plan, C) + gamma * neg_entropy(plan)


def smooth_measure(m, delta: float) -> DiscreteMeasure:
    """Mix a measure with the uniform one and renormalize.

    Applies (1 - delta) * (w + (delta/n) * 1) and rescales to unit mass.
    The output stays within l1 distance 2*delta of the input and its
    smallest entry is at least (1 - delta) * delta / n.
    """
    w = as_weights(m)
    if not (0 < delta < 1):
        raise ParameterError("smoothing weight must lie in (0, 1)")
    n = w.size
    smoothed = (1.0 - delta) * (w + delta / n)
    return DiscreteMeasure(smoothed)
