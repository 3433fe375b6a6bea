"""The entropic operator on stacked dual potentials, and every pass over it.

Coupling l of the (m, n) potential stacks (u, v) is
B_l = exp(u_l + v_l' + L), with the log kernel L = -C / gamma: the
conjugate of the entropy at u + v' - C (Blondel, Seguy and Rolet,
AISTATS 2018).  Here are its couplings, marginals and log mass, the
stacked dual value, the exact block step (``ScalingKernel``), the line
search's slope and curvature, and the conjugate (semi-dual) pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DomainError, NumericalError, ParameterError, as_matrix, lse, strictly_positive

#: A half-step whose new scalings leave [1/SCALING_BOUND, SCALING_BOUND] is
#: redone in the log domain.  Within the bound, a kernel entry that
#: underflows (< 2.3e-308) adds under SCALING_BOUND**2 * 2.3e-308 ~ 2e-248
#: to a coupling entry, far below what a marginal can resolve.
SCALING_BOUND = 1e30


def log_kernel(C, gamma: float) -> np.ndarray:
    """L = -C / gamma."""
    if not (gamma > 0):
        raise ParameterError("gamma must be positive")
    return -as_matrix(C) / gamma


def exp_pass(u, v, L) -> tuple[np.ndarray, np.ndarray]:
    """exp(u_l + v_l' + L - top_l) for every l, as a fresh (m, n, n) array
    whose largest entry per coupling is 1, and the shifts top_l, as (m,)."""
    B = u[:, :, None] + v[:, None, :]
    B += L
    top = B.max(axis=(1, 2))
    B -= top[:, None, None]
    np.exp(B, out=B)
    return B, top


def log_masses(u, v, L) -> np.ndarray:
    """ln 1' B_l 1 for every l, as (m,), from one exp pass."""
    B, top = exp_pass(u, v, L)
    return np.log(B.sum(axis=(1, 2))) + top


def log_marginals(u, v, L, rows: bool) -> np.ndarray:
    """ln of the row (or column) sums of every B_l, as (m, n), each by a
    log-sum-exp shifted by its own maximum."""
    return lse(u[:, :, None] + v[:, None, :] + L, axis=2 if rows else 1)


def couplings(u, v, L):
    """Everything the stacked dual needs at (u, v) from one exp pass: the
    normalized couplings pi_l = B_l / 1' B_l 1 as (m, n, n), their row and
    column marginals as (m, n), and ln 1' B_l 1 as (m,)."""
    pi, top = exp_pass(u, v, L)
    rows = pi.sum(axis=2)
    mass = rows.sum(axis=1)
    pi /= mass[:, None, None]
    return pi, rows / mass[:, None], pi.sum(axis=1), np.log(mass) + top


def dual_value(u, v, L, scale: float, p, q=None, log_mass=None) -> float:
    """Stacked smooth dual scale * sum_l (ln 1' B_l 1 - <u_l, p_l> - <v_l, q_l>),
    all arrays (m, n); no q term when q is None.  Takes one exp pass unless
    ``log_mass`` (ln 1' B_l 1) is given."""
    if log_mass is None:
        log_mass = log_masses(u, v, L)
    value = log_mass - (u * p).sum(axis=1)
    if q is not None:
        value -= (v * q).sum(axis=1)
    return scale * float(value.sum())


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


def slope_and_curvature(L, u, v, du, dv, scale, p, q, beta) -> tuple[float, float]:
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
    B, _ = exp_pass(wu - wu.max(axis=1)[:, None], wv - wv.max(axis=1)[:, None], L)
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


def conjugate_pass(U, rows, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Softmax and log-sum-exp over the last axis of
    Z = (U[:, None, :] - rows) / gamma, from one exp pass.

    ``U`` is (m, n); ``rows`` is (j, n), shared by every k (the cost
    matrix: Z[k, j, i] = (u_ki - C_ji) / gamma), or (m, j, n) with rows of
    its own for each k (sampled cost rows).  Returns the (m, j, n) softmax
    and the (m, j) log-sum-exp.  An all -inf row of Z has log-sum-exp
    -inf.
    """
    if not (gamma > 0):
        raise ParameterError("gamma must be positive")
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise DomainError("expected an (m, n) stack of duals")
    Z = U[:, None, :] - rows
    Z /= gamma
    top = Z.max(axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    Z -= top
    np.exp(Z, out=Z)
    total = Z.sum(axis=-1, keepdims=True)
    Z /= total
    with np.errstate(divide="ignore"):
        return Z, (np.log(total) + top)[..., 0]


def conjugate_values(P, lse_rows, gamma: float) -> np.ndarray:
    """The per-row dual values gamma <p, lse_rows> - gamma <p, ln p> of two
    (m, n) stacks, from the log-sum-exps of a ``conjugate_pass`` over the
    cost matrix."""
    P = strictly_positive(P, "marginal")
    return gamma * np.einsum("kj,kj->k", P, lse_rows) - gamma * np.einsum("kj,kj->k", P, np.log(P))


def conjugate_gradients(P, soft) -> np.ndarray:
    """Row k: the P[k]-mixture of the softmax columns soft[k] of a
    ``conjugate_pass`` over the cost matrix."""
    return (np.asarray(P, dtype=float)[:, None, :] @ soft)[:, 0, :]


def fenchel_dual_values(U, P, C, gamma: float) -> np.ndarray:
    """``fenchel_dual_ot`` at every row pair (U[k], P[k]) of two (m, n)
    stacks, as an (m,) array: gamma <p, lse_i((u_i - C_ji) / gamma)>_j
    - gamma <p, ln p>."""
    if np.shape(U) != np.shape(P):
        raise DomainError("expected matching (m, n) stacks of duals and measures")
    return conjugate_values(P, conjugate_pass(U, as_matrix(C), gamma)[1], gamma)


def fenchel_dual_gradients(U, P, C, gamma: float) -> np.ndarray:
    """``fenchel_dual_gradient`` at every row pair (U[k], P[k]) of two
    (m, n) stacks, as an (m, n) array: the P[k]-mixture of the softmax
    columns."""
    if np.shape(U) != np.shape(P):
        raise DomainError("expected matching (m, n) stacks of duals and measures")
    return conjugate_gradients(P, conjugate_pass(U, as_matrix(C), gamma)[0])
