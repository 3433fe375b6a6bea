"""Decentralized barycenter computation over a communication graph.

Each node holds one measure and a dual block; a round applies the
Laplacian-weighted gradient step u_i <- u_i - (1/L) sum_j W_ij q_j, then
refreshes the local marginal estimate q_i = grad of the conjugate
transport value at u_i.  The simulator holds the network as (m, n)
arrays and runs a round as whole-array operations: row i of W @ Q mixes
only node i's own estimate and its graph neighbors', since the
off-diagonal support of the Laplacian W is the edge set.  It counts one
message per edge per round.  Every estimate of a round, full or
stochastic, is one ``kernel.conjugate_mixture``: a softmax mixture in
the scaling form, two (m, n) x (n, n) products, unless it needs the
log domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CostMatrix,
    DiscreteMeasure,
    DomainError,
    ParameterError,
    SolveReport,
    as_matrix,
    as_weights,
    strictly_positive,
)
from .kernel import conjugate_mixture, conjugate_values, fenchel_dual_values

TRACE_COLUMNS = ("round", "consensus_error", "dual_value", "messages")


@dataclass(frozen=True)
class CommunicationGraph:
    """Connected undirected graph with its Laplacian matrix."""

    m: int
    edges: frozenset
    laplacian: np.ndarray

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def graph_laplacian(m: int, edges) -> CommunicationGraph:
    """Build the Laplacian (degree minus adjacency) and check connectivity."""
    if m < 1:
        raise DomainError("need at least one node")
    canonical = set()
    for i, j in edges:
        if not (0 <= i < m and 0 <= j < m):
            raise DomainError(f"edge ({i}, {j}) references a node outside 0..{m - 1}")
        if i == j:
            raise DomainError(f"self-loop at node {i}")
        canonical.add((min(i, j), max(i, j)))
    W = np.zeros((m, m))
    adjacency = [[] for _ in range(m)]
    for i, j in canonical:
        W[i, j] = W[j, i] = -1.0
        W[i, i] += 1.0
        W[j, j] += 1.0
        adjacency[i].append(j)
        adjacency[j].append(i)

    # BFS connectivity; a disconnected graph has no consensus subspace.
    seen = {0}
    frontier = [0]
    while frontier:
        for j in adjacency[frontier.pop()]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    if len(seen) != m:
        raise DomainError("graph must be connected")
    W.flags.writeable = False
    return CommunicationGraph(m=m, edges=frozenset(canonical), laplacian=W)


def condition_number(graph: CommunicationGraph) -> float:
    """Laplacian conditioning lambda_max / lambda_min^+ (>= 1)."""
    eigs = np.linalg.eigvalsh(graph.laplacian)
    positive = eigs[eigs > 1e-12 * max(1.0, eigs.max())]
    if positive.size == 0:
        return 1.0  # single node: W = 0
    return float(eigs.max() / positive.min())


@dataclass(frozen=True)
class NetworkState:
    """Every node after ``round_index`` rounds: row i of the (m, n) arrays
    P, U and Q is node i's measure, dual block and marginal estimate.
    ``smooth_max`` holds the smoothed maxima of the ``conjugate_mixture``
    that gave a full-gradient Q, from which ``kernel.conjugate_values``
    gives each node's dual value at U; it is None after a stochastic
    round.  ``log_domain_rounds`` counts the estimates so far, the start
    included, that ``conjugate_mixture`` took in the log domain."""

    P: np.ndarray
    U: np.ndarray
    Q: np.ndarray
    round_index: int = 0
    smooth_max: np.ndarray | None = None
    log_domain_rounds: int = 0

    def __post_init__(self):
        if not (np.ndim(self.P) == 2 and np.shape(self.P) == np.shape(self.U) == np.shape(self.Q)):
            raise DomainError("P, U and Q must be (m, n) arrays of one shape")


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; ``step_L`` defaults to m lambda_max(W) / gamma."""

    gamma: float
    rounds: int
    step_L: float | None = None
    stochastic: bool = False
    seed: int = 0
    batch: int = 1

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ParameterError("gamma must be positive")
        if self.step_L is not None and not (self.step_L > 0):
            raise ParameterError("step_L must be positive")
        if self.rounds < 0:
            raise ParameterError("rounds must be nonnegative")
        if self.batch < 1:
            raise ParameterError("batch must be >= 1")


def default_step_constant(graph: CommunicationGraph, gamma: float) -> float:
    """Smoothness constant m * lambda_max(W) / gamma used for the 1/L step."""
    lam_max = float(np.linalg.eigvalsh(graph.laplacian).max())
    if lam_max == 0.0:
        return 1.0 / gamma  # single node: any positive constant, u never moves
    return graph.m * lam_max / gamma


def softmax_column(u, C, gamma: float, xi: int) -> np.ndarray:
    """Softmax over l of (u_l - C_{xi, l}) / gamma: one term of the
    conjugate gradient's p-mixture."""
    row = as_matrix(C)[xi][None]
    return conjugate_mixture(as_weights(u)[None], np.ones((1, 1)), row, gamma)[0][0]


def sample_columns(P, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Column indices of every node's draws, an (m, batch) integer array:
    node i draws j with probability P[i, j] / sum(P[i]).

    Inverse-CDF sampling on one ``rng.random((m, batch))`` block.  It is
    the formula of ``Generator.choice(n, p=...)`` and takes the uniforms
    in the order of node-by-node, draw-by-draw ``choice`` calls, so a
    seeded run draws the same indices as those calls would.  A cdf row
    never decreases, so the count of its entries <= x is
    ``searchsorted(side="right")``, ties included.
    """
    cdf = np.cumsum(P / P.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    uniform = rng.random((P.shape[0], batch))
    return (cdf[:, None, :] <= uniform[:, :, None]).sum(axis=2)


def _sampled_mixture(U, P, C, gamma, rng, batch) -> tuple[np.ndarray, np.ndarray, bool]:
    """``conjugate_mixture`` with weights N / batch, where N[i, j] counts
    node i's draws of column j, over the cost rows drawn at least once."""
    P = strictly_positive(P, "marginal")
    m, n = P.shape
    xi = sample_columns(P, batch, rng)
    flat = (xi + n * np.arange(m)[:, None]).ravel()
    counts = np.bincount(flat, minlength=m * n).reshape(m, n)
    drawn = counts.any(axis=0)
    return conjugate_mixture(U, counts[:, drawn] / batch, as_matrix(C)[drawn], gamma)


def stochastic_dual_gradients(U, P, C, gamma: float, rng: np.random.Generator,
                              batch: int = 1) -> np.ndarray:
    """Batch-mean estimates of the conjugate gradients of all m nodes.

    Node i draws ``batch`` column indices xi with probability P[i, xi]
    and averages the softmax columns (u_i - C[xi]) / gamma: one
    ``conjugate_mixture`` over the drawn cost rows, weighted by draw
    counts; in expectation each row is the ``fenchel_dual_gradients``
    row.
    """
    return _sampled_mixture(U, P, C, gamma, rng, batch)[0]


def stochastic_dual_gradient(u, p, C, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """One-sample estimate of the conjugate gradient: the softmax column of
    an index drawn with probability p_j.  Averaging over the draw
    reproduces ``fenchel_dual_gradient`` exactly.  The m = 1, batch 1 case
    of ``stochastic_dual_gradients``."""
    return stochastic_dual_gradients(as_weights(u)[None], as_weights(p)[None], C, gamma, rng)[0]


def _gradient_estimates(U, P, C, gamma, config, rng) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """Q at U; for full gradients, the smoothed maxima of the same
    ``conjugate_mixture`` (None for stochastic estimates); and whether it
    took the log domain."""
    if config is None or not config.stochastic:
        return conjugate_mixture(U, P, as_matrix(C), gamma)
    if rng is None:
        raise ParameterError("a stochastic round needs a random generator (rng)")
    Q, _, log_domain = _sampled_mixture(U, P, C, gamma, rng, config.batch)
    return Q, None, log_domain


def initial_state(P, C, gamma: float, config: SimConfig | None = None,
                  rng: np.random.Generator | None = None) -> NetworkState:
    """Zero dual start: U = 0 and Q the gradient estimate there (the full
    gradient unless ``config`` is stochastic, in which case it draws from
    ``rng``, which is then required)."""
    P = np.asarray(P, dtype=float)
    U = np.zeros_like(P)
    Q, smooth_max, log_domain = _gradient_estimates(U, P, C, gamma, config, rng)
    return NetworkState(P=P, U=U, Q=Q, smooth_max=smooth_max, log_domain_rounds=int(log_domain))


def decentralized_dual_step(
    state: NetworkState,
    graph: CommunicationGraph,
    C,
    gamma: float,
    step_L: float,
    config: SimConfig | None = None,
    rng: np.random.Generator | None = None,
    mix=None,
) -> NetworkState:
    """One synchronous round of the decentralized dual gradient method:
    U <- U - (W @ Q) / L, then Q <- the gradient estimate at the new U.

    The previous round's estimates reach other nodes only through
    ``mix(W, Q)``, which returns W @ Q; row i of the Laplacian W is
    nonzero only at i and its graph neighbors.  The hook exists so tests
    can check, every round, which operator is applied and to what.
    Raises ``DomainError`` in the first round whose estimates are not
    finite (a diverging run, e.g. from a too small ``step_L``), and
    ``ParameterError`` for a stochastic ``config`` without ``rng``: the
    caller's generator carries the draws from one round to the next.
    """
    if state.U.shape[0] != graph.m:
        raise DomainError("one state row per graph node required")
    if mix is None:
        mix = np.matmul
    U = state.U - mix(graph.laplacian, state.Q) / step_L
    Q, smooth_max, log_domain = _gradient_estimates(U, state.P, C, gamma, config, rng)
    if not np.isfinite(Q).all():
        raise DomainError(
            f"marginal estimates are not finite in round {state.round_index + 1}; "
            "the step 1/L is too large"
        )
    return NetworkState(P=state.P, U=U, Q=Q, round_index=state.round_index + 1,
                        smooth_max=smooth_max,
                        log_domain_rounds=state.log_domain_rounds + int(log_domain))


def consensus_error(Q) -> float:
    """Largest pairwise l1 distance between the rows (node estimates) of Q."""
    Q = np.asarray(Q, dtype=float)
    return float(np.abs(Q[:, None, :] - Q[None, :, :]).sum(axis=2).max())


def simulate_decentralized_barycenter(
    measures, C, graph: CommunicationGraph, config: SimConfig, mix=None,
    trace: list | None = None,
) -> tuple[list[DiscreteMeasure], SolveReport]:
    """Run the round-based simulation from the zero dual start.

    Reports the per-round consensus error, the dual value
    (1/m) sum_i conjugate(u_i), and the cumulative message count
    (one message per edge per round), and counts in
    ``extras["gradient_evals"]`` the per-node gradient evaluations: m per
    full round, m * batch per stochastic round, the start included, and
    in ``extras["log_domain_rounds"]`` the estimates, the start included,
    that ``kernel.conjugate_mixture`` took in the log domain.  Output is
    a pure function of (inputs, seed): draws are taken node by node, in
    id order, within each round.
    """
    ms = [DiscreteMeasure(m) for m in measures]
    if len(ms) != graph.m:
        raise DomainError("need exactly one measure per node")
    C = CostMatrix(C)
    gamma = config.gamma
    step_L = config.step_L if config.step_L is not None else default_step_constant(graph, gamma)
    rng = np.random.default_rng(config.seed)
    state = initial_state(np.stack([mu.weights for mu in ms]), C.entries, gamma, config, rng)

    def dual_value() -> float:
        if state.smooth_max is None:
            return float(np.mean(fenchel_dual_values(state.U, state.P, C.entries, gamma)))
        return float(np.mean(conjugate_values(state.P, state.smooth_max, gamma)))

    messages = 0
    for rnd in range(1, config.rounds + 1):
        state = decentralized_dual_step(
            state, graph, C.entries, gamma, step_L, config=config, rng=rng, mix=mix
        )
        messages += graph.edge_count
        if trace is not None:
            trace.append(
                {
                    "round": rnd,
                    "consensus_error": consensus_error(state.Q),
                    "dual_value": dual_value(),
                    "messages": messages,
                }
            )

    evals_per_round = graph.m * (config.batch if config.stochastic else 1)
    report = SolveReport(
        objective=dual_value(),
        iterations=config.rounds,
        certificate=consensus_error(state.Q),
        params={
            "gamma": gamma,
            "step_L": step_L,
            "rounds": config.rounds,
            "stochastic": config.stochastic,
            "batch": config.batch,
        },
        seed=config.seed,
        trace=trace,
        trace_columns=TRACE_COLUMNS,
        extras={"messages": messages, "gradient_evals": evals_per_round * (config.rounds + 1),
                "log_domain_rounds": state.log_domain_rounds},
    )
    return [DiscreteMeasure(q) for q in state.Q], report
