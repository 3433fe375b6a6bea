"""Decentralized dual gradient method: graphs, locality, consensus, sampling."""

import numpy as np
import pytest
from scipy.special import logsumexp

from otkit.barycenter import (
    BarycenterProblem,
    fenchel_dual_gradient,
    fenchel_dual_values,
    ibp_solve,
)
from otkit.core import DiscreteMeasure, DomainError, ParameterError
from otkit.decentralized import (
    NetworkState,
    SimConfig,
    condition_number,
    consensus_error,
    decentralized_dual_step,
    default_step_constant,
    graph_laplacian,
    initial_state,
    sample_columns,
    simulate_decentralized_barycenter,
    softmax_column,
    stochastic_dual_gradient,
)
from otkit.kernel import conjugate_mixture, conjugate_pass
from conftest import random_measures

K4_EDGES = [(i, j) for i in range(4) for j in range(i + 1, 4)]
P4_EDGES = [(0, 1), (1, 2), (2, 3)]
RING16_EDGES = [(i, (i + 1) % 16) for i in range(16)]


def init_state(measures, C, gamma):
    return initial_state(np.stack([mu.weights for mu in measures]), C, gamma)


# --- per-node reference: one node at a time, neighbors read through fetch ---

def reference_gradient(u, p, C, gamma):
    Z = (u[None, :] - np.asarray(C, float)) / gamma  # row j: (u_i - C_ji) / gamma
    soft = np.exp(Z - logsumexp(Z, axis=1)[:, None])
    return soft.T @ p


def reference_estimate(u, p, C, gamma, config, rng):
    if config is None or not config.stochastic:
        return reference_gradient(u, p, C, gamma)
    draws = []
    for _ in range(config.batch):
        xi = int(rng.choice(p.size, p=p / p.sum()))
        draws.append(softmax_column(u, C, gamma, xi))
    return np.mean(draws, axis=0)


def reference_round(P, U, Q, graph, C, gamma, step_L, config=None, rng=None, accesses=None):
    """Node i mixes its own estimate with its neighbors', each read through
    fetch(i, j) from the previous round (logged into ``accesses``), then
    refreshes its estimate; nodes run in id order and estimates are
    renormalized measures."""

    def fetch(i, j):
        if accesses is not None:
            accesses.add((i, j))
        return Q[j]

    W = graph.laplacian
    U_new, Q_new = [], []
    for i in range(graph.m):
        mix = W[i, i] * Q[i]
        for j in range(graph.m):
            if j != i and W[i, j] != 0.0:
                mix = mix + W[i, j] * np.asarray(fetch(i, j), float)
        u = U[i] - mix / step_L
        U_new.append(u)
        Q_new.append(DiscreteMeasure(reference_estimate(u, P[i], C, gamma, config, rng)).weights)
    return np.array(U_new), np.array(Q_new)


class TestGraphLaplacian:
    def test_path_three(self):
        g = graph_laplacian(3, [(0, 1), (1, 2)])
        assert np.array_equal(g.laplacian, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_complete_three(self):
        g = graph_laplacian(3, [(0, 1), (0, 2), (1, 2)])
        assert np.array_equal(g.laplacian, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_star_four(self):
        g = graph_laplacian(4, [(0, 1), (0, 2), (0, 3)])
        assert np.array_equal(np.diag(g.laplacian), [3, 1, 1, 1])

    def test_rows_sum_to_zero(self):
        g = graph_laplacian(4, P4_EDGES)
        assert np.abs(g.laplacian.sum(axis=1)).max() == 0.0

    def test_disconnected_rejected(self):
        with pytest.raises(DomainError, match="connected"):
            graph_laplacian(4, [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(DomainError):
            graph_laplacian(3, [(0, 0), (0, 1), (1, 2)])

    def test_duplicate_edges_collapse(self):
        g = graph_laplacian(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1


class TestConditionNumber:
    def test_complete_graph_is_one(self):
        for m in (3, 4, 6):
            edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
            assert condition_number(graph_laplacian(m, edges)) == pytest.approx(1.0)

    def test_path_three_is_three(self):
        # eigenvalues of the P3 Laplacian are {0, 1, 3}
        assert condition_number(graph_laplacian(3, [(0, 1), (1, 2)])) == pytest.approx(3.0)

    def test_at_least_one(self):
        g = graph_laplacian(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        assert condition_number(g) >= 1.0


class TestDualStep:
    def test_identical_measures_do_not_move(self):
        C, measures = random_measures(80, 3, 5)
        same = [measures[0]] * 3
        gamma = 0.2 * C.inf_norm
        graph = graph_laplacian(3, [(0, 1), (1, 2)])
        state = init_state(same, C, gamma)
        out = decentralized_dual_step(state, graph, C, gamma, step_L=10.0)
        assert np.array_equal(state.U, out.U)

    def test_single_node_never_moves(self):
        C, measures = random_measures(81, 1, 4)
        gamma = 0.3
        graph = graph_laplacian(1, [])
        state = init_state(measures, C, gamma)
        expected_q = fenchel_dual_gradient(np.zeros(4), measures[0].weights, C, gamma)
        for _ in range(5):
            state = decentralized_dual_step(state, graph, C, gamma, step_L=1.0)
        assert np.abs(state.U).max() == 0.0
        assert np.allclose(state.Q[0], expected_q, atol=1e-14)

    def test_conservation_on_path(self):
        C, measures = random_measures(82, 2, 6)
        gamma = 0.2 * C.inf_norm
        graph = graph_laplacian(2, [(0, 1)])
        step_L = default_step_constant(graph, gamma)
        state = init_state(measures, C, gamma)
        for _ in range(200):
            state = decentralized_dual_step(state, graph, C, gamma, step_L)
            assert np.abs(state.U.sum(axis=0)).max() <= 1e-12

    def test_state_rows_must_match_graph(self):
        C, measures = random_measures(83, 2, 3)
        graph = graph_laplacian(3, [(0, 1), (1, 2)])
        state = init_state(measures, C, 0.3)
        with pytest.raises(DomainError):
            decentralized_dual_step(state, graph, C, 0.3, step_L=1.0)
        with pytest.raises(DomainError):
            NetworkState(P=state.P, U=state.U[:, :2], Q=state.Q)

    def test_locality_only_neighbors_fetched(self):
        C, measures = random_measures(84, 4, 4)
        gamma = 0.2 * C.inf_norm
        graph = graph_laplacian(4, P4_EDGES)
        state = init_state(measures, C, gamma)
        applied = []

        def mix(W, Q):
            applied.append((W, Q, W @ Q))
            return applied[-1][2]

        out = decentralized_dual_step(state, graph, C, gamma, step_L=5.0, mix=mix)
        assert len(applied) == 1  # the operator is the round's only cross-node read
        W, Q, WQ = applied[0]
        off_diagonal = {(i, j) for i in range(4) for j in range(4) if i != j and W[i, j] != 0}
        allowed = {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}
        assert off_diagonal == allowed  # every edge is used both ways, nothing else
        assert np.array_equal(W, graph.laplacian)
        assert np.array_equal(Q, state.Q)  # the previous round's estimates
        assert np.array_equal(out.U, state.U - WQ / 5.0)

    def test_consensus_at_fixpoint(self):
        C, measures = random_measures(85, 3, 5)
        gamma = 0.3 * C.inf_norm
        graph = graph_laplacian(3, [(0, 1), (0, 2), (1, 2)])
        step_L = default_step_constant(graph, gamma)
        state = init_state(measures, C, gamma)
        for _ in range(6000):
            prev = state
            state = decentralized_dual_step(state, graph, C, gamma, step_L)
        step_norm = float(np.abs(state.U - prev.U).max())
        if step_norm < 1e-12:
            assert consensus_error(state.Q) <= 1e-10

    def test_stochastic_round_needs_generator(self):
        # Reseeding inside each call would repeat the same draws every round.
        C, measures = random_measures(90, 3, 4)
        graph = graph_laplacian(3, [(0, 1), (1, 2)])
        config = SimConfig(gamma=0.3, rounds=4, stochastic=True, seed=5)
        P = np.stack([mu.weights for mu in measures])
        with pytest.raises(ParameterError, match="rng"):
            initial_state(P, C, 0.3, config)
        state = initial_state(P, C, 0.3)
        with pytest.raises(ParameterError, match="rng"):
            decentralized_dual_step(state, graph, C, 0.3, 10.0, config=config)


class TestMatchesPerNodeReference:
    """The array round against the per-node fetch loop, round by round."""

    ROUNDS = 50

    def run_against_reference(self, C, measures, gamma, graph, stochastic, batch, tol=1e-15):
        """The final state of ROUNDS array rounds, each checked against the
        per-node reference: U to 1e-15, Q to ``tol``."""
        step_L = default_step_constant(graph, gamma)
        config = SimConfig(gamma=gamma, rounds=self.ROUNDS, stochastic=stochastic,
                           seed=3, batch=batch)
        allowed = {(i, j) for i, j in graph.edges} | {(j, i) for i, j in graph.edges}
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        state = initial_state(np.stack([mu.weights for mu in measures]), C, gamma, config, rng)
        P = state.P
        U = np.zeros_like(P)
        Q = np.array([reference_estimate(U[i], P[i], C, gamma, config, ref_rng)
                      for i in range(graph.m)])
        assert np.abs(state.Q - Q).max() <= tol
        accesses = set()
        for _ in range(self.ROUNDS):
            state = decentralized_dual_step(state, graph, C, gamma, step_L,
                                            config=config, rng=rng)
            U, Q = reference_round(P, U, Q, graph, C, gamma, step_L, config, ref_rng, accesses)
            assert np.abs(state.U - U).max() <= 1e-15
            assert np.abs(state.Q - Q).max() <= tol
        assert accesses == allowed
        assert state.round_index == self.ROUNDS
        return state

    @pytest.mark.parametrize("m, edges, n", [(4, K4_EDGES, 8), (4, P4_EDGES, 8),
                                             (16, RING16_EDGES, 10)])
    @pytest.mark.parametrize("stochastic, batch", [(False, 1), (True, 1), (True, 16)])
    def test_first_rounds(self, m, edges, n, stochastic, batch):
        C, measures = random_measures(94, m, n)
        state = self.run_against_reference(C, measures, 0.1 * C.inf_norm,
                                           graph_laplacian(m, edges), stochastic, batch)
        if m == 16:
            assert state.log_domain_rounds == 0  # the ring runs in the scaling form

    @pytest.mark.parametrize("stochastic, batch", [(False, 1), (True, 4)])
    def test_log_domain_every_round(self, stochastic, batch):
        # Every entry of exp(-C / gamma) is below e^-100, so every softmax
        # normalizer S is below 1 / SCALING_BOUND and each estimate,
        # the start included, takes the log-domain pass.  Its exponents
        # (u - C) / gamma reach -200, where an exponent rounds by up to
        # 2.8e-14: the full gradient of the log-domain pass reads up to
        # 2.2e-15 from the scipy reference here.  Stochastic estimates
        # mix the same softmax columns on both sides.
        rng = np.random.default_rng(95)
        C = rng.uniform(1.0, 2.0, (8, 8))
        measures = [DiscreteMeasure(rng.uniform(0.5, 1.5, 8)) for _ in range(4)]
        tol = 1e-15 if stochastic else 1e-14
        state = self.run_against_reference(C, measures, 0.01, graph_laplacian(4, P4_EDGES),
                                           stochastic, batch, tol)
        assert state.log_domain_rounds == self.ROUNDS + 1


class TestStochasticGradient:
    def test_enumeration_reproduces_full_gradient(self):
        C, measures = random_measures(86, 1, 6)
        p = measures[0].weights
        rng = np.random.default_rng(0)
        u = rng.normal(size=6)
        gamma = 0.4
        mix = sum(p[xi] * softmax_column(u, C, gamma, xi) for xi in range(6))
        assert np.abs(mix - fenchel_dual_gradient(u, p, C, gamma)).max() <= 1e-12

    def test_asymmetric_cost_stays_unbiased(self):
        # the full gradient mixes rows C[xi]; so must every draw
        rng = np.random.default_rng(0)
        C = rng.uniform(0.0, 1.0, (5, 5))
        p = rng.dirichlet(np.ones(5))
        u = rng.normal(size=5)
        mix = sum(p[xi] * softmax_column(u, C, 0.5, xi) for xi in range(5))
        assert np.abs(mix - fenchel_dual_gradient(u, p, C, 0.5)).max() <= 1e-12
        xi = sample_columns(p[None], 1, np.random.default_rng(7))[0, 0]
        g = stochastic_dual_gradient(u, p, C, 0.5, np.random.default_rng(7))
        assert np.array_equal(g, softmax_column(u, C, 0.5, xi))

    def test_draw_is_a_softmax_column(self):
        C, measures = random_measures(87, 1, 5)
        p = measures[0].weights
        rng = np.random.default_rng(11)
        u = rng.normal(size=5)
        draw_rng = np.random.default_rng(42)
        g = stochastic_dual_gradient(u, p, C, 0.5, draw_rng)
        # the draw must equal one of the candidate columns exactly
        columns = [softmax_column(u, C, 0.5, xi) for xi in range(5)]
        assert any(np.array_equal(g, col) for col in columns)
        assert g.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_cost_zero_variance(self):
        p = np.array([0.2, 0.5, 0.3])
        u = np.array([0.3, -0.1, 0.4])
        rng = np.random.default_rng(1)
        draws = [
            stochastic_dual_gradient(u, p, np.zeros((3, 3)), 0.5, rng) for _ in range(10)
        ]
        for d in draws[1:]:
            assert np.array_equal(d, draws[0])

    def test_rejects_zero_probability(self):
        with pytest.raises(DomainError):
            stochastic_dual_gradient(
                np.zeros(2), np.array([1.0, 0.0]), np.zeros((2, 2)), 0.5,
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("seed, m, n, batch", [(0, 4, 8, 1), (1, 16, 50, 16),
                                                   (2, 3, 2, 7), (3, 5, 1, 3)])
    def test_batched_draws_match_choice(self, seed, m, n, batch):
        P = np.random.default_rng(100 + seed).uniform(0.05, 1.5, (m, n))
        self.assert_draws_match_choice(P / P.sum(axis=1, keepdims=True), seed, batch)

    def test_batched_draws_match_choice_at_ties(self):
        # Weights from 1e-18 to 1: past the large ones the small ones no
        # longer change the cumulative sum, so the cdf has equal neighbours.
        rng = np.random.default_rng(104)
        P = np.stack([rng.permutation(np.logspace(-18, 0, 40)) for _ in range(6)])
        cdf = np.cumsum(P / P.sum(axis=1, keepdims=True), axis=1)
        assert (np.diff(cdf, axis=1) == 0).any()
        self.assert_draws_match_choice(P, 4, 64)

    @staticmethod
    def assert_draws_match_choice(P, seed, batch):
        m, n = P.shape
        rng, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # the streams stay in step across calls
            expected = [[rng.choice(n, p=P[i] / P[i].sum()) for _ in range(batch)]
                        for i in range(m)]
            assert np.array_equal(sample_columns(P, batch, batched), expected)


class TestArrayReductions:
    @pytest.mark.parametrize("seed, m, n", [(0, 1, 5), (1, 4, 8), (2, 16, 50), (3, 7, 3)])
    def test_consensus_error_is_largest_pairwise_l1(self, seed, m, n):
        Q = np.random.default_rng(seed).dirichlet(np.ones(n), size=m)
        worst = 0.0
        for a in range(m):
            for b in range(a + 1, m):
                worst = max(worst, float(np.abs(Q[a] - Q[b]).sum()))
        assert abs(consensus_error(Q) - worst) <= 1e-15

    @pytest.mark.parametrize("seed, m, n", [(0, 1, 5), (1, 4, 8), (2, 16, 50), (3, 7, 3)])
    def test_dual_value_is_per_node_mean(self, seed, m, n):
        rng = np.random.default_rng(seed)
        C, _ = random_measures(200 + seed, 1, n)
        gamma = 0.1 * C.inf_norm
        U = rng.normal(0.0, 0.05, (m, n))
        P = rng.dirichlet(np.ones(n), size=m)
        Cm = np.asarray(C.entries)
        per_node = [
            gamma * (p @ logsumexp((u[None, :] - Cm) / gamma, axis=1)) - gamma * (p @ np.log(p))
            for u, p in zip(U, P)
        ]
        values = fenchel_dual_values(U, P, C, gamma)
        assert np.abs(values - per_node).max() <= 1e-15
        assert abs(float(np.mean(values)) - float(np.mean(per_node))) <= 1e-15


class TestConjugateMixture:
    @pytest.mark.parametrize("seed, scale", [(0, 0.1), (1, 0.03), (2, 0.3)])
    def test_scaling_form_matches_log_domain_pass(self, seed, scale):
        C, measures = random_measures(210 + seed, 5, 12)
        gamma = scale * C.inf_norm
        U = np.random.default_rng(seed).normal(0.0, 0.1 * C.inf_norm, (5, 12))
        P = np.stack([mu.weights for mu in measures])
        Q, smooth_max, log_domain = conjugate_mixture(U, P, C.entries, gamma)
        soft, lse_rows = conjugate_pass(U, C.entries, gamma)
        assert not log_domain
        assert np.abs(Q - np.einsum("kj,kji->ki", P, soft)).max() <= 1e-15
        assert np.abs(smooth_max - gamma * lse_rows).max() <= 1e-15 * np.abs(smooth_max).max()

    def test_negative_costs_shift_the_kernel(self):
        # exp(8 / 0.01) overflows; shifted by the least cost, K stays <= 1
        # and the scaling form still matches the log-domain pass.
        C, measures = random_measures(220, 3, 6)
        C = C.entries - 8.0
        U = np.random.default_rng(0).normal(0.0, 0.01, (3, 6))
        P = np.stack([mu.weights for mu in measures])
        Q, smooth_max, log_domain = conjugate_mixture(U, P, C, 0.01)
        soft, lse_rows = conjugate_pass(U, C, 0.01)
        assert not log_domain
        assert np.abs(Q - np.einsum("kj,kji->ki", P, soft)).max() <= 1e-15
        assert np.abs(smooth_max - 0.01 * lse_rows).max() <= 1e-15 * np.abs(smooth_max).max()

    def test_underflowed_normalizers_take_the_log_domain(self):
        C = np.random.default_rng(1).uniform(1.0, 2.0, (6, 6))
        P = np.random.default_rng(2).dirichlet(np.ones(6), size=2)
        U = np.zeros((2, 6))
        Q, smooth_max, log_domain = conjugate_mixture(U, P, C, 0.01)
        soft, lse_rows = conjugate_pass(U, C, 0.01)
        assert log_domain
        assert np.array_equal(Q, np.matmul(P[:, None, :], soft)[:, 0, :])
        assert np.array_equal(smooth_max, 0.01 * lse_rows)

    def test_sparse_weights_take_only_their_terms_in_the_log_domain(self, monkeypatch):
        # Draw counts weigh at most 3 of the 6 cost rows per node, so the
        # log-domain pass runs over (2, 3, 6) rows, not (2, 6, 6).
        import otkit.kernel

        C = np.random.default_rng(1).uniform(1.0, 2.0, (6, 6))
        W = np.array([[0.5, 0.0, 0.25, 0.0, 0.0, 0.25], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]])
        U = np.zeros((2, 6))
        shapes = []
        counted = otkit.kernel.conjugate_pass

        def recording(U, rows, gamma):
            shapes.append(np.shape(rows))
            return counted(U, rows, gamma)

        monkeypatch.setattr(otkit.kernel, "conjugate_pass", recording)
        Q, smooth_max, log_domain = conjugate_mixture(U, W, C, 0.01)
        soft, lse_rows = counted(U, C, 0.01)
        assert log_domain
        assert shapes == [(2, 3, 6)]
        assert np.abs(Q - np.einsum("kj,kji->ki", W, soft)).max() <= 1e-15
        assert np.array_equal(smooth_max[W != 0], 0.01 * lse_rows[W != 0])


class TestSimulation:
    def test_identical_measures_consensus_zero(self):
        C, measures = random_measures(88, 4, 5)
        same = [measures[0]] * 4
        gamma = 0.2 * C.inf_norm
        graph = graph_laplacian(4, K4_EDGES)
        config = SimConfig(gamma=gamma, rounds=20)
        trace: list[dict] = []
        q_locals, report = simulate_decentralized_barycenter(
            same, C, graph, config, trace=trace
        )
        expected = fenchel_dual_gradient(np.zeros(5), measures[0].weights, C, gamma)
        for q in q_locals:
            assert np.allclose(q.weights, expected, atol=1e-13)
        for row in trace:
            assert row["consensus_error"] <= 1e-13

    def test_message_accounting(self):
        C, measures = random_measures(89, 4, 4)
        graph = graph_laplacian(4, P4_EDGES)
        config = SimConfig(gamma=0.3, rounds=7)
        _, report = simulate_decentralized_barycenter(measures, C, graph, config)
        assert report.extras["messages"] == 7 * 3

    def test_gradient_evals_accounting(self):
        C, measures = random_measures(89, 4, 4)
        graph = graph_laplacian(4, P4_EDGES)
        full = SimConfig(gamma=0.3, rounds=7)
        _, report = simulate_decentralized_barycenter(measures, C, graph, full)
        assert report.extras["gradient_evals"] == 4 * (7 + 1)
        sampled = SimConfig(gamma=0.3, rounds=7, stochastic=True, batch=5)
        _, report = simulate_decentralized_barycenter(measures, C, graph, sampled)
        assert report.extras["gradient_evals"] == 4 * 5 * (7 + 1)

    @pytest.mark.parametrize("stochastic, failing_round", [(False, 2), (True, 3)])
    def test_divergence_raises_in_its_round(self, stochastic, failing_round):
        C, measures = random_measures(89, 4, 4)
        graph = graph_laplacian(4, P4_EDGES)
        config = SimConfig(gamma=0.3, rounds=50, step_L=1e-308, stochastic=stochastic)
        trace: list[dict] = []
        with np.errstate(all="ignore"), pytest.raises(DomainError, match=f"round {failing_round};"):
            simulate_decentralized_barycenter(measures, C, graph, config, trace=trace)
        assert len(trace) == failing_round - 1
        for row in trace:
            assert np.isfinite(row["consensus_error"]) and np.isfinite(row["dual_value"])

    def test_traced_full_run_one_conjugate_pass_per_round(self, monkeypatch):
        import otkit.decentralized

        C, measures = random_measures(93, 16, 12)
        gamma = 0.1 * C.inf_norm
        graph = graph_laplacian(16, RING16_EDGES)
        rounds = 9
        passes = []
        counted = otkit.decentralized.conjugate_mixture

        def counting(*args):
            passes.append(1)
            return counted(*args)

        monkeypatch.setattr(otkit.decentralized, "conjugate_mixture", counting)
        trace: list[dict] = []
        simulate_decentralized_barycenter(measures, C, graph, SimConfig(gamma=gamma, rounds=rounds),
                                          trace=trace)
        assert len(passes) == rounds + 1
        # the same run, with each round's dual value taken by a pass of its own
        state = init_state(measures, C, gamma)
        step_L = default_step_constant(graph, gamma)
        for row in trace:
            state = decentralized_dual_step(state, graph, C.entries, gamma, step_L)
            assert row["consensus_error"] == consensus_error(state.Q)
            assert row["dual_value"] == float(np.mean(
                fenchel_dual_values(state.U, state.P, C.entries, gamma)))
        _, report = simulate_decentralized_barycenter(measures, C, graph,
                                                      SimConfig(gamma=gamma, rounds=rounds))
        assert report.objective == trace[-1]["dual_value"]

    def test_deterministic_given_seed(self):
        C, measures = random_measures(90, 3, 4)
        graph = graph_laplacian(3, [(0, 1), (1, 2)])
        config = SimConfig(gamma=0.3, rounds=25, stochastic=True, seed=5, batch=2)
        q1, r1 = simulate_decentralized_barycenter(measures, C, graph, config)
        q2, r2 = simulate_decentralized_barycenter(measures, C, graph, config)
        for a, b in zip(q1, q2):
            assert np.array_equal(a.weights, b.weights)
        assert r1.objective == r2.objective
        assert r1.extras == r2.extras
        assert r1.extras["gradient_evals"] == 3 * 2 * 26

    def test_matches_centralized_ibp(self):
        C, measures = random_measures(91, 4, 6)
        gamma = 0.15 * C.inf_norm
        graph = graph_laplacian(4, K4_EDGES)
        config = SimConfig(gamma=gamma, rounds=6000)
        q_locals, report = simulate_decentralized_barycenter(measures, C, graph, config)
        problem = BarycenterProblem(tuple(measures), C, gamma)
        sol = ibp_solve(problem, eps_prime=1e-5)
        for q in q_locals:
            assert np.abs(q.weights - sol.q_bar).sum() <= 1e-3
        assert report.certificate <= 1e-3  # final consensus error

    def test_batching_approaches_full_gradient_trajectory(self):
        C, measures = random_measures(92, 3, 5)
        gamma = 0.25 * C.inf_norm
        graph = graph_laplacian(3, [(0, 1), (1, 2)])
        rounds = 50

        def final_u(stochastic, batch):
            config = SimConfig(
                gamma=gamma, rounds=rounds, stochastic=stochastic, seed=7, batch=batch
            )
            state = init_state(measures, C, gamma)
            step_L = default_step_constant(graph, gamma)
            rng = np.random.default_rng(config.seed)
            for _ in range(rounds):
                state = decentralized_dual_step(
                    state, graph, C, gamma, step_L, config=config, rng=rng
                )
            return state.U.ravel()

        reference = final_u(False, 1)
        distances = [
            np.abs(final_u(True, batch) - reference).sum() for batch in (1, 16, 256)
        ]
        assert distances[0] > distances[1] > distances[2]


def test_asymmetric_cost_matches_ibp():
    # C[i, j] runs from point i of each node's measure to point j of the
    # barycenter, in the simulator as in IBP: C and its transpose give
    # different barycenters, and only C matches.
    rng = np.random.default_rng(3)
    C = rng.uniform(0.0, 1.0, (6, 6))
    np.fill_diagonal(C, 0.0)
    measures = [DiscreteMeasure(rng.uniform(0.5, 1.5, 6)) for _ in range(3)]
    gamma = 0.1 * C.max()
    q_ref = ibp_solve(BarycenterProblem(tuple(measures), C, gamma), 1e-9).q_bar
    graph = graph_laplacian(3, [(0, 1), (1, 2), (0, 2)])
    config = SimConfig(gamma=gamma, rounds=3000)
    dist = {}
    for name, cost in (("C", C), ("C.T", C.T)):
        q_locals, _ = simulate_decentralized_barycenter(measures, cost, graph, config)
        dist[name] = max(float(np.abs(q.weights - q_ref).sum()) for q in q_locals)
    assert dist["C"] <= 1e-6
    assert dist["C.T"] >= 0.1
