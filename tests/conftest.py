"""Shared seeded instance generators for the test suite."""

import numpy as np

from otkit.core import CostMatrix, DiscreteMeasure


def random_instance(seed, n):
    """Symmetric zero-diagonal cost with strictly positive marginals."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(0.0, 1.0, (n, n))
    C = 0.5 * (U + U.T)
    np.fill_diagonal(C, 0.0)
    p = rng.uniform(0.5, 1.5, n)
    p /= p.sum()
    q = rng.uniform(0.5, 1.5, n)
    q /= q.sum()
    return CostMatrix(C), p, q


def random_measures(seed, m, n):
    rng = np.random.default_rng(seed)
    U = rng.uniform(0.0, 1.0, (n, n))
    C = 0.5 * (U + U.T)
    np.fill_diagonal(C, 0.0)
    measures = []
    for _ in range(m):
        w = rng.uniform(0.5, 1.5, n)
        measures.append(DiscreteMeasure(w / w.sum()))
    return CostMatrix(C), measures


def grid_cost(side):
    """Squared Euclidean cost between the pixels of a side x side grid on
    the unit square."""
    ys, xs = np.mgrid[0:side, 0:side] / (side - 1)
    pts = np.stack([ys.ravel(), xs.ravel()], axis=1)
    return CostMatrix(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
