"""Independent references, computed without otkit.

Transport and joint-barycenter optima come from scipy's HiGHS LP solver
on sparse constraint matrices; the decentralized dual value at the zero
start is evaluated in closed form.  Run as a script, this is the
benchmark's reference process, so the LP solves count neither in the
measured process's set-up time nor in its memory:

    python3 bench/reference.py <run directory> <workload>
    python3 bench/reference.py recompute <workload>

References that depend on the inputs alone are invariant under the
seed's relabeling.  They are computed on the base instances and stored
in ``.bench_out/refs-<workload>-<digest>.json``, where the digest is a
hash of the base instances, so a change to the generator or to numpy's
random streams can never reuse stale optima.  ``recompute`` solves them
again and overwrites the stored file.  References that depend on the
program's outputs are computed in every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import logsumexp


def _marginal_operators(n: int):
    """Sparse (n, n^2) row-sum and column-sum operators on a flattened plan."""
    ones = np.ones((1, n))
    return sparse.kron(sparse.eye(n), ones), sparse.kron(ones, sparse.eye(n))


def _solve(c, A, b) -> float:
    res = linprog(c, A_eq=A.tocsr(), b_eq=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference LP failed: {res.message}")
    return float(res.fun)


def ot_lp(C, p, q) -> float:
    """min <C, pi> over plans with row sums p and column sums q."""
    C = np.asarray(C, float)
    rows, cols = _marginal_operators(C.shape[0])
    return _solve(C.ravel(), sparse.vstack([rows, cols]), np.concatenate([p, q]))


def barycenter_lp(measures, C) -> float:
    """min (1/m) sum_l <C, pi_l> over plans pi_l with row sums p_l and a
    common column marginal q (the joint fixed-support barycenter LP)."""
    P = np.asarray(measures, float)
    m, n = P.shape
    rows, cols = _marginal_operators(n)
    eye_m = sparse.eye(m)
    A = sparse.vstack([
        sparse.hstack([sparse.kron(eye_m, rows), sparse.csr_matrix((m * n, n))]),
        sparse.hstack([sparse.kron(eye_m, cols), -sparse.kron(np.ones((m, 1)), sparse.eye(n))]),
    ])
    b = np.concatenate([P.ravel(), np.zeros(m * n)])
    c = np.concatenate([np.tile(np.asarray(C, float).ravel() / m, m), np.zeros(n)])
    return _solve(c, A, b)


def zero_start_dual(measures, C, gamma: float) -> float:
    """Decentralized dual value (1/m) sum_i h_i(0), where
    h_i(u) = gamma sum_j p_ij ln sum_k exp((u_k - C_jk) / gamma) - gamma <p_i, ln p_i>."""
    P = np.asarray(measures, float)
    lse = logsumexp(-np.asarray(C, float) / gamma, axis=1)
    return float(np.mean([gamma * (p @ lse) - gamma * (p @ np.log(p)) for p in P]))


def stored_references(workload, recompute: bool = False) -> dict:
    """References of ``workload``'s base instances, solved once and stored."""
    import workloads

    base = workload.instances(np.random.default_rng(workloads.BASE_SEED))
    digest = hashlib.sha256()
    for key in sorted(base):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(base[key]).tobytes())
    path = Path(__file__).resolve().parent.parent / ".bench_out" / (
        f"refs-{workload.name}-{digest.hexdigest()[:16]}.json")
    if path.exists() and not recompute:
        return json.loads(path.read_text())
    refs = workload.reference(base)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(refs))
    os.replace(tmp, path)
    return refs


def main(argv: list[str]) -> int:
    import workloads

    if argv[0] == "recompute":
        print(json.dumps(stored_references(workloads.WORKLOADS[argv[1]], recompute=True)))
        return 0
    workdir, workload = Path(argv[0]), workloads.WORKLOADS[argv[1]]
    with np.load(workdir / "inputs.npz") as f:
        inputs = dict(f)
    outputs = {}
    if (workdir / "outputs.npz").exists():
        with np.load(workdir / "outputs.npz") as f:
            outputs = dict(f)
    refs = {**stored_references(workload), **workload.output_reference(inputs, outputs)}
    (workdir / "refs.json").write_text(json.dumps(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
