"""Tests of the benchmark itself: every output check rejects a wrong
answer, the references agree with otkit's exact oracle, the layer trace
survives a missing function, and BENCHMARK.json names what the code
reports.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def instance():
    rng = np.random.default_rng(7)
    C = workloads.random_cost(rng, 6)
    p, q = workloads.random_measure(rng, 6), workloads.random_measure(rng, 6)
    return C, p, q


def test_plan_check_rejects_perturbed_marginal(instance):
    C, p, q = instance
    plan = np.outer(p, q)
    assert checks.plan_marginals("ok", plan, p, q) == []
    moved = plan.copy()
    moved[0, 0] += 1e-7
    moved[1, 0] -= 1e-7  # column sums kept, two row sums off by 1e-7
    assert checks.plan_marginals("moved", moved, p, q)
    negative = plan.copy()
    negative[0, 0], negative[0, 1] = -1e-3, negative[0, 1] + negative[0, 0] + 1e-3
    assert checks.plan_marginals("negative", negative, p, q)


def test_objective_check_rejects_values_outside_the_window():
    assert checks.within_eps("inside", 1.05, 1.0, 0.1) == []
    assert checks.within_eps("above", 1.1 + 1e-6, 1.0, 0.1)
    assert checks.within_eps("below", 1.0 - 1e-6, 1.0, 0.1)
    assert checks.within_eps("nan", float("nan"), 1.0, 0.1)


def test_descent_message_and_simplex_checks():
    assert checks.dual_descent("down", 0.5, 0.7) == []
    assert checks.dual_descent("up", 0.7 + 1e-6, 0.7)
    assert checks.message_count("right", 200 * 16, 200, 16) == []
    assert checks.message_count("wrong", 200 * 16 - 1, 200, 16)
    w = np.full(5, 0.2)
    assert checks.on_simplex("ok", w) == []
    assert checks.on_simplex("heavy", w * (1 + 1e-6))
    assert checks.same_value("same", 1.0 + 1e-12, 1.0) == []
    assert checks.same_value("off", 1.0 + 1e-6, 1.0)


def test_ring_check_rejects_rising_dual_and_wrong_message_count():
    w = workloads.WORKLOADS["barycenter-network"]
    inputs = {"ring.C": np.zeros((2, 2))}
    Q = np.full((16, 50), 1 / 50)
    outputs = {}
    for label, rounds in (("ring-full", 200), ("ring-stochastic", 80)):
        outputs.update({f"{label}.Q": Q, f"{label}.messages": rounds * 16,
                        f"{label}.rounds": rounds, f"{label}.edges": 16,
                        f"{label}.objective": 0.5})
    refs = {"ring_zero_dual": 0.7}
    skip = {"ibp", "aibp"}
    assert w.check(inputs, outputs, refs, None, skip) == []
    assert w.check(inputs, {**outputs, "ring-full.objective": 0.8}, refs, None, skip)
    assert w.check(inputs, {**outputs, "ring-stochastic.messages": 80 * 16 + 1}, refs, None, skip)


def test_ot_check_rejects_objective_above_opt_plus_eps(instance):
    C, p, q = instance
    opt = reference.ot_lp(C, p, q)
    product = np.outer(p, q)
    cost = float((C * product).sum())
    assert cost > opt + 1e-3
    assert workloads._ot_checks("product", C, p, q, cost - opt + 1e-6, product, cost, opt) == []
    assert workloads._ot_checks("product", C, p, q, 0.5 * (cost - opt), product, cost, opt)
    # A reported objective that is not the plan's cost is caught too.
    assert workloads._ot_checks("product", C, p, q, 1.0, product, opt, opt)


def test_references_agree_with_the_exact_oracle(instance):
    otkit = pytest.importorskip("otkit")
    C, p, q = instance
    assert reference.ot_lp(C, p, q) == pytest.approx(otkit.exact_ot_lp(C, p, q).objective, abs=1e-9)
    rng = np.random.default_rng(3)
    P = np.stack([workloads.random_measure(rng, 4) for _ in range(3)])
    Cb = workloads.random_cost(rng, 4)
    _, opt = otkit.exact_barycenter_lp(list(P), Cb)
    assert reference.barycenter_lp(P, Cb) == pytest.approx(opt, abs=1e-9)
    gamma = 0.3
    zero = np.mean([otkit.fenchel_dual_ot(np.zeros(4), p_l, Cb, gamma) for p_l in P])
    assert reference.zero_start_dual(P, Cb, gamma) == pytest.approx(zero, rel=1e-12)


def test_inputs_relabel_the_base_instance():
    w = workloads.WORKLOADS["ot-accelerated"]
    a, b, a2 = w.inputs(1), w.inputs(2), w.inputs(1)
    assert all(np.array_equal(a[k], a2[k]) for k in a)
    assert not np.array_equal(a["random.C"], b["random.C"])
    assert reference.ot_lp(a["random.C"], a["random.p"], a["random.q"]) == pytest.approx(
        reference.ot_lp(b["random.C"], b["random.p"], b["random.q"]), rel=1e-9)


def test_trace_counts_calls_and_reports_missing_targets(monkeypatch):
    otkit = pytest.importorskip("otkit")
    monkeypatch.setitem(layers.TARGETS, "aam.gone", ("otkit.aam", "no_such_function"))
    monkeypatch.setitem(layers.METRICS, "aam.gone_s", ("s", "lower", ["aam.gone"], lambda v: 1.0))
    original = otkit.round_to_polytope
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert otkit.rounding.round_to_polytope is not original
        assert otkit.sinkhorn.round_to_polytope is otkit.rounding.round_to_polytope
        rng = np.random.default_rng(0)
        C = workloads.random_cost(rng, 8)
        p, q = workloads.random_measure(rng, 8), workloads.random_measure(rng, 8)
        otkit.approx_ot_sinkhorn(C, p, q, 0.1)
    finally:
        tracer.uninstall()
    assert otkit.round_to_polytope is original
    assert tracer.missing == ["aam.gone"]
    values, missing = layers.layer_metrics(tracer, jobs=1, job_wall_s=1.0)
    assert missing == ["aam.gone_s"]
    assert values["rounding.calls"] == (1.0, "count")
    assert values["sinkhorn.halfsteps"][0] > 0
    assert values["sinkhorn.checks"][0] == values["sinkhorn.halfsteps"][0] / 10


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == {name: (unit, better) for name, (unit, better, _, _) in layers.METRICS.items()}
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "job_s", "jobs_per_s", "peak_rss_mb"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
