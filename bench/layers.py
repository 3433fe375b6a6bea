"""Outside-in layer trace: wrap otkit's public functions and derive the
per-layer metrics from the wrapped calls.

The wrappers are installed by the benchmark, not by otkit.  Each wrapped
function is replaced in every module namespace that binds it (for
example ``round_to_polytope`` in ``rounding``, ``sinkhorn``, ``aam``,
``barycenter`` and the package itself), so calls made through a
``from .x import f`` binding are caught too.  A span records its calls,
its total time and its self time (total minus the time of traced calls
made inside it).  A target that no longer exists is reported as missing,
and every metric that needs it is left out instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

# span name -> (module, attribute).  The span name is the layer and the
# function; the metrics below refer to spans by these names.
TARGETS = {
    "cli.main": ("otkit.cli", "main"),
    "io.load_cost": ("otkit.io", "load_cost"),
    "io.load_measure": ("otkit.io", "load_measure"),
    "io.save_matrix": ("otkit.io", "save_matrix"),
    "io.write_report_json": ("otkit.io", "write_report_json"),
    "sinkhorn.approx_ot_sinkhorn": ("otkit.sinkhorn", "approx_ot_sinkhorn"),
    "sinkhorn.sinkhorn_solve": ("otkit.sinkhorn", "sinkhorn_solve"),
    "core.marginal_violation": ("otkit.core", "marginal_violation"),
    "rounding.round_to_polytope": ("otkit.rounding", "round_to_polytope"),
    "aam.accelerated_ot": ("otkit.aam", "accelerated_ot"),
    "aam.aam_iterate": ("otkit.aam", "aam_iterate"),
    "aam.dual_objective_lip": ("otkit.aam", "dual_objective_lip"),
    "aam.dual_partial_gradients": ("otkit.aam", "dual_partial_gradients"),
    "barycenter.barycenter_ibp": ("otkit.barycenter", "barycenter_ibp"),
    "barycenter.ibp_step": ("otkit.barycenter", "ibp_step"),
    "barycenter.accelerated_ibp": ("otkit.barycenter", "accelerated_ibp"),
    "barycenter.wb_dual_objective": ("otkit.barycenter", "wb_dual_objective"),
    "barycenter.wb_dual_gradients": ("otkit.barycenter", "wb_dual_gradients"),
    "barycenter.fenchel_dual_gradient": ("otkit.barycenter", "fenchel_dual_gradient"),
    "decentralized.decentralized_dual_step": ("otkit.decentralized", "decentralized_dual_step"),
    "decentralized.stochastic_dual_gradient": ("otkit.decentralized", "stochastic_dual_gradient"),
    "decentralized.consensus_error": ("otkit.decentralized", "consensus_error"),
    "oracle.exact_ot_lp": ("otkit.oracle", "exact_ot_lp"),
    "oracle.exact_barycenter_lp": ("otkit.oracle", "exact_barycenter_lp"),
}


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Span table and work counters filled by the installed wrappers."""

    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(tracer, args, kwargs, result)``
        may read work counts off the call's arguments and result.  ``name``
        may also be a function of (args, kwargs) that picks the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                span = self.span(name(args, kwargs) if callable(name) else name)
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children[0]
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, in every otkit module that binds it."""
        originals = {}
        for name, (module_name, attr) in TARGETS.items():
            try:
                originals[name] = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "otkit" or key.startswith("otkit."))
        ]
        for name, original in originals.items():
            traced = self.wrap(_SPAN_NAMES.get(name, name), original, _AFTER.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()


# --- counters read off arguments and results --------------------------------

def _sinkhorn_work(tracer, args, kwargs, result):
    state, plan = result
    tracer.count("sinkhorn.halfsteps", state.iteration)
    tracer.count("sinkhorn.entries", state.iteration * plan.entries.size)


def _aibp_work(tracer, args, kwargs, result):
    tracer.count("barycenter.aibp_iterations", result[2].iterations)


def _io_bytes(tracer, args, kwargs, result):
    tracer.count("io.bytes", os.path.getsize(args[0]))


def _round_mode(args, kwargs):
    config = kwargs.get("config", args[5] if len(args) > 5 else None)
    stochastic = config is not None and config.stochastic
    return "decentralized.stochastic_round" if stochastic else "decentralized.full_round"


_AFTER = {
    "sinkhorn.sinkhorn_solve": _sinkhorn_work,
    "barycenter.accelerated_ibp": _aibp_work,
    "io.load_cost": _io_bytes,
    "io.load_measure": _io_bytes,
    "io.save_matrix": _io_bytes,
    "io.write_report_json": _io_bytes,
}
_SPAN_NAMES = {"decentralized.decentralized_dual_step": _round_mode}


# --- per-layer metrics -------------------------------------------------------

@dataclass
class _Totals:
    """Read-only view of a tracer for the metric formulas below."""

    tracer: Tracer
    jobs: int
    wall: float

    def calls(self, name):
        span = self.tracer.spans.get(name)
        return span.calls if span else 0

    def total(self, name):
        span = self.tracer.spans.get(name)
        return span.total_s if span else 0.0

    def self_time(self, name):
        span = self.tracer.spans.get(name)
        return span.self_s if span else 0.0

    def counter(self, name):
        return self.tracer.counters.get(name, 0)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _io_time(v):
    return (v.total("io.load_cost") + v.total("io.load_measure")
            + v.total("io.save_matrix") + v.total("io.write_report_json"))


def _aam_evals(v):
    return v.calls("aam.dual_objective_lip") + v.calls("aam.dual_partial_gradients")


_IO = ["io.load_cost", "io.load_measure", "io.save_matrix", "io.write_report_json"]
_AAM_EVALS = ["aam.dual_objective_lip", "aam.dual_partial_gradients"]
_ROUND = ["decentralized.decentralized_dual_step"]
_ORACLE = ["oracle.exact_ot_lp", "oracle.exact_barycenter_lp"]

# name -> (unit, better, targets it needs, formula over a _Totals view).
# Figures without "per call" in README.md are per traced job.
METRICS = {
    "cli.self_s": ("s", "lower", ["cli.main", "sinkhorn.approx_ot_sinkhorn", *_IO],
                   lambda v: v.self_time("cli.main") / v.jobs),
    "io.load_s": ("s", "lower", _IO[:2],
                  lambda v: (v.total("io.load_cost") + v.total("io.load_measure")) / v.jobs),
    "io.save_s": ("s", "lower", _IO[2:],
                  lambda v: (v.total("io.save_matrix") + v.total("io.write_report_json")) / v.jobs),
    "io.mb_per_s": ("MB/s", "higher", _IO,
                    lambda v: _ratio(v.counter("io.bytes") / 1e6, _io_time(v))),
    "sinkhorn.solve_s": ("s", "lower", ["sinkhorn.sinkhorn_solve"],
                         lambda v: v.total("sinkhorn.sinkhorn_solve") / v.jobs),
    "sinkhorn.halfsteps": ("count", "lower", ["sinkhorn.sinkhorn_solve"],
                           lambda v: v.counter("sinkhorn.halfsteps") / v.jobs),
    "sinkhorn.ns_per_entry": ("ns", "lower", ["sinkhorn.sinkhorn_solve"],
                              lambda v: _ratio(v.total("sinkhorn.sinkhorn_solve"),
                                               v.counter("sinkhorn.entries"), 1e9)),
    "sinkhorn.checks": ("count", "lower", ["core.marginal_violation"],
                        lambda v: v.calls("core.marginal_violation") / v.jobs),
    "rounding.calls": ("count", "lower", ["rounding.round_to_polytope"],
                       lambda v: v.calls("rounding.round_to_polytope") / v.jobs),
    "rounding.s": ("s", "lower", ["rounding.round_to_polytope"],
                   lambda v: v.total("rounding.round_to_polytope") / v.jobs),
    "aam.iterations": ("count", "lower", ["aam.aam_iterate"],
                       lambda v: v.calls("aam.aam_iterate") / v.jobs),
    "aam.iterate_s": ("s", "lower", ["aam.aam_iterate"],
                      lambda v: v.total("aam.aam_iterate") / v.jobs),
    "aam.dual_evals": ("count", "lower", _AAM_EVALS[:1],
                       lambda v: v.calls("aam.dual_objective_lip") / v.jobs),
    "aam.grad_evals": ("count", "lower", _AAM_EVALS[1:],
                       lambda v: v.calls("aam.dual_partial_gradients") / v.jobs),
    "aam.evals_per_iter": ("count", "lower", ["aam.aam_iterate", *_AAM_EVALS],
                           lambda v: _ratio(_aam_evals(v), v.calls("aam.aam_iterate"))),
    "aam.eval_us": ("us", "lower", _AAM_EVALS,
                    lambda v: _ratio(v.total("aam.dual_objective_lip")
                                     + v.total("aam.dual_partial_gradients"), _aam_evals(v), 1e6)),
    "aam.check_s": ("s", "lower", ["aam.accelerated_ot", "aam.aam_iterate"],
                    lambda v: (v.total("aam.accelerated_ot") - v.total("aam.aam_iterate")) / v.jobs),
    "barycenter.ibp_halfsteps": ("count", "lower", ["barycenter.ibp_step"],
                                 lambda v: v.calls("barycenter.ibp_step") / v.jobs),
    "barycenter.ibp_halfstep_us": ("us", "lower", ["barycenter.ibp_step"],
                                   lambda v: _ratio(v.total("barycenter.ibp_step"),
                                                    v.calls("barycenter.ibp_step"), 1e6)),
    "barycenter.aibp_iterations": ("count", "lower", ["barycenter.accelerated_ibp"],
                                   lambda v: v.counter("barycenter.aibp_iterations") / v.jobs),
    "barycenter.aibp_evals_per_iter": ("count", "lower",
                                       ["barycenter.accelerated_ibp", "barycenter.wb_dual_objective",
                                        "barycenter.wb_dual_gradients"],
                                       lambda v: _ratio(v.calls("barycenter.wb_dual_objective")
                                                        + v.calls("barycenter.wb_dual_gradients"),
                                                        v.counter("barycenter.aibp_iterations"))),
    "barycenter.aibp_s": ("s", "lower", ["barycenter.accelerated_ibp"],
                          lambda v: v.total("barycenter.accelerated_ibp") / v.jobs),
    "decentralized.rounds": ("count", "lower", _ROUND,
                             lambda v: (v.calls("decentralized.full_round")
                                        + v.calls("decentralized.stochastic_round")) / v.jobs),
    "decentralized.round_ms": ("ms", "lower", _ROUND,
                               lambda v: _ratio(v.total("decentralized.full_round"),
                                                v.calls("decentralized.full_round"), 1e3)),
    "decentralized.stochastic_round_ms": ("ms", "lower", _ROUND,
                                          lambda v: _ratio(v.total("decentralized.stochastic_round"),
                                                           v.calls("decentralized.stochastic_round"),
                                                           1e3)),
    "decentralized.grad_calls": ("count", "lower",
                                 ["barycenter.fenchel_dual_gradient",
                                  "decentralized.stochastic_dual_gradient"],
                                 lambda v: (v.calls("barycenter.fenchel_dual_gradient")
                                            + v.calls("decentralized.stochastic_dual_gradient"))
                                 / v.jobs),
    "decentralized.consensus_s": ("s", "lower", ["decentralized.consensus_error"],
                                  lambda v: v.total("decentralized.consensus_error") / v.jobs),
    "oracle.ot_lp_s": ("s", "lower", _ORACLE[:1],
                       lambda v: _ratio(v.total("oracle.exact_ot_lp"), v.calls("oracle.exact_ot_lp"))),
    "oracle.bary_lp_s": ("s", "lower", _ORACLE[1:],
                         lambda v: _ratio(v.total("oracle.exact_barycenter_lp"),
                                          v.calls("oracle.exact_barycenter_lp"))),
    "oracle.share": ("%", "lower", _ORACLE,
                     lambda v: _ratio(v.total("oracle.exact_ot_lp")
                                      + v.total("oracle.exact_barycenter_lp"), v.wall, 100.0)),
}


def layer_metrics(tracer: Tracer, jobs: int, job_wall_s: float) -> tuple[dict, list]:
    """Per-layer metrics of ``jobs`` traced jobs that took ``job_wall_s`` in
    all.  Returns ({name: (value, unit)}, [names left out as missing])."""
    view = _Totals(tracer, jobs, job_wall_s)
    values, missing = {}, []
    for name, (unit, _better, needs, formula) in METRICS.items():
        if any(target in tracer.missing for target in needs):
            missing.append(name)
        else:
            values[name] = (float(formula(view)), unit)
    return values, missing
