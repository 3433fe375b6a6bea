"""Single command-line entry point binding all solvers.

Every run validates its manifest (all referenced paths must exist),
executes one solver, and writes a report JSON with the fixed key order
{objective, iterations, certificate, wall_time, seed, params} plus the
command's artifacts (plans, barycenters, traces).  Exit codes: 0 success,
2 convergence failure, 3 input error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import aam, barycenter, decentralized, io, oracle, rounding, sinkhorn, verify
from .core import (
    ConvergenceError,
    InputError,
    OtError,
    SolveReport,
    marginal_violation,
    transport_cost,
)

EXIT_OK = 0
EXIT_CONVERGENCE = 2
EXIT_INPUT = 3

COMMANDS = (
    "sinkhorn",
    "approx",
    "aam",
    "round",
    "barycenter",
    "decentralized",
    "oracle",
    "verify",
)


@dataclass
class RunManifest:
    """Validated description of one run: command, inputs, parameters."""

    command: str
    inputs: dict[str, Path]
    params: dict
    seed: int | None = None
    output_dir: Path = Path(".")
    trace_path: Path | None = None
    quiet: bool = False

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise InputError(f"unknown command {self.command!r}")
        for name, path in self.inputs.items():
            if not Path(path).exists():
                raise InputError(f"missing input {name}: {path}")


def _natural_key(path: Path):
    digits = re.findall(r"\d+", path.stem)
    return (int(digits[-1]) if digits else 0, path.stem)


def _load_measure_dir(directory: Path):
    files = sorted(Path(directory).glob("*.csv"), key=_natural_key)
    if not files:
        raise InputError(f"no measure CSVs found in {directory}")
    return [io.load_measure(f) for f in files]


def _write_report(manifest: RunManifest, report: SolveReport, wall_time: float) -> Path:
    payload = {
        "objective": report.objective,
        "iterations": report.iterations,
        "certificate": report.certificate,
        "wall_time": wall_time,
        "seed": manifest.seed if manifest.seed is not None else report.seed,
        "params": {k: report.params[k] for k in sorted(report.params)},
    }
    out = Path(manifest.output_dir) / "report.json"
    io.write_report_json(out, payload)
    if manifest.trace_path and report.trace is not None:
        io.write_trace_csv(manifest.trace_path, report.trace_columns, report.trace)
    if not manifest.quiet:
        print(f"objective {report.objective:.12g}  iterations {report.iterations}")
        print(f"report written to {out}")
    return out


def run(manifest: RunManifest) -> int:
    """Validate and execute one manifest; returns the process exit code."""
    try:
        manifest.validate()
        Path(manifest.output_dir).mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        handler = _HANDLERS[manifest.command]
        report = handler(manifest)
        if report is not None:
            _write_report(manifest, report, time.perf_counter() - started)
        return EXIT_OK
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (OtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _cmd_sinkhorn(manifest: RunManifest) -> SolveReport:
    C = io.load_cost(manifest.inputs["cost"], manifest.params.get("allow_asymmetric", False))
    p = io.load_measure(manifest.inputs["source"])
    q = io.load_measure(manifest.inputs["target"])
    gamma = manifest.params["gamma"]
    trace: list[dict] | None = [] if manifest.trace_path else None
    state, plan = sinkhorn.sinkhorn_solve(
        C,
        gamma,
        p.weights,
        q.weights,
        eps_prime=manifest.params["tol"],
        max_iter=manifest.params.get("max_iter"),
        trace=trace,
    )
    io.save_matrix(Path(manifest.output_dir) / "plan.csv", plan.entries)
    return SolveReport(
        objective=transport_cost(plan.entries, C),
        iterations=state.iteration,
        certificate=sinkhorn.reg_gap_certificate(state, C, gamma, p.weights, q.weights),
        params={"gamma": gamma, "tol": manifest.params["tol"]},
        trace=trace,
        trace_columns=sinkhorn.TRACE_COLUMNS,
    )


def _cmd_approx(manifest: RunManifest) -> SolveReport:
    C = io.load_cost(manifest.inputs["cost"], manifest.params.get("allow_asymmetric", False))
    p = io.load_measure(manifest.inputs["source"])
    q = io.load_measure(manifest.inputs["target"])
    trace: list[dict] | None = [] if manifest.trace_path else None
    plan, report = sinkhorn.approx_ot_sinkhorn(
        C, p.weights, q.weights, manifest.params["eps"], trace=trace
    )
    io.save_matrix(Path(manifest.output_dir) / "plan.csv", plan.entries)
    return report


def _cmd_aam(manifest: RunManifest) -> SolveReport:
    C = io.load_cost(manifest.inputs["cost"], manifest.params.get("allow_asymmetric", False))
    p = io.load_measure(manifest.inputs["source"])
    q = io.load_measure(manifest.inputs["target"])
    trace: list[dict] | None = [] if manifest.trace_path else None
    gamma = manifest.params.get("gamma")
    if gamma is not None:
        # Regularized-mode run: the explicit gamma overrides the schedule.
        state, report = aam.aam_solve(
            C, gamma, p.weights, q.weights,
            gap_tol=manifest.params.get("gap_tol", 1e-8),
            trace=trace,
        )
        io.save_matrix(Path(manifest.output_dir) / "plan.csv", state.plan_avg)
        report.params["gamma_override"] = True
        report.params["eps"] = manifest.params["eps"]
        return report
    plan, report = aam.accelerated_ot(
        C, p.weights, q.weights, manifest.params["eps"], trace=trace
    )
    io.save_matrix(Path(manifest.output_dir) / "plan.csv", plan.entries)
    return report


def _cmd_round(manifest: RunManifest) -> SolveReport:
    plan_in = io.load_plan(manifest.inputs["plan"])
    p = io.load_measure(manifest.inputs["source"])
    q = io.load_measure(manifest.inputs["target"])
    violation = marginal_violation(plan_in, p.weights, q.weights)
    rounded = rounding.round_to_polytope(plan_in, p.weights, q.weights)
    io.save_matrix(Path(manifest.output_dir) / "plan.csv", rounded.entries)
    cost_path = manifest.inputs.get("cost")
    objective = (
        transport_cost(rounded.entries, io.load_cost(cost_path)) if cost_path else 0.0
    )
    return SolveReport(
        objective=objective,
        iterations=0,
        certificate=violation,
        params={"l1_moved": float(np.abs(rounded.entries - plan_in).sum())},
    )


def _cmd_barycenter(manifest: RunManifest) -> SolveReport:
    C = io.load_cost(manifest.inputs["cost"], manifest.params.get("allow_asymmetric", False))
    measures = _load_measure_dir(manifest.inputs["measures"])
    trace: list[dict] | None = [] if manifest.trace_path else None
    method = manifest.params["method"]
    solver = barycenter.barycenter_ibp if method == "ibp" else barycenter.accelerated_ibp
    q_bar, plans, report = solver(
        measures, C, manifest.params["eps"], gamma=manifest.params.get("gamma"),
        trace=trace,
    )
    out = Path(manifest.output_dir)
    io.save_vector(out / "q_bar.csv", q_bar)
    for l, plan in enumerate(plans, start=1):
        io.save_matrix(out / f"plan_{l}.csv", plan.entries)
    return report


def _cmd_decentralized(manifest: RunManifest) -> SolveReport:
    C = io.load_cost(manifest.inputs["cost"], manifest.params.get("allow_asymmetric", False))
    measures = _load_measure_dir(manifest.inputs["measures"])
    edges = io.load_edges(manifest.inputs["graph"])
    graph = decentralized.graph_laplacian(len(measures), edges)
    config = decentralized.SimConfig(
        gamma=manifest.params["gamma"],
        rounds=manifest.params["rounds"],
        step_L=manifest.params.get("step_L"),
        stochastic=manifest.params.get("stochastic", False),
        seed=manifest.seed if manifest.seed is not None else 0,
        batch=manifest.params.get("batch", 1),
    )
    trace: list[dict] | None = [] if manifest.trace_path else None
    q_locals, report = decentralized.simulate_decentralized_barycenter(
        measures, C, graph, config, trace=trace
    )
    io.save_matrix(
        Path(manifest.output_dir) / "q_locals.csv",
        np.stack([q.weights for q in q_locals]),
    )
    return report


def _cmd_oracle(manifest: RunManifest) -> SolveReport:
    problem = manifest.params["problem"]
    out = Path(manifest.output_dir)
    if problem == "ot":
        C = io.load_cost(manifest.inputs["cost"], manifest.params.get("allow_asymmetric", False))
        p = io.load_measure(manifest.inputs["source"])
        q = io.load_measure(manifest.inputs["target"])
        sol = oracle.exact_ot_lp(C, p.weights, q.weights)
        if sol.status != "optimal":
            raise InputError(f"LP status {sol.status}")
        io.save_matrix(out / "plan.csv", sol.primal.reshape(p.n, p.n))
        return SolveReport(
            objective=sol.objective, iterations=sol.pivots, certificate=0.0,
            params={"problem": "ot"},
        )
    C = io.load_cost(manifest.inputs["cost"], manifest.params.get("allow_asymmetric", False))
    measures = _load_measure_dir(manifest.inputs["measures"])
    sol = oracle._barycenter_lp([m.weights for m in measures], C)
    io.save_vector(out / "q_bar.csv", sol.primal[-measures[0].n :])
    return SolveReport(
        objective=float(sol.objective), iterations=sol.pivots, certificate=0.0,
        params={"problem": "barycenter"},
    )


def _cmd_verify(manifest: RunManifest) -> None:
    only = manifest.params.get("only")
    printer = None if manifest.quiet else print
    results = verify.run_all(only=only, printer=printer)
    if any(not r.passed for r in results):
        raise ConvergenceError(
            f"{sum(not r.passed for r in results)} acceptance criterion(s) failed"
        )
    return None


_HANDLERS = {
    "sinkhorn": _cmd_sinkhorn,
    "approx": _cmd_approx,
    "aam": _cmd_aam,
    "round": _cmd_round,
    "barycenter": _cmd_barycenter,
    "decentralized": _cmd_decentralized,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output-dir", default=".", help="directory for artifacts")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--quiet", action="store_true")
    common.add_argument("--trace", default=None, help="write a trace CSV here")
    common.add_argument("--allow-asymmetric", action="store_true",
                        help="accept asymmetric cost matrices")

    parser = argparse.ArgumentParser(
        prog="ot",
        description="Entropic and approximate optimal transport, barycenters, "
        "decentralized barycenters, and exact LP oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sinkhorn", parents=[common], help="regularized solve at fixed gamma")
    s.add_argument("--cost", required=True)
    s.add_argument("--source", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--tol", type=float, required=True, help="target l1 marginal violation")
    s.add_argument("--max-iter", type=int, default=None)

    s = sub.add_parser("approx", parents=[common], help="eps-approximate transport cost")
    s.add_argument("--cost", required=True)
    s.add_argument("--source", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--eps", type=float, required=True)

    s = sub.add_parser("aam", parents=[common], help="accelerated solver pipeline")
    s.add_argument("--cost", required=True)
    s.add_argument("--source", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--gamma", type=float, default=None,
                   help="run in regularized mode at this gamma instead of the schedule")
    s.add_argument("--gap-tol", type=float, default=1e-8,
                   help="certificate width for regularized-mode stops")

    s = sub.add_parser("round", parents=[common], help="project a plan onto U(p, q)")
    s.add_argument("--plan", required=True)
    s.add_argument("--source", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--cost", default=None, help="optional cost matrix for the objective")

    s = sub.add_parser("barycenter", parents=[common], help="fixed-support barycenter")
    s.add_argument("--method", choices=("ibp", "aibp"), required=True)
    s.add_argument("--measures", required=True, help="directory of p_*.csv files")
    s.add_argument("--cost", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--gamma", type=float, default=None)

    s = sub.add_parser("decentralized", parents=[common], help="graph-distributed barycenter")
    s.add_argument("--graph", required=True, help="edge list file, one 'i j' per line")
    s.add_argument("--measures", required=True)
    s.add_argument("--cost", required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--rounds", type=int, required=True)
    s.add_argument("--stochastic", action="store_true")
    s.add_argument("--batch", type=int, default=1)
    s.add_argument("--step-L", type=float, default=None, dest="step_L")

    s = sub.add_parser("oracle", parents=[common], help="exact LP reference solvers")
    s.add_argument("problem", choices=("ot", "barycenter"))
    s.add_argument("--cost", required=True)
    s.add_argument("--source", default=None)
    s.add_argument("--target", default=None)
    s.add_argument("--measures", default=None)

    s = sub.add_parser("verify", parents=[common], help="run the acceptance suite")
    s.add_argument("--only", default=None, help="comma-separated criterion numbers")

    return parser


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    inputs: dict[str, Path] = {}
    params: dict = {}

    def take(name, as_input=False):
        value = getattr(args, name, None)
        if value is None:
            return
        if as_input:
            inputs[name] = Path(value)
        else:
            params[name] = value

    for name in ("cost", "source", "target", "plan", "measures", "graph"):
        take(name, as_input=True)
    for name in (
        "gamma", "tol", "eps", "max_iter", "method",
        "rounds", "stochastic", "batch", "step_L", "problem",
        "gap_tol", "allow_asymmetric",
    ):
        take(name)
    if args.command == "oracle" and args.problem == "ot":
        if "source" not in inputs or "target" not in inputs:
            raise InputError("oracle ot needs --source and --target")
    if args.command == "oracle" and args.problem == "barycenter":
        if "measures" not in inputs:
            raise InputError("oracle barycenter needs --measures")
    if args.command == "verify" and args.only:
        params["only"] = [int(tok) for tok in str(args.only).split(",") if tok]

    return RunManifest(
        command=args.command,
        inputs=inputs,
        params=params,
        seed=args.seed,
        output_dir=Path(args.output_dir),
        trace_path=Path(args.trace) if args.trace else None,
        quiet=args.quiet,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = _manifest_from_args(args)
    except OtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
