"""Single command-line entry point binding all solvers.

Every run loads its inputs, executes one solver, and writes a report
JSON with the fixed key order
{objective, iterations, certificate, wall_time, seed, params} plus the
command's artifacts (plans, barycenters, traces).  Each command takes
only the flags it reads.  Exit codes: 0 success, 2 convergence failure,
3 input or usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import aam, barycenter, decentralized, io, oracle, rounding, sinkhorn
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


def _natural_key(path: Path):
    digits = re.findall(r"\d+", path.stem)
    return (int(digits[-1]) if digits else 0, path.stem)


def _load_measure_dir(directory):
    files = sorted(Path(directory).glob("*.csv"), key=_natural_key)
    if not files:
        raise InputError(f"no measure CSVs found in {directory}")
    return [io.load_measure(f) for f in files]


def _transport_inputs(args):
    """The cost matrix and the source and target weights of a transport run."""
    C = io.load_cost(args.cost)
    return C, io.load_measure(args.source).weights, io.load_measure(args.target).weights


def _output_dir(args) -> Path:
    """The artifact directory, made at the first write, so that a run that
    fails on its inputs leaves nothing behind."""
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(args, report: SolveReport, wall_time: float) -> None:
    payload = {
        "objective": report.objective,
        "iterations": report.iterations,
        "certificate": report.certificate,
        "wall_time": wall_time,
        "seed": report.seed,
        "params": {k: report.params[k] for k in sorted(report.params)},
    }
    out = Path(args.output_dir) / "report.json"
    io.write_report_json(out, payload)
    if report.trace is not None:
        io.write_trace_csv(args.trace, report.trace_columns, report.trace)
    if not args.quiet:
        print(f"objective {report.objective:.12g}  iterations {report.iterations}")
        print(f"report written to {out}")


def _cmd_sinkhorn(args) -> SolveReport:
    C, p, q = _transport_inputs(args)
    trace = [] if args.trace else None
    state, plan = sinkhorn.sinkhorn_solve(
        C, args.gamma, p, q, eps_prime=args.tol, max_iter=args.max_iter, trace=trace
    )
    io.save_matrix(_output_dir(args) / "plan.csv", plan.entries)
    return SolveReport(
        objective=transport_cost(plan.entries, C),
        iterations=state.iteration,
        certificate=sinkhorn.reg_gap_certificate(state, C, args.gamma, p, q),
        params={"gamma": args.gamma, "tol": args.tol},
        trace=trace,
        trace_columns=sinkhorn.TRACE_COLUMNS,
    )


def _cmd_approx(args) -> SolveReport:
    C, p, q = _transport_inputs(args)
    plan, report = sinkhorn.approx_ot_sinkhorn(
        C, p, q, args.eps, trace=[] if args.trace else None
    )
    io.save_matrix(_output_dir(args) / "plan.csv", plan.entries)
    return report


def _cmd_aam(args) -> SolveReport:
    C, p, q = _transport_inputs(args)
    trace = [] if args.trace else None
    if args.gamma is not None:
        # Regularized-mode run: the explicit gamma overrides the schedule.
        gap_tol = 1e-8 if args.gap_tol is None else args.gap_tol
        state, report = aam.aam_solve(C, args.gamma, p, q, gap_tol=gap_tol, trace=trace)
        io.save_matrix(_output_dir(args) / "plan.csv", state.plan_avg)
        report.params["gamma_override"] = True
        report.params["eps"] = args.eps
        return report
    plan, report = aam.accelerated_ot(C, p, q, args.eps, trace=trace)
    io.save_matrix(_output_dir(args) / "plan.csv", plan.entries)
    return report


def _cmd_round(args) -> SolveReport:
    plan_in = io.load_matrix(args.plan)
    p = io.load_measure(args.source).weights
    q = io.load_measure(args.target).weights
    C = io.load_cost(args.cost) if args.cost is not None else None
    rounded = rounding.round_to_polytope(plan_in, p, q)
    io.save_matrix(_output_dir(args) / "plan.csv", rounded.entries)
    return SolveReport(
        objective=transport_cost(rounded.entries, C) if C is not None else 0.0,
        iterations=0,
        certificate=marginal_violation(plan_in, p, q),
        params={"l1_moved": float(np.abs(rounded.entries - plan_in).sum())},
    )


def _cmd_barycenter(args) -> SolveReport:
    C = io.load_cost(args.cost)
    measures = _load_measure_dir(args.measures)
    solver = barycenter.barycenter_ibp if args.method == "ibp" else barycenter.accelerated_ibp
    q_bar, plans, report = solver(
        measures, C, args.eps, gamma=args.gamma, trace=[] if args.trace else None
    )
    out = _output_dir(args)
    io.save_vector(out / "q_bar.csv", q_bar)
    for l, plan in enumerate(plans, start=1):
        io.save_matrix(out / f"plan_{l}.csv", plan.entries)
    return report


def _cmd_decentralized(args) -> SolveReport:
    C = io.load_cost(args.cost)
    measures = _load_measure_dir(args.measures)
    graph = decentralized.graph_laplacian(len(measures), io.load_edges(args.graph))
    config = decentralized.SimConfig(
        gamma=args.gamma,
        rounds=args.rounds,
        step_L=args.step_L,
        stochastic=args.stochastic,
        seed=args.seed,
        batch=args.batch,
    )
    q_locals, report = decentralized.simulate_decentralized_barycenter(
        measures, C, graph, config, trace=[] if args.trace else None
    )
    io.save_matrix(_output_dir(args) / "q_locals.csv", np.stack([q.weights for q in q_locals]))
    return report


def _cmd_oracle_ot(args) -> SolveReport:
    C, p, q = _transport_inputs(args)
    sol = oracle.exact_ot_lp(C, p, q)
    if sol.status != "optimal":
        raise InputError(f"LP status {sol.status}")
    io.save_matrix(_output_dir(args) / "plan.csv", sol.primal.reshape(p.size, p.size))
    return SolveReport(
        objective=sol.objective, iterations=sol.pivots, certificate=0.0,
        params={"problem": "ot"},
    )


def _cmd_oracle_barycenter(args) -> SolveReport:
    C = io.load_cost(args.cost)
    measures = _load_measure_dir(args.measures)
    sol = oracle._barycenter_lp([m.weights for m in measures], C)
    io.save_vector(_output_dir(args) / "q_bar.csv", sol.primal[-measures[0].n :])
    return SolveReport(
        objective=float(sol.objective), iterations=sol.pivots, certificate=0.0,
        params={"problem": "barycenter"},
    )


def _cmd_verify(args) -> None:
    from . import verify  # imported here so that `import otkit.cli` skips it

    results = verify.run_all(only=args.only, printer=None if args.quiet else print)
    if any(not r.passed for r in results):
        raise ConvergenceError(
            f"{sum(not r.passed for r in results)} acceptance criterion(s) failed"
        )


def _criterion_numbers(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of criterion numbers: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ot",
        description="Entropic and approximate optimal transport, barycenters, "
        "decentralized barycenters, and exact LP oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, writes=True, traces=True, group=sub):
        s = group.add_parser(name, help=help)
        s.set_defaults(handler=handler)
        s.add_argument("--quiet", action="store_true")
        if writes:
            s.add_argument("--output-dir", default=".", help="directory for artifacts")
        if traces:
            s.add_argument("--trace", default=None, help="write a trace CSV here")
        return s

    s = command("sinkhorn", _cmd_sinkhorn, "regularized solve at fixed gamma")
    s.add_argument("--cost", required=True)
    s.add_argument("--source", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--tol", type=float, required=True, help="target l1 marginal violation")
    s.add_argument("--max-iter", type=int, default=None)

    s = command("approx", _cmd_approx, "eps-approximate transport cost")
    s.add_argument("--cost", required=True)
    s.add_argument("--source", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--eps", type=float, required=True)

    s = command("aam", _cmd_aam, "accelerated solver pipeline")
    s.add_argument("--cost", required=True)
    s.add_argument("--source", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--gamma", type=float, default=None,
                   help="run in regularized mode at this gamma instead of the schedule")
    s.add_argument("--gap-tol", type=float, default=None,
                   help="certificate width of a --gamma run's stop (default 1e-8)")

    s = command("round", _cmd_round, "project a plan onto U(p, q)", traces=False)
    s.add_argument("--plan", required=True)
    s.add_argument("--source", required=True)
    s.add_argument("--target", required=True)
    s.add_argument("--cost", default=None, help="optional cost matrix for the objective")

    s = command("barycenter", _cmd_barycenter, "fixed-support barycenter")
    s.add_argument("--method", choices=("ibp", "aibp"), required=True)
    s.add_argument("--measures", required=True, help="directory of p_*.csv files")
    s.add_argument("--cost", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--gamma", type=float, default=None)

    s = command("decentralized", _cmd_decentralized, "graph-distributed barycenter")
    s.add_argument("--graph", required=True, help="edge list file, one 'i j' per line")
    s.add_argument("--measures", required=True)
    s.add_argument("--cost", required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--rounds", type=int, required=True)
    s.add_argument("--stochastic", action="store_true")
    s.add_argument("--batch", type=int, default=1)
    s.add_argument("--step-L", type=float, default=None, dest="step_L")
    s.add_argument("--seed", type=int, default=0, help="seed of the stochastic gradient's draws")

    problems = sub.add_parser("oracle", help="exact LP reference solvers").add_subparsers(
        dest="problem", required=True
    )
    s = command("ot", _cmd_oracle_ot, "exact transport LP", traces=False, group=problems)
    s.add_argument("--cost", required=True)
    s.add_argument("--source", required=True)
    s.add_argument("--target", required=True)
    s = command("barycenter", _cmd_oracle_barycenter, "exact joint barycenter LP",
                traces=False, group=problems)
    s.add_argument("--measures", required=True, help="directory of p_*.csv files")
    s.add_argument("--cost", required=True)

    s = command("verify", _cmd_verify, "run the acceptance suite", writes=False, traces=False)
    s.add_argument("--only", type=_criterion_numbers, default=None,
                   help="comma-separated criterion numbers")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "aam" and args.gamma is None and args.gap_tol is not None:
            parser.error("unrecognized arguments: --gap-tol (read only with --gamma)")
    except SystemExit as exc:
        # argparse has printed the usage or the help; exit 2 is kept for
        # convergence failures.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        started = time.perf_counter()
        report = args.handler(args)
        if report is not None:
            _write_report(args, report, time.perf_counter() - started)
        return EXIT_OK
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (OtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
