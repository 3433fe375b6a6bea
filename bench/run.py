"""otkit benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from any directory of a checkout that holds ``src/otkit``.  The run
makes its inputs from the seed, measures set-up in several fresh
processes, runs the jobs in one measured process, computes the
references in another, checks the outputs, and prints two lines: an
``info`` object (versions, thread counts, steal and load over the run,
raw samples) and, last, the result object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of README.md.
"""

import os

# Fix BLAS and OpenMP thread counts before numpy loads, here and in every
# child process: single-threaded kernels vary less on a small shared VM.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Fresh processes whose set-up time is measured, besides the measured one.
SETUP_PROBES = 6
#: Seconds a child may take beyond the measured time before it is killed.
CHILD_GRACE_S = 120


def proc_sample():
    """(cpu jiffies total, steal jiffies, 1-minute load) or None off Linux."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
        load = float(Path("/proc/loadavg").read_text().split()[0])
    except OSError:
        return None
    ticks = [int(x) for x in fields[:8]]
    return sum(ticks), ticks[7], load


def child(args, timeout):
    """Run a child process to its end; its stdout, or SystemExit on failure."""
    proc = subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{Path(str(args[0])).name} failed with code {proc.returncode}")
    return proc.stdout


def spawn_worker(workdir, name, *rest, timeout):
    return child([BENCH / "worker.py", workdir, name, repr(time.monotonic()), *rest],
                 timeout=timeout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "otkit" / "__init__.py").is_file():
        raise SystemExit(f"no otkit sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(BENCH))
    import numpy as np
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        before = proc_sample()
        inputs = workload.inputs(args.seed)
        np.savez(workdir / "inputs.npz", **inputs)
        workload.prepare(inputs, workdir)

        setups = [json.loads(spawn_worker(workdir, args.workload, "setup",
                                          timeout=CHILD_GRACE_S))["setup_s"]
                  for _ in range(SETUP_PROBES)]
        spawn_worker(workdir, args.workload, "run", args.seconds, args.trace,
                     timeout=args.seconds + CHILD_GRACE_S)
        result = json.loads((workdir / "worker.json").read_text())
        setups.append(result["setup_s"])
        child([BENCH / "reference.py", workdir, args.workload], timeout=CHILD_GRACE_S)
        refs = json.loads((workdir / "refs.json").read_text())
        with np.load(workdir / "outputs.npz") as f:
            outputs = dict(f)
        failures = workload.check(inputs, outputs, refs, workdir, set(result["failed_labels"]))
        failures += result["drift"]
        after = proc_sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "setup_s": setups,
        "failures": failures, "errors": result["errors"],
    }
    if before and after:
        total = after[0] - before[0]
        info["steal_pct"] = 100.0 * (after[1] - before[1]) / total if total else 0.0
        info["load_1m"] = [before[2], after[2]]
    info.update(workload.notes(inputs, outputs))

    if args.trace:
        untraced = statistics.median(result["untraced_job_s"])
        traced = statistics.median(result["traced_job_s"])
        info.update(job_s_untraced=result["untraced_job_s"], job_s_traced=result["traced_job_s"],
                    trace_overhead_pct=100.0 * (traced / untraced - 1.0),
                    missing_metrics=result["missing"], spans=result["spans"],
                    oracle_share_base="wall time of the traced jobs")
        metrics = result["layer_metrics"]
    else:
        times = result["job_s"]
        info["job_s"] = times
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "job_s": (statistics.median(times), "s"),
            "jobs_per_s": (len(times) / result["wall_s"], "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
