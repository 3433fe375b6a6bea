"""The measured process: imports otkit, builds the program's inputs, and
runs jobs in a closed loop, one after another.

    python3 bench/worker.py <run directory> <workload> <t0> setup
    python3 bench/worker.py <run directory> <workload> <t0> run <seconds> <trace 0|1>

``t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time runs from interpreter start until otkit is
imported and the inputs are built (CLOCK_MONOTONIC is system-wide on
Linux).  ``setup`` exits after printing that time.  ``run`` times one
untimed warm-up job and then jobs until ``seconds`` have passed.  With
trace 1 the first half of that time runs without the layer wrappers and
the second half with them, so the trace overhead on job time shows.
Results go to ``worker.json`` and the last job's outputs to
``outputs.npz`` in the run directory.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import otkit as ok  # noqa: E402
import workloads  # noqa: E402


def run_job(calls):
    """Run every call of one job; return ({label: outputs}, {label: error})."""
    outputs, errors = {}, {}
    for label, fn in calls:
        try:
            outputs[label] = fn()
        except Exception:  # a failed operation is counted, not fatal
            errors[label] = traceback.format_exc(limit=3)
    return outputs, errors


def scalars(outputs) -> dict:
    return {f"{label}.{k}": float(v) for label, outs in outputs.items()
            for k, v in outs.items() if np.ndim(v) == 0}


class Loop:
    """Closed-loop job runner that tallies attempts, failures and drift."""

    def __init__(self, calls):
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self.drift = []
        self.first = None
        self.last = {}

    def job(self):
        outputs, errors = run_job(self.calls)
        self.attempted += len(self.calls)
        self.failed += len(errors)
        self.errors.update(errors)
        values = scalars(outputs)
        if self.first is None:
            self.first = values
        elif values != self.first and not self.drift:
            self.drift.append(f"job outputs changed between jobs: {values} vs {self.first}")
        self.last = outputs

    def timed(self, seconds: float):
        """Jobs until ``seconds`` have passed; returns (job times, wall time)."""
        times = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            self.job()
            times.append(time.perf_counter() - t)
            if time.perf_counter() - start >= seconds:
                return times, time.perf_counter() - start


def main(argv):
    workdir, name, t0, mode = Path(argv[0]), argv[1], float(argv[2]), argv[3]
    workload = workloads.WORKLOADS[name]
    with np.load(workdir / "inputs.npz") as f:
        inputs = dict(f)
    calls = workload.calls(ok, inputs, workdir)
    setup_s = time.monotonic() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    seconds, trace = float(argv[4]), argv[5] == "1"
    loop = Loop(calls)
    loop.job()  # warm-up, untimed
    result = {"setup_s": setup_s}
    if trace:
        import layers

        result["untraced_job_s"], _ = loop.timed(seconds / 2)
        tracer = layers.Tracer()
        tracer.install()
        times, wall = loop.timed(seconds / 2)
        tracer.uninstall()
        metrics, missing = layers.layer_metrics(tracer, len(times), sum(times))
        result.update(traced_job_s=times, layer_metrics=metrics, missing=missing,
                      spans={k: vars(v) for k, v in tracer.spans.items()})
    else:
        times, wall = loop.timed(seconds)
        result.update(job_s=times, wall_s=wall)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=loop.attempted, failed=loop.failed, errors=loop.errors,
        failed_labels=sorted(loop.errors), drift=loop.drift,
    )
    np.savez(workdir / "outputs.npz", **workloads.flatten(loop.last))
    (workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
