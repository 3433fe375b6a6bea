"""The four workloads: seeded inputs, the pipeline calls of one job, the
independent references, and the output checks.

A job is a fixed list of pipeline calls on inputs drawn once per run from
``--seed``, so every job of a run does the same work.  Each workload has
four parts that run in three processes:

- ``inputs(seed)`` and ``prepare`` run in the benchmark's parent process
  (numpy only) and write what the program reads;
- ``calls`` runs in the measured process, the only one that imports otkit;
- ``reference`` and ``output_reference`` run in a third process, with
  scipy's HiGHS LP solver;
- ``check`` runs in the parent and compares outputs with references.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

# --- instance generators ----------------------------------------------------


def grid_cost(side: int) -> np.ndarray:
    """Squared Euclidean cost between the pixels of a side x side image on
    the unit square."""
    ys, xs = np.mgrid[0:side, 0:side] / (side - 1)
    pts = np.stack([ys.ravel(), xs.ravel()], axis=1)
    return ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)


def blob_image(rng: np.random.Generator, side: int) -> np.ndarray:
    """Three Gaussian blobs on a side x side image, as a measure.

    A uniform floor of 20% of the mass keeps every pixel above 1e-4: the
    HiGHS reference declares transport LPs with pixel weights near 1e-8
    infeasible.
    """
    ys, xs = np.mgrid[0:side, 0:side] / (side - 1)
    img = np.zeros((side, side))
    for _ in range(3):
        cy, cx = rng.uniform(0.15, 0.85, 2)
        width = rng.uniform(0.08, 0.2)
        img += rng.uniform(0.5, 1.5) * np.exp(
            -((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * width * width)
        )
    w = 0.8 * img.ravel() / img.sum() + 0.2 / side**2
    return w / w.sum()


def random_cost(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random symmetric cost with a zero diagonal."""
    u = rng.uniform(0.0, 1.0, (n, n))
    c = 0.5 * (u + u.T)
    np.fill_diagonal(c, 0.0)
    return c


def random_measure(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, n)
    return w / w.sum()


def ring_edges(m: int) -> np.ndarray:
    return np.array([(i, (i + 1) % m) for i in range(m)])


def _write_csv(path: Path, a: np.ndarray) -> None:
    np.savetxt(path, a if a.ndim == 2 else a[:, None], fmt="%.17g", delimiter=",")


def _plan_cost(C, plan) -> float:
    return float((np.asarray(C) * np.asarray(plan)).sum())


def _ot_checks(label, C, p, q, eps, plan, objective, opt) -> list[str]:
    return (
        checks.plan_marginals(label, plan, p, q)
        + checks.same_value(f"{label} objective vs <C, plan>", objective, _plan_cost(C, plan))
        + checks.within_eps(label, objective, opt, eps)
    )


def _ibp_checks(label, C, measures, eps, q_bar, plans, objective, opt) -> list[str]:
    failures = checks.on_simplex(f"{label} q_bar", q_bar)
    for l, (plan, p) in enumerate(zip(plans, measures)):
        failures += checks.plan_marginals(f"{label} plan {l}", plan, p, q_bar)
    mean_cost = float(np.mean([_plan_cost(C, plan) for plan in plans]))
    failures += checks.same_value(f"{label} objective vs mean <C, plan>", objective, mean_cost)
    return failures + checks.within_eps(label, objective, opt, eps)


#: Seed of the base instances that every run relabels.
BASE_SEED = 0


def _relabel(key: str, a: np.ndarray, perm: np.ndarray) -> np.ndarray:
    kind = key.rsplit(".", 1)[1]
    if kind == "C":
        return a[np.ix_(perm, perm)]
    if kind in ("p", "q"):
        return a[perm]
    if kind == "P":
        return a[:, perm]
    return a


class Workload:
    name = ""

    def instances(self, rng: np.random.Generator) -> dict:
        """Arrays keyed "<group>.<kind>": kind C is a cost, p and q are
        measures and P is a stack of measures on the group's support."""
        raise NotImplementedError

    def inputs(self, seed: int) -> dict:
        """The base instances, each support relabeled by a permutation
        drawn from ``seed``.  Every seed thus poses an isomorphic problem:
        the solvers do the same iterations, so the work of a job does not
        depend on the seed, while the data, its memory order and the
        order of every reduction do."""
        base = self.instances(np.random.default_rng(BASE_SEED))
        rng = np.random.default_rng(seed)
        out = {}
        for group in sorted({key.split(".", 1)[0] for key in base}):
            perm = rng.permutation(base[f"{group}.C"].shape[0])
            for key, a in base.items():
                if key.startswith(group + "."):
                    out[key] = _relabel(key, a, perm)
        return out

    def prepare(self, inputs: dict, workdir: Path) -> None:
        """Write the files the program reads; library workloads read none."""

    def calls(self, ok, inputs: dict, workdir: Path) -> list:
        """[(label, fn)] of one job; fn() returns the call's outputs as a
        dict of arrays and floats.  Must look otkit functions up at call
        time, so the layer trace sees them."""
        raise NotImplementedError

    def reference(self, inputs: dict) -> dict:
        """References that depend on the inputs alone.  They are invariant
        under relabeling, so the reference process computes them once on
        the base instances and stores them."""
        raise NotImplementedError

    def output_reference(self, inputs: dict, outputs: dict) -> dict:
        """References that depend on the program's outputs."""
        return {}

    def check(self, inputs: dict, outputs: dict, refs: dict, workdir: Path, failed: set) -> list:
        """Failure messages for the outputs of the calls not in ``failed``."""
        raise NotImplementedError

    def notes(self, inputs: dict, outputs: dict) -> dict:
        """Extra figures for the run's info line."""
        return {}


class OtSinkhorn(Workload):
    """`ot approx` through the CLI on n=400 CSV inputs."""

    name = "ot-sinkhorn"
    # (instance, eps / ||C||_inf).  At 0.03, ||C||_inf / gamma ~ 800 and
    # exp(-C / gamma) underflows in double precision.
    INSTANCES = (("blob", 0.03), ("random", 0.05))

    def instances(self, rng):
        return {
            "blob.C": grid_cost(20), "blob.p": blob_image(rng, 20), "blob.q": blob_image(rng, 20),
            "random.C": random_cost(rng, 400),
            "random.p": random_measure(rng, 400), "random.q": random_measure(rng, 400),
        }

    def prepare(self, inputs, workdir):
        for inst, _ in self.INSTANCES:
            d = workdir / inst
            d.mkdir(parents=True, exist_ok=True)
            _write_csv(d / "cost.csv", inputs[f"{inst}.C"])
            _write_csv(d / "source.csv", inputs[f"{inst}.p"])
            _write_csv(d / "target.csv", inputs[f"{inst}.q"])

    def calls(self, ok, inputs, workdir):
        import otkit.cli  # the `ot` entry point; the package does not import it

        def approx(inst, frac):
            d = workdir / inst
            argv = [
                "approx", "--cost", str(d / "cost.csv"), "--source", str(d / "source.csv"),
                "--target", str(d / "target.csv"), "--eps", repr(frac * float(inputs[f"{inst}.C"].max())),
                "--output-dir", str(d / "out"), "--quiet",
            ]

            def call():
                code = ok.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"ot approx exited with code {code}")
                return {}

            return call

        return [(inst, approx(inst, frac)) for inst, frac in self.INSTANCES]

    def reference(self, inputs):
        import reference

        return {inst: reference.ot_lp(inputs[f"{inst}.C"], inputs[f"{inst}.p"], inputs[f"{inst}.q"])
                for inst, _ in self.INSTANCES}

    def check(self, inputs, outputs, refs, workdir, failed):
        failures = []
        for inst, frac in self.INSTANCES:
            if inst in failed:
                continue
            out = workdir / inst / "out"
            plan = np.loadtxt(out / "plan.csv", delimiter=",", ndmin=2)
            objective = json.loads((out / "report.json").read_text())["objective"]
            C = inputs[f"{inst}.C"]
            failures += _ot_checks(f"ot approx {inst}", C, inputs[f"{inst}.p"], inputs[f"{inst}.q"],
                                   frac * C.max(), plan, objective, refs[inst])
        return failures


class OtAccelerated(Workload):
    """`accelerated_ot` as a library call on n=100 instances."""

    name = "ot-accelerated"
    INSTANCES = ("blob", "random")
    EPS = 0.1

    def instances(self, rng):
        return {
            "blob.C": grid_cost(10), "blob.p": blob_image(rng, 10), "blob.q": blob_image(rng, 10),
            "random.C": random_cost(rng, 100),
            "random.p": random_measure(rng, 100), "random.q": random_measure(rng, 100),
        }

    def calls(self, ok, inputs, workdir):
        def solve(inst):
            C, p, q = (inputs[f"{inst}.{k}"] for k in "Cpq")
            eps = self.EPS * float(C.max())

            def call():
                plan, report = ok.accelerated_ot(C, p, q, eps)
                return {"plan": plan.entries, "objective": report.objective}

            return call

        return [(inst, solve(inst)) for inst in self.INSTANCES]

    def reference(self, inputs):
        import reference

        return {inst: reference.ot_lp(inputs[f"{inst}.C"], inputs[f"{inst}.p"], inputs[f"{inst}.q"])
                for inst in self.INSTANCES}

    def check(self, inputs, outputs, refs, workdir, failed):
        failures = []
        for inst in self.INSTANCES:
            if inst in failed:
                continue
            C = inputs[f"{inst}.C"]
            failures += _ot_checks(f"accelerated_ot {inst}", C, inputs[f"{inst}.p"], inputs[f"{inst}.q"],
                                   self.EPS * C.max(), outputs[f"{inst}.plan"],
                                   float(outputs[f"{inst}.objective"]), refs[inst])
        return failures


class BarycenterNetwork(Workload):
    """Centralized barycenters and the decentralized round simulator."""

    name = "barycenter-network"
    EPS = 0.1
    RING_NODES, RING_N = 16, 50
    FULL_ROUNDS, STOCHASTIC_ROUNDS, BATCH = 200, 80, 16

    def instances(self, rng):
        ring_C = random_cost(rng, self.RING_N)
        return {
            "ibp.C": grid_cost(10),
            "ibp.P": np.stack([blob_image(rng, 10) for _ in range(8)]),
            "aibp.C": random_cost(rng, 30),
            "aibp.P": np.stack([random_measure(rng, 30) for _ in range(8)]),
            "ring.C": ring_C,
            "ring.P": np.stack([random_measure(rng, self.RING_N) for _ in range(self.RING_NODES)]),
            "ring.edges": ring_edges(self.RING_NODES),
            "ring.gamma": np.array(0.1 * ring_C.max()),
        }

    def inputs(self, seed):
        # The stochastic gradient's draws come from the run's seed.
        return {**super().inputs(seed), "ring.seed": np.array(seed)}

    def calls(self, ok, inputs, workdir):
        def barycenter(solver_name, key):
            C, P = inputs[f"{key}.C"], list(inputs[f"{key}.P"])
            eps = self.EPS * float(C.max())

            def call():
                q_bar, plans, report = getattr(ok, solver_name)(P, C, eps)
                return {"q_bar": q_bar, "plans": np.stack([pl.entries for pl in plans]),
                        "objective": report.objective}

            return call

        C, P = inputs["ring.C"], list(inputs["ring.P"])
        graph = ok.graph_laplacian(self.RING_NODES, [tuple(e) for e in inputs["ring.edges"].tolist()])
        gamma, seed = float(inputs["ring.gamma"]), int(inputs["ring.seed"])
        configs = {
            "ring-full": ok.SimConfig(gamma=gamma, rounds=self.FULL_ROUNDS),
            "ring-stochastic": ok.SimConfig(gamma=gamma, rounds=self.STOCHASTIC_ROUNDS,
                                            stochastic=True, batch=self.BATCH, seed=seed),
        }

        def ring(config):
            def call():
                q_locals, report = ok.simulate_decentralized_barycenter(P, C, graph, config)
                return {"Q": np.stack([q.weights for q in q_locals]), "objective": report.objective,
                        "messages": report.extras["messages"], "rounds": report.iterations,
                        "edges": graph.edge_count}

            return call

        return [("ibp", barycenter("barycenter_ibp", "ibp")),
                ("aibp", barycenter("accelerated_ibp", "aibp"))] + [
            (label, ring(config)) for label, config in configs.items()]

    def reference(self, inputs):
        import reference

        return {
            "ibp": reference.barycenter_lp(inputs["ibp.P"], inputs["ibp.C"]),
            "aibp": reference.barycenter_lp(inputs["aibp.P"], inputs["aibp.C"]),
            "ring_zero_dual": reference.zero_start_dual(
                inputs["ring.P"], inputs["ring.C"], float(inputs["ring.gamma"])),
        }

    def output_reference(self, inputs, outputs):
        import reference

        if "aibp.q_bar" not in outputs:
            return {}
        return {"aibp_q_bar_ot": [reference.ot_lp(inputs["aibp.C"], p, outputs["aibp.q_bar"])
                                  for p in inputs["aibp.P"]]}

    def check(self, inputs, outputs, refs, workdir, failed):
        failures = []
        if "ibp" not in failed:
            C = inputs["ibp.C"]
            failures += _ibp_checks("barycenter_ibp", C, inputs["ibp.P"], self.EPS * C.max(),
                                    outputs["ibp.q_bar"], outputs["ibp.plans"],
                                    float(outputs["ibp.objective"]), refs["ibp"])
        if "aibp" not in failed:
            C, P = inputs["aibp.C"], inputs["aibp.P"]
            eps = self.EPS * C.max()
            q_bar = outputs["aibp.q_bar"]
            failures += checks.on_simplex("accelerated_ibp q_bar", q_bar)
            # The plans are rounded onto the smoothed measures, which lie
            # within eps / (16 ||C||_inf) of the caller's in l1; their
            # columns must still match q_bar.
            for l, (plan, p) in enumerate(zip(outputs["aibp.plans"], P)):
                failures += checks.plan_marginals(f"accelerated_ibp plan {l}", plan,
                                                  plan.sum(axis=1), q_bar)
                failures += checks.row_l1_within(f"accelerated_ibp plan {l}", plan, p,
                                                 eps / (16.0 * C.max()))
            failures += checks.within_eps("accelerated_ibp mean OT(p_l, q_bar)",
                                          float(np.mean(refs["aibp_q_bar_ot"])), refs["aibp"], eps)
        for label in ("ring-full", "ring-stochastic"):
            if label in failed:
                continue
            for i, q in enumerate(outputs[f"{label}.Q"]):
                failures += checks.on_simplex(f"{label} node {i} estimate", q)
            failures += checks.message_count(label, int(outputs[f"{label}.messages"]),
                                             int(outputs[f"{label}.rounds"]),
                                             int(outputs[f"{label}.edges"]))
        if "ring-full" not in failed:
            failures += checks.dual_descent("ring-full", float(outputs["ring-full.objective"]),
                                            refs["ring_zero_dual"])
        return failures

    def notes(self, inputs, outputs):
        if "aibp.plans" not in outputs:
            return {}
        # Largest l1 gap between an AIBP plan's rows and the caller's measure.
        return {"aibp_row_l1": max(float(np.abs(plan.sum(axis=1) - p).sum())
                                   for plan, p in zip(outputs["aibp.plans"], inputs["aibp.P"]))}


class Certify(Workload):
    """Approximate solves followed by the exact LP oracle at its size caps."""

    name = "certify"
    EPS = 0.1
    OT_N = 32
    # m n^2 + n = 392 variables, the largest m x n under the oracle's
    # 400-variable cap with n >= 8.
    BARY_M, BARY_N = 6, 8

    def inputs(self, seed):
        # The oracle pivots by Bland's rule, whose path follows the variable
        # order: relabeled instances moved the job time by 13 % (quartile
        # spread over ten seeds, jobs interleaved in one process).  So this
        # workload solves its base instances as drawn, whatever the seed.
        return self.instances(np.random.default_rng(BASE_SEED))

    def instances(self, rng):
        return {
            "ot.C": random_cost(rng, self.OT_N),
            "ot.p": random_measure(rng, self.OT_N), "ot.q": random_measure(rng, self.OT_N),
            "bary.C": random_cost(rng, self.BARY_N),
            "bary.P": np.stack([random_measure(rng, self.BARY_N) for _ in range(self.BARY_M)]),
        }

    def calls(self, ok, inputs, workdir):
        C, p, q = inputs["ot.C"], inputs["ot.p"], inputs["ot.q"]
        Cb, P = inputs["bary.C"], list(inputs["bary.P"])

        def approx():
            plan, report = ok.approx_ot_sinkhorn(C, p, q, self.EPS * float(C.max()))
            return {"plan": plan.entries, "objective": report.objective}

        def ot_lp():
            sol = ok.exact_ot_lp(C, p, q)
            return {"plan": sol.primal.reshape(self.OT_N, self.OT_N), "objective": sol.objective}

        def ibp():
            q_bar, plans, report = ok.barycenter_ibp(P, Cb, self.EPS * float(Cb.max()))
            return {"q_bar": q_bar, "plans": np.stack([pl.entries for pl in plans]),
                    "objective": report.objective}

        def bary_lp():
            q_opt, objective = ok.exact_barycenter_lp(P, Cb)
            return {"q_bar": q_opt, "objective": objective}

        return [("approx", approx), ("ot-lp", ot_lp), ("ibp", ibp), ("bary-lp", bary_lp)]

    def reference(self, inputs):
        import reference

        return {"ot": reference.ot_lp(inputs["ot.C"], inputs["ot.p"], inputs["ot.q"]),
                "bary": reference.barycenter_lp(inputs["bary.P"], inputs["bary.C"])}

    def check(self, inputs, outputs, refs, workdir, failed):
        C, p, q = inputs["ot.C"], inputs["ot.p"], inputs["ot.q"]
        Cb, P = inputs["bary.C"], inputs["bary.P"]
        failures = []
        if "approx" not in failed:
            failures += _ot_checks("approx_ot_sinkhorn", C, p, q, self.EPS * C.max(),
                                   outputs["approx.plan"], float(outputs["approx.objective"]),
                                   refs["ot"])
        if "ot-lp" not in failed:
            failures += checks.plan_marginals("exact_ot_lp", outputs["ot-lp.plan"], p, q)
            failures += checks.same_value("exact_ot_lp objective vs <C, plan>",
                                          float(outputs["ot-lp.objective"]),
                                          _plan_cost(C, outputs["ot-lp.plan"]))
            failures += checks.same_value("exact_ot_lp objective vs HiGHS",
                                          float(outputs["ot-lp.objective"]), refs["ot"])
        if "ibp" not in failed:
            failures += _ibp_checks("barycenter_ibp", Cb, P, self.EPS * Cb.max(), outputs["ibp.q_bar"],
                                    outputs["ibp.plans"], float(outputs["ibp.objective"]), refs["bary"])
        if "bary-lp" not in failed:
            failures += checks.on_simplex("exact_barycenter_lp q", outputs["bary-lp.q_bar"])
            failures += checks.same_value("exact_barycenter_lp objective vs HiGHS",
                                          float(outputs["bary-lp.objective"]), refs["bary"])
        return failures


WORKLOADS = {w.name: w for w in (OtSinkhorn(), OtAccelerated(), BarycenterNetwork(), Certify())}


def flatten(outputs_by_label: dict) -> dict:
    """{label: {key: value}} -> {"label.key": value}, the npz layout."""
    return {f"{label}.{key}": value
            for label, outs in outputs_by_label.items() for key, value in outs.items()}
