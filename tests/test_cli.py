"""Command-line interface: inputs, artifacts, exit codes, determinism."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import otkit
from otkit import cli, io
from otkit.core import InputError
from otkit.sinkhorn import GAP_TRACE_COLUMNS


@pytest.fixture
def instance_dir(tmp_path):
    io.save_matrix(tmp_path / "C.csv", np.array([[0.0, 1.0], [1.0, 0.0]]))
    io.save_vector(tmp_path / "p.csv", np.array([0.3, 0.7]))
    io.save_vector(tmp_path / "q.csv", np.array([0.6, 0.4]))
    return tmp_path


def read_report(path):
    return json.loads((path / "report.json").read_text())


class TestIo:
    def test_measure_roundtrip(self, tmp_path):
        io.save_vector(tmp_path / "m.csv", np.array([0.25, 0.75]))
        m = io.load_measure(tmp_path / "m.csv")
        assert np.allclose(m.weights, [0.25, 0.75])

    def test_measure_renormalization_warns(self, tmp_path):
        (tmp_path / "m.csv").write_text("1\n3\n")
        with pytest.warns(UserWarning, match="renormalizing"):
            m = io.load_measure(tmp_path / "m.csv")
        assert np.allclose(m.weights, [0.25, 0.75])

    def test_malformed_line_number_reported(self, tmp_path):
        (tmp_path / "m.csv").write_text("0.5\nnot-a-number\n")
        with pytest.raises(InputError, match="m.csv:2"):
            io.load_measure(tmp_path / "m.csv")

    def test_ragged_matrix_rejected(self, tmp_path):
        (tmp_path / "C.csv").write_text("0,1\n1\n")
        with pytest.raises(InputError, match=":2"):
            io.load_matrix(tmp_path / "C.csv")

    def test_asymmetric_cost_loaded(self, tmp_path):
        (tmp_path / "C.csv").write_text("0,1\n2,0\n")
        C = io.load_cost(tmp_path / "C.csv")
        assert np.array_equal(C.entries, [[0.0, 1.0], [2.0, 0.0]])
        assert C.inf_norm == 2.0

    @pytest.mark.parametrize("text, match", [
        ("0,1,2\n1,0,1\n", r"square.*\(2, 3\)"),
        ("0,-1\n1,0\n", "nonnegative"),
        ("0,nan\n1,0\n", "finite"),
    ], ids=["2x3", "negative", "nan"])
    def test_invalid_cost_names_file_and_fault(self, tmp_path, text, match):
        (tmp_path / "C.csv").write_text(text)
        with pytest.raises(InputError, match=match) as err:
            io.load_cost(tmp_path / "C.csv")
        assert str(err.value).startswith(f"{tmp_path / 'C.csv'}: ")

    @pytest.mark.parametrize("text, match", [
        ("0.5\nnan\n", "finite"),
        ("0.5\ninf\n", "finite"),
        ("0\n0\n", "positive total mass"),
    ], ids=["nan", "inf", "zero-sum"])
    def test_invalid_measure_names_file_and_fault(self, tmp_path, text, match):
        (tmp_path / "m.csv").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # no renormalizing warning first
            with pytest.raises(InputError, match=match) as err:
                io.load_measure(tmp_path / "m.csv")
        assert str(err.value).startswith(f"{tmp_path / 'm.csv'}: ")

    def test_edge_list_parsing(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1\n# comment\n1 2\n")
        assert io.load_edges(tmp_path / "g.txt") == [(0, 1), (1, 2)]

    def test_saved_bytes_match_per_float_formatting(self, tmp_path):
        m = np.array([[-0.0, 1.0, 5e-324], [1e300, 1.0 / 3.0, -2.5e-17]])
        io.save_matrix(tmp_path / "m.csv", m)
        expected = "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in m)
        assert (tmp_path / "m.csv").read_text() == expected
        io.save_vector(tmp_path / "v.csv", m.ravel())
        expected = "".join(format(x, ".17g") + "\n" for x in m.ravel())
        assert (tmp_path / "v.csv").read_text() == expected

    def test_report_json_17_digits(self, tmp_path):
        io.write_report_json(tmp_path / "r.json", {"objective": 1.0 / 3.0})
        text = (tmp_path / "r.json").read_text()
        assert "0.33333333333333331" in text
        assert json.loads(text)["objective"] == pytest.approx(1 / 3)


class TestCommands:
    def test_approx_on_derived_instance(self, instance_dir, capsys):
        out = instance_dir / "out"
        code = cli.main([
            "approx", "--cost", str(instance_dir / "C.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--eps", "0.05", "--output-dir", str(out),
        ])
        assert code == 0
        report = read_report(out)
        assert 0.3 <= report["objective"] <= 0.35
        assert report["params"]["gamma"] is not None
        plan = io.load_matrix(out / "plan.csv")
        assert np.abs(plan.sum(axis=1) - [0.3, 0.7]).max() <= 1e-9

    def test_missing_file_exit_3(self, instance_dir, capsys):
        code = cli.main([
            "approx", "--cost", str(instance_dir / "missing.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--eps", "0.05",
        ])
        assert code == 3
        assert "missing.csv" in capsys.readouterr().err

    def test_sinkhorn_with_trace(self, instance_dir):
        out = instance_dir / "out"
        trace = instance_dir / "trace.csv"
        code = cli.main([
            "sinkhorn", "--cost", str(instance_dir / "C.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--gamma", "0.1", "--tol", "1e-6",
            "--output-dir", str(out), "--trace", str(trace), "--quiet",
        ])
        assert code == 0
        header = trace.read_text().splitlines()[0]
        assert header == "iteration,violation,dual_objective,certificate"

    def test_approx_with_trace(self, instance_dir):
        trace = instance_dir / "trace.csv"
        code = cli.main([
            "approx", "--cost", str(instance_dir / "C.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--eps", "0.05", "--output-dir", str(instance_dir / "out"),
            "--trace", str(trace), "--quiet",
        ])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,violation,dual_objective,certificate"
        assert len(lines) > 1

    def test_sinkhorn_convergence_failure_exit_2(self, instance_dir, capsys):
        code = cli.main([
            "sinkhorn", "--cost", str(instance_dir / "C.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--gamma", "0.01", "--tol", "1e-9", "--max-iter", "4",
            "--output-dir", str(instance_dir / "out"),
        ])
        assert code == 2

    def test_aam_zero_weight_instance_is_certified(self, instance_dir):
        # The instance whose zero weight stalled the accelerated scheme at a
        # fixed point; the LP lower bound now stops it at the optimum 0.5.
        io.save_vector(instance_dir / "p0.csv", np.array([0.0, 1.0]))
        io.save_vector(instance_dir / "q0.csv", np.array([0.5, 0.5]))
        out = instance_dir / "out"
        code = cli.main([
            "aam", "--cost", str(instance_dir / "C.csv"),
            "--source", str(instance_dir / "p0.csv"),
            "--target", str(instance_dir / "q0.csv"),
            "--eps", "0.05", "--output-dir", str(out), "--quiet",
        ])
        assert code == 0
        rep = read_report(out)
        assert 0.5 - 1e-12 <= rep["objective"] <= 0.5 + 0.05
        assert rep["objective"] - 0.5 <= rep["certificate"] <= 0.05

    def test_aam_gamma_zero_marginal_exit_3(self, instance_dir, capsys):
        io.save_vector(instance_dir / "p0.csv", np.array([0.0, 1.0]))
        io.save_vector(instance_dir / "q0.csv", np.array([0.5, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no log(0) warning first
            code = cli.main([
                "aam", "--cost", str(instance_dir / "C.csv"),
                "--source", str(instance_dir / "p0.csv"),
                "--target", str(instance_dir / "q0.csv"),
                "--eps", "0.05", "--gamma", "0.05",
                "--output-dir", str(instance_dir / "out"), "--quiet",
            ])
        assert code == 3
        assert "marginal must be strictly positive, found 0" in capsys.readouterr().err

    def test_round_command(self, instance_dir):
        io.save_matrix(instance_dir / "pi.csv", np.array([[0.5, 0.1], [0.1, 0.3]]))
        io.save_vector(instance_dir / "u.csv", np.array([0.5, 0.5]))
        out = instance_dir / "out"
        code = cli.main([
            "round", "--plan", str(instance_dir / "pi.csv"),
            "--source", str(instance_dir / "u.csv"),
            "--target", str(instance_dir / "u.csv"),
            "--output-dir", str(out), "--quiet",
        ])
        assert code == 0
        plan = io.load_matrix(out / "plan.csv")
        assert np.allclose(plan, [[0.403226, 0.096774], [0.096774, 0.403226]], atol=1e-6)

    def test_round_honours_allow_asymmetric(self, instance_dir):
        io.save_matrix(instance_dir / "pi.csv", np.array([[0.5, 0.1], [0.1, 0.3]]))
        io.save_matrix(instance_dir / "A.csv", np.array([[0.0, 1.0], [2.0, 0.0]]))
        out = instance_dir / "out"
        code = cli.main([
            "round", "--plan", str(instance_dir / "pi.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--cost", str(instance_dir / "A.csv"),
            "--output-dir", str(out), "--quiet",
        ])
        assert code == 0
        plan = io.load_matrix(out / "plan.csv")
        expected = float((plan * np.array([[0.0, 1.0], [2.0, 0.0]])).sum())
        assert read_report(out)["objective"] == pytest.approx(expected, rel=1e-15)

    def test_aam_pipeline_and_override(self, instance_dir):
        out1 = instance_dir / "out1"
        code = cli.main([
            "aam", "--cost", str(instance_dir / "C.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--eps", "0.05", "--output-dir", str(out1), "--quiet",
        ])
        assert code == 0
        rep = read_report(out1)
        assert rep["params"]["gamma_override"] is False
        assert 0.3 <= rep["objective"] <= 0.35

        out2 = instance_dir / "out2"
        code = cli.main([
            "aam", "--cost", str(instance_dir / "C.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--eps", "0.05", "--gamma", "0.05",
            "--output-dir", str(out2), "--quiet",
        ])
        assert code == 0
        rep = read_report(out2)
        assert rep["params"]["gamma_override"] is True
        assert rep["params"]["gamma"] == 0.05

    def test_aam_gamma_mode_trace(self, instance_dir):
        trace = instance_dir / "trace.csv"
        code = cli.main([
            "aam", "--cost", str(instance_dir / "C.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--eps", "0.05", "--gamma", "0.1", "--gap-tol", "1e-6",
            "--output-dir", str(instance_dir / "out"), "--trace", str(trace), "--quiet",
        ])
        assert code == 0
        header, *rows = trace.read_text().splitlines()
        assert header.split(",") == [*GAP_TRACE_COLUMNS, "certificate_width"]
        iterations = [int(row.split(",")[0]) for row in rows]
        assert iterations == list(range(10, 10 * len(rows) + 1, 10))
        report = read_report(instance_dir / "out")
        assert report["iterations"] == iterations[-1]
        assert float(rows[-1].split(",")[-1]) == report["certificate"] <= 1e-6

    def test_oracle_ot(self, instance_dir):
        out = instance_dir / "out"
        code = cli.main([
            "oracle", "ot", "--cost", str(instance_dir / "C.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--output-dir", str(out), "--quiet",
        ])
        assert code == 0
        rep = read_report(out)
        assert rep["objective"] == pytest.approx(0.3, abs=1e-10)
        # the report's iterations are the LP's simplex pivots
        sol = otkit.exact_ot_lp([[0.0, 1.0], [1.0, 0.0]], [0.3, 0.7], [0.6, 0.4])
        assert rep["iterations"] == sol.pivots > 0

    def test_oracle_barycenter_reports_pivots(self, tmp_path):
        rng = np.random.default_rng(2)
        mdir = tmp_path / "measures"
        mdir.mkdir()
        weights = []
        for idx in range(1, 3):
            w = rng.uniform(0.5, 1.5, 3)
            io.save_vector(mdir / f"p_{idx}.csv", w / w.sum())
            weights.append(io.load_measure(mdir / f"p_{idx}.csv").weights)
        U = rng.uniform(0.2, 1.0, (3, 3))
        C = 0.5 * (U + U.T)
        np.fill_diagonal(C, 0.0)
        io.save_matrix(tmp_path / "C.csv", C)
        out = tmp_path / "out"
        code = cli.main([
            "oracle", "barycenter", "--measures", str(mdir),
            "--cost", str(tmp_path / "C.csv"), "--output-dir", str(out), "--quiet",
        ])
        assert code == 0
        rep = read_report(out)
        q_opt, objective = otkit.exact_barycenter_lp(weights, io.load_cost(tmp_path / "C.csv"))
        assert rep["objective"] == objective
        assert np.array_equal(io.load_measure(out / "q_bar.csv").weights, q_opt)
        # the report's iterations are the LP's simplex pivots
        sol = otkit.oracle._barycenter_lp(weights, io.load_cost(tmp_path / "C.csv"))
        assert rep["iterations"] == sol.pivots > 0

    def test_oracle_requires_problem_inputs(self, instance_dir, capsys):
        code = cli.main([
            "oracle", "ot", "--cost", str(instance_dir / "C.csv"),
        ])
        assert code == 3

    def test_barycenter_command(self, tmp_path):
        rng = np.random.default_rng(0)
        mdir = tmp_path / "measures"
        mdir.mkdir()
        for idx in range(1, 3):
            w = rng.uniform(0.5, 1.5, 3)
            io.save_vector(mdir / f"p_{idx}.csv", w / w.sum())
        U = rng.uniform(0.2, 1.0, (3, 3))
        C = 0.5 * (U + U.T)
        np.fill_diagonal(C, 0.0)
        io.save_matrix(tmp_path / "C.csv", C)
        out = tmp_path / "out"
        code = cli.main([
            "barycenter", "--method", "ibp", "--measures", str(mdir),
            "--cost", str(tmp_path / "C.csv"), "--eps", str(0.25 * C.max()),
            "--output-dir", str(out), "--quiet",
        ])
        assert code == 0
        q_bar = io.load_measure(out / "q_bar.csv")
        assert q_bar.n == 3
        assert (out / "plan_1.csv").exists() and (out / "plan_2.csv").exists()

    @pytest.mark.parametrize("method", ["ibp", "aibp"])
    def test_barycenter_on_asymmetric_cost(self, tmp_path, method):
        rng = np.random.default_rng(3)
        mdir = tmp_path / "measures"
        mdir.mkdir()
        for idx in range(1, 3):
            io.save_vector(mdir / f"p_{idx}.csv", rng.dirichlet(np.ones(4)))
        C = rng.uniform(0.2, 1.0, (4, 4))
        np.fill_diagonal(C, 0.0)
        io.save_matrix(tmp_path / "C.csv", C)
        out = tmp_path / "out"
        code = cli.main([
            "barycenter", "--method", method, "--measures", str(mdir),
            "--cost", str(tmp_path / "C.csv"), "--eps", "0.1",
            "--output-dir", str(out), "--quiet",
        ])
        assert code == 0
        measures = [io.load_measure(mdir / f"p_{idx}.csv") for idx in range(1, 3)]
        solver = otkit.barycenter_ibp if method == "ibp" else otkit.accelerated_ibp
        q_bar, _, _ = solver(measures, io.load_cost(tmp_path / "C.csv"), 0.1)
        assert np.array_equal(io.load_matrix(out / "q_bar.csv")[:, 0], q_bar)

    def test_decentralized_command(self, tmp_path):
        rng = np.random.default_rng(1)
        mdir = tmp_path / "measures"
        mdir.mkdir()
        for idx in range(1, 4):
            w = rng.uniform(0.5, 1.5, 4)
            io.save_vector(mdir / f"p_{idx}.csv", w / w.sum())
        U = rng.uniform(0.2, 1.0, (4, 4))
        C = 0.5 * (U + U.T)
        np.fill_diagonal(C, 0.0)
        io.save_matrix(tmp_path / "C.csv", C)
        (tmp_path / "g.txt").write_text("0 1\n1 2\n")
        out = tmp_path / "out"
        trace = tmp_path / "trace.csv"
        code = cli.main([
            "decentralized", "--graph", str(tmp_path / "g.txt"),
            "--measures", str(mdir), "--cost", str(tmp_path / "C.csv"),
            "--gamma", "0.1", "--rounds", "40", "--seed", "3",
            "--output-dir", str(out), "--trace", str(trace), "--quiet",
        ])
        assert code == 0
        q_locals = io.load_matrix(out / "q_locals.csv")
        assert q_locals.shape == (3, 4)
        assert trace.read_text().splitlines()[0] == "round,consensus_error,dual_value,messages"
        report = read_report(out)
        assert report["seed"] == 3

    def test_determinism_excluding_wall_time(self, instance_dir):
        outs = []
        for name in ("a", "b"):
            out = instance_dir / name
            code = cli.main([
                "approx", "--cost", str(instance_dir / "C.csv"),
                "--source", str(instance_dir / "p.csv"),
                "--target", str(instance_dir / "q.csv"),
                "--eps", "0.05", "--output-dir", str(out), "--quiet",
            ])
            assert code == 0
            lines = (out / "report.json").read_text().splitlines()
            outs.append([ln for ln in lines if '"wall_time"' not in ln])
        assert outs[0] == outs[1]

    def test_report_key_order(self, instance_dir):
        out = instance_dir / "out"
        cli.main([
            "approx", "--cost", str(instance_dir / "C.csv"),
            "--source", str(instance_dir / "p.csv"),
            "--target", str(instance_dir / "q.csv"),
            "--eps", "0.05", "--output-dir", str(out), "--quiet",
        ])
        keys = list(read_report(out))
        assert keys == ["objective", "iterations", "certificate", "wall_time", "seed", "params"]

    def test_verify_single_fast_criterion(self, capsys):
        code = cli.main(["verify", "--only", "3"])
        assert code == 0
        assert "criterion 3" in capsys.readouterr().out

    def test_verify_rejects_unknown_criterion(self, capsys):
        code = cli.main(["verify", "--only", "99"])
        assert code == 3
        assert "99" in capsys.readouterr().err

    def test_verify_only_needs_integers(self, capsys):
        code = cli.main(["verify", "--only", "1,x"])
        assert code == 3
        assert "--only" in capsys.readouterr().err


def test_input_errors_through_main(instance_dir, capsys):
    # A missing input exits 3, names the file and leaves no output behind.
    out = instance_dir / "out"
    io.save_matrix(instance_dir / "pi.csv", np.array([[0.5, 0.1], [0.1, 0.3]]))
    code = cli.main([
        "round", "--plan", str(instance_dir / "pi.csv"),
        "--source", str(instance_dir / "p.csv"),
        "--target", str(instance_dir / "q.csv"),
        "--cost", str(instance_dir / "missing.csv"),
        "--output-dir", str(out), "--quiet",
    ])
    assert code == 3
    assert "missing.csv" in capsys.readouterr().err
    assert not out.exists()
    # An unknown command is a usage error, which exits 3 too.
    assert cli.main(["noop"]) == 3


# Each command's argv, valid as it stands; the flag after it is one the
# command does not read.
UNREAD_FLAGS = [
    (["sinkhorn", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv",
      "--gamma", "0.1", "--tol", "1e-6"], ["--seed", "3"]),
    (["approx", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv",
      "--eps", "0.05"], ["--seed", "3"]),
    (["aam", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv",
      "--eps", "0.05"], ["--seed", "3"]),
    (["barycenter", "--method", "ibp", "--measures", "m", "--cost", "C.csv",
      "--eps", "0.05"], ["--seed", "3"]),
    (["round", "--plan", "pi.csv", "--source", "p.csv", "--target", "q.csv"],
     ["--trace", "t.csv"]),
    (["round", "--plan", "pi.csv", "--source", "p.csv", "--target", "q.csv"],
     ["--seed", "3"]),
    (["oracle", "ot", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv"],
     ["--trace", "t.csv"]),
    (["oracle", "ot", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv"],
     ["--seed", "3"]),
    (["verify", "--only", "3"], ["--output-dir", "d"]),
    (["verify", "--only", "3"], ["--trace", "t.csv"]),
    (["verify", "--only", "3"], ["--seed", "3"]),
    (["verify", "--only", "3"], ["--allow-asymmetric"]),
    (["oracle", "barycenter", "--measures", "m", "--cost", "C.csv"],
     ["--source", "p.csv", "--target", "q.csv"]),
    (["oracle", "ot", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv"],
     ["--measures", "m"]),
    (["aam", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv",
      "--eps", "0.05"], ["--gap-tol", "1e-6"]),
] + [
    (argv, ["--allow-asymmetric"]) for argv in (
        ["sinkhorn", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv",
         "--gamma", "0.1", "--tol", "1e-6"],
        ["approx", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv", "--eps", "0.05"],
        ["aam", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv", "--eps", "0.05"],
        ["round", "--plan", "pi.csv", "--source", "p.csv", "--target", "q.csv", "--cost", "C.csv"],
        ["barycenter", "--method", "ibp", "--measures", "m", "--cost", "C.csv", "--eps", "0.05"],
        ["decentralized", "--graph", "g.txt", "--measures", "m", "--cost", "C.csv",
         "--gamma", "0.1", "--rounds", "3"],
        ["oracle", "ot", "--cost", "C.csv", "--source", "p.csv", "--target", "q.csv"],
    )
]


@pytest.mark.parametrize(
    "argv, flag", UNREAD_FLAGS, ids=[f"{a[0]}{f[0]}" for a, f in UNREAD_FLAGS]
)
def test_unread_flag_is_a_usage_error(argv, flag, capsys):
    cli._build_parser().parse_args(argv)
    assert cli.main(argv + flag) == 3
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag[0] in err


def _ring_instance(tmp_path):
    """Three measures on four points, a path graph and a symmetric cost,
    written under ``tmp_path``; returns the stochastic decentralized argv
    without its output flags."""
    rng = np.random.default_rng(1)
    mdir = tmp_path / "measures"
    mdir.mkdir(parents=True)
    for idx in range(1, 4):
        w = rng.uniform(0.5, 1.5, 4)
        io.save_vector(mdir / f"p_{idx}.csv", w / w.sum())
    U = rng.uniform(0.2, 1.0, (4, 4))
    C = 0.5 * (U + U.T)
    np.fill_diagonal(C, 0.0)
    io.save_matrix(tmp_path / "C.csv", C)
    (tmp_path / "g.txt").write_text("0 1\n1 2\n")
    return [
        "decentralized", "--graph", str(tmp_path / "g.txt"), "--measures", str(mdir),
        "--cost", str(tmp_path / "C.csv"), "--gamma", "0.1", "--rounds", "40",
        "--stochastic", "--quiet",
    ]


def test_report_seed_only_where_seeded(instance_dir):
    out = instance_dir / "out"
    assert cli.main([
        "approx", "--cost", str(instance_dir / "C.csv"),
        "--source", str(instance_dir / "p.csv"),
        "--target", str(instance_dir / "q.csv"),
        "--eps", "0.05", "--output-dir", str(out), "--quiet",
    ]) == 0
    assert read_report(out)["seed"] is None
    ring = instance_dir / "ring"
    assert cli.main(_ring_instance(ring) + ["--seed", "3", "--output-dir", str(out)]) == 0
    assert read_report(out)["seed"] == 3


def test_decentralized_seed_defaults_to_0(tmp_path):
    argv = _ring_instance(tmp_path)
    outs = []
    for name, extra in (("default", []), ("zero", ["--seed", "0"])):
        out = tmp_path / name
        trace = tmp_path / f"{name}.csv"
        assert cli.main(argv + extra + ["--output-dir", str(out), "--trace", str(trace)]) == 0
        report = [ln for ln in (out / "report.json").read_text().splitlines()
                  if '"wall_time"' not in ln]
        outs.append((report, (out / "q_locals.csv").read_bytes(), trace.read_bytes()))
    assert outs[0] == outs[1]

def loaded_after_import(package):
    """Modules of ``package`` that `import otkit, otkit.cli` loads in a fresh
    interpreter."""
    src = str(Path(otkit.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import otkit, otkit.cli; "
        f"print(sorted(m for m in sys.modules if m == {package!r} "
        f"or m.startswith({package + '.'!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # Importing scipy.special alone took about 0.27 s, paid by every `ot` run.
    assert loaded_after_import("scipy") == "[]"


def test_import_leaves_verify_unloaded():
    # The acceptance criteria are imported by `ot verify` alone.
    assert loaded_after_import("otkit.verify") == "[]"
