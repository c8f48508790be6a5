import dataclasses
import json
import math
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridmc import certificate as ce
from gridmc import cli
from gridmc import completion as cp
from gridmc import linflow as lf

INSTANCE = [
    "--feeder", "random", "--buses", "8", "--time-steps", "1",
    "--policy", "uniform", "--fraction", "0.8",
]
FAST = [
    *INSTANCE, "--rank", "2",
    "--max-iters", "25", "--mu", "100", "--nu", "100",
    "--gamma", "10", "--lambda", "10",
]


def fast_config(**overrides):
    admm = cp.AdmmConfig(
        mu=100.0, nu=100.0, gamma=10.0, lam=10.0, rank=2, max_iters=25
    )
    base = dict(
        feeder="random", n_buses=8, time_steps=1, areas=3,
        policy="uniform", fraction=0.8, noise_pct=1.0, runs=1, seed=0,
        admm=admm,
    )
    base.update(overrides)
    return cli.ExperimentConfig(**base)


class TestRunExperiment:
    def test_reproducible_results_json(self, tmp_path):
        """Two identical runs produce byte-identical results.json; the
        timestamp lives only in metadata.json."""
        p1, p2 = tmp_path / "a", tmp_path / "b"
        cli.run_experiment(fast_config(), p1)
        cli.run_experiment(fast_config(), p2)
        assert (p1 / "results.json").read_bytes() == (p2 / "results.json").read_bytes()
        assert "completed_at" in json.loads((p1 / "metadata.json").read_text())
        assert "completed_at" not in (p1 / "results.json").read_text()

    def test_metadata_reports_wall_time_per_layer(self, tmp_path):
        """metadata.json times every layer of the run under the span names
        of perfbench/tracer.py; results.json stays timing-free."""
        cli.run_experiment(fast_config(runs=2), tmp_path)
        wall = json.loads((tmp_path / "metadata.json").read_text())["layer_wall_s"]
        assert set(wall) == {
            "gridmodel.feeder", "gridmodel.flow", "linflow.model", "linflow.maps",
            "datamatrix.sample", "completion.solve", "metrics.evaluate",
            "certificate.build", "certificate.report", "cli.write",
        }
        assert all(isinstance(s, float) and s >= 0.0 for s in wall.values())
        assert "wall" not in (tmp_path / "results.json").read_text()

    def test_payload_schema(self, tmp_path):
        payload = cli.run_experiment(fast_config(runs=2), tmp_path)
        assert set(payload) == {
            "version", "config", "estimate", "per_run", "certificate",
            "communication", "iterations", "converged", "final_consensus",
            "final_objective", "low_observability", "truncation_error",
        }
        assert len(payload["per_run"]) == 2
        assert payload["estimate"]["n_runs"] == 2
        assert payload["config"]["admm"]["mu"] == 100.0
        pairs = [c["pair"] for c in payload["communication"]]
        assert pairs == [[1, 2], [2, 3]]
        for c in payload["communication"]:
            assert c["per_iteration_measured"] == c["protocol_formula"]

    def test_per_run_entries_describe_their_own_run(self, tmp_path):
        """With --runs 2 each per_run entry names its seed and reports its
        own iterations and stop; the top-level fields are the last run's."""
        payload = cli.run_experiment(fast_config(runs=2, areas=1), tmp_path)
        first, last = payload["per_run"]
        assert (first["seed"], last["seed"]) == (0, 1)
        assert first["converged"] and last["converged"]
        assert first["iterations"] != last["iterations"]
        assert payload["iterations"] == last["iterations"]
        assert payload["converged"] == last["converged"]
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + last["iterations"]

    def test_config_echoes_the_seed_the_run_used(self, tmp_path):
        """The solver seed in results.json is the run's seed, not the one
        given in the AdmmConfig, and the run is the one that seed draws."""
        payload = cli.run_experiment(fast_config(seed=3, admm=cp.AdmmConfig(
            mu=100.0, nu=100.0, gamma=10.0, lam=10.0, rank=2, max_iters=25, seed=7)),
            tmp_path / "a")
        assert payload["config"]["seed"] == payload["config"]["admm"]["seed"] == 3
        assert payload["per_run"][0]["seed"] == 3
        same = cli.run_experiment(fast_config(seed=3), tmp_path / "b")
        assert payload == same

    def test_centralized_has_no_communication(self, tmp_path):
        payload = cli.run_experiment(fast_config(areas=1), tmp_path)
        assert payload["communication"] == []
        assert payload["final_consensus"] == 0.0
        last = (tmp_path / "trace.csv").read_text().splitlines()[-1].split(",")
        assert payload["final_objective"] == float(last[3])

    def test_one_area_reports_no_truncation(self, tmp_path):
        """One area keeps every coupling of N, so the run's model is the
        network's."""
        payload = cli.run_experiment(fast_config(areas=1), tmp_path)
        assert payload["truncation_error"] == 0.0

    def test_unknown_feeder_kind_rejected(self):
        with pytest.raises(cli.CliError):
            cli._build_instance(fast_config(feeder="bogus"))

    def test_csv_outputs(self, tmp_path):
        payload = cli.run_experiment(fast_config(), tmp_path)
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,rmse,consensus,objective,max_area_ms"
        assert len(trace) == 1 + payload["iterations"]
        spectrum = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "index,sigma"
        assert len(spectrum) == 1 + 5  # min(5 rows, 7 phases) singular values

    def test_partial_outputs_removed_on_error(self, tmp_path, monkeypatch):
        """A failure after results.json and trace.csv are written removes
        both."""
        def fail(x, path):
            assert (tmp_path / "results.json").exists()
            assert (tmp_path / "trace.csv").exists()
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_spectrum_csv", fail)
        with pytest.raises(OSError, match="disk full"):
            cli.run_experiment(fast_config(), tmp_path)
        assert not any(tmp_path.iterdir())

    def test_execution_order_does_not_change_results(self, tmp_path):
        """A fixed permutation schedule yields the same payload as the
        default order."""
        base = cli.run_experiment(fast_config(), tmp_path / "base")
        order = {k: [3, 1, 2] for k in range(2 * 25)}
        alt = cli.run_experiment(fast_config(), tmp_path / "alt", order=order)
        assert base == alt


class TestRunPathIsMatrixFree:
    @pytest.mark.parametrize("areas", [3, 1])
    def test_no_dense_view_is_built(self, tmp_path, monkeypatch, areas):
        """A run, certificate included, applies the per-step blocks G_lj
        only: neither the dense E_lj maps nor the dense certificate matrix
        is ever assembled."""
        def refuse(*args, **kwargs):
            raise AssertionError("dense E_lj assembled during a run")

        monkeypatch.setattr(lf, "_repeat_steps", refuse)
        built = {}

        def keep(name, fn):
            def wrapper(*args, **kwargs):
                built[name] = fn(*args, **kwargs)
                return built[name]
            return wrapper

        monkeypatch.setattr(lf, "build_area_maps", keep("maps", lf.build_area_maps))
        monkeypatch.setattr(ce, "build_B_d", keep("op", ce.build_B_d))
        config = cli.ExperimentConfig(
            feeder="feeder33", time_steps=2, areas=areas, policy="scada",
            fraction=0.5, noise_pct=1.0, seed=0,
            admm=cp.AdmmConfig(mu=1e4, nu=1e4, gamma=1e3, lam=1e3, rank=5,
                               max_iters=20),
        )
        payload = cli.run_experiment(config, tmp_path)
        assert built["maps"].partition.n_areas == areas
        assert "e_mats" not in vars(built["maps"])
        assert "b_mat" not in vars(built["op"])
        assert payload["certificate"]["spectral_norm"] > 0.0


class TestRunNumerics:
    def test_metadata_records_the_numerics(self, tmp_path, monkeypatch):
        """metadata.json names the Python, numpy and BLAS builds and the
        BLAS thread variables, null when unset; results.json names none."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cli.run_experiment(fast_config(), tmp_path)
        numerics = json.loads((tmp_path / "metadata.json").read_text())["numerics"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert numerics == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                        "MKL_NUM_THREADS": None},
        }
        assert "numerics" not in (tmp_path / "results.json").read_text()


class TestRunPathImports:
    """An estimation run loads no scipy.linalg, scipy.stats or scipy.io;
    `--runs 2` loads scipy.stats on first use for its confidence intervals.
    The check runs in a fresh interpreter, since this process has scipy
    loaded."""

    SCRIPT = """
import json, sys
from pathlib import Path
from gridmc import cli
from reference import admm_config
config = cli.ExperimentConfig(feeder="feeder33", time_steps=2, areas=3,
                              runs=int(sys.argv[2]),
                              admm=admm_config(max_iters=5))
ci95 = cli.run_experiment(config, Path(sys.argv[1]))["estimate"]["ci95"]
print(json.dumps({"loaded": [m for m in ("scipy.linalg", "scipy.stats", "scipy.io")
                             if m in sys.modules], "ci95": ci95}))
"""

    @pytest.mark.parametrize("runs", [1, 2])
    def test_subpackages_load_only_on_use(self, tmp_path, runs):
        tests = Path(__file__).resolve().parent
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path), str(runs)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        if runs == 1:
            assert out["loaded"] == []
            assert out["ci95"] is None
        else:
            assert "scipy.stats" in out["loaded"]
            assert "scipy.io" not in out["loaded"]
            assert set(out["ci95"]) == {"mape_magnitude_pct", "mae_angle_deg", "rmse"}
            assert all(math.isfinite(v) for v in out["ci95"].values())


class TestInstanceBuild:
    def test_no_linalg_call_on_a_network_sized_matrix(self, monkeypatch):
        """At the random128-t5-a5 settings the whole instance build (feeder,
        flow, linear model, area maps) makes no np.linalg call on a
        |P| x |P| matrix: the Z-bus is a path sum, with nothing to factor."""
        config = cli.ExperimentConfig(feeder="random", n_buses=129, time_steps=5,
                                      areas=5)
        calls = []
        for name in np.linalg.__all__:
            if isinstance(getattr(np.linalg, name), type):
                continue  # LinAlgError

            def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                if np.shape(a) == (128, 128):
                    calls.append(_name)
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        cli._build_instance(config)
        assert calls == []


class TestPinnedReference:
    # feeder33, T=10, one area, paper weights, rank 5, instance seed 0, as
    # estimated by the over-relaxed U/V block updates, each followed by
    # `balance`, and the final exact V step
    CONFIG = cli.ExperimentConfig(
        feeder="feeder33", time_steps=10, areas=1, policy="scada",
        fraction=0.5, noise_pct=1.0, seed=0,
        admm=cp.AdmmConfig(mu=1e4, nu=1e4, gamma=1e3, lam=1e3, rank=5,
                           max_iters=500, seed=0),
    )
    PINNED_MAPE_PCT = 0.18059918469904973
    PINNED_MAE_DEG = 0.12309200861012144
    # its certificate, evaluated on the noisy data the run solved; the
    # spectral norm is the exact sigma_1 of one SVD of R
    PINNED_CERTIFICATE = {
        "spectral_norm": 350.1739014352029,
        "grad_u_norm": 0.07557464489311942,
        "grad_v_norm": 2.033123891365862e-06,
        "stationarity_u": 0.007664223287304553,
        "stationarity_v": 2.0619654727008577e-07,
        "trace_residuals": [-5.6910945289700976e-08, -5.6910952395128334e-08],
        "comp_slack_residual": 5.6910948842414655e-08,
        "dual_feasibility_min_eig": -61310.38062317559,
    }
    # 0.5(|U|^2 + |V|^2) of its factors, the size of the order-one terms
    # whose rounding residuals the gradients, the stationarity fields, the
    # trace residuals and the slack are; test_feeder33_t10_single_area
    # checks it against the run
    FACTOR_SCALE = 24.305520039599458
    # two BLAS threads move the trace residuals and the slack by up to
    # 7.9e-10 and grad_u_norm by up to 1.5e-9, inside 3e-10 * FACTOR_SCALE =
    # 7.3e-9
    RESIDUAL_TOL = 3e-10 * FACTOR_SCALE
    RESIDUAL_FIELDS = ("grad_u_norm", "grad_v_norm", "stationarity_u",
                       "stationarity_v", "comp_slack_residual")

    def test_feeder33_t10_single_area(self):
        config = self.CONFIG
        result, report, *_ = cli._single_run(
            config, cli._build_instance(config), config.seed)
        assert result.converged
        assert report.mape_magnitude_pct == pytest.approx(self.PINNED_MAPE_PCT, rel=1e-8)
        assert report.mae_angle_deg == pytest.approx(self.PINNED_MAE_DEG, rel=1e-8)
        u, v = result.factors()
        scale = 0.5 * (np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2)
        assert scale == pytest.approx(self.FACTOR_SCALE, rel=1e-8)

    def test_feeder33_t2_five_areas(self):
        """Five areas run the plain ADMM steps, which the single area's
        over-relaxation must not reach: at T=2, capped at 60 iterations, the
        run keeps the figures it read before that relaxation existed."""
        config = dataclasses.replace(
            self.CONFIG, time_steps=2, areas=5,
            admm=dataclasses.replace(self.CONFIG.admm, max_iters=60))
        result, report, *_ = cli._single_run(
            config, cli._build_instance(config), config.seed)
        assert result.trace.iterations == 60 and not result.converged
        assert report.mape_magnitude_pct == pytest.approx(1.8098468198412072, rel=1e-8)
        assert report.mae_angle_deg == pytest.approx(0.9608449574300244, rel=1e-8)
        assert result.trace.objective[-1] == pytest.approx(37.91353454379747, rel=1e-8)

    def test_single_area_factors_multiply_to_the_estimate(self):
        """With one area the consensus-averaged pair the certificate reads
        is the area's own (U, V), so its product is the estimate x bit for
        bit."""
        config = self.CONFIG
        result, *_ = cli._single_run(config, cli._build_instance(config), config.seed)
        u, v = result.factors()
        assert np.array_equal(u @ v, result.x)

    def test_certificate_checks_the_data_solved(self, tmp_path, monkeypatch):
        """The run stops near a stationary point of the data it solved, so
        the certificate's grad_v_norm is small against |V| (2.0e-6 against
        4.93).  Evaluated at the noise-free matrix, which the solver never
        saw, it reads 1,301."""
        factors = {}
        full_report = ce.full_report

        def keep(u, v, op):
            factors["v"] = v
            return full_report(u, v, op)

        monkeypatch.setattr(ce, "full_report", keep)
        payload = cli.run_experiment(self.CONFIG, tmp_path)
        assert self.CONFIG.noise_pct > 0 and payload["converged"]
        v_norm = float(np.linalg.norm(factors["v"]))
        assert payload["certificate"]["grad_v_norm"] < 1e-3 * v_norm

    def test_feeder33_t10_single_area_certificate(self, tmp_path):
        """The certificate of the same configuration, as `gridmc run` writes
        it, run with one BLAS thread.  The order-one fields match within 1e-12
        relative.  At a near-stationary point the gradients, the trace
        residuals and the slack are differences of order-one terms, which any
        change of summation order moves, so they match within RESIDUAL_TOL
        absolute."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "gridmc.cli", "run", "--feeder", "feeder33",
             "--time-steps", "10", "--areas", "1", "--rank", "5",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["converged"]
        cert = payload["certificate"]
        assert not cert["theorem1_pass"] and cert["mu"] == 1e4
        pinned = self.PINNED_CERTIFICATE
        for key in self.RESIDUAL_FIELDS:
            assert cert[key] == pytest.approx(pinned[key], abs=self.RESIDUAL_TOL), key
        for got, want in zip(cert["trace_residuals"], pinned["trace_residuals"]):
            assert got == pytest.approx(want, abs=self.RESIDUAL_TOL)
        for key in ("spectral_norm", "dual_feasibility_min_eig"):
            assert cert[key] == pytest.approx(pinned[key], rel=1e-12), key

    def test_capped_run_ends_on_the_exact_v_step(self, tmp_path):
        """A run stopped by the iteration cap ends on the exact V step too:
        capped at 10 iterations, the factors it returns read relative V
        stationarity 2.6e-4 (0.76 without that step)."""
        config = dataclasses.replace(
            self.CONFIG, admm=dataclasses.replace(self.CONFIG.admm, max_iters=10))
        payload = cli.run_experiment(config, tmp_path)
        assert payload["iterations"] == 10 and not payload["converged"]
        assert payload["certificate"]["stationarity_v"] < 1e-2

    def test_tight_tolerance_stops_at_a_stationary_point(self, tmp_path):
        """With the balanced factors, `converged` at tol 1e-10 means the U
        gradient is 9.2e-7 of its two terms' size (without them the run
        read 0.79 after 3,000 iterations)."""
        config = dataclasses.replace(
            self.CONFIG, admm=dataclasses.replace(self.CONFIG.admm, tol=1e-10))
        payload = cli.run_experiment(config, tmp_path)
        assert payload["converged"]
        assert payload["certificate"]["stationarity_u"] <= 1e-5
        assert payload["certificate"]["stationarity_v"] <= 1e-5


def _leaves(tree, path=()):
    """(path, value) of every leaf of a JSON tree, keys in sorted order."""
    if isinstance(tree, dict):
        for key in sorted(tree):
            yield from _leaves(tree[key], path + (key,))
    elif isinstance(tree, list):
        for i, item in enumerate(tree):
            yield from _leaves(item, path + (i,))
    else:
        yield path, tree


class TestBlasThreadCounts:
    """`gridmc run` at one and at two BLAS threads writes the same
    results.json up to rounding: every non-float field is equal and each
    float lies within the tolerance of its top-level field."""

    ARGS = ["--feeder", "random", "--buses", "129", "--time-steps", "5",
            "--areas", "5", "--rank", "5", "--max-iters", "40"]
    # relative bounds; measured at 1 against 2 threads (OpenBLAS, 2 vCPU),
    # the estimate fields moved by up to 4.4e-13, the objective and
    # consensus by 4.7e-13, the certificate by 1.2e-11 and
    # truncation_error by 5.2e-16
    REL_TOL = {"estimate": 1e-11, "per_run": 1e-11, "final_objective": 1e-11,
               "final_consensus": 1e-11, "certificate": 1e-9,
               "truncation_error": 1e-13}
    # a certificate field may instead lie within TestPinnedReference's
    # absolute bound per unit 0.5(|U|^2 + |V|^2): near a stationary point
    # the gradients, trace residuals and slack are rounding residuals of
    # order-one terms, which no relative bound holds
    RESIDUAL_PER_SCALE = TestPinnedReference.RESIDUAL_TOL / TestPinnedReference.FACTOR_SCALE

    def test_results_agree_within_the_stated_tolerances(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        payloads = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / threads
            proc = subprocess.run(
                [sys.executable, "-m", "gridmc.cli", "run", *self.ARGS, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            payloads.append(list(_leaves(json.loads((out / "results.json").read_text()))))
        config = cli._config_from_args(cli.build_parser().parse_args(["run", *self.ARGS]))
        result, *_ = cli._single_run(config, cli._build_instance(config), config.seed)
        u, v = result.factors()
        residual_tol = self.RESIDUAL_PER_SCALE * 0.5 * (
            np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2)

        one, two = payloads
        assert [path for path, _ in one] == [path for path, _ in two]
        for (path, x), (_, y) in zip(one, two):
            if type(x) is not float or x == y:
                assert type(x) is type(y) and x == y, path
                continue
            tol = self.REL_TOL[path[0]] * max(abs(x), abs(y))
            if path[0] == "certificate":
                tol = max(tol, residual_tol)
            assert abs(x - y) <= tol, (path, x, y)


class TestParserDefaults:
    def test_run_flags_default_to_the_config(self):
        """Every `gridmc run` option's dest is an `ExperimentConfig` or
        `AdmmConfig` field and its default is that field's, so each name and
        each default is written once."""
        args = vars(cli.build_parser().parse_args(["run"]))
        config = cli.ExperimentConfig()
        fields = {**vars(config.admm), **vars(config)}
        del fields["admm"]
        flags = set(args) - {"command", "fn", "out"}
        assert flags == set(fields)
        for flag in sorted(flags):
            assert args[flag] == fields[flag], flag
        assert args["seed"] == config.admm.seed


class TestReadme:
    def test_quick_start_runs_verbatim(self, tmp_path):
        """The README's Python quick start, run as written in an empty
        directory, so the documented API cannot drift from the code."""
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        quick_start = readme.split("## Quick start\n", 1)[1]
        code = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "mape_magnitude_pct" in proc.stdout
        assert len(list(tmp_path.rglob("results.json"))) == 1

    def test_shell_commands_parse(self):
        """Every `gridmc` command of the README's sh blocks, continuation
        lines joined, parses with the CLI's own parser."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [block.split("```", 1)[0] for block in readme.split("```sh\n")[1:]]
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
        commands = [line for line in lines if line.startswith("gridmc ")]
        assert commands
        parser = cli.build_parser()
        for line in commands:
            parser.parse_args(shlex.split(line)[1:])


class TestCommands:
    def test_gen_feeder(self, tmp_path, capsys):
        """One build writes the matrix, the area assignment, the model
        summary and both spectra."""
        rc = cli.main(["gen-feeder", *INSTANCE, "--areas", "3",
                       "--out", str(tmp_path)])
        assert rc == 0
        mat = np.loadtxt(tmp_path / "matrix.csv", delimiter=",")
        assert mat.shape == (5, 7)  # T=1, 8 buses less the slack
        assert np.loadtxt(tmp_path / "assignment.csv").shape == (7,)
        model = json.loads((tmp_path / "model.json").read_text())
        assert set(model) == {"version", "n_phases", "time_steps", "areas",
                              "truncation_error"}
        assert (model["n_phases"], model["time_steps"], model["areas"]) == (7, 1, 3)
        assert model["truncation_error"] >= 0.0
        for name in ("spectrum.csv", "spectrum_observed.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "index,sigma"
            assert len(lines) == 1 + 5  # min(5 rows, 7 phases) singular values
        sigma = np.linalg.svd(mat, compute_uv=False)
        assert np.allclose(np.loadtxt(tmp_path / "spectrum.csv", delimiter=",",
                                      skiprows=1)[:, 1], sigma)
        out = capsys.readouterr().out
        assert "truncation error" in out and "spectrum_observed.csv" in out

    def test_gen_feeder_takes_only_instance_options(self, tmp_path, capsys):
        """An option that does not enter the instance is refused, not
        silently read."""
        with pytest.raises(SystemExit):
            cli.main(["gen-feeder", *INSTANCE, "--rank", "2", "--out", str(tmp_path)])
        assert "unrecognized arguments: --rank 2" in capsys.readouterr().err
        assert not tmp_path.joinpath("matrix.csv").exists()

    def test_run_reports_the_build_model_truncation(self, tmp_path):
        """A 5-area feeder33 run writes the truncation error of its model
        and partition, the figure `gridmc gen-feeder` writes for the same
        instance."""
        instance = ["--feeder", "feeder33", "--time-steps", "1", "--areas", "5"]
        assert cli.main(["gen-feeder", *instance, "--out", str(tmp_path / "m")]) == 0
        assert cli.main(["run", *instance, "--rank", "2", "--max-iters", "2",
                         "--out", str(tmp_path / "r")]) == 0
        model = json.loads((tmp_path / "m" / "model.json").read_text())
        results = json.loads((tmp_path / "r" / "results.json").read_text())
        assert model["truncation_error"] > 0.1
        assert results["truncation_error"] == model["truncation_error"]

    def test_run_command(self, tmp_path, capsys):
        rc = cli.main(["run", *FAST, "--areas", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "results.json").exists()
        assert "MAPE" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path):
        rc = cli.main([
            "sweep", *FAST, "--areas", "3", "--param", "fraction",
            "--values", "0.7,0.9", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "fraction,mape_pct,mae_deg,rmse"
        assert len(lines) == 3
        assert (tmp_path / "fraction_0.7" / "results.json").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        rc = cli.main(["run", *FAST, "--fraction", "2.0",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_run_rejects_zero_iterations(self, tmp_path, capsys):
        """An empty solve has no final residual to report: the command ends
        with an error line and exit code 1 before building anything."""
        rc = cli.main(["run", *FAST, "--max-iters", "0", "--out", str(tmp_path)])
        assert rc == 1
        assert "error: max_iters must be >= 1, got 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, message", [
        # a NaN tolerance would run to the cap and write NaN, which is not
        # JSON, into results.json
        (["--tol", "nan"], "tol must be finite, got nan"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--runs", "0"], "--runs must be >= 1, got 0"),
        (["--fraction", "2.0"], "--fraction must lie in [0, 1], got 2"),
        (["--noise-pct", "nan"], "--noise-pct must be finite and nonnegative, got nan"),
        # a negative step count reached numpy's "negative dimensions" error
        (["--time-steps", "-1"], "--time-steps must be >= 1, got -1"),
        (["--time-steps", "0"], "--time-steps must be >= 1, got 0"),
        (["--areas", "0"], "--areas must be >= 1, got 0"),
        (["--rank", "0"], "rank must be >= 1, got 0"),
    ])
    def test_run_checks_its_options_before_building(
            self, tmp_path, capsys, monkeypatch, flags, message):
        def refuse(*args, **kwargs):
            raise AssertionError("run built an instance with invalid options")

        monkeypatch.setattr(cli, "_build_instance", refuse)
        rc = cli.main(["run", *FAST, *flags, "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_run_checks_its_rank_before_the_power_flow(self, tmp_path, capsys,
                                                       monkeypatch):
        """A rank above the data's 5T rows or phase columns is known once the
        network exists; it used to surface after the whole build as "rank
        bound exceeds matrix dimensions", which names no option."""
        def refuse(*args, **kwargs):
            raise AssertionError("run solved the power flow with an impossible rank")

        monkeypatch.setattr(cli.gm, "solve_exact_flow", refuse)
        rc = cli.main(["run", "--feeder", "feeder33", "--time-steps", "1",
                       "--rank", "40", "--out", str(tmp_path)])
        assert rc == 1
        assert ("error: --rank must be <= 5, the smaller of the data's 5 rows "
                "and 32 columns, got 40") in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_default_rank_fits_a_one_column_network(self, tmp_path):
        """Two buses make one phase column; the default rank is min(10, 5T, n)
        = 1, where the run used to fail with the default rank 5."""
        rc = cli.main(["run", "--feeder", "random", "--buses", "2",
                       "--time-steps", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "results.json").read_text())["converged"]

    def test_run_reports_an_out_path_that_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        rc = cli.main(["run", *FAST, "--out", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert out.read_text() == "keep\n"

    def test_certify_shrinks_until_its_budget_is_spent(self, tmp_path, capsys):
        """Two attempts, both far from passing (spectral norms about 34 and
        10): the second re-runs at mu = nu = 0.3 * 10000, its files are the
        ones left in --out, and the command exits 1."""
        rc = cli.main(["certify", *FAST, "--mu", "10000", "--nu", "10000",
                       "--max-shrinks", "1", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        attempts = [line for line in captured.out.splitlines()
                    if line.startswith("mu=")]
        assert [line.split(":")[0] for line in attempts] == ["mu=10000", "mu=3000"]
        assert all(line.endswith("pass=False") for line in attempts)
        assert "did not pass" in captured.err
        payload = json.loads((tmp_path / "results.json").read_text())
        # the printed sigma_1 is the one the bound decided on, to the last bit
        printed = attempts[-1].split("spectral norm ")[1].split()[0]
        assert float(printed) == payload["certificate"]["spectral_norm"]
        assert payload["certificate"]["mu"] == 3000.0
        assert payload["config"]["admm"]["mu"] == 3000.0
        assert payload["config"]["admm"]["nu"] == 3000.0
        assert payload["certificate"]["spectral_norm"] > 1.0

    def test_certify_does_not_pass_a_capped_run(self, tmp_path, capsys):
        """At mu = nu = 0.01 sigma_1(R) is about 0.07 after two iterations
        as after the 22 that converge, but the spectral condition speaks only
        for a stationary point: the run stopped by --max-iters 2 does not
        pass, and the same run given its 22 iterations does."""
        small = [*FAST, "--mu", "0.01", "--nu", "0.01", "--max-shrinks", "0"]
        rc = cli.main(["certify", *small, "--max-iters", "2", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["certificate"]["theorem1_pass"] and not payload["converged"]
        assert rc == 1
        assert captured.out.splitlines()[0].endswith("converged=False pass=False")
        assert "did not pass" in captured.err

        rc = cli.main(["certify", *small, "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0].endswith("converged=True pass=True")

    def test_certify_builds_its_instance_once(self, tmp_path, monkeypatch):
        """Every attempt re-solves the one instance: the weights do not
        enter it."""
        builds = []
        build = cli._build_instance

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "_build_instance", counted)
        rc = cli.main(["certify", *FAST, "--mu", "10000", "--nu", "10000",
                       "--max-shrinks", "1", "--out", str(tmp_path)])
        assert rc == 1
        assert len(builds) == 1

    def test_sweep_checks_every_point_before_the_first_run(self, tmp_path, capsys):
        """A bad value anywhere in --values fails before any point runs."""
        rc = cli.main(["sweep", *FAST, "--param", "fraction", "--values", "0.5,2.0",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "error: --fraction must lie in [0, 1], got 2" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, message", [
        # feeder33 has no 6-area partition
        (["--param", "areas", "--values", "1,6", "--rank", "5"],
         "no canonical partition with 6 areas"),
        # one step gives 5 rows, too few for rank 6
        ([*FAST, "--param", "time-steps", "--values", "2,1", "--rank", "6"],
         "--rank must be <= 5"),
    ])
    def test_sweep_builds_every_instance_before_the_first_run(
            self, tmp_path, capsys, flags, message):
        """A value whose instance cannot be built fails before any point
        runs; the first point's directory used to be written already."""
        rc = cli.main(["sweep", *flags, "--max-iters", "2", "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_sweep_refuses_values_that_share_a_directory(self, tmp_path, capsys):
        """Two values that print alike would write one directory, the second
        run over the first, while sweep.csv listed both."""
        rc = cli.main(["sweep", *FAST, "--param", "fraction",
                       "--values", "0.1234561,0.1234562", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "0.1234561 and 0.1234562 both write" in err
        assert str(tmp_path / "fraction_0.123456") in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("param", ["time-steps", "areas"])
    def test_sweep_rejects_non_integral_counts(self, tmp_path, param):
        with pytest.raises(cli.CliError, match="integers"):
            cli.cmd_sweep(cli.build_parser().parse_args([
                "sweep", *FAST, "--param", param, "--values", "2,2.5",
                "--out", str(tmp_path),
            ]))
        assert not any(tmp_path.iterdir())

    def test_sweep_rejects_non_numeric_value(self, tmp_path, capsys):
        rc = cli.main(["sweep", *FAST, "--param", "fraction", "--values", "0.5,x",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "error: --values entry 'x' is not a number" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_feeder33_rejects_another_bus_count(self, tmp_path, capsys):
        """feeder33 has a fixed topology: a --buses it would ignore, and
        then record in results.json, is an error, and nothing is written."""
        rc = cli.main(["run", "--feeder", "feeder33", "--buses", "129",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "error: feeder33 has 33 buses, got --buses 129" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, message", [
        (["--shrink", "1"], "--shrink must lie in (0, 1), got 1"),
        (["--shrink", "-1"], "--shrink must lie in (0, 1), got -1"),
        (["--shrink", "0"], "--shrink must lie in (0, 1), got 0"),
        (["--max-shrinks", "-1"], "--max-shrinks must be >= 0, got -1"),
    ])
    def test_certify_checks_its_shrink_options_before_any_run(
            self, tmp_path, capsys, monkeypatch, flags, message):
        def refuse(*args, **kwargs):
            raise AssertionError("certify built an instance with invalid shrink options")

        monkeypatch.setattr(cli, "_build_instance", refuse)
        rc = cli.main(["certify", *FAST, *flags, "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_sweep_param_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["sweep", *FAST, "--param", "bogus", "--values", "1"])
