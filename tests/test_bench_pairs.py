"""The output comparison of scripts/bench_pairs.py, on `gridmc run` output
directories edited the way a rounding change or a real change edits them."""

import collections
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from gridmc import cli
from gridmc import completion as cp

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("parent")
    admm = cp.AdmmConfig(mu=100.0, nu=100.0, gamma=10.0, lam=10.0, rank=2, max_iters=25)
    cli.run_experiment(cli.ExperimentConfig(feeder="random", n_buses=8, time_steps=1,
                                            areas=3, policy="uniform", fraction=0.8,
                                            admm=admm), out)
    return out


@pytest.fixture
def pair(run_dir, tmp_path):
    """(parent, change) directories; the change starts as a copy."""
    change = tmp_path / "change"
    shutil.copytree(run_dir, change)
    return run_dir, change


def edit_results(path: Path, edit) -> None:
    results = json.loads((path / "results.json").read_text())
    edit(results)
    (path / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def edit_csv(path: Path, row: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[i] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def scale(results: dict, section: str, field: str, factor: float) -> None:
    results[section][field] *= factor


class TestOutputVerdict:
    def test_identical_outputs(self, pair):
        parent, change = pair
        edit_csv(change / "trace.csv", 1, "max_area_ms", "123.0")  # timing only
        verdict = bench_pairs.output_verdict(parent, change)
        assert all(verdict["outputs_identical"].values())
        assert verdict["rounding_only"]
        assert verdict["output_drift"] == {} and verdict["problems"] == []

    def test_rounding_change_passes_and_reports_its_drift(self, pair):
        parent, change = pair

        def edit(results):
            scale(results, "estimate", "mape_magnitude_pct", 1 + 1e-12)
            scale(results, "certificate", "grad_v_norm", 1 + 1e-4)
            for run in results["per_run"]:
                run["rmse"] *= 1 + 3e-13

        edit_results(change, edit)
        objective = (parent / "trace.csv").read_text().splitlines()[2].split(",")[3]
        edit_csv(change / "trace.csv", 2, "objective", repr(float(objective) * (1 + 2e-15)))
        verdict = bench_pairs.output_verdict(parent, change)
        assert verdict["outputs_identical"] == {
            "results.json": False, "spectrum.csv": True,
            "trace.csv without max_area_ms": False,
        }
        assert verdict["rounding_only"], verdict["problems"]
        drift = verdict["output_drift"]
        assert set(drift) == {"estimate.mape_magnitude_pct", "certificate.grad_v_norm",
                              "per_run[].rmse", "trace.csv:objective"}
        assert drift["estimate.mape_magnitude_pct"] == pytest.approx(1e-12, rel=1e-3)
        assert drift["certificate.grad_v_norm"] == pytest.approx(1e-4, rel=1e-3)
        assert drift["trace.csv:objective"] == pytest.approx(2e-15, rel=0.2)

    def test_spectrum_drift_is_relative_to_the_largest_singular_value(self, pair):
        """A singular value far below sigma_0 that moves by half its size
        drifts by that move over sigma_0, not by 0.5."""
        parent, change = pair
        rows = [line.split(",") for line in
                (parent / "spectrum.csv").read_text().splitlines()]
        sigma_0, sigma_last = float(rows[1][1]), float(rows[-1][1])
        assert sigma_last < 1e-3 * sigma_0
        edit_csv(change / "spectrum.csv", len(rows) - 1, "sigma", repr(1.5 * sigma_last))
        verdict = bench_pairs.output_verdict(parent, change)
        assert not verdict["outputs_identical"]["spectrum.csv"]
        assert verdict["rounding_only"], verdict["problems"]
        assert verdict["output_drift"] == {
            "spectrum.csv:sigma": pytest.approx(0.5 * sigma_last / sigma_0, rel=1e-12)}

    @pytest.mark.parametrize("field", ["mape_magnitude_pct", "mae_angle_deg"])
    def test_estimate_beyond_tolerance_is_refused(self, pair, field):
        parent, change = pair
        edit_results(change, lambda r: scale(r, "estimate", field, 1 + 1e-7))
        verdict = bench_pairs.output_verdict(parent, change)
        assert not verdict["rounding_only"]
        assert verdict["problems"] == [f"estimate.{field} differs by 1e-07 relative"]
        assert verdict["output_drift"][f"estimate.{field}"] == pytest.approx(1e-7, rel=1e-6)

    @pytest.mark.parametrize("edit", [
        lambda r: r.update(iterations=r["iterations"] + 1),
        lambda r: r.update(converged=not r["converged"]),
        lambda r: r["communication"][0].update(per_iteration_measured=0),
        lambda r: r["certificate"].update(theorem1_pass=not r["certificate"]["theorem1_pass"]),
        lambda r: r.update(low_observability=not r["low_observability"]),
        lambda r: r["config"]["admm"].update(mu=r["config"]["admm"]["mu"] * (1 + 1e-15)),
        lambda r: r.pop("final_objective"),
    ], ids=["iterations", "converged", "communication", "theorem1_pass",
            "low_observability", "config", "missing-field"])
    def test_non_float_change_is_refused(self, pair, edit):
        parent, change = pair
        edit_results(change, edit)
        verdict = bench_pairs.output_verdict(parent, change)
        assert not verdict["outputs_identical"]["results.json"]
        assert not verdict["rounding_only"]
        assert verdict["problems"]

    @pytest.mark.parametrize("name", ["trace.csv", "spectrum.csv"])
    def test_row_count_change_is_refused(self, pair, name):
        parent, change = pair
        lines = (change / name).read_text().splitlines()
        (change / name).write_text("\n".join(lines[:-1]) + "\n")
        verdict = bench_pairs.output_verdict(parent, change)
        assert not verdict["rounding_only"]
        assert verdict["problems"] == [f"{name} header or row count differs"]

    def test_added_field_is_listed_not_refused(self, pair):
        """A key only the change writes (a new report field) passes; the
        reverse, a key the change drops, is the missing-field case above."""
        parent, change = pair
        edit_results(change, lambda r: r["certificate"].update(new_residual=0.01))
        verdict = bench_pairs.output_verdict(parent, change)
        assert verdict["rounding_only"], verdict["problems"]
        assert verdict["added_fields"] == ["certificate.new_residual"]
        assert verdict["output_drift"] == {}


class TestExpectChangedOutputs:
    @pytest.fixture
    def fake_runs(self, pair, monkeypatch, tmp_path):
        """main() on outputs whose iteration count differs, with
        `compare_outputs` and `perfbench` replaced by the pair's verdict and
        a constant benchmark line; returns main's arguments."""
        parent, change = pair
        edit_results(change, lambda r: r.update(iterations=r["iterations"] + 1))
        monkeypatch.setattr(bench_pairs, "compare_outputs",
                            lambda *args: bench_pairs.output_verdict(parent, change))
        line = {"failed": 0, "metrics": collections.defaultdict(lambda: {"value": 1.0})}
        monkeypatch.setattr(bench_pairs, "perfbench", lambda *args: (line, {}))
        for var in bench_pairs.ONE_THREAD:  # perfbench/run.py sets them on import
            monkeypatch.setenv(var, "1")
        out = tmp_path / "BENCH.json"
        return [str(ROOT), str(ROOT), "--workload", "feeder33-t10-a1",
                "--pairs", "2", "--out", str(out)], out

    def test_changed_outputs_are_refused_by_default(self, fake_runs, capsys):
        argv, out = fake_runs
        assert bench_pairs.main(argv) == 1
        assert "no pairs run" in capsys.readouterr().err
        assert not out.exists()

    def test_expected_change_records_both_runs_and_runs_the_pairs(self, fake_runs, pair):
        argv, out = fake_runs
        assert bench_pairs.main([*argv, "--expect-changed-outputs"]) == 0
        record = json.loads(out.read_text())["feeder33-t10-a1"]
        assert record["expect_changed_outputs"] and not record["rounding_only"]
        parent = json.loads((pair[0] / "results.json").read_text())
        assert record["outputs"]["parent"] == {
            "iterations": parent["iterations"], "converged": parent["converged"],
            "mape_magnitude_pct": parent["estimate"]["mape_magnitude_pct"],
            "mae_angle_deg": parent["estimate"]["mae_angle_deg"]}
        assert record["outputs"]["change"]["iterations"] == parent["iterations"] + 1
        assert record["metrics"]["estimate_s"]["parent"] == [1.0, 1.0]
        # equal sides: no gain, and nothing worse than its bound
        for m in record["metrics"].values():
            assert not m["gain_shown"] and m["within_bound"]


class TestVerdicts:
    """`gain_shown` and `within_bound` on synthetic pairs of a lower-is-better
    timing (bound 0.25) and a higher-is-better fraction (bound 0.1)."""

    PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]

    def summary(self, change, better="lower", bound=0.25, parent=PARENT):
        return bench_pairs.summarize(better, "s", bound, parent, change)

    def test_nine_wins_beyond_the_iqr_show_a_gain(self):
        change = [p - 0.1 for p in self.PARENT]
        change[3] = self.PARENT[3] + 0.1  # one loss
        s = self.summary(change)
        assert s["change_wins"] == 9
        assert s["median_gain"] > s["parent_iqr"]
        assert s["gain_shown"] and s["within_bound"]

    def test_eight_wins_show_no_gain(self):
        change = [p - 0.1 for p in self.PARENT]
        change[3] = change[5] = 2.0
        s = self.summary(change)
        assert s["change_wins"] == 8 and s["median_gain"] > s["parent_iqr"]
        assert not s["gain_shown"]

    def test_ties_count_for_neither_side(self):
        """Nine wins and a tie meet the 9/10 rule; eight wins and two ties
        do not."""
        change = [p - 0.1 for p in self.PARENT]
        change[3] = self.PARENT[3]
        assert self.summary(change)["gain_shown"]
        change[5] = self.PARENT[5]
        s = self.summary(change)
        assert s["change_wins"] == 8 and not s["gain_shown"]

    def test_rounding_differences_are_ties(self):
        """An accuracy metric the same in every run of a side (parent IQR 0)
        that rounding moves by 1e-11 relative the favourable way is tied in
        every pair, and shows no gain; a real timing gain still shows."""
        parent = [0.441817909488997] * 10
        rounding = self.summary([p * (1 - 1e-11) for p in parent], bound=0.02,
                                parent=parent)
        assert rounding["parent_iqr"] == 0 and rounding["median_gain"] > 0
        assert rounding["change_wins"] == 0
        assert not rounding["gain_shown"] and rounding["within_bound"]
        timing = self.summary([p * 0.9 for p in self.PARENT])
        assert timing["change_wins"] == 10 and timing["gain_shown"]

    def test_a_gain_inside_the_parent_iqr_is_not_shown(self):
        change = [p - 0.005 for p in self.PARENT]
        s = self.summary(change)
        assert s["change_wins"] == 10 and 0 < s["median_gain"] <= s["parent_iqr"]
        assert not s["gain_shown"] and s["within_bound"]

    @pytest.mark.parametrize("worse, inside", [(0.2, True), (0.25, True), (0.3, False)])
    def test_within_bound_is_relative_to_the_parent_median(self, worse, inside):
        s = self.summary([1.0 + worse] * 10, parent=[1.0] * 10)
        assert s["within_bound"] is inside and not s["gain_shown"]

    def test_higher_is_better_metrics_turn_the_verdicts_round(self):
        parent = [0.5] * 10
        up = self.summary([0.6] * 10, better="higher", bound=0.1, parent=parent)
        assert up["change_wins"] == 10 and up["gain_shown"] and up["within_bound"]
        down = self.summary([0.44] * 10, better="higher", bound=0.1, parent=parent)
        assert down["change_wins"] == 0 and not down["within_bound"]


class TestDescribe:
    @pytest.fixture
    def repo(self, tmp_path):
        """A one-commit repository; returns its root and that commit."""
        def git(*cmd):
            return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                                   "-c", "user.email=t@t", *cmd], check=True,
                                  capture_output=True, text=True).stdout.strip()
        git("init", "-q")
        (tmp_path / "f.txt").write_text("x\n")
        git("add", "f.txt")
        git("commit", "-q", "-m", "one")
        return tmp_path, git("rev-parse", "--short", "HEAD")

    def test_top_of_a_work_tree_records_its_commit(self, repo):
        root, commit = repo
        assert bench_pairs.describe(root) == commit

    def test_plain_directory_inside_a_repository_is_unknown(self, repo):
        """A copy placed inside another checkout is not recorded under that
        checkout's commit."""
        root, _ = repo
        plain = root / "parent"
        plain.mkdir()
        assert bench_pairs.describe(plain) == "unknown"
