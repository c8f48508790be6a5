#!/usr/bin/env python3
"""Before/after benchmark pairs for two checkouts of gridmc.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT \\
        --workload feeder33-t5-a5 --pairs 10 --seconds 8 --seed 401

Each root is a checkout holding `src/gridmc`, `perfbench/` and
`BENCHMARK.json`.  Make the parent with `git worktree add --detach PATH
COMMIT` (or a `git clone` checked out at COMMIT), so the record names its
commit; a root that is not the top of its own git work tree (a `git
archive` copy, say) is recorded as `unknown`.
The script does two things, and changes neither tree:

1. It checks that both trees compute the same thing.  Each side runs
   `gridmc run` once at the workload's settings (those of `perfbench/run.py`)
   with one BLAS thread.  The first verdict, `outputs_identical`, asks
   whether `results.json` and `spectrum.csv` match byte for byte and
   `trace.csv` matches apart from its `max_area_ms` timing column.  If not,
   the outputs still pass as a rounding change (`rounding_only`) when every
   non-float value of `results.json` is equal (config, iterations,
   converged, communication counts, theorem1_pass, low_observability, ...),
   `trace.csv` and `spectrum.csv` have the same header and row count on
   both sides, and the estimate's `mape_magnitude_pct` and `mae_angle_deg`
   agree within 1e-8 relative.  The largest relative difference of every
   float field that differs is recorded and printed as `output_drift`;
   a singular value of `spectrum.csv` is measured relative to sigma_0 of
   the same file, since those below the rank of X are rounding noise.
   A `results.json` key found only on the change side is listed under
   `added_fields` and refuses nothing; a key the change drops is a problem.
   Each side's `iterations`, `converged`, MAPE and angle MAE are recorded
   under `outputs`.  Outputs that pass neither check stop the script with
   exit code 1, and nothing is benchmarked, unless `--expect-changed-outputs`
   says the change alters what the run computes on purpose.
2. It runs `perfbench/run.py --trace 0` of each tree in turn, `--pairs`
   times with the seeds `--seed`, `--seed` + 1, ...  The side that runs
   first alternates from pair to pair, so a drift in machine speed does not
   favour either side.

Per workload it records each end-to-end metric's per-pair values, the
median and quartiles of each side, the number of pairs the change wins
(better in the metric's direction from `BENCHMARK.json` by more than the
rounding tolerance 1e-8 relative; a pair within it is a tie), and the
median gain next to the parent's interquartile range.  Two verdicts are
recorded and printed per metric:

- `gain_shown`: the change wins at least nine tenths of the pairs (a tie
  counts for neither side) and its median gain exceeds both the parent's
  interquartile range and the rounding tolerance, the rule a claimed gain
  must meet;
- `within_bound`: the change's median is no worse than the parent's by
  more than the metric's `bound` in `BENCHMARK.json`, a fraction of the
  parent's median.

The record is merged into `--out` (default `BENCH.json` in the current
directory) under the workload's name, so one file can hold several
workloads.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}
# perfbench/run.py's fixed measurement settings, as `gridmc run` options
FIXED_OPTIONS = ["--policy", "scada", "--fraction", "0.5", "--noise-pct", "1.0",
                 "--runs", "1"]


def load_perfbench(root: Path):
    """perfbench/run.py of a checkout, imported for its workload table."""
    bench_dir = root / "perfbench"
    sys.path.insert(0, str(bench_dir))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", bench_dir / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench_dir))
    return module


def run_options(bench, workload: str) -> list[str]:
    wl = bench.WORKLOADS[workload]
    tuned = bench.TUNED
    return [
        "--feeder", wl.feeder, "--buses", str(wl.n_buses),
        "--time-steps", str(wl.time_steps), "--areas", str(wl.areas),
        "--max-iters", str(wl.max_iters), "--seed", str(bench.INSTANCE_SEED),
        "--mu", repr(tuned["mu"]), "--nu", repr(tuned["nu"]),
        "--gamma", repr(tuned["gamma"]), "--lambda", repr(tuned["lam"]),
        "--rank", str(tuned["rank"]), *FIXED_OPTIONS,
    ]


def gridmc_run(root: Path, options: list[str], out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **ONE_THREAD)
    subprocess.run([sys.executable, "-m", "gridmc.cli", "run", *options,
                    "--out", str(out)], env=env, cwd=root, check=True,
                   stdout=subprocess.DEVNULL)


def describe(root: Path) -> str:
    """The checkout's commit, marked "+dirty" if its working tree differs.
    A directory that is not the top of its own work tree (a plain copy, even
    one inside another checkout) is "unknown"."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(root), *cmd], capture_output=True,
                              text=True).stdout.strip()
    top = git("rev-parse", "--show-toplevel")
    if not top or Path(top).resolve() != root.resolve():
        return "unknown"
    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    return commit + ("+dirty" if git("status", "--porcelain", "--untracked-files=no")
                     else "")


def trace_without_timing(path: Path) -> list[list[str]]:
    rows = [line.split(",") for line in path.read_text().splitlines()]
    drop = rows[0].index("max_area_ms")
    return [row[:drop] + row[drop + 1:] for row in rows]


# estimate fields that must agree to this relative tolerance for a rounding
# change to pass; two values of a metric this close are a tie
ESTIMATE_REL_TOL = 1e-8
ESTIMATE_FIELDS = ("mape_magnitude_pct", "mae_angle_deg")


def rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def json_drift(a, b, path: str, drift: dict[str, float], added: set[str]) -> list[str]:
    """Record in `drift` the relative difference of each float leaf of two
    JSON values that differs, under its dotted path, and in `added` the path
    of each key only `b` has; return the paths where anything else (a
    missing key, a length, a type, a non-float value) differs."""
    if isinstance(a, float) and isinstance(b, float):
        diff = rel_diff(a, b)
        if diff:
            drift[path] = max(drift.get(path, 0.0), diff)
        return []
    if type(a) is not type(b):
        return [path]
    if isinstance(a, dict):
        def key_path(k):
            return f"{path}.{k}" if path else k
        added.update(key_path(k) for k in b.keys() - a.keys())
        if not a.keys() <= b.keys():
            return [path]
        return [bad for k in a
                for bad in json_drift(a[k], b[k], key_path(k), drift, added)]
    if isinstance(a, list):
        if len(a) != len(b):
            return [path]
        # list items share one path, so drift keeps the largest over them
        return [bad for x, y in zip(a, b)
                for bad in json_drift(x, y, f"{path}[]", drift, added)]
    return [] if a == b else [path]


# The singular values drift relative to sigma_0 (the larger of the two
# files'), not to themselves: those below the rank of X sit near 1e-18, where
# rounding noise is their whole value.
SIGMA_COLUMN = "spectrum.csv:sigma"


def csv_drift(a: Path, b: Path, drift: dict[str, float]) -> bool:
    """Record the largest relative difference of each numeric column of two
    CSV files under "file:column" (see `SIGMA_COLUMN`); False if their
    headers or row counts differ."""
    rows_a = [line.split(",") for line in a.read_text().splitlines()]
    rows_b = [line.split(",") for line in b.read_text().splitlines()]
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return False
    for i, column in enumerate(rows_a[0]):
        key = f"{a.name}:{column}"
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            if row_a[i] == row_b[i]:
                continue
            try:
                x, y = float(row_a[i]), float(row_b[i])
                if key == SIGMA_COLUMN:
                    scale = max(abs(float(rows_a[1][i])), abs(float(rows_b[1][i])))
                    diff = abs(x - y) / scale
                else:
                    diff = rel_diff(x, y)
            except ValueError:
                diff = math.inf
            drift[key] = max(drift.get(key, 0.0), diff)
    return True


def run_summary(results: dict) -> dict:
    """What a `results.json` says of the run: its stop and its accuracy."""
    return {"iterations": results["iterations"], "converged": results["converged"],
            **{field: results["estimate"][field] for field in ESTIMATE_FIELDS}}


def output_verdict(a: Path, b: Path) -> dict:
    """Compare two `gridmc run` output directories: `outputs_identical`
    (bytes, timing column aside), then `rounding_only`, `output_drift` and
    `added_fields` (see the module docstring), `problems` naming what
    refused them, and each side's `run_summary` under `outputs`."""
    identical = {
        "results.json": (a / "results.json").read_bytes()
        == (b / "results.json").read_bytes(),
        "spectrum.csv": (a / "spectrum.csv").read_bytes()
        == (b / "spectrum.csv").read_bytes(),
        "trace.csv without max_area_ms": trace_without_timing(a / "trace.csv")
        == trace_without_timing(b / "trace.csv"),
    }
    drift: dict[str, float] = {}
    added: set[str] = set()
    results_a = json.loads((a / "results.json").read_text())
    results_b = json.loads((b / "results.json").read_text())
    problems = [f"results.json {path or 'layout'} differs beyond rounding"
                for path in json_drift(results_a, results_b, "", drift, added)]
    if results_a.get("config") != results_b.get("config"):
        problems.append("results.json config differs")
    for name in ("trace.csv", "spectrum.csv"):
        if not csv_drift(a / name, b / name, drift):
            problems.append(f"{name} header or row count differs")
    drift.pop("trace.csv:max_area_ms", None)
    for field in ESTIMATE_FIELDS:
        diff = drift.get(f"estimate.{field}", 0.0)
        if not diff <= ESTIMATE_REL_TOL:
            problems.append(f"estimate.{field} differs by {diff:.3g} relative")
    return {
        "outputs_identical": identical,
        "rounding_only": not problems,
        "output_drift": dict(sorted(drift.items())),
        "added_fields": sorted(added),
        "problems": problems,
        "outputs": {"parent": run_summary(results_a), "change": run_summary(results_b)},
    }


def compare_outputs(parent: Path, change: Path, options: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        outs = {}
        for side, root in (("parent", parent), ("change", change)):
            outs[side] = Path(tmp) / side
            gridmc_run(root, options, outs[side])
        return output_verdict(outs["parent"], outs["change"])


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(final JSON line, environment record) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    return json.loads(lines[-1]), env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(better: str, unit: str, bound: float, parent: list[float],
              change: list[float]) -> dict:
    """One metric's pairs: each side's median and quartiles, the change's
    wins and median gain, and the `gain_shown` and `within_bound` verdicts
    (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (p_med - c_med)
    wins = sum(sign * (p - c) > 0 and rel_diff(p, c) > ESTIMATE_REL_TOL
               for p, c in zip(parent, change))
    return {
        "unit": unit,
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
        "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
        "change_wins": wins,
        "median_gain": gain,
        "median_gain_pct": 100.0 * gain / p_med if p_med else None,
        "parent_iqr": p_q3 - p_q1,
        "bound": bound,
        "gain_shown": (10 * wins >= 9 * len(parent) and gain > p_q3 - p_q1
                       and rel_diff(p_med, c_med) > ESTIMATE_REL_TOL),
        "within_bound": -gain <= bound * abs(p_med),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=401)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--expect-changed-outputs", action="store_true",
                        help="run the pairs even when the outputs differ beyond "
                             "rounding, for a change that alters the result on purpose")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    bench = load_perfbench(roots["change"])
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench.WORKLOADS)}")
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    verdict = compare_outputs(roots["parent"], roots["change"],
                              run_options(bench, args.workload))
    print(f"# {args.workload} outputs identical: {verdict['outputs_identical']}",
          flush=True)
    for name, diff in verdict["output_drift"].items():
        print(f"# output drift {name}: {diff:.3g} relative")
    for path in verdict["added_fields"]:
        print(f"# added field {path}")
    if not verdict["rounding_only"]:
        problems = "; ".join(verdict["problems"])
        if not args.expect_changed_outputs:
            print(f"error: the two trees give different outputs ({problems}); "
                  "no pairs run", file=sys.stderr)
            return 1
        for side, summary in verdict["outputs"].items():
            print(f"# {side} outputs: {summary}")
        print(f"# outputs differ as expected ({problems})", flush=True)

    values = {side: {m["name"]: [] for m in declared} for side in roots}
    failed = {side: [] for side in roots}
    firsts, environment = [], {}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        firsts.append(order[0])
        for side in order:
            result, env = perfbench(roots[side], args.workload, seed, args.seconds)
            environment = environment or env
            failed[side].append(result["failed"])
            for m in declared:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        est = {side: values[side]["estimate_s"][-1] for side in roots}
        print(f"# pair {i + 1}/{args.pairs} seed {seed}: estimate_s parent "
              f"{est['parent']:.4g} change {est['change']:.4g}", flush=True)

    record = {
        "parent": describe(roots["parent"]),
        "change": describe(roots["change"]),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "first": firsts,
        "outputs_identical": verdict["outputs_identical"],
        "rounding_only": verdict["rounding_only"],
        "output_drift": verdict["output_drift"],
        "added_fields": verdict["added_fields"],
        "expect_changed_outputs": args.expect_changed_outputs,
        "outputs": verdict["outputs"],
        "failed": failed,
        "environment": environment,
        "metrics": {m["name"]: summarize(m["better"], m["unit"], m["bound"],
                                         values["parent"][m["name"]],
                                         values["change"][m["name"]])
                    for m in declared},
    }
    merged = json.loads(args.out.read_text()) if args.out.exists() else {}
    merged[args.workload] = record
    tmp = args.out.with_suffix(".tmp")
    tmp.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    shutil.move(tmp, args.out)
    for name, s in record["metrics"].items():
        print(f"# {name:15s} parent {s['parent_median']:.6g} [{s['parent_q1']:.6g}, "
              f"{s['parent_q3']:.6g}] -> change {s['change_median']:.6g}; "
              f"change wins {s['change_wins']}/{args.pairs}; "
              f"gain_shown {s['gain_shown']}; within_bound {s['within_bound']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
