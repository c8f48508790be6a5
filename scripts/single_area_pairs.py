#!/usr/bin/env python3
"""Paired single-area estimation runs of two checkouts of gridmc.

    python3 scripts/single_area_pairs.py PARENT_ROOT CHANGE_ROOT --seeds 12

Each root is a checkout holding `src/gridmc`.  Both run the same cases
(one area, paper weights, rank 5, scada mask at 0.5, 1% noise, instance
seed 0, up to 500 iterations) for run seeds 0 .. --seeds - 1, each root in
its own interpreter with one BLAS thread.  Per case it prints total
iterations, the seeds the change runs longer on or ends at a higher final
objective, and the paired mean differences (change - parent) of MAPE and
angle MAE with their standard errors.  It exits with code 1 unless every
run converged, no seed takes more iterations, no final objective is higher
and neither mean difference is worse than one standard error.  With
--reference-tol TOL the change also re-runs every case to that tolerance
(up to 5000 iterations) and prints each side's mean distance to that
optimum in MAPE and objective.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

# (name, feeder, buses, time steps)
CASES = [("feeder33-t10", "feeder33", 33, 10), ("feeder33-t5", "feeder33", 33, 5),
         ("random129-t5", "random", 129, 5), ("random33-t10", "random", 33, 10)]
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def worker(n_seeds: int, reference_tol: float | None) -> None:
    """Run every case and seed with the gridmc on sys.path; print the records."""
    from gridmc import cli
    from gridmc import completion as cp

    records = []
    for name, feeder, buses, steps in CASES:
        config = cli.ExperimentConfig(
            feeder=feeder, n_buses=buses, time_steps=steps, areas=1,
            policy="scada", fraction=0.5, noise_pct=1.0, seed=0,
            admm=cp.AdmmConfig(mu=1e4, nu=1e4, gamma=1e3, lam=1e3, rank=5,
                               max_iters=500))
        instance = cli._build_instance(config)
        for seed in range(n_seeds):
            result, report, *_ = cli._single_run(config, instance, seed)
            records.append({"case": name, "seed": seed,
                            "iterations": result.trace.iterations,
                            "converged": result.converged,
                            "objective": result.trace.objective[-1],
                            "mape_pct": report.mape_magnitude_pct,
                            "mae_deg": report.mae_angle_deg})
            if reference_tol is not None:
                admm = dataclasses.replace(config.admm, tol=reference_tol, max_iters=5000)
                result, report, *_ = cli._single_run(
                    dataclasses.replace(config, admm=admm), instance, seed)
                records[-1].update(reference_mape_pct=report.mape_magnitude_pct,
                                   reference_objective=result.trace.objective[-1])
    json.dump(records, sys.stdout)


def run_side(root: Path, n_seeds: int, reference_tol: float | None = None) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"), **ONE_THREAD)
    cmd = [sys.executable, __file__, "--worker", "--seeds", str(n_seeds)]
    if reference_tol is not None:
        cmd += ["--reference-tol", repr(reference_tol)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def mean_se(diffs: list[float]) -> tuple[float, float]:
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var / n)


def compare(parent: list[dict], change: list[dict]) -> bool:
    ok = True
    for name, *_ in CASES:
        pairs = [(p, c) for p, c in zip(parent, change) if p["case"] == name]
        it_p = sum(p["iterations"] for p, _ in pairs)
        it_c = sum(c["iterations"] for _, c in pairs)
        longer = [p["seed"] for p, c in pairs if c["iterations"] > p["iterations"]]
        higher = [p["seed"] for p, c in pairs if c["objective"] > p["objective"]]
        converged = all(p["converged"] and c["converged"] for p, c in pairs)
        mape = mean_se([c["mape_pct"] - p["mape_pct"] for p, c in pairs])
        mae = mean_se([c["mae_deg"] - p["mae_deg"] for p, c in pairs])
        case_ok = (converged and not longer and not higher
                   and mape[0] <= mape[1] and mae[0] <= mae[1])
        ok &= case_ok
        print(f"{name}: iterations {it_p} -> {it_c} ({100 * (it_c - it_p) / it_p:+.1f}%), "
              f"all converged {converged}, seeds longer {longer}, "
              f"objective higher {higher}, "
              f"MAPE {mape[0]:+.2e} +- {mape[1]:.1e} %, "
              f"MAE {mae[0]:+.2e} +- {mae[1]:.1e} deg: {'ok' if case_ok else 'WORSE'}")
        refs = [c for _, c in pairs]  # the change's records hold the optimum
        if "reference_mape_pct" in refs[0]:
            for side, runs in (("parent", [p for p, _ in pairs]), ("change", refs)):
                gap_mape = sum(abs(r["mape_pct"] - c["reference_mape_pct"])
                               for r, c in zip(runs, refs)) / len(refs)
                gap_obj = sum(r["objective"] - c["reference_objective"]
                              for r, c in zip(runs, refs)) / len(refs)
                print(f"  {side} to the optimum: mean |MAPE - MAPE*| {gap_mape:.2e} %, "
                      f"mean objective gap {gap_obj:.2e}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", type=Path, help="PARENT_ROOT CHANGE_ROOT")
    parser.add_argument("--seeds", type=int, default=12)
    parser.add_argument("--reference-tol", type=float)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.seeds, args.reference_tol)
        return 0
    if len(args.roots) != 2:
        parser.error("give PARENT_ROOT and CHANGE_ROOT")
    parent = run_side(args.roots[0], args.seeds)
    change = run_side(args.roots[1], args.seeds, args.reference_tol)
    return 0 if compare(parent, change) else 1


if __name__ == "__main__":
    sys.exit(main())
