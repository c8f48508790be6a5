"""Experiment runner: an instance's data, model summary and singular-value
spectra, estimation runs, sweeps and certification, with machine-readable
outputs (results.json, trace.csv, spectrum.csv)."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from . import certificate as ce
from . import completion as cp
from . import datamatrix as dm
from . import gridmodel as gm
from . import linflow as lf
from . import metrics as mt
from . import simnet as sn


class CliError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    feeder: str = "feeder33"  # feeder33 | random
    n_buses: int = 33
    time_steps: int = 5
    areas: int = 1
    policy: str = "scada"
    fraction: float = 0.5
    noise_pct: float = 1.0
    runs: int = 1
    seed: int = 0
    admm: cp.AdmmConfig = dataclasses.field(default_factory=cp.AdmmConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise CliError(f"--seed must be >= 0, got {self.seed}")
        if self.runs < 1:
            raise CliError(f"--runs must be >= 1, got {self.runs}")
        if self.time_steps < 1:
            raise CliError(f"--time-steps must be >= 1, got {self.time_steps}")
        if self.areas < 1:
            raise CliError(f"--areas must be >= 1, got {self.areas}")
        if not 0.0 <= self.fraction <= 1.0:
            raise CliError(f"--fraction must lie in [0, 1], got {self.fraction:g}")
        if not 0.0 <= self.noise_pct < math.inf:
            raise CliError(
                f"--noise-pct must be finite and nonnegative, got {self.noise_pct:g}")
        # the runs seed the solver from `seed`, so the config echoes that seed
        object.__setattr__(self, "admm", dataclasses.replace(self.admm, seed=self.seed))


def _build_feeder(config: ExperimentConfig):
    """Network, T x |P| complex injections, and area partition of the
    configured feeder."""
    if config.feeder == "feeder33":
        if config.n_buses != 33:
            raise CliError(f"feeder33 has 33 buses, got --buses {config.n_buses}")
        return gm.feeder33_analog(
            seed=config.seed, n_steps=config.time_steps, n_areas=config.areas
        )
    if config.feeder == "random":
        net, s = gm.generate_radial_feeder(
            config.n_buses, seed=config.seed, n_steps=config.time_steps
        )
        return net, s, gm.AreaPartition.contiguous(net.n_phases, config.areas)
    raise CliError(f"unknown feeder kind: {config.feeder!r}")


def _numerics() -> dict:
    """The builds and BLAS thread settings a run's floats depend on: the
    Python, numpy and BLAS versions and the thread variables (None when
    unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


@contextmanager
def _layer(wall: dict[str, float], name: str):
    """Add the block's wall seconds (`time.perf_counter`) to wall[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        wall[name] = wall.get(name, 0.0) + time.perf_counter() - start


def _build_instance(config: ExperimentConfig, wall=None):
    """Partition, ground truth, measurement matrix (its rows 3-4 per step
    are the true injections) and area maps, which hold the linear model
    (`maps.model`): the one path from a config to an instance.  Each layer's
    wall seconds are added to the dict `wall`, if given."""
    wall = {} if wall is None else wall
    with _layer(wall, "gridmodel.feeder"):
        net, s, part = _build_feeder(config)
    m, n = dm.ROWS_PER_STEP * config.time_steps, net.n_phases
    try:
        config.admm.resolve_rank(m, n)
    except cp.CompletionError:
        raise CliError(f"--rank must be <= {min(m, n)}, the smaller of the data's "
                       f"{m} rows and {n} columns, got {config.admm.rank}") from None
    with _layer(wall, "gridmodel.flow"):
        v_true = gm.solve_exact_flow(net, s)
    with _layer(wall, "datamatrix.sample"):
        mat = dm.build_matrix(v_true, s)
    with _layer(wall, "linflow.model"):
        model = lf.build_linear_model(net, n_steps=config.time_steps)
    with _layer(wall, "linflow.maps"):
        maps = lf.build_area_maps(model, part)
    return part, v_true, mat, maps


def _single_run(config: ExperimentConfig, instance, seed: int, order=None,
                wall=None):
    """One estimation run on an instance from `_build_instance`; `seed` draws
    the noise, the mask and the solver initialization.  Returns the solve,
    its error report, the mask and the noisy matrix the solver was given.
    Each layer's wall seconds are added to the dict `wall`, if given."""
    wall = {} if wall is None else wall
    part, v_true, mat, maps = instance
    with _layer(wall, "datamatrix.sample"):
        data = dm.add_noise(mat, config.noise_pct, seed=seed)
        mask = dm.sample_mask(
            *mat.shape, config.fraction, policy=config.policy, seed=seed
        )
    admm = dataclasses.replace(config.admm, seed=seed)
    with _layer(wall, "completion.solve"):
        result = cp.run_decentralized(
            data, mask.observed, maps, part, admm, reference=mat, order=order
        )
    with _layer(wall, "metrics.evaluate"):
        report = mt.evaluate_estimate(mt.voltage_from_matrix(result.x), v_true)
    return result, report, mask, data


def _comm_summary(ledger, maps, r: int) -> list[dict]:
    """Per area pair a < b, the reals the pair exchanged in one ADMM
    iteration (bus rounds 0 and 1) next to the source analysis's formula,
    the exact protocol formula and the full-data exchange (n_a + n_b) m."""
    m = maps.m
    measured: dict[frozenset[int], int] = {}
    for (pair, rnd, _), units in ledger.counts.items():
        measured[pair] = measured.get(pair, 0) + (units if rnd < 2 else 0)
    out = []
    for pair in sorted(measured, key=sorted):
        a, b = sorted(pair)
        n_a, n_b = maps.areas[a].cols.size, maps.areas[b].cols.size
        out.append({
            "pair": [int(a), int(b)],
            "per_iteration_measured": measured[pair],
            "paper_formula": sn.paper_comm_formula(n_a, n_b, m, r),
            "protocol_formula": sn.protocol_comm_formula(
                m, r, maps.coupling_rank(a, b), maps.coupling_rank(b, a)),
            "full_exchange": (n_a + n_b) * m,
        })
    return out


def write_trace_csv(trace: cp.ConvergenceTrace, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "rmse", "consensus", "objective", "max_area_ms"])
        for k in range(trace.iterations):
            writer.writerow([
                k, trace.rmse[k], trace.consensus[k], trace.objective[k],
                1000.0 * trace.max_area_seconds[k],
            ])


def write_spectrum_csv(x: np.ndarray, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "sigma"])
        for i, s in enumerate(dm.sv_spectrum(x)):
            writer.writerow([i, s])


def run_experiment(config: ExperimentConfig, out_dir: Path, order=None) -> dict:
    """Full pipeline for one configuration: `_build_instance`, then
    `_estimate_and_write`."""
    wall: dict[str, float] = {}
    instance = _build_instance(config, wall)
    return _estimate_and_write(config, instance, out_dir, order, wall)


def _estimate_and_write(config: ExperimentConfig, instance, out_dir: Path,
                        order, wall: dict[str, float]) -> dict:
    """`config.runs` estimation runs on an instance from `_build_instance`;
    writes results.json, trace.csv, spectrum.csv and metadata.json into
    out_dir and returns the results.json payload.  Removes partial outputs
    on error.  metadata.json holds the completion time, the wall seconds
    of each layer, under the span names of perfbench/tracer.py, added to
    those already in `wall`, and the `_numerics` the run's floats depend
    on; results.json holds no timing."""
    part, _, _, maps = instance
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        reports, per_run = [], []
        for k in range(config.runs):
            seed = config.seed + k
            result, report, mask, data = _single_run(config, instance, seed, order, wall)
            reports.append(report)
            per_run.append({**dataclasses.asdict(report), "seed": seed,
                            "iterations": result.trace.iterations,
                            "converged": result.converged})
        with _layer(wall, "metrics.evaluate"):
            aggregate = mt.aggregate_reports(reports)

        # the certificate checks the last run's problem: its factors, mask and data
        u, v = result.factors()
        with _layer(wall, "certificate.build"):
            op = ce.build_B_d(mask.observed, data, maps, config.admm.mu,
                              config.admm.nu)
        with _layer(wall, "certificate.report"):
            cert = ce.full_report(u, v, op)

        payload = {
            "version": __version__,
            "config": dataclasses.asdict(config),
            "estimate": dataclasses.asdict(aggregate),
            "per_run": per_run,
            "certificate": cert.to_dict(),
            "communication": _comm_summary(result.bus.ledger, maps, u.shape[1]),
            "iterations": result.trace.iterations,
            "converged": result.converged,
            "final_consensus": result.trace.consensus[-1],
            "final_objective": result.trace.objective[-1],
            "low_observability": dm.is_low_observability(mask),
            "truncation_error": lf.truncation_error(maps.model, part),
        }
        with _layer(wall, "cli.write"):
            results_path = out_dir / "results.json"
            written.append(results_path)
            with open(results_path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            trace_path = out_dir / "trace.csv"
            written.append(trace_path)
            write_trace_csv(result.trace, trace_path)
            spectrum_path = out_dir / "spectrum.csv"
            written.append(spectrum_path)
            write_spectrum_csv(result.x, spectrum_path)
        meta_path = out_dir / "metadata.json"
        written.append(meta_path)
        with open(meta_path, "w") as fh:
            json.dump({"completed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                       "layer_wall_s": wall, "numerics": _numerics()},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        return payload
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _add_instance(parser: argparse.ArgumentParser) -> None:
    """The options an instance is built from; each dest names, and each
    default is, an `ExperimentConfig` field."""
    config = ExperimentConfig()
    parser.add_argument("--feeder", default=config.feeder, choices=["feeder33", "random"])
    parser.add_argument("--buses", dest="n_buses", type=int, default=config.n_buses)
    parser.add_argument("--time-steps", type=int, default=config.time_steps)
    parser.add_argument("--areas", type=int, default=config.areas)
    parser.add_argument("--policy", default=config.policy, choices=["scada", "uniform"])
    parser.add_argument("--fraction", type=float, default=config.fraction)
    parser.add_argument("--seed", type=int, default=config.seed)
    parser.add_argument("--out", type=Path, default=Path("results"))


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The experiment options: `_add_instance`'s and those of the runs; each
    dest names, and each default is, an `ExperimentConfig` or `AdmmConfig`
    field."""
    _add_instance(parser)
    config = ExperimentConfig()
    admm = config.admm
    parser.add_argument("--noise-pct", type=float, default=config.noise_pct)
    parser.add_argument("--rank", type=int, default=admm.rank)
    parser.add_argument("--mu", type=float, default=admm.mu)
    parser.add_argument("--nu", type=float, default=admm.nu)
    parser.add_argument("--gamma", type=float, default=admm.gamma)
    parser.add_argument("--lambda", dest="lam", type=float, default=admm.lam)
    parser.add_argument("--prox-c", type=float, default=admm.prox_c)
    parser.add_argument("--max-iters", type=int, default=admm.max_iters)
    parser.add_argument("--tol", type=float, default=admm.tol)
    parser.add_argument("--runs", type=int, default=config.runs)


def _config_from_args(args) -> ExperimentConfig:
    """Each config field from the option of that dest, or its default when
    the command has no such option; --seed seeds both."""
    def build(cls, **given):
        return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                      if f.name not in given and hasattr(args, f.name)}, **given)
    return build(ExperimentConfig, admm=build(cp.AdmmConfig))


def cmd_gen_feeder(args) -> int:
    """Build the instance once and write its matrix, area assignment, model
    summary, and the spectra of the matrix and of P_Omega of it."""
    config = _config_from_args(args)
    part, _, mat, maps = _build_instance(config)
    model = maps.model
    err = lf.truncation_error(model, part)
    mask = dm.sample_mask(*mat.shape, config.fraction, policy=config.policy,
                          seed=config.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    np.savetxt(args.out / "matrix.csv", mat, delimiter=",")
    np.savetxt(args.out / "assignment.csv", part.assignment, fmt="%d")
    with open(args.out / "model.json", "w") as fh:
        json.dump({
            "version": __version__,
            "n_phases": model.n_phases,
            "time_steps": model.n_steps,
            "areas": part.n_areas,
            "truncation_error": err,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_spectrum_csv(mat, args.out / "spectrum.csv")
    write_spectrum_csv(dm.apply_mask(mat, mask.observed),
                       args.out / "spectrum_observed.csv")
    print(f"truncation error {err:.6f}; wrote {args.out}/matrix.csv "
          f"({mat.shape[0]}x{mat.shape[1]}), assignment.csv ({part.n_areas} areas), "
          f"model.json, spectrum.csv and spectrum_observed.csv")
    return 0


def cmd_run(args) -> int:
    payload = run_experiment(_config_from_args(args), args.out)
    est = payload["estimate"]
    print(f"MAPE {est['mape_magnitude_pct']:.4f}% | angle MAE "
          f"{est['mae_angle_deg']:.4f} deg | rmse {est['rmse']:.6f} | "
          f"iterations {payload['iterations']}")
    print(f"wrote {args.out}/results.json, trace.csv, spectrum.csv")
    return 0


def _parse_sweep_values(text: str) -> list[float]:
    values = []
    for entry in text.split(","):
        try:
            values.append(float(entry))
        except ValueError:
            raise CliError(f"--values entry {entry!r} is not a number") from None
    return values


def cmd_sweep(args) -> int:
    """Every point's config and instance are built, and so checked, and its
    output directory is known to be its own, before the first run."""
    base = _config_from_args(args)
    name = args.param.replace("-", "_")  # the swept ExperimentConfig field
    kind = type(getattr(base, name))
    values: dict[Path, float] = {}  # output directory -> the value it holds
    for value in _parse_sweep_values(args.values):
        if kind is int and not value.is_integer():
            raise CliError(f"--param {args.param} takes integers, got {value:g}")
        sub = args.out / f"{name}_{value:g}"
        if sub in values:
            raise CliError(f"--values {values[sub]!r} and {value!r} both write {sub}")
        values[sub] = value
    points = []
    for sub, value in values.items():
        config, wall = dataclasses.replace(base, **{name: kind(value)}), {}
        points.append((value, config, sub, _build_instance(config, wall), wall))
    rows = []
    for value, config, sub, instance, wall in points:
        payload = _estimate_and_write(config, instance, sub, None, wall)
        est = payload["estimate"]
        rows.append([value, est["mape_magnitude_pct"], est["mae_angle_deg"],
                     est["rmse"]])
        print(f"{args.param}={value:g}: MAPE {est['mape_magnitude_pct']:.4f}% "
              f"MAE {est['mae_angle_deg']:.4f} deg")
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.param, "mape_pct", "mae_deg", "rmse"])
        writer.writerows(rows)
    print(f"wrote {args.out}/sweep.csv")
    return 0


def cmd_certify(args) -> int:
    """Run, then shrink the penalty weights until the spectral condition
    certifies global optimality.  The condition speaks only for a stationary
    point, so an attempt passes when sigma_1(R) <= 1 and its run converged;
    a run stopped by ``--max-iters`` does not pass.

    The instance is built once; the weights do not enter it.  Each shrink
    multiplies mu and nu by ``--shrink`` and re-runs the solve on that
    instance at the smaller weights, so every certificate is evaluated at the
    estimate its own weights produced; no earlier estimate is re-evaluated.
    Each attempt overwrites the files in ``--out``; its metadata.json holds
    the one build's layer seconds plus those of its own solve."""
    if not 0.0 < args.shrink < 1.0:
        raise CliError(f"--shrink must lie in (0, 1), got {args.shrink:g}")
    if args.max_shrinks < 0:
        raise CliError(f"--max-shrinks must be >= 0, got {args.max_shrinks}")
    config = _config_from_args(args)
    build_wall: dict[str, float] = {}
    instance = _build_instance(config, build_wall)
    for _ in range(args.max_shrinks + 1):
        payload = _estimate_and_write(config, instance, args.out, None,
                                      dict(build_wall))
        cert = payload["certificate"]
        passed = cert["theorem1_pass"] and payload["converged"]
        print(f"mu={config.admm.mu:g}: spectral norm {cert['spectral_norm']!r} "
              f"converged={payload['converged']} pass={passed}")
        if passed:
            return 0
        admm = dataclasses.replace(config.admm, mu=config.admm.mu * args.shrink,
                                   nu=config.admm.nu * args.shrink)
        config = dataclasses.replace(config, admm=admm)
    print("certificate did not pass within the shrink budget", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmc",
        description="Decentralized matrix-completion state estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-feeder", help="write an instance's data, model and spectra")
    _add_instance(p)
    p.set_defaults(fn=cmd_gen_feeder)

    p = sub.add_parser("run", help="run one estimation experiment")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="sweep one parameter over a value list")
    _add_common(p)
    p.add_argument("--param", required=True, choices=["fraction", "time-steps", "areas"])
    p.add_argument("--values", required=True,
                   help="comma-separated list of values")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("certify", help="run and certify global optimality")
    _add_common(p)
    p.add_argument("--shrink", type=float, default=0.3)
    p.add_argument("--max-shrinks", type=int, default=8)
    p.set_defaults(fn=cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, gm.GridModelError, dm.DataMatrixError, lf.LinFlowError,
            cp.CompletionError, ce.CertificateError, mt.MetricsError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
