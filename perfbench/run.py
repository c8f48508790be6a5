"""gridmc benchmark: one closed-loop client drives ``cli.run_experiment``.

Run from the repository root:

    python3 perfbench/run.py --workload feeder33-t5-a5 --seed 1 --seconds 20 --trace 0

Each call of ``run_experiment`` (runs=1) is one operation; the next starts
when the previous returns.  BLAS and OpenMP are pinned to one thread before
numpy is imported, because the thread count changes both the timings and
the bytes of ``results.json``.  Timings are CPU seconds of this
single-threaded process, scaled to reference seconds by a machine-speed
reference kernel interleaved with the program (see ``speed.py``); the raw
CPU and wall-clock estimate times, the speed factor and the machine's
hypervisor steal share are printed beside them.

A run first builds the instance ``SETUP_PROBES`` times (``run_experiment``
with a one-iteration cap, which also warms up), then repeats the full
workload for ``--seconds`` (``--seconds / 2`` untraced and ``--seconds / 2``
traced with ``--trace 1``).  Every operation is checked: it must not raise,
its estimate and certificate fields must be finite, its per-iteration
traffic must equal the protocol formula, and a full repeat's
``results.json`` must be byte-identical to the run's first full repeat.

Each workload is one fixed problem instance (instance seed 0).  ``--seed``
draws the bus execution schedule of every round of every repeat, which the
protocol promises cannot change any result; the byte-identity check holds
it to that.  Across instance seeds the iteration count of the single-area
workload ranges from 68 to 500 and the angle error by a factor of eight
(see NOTES.md), so seeding the instance would make every end-to-end figure
spread far past its bound.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

INSTANCE_SEED = 0
SETUP_PROBES = 5
MIN_REPEATS = 2  # the byte-identity check needs a second full repeat
TUNED = dict(mu=1e4, nu=1e4, gamma=1e3, lam=1e3, rank=5)


@dataclasses.dataclass(frozen=True)
class Workload:
    feeder: str
    n_buses: int
    time_steps: int
    areas: int
    max_iters: int


WORKLOADS = {
    # README quick start and acceptance 08; capped at 500 iterations, per-area
    # U/V solves and the bus dominate.
    "feeder33-t5-a5": Workload("feeder33", 33, 5, 5, 500),
    # |P| = 128: the dense area maps and certificate operator dominate
    # set-up, the certificate and memory; capped so one repeat stays short.
    "random128-t5-a5": Workload("random", 129, 5, 5, 40),
    # one area, the centralized path; converges; no messages at all.
    "feeder33-t10-a1": Workload("feeder33", 33, 10, 1, 500),
}

END_TO_END = (
    ("estimate_s", "s"),
    ("setup_s", "s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p90", "ms"),
    ("mape_pct", "%"),
    ("angle_mae_deg", "deg"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("gridmodel.feeder_s", "s"),
    ("gridmodel.flow_s", "s"),
    ("linflow.model_s", "s"),
    ("linflow.maps_s", "s"),
    ("linflow.maps_bytes", "bytes-computed"),
    ("linflow.maps_nnz_frac", "fraction"),
    ("datamatrix.sample_s", "s"),
    ("datamatrix.observed", "count"),
    ("completion.solve_s", "s"),
    ("completion.update_u_s", "s"),
    ("completion.update_v_s", "s"),
    ("completion.update_q_s", "s"),
    ("completion.update_duals_s", "s"),
    ("completion.driver_self_s", "s"),
    ("completion.u_system_dim", "dim-computed"),
    ("completion.iterations", "count"),
    ("completion.hit_cap", "count"),
    ("completion.final_consensus", "norm"),
    ("simnet.rounds", "count"),
    ("simnet.messages_per_iter", "msgs/iter"),
    ("simnet.reals_per_iter", "reals/iter"),
    ("simnet.protocol_comm_formula", "reals/iter"),
    ("simnet.round_self_s", "s"),
    ("simnet.barrier_wait_s", "s"),
    ("simnet.critical_path_s", "s"),
    ("certificate.build_s", "s"),
    ("certificate.report_s", "s"),
    ("certificate.b_bytes", "bytes-computed"),
    ("certificate.spectral_norm", "norm"),
    ("metrics.evaluate_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summary(values):
    """(median, first quartile, third quartile, sample count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "instance_seed": INSTANCE_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def cpu_ticks():
    """(steal, total) scheduler ticks of the whole machine, or None."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7], sum(ticks[:8])) if len(ticks) >= 8 else None


def finite_fields(obj, prefix=""):
    """Dotted names of non-finite numbers anywhere inside a JSON value."""
    if isinstance(obj, dict):
        return [bad for k, v in obj.items() for bad in finite_fields(v, f"{prefix}.{k}")]
    if isinstance(obj, list):
        return [bad for i, v in enumerate(obj) for bad in finite_fields(v, f"{prefix}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [prefix]
    return []


class Session:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, cli, out_dir: Path, ref: speed.SpeedReference):
        self.cli = cli
        self.out_dir = out_dir
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.reference = None  # results.json bytes of the first full repeat

    def call(self, recorder, config, order, full: bool, extra_check=None):
        """One ``run_experiment``; returns (CPU seconds, wall seconds,
        speed factor, payload) or None.  CPU seconds exclude the reference
        kernel; the factor turns them into reference seconds."""
        recorder.begin_run()
        self.attempted += 1
        out = self.out_dir / f"op{self.attempted}"
        gc.collect()  # start every operation from the same collector state
        clock, mark = self.ref.clock, self.ref.mark()
        try:
            t0, c0 = time.perf_counter(), clock()
            payload = self.cli.run_experiment(config, out, order=order)
            cpu, wall = clock() - c0, time.perf_counter() - t0
            data = (out / "results.json").read_bytes()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        problems = self.check(data, full)
        if extra_check is not None:
            problems += extra_check(payload)
        if problems:
            print(f"operation {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            self.failed += 1
            return None
        return cpu, wall, self.ref.factor(mark), payload

    def check(self, data: bytes, full: bool) -> list[str]:
        results = json.loads(data)
        problems = [f"non-finite {name}" for section in ("estimate", "certificate")
                    for name in finite_fields(results[section], section)]
        comm = results["communication"]
        measured = sum(c["per_iteration_measured"] for c in comm)
        formula = sum(c["protocol_formula"] for c in comm)
        if measured != formula:
            problems.append(f"first-iteration traffic {measured} != protocol formula {formula}")
        if full:
            if self.reference is None:
                self.reference = data
            elif data != self.reference:
                problems.append("results.json differs from the first full repeat")
        return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridmc" / "__init__.py").is_file():
        print("error: gridmc sources (src/gridmc) not found next to perfbench/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from gridmc import (certificate, cli, completion, datamatrix, gridmodel,
                        linflow, metrics, simnet)

    modules = dict(certificate=certificate, cli=cli, completion=completion,
                   datamatrix=datamatrix, gridmodel=gridmodel, linflow=linflow,
                   metrics=metrics, simnet=simnet)
    wl = WORKLOADS[args.workload]
    config = cli.ExperimentConfig(
        feeder=wl.feeder, n_buses=wl.n_buses, time_steps=wl.time_steps,
        areas=wl.areas, policy="scada", fraction=0.5, noise_pct=1.0, runs=1,
        seed=INSTANCE_SEED,
        admm=completion.AdmmConfig(max_iters=wl.max_iters, seed=INSTANCE_SEED, **TUNED),
    )
    probe_config = dataclasses.replace(
        config, admm=dataclasses.replace(config.admm, max_iters=1))
    schedule_rng = np.random.default_rng(args.seed)

    def schedule():
        if wl.areas == 1:
            return None
        areas = np.arange(1, wl.areas + 1)
        return {rnd: [int(a) for a in schedule_rng.permutation(areas)]
                for rnd in range(2 * wl.max_iters)}

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))

    out_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = speed.SpeedReference()
    session = Session(cli, out_dir, ref)
    steal_before = cpu_ticks()
    try:
        plain = tracer.Recorder(ref.clock)
        setup, cpus, raw_cpus, walls, factors, iter_ms = [], [], [], [], [], []
        payload = None
        budget = args.seconds / 2 if args.trace else args.seconds
        with ref.running(), tracer.installed(
                plain, modules, tracer.SETUP_TARGETS + (tracer.ITERATION_TARGET,),
                traced=False):
            for _ in range(SETUP_PROBES):
                res = session.call(plain, probe_config, None, full=False)
                if res:
                    setup.append(res[2] * tracer.setup_seconds(plain.spans, plain.run))
                plain.clear()
            start, repeats = time.perf_counter(), 0
            while repeats < MIN_REPEATS or time.perf_counter() - start < budget:
                order = schedule()
                repeats += 1
                res = session.call(plain, config, order, full=True)
                if res:
                    cpu, wall, factor, payload = res
                    cpus.append(factor * cpu)
                    raw_cpus.append(cpu)
                    walls.append(wall)
                    factors.append(factor)
                    setup.append(factor * tracer.setup_seconds(plain.spans, plain.run))
                    iter_ms += [1000.0 * ref.factor_at(start) * (end - start)
                                for start, end in
                                tracer.iterations(plain.spans, plain.run, wl.areas)
                                if ref.quiet(start, end)]
                plain.clear()
        if payload is None:
            print("error: no operation succeeded", file=sys.stderr)
            return 1

        if args.trace:
            with ref.running():
                values = traced_run(session, modules, config, schedule, budget,
                                    statistics.median(cpus), args, wl)
            if values is None:
                print("error: no traced operation succeeded", file=sys.stderr)
                return 1
            table = PER_LAYER
        else:
            est = payload["estimate"]
            comm = sum(c["per_iteration_measured"] for c in payload["communication"])
            values = {
                "estimate_s": cpus,
                "setup_s": setup,
                "iter_ms_p50": [statistics.median(iter_ms)],
                "iter_ms_p90": [statistics.quantiles(iter_ms, n=10)[8]],
                "mape_pct": [est["mape_magnitude_pct"]],
                "angle_mae_deg": [est["mae_angle_deg"]],
                "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
            }
            for label, raw in (("CPU", raw_cpus), ("wall-clock", walls)):
                med, q1, q3, n = summary(raw)
                print(f"# estimate {label} {med:.6g} s  q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
            med, q1, q3, n = summary(factors)
            print(f"# speed factor (reference s per CPU s) {med:.6g}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  n={n}; {len(ref.samples)} reference samples")
            print(f"# iterations per repeat {payload['iterations']}, "
                  f"{len(iter_ms)} pooled iteration samples")
            print(f"# comm_reals_per_iter {comm} reals/iter")
            table = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    steal_after = cpu_ticks()
    if steal_before and steal_after:
        steal = steal_after[0] - steal_before[0]
        total = steal_after[1] - steal_before[1]
        print(f"# hypervisor steal {100.0 * steal / max(total, 1):.1f}% of machine time")
    print(f"# failed_frac {session.failed}/{session.attempted} = "
          f"{session.failed / session.attempted:g}")
    metrics_out = {}
    for name, unit in table:
        med, q1, q3, n = summary(values[name])
        metrics_out[name] = {"value": med, "unit": unit}
        spread = f"  q1 {q1:.6g}  q3 {q3:.6g}  n={n}" if n > 1 else ""
        print(f"# {name:30s} {med:.6g} {unit}{spread}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics_out,
    }))
    return 0


def traced_run(session, modules, config, schedule, budget, untraced_s, args, wl):
    """Repeats under the full set of layer wrappers; per-layer medians.
    Layer times are in reference seconds, like the end-to-end times."""
    rec = tracer.Recorder(session.ref.clock)
    per_run: list[dict] = []
    cpus: list[float] = []

    def cross_check(payload):
        bus = rec.pop_bus(rec.run)
        iterations = payload["iterations"]
        formula = sum(c["protocol_formula"] for c in payload["communication"])
        reals = sum(bus.ledger.counts.values()) if bus is not None else 0
        counts = rec.counters[rec.run]
        counts.update({
            "simnet.rounds": bus.round_index if bus is not None else 0,
            "simnet.reals_per_iter": reals / iterations,
            "simnet.messages_per_iter": counts.get("simnet.messages", 0) / iterations,
            "simnet.protocol_comm_formula": formula,
            "completion.iterations": iterations,
            "completion.hit_cap": int(iterations == wl.max_iters),
            "completion.final_consensus": payload["final_consensus"],
            "certificate.spectral_norm": payload["certificate"]["spectral_norm"],
        })
        if reals != formula * iterations:
            return [f"ledger carried {reals} reals in {iterations} iterations, "
                    f"protocol formula is {formula} per iteration"]
        return []

    with tracer.installed(rec, modules, tracer.LAYER_TARGETS, traced=True):
        start, repeats = time.perf_counter(), 0
        while repeats < 1 or time.perf_counter() - start < budget:
            repeats += 1
            res = session.call(rec, config, schedule(), full=True,
                               extra_check=cross_check)
            if res:
                cpu, _, factor, _ = res
                cpus.append(factor * cpu)
                times = tracer.layer_times(rec.spans, rec.run)
                per_run.append({**{k: factor * v for k, v in times.items()},
                                **rec.counters[rec.run]})
    if not per_run:
        return None
    seen = {s[0] for s in rec.spans}
    silent = sorted({name for _, _, name in tracer.LAYER_TARGETS} - seen)
    if silent:
        print("# wrapped but never called: " + ", ".join(silent))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    rec.dump(spans_path, {"workload": args.workload, "seed": args.seed})
    print(f"# {len(rec.spans)} spans written to {spans_path.relative_to(ROOT)}")
    values = {name: [run.get(name, 0.0) for run in per_run] for name, _ in PER_LAYER}
    values["trace.overhead_s"] = [statistics.median(cpus) - untraced_s]
    return values


if __name__ == "__main__":
    sys.exit(main())
