"""Acceptance gate: thirteen end-to-end checks, one pass/fail line each.
The lines are echoed after the run summary (see conftest) so they always
appear in the log.  One further test, without a verdict line, checks that
the converged flag tells the tolerance stop from the iteration cap."""

import dataclasses
import time

import numpy as np
import pytest

from gridmc import certificate as ct
from gridmc import cli
from gridmc import completion as cp
from gridmc import datamatrix as dm
from gridmc import gridmodel as gm
from gridmc import linflow as lf
from gridmc import metrics as mt
from reference import (admm_config, decentralized_flow, h_from_loads, predict,
                       svt_objective, svt_oracle)

TUNED = dict(mu=1e4, nu=1e4, gamma=1e3, lam=1e3, rank=5)

VERDICT_LINES: list[str] = []


def verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    VERDICT_LINES.append(line)
    return ok


@pytest.fixture(scope="module")
def analog_instance():
    """33-bus analog, 2 time steps, 5 areas, half-observed scada mask."""
    net, s, part = gm.feeder33_analog(seed=0, n_steps=2, n_areas=5)
    v = gm.solve_exact_flow(net, s)
    mat = dm.build_matrix(v, s)
    model = lf.build_linear_model(net, n_steps=2)
    maps = lf.build_area_maps(model, part)
    mask = dm.sample_mask(*mat.shape, 0.5, policy="scada", seed=0).observed
    return {"net": net, "s": s, "part": part, "v": v, "mat": mat,
            "model": model, "maps": maps, "mask": mask}


@pytest.fixture(scope="module")
def converged_run(analog_instance):
    """Noise-free decentralized solve at the test weights, run to tol."""
    inst = analog_instance
    config = admm_config(rank=5, max_iters=500, tol=1e-6)
    return cp.run_decentralized(
        inst["mat"], inst["mask"], inst["maps"], inst["part"], config,
        reference=inst["mat"],
    ), config


@pytest.fixture(scope="module")
def certified_run(analog_instance):
    """Same instance driven to its optimum for the certificate checks: there
    sigma_1(R) = 1 holds on the span of the estimate, so the exact sigma_1
    meets its 1e-9 slack only at a tolerance of 1e-12."""
    inst = analog_instance
    config = admm_config(rank=5, max_iters=1000, tol=1e-12)
    return cp.run_decentralized(
        inst["mat"], inst["mask"], inst["maps"], inst["part"], config,
    ), config


def test_01_adjoint_identity(analog_instance):
    inst = analog_instance
    t0 = time.perf_counter()
    op = ct.build_B_d(inst["mask"], inst["mat"], inst["maps"],
                      mu=10.0, nu=1.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(op.shape)
        z = rng.standard_normal(op.n_rows)
        lhs = float(ct.apply_B(op, x) @ z)
        rhs = float(np.sum(x * ct.apply_B_adjoint(op, z)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert verdict(1, "adjoint-identity", ok,
                   f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_02_balanced_factor_nuclear_norm():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(5, 31))
        n = int(rng.integers(5, 31))
        k = int(rng.integers(1, min(m, n) + 1))
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        u, v = cp.init_factors(a, np.ones((m, n), dtype=bool), k)
        half = 0.5 * (np.sum(u**2) + np.sum(v**2))
        nuc = np.sum(np.linalg.svd(a, compute_uv=False))
        worst = max(worst, abs(half - nuc))
    ok = worst <= 1e-8
    assert verdict(2, "nuclear-norm-identity", ok, f"worst gap {worst:.2e}")


def test_03_convex_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 15))
    mb = dm.sample_mask(20, 15, 0.5, policy="uniform", seed=7).observed
    config = admm_config(mu=50.0, rank=10, max_iters=2000, tol=1e-12)
    factored = cp.run_decentralized(
        a, mb, None, gm.AreaPartition.contiguous(15, 1), config
    ).x
    oracle = svt_oracle(a, mb, 50.0)
    obj_f = svt_objective(factored, a, mb, 50.0)
    obj_o = svt_objective(oracle, a, mb, 50.0)
    obj_gap = abs(obj_f - obj_o) / obj_o
    rmse_gap = np.linalg.norm(factored - oracle) / np.linalg.norm(oracle)
    elapsed = time.perf_counter() - t0
    ok = obj_gap < 1e-3 and rmse_gap < 0.05 and elapsed < 10.0
    assert verdict(3, "convex-oracle-equivalence", ok,
                   f"obj gap {obj_gap:.2e}, recon gap {rmse_gap:.2e}, "
                   f"{elapsed:.1f}s")


def test_04_single_area_equivalence(small_instance, monkeypatch):
    mat = small_instance["mat"]
    model = small_instance["model"]
    part = gm.AreaPartition.contiguous(model.n_phases, 1)
    maps = lf.build_area_maps(model, part)
    mask = dm.sample_mask(*mat.shape, 0.6, policy="uniform", seed=3).observed
    config = admm_config(rank=3, max_iters=100, tol=1e-16)
    # run_decentralized's U of each iteration, recorded as its one area solves it
    dec_u = []
    update_u = cp.update_u

    def recorded(prob, st, z):
        dec_u.append(update_u(prob, st, z))
        return dec_u[-1]

    with monkeypatch.context() as mp:
        mp.setattr(cp, "update_u", recorded)
        dec = cp.run_decentralized(mat, mask, maps, part, config)
    # the plain block iteration of the whole matrix, without the bus: each
    # exact U and V step over-relaxed by omega (U before the V solve reads
    # it), then the balancing step, omega re-estimated from the last two
    # changes of X, run to max_iters with no stop
    problems = cp._build_problems(mat, mask, maps, part, config)
    states = cp._init_states(problems, mat, mask,
                             config.resolve_rank(*mat.shape), config.seed)
    prob, st = problems[1], states[1]
    plain_u, plain_x, plain_factors = [], [], []
    omega, prev_step = 1.0, 0.0
    for k in range(config.max_iters):
        z = cp._flow_target(prob, st)
        u_new = cp.update_u(prob, st, z)
        plain_u.append(u_new)
        u_new = st.u + omega * (u_new - st.u)
        v_new = cp.update_v(prob, st, u_new, z)
        v_new = st.v + omega * (v_new - st.v)
        st.u, st.v = cp.balance(u_new, v_new)
        plain_factors.append((st.u, st.v))
        plain_x.append(st.u @ st.v)
        if k > 0:
            step = cp._norm(plain_x[k] - plain_x[k - 1])
            omega, prev_step = cp._relaxation_factor(omega, step, prev_step), step
    # the stop rule on the plain iterates: the first iteration whose relative
    # change of X falls below tol (with 1e-16, only an X that rounding no
    # longer moves), else the max_iters cap; there the driver ends on one
    # exact V step and the balancing step, and from there on X must stay at
    # the driver's result
    stop = next((k + 1 for k in range(1, config.max_iters)
                 if np.linalg.norm(plain_x[k] - plain_x[k - 1])
                 / max(np.linalg.norm(plain_x[k - 1]), 1e-30) < config.tol),
                config.max_iters)
    st.u, st.v = plain_factors[stop - 1]
    u_end, v_end = cp.balance(st.u, cp.update_v(prob, st, st.u, cp._flow_target(prob, st)))
    worst = max(float(np.linalg.norm(u - d)) for u, d in zip(plain_u, dec_u))
    worst = max([worst] + [float(np.linalg.norm(x - dec.x))
                           for x in [u_end @ v_end] + plain_x[stop - 1:]])
    ok = len(dec_u) == stop and worst <= 1e-10
    assert verdict(4, "single-area-equivalence", ok,
                   f"max per-iteration gap {worst:.2e}")


def test_05_truncation_metric(analog_instance):
    t0 = time.perf_counter()
    model = analog_instance["model"]
    err_single = lf.truncation_error(
        model, gm.AreaPartition.contiguous(model.n_phases, 1))
    _, _, part4 = gm.feeder33_analog(seed=0, n_steps=2, n_areas=4)
    err4 = lf.truncation_error(model, part4)
    elapsed = time.perf_counter() - t0
    ok = err_single == 0.0 and 0.0 < err4 < 0.15 and elapsed < 1.0
    assert verdict(5, "truncation-metric", ok,
                   f"single-area {err_single}, 4-area {err4:.4f}")


def test_06_decentralized_flow(small_instance):
    trunc = small_instance["trunc"]
    maps = small_instance["maps"]
    part = small_instance["part"]
    assert part.n_areas == 3
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        h = 0.02 * rng.standard_normal((trunc.n_steps, 2 * trunc.n_phases))
        v_dense, vmag_dense = predict(trunc, h)
        per_area = decentralized_flow(maps, h)
        for area in part.areas:
            v_l, vmag_l = per_area[area]
            cols = part.phases_in(area)
            worst = max(worst, float(np.max(np.abs(v_l - v_dense[:, cols]))))
            worst = max(worst,
                        float(np.max(np.abs(vmag_l - vmag_dense[:, cols]))))
    ok = worst <= 1e-12
    assert verdict(6, "decentralized-flow", ok, f"max gap {worst:.2e}")


def test_07_linear_model_accuracy(analog_instance):
    t0 = time.perf_counter()
    inst = analog_instance
    v_lin, _ = predict(inst["model"], h_from_loads(inst["s"]))
    mape = 100.0 * np.mean(
        np.abs(np.abs(v_lin) - np.abs(inst["v"])) / np.abs(inst["v"])
    )
    elapsed = time.perf_counter() - t0
    ok = mape <= 2.0 and elapsed < 5.0
    assert verdict(7, "linear-model-accuracy", ok, f"MAPE {mape:.3f}%")


def test_08_end_to_end_estimation():
    t0 = time.perf_counter()
    config = cli.ExperimentConfig(
        feeder="feeder33", time_steps=5, areas=5, policy="scada",
        fraction=0.5, noise_pct=1.0, seed=0,
        admm=cp.AdmmConfig(max_iters=500, **TUNED),
    )
    instance = cli._build_instance(config)
    reports = []
    for k in range(5):
        _, report, mask, _ = cli._single_run(config, instance, config.seed + k)
        assert dm.is_low_observability(mask)
        reports.append(report)
    agg = mt.aggregate_reports(reports)
    elapsed = time.perf_counter() - t0
    ok = agg.mape_magnitude_pct < 1.5 and agg.mae_angle_deg < 0.5 and elapsed < 120.0
    assert verdict(8, "end-to-end-estimation", ok,
                   f"MAPE {agg.mape_magnitude_pct:.3f}%, "
                   f"MAE {agg.mae_angle_deg:.3f} deg, {elapsed:.0f}s")


def test_09_time_window_trend():
    t0 = time.perf_counter()
    means = []
    for t_steps in (1, 5, 10):
        config = cli.ExperimentConfig(
            feeder="feeder33", time_steps=t_steps, areas=1,
            policy="scada", fraction=0.5, noise_pct=1.0, seed=0,
            admm=cp.AdmmConfig(max_iters=500, **TUNED),
        )
        instance = cli._build_instance(config)
        mapes = []
        for k in range(5):
            _, report, *_ = cli._single_run(config, instance, k)
            mapes.append(report.mape_magnitude_pct)
        means.append(float(np.mean(mapes)))
    elapsed = time.perf_counter() - t0
    ok = means[0] >= means[1] >= means[2] and elapsed < 180.0
    assert verdict(9, "time-window-trend", ok,
                   "MAPE " + " -> ".join(f"{v:.3f}%" for v in means)
                   + f", {elapsed:.0f}s")


def test_10_optimality_certificate(analog_instance, certified_run):
    inst = analog_instance
    result, config = certified_run
    u, v = result.factors()
    # the certificate at the weights the estimate was solved at
    op = ct.build_B_d(inst["mask"], inst["mat"], inst["maps"],
                      config.mu, config.nu)
    report = ct.full_report(u, v, op)
    u_norm = float(np.linalg.norm(u))
    grad_ok = (report.grad_u_norm <= 1e-5 * (1 + u_norm)
               and report.grad_v_norm <= 1e-5 * (1 + u_norm))
    trace_ok = max(abs(t) for t in report.trace_residuals) <= 1e-6
    slack_ok = report.comp_slack_residual <= 1e-6
    ok = grad_ok and trace_ok and slack_ok and report.theorem1_pass
    assert verdict(10, "optimality-certificate", ok,
                   f"spectral {report.spectral_norm:.6f}, "
                   f"grad {report.grad_u_norm:.1e}, "
                   f"slack {report.comp_slack_residual:.1e}")


def test_11_convergence_behavior(converged_run):
    result, config = converged_run
    iters = result.trace.iterations
    final_consensus = result.trace.consensus[-1]
    rmse = result.trace.rmse
    ratio = rmse[-1] / min(rmse)
    ok = iters < 500 and final_consensus < config.tol and ratio <= 1.05
    assert verdict(11, "convergence-behavior", ok,
                   f"{iters} iterations, final/best RMSE ratio {ratio:.4f}")


def test_converged_flag(analog_instance, converged_run):
    """The run stopped by the tolerance test reports converged; the same
    run capped after a few iterations does not."""
    result, config = converged_run
    inst = analog_instance
    capped = cp.run_decentralized(
        inst["mat"], inst["mask"], inst["maps"], inst["part"],
        dataclasses.replace(config, max_iters=3),
    )
    assert result.converged and result.trace.iterations < config.max_iters
    assert not capped.converged and capped.trace.iterations == 3


def test_12_communication_ledger(analog_instance, converged_run):
    result, config = converged_run
    maps = analog_instance["maps"]
    r = config.resolve_rank(*analog_instance["mat"].shape)
    exact_match = True
    measured_total = full_total = 0
    per_pair = []
    for row in cli._comm_summary(result.bus.ledger, maps, r):
        measured, full = row["per_iteration_measured"], row["full_exchange"]
        exact_match &= measured == row["protocol_formula"]
        measured_total += measured
        full_total += full
        a, b = row["pair"]
        per_pair.append(f"{a}-{b} {measured}/{full}")
    below = measured_total < full_total
    ok = exact_match and below
    verdict(12, "communication-ledger", ok,
            f"formula match {exact_match}, total {measured_total} below full "
            f"exchange {full_total} {below}; per pair {', '.join(per_pair)}")
    assert exact_match, "measured count deviates from the protocol formula"
    # The bound is over the whole area graph, not per pair: every area's U
    # update needs its neighbor's entire basis factor, 2mr reals per pair
    # per iteration whatever the coupling.  A pair of small areas (1-4 here,
    # 8 + 3 phases, full exchange 110 reals) cannot beat that at r=5
    # (2mr = 100 plus 16 coupling reals).
    assert below, (
        "per-iteration traffic over all area pairs is not below the full "
        "data exchange"
    )


def test_13_scheduling_determinism(tmp_path):
    config_kwargs = dict(
        feeder="feeder33", time_steps=2, areas=5, policy="scada",
        fraction=0.5, noise_pct=1.0, seed=0,
        admm=admm_config(rank=5, max_iters=40),
    )
    baseline = cli.run_experiment(
        cli.ExperimentConfig(**config_kwargs), tmp_path / "base"
    )
    base_bytes = (tmp_path / "base" / "results.json").read_bytes()
    rng = np.random.default_rng(13)
    identical = True
    for k in range(10):
        order = {rnd: list(rng.permutation([1, 2, 3, 4, 5]))
                 for rnd in range(2 * 40)}
        payload = cli.run_experiment(
            cli.ExperimentConfig(**config_kwargs), tmp_path / f"s{k}",
            order=order,
        )
        identical &= payload == baseline
        identical &= (tmp_path / f"s{k}" / "results.json").read_bytes() == base_bytes
    assert verdict(13, "scheduling-determinism", identical,
                   "10 random schedules")
