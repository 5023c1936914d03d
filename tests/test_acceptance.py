"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single [PASS] line with its measured figures so the
-v output doubles as an acceptance report.  Runtime budgets are asserted
alongside the numeric tolerances.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from crem import (
    CalibrationConfig,
    ConfigState,
    Measurement,
    RobotParams,
    UncertaintyParams,
    crem_pose,
    direction_reversals,
    fd_discrepancies,
    generate_synthetic,
    load_dataset,
    micro_trajectory,
    nls_estimate,
    solve_equilibrium,
)
from crem.dataio import RobotConfig, write_robot_config

from conftest import oracle_equilibrium, segment_pose

TH0 = np.pi / 2
K_CAL = UncertaintyParams(0.2, 0.0, 0.025)
K_ZERO = UncertaintyParams.zero()


@pytest.fixture(scope="module")
def bench_params():
    return RobotParams(L=44.3, r=3.0, E_p=41000.0, E_i=41000.0, E_s=41000.0,
                       I_p=0.0312, I_i=0.0312, I_s=0.0010, n=3)


def elapsed_under(t0, budget, label):
    dt = time.perf_counter() - t0
    assert dt < budget, f"{label} took {dt:.2f} s, budget {budget} s"
    return dt


def test_criterion_1_straightness_fixed_point(bench_params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_angle = 0.0
    worst_pos = 0.0
    for q_s in rng.uniform(0.0, bench_params.L, size=50):
        phi = solve_equilibrium(bench_params, ConfigState(TH0, 0.7), float(q_s), K_ZERO)
        worst_angle = max(worst_angle, abs(phi.theta_s - TH0),
                          abs(phi.theta_prime - TH0))
        tip = crem_pose(bench_params, ConfigState(TH0, 0.7), float(q_s), K_ZERO).tip
        worst_pos = max(worst_pos, float(np.max(np.abs(
            tip.p - [0.0, 0.0, bench_params.L]))))
    assert worst_angle <= 1e-10
    assert worst_pos <= 1e-9
    dt = elapsed_under(t0, 1.0, "criterion 1")
    print(f"\n[PASS] criterion 1: straight fixed point, max angle dev "
          f"{worst_angle:.2e} rad, max tip dev {worst_pos:.2e} mm, {dt:.2f} s")


def test_criterion_2_zero_stiffness_neutrality():
    t0 = time.perf_counter()
    params = RobotParams(L=44.3, r=3.0, E_p=41000.0, E_i=41000.0, E_s=0.0,
                         I_p=0.0312, I_i=0.0312, I_s=0.0, n=3)
    worst_angle = 0.0
    worst_pos = 0.0
    for theta in np.radians(np.linspace(15.0, 160.0, 5)):
        for delta in np.radians([0.0, 40.0, 90.0]):
            ref = segment_pose(params.L, theta, delta)
            for fq in np.linspace(0.05, 0.95, 9):
                q_s = params.L * fq
                phi = solve_equilibrium(params, ConfigState(theta, delta), q_s, K_ZERO)
                th_s_exact = TH0 + (theta - TH0) * q_s / params.L
                worst_angle = max(worst_angle, abs(phi.theta_prime - theta),
                                  abs(phi.theta_s - th_s_exact))
                tip = crem_pose(params, ConfigState(theta, delta), q_s, K_ZERO).tip
                worst_pos = max(worst_pos, float(np.max(np.abs(tip.p - ref.p))))
    assert worst_angle <= 1e-9
    assert worst_pos <= 1e-9
    dt = elapsed_under(t0, 5.0, "criterion 2")
    print(f"\n[PASS] criterion 2: wire-free neutrality on 5x3x9 grid, max angle "
          f"dev {worst_angle:.2e} rad, max tip dev {worst_pos:.2e} mm, {dt:.2f} s")


def test_criterion_3_equilibrium_oracle_equivalence(bench_params):
    t0 = time.perf_counter()
    worst = 0.0
    for k in (K_ZERO, K_CAL):
        for theta in np.radians(np.linspace(15.0, 160.0, 5)):
            for delta in np.radians(np.linspace(-90.0, 90.0, 5)):
                for fq in np.linspace(0.05, 0.95, 5):
                    q_s = bench_params.L * fq
                    phi = solve_equilibrium(bench_params, ConfigState(theta, delta),
                                            q_s, k)
                    th_s, th_p = oracle_equilibrium(bench_params, theta, delta, q_s, k)
                    worst = max(worst, abs(phi.theta_s - th_s),
                                abs(phi.theta_prime - th_p))
    assert worst <= 1e-9
    dt = elapsed_under(t0, 30.0, "criterion 3")
    print(f"\n[PASS] criterion 3: solver vs brute-force root-find on 125-point "
          f"grid x 2 k, max |dphi| {worst:.2e} rad, {dt:.2f} s")


def test_criterion_4_turning_point(bench_params):
    t0 = time.perf_counter()
    qs = np.linspace(0.0, 40.0, 200)
    pos, _, _ = micro_trajectory(bench_params, ConfigState(np.radians(30), 0.0),
                                 qs, K_CAL)
    rev = direction_reversals(pos)
    assert rev.size == 1
    steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    excursion_um = 1000.0 * float(np.sum(steps))
    assert 10.0 <= excursion_um <= 1000.0

    pos0, _, _ = micro_trajectory(bench_params, ConfigState(np.radians(30), 0.0),
                                  qs, K_ZERO)
    assert direction_reversals(pos0).size == 0
    dt = elapsed_under(t0, 5.0, "criterion 4")
    print(f"\n[PASS] criterion 4: exactly one turning point at q_s="
          f"{qs[rev[0]]:.2f} mm, path length {excursion_um:.1f} um, none for "
          f"k=0, {dt:.2f} s")


def test_criterion_5_jacobian_fd_agreement(bench_params):
    t0 = time.perf_counter()
    worst = {}
    for k in (K_ZERO, K_CAL):
        for theta in np.linspace(15.0, 75.0, 5):
            for delta in [0.0, 40.0, 90.0]:
                for fq in np.linspace(0.1, 0.9, 5):
                    psi = ConfigState(np.radians(theta), np.radians(delta))
                    errs = fd_discrepancies(bench_params, psi,
                                            fq * bench_params.L, k)
                    for key, val in errs.items():
                        worst[key] = max(worst.get(key, 0.0), val)
    assert max(worst.values()) <= 1e-6, worst
    dt = elapsed_under(t0, 60.0, "criterion 5")
    report = ", ".join(f"{key} {val:.1e}" for key, val in worst.items())
    print(f"\n[PASS] criterion 5: FD agreement on the standard grid x 2 k, "
          f"max errors {report}, {dt:.2f} s")


def test_criterion_6_tangency(bench_params):
    t0 = time.perf_counter()
    # macro sweep: theta 15 -> 75 deg at fixed depth, k = 0, delta = 0;
    # translational J_M columns against the in-plane FD tangent
    thetas = np.radians(np.linspace(15.0, 75.0, 41))
    from crem import assemble_motion_jacobians

    q_s = 0.3 * bench_params.L
    pos = []
    cols = []
    for th in thetas:
        psi = ConfigState(float(th), 0.0)
        pos.append(crem_pose(bench_params, psi, q_s, K_ZERO).tip.p)
        cols.append(assemble_motion_jacobians(bench_params, psi, q_s, K_ZERO).J_M[:3])
    pos = np.asarray(pos)
    tang = pos[2:] - pos[:-2]
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    worst_macro = 1.0
    for i, t in enumerate(tang, start=1):
        for col in np.asarray(cols[i]).T:
            proj = col[[0, 2]]
            cosine = abs(proj @ t[[0, 2]]) / np.linalg.norm(proj)
            worst_macro = min(worst_macro, cosine)
    assert worst_macro >= 0.999

    # micro sweep: J_mu against the FD tangent of the insertion trajectory,
    # signed, and direction reversal across the turning point
    qs = np.linspace(0.5, 40.0, 80)
    pos_mu, _, _ = micro_trajectory(bench_params, ConfigState(np.radians(30), 0.0),
                                    qs, K_CAL)
    tang_mu = pos_mu[2:] - pos_mu[:-2]
    J_mu_tr = []
    for q in qs:
        js = assemble_motion_jacobians(bench_params, ConfigState(np.radians(30), 0.0),
                                       float(q), K_CAL)
        J_mu_tr.append(js.J_mu[:3])
    J_mu_tr = np.asarray(J_mu_tr)
    rev = direction_reversals(pos_mu)
    assert rev.size == 1
    vertex = int(rev[0])
    worst_micro = 1.0
    for i in range(1, len(qs) - 1):
        if abs(i - vertex) <= 2:
            continue  # tangent magnitude collapses at the vertex itself
        t = tang_mu[i - 1]
        cosine = (J_mu_tr[i] @ t) / (np.linalg.norm(J_mu_tr[i]) * np.linalg.norm(t))
        worst_micro = min(worst_micro, cosine)
    assert worst_micro >= 0.999

    before = J_mu_tr[vertex - 3]
    after = J_mu_tr[vertex + 3]
    assert float(before @ after) < 0.0
    dt = elapsed_under(t0, 10.0, "criterion 6")
    print(f"\n[PASS] criterion 6: macro tangency min |cos| {worst_macro:.9f}, "
          f"micro min cos {worst_micro:.9f}, J_mu flips across the turning "
          f"point, {dt:.2f} s")


def test_criterion_7_calibration_recovery(bench_params):
    t0 = time.perf_counter()
    qs = np.linspace(0.0, 40.0, 382)
    cfg = CalibrationConfig(eta=0.1, beta_conv=1e-3)

    psi = ConfigState(np.radians(45), 0.0)
    pos = generate_synthetic(bench_params, K_CAL, psi.theta, psi.delta, qs, 0.0, seed=0)
    ms = [Measurement(psi=psi, q_s=q, x_bar=p) for q, p in zip(qs, pos)]
    res = nls_estimate(ms, bench_params, cfg, K_ZERO)
    rel0 = abs(res.k_star.k_lambda0 - 0.2) / 0.2
    relq = abs(res.k_star.k_lambda_q - 0.025) / 0.025
    drop = 1.0 - res.trace[-1].rmse_um / res.trace[0].rmse_um
    assert rel0 < 0.01 and relq < 0.01
    assert drop >= 0.99

    pos_n = generate_synthetic(bench_params, K_CAL, psi.theta, psi.delta, qs, 0.002, seed=11)
    ms_n = [Measurement(psi=psi, q_s=q, x_bar=p) for q, p in zip(qs, pos_n)]
    res_n = nls_estimate(ms_n, bench_params, cfg, K_ZERO)
    rel0_n = abs(res_n.k_star.k_lambda0 - 0.2) / 0.2
    relq_n = abs(res_n.k_star.k_lambda_q - 0.025) / 0.025
    drop_n = 1.0 - res_n.trace[-1].rmse_um / res_n.trace[0].rmse_um
    assert rel0_n < 0.10 and relq_n < 0.10
    assert drop_n >= 0.90
    dt = elapsed_under(t0, 60.0, "criterion 7")
    print(f"\n[PASS] criterion 7: noiseless recovery ({rel0:.2e}, {relq:.2e}) "
          f"rel, RMSE drop {100 * drop:.2f}%; 2 um noise ({rel0_n:.2%}, "
          f"{relq_n:.2%}), drop {100 * drop_n:.1f}%, {dt:.2f} s")


def test_criterion_8_split_calibration(bench_params, tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "robot.cfg"
    write_robot_config(cfg_path, RobotConfig(params=bench_params))
    data = tmp_path / "noisy.csv"
    generate_synthetic(bench_params, K_CAL, np.radians(30), 0.0,
                       np.linspace(0.0, 40.0, 200), 0.002, seed=0,
                       path=data)

    def calibrate(*extra):
        proc = subprocess.run(
            [sys.executable, "-m", "crem.cli", "calibrate",
             "--config", str(cfg_path), "--data", str(data), *extra],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    full = calibrate()
    split = calibrate("--split-turning-point")
    assert split["split"] is not None
    assert 0 < split["split"]["pre"] < 200
    assert split["rmse_final_um"] <= full["rmse_final_um"]
    dt = elapsed_under(t0, 60.0, "criterion 8")
    print(f"\n[PASS] criterion 8: split RMSE {split['rmse_final_um']:.4f} um "
          f"<= full {full['rmse_final_um']:.4f} um on {split['split']['pre']} "
          f"pre-turning samples, {dt:.2f} s")


def test_criterion_9_determinism_and_round_trip(bench_params, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    qs = np.linspace(0.0, 40.0, 100)
    generate_synthetic(bench_params, K_CAL, np.radians(30), 0.0, qs, 0.002,
                       seed=21, path=a)
    generate_synthetic(bench_params, K_CAL, np.radians(30), 0.0, qs, 0.002,
                       seed=21, path=b)
    assert a.read_bytes() == b.read_bytes()

    cfg_a, cfg_b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    write_robot_config(cfg_a, RobotConfig(params=bench_params))
    write_robot_config(cfg_b, RobotConfig(params=bench_params))
    assert cfg_a.read_bytes() == cfg_b.read_bytes()

    ms = load_dataset(a, RobotConfig(params=bench_params))
    pos = generate_synthetic(bench_params, K_CAL, np.radians(30), 0.0, qs, 0.002, seed=21)
    worst = float(np.max(np.abs(np.array([m.x_bar for m in ms]) - pos)))
    assert worst == 0.0  # 17-digit decimal round-trip is bitwise
    print(f"\n[PASS] criterion 9: byte-stable synthetic generation and config "
          f"writes, dataset round-trip exact")
