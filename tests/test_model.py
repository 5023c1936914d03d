import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crem import (
    ConfigState,
    EquilibriumConfig,
    NoConvergence,
    NonPhysicalLength,
    RobotParams,
    UncertaintyParams,
    ValidationError,
    micro_trajectory,
    projected_offsets,
    solve_equilibrium,
    uncertainty_lambda,
)
from crem import model
from crem.model import _arc_stiffness, _solve_equilibrium_arrays
from conftest import backbone_lengths, equilibrium_moments, oracle_equilibrium

TH0 = np.pi / 2


# ---------------------------------------------------------------------------
# parameter and state validation


@pytest.mark.parametrize(
    "field,value",
    [("L", 0.0), ("L", -1.0), ("r", 0.0), ("E_p", -5.0), ("I_i", 0.0),
     ("E_s", -1e-9), ("n", 2), ("n", 3.5)],
)
def test_invalid_params_rejected(bench, field, value):
    kwargs = {n: getattr(bench, n) for n in
              ("L", "r", "E_p", "E_i", "E_s", "I_p", "I_i", "I_s", "n")}
    kwargs[field] = value
    with pytest.raises(ValidationError):
        RobotParams(**kwargs)


def test_wire_absent_params_allowed(bench):
    # E_s = I_s = 0 models the no-wire limit and must construct fine
    p = RobotParams(L=bench.L, r=bench.r, E_p=bench.E_p, E_i=bench.E_i,
                    E_s=0.0, I_p=bench.I_p, I_i=bench.I_i, I_s=0.0)
    assert p.EI_s == 0.0


def test_derived_properties(bench):
    assert_allclose(bench.beta, 2 * np.pi / 3)
    assert_allclose(bench.EI_p, 41000.0 * 0.0312)
    assert_allclose(bench.q_min, 1e-6 * 44.3)


@pytest.mark.parametrize("theta", [0.0, np.pi, -0.1, 3.2])
def test_config_state_rejects_out_of_range_theta(theta):
    with pytest.raises(ValidationError):
        ConfigState(theta, 0.0)


def test_equilibrium_config_angle_identity():
    phi = EquilibriumConfig(theta_s=1.2, theta_eps=1.4)
    assert_allclose(phi.theta_eps, phi.theta_prime + (np.pi / 2 - phi.theta_s), atol=0)
    back = EquilibriumConfig.from_tip_angle(phi.theta_s, phi.theta_prime)
    assert_allclose(back.theta_eps, phi.theta_eps, atol=1e-15)


# ---------------------------------------------------------------------------
# geometry helpers


def stiffness_kernel(params, delta, q_s, theta, th_s, th_p):
    """(L_si, L_ei, k0, k1, k2) of the solver's arc kernel, unclamped."""
    D = projected_offsets(params, delta)
    q_s = np.float64(q_s)
    _, k0 = _arc_stiffness(params, D, params.L, theta - TH0)
    L_ei, k1 = _arc_stiffness(params, D, params.L - q_s, th_p - th_s)
    L_si, k2 = _arc_stiffness(params, D, q_s, th_s - TH0)
    return L_si, L_ei, k0, k1, k2


def test_projected_offsets_delta_zero(bench):
    assert_allclose(projected_offsets(bench, 0.0), [3.0, -1.5, -1.5], atol=1e-12)


def test_projected_offsets_delta_right_angle(bench):
    # r cos(pi/2 + (i-1) 2pi/3)
    expected = [0.0, -3 * np.sin(2 * np.pi / 3), 3 * np.sin(2 * np.pi / 3)]
    assert_allclose(projected_offsets(bench, np.pi / 2), expected, atol=1e-12)


def test_projected_offsets_sum_to_zero(bench):
    # symmetric arrangement: sum of cosines over the full circle vanishes
    for delta in np.linspace(-np.pi, np.pi, 17):
        assert abs(np.sum(projected_offsets(bench, delta))) < 1e-12


def test_backbone_lengths_straight(bench):
    assert_allclose(backbone_lengths(bench, TH0, 0.7), np.full(3, 44.3), atol=0)


def test_backbone_lengths_bent(bench):
    L = backbone_lengths(bench, np.radians(30), 0.0)
    assert_allclose(L[0], 44.3 + 3.0 * (np.radians(30) - TH0), atol=1e-12)
    assert_allclose(L[1], L[2], atol=1e-12)


def test_backbone_lengths_nonphysical(bench, k_zero):
    # a 3 mm pitch circle on a 1 mm segment: bent to theta = 0.2 the
    # backbone at sigma = 0 would need length 1 + 3 (0.2 - pi/2) < 0
    short = RobotParams(L=1.0, r=3.0, E_p=bench.E_p, E_i=bench.E_i, E_s=bench.E_s,
                        I_p=bench.I_p, I_i=bench.I_i, I_s=bench.I_s)
    psi = ConfigState(0.2, 0.0)
    with pytest.raises(NonPhysicalLength):
        solve_equilibrium(short, psi, 0.5, k_zero)
    with pytest.raises(NonPhysicalLength):
        micro_trajectory(short, psi, np.linspace(0.0, 1.0, 5), k_zero)


def test_subsegment_lengths_direct(bench):
    L_si, L_ei, *_ = stiffness_kernel(bench, 0.0, 20.0, 1.0, 1.2, 1.1)
    assert_allclose(L_si[0], 20.0 + 3.0 * (1.2 - TH0), atol=1e-12)
    assert_allclose(L_ei[0], 24.3 + 3.0 * (1.1 - 1.2), atol=1e-12)


def test_subsegment_lengths_sum_identity(bench):
    # the two partitions sum to the backbone length evaluated at theta_prime
    th_s, th_p = 1.3, 1.05
    L_si, L_ei, *_ = stiffness_kernel(bench, 0.4, 17.0, 1.0, th_s, th_p)
    D = projected_offsets(bench, 0.4)
    assert_allclose(L_si + L_ei, bench.L + D * (th_p - TH0), atol=1e-12)


def test_subsegment_lengths_boundaries(bench):
    # the stiffnesses of a vanishing subsegment diverge; only lengths matter here
    with np.errstate(divide="ignore"):
        L_si, L_ei, *_ = stiffness_kernel(bench, 0.0, 0.0, 1.0, TH0, 1.0)
        assert_allclose(L_si, 0.0, atol=0)
        L_si, L_ei, *_ = stiffness_kernel(bench, 0.0, bench.L, 1.0, 1.0, 1.0)
        assert_allclose(L_ei, 0.0, atol=0)


def test_uncertainty_lambda_values(k_cal):
    assert uncertainty_lambda(UncertaintyParams.zero(), 10.0, 1.0) == 0.0
    assert_allclose(uncertainty_lambda(k_cal, 10.0, 0.5), 0.45, atol=1e-15)
    assert_allclose(uncertainty_lambda(UncertaintyParams(1, 1, 1), 2.0, 3.0), 6.0)


# ---------------------------------------------------------------------------
# stiffnesses


def test_stiffness_straight_values(bench):
    _, _, k0, k1, k2 = stiffness_kernel(bench, 0.0, 22.15, TH0, TH0, TH0)
    # all lengths equal L: k0 = E(I_p + 3 I_i)/L; each half is twice as stiff
    assert_allclose(k0, 4 * 41000.0 * 0.0312 / 44.3, rtol=1e-12)
    assert_allclose([k1, k2], [2 * k0, 2 * k0], rtol=1e-12)
    assert k0 == pytest.approx(115.52, rel=1e-3)


def test_stiffness_positive_interior(bench):
    for v in stiffness_kernel(bench, 0.3, 10.0, 1.0, 1.3, 1.1)[2:]:
        assert v > 0.0


# ---------------------------------------------------------------------------
# equilibrium solver


def test_straightness_preserved(bench, k_zero):
    psi = ConfigState(TH0, 0.3)
    for q_s in np.linspace(0.0, bench.L, 7):
        phi = solve_equilibrium(bench, psi, q_s, k_zero)
        assert phi.theta_s == TH0
        assert phi.theta_prime == TH0
        assert phi.theta_eps == TH0


def test_zero_wire_closed_form(bench, k_zero):
    p = RobotParams(L=bench.L, r=bench.r, E_p=bench.E_p, E_i=bench.E_i,
                    E_s=bench.E_s, I_p=bench.I_p, I_i=bench.I_i, I_s=0.0)
    for theta in np.radians([15, 45, 75]):
        for q_s in np.linspace(0.05, 0.95, 7) * p.L:
            phi = solve_equilibrium(p, ConfigState(theta, 0.2), q_s, k_zero)
            assert abs(phi.theta_prime - theta) < 1e-10
            assert abs(phi.theta_s - (TH0 + (theta - TH0) * q_s / p.L)) < 1e-10


def test_moment_residuals_at_convergence(bench, k_cal):
    psi = ConfigState(np.radians(40), 0.6)
    phi = solve_equilibrium(bench, psi, 18.0, k_cal)
    m1, m1p, m2, ms, lam = equilibrium_moments(bench, psi.theta, psi.delta, 18.0, k_cal,
                                               phi.theta_s, phi.theta_prime)
    scale = max(1.0, abs(m1))
    assert abs(m1 - m1p) < 1e-9 * scale
    assert abs(m1p + m2 + ms - lam) < 1e-9 * scale


def test_batched_solve_rejects_non_finite_sample(bench, k_cal):
    qs = np.linspace(0.0, 40.0, 6)
    qs[3] = np.nan
    with pytest.raises(ValidationError, match=r"sample 3: \(theta, delta, q_s\) = .*nan"):
        micro_trajectory(bench, ConfigState(np.radians(30), 0.0), qs, k_cal)
    with pytest.raises(ValidationError, match="sample 1"):
        _solve_equilibrium_arrays(bench, [1.0, np.inf, np.nan], 0.0, 10.0, k_cal)


@pytest.mark.parametrize("bad", [3.5, -0.2, 0.0, np.pi])
def test_batched_solve_rejects_theta_outside_range(bench, k_cal, bad):
    # the same rule ConfigState enforces on a single configuration
    pattern = r"sample 2: \(theta, delta, q_s\) = \(" + f"{bad:.6g}"
    with pytest.raises(ValidationError, match=pattern):
        _solve_equilibrium_arrays(bench, [1.0, 0.5, bad, 1.2], 0.3, 10.0, k_cal)


def test_batched_solve_no_convergence_names_the_sample(bench, k_zero, monkeypatch):
    # straight samples take a zero first step; the bent one cannot settle in one sweep
    theta = np.full(5, TH0)
    theta[3] = np.radians(40)
    monkeypatch.setattr(model, "_SOLVER_MAX_ITER", 1)
    pattern = (r"sample 3: \(theta, delta, q_s\) = \(0\.698132, 0\.2, 15\): "
               r".*not converged after 1 ")
    with pytest.raises(NoConvergence, match=pattern):
        _solve_equilibrium_arrays(bench, theta, 0.2, 15.0, k_zero)


def test_batched_solve_no_convergence_counts_active_samples(bench, k_zero, monkeypatch):
    # the straight samples freeze after their zero first step; the worst of
    # the two bent ones is named
    theta = np.full(5, TH0)
    theta[1], theta[3] = np.radians(60), np.radians(40)
    monkeypatch.setattr(model, "_SOLVER_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match=r"sample 3: .*; 2 of 5 samples still active"):
        _solve_equilibrium_arrays(bench, theta, 0.2, 15.0, k_zero)


def test_solver_matches_bruteforce_oracle(bench, k_cal, k_zero):
    for k in (k_zero, k_cal):
        for theta in np.radians([20, 45, 70]):
            for q_s in (4.43, 22.15, 39.87):
                phi = solve_equilibrium(bench, ConfigState(theta, 0.0), q_s, k)
                ref_s, ref_p = oracle_equilibrium(bench, theta, 0.0, q_s, k)
                assert abs(phi.theta_s - ref_s) < 1e-9
                assert abs(phi.theta_prime - ref_p) < 1e-9


def test_robot_straightens_with_insertion(bench, k_zero):
    # wire stiffens the inserted portion, pulling theta_prime toward pi/2
    theta = np.radians(30)
    phi = solve_equilibrium(bench, ConfigState(theta, 0.0), 20.0, k_zero)
    assert theta < phi.theta_prime < TH0


def test_boundary_continuity_small_qs(bench, k_zero):
    theta = np.radians(35)
    psi = ConfigState(theta, 0.0)
    for exp in range(1, 7):
        q_s = 10.0 ** (-exp) * bench.L
        phi = solve_equilibrium(bench, psi, q_s, k_zero)
        assert abs(phi.theta_prime - theta) < 10.0 ** (-exp) * 2
        assert abs(phi.theta_s - TH0) < 10.0 ** (-exp) * 2
    phi = solve_equilibrium(bench, psi, 0.0, k_zero)
    assert phi.theta_s == TH0
    assert phi.theta_prime == theta


def test_full_insertion_limit(bench, k_zero):
    theta = np.radians(35)
    phi = solve_equilibrium(bench, ConfigState(theta, 0.0), bench.L, k_zero)
    assert np.isfinite(phi.theta_s) and np.isfinite(phi.theta_prime)
    # fully inserted: separation plane reaches the end disk
    assert abs(phi.theta_prime - phi.theta_s) < 1e-6


def test_delta_equivariance(bench, k_cal):
    # n = 3 symmetric arrangement: shifting delta by the separation angle
    # relabels backbones without changing the stiffness sums
    theta = np.radians(50)
    for delta in (0.0, 0.37, -1.1):
        a = solve_equilibrium(bench, ConfigState(theta, delta), 15.0, k_cal)
        b = solve_equilibrium(
            bench, ConfigState(theta, delta + 2 * np.pi / 3), 15.0, k_cal
        )
        assert abs(a.theta_s - b.theta_s) < 1e-11
        assert abs(a.theta_prime - b.theta_prime) < 1e-11


@given(
    theta=st.floats(np.radians(15), np.radians(75)),
    delta=st.floats(-np.pi, np.pi, exclude_min=True),
    fq=st.floats(0.01, 0.99),
    k0=st.floats(-0.5, 0.5),
    kq=st.floats(-0.05, 0.05),
)
@settings(max_examples=60, deadline=None)
def test_moment_balance_property(bench, theta, delta, fq, k0, kq):
    k = UncertaintyParams(k0, 0.0, kq)
    psi = ConfigState(theta, delta)
    q_s = fq * bench.L
    phi = solve_equilibrium(bench, psi, q_s, k)
    m1, m1p, m2, ms, lam = equilibrium_moments(bench, theta, delta, q_s, k,
                                               phi.theta_s, phi.theta_prime)
    scale = max(1.0, abs(m1))
    assert abs(m1 - m1p) < 1e-9 * scale
    assert abs(m1p + m2 + ms - lam) < 1e-9 * scale
