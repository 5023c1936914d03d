import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from crem import (
    ConfigState,
    EquilibriumConfig,
    Measurement,
    RobotParams,
    UncertaintyParams,
    ValidationError,
    assemble_motion_jacobians,
    crem_pose,
    default_params,
    micro_trajectory,
    fd_discrepancies,
    identification_jacobian,
)
from crem import differential
from crem.differential import (
    _FD_STEP,
    _orthogonal_pinv,
    _phi_gradient_arrays,
    _xi_jacobian_arrays,
)
from crem.kinematics import (
    STRAIGHT_SERIES_THRESHOLD,
    _arc,
    _chain,
    _solved_chain,
    _tip_positions,
    segment_rotation,
)
from crem.calibration import PARAM_NAMES, _fit, _jacobian_factors
from crem.model import (
    _arc_moment,
    _equilibrium_angles,
    _sigma,
    _theta_prime,
    uncertainty_lambda,
)
from golden.dump import K_JACOBIAN, POINTS, mixed_configurations
from conftest import (
    DOMAIN_EDGES,
    FD_DOMAIN,
    backbone_lengths,
    equilibrium_moments,
    fd_discrepancies_per_point,
    finite_difference_jacobian,
    jacobian_arrays,
    jacobian_partitions,
    mp_equilibrium,
    mp_macro_jacobian,
    mp_tip_position_jacobian,
    mp_tip_rotation_jacobian,
    mp_twist_jacobian,
    outside,
    pose_arrays_3d,
    projected_offsets,
    segment_pose,
    solve_kappa,
    xi_jacobian_arrays_3d,
)

TH0 = np.pi / 2


# ---------------------------------------------------------------------------
# arc ratios: the partitions scale the theta-slopes (chi_a, chi_b) of the arc
# ratios (a, b) and chi_c = -a


def arc_ratios(theta):
    arc = _arc(theta)
    return arc.a, arc.b


def arc_slopes(theta):
    arc = _arc(theta, slopes=True)
    return arc.a_t, arc.b_t


def chi_abc(theta):
    arc = _arc(theta, slopes=True)
    return arc.a_t, arc.b_t, -arc.a


def test_chi_values_against_extended_precision():
    # against an 80-bit reference on both sides of the b_t series window
    # (|u| < 1e-4); outside it b_t = (cos u - b) / u loses eps/u to
    # cancellation, the half-angle forms of a, b and a_t lose nothing
    for u, atol in [(-1e-3, 1e-9), (-1.1e-4, 1e-7), (-9e-5, 1e-9),
                    (9e-5, 1e-9), (1.1e-4, 1e-7), (1e-3, 1e-9)]:
        # substituting t = pi/2 + u turns the ratios into pure functions of
        # u, dodging the float pi/2 pivot that would smear d/u^2 into them
        ul = np.longdouble(u)
        ref_a = (1.0 - np.cos(ul) - ul * np.sin(ul)) / ul**2
        ref_b = (ul * np.cos(ul) - np.sin(ul)) / ul**2
        ref_c = (1.0 - np.cos(ul)) / ul
        a, b, c = chi_abc(TH0 + u)
        assert abs(a - float(ref_a)) < atol, u
        assert abs(b - float(ref_b)) < atol, u
        assert abs(c - float(ref_c)) < atol, u


def test_chi_straight_limits():
    a, b, c = chi_abc(TH0)
    assert_allclose([a, b, c], [-0.5, 0.0, 0.0], atol=1e-15)


@given(sign=st.sampled_from([-1.0, 1.0]), d=st.floats(0.0, 1e-6))
@settings(max_examples=200, deadline=None)
def test_arc_ratios_continuous_across_series_switch(sign, d):
    # u = +-(threshold -+ d) straddle the switch of b_t from series to
    # closed form.  Every ratio and slope has |d/du| <= 1 there, so the true
    # change is at most 2d; the rest is rounding and the cancellation of b_t
    # outside the window, bounded as in test_chi_values_against_extended_precision
    inside = TH0 + sign * (STRAIGHT_SERIES_THRESHOLD - d)
    outside = TH0 + sign * (STRAIGHT_SERIES_THRESHOLD + d)
    for f, atol in ((arc_ratios, 1e-9), (arc_slopes, 1e-7)):
        jump = np.abs(np.subtract(f(inside), f(outside)))
        assert np.all(jump <= 2.0 * d + atol), (f.__name__, jump)


def test_arc_ratios_at_a_half_turn():
    # the half-angle forms divide by u only: at u = +-pi, where 1 + cos u
    # vanishes, a = (cos u - 1) / u, b = sin u / u and their slopes stay exact
    for u in (np.pi, -np.pi):
        arc = _arc(TH0 + u, slopes=True)
        assert_allclose([arc.a, arc.b, arc.a_t, arc.b_t],
                        [-2.0 / u, 0.0, 2.0 / u**2, -1.0 / u], rtol=0, atol=1e-15)


def test_arc_slopes_are_derivatives_of_the_ratios():
    # central differences of (a, b) inside the b_t window, across straight
    # and far from it
    theta = TH0 + np.array([-0.9, -0.05, -5e-5, 0.0, 3e-5, 0.05, 1.2])
    h = 1e-6
    fd = (np.array(arc_ratios(theta + h)) - np.array(arc_ratios(theta - h))) / (2.0 * h)
    assert_allclose(np.array(arc_slopes(theta)), fd, rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# converged balance


@pytest.mark.parametrize("theta_deg,q_s", [(30, 20.0), (60, 5.0), (100, 35.0)])
def test_solver_matrices_residual_vanishes(bench, k_cal, theta_deg, q_s):
    # both raw moment residuals vanish at the solved angles
    psi = ConfigState(np.radians(theta_deg), 0.4)
    phi = crem_pose(bench, psi, q_s, k_cal).equilibrium
    m1, m1p, m2, ms, lam = equilibrium_moments(bench, psi.theta, psi.delta, q_s, k_cal,
                                               phi.theta_s, phi.theta_prime)
    assert max(abs(m1p - m1), abs(m1p + m2 + ms - lam)) < 1e-8


# ---------------------------------------------------------------------------
# equilibrium sensitivities


def test_straight_phi_insensitive_to_depth(bench, k_zero):
    g = assemble_motion_jacobians(bench, ConfigState(TH0, 0.3), 15.0, k_zero).d_phi
    assert_allclose(g[:, 2], 0.0, atol=1e-12)


def test_tip_angle_follows_nominal_angle(bench, k_zero):
    g = assemble_motion_jacobians(bench, ConfigState(np.radians(30), 0.0), 20.0, k_zero).d_phi
    d_theta_prime = g[0, 0] + g[1, 0]
    assert d_theta_prime > 0.0


def test_phi_gradients_match_finite_differences(bench, k_cal):
    psi = ConfigState(np.radians(40), 0.7)
    q_s = 18.0
    analytic = assemble_motion_jacobians(bench, psi, q_s, k_cal).d_phi
    h = 1e-6

    def phi_of(theta, delta, qs, k0, kt, kq):
        e = crem_pose(bench, ConfigState(theta, delta), qs,
                      UncertaintyParams(k0, kt, kq)).equilibrium
        return np.array([e.theta_s, e.theta_eps])

    x0 = [psi.theta, psi.delta, q_s, k_cal.k_lambda0, k_cal.k_lambda_theta,
          k_cal.k_lambda_q]
    for j in range(6):
        xp, xm = list(x0), list(x0)
        xp[j] += h
        xm[j] -= h
        fd = (phi_of(*xp) - phi_of(*xm)) / (2.0 * h)
        assert np.max(np.abs(analytic[:, j] - fd)) < 1e-6


def test_boundary_gradients_stay_finite(bench, k_cal):
    for q_s in (0.0, bench.L):
        g = assemble_motion_jacobians(bench, ConfigState(np.radians(30), 0.2), q_s, k_cal).d_phi
        assert g.shape == (2, 6) and np.all(np.isfinite(g))


# ---------------------------------------------------------------------------
# per-subsegment partitions


def test_partitions_straight_limits():
    Jvt, Jwt, Jvd, Jwd = jacobian_partitions(0.0, 0.0, 44.3)
    # chi_c(0) = -2/pi: bending-plane swing moves the tip along -y
    assert_allclose(Jvd, [0.0, -2.0 / np.pi * 44.3, 0.0], rtol=1e-12)
    assert_allclose(Jwt, [0.0, -1.0, 0.0], atol=0)


def test_partitions_delta_rotation_vanishes_when_straight():
    # at theta = pi/2 the subsegment is straight; rotating its bending
    # plane is unobservable, so the angular partition must vanish
    for delta in (0.0, 0.7, -2.0):
        _, _, _, Jwd = jacobian_partitions(TH0, delta, 10.0)
        assert_allclose(Jwd, 0.0, atol=1e-15)


def test_partitions_zero_length_has_no_translation():
    Jvt, Jwt, Jvd, Jwd = jacobian_partitions(0.8, 0.5, 0.0)
    assert_allclose(Jvt, 0.0, atol=0)
    assert_allclose(Jvd, 0.0, atol=0)
    assert np.linalg.norm(Jwt) > 0.9  # angular parts are length-free


@pytest.mark.parametrize("theta", [0.9, TH0 + 5e-5, TH0 - 5e-5])
def test_partitions_match_single_arc_differences(theta):
    # theta values inside the straight window exercise the series of b_t
    # against differences of positions near straight
    delta, L_x = 0.6, 23.0
    Jvt, Jwt, Jvd, Jwd = jacobian_partitions(theta, delta, L_x)
    h = 1e-7
    for J_v, J_w, idx in ((Jvt, Jwt, 0), (Jvd, Jwd, 1)):
        args_p, args_m = [theta, delta], [theta, delta]
        args_p[idx] += h
        args_m[idx] -= h
        pp = segment_pose(L_x, *args_p)
        pm = segment_pose(L_x, *args_m)
        dv = (pp.p - pm.p) / (2.0 * h)
        dw = Rotation.from_matrix(pp.R @ pm.R.T).as_rotvec() / (2.0 * h)
        assert np.max(np.abs(J_v - dv)) < 1e-6
        assert np.max(np.abs(J_w - dw)) < 1e-6


# ---------------------------------------------------------------------------
# tip-twist assembly at fixed equilibrium


def xi_arrays(params, th_s, th_e, delta, q_s):
    """(p, J_xi_phi, J_xi_delta, J_xi_qs) of the planar chain at the given angles."""
    c = _chain(params, th_s, th_e, _arc(th_e, slopes=True), q_s)
    return _xi_jacobian_arrays(params, c, delta, q_s)


def test_straight_chain_depth_jacobian_vanishes(bench):
    _, _, _, J_xi_qs = xi_arrays(bench, TH0, TH0, 0.3, 12.0)
    assert_allclose(J_xi_qs, 0.0, atol=1e-15)


def test_xi_phi_column_against_pose_differences(bench):
    phi = EquilibriumConfig(theta_s=1.2, theta_eps=1.45)
    delta, q_s = 0.5, 14.0
    _, J_xi_phi, _, _ = xi_arrays(bench, phi.theta_s, phi.theta_eps, delta, q_s)
    h = 1e-7
    for col, (dts, dte) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        pp, pm = (EquilibriumConfig(phi.theta_s + sgn * h * dts, phi.theta_eps + sgn * h * dte)
                  for sgn in (1.0, -1.0))
        dv = (_tip_positions(bench, pp.theta_s, pp.theta_eps, delta, q_s)
              - _tip_positions(bench, pm.theta_s, pm.theta_eps, delta, q_s)) / (2.0 * h)
        R_p, R_m = (segment_rotation(e.theta_prime, delta) for e in (pp, pm))
        dw = Rotation.from_matrix(R_p @ R_m.T).as_rotvec() / (2.0 * h)
        assert np.max(np.abs(J_xi_phi[:3, col] - dv)) < 1e-6
        assert np.max(np.abs(J_xi_phi[3:, col] - dw)) < 1e-6


def test_xi_delta_in_plane_components_vanish(bench):
    # at delta = 0 the bending plane is x-z: swinging it moves the tip out
    # of plane (y) and tilts about in-plane axes only
    _, _, J_xi_delta, _ = xi_arrays(bench, 1.1, 1.3, 0.0, 17.0)
    assert abs(J_xi_delta[0]) < 1e-12
    assert abs(J_xi_delta[2]) < 1e-12
    assert abs(J_xi_delta[4]) < 1e-12
    assert abs(J_xi_delta[1]) > 1e-3


# near-straight angles on both sides of the series switch, exactly straight,
# and anywhere in the bend range
CHAIN_ANGLES = st.one_of(
    st.just(TH0),
    st.floats(-2e-4, 2e-4).map(lambda u: TH0 + u),
    st.floats(0.05, np.pi - 0.05),
)
CHAIN_SAMPLES = st.lists(
    st.tuples(CHAIN_ANGLES, CHAIN_ANGLES, st.floats(-np.pi, np.pi, exclude_min=True),
              st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
    min_size=1, max_size=8,
)


@given(samples=CHAIN_SAMPLES)
@settings(max_examples=150, deadline=None)
def test_planar_chain_matches_3d_chain(bench, samples):
    # the planar chain and the rotation identity R_c R_gc = segment_rotation(
    # theta_s + theta_eps - pi/2, delta) against the 3-D composition
    th_s, th_e, delta, fq = (np.array(col) for col in zip(*samples))
    q_s = fq * bench.L
    p, *xi = xi_arrays(bench, th_s, th_e, delta, q_s)
    planar = (_tip_positions(bench, th_s, th_e, delta, q_s),
              segment_rotation(th_s + th_e - TH0, delta), *xi)
    # the Jacobian pass's tip is the plain-arc pass's, bit for bit
    assert p.tobytes() == planar[0].tobytes()
    oracle = (*pose_arrays_3d(bench, th_s, th_e, delta, q_s),
              *xi_jacobian_arrays_3d(bench, th_s, th_e, delta, q_s))
    for name, got, ref in zip(("p", "R", "J_xi_phi", "J_xi_delta", "J_xi_qs"), planar, oracle):
        assert got.shape == ref.shape, name
        for i in range(len(samples)):
            assert _close(got[i], ref[i]), (name, samples[i])


@pytest.mark.parametrize("n", [3, 4, 6])
def test_closed_form_pinv_matches_numpy(n):
    params = RobotParams(L=44.3, r=3.0, E_p=41000.0, E_i=41000.0, E_s=41000.0,
                         I_p=0.0312, I_i=0.0312, I_s=0.0010, n=n)
    rng = np.random.default_rng(n)
    theta = np.concatenate([rng.uniform(0.05, np.pi - 0.05, 300),
                            [TH0, TH0 - 1e-12, TH0 + 1e-12]])
    delta = rng.uniform(-np.pi, np.pi, theta.size)
    sig = _sigma(params, delta, 0).T  # backbone-major (n, N) turned to (N, n)
    J_q_psi = params.r * np.stack([np.cos(sig), (TH0 - theta)[:, None] * np.sin(sig)], axis=-1)
    ref = np.linalg.pinv(J_q_psi)
    got = _orthogonal_pinv(J_q_psi)
    assert got.shape == ref.shape == (theta.size, 2, n)
    for i in range(theta.size):
        assert _close(got[i], ref[i]), theta[i]
    # exactly straight: the delta column of J_q_psi vanishes and its row is dropped
    assert np.all(got[theta == TH0, 1] == 0.0) and np.all(ref[theta == TH0, 1] == 0.0)


def test_empty_batches_return_empty_arrays(bench, k_cal):
    empty = np.array([])
    pos, th_s, th_p = micro_trajectory(bench, ConfigState(1.0, 0.3), empty, k_cal)
    assert pos.shape == (0, 3) and th_s.shape == (0,) and th_p.shape == (0,)
    core = jacobian_arrays(bench, empty, empty, empty, k_cal)
    assert core.th_s.shape == (0,)
    assert core.J_M.shape == (0, 6, 3)
    assert core.J_mu.shape == (0, 6)
    assert core.J_k.shape == (0, 6, 3)
    assert identification_jacobian([], bench, k_cal, ("k_lambda0", "k_lambda_q")).shape == (0, 2)
    all_free = ("k_lambda0", "k_lambda_theta", "k_lambda_q")
    assert identification_jacobian([], bench, k_cal, all_free).shape == (0, 3)


# an argument given as a float, a 0-d array, a (5,) row, a (2, 1) column or
# the whole (2, 5) array, or as an empty (0,) batch, all cut from a (2, 5) array
ARGUMENT_FORMS = {
    "float": lambda a: float(a[0, 0]),
    "0-d": lambda a: a[0, 0, ...],
    "row": lambda a: a[0],
    "column": lambda a: a[:, :1],
    "whole": lambda a: a,
    "empty": lambda a: a[0, :0],
}


@pytest.mark.parametrize("kernel", ["tip", "xi", "grad"])
def test_kernels_broadcast_mixed_arguments(bench, k_cal, kernel):
    # the kernels below the batched entry points broadcast nothing up front;
    # any mix of scalars and arrays, as simulate-macro and the scalar paths
    # pass them, gives the shapes and bits of broadcasting the arguments first
    rng = np.random.default_rng(21)
    theta = rng.uniform(0.3, 2.8, (2, 5))
    theta[1, 0] = TH0
    delta = rng.uniform(-np.pi, np.pi, (2, 5))
    q_s = rng.uniform(0.0, bench.L, (2, 5))
    kappa = solve_kappa(bench, theta, delta, q_s, uncertainty_lambda(k_cal, q_s, theta))
    th_s, th_e = _equilibrium_angles(bench, theta, q_s, kappa)
    f, full = {
        "tip": (lambda *a: (_tip_positions(bench, *a),), (th_s, th_e, delta, q_s)),
        "xi": (lambda *a: xi_arrays(bench, *a), (th_s, th_e, delta, q_s)),
        "grad": (lambda th, de, qs, ka: _phi_gradient_arrays(bench, th, de, qs, k_cal, ka),
                 (theta, delta, q_s, kappa)),
    }[kernel]
    mixed = itertools.product(("float", "0-d", "row", "column", "whole"), repeat=4)
    empty = (forms for forms in itertools.product(("float", "column", "empty"), repeat=4)
             if "empty" in forms)
    for forms in itertools.chain(mixed, empty):
        args = [ARGUMENT_FORMS[form](a) for form, a in zip(forms, full)]
        got = f(*args)
        ref = f(*np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args)))
        for g, r in zip(got, ref):
            assert g.shape == r.shape and g.tobytes() == r.tobytes(), forms


def test_theta_batch_at_one_delta_and_depth_is_the_broadcast_call(bench, k_cal):
    # simulate-macro passes its theta range with one delta and one q_s as they are
    theta = np.radians(np.linspace(15.0, 90.0, 7))
    delta, q_s = np.radians(40.0), 20.0
    got = differential._jacobian_arrays(bench, theta, delta, q_s, k_cal,
                                        *_solved_chain(bench, theta, delta, q_s, k_cal))
    ref = jacobian_arrays(bench, theta, delta, q_s, k_cal)
    # every JacobianSet field and assembled block
    for name in ("th_s", "th_e", "p", "d_phi", "J_xi_phi", "J_xi_delta", "J_xi_qs", "J_q_psi",
                 "J_psi", "J_M", "J_mu", "J_k"):
        g, r = getattr(got, name), getattr(ref, name)
        assert g.shape == r.shape and g.tobytes() == r.tobytes(), name


# ---------------------------------------------------------------------------
# actuation map


def test_backbone_displacement_jacobian_values(bench, k_zero):
    J = assemble_motion_jacobians(bench, ConfigState(np.radians(30), 0.0), 20.0, k_zero).J_q_psi
    assert_allclose(J[:, 0], [3.0, -1.5, -1.5], rtol=1e-12)
    J_straight = assemble_motion_jacobians(bench, ConfigState(TH0, 0.8), 20.0, k_zero).J_q_psi
    assert_allclose(J_straight[:, 1], 0.0, atol=1e-15)


def test_backbone_displacement_jacobian_against_lengths(bench, k_zero):
    psi = ConfigState(np.radians(55), 0.9)
    J = assemble_motion_jacobians(bench, psi, 20.0, k_zero).J_q_psi
    h = 1e-6
    for col, (dt, dd) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        qp = backbone_lengths(bench, psi.theta + h * dt, psi.delta + h * dd) - bench.L
        qm = backbone_lengths(bench, psi.theta - h * dt, psi.delta - h * dd) - bench.L
        assert np.max(np.abs(J[:, col] - (qp - qm) / (2.0 * h))) < 1e-8


# ---------------------------------------------------------------------------
# assembled motion Jacobians


def test_straight_micro_jacobian_vanishes(bench, k_zero):
    js = assemble_motion_jacobians(bench, ConfigState(TH0, 0.2), 11.0, k_zero)
    assert_allclose(js.J_mu, 0.0, atol=1e-12)


def test_macro_micro_decoupling_consistency(bench, k_cal):
    js = assemble_motion_jacobians(bench, ConfigState(np.radians(35), 0.6), 16.0, k_cal)
    col_theta = js.J_xi_phi @ js.d_phi[:, 0]
    col_delta = js.J_xi_phi @ js.d_phi[:, 1] + js.J_xi_delta
    # J_q_psi has full column rank away from straight, so the pseudo-inverse
    # composition reproduces the (theta, delta) columns exactly
    assert_allclose(js.J_M @ js.J_q_psi,
                    np.column_stack([col_theta, col_delta]), atol=1e-10)
    assert js.J_M.shape == (6, 3)
    assert js.J_k.shape == (6, 3)


# at delta = pi and -pi + 5e-7 rad the delta steps cross +-pi and wrap back; the
# next two points sit 2 h from the ends of the insertion range, and the last
# two 4e-4 and 2e-4 rad from straight, just outside the b_t series window
@pytest.mark.parametrize("theta_deg,delta_deg,q_s", [
    (30, 0, 20.0), (60, 40, 5.0), (120, -75, 35.0), (30, 180, 22.0), (30, -180 + 3e-5, 22.0),
    (30, 0, 2e-6), (30, 0, 44.3 - 2e-6),
    (90 + np.degrees(4e-4), np.degrees(0.3), 20.0), (90 - np.degrees(2e-4), np.degrees(1.2), 15.0),
])
def test_fd_agreement_spot_checks(bench, k_zero, k_cal, theta_deg, delta_deg, q_s):
    psi = ConfigState(np.radians(theta_deg), np.radians(delta_deg))
    for k in (k_zero, k_cal):
        errs = fd_discrepancies(bench, psi, q_s, k)
        worst = max(errs.values())
        assert worst < 1e-6, errs


def test_fd_agreement_at_straight_boundary(bench, k_zero, k_cal):
    # theta = pi/2 exercises the series of b_t.  At straight J_q_psi loses
    # its delta column, yet with k_cal the uncertainty moment still bends the
    # segment, so a delta motion exists that no backbone displacement makes:
    # the J_M entry scores J_psi, where J_M J_q_psi was off by 9.3e-2
    for k in (k_zero, k_cal):
        errs = fd_discrepancies(bench, ConfigState(TH0, 0.5), 22.0, k)
        assert max(errs.values()) < 1e-6, errs


# theta anywhere in [15, 165] deg, exactly straight, or 10^U(-9, -1.5) rad to
# either side of it; q_s anywhere in [h, L - h] or 10^U(-6, log10(L / 2)) mm
# from either end
FD_THETAS = st.one_of(
    st.floats(np.radians(15), np.radians(165)),
    st.just(TH0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-9.0, -1.5)).map(
        lambda se: TH0 + se[0] * 10.0 ** se[1]),
)
FD_END_DISTANCE = st.floats(-6.0, np.log10(44.3 / 2)).map(lambda e: 10.0 ** e)
FD_POINTS = st.lists(
    st.tuples(FD_THETAS, st.floats(-np.pi, np.pi, exclude_min=True),
              st.one_of(st.floats(_FD_STEP, 44.3 - _FD_STEP), FD_END_DISTANCE,
                        FD_END_DISTANCE.map(lambda d: 44.3 - d))),
    min_size=1, max_size=6,
)


@given(points=FD_POINTS, k0=st.floats(-0.5, 0.5), kt=st.floats(-0.3, 0.3),
       kq=st.floats(-0.05, 0.05))
@settings(max_examples=200, deadline=None)
def test_fd_agreement_over_the_domain(bench, points, k0, kt, kq):
    assert bench.L == 44.3  # the depth strategies are written for the bench length
    theta, delta, q_s = (np.array(col) for col in zip(*points))
    errs = differential._fd_discrepancy_arrays(bench, theta, delta, q_s,
                                               UncertaintyParams(k0, kt, kq))
    for key, v in errs.items():
        assert np.all(v < 1e-6), (key, v, points)


def test_fd_discrepancies_solves_each_point_once(bench, k_cal, monkeypatch):
    # one batched solve covers the point and its twelve perturbations (+h and
    # -h in each of the six inputs); the analytic Jacobians and the d_phi
    # differences reuse it
    import crem.kinematics
    import crem.model

    solve = crem.model._newton
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    for module in (differential, crem.kinematics, crem.model):
        monkeypatch.setattr(module, "_newton", counting)
    fd_discrepancies(bench, ConfigState(np.radians(40), 0.3), 15.0, k_cal)
    assert len(calls) == 1


def test_fd_discrepancies_form_every_pose_in_one_pass(bench, k_cal, monkeypatch):
    # the perturbed equilibria and the kinematics-only steps share one pose pass
    twists = differential._central_twists
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return twists(*args, **kwargs)

    monkeypatch.setattr(differential, "_central_twists", counting)
    fd_discrepancies(bench, ConfigState(np.radians(40), 0.3), 15.0, k_cal)
    assert calls == [(20,)]
    differential._fd_discrepancy_arrays(bench, np.full(3, 0.7), np.zeros(3), 20.0, k_cal)
    assert calls == [(20,), (20, 3)]


def test_one_fd_point_differentiates_numpy_scalars(bench, k_cal, monkeypatch):
    # the point's analytic Jacobians run at shape (), as assemble_motion_jacobians' do, not on
    # a batch of one
    core = differential._jacobian_arrays
    seen = []

    def recording(params, theta, delta, q_s, k, kappa, chain):
        seen.append([type(a) for a in (theta, delta, q_s, kappa, *chain[:2], *chain[4:])])
        return core(params, theta, delta, q_s, k, kappa, chain)

    monkeypatch.setattr(differential, "_jacobian_arrays", recording)
    fd_discrepancies(bench, ConfigState(np.radians(40), 0.3), 15.0, k_cal)
    assert seen == [[np.float64] * 10]


def one_point_oracle_points():
    """(theta, delta, q_s) of the golden dump's four finite-difference points, an exactly
    straight point, and deltas within 1e-6 of +-pi, whose +-h steps wrap."""
    theta, delta, q_s = mixed_configurations(default_params())
    golden = [(theta[i], delta[i], q_s[i]) for i in POINTS
              if _FD_STEP <= q_s[i] <= default_params().L - _FD_STEP]
    assert len(golden) == 4
    return golden + [(TH0, 0.7, 20.0), (1.0, np.pi, 20.0), (1.2, np.pi - 5e-7, 30.0),
                     (0.8, -np.pi + 5e-7, 10.0), (TH0, -np.pi + 1e-6, 5.0)]


@pytest.mark.parametrize("k", [K_JACOBIAN, UncertaintyParams(-0.3, 0.1, -0.04)])
def test_one_fd_point_is_its_row_of_a_batch(k):
    # one point runs at shape (), a batch keeps its axis: the errors are the same bits
    params, points = default_params(), one_point_oracle_points()
    theta, delta, q_s = (np.array(col) for col in zip(*points))
    batch = differential._fd_discrepancy_arrays(params, theta, delta, q_s, k)
    for i, (t, d, q) in enumerate(points):
        alone = fd_discrepancies(params, ConfigState(t, d), q, k)
        assert list(alone) == list(batch)
        for key, v in alone.items():
            assert np.float64(v).tobytes() == batch[key][i].tobytes(), (i, key)


@pytest.mark.parametrize("seed", [0, 1])
def test_fd_discrepancies_equal_per_point_oracle(bench, seed):
    rng = np.random.default_rng(seed)
    deltas = np.concatenate([[np.pi, -np.pi + 5e-7], rng.uniform(-np.pi, np.pi, 10)])
    for delta in deltas:
        psi = ConfigState(rng.uniform(np.radians(15), np.radians(165)), delta)
        q_s = rng.uniform(0.02, 0.98) * bench.L
        k = UncertaintyParams(*rng.uniform(-0.05, 0.05, 3))
        assert fd_discrepancies(bench, psi, q_s, k) == fd_discrepancies_per_point(
            bench, psi, q_s, k)


def test_fd_helper_on_known_map():
    def f(x):
        from crem.kinematics import Pose

        R = Rotation.from_rotvec([0.0, 0.0, x[0]]).as_matrix()
        return Pose(p=np.array([x[0] ** 2, x[1], 0.0]), R=R)

    J = finite_difference_jacobian(f, np.array([0.3, 2.0]))
    assert_allclose(J[:3, 0], [0.6, 0.0, 0.0], atol=1e-8)
    assert_allclose(J[5, 0], 1.0, atol=1e-8)
    assert_allclose(J[:3, 1], [0.0, 1.0, 0.0], atol=1e-10)


@given(theta=st.floats(np.radians(20), np.radians(150)),
       delta=st.floats(-np.pi, np.pi, exclude_min=True),
       fq=st.floats(0.05, 0.95))
@settings(max_examples=25, deadline=None)
def test_depth_gradient_tracks_differences(bench, k_cal, theta, delta, fq):
    q_s = bench.L * fq
    psi = ConfigState(theta, delta)
    g = assemble_motion_jacobians(bench, psi, q_s, k_cal).d_phi
    h = 1e-6
    ep, em = (crem_pose(bench, psi, q_s + s, k_cal).equilibrium for s in (h, -h))
    fp, fm = np.array([ep.theta_s, ep.theta_eps]), np.array([em.theta_s, em.theta_eps])
    assert np.max(np.abs(g[:, 2] - (fp - fm) / (2.0 * h))) < 1e-5


# distance from either end of [0, L], log-uniform over 1e-7 L .. L
END_DISTANCE = st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e)
SAMPLES = st.lists(
    st.tuples(
        st.one_of(st.just(TH0), st.floats(np.radians(15), np.radians(165))),
        st.floats(-np.pi, np.pi, exclude_min=True),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), END_DISTANCE,
                  END_DISTANCE.map(lambda d: 1.0 - d)),
    ),
    min_size=1, max_size=6,
)


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


@given(samples=SAMPLES, k0=st.floats(-0.5, 0.5), kq=st.floats(-0.05, 0.05))
@settings(max_examples=40, deadline=None)
def test_batched_core_equals_scalar_api(bench, samples, k0, kq):
    # straight samples and the q_s = 0 and q_s = L boundaries are drawn on purpose
    k = UncertaintyParams(k0, 0.0, kq)
    theta, delta, fq = (np.array(col) for col in zip(*samples))
    qs = fq * bench.L
    core = jacobian_arrays(bench, theta, delta, qs, k)
    pos = _tip_positions(bench, core.th_s, core.th_e, delta, qs)
    assert core.p.tobytes() == pos.tobytes()
    J_M, J_mu, J_k = core.J_M, core.J_mu, core.J_k
    psi0 = ConfigState(theta[0], delta[0])
    sweep, _, _ = micro_trajectory(bench, psi0, qs, k)
    for i in range(len(samples)):
        psi = ConfigState(theta[i], delta[i])
        assert _close(pos[i], crem_pose(bench, psi, qs[i], k).tip.p)
        assert _close(sweep[i], crem_pose(bench, psi0, qs[i], k).tip.p)
        js = assemble_motion_jacobians(bench, psi, qs[i], k)
        assert _close(J_M[i], js.J_M)
        assert _close(J_mu[i], js.J_mu)
        assert _close(J_k[i], js.J_k)


@given(samples=SAMPLES, k0=st.floats(-0.5, 0.5), kq=st.floats(-0.05, 0.05))
@settings(max_examples=60, deadline=None)
def test_sample_is_bit_identical_alone_and_in_batch(bench, samples, k0, kq):
    # th_s and th_e are the solver's angles; every other field is formed from them
    k = UncertaintyParams(k0, 0.0, kq)
    theta, delta, fq = (np.array(col) for col in zip(*samples))
    qs = fq * bench.L
    batch = jacobian_arrays(bench, theta, delta, qs, k)
    for i in range(len(samples)):
        alone = jacobian_arrays(bench, theta[i], delta[i], qs[i], k)
        for name in ("th_s", "th_e", "p", "d_phi", "J_xi_phi", "J_xi_delta", "J_xi_qs",
                     "J_q_psi", "J_psi", "J_M", "J_mu", "J_k"):
            assert np.array_equal(getattr(batch, name)[i], getattr(alone, name)), (i, name)


# each JacobianSet field and assembled block of one configuration, with its shape on the
# bench robot (n = 3)
SCALAR_FIELDS = dict(th_s=(), th_e=(), p=(3,), d_phi=(2, 6), J_xi_phi=(6, 2), J_xi_delta=(6,),
                     J_xi_qs=(6,), J_q_psi=(3, 2), J_psi=(6, 2), J_M=(6, 3), J_mu=(6,),
                     J_k=(6, 3))


def test_scalar_outputs_are_the_bits_of_their_batch_row(bench, k_cal):
    # the scalar calls fill each shape-() column set in one np.array call
    # (kinematics._columns), a batch column by column: the bytes, signed zeros included, agree
    configs = [(1.0, 0.4, 20.0), (TH0, -0.3, 12.0), (0.6, 2.0, 0.0), (2.1, -1.2, 44.3),
               (0.7, -0.0, 10.0), (TH0, 0.0, 30.0), (1.3, np.pi, 5.0)]
    theta, delta, q_s = (np.array(col) for col in zip(*configs))
    batch = jacobian_arrays(bench, theta, delta, q_s, k_cal)
    R = segment_rotation(_theta_prime(batch.th_s, batch.th_e), delta)
    for i, (t, d, q) in enumerate(configs):
        psi = ConfigState(t, d)
        pose, js = crem_pose(bench, psi, q, k_cal), assemble_motion_jacobians(bench, psi, q, k_cal)
        got = {**{name: getattr(js, name) for name in SCALAR_FIELDS},
               "pose.p": pose.tip.p, "pose.R": pose.tip.R}
        rows = {**{name: getattr(batch, name)[i] for name in SCALAR_FIELDS},
                "pose.p": batch.p[i], "pose.R": R[i]}
        shapes = {**SCALAR_FIELDS, "pose.p": (3,), "pose.R": (3, 3)}
        for name, a in got.items():
            if shapes[name]:
                assert type(a) is np.ndarray and a.flags.c_contiguous, (i, name)
            else:
                assert type(a) is np.float64, (i, name)
            assert (a.dtype, a.shape) == (np.float64, shapes[name]), (i, name)
            assert a.tobytes() == rows[name].tobytes(), (i, name)


@pytest.mark.parametrize("theta,delta,q_s", [(1.0, 0.4, 20.0), (TH0, -0.3, 12.0),
                                             (0.6, 2.0, 0.0), (2.1, -1.2, 44.3)])
def test_scalar_jacobians_are_the_core_record(bench, k_cal, theta, delta, q_s):
    # assemble_motion_jacobians returns the batched core's record at shape ()
    js = assemble_motion_jacobians(bench, ConfigState(theta, delta), q_s, k_cal)
    core = jacobian_arrays(bench, theta, delta, q_s, k_cal)
    assert type(js) is type(core)
    for name in ("th_s", "th_e", "p", "d_phi", "J_xi_phi", "J_xi_delta", "J_xi_qs",
                 "J_q_psi", "J_psi", "J_M", "J_mu", "J_k"):
        assert np.array_equal(getattr(js, name), getattr(core, name)), name
    # each assembled block is formed once per record
    assert js.J_M is js.J_M


@given(samples=SAMPLES, k=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.2, 0.2),
                                    st.floats(-0.05, 0.05)),
       free=st.permutations(PARAM_NAMES).flatmap(
           lambda names: st.integers(1, 3).map(lambda n: tuple(names[:n]))))
@settings(max_examples=40, deadline=None)
def test_identification_jacobian_blocks_equal_scalar_J_k(bench, samples, k, free):
    # the rank-one blocks equal -J_k of the full scalar Jacobians in value; the
    # signs of zeros may differ, as J_k's matmul adds +0.0
    k = UncertaintyParams(*k)
    ms = [Measurement(psi=ConfigState(theta, delta), q_s=fq * bench.L, x_bar=np.zeros(3))
          for theta, delta, fq in samples]
    J = identification_jacobian(ms, bench, k, free)
    idx = [PARAM_NAMES.index(name) for name in free]
    for i, m in enumerate(ms):
        J_k = assemble_motion_jacobians(bench, m.psi, m.q_s, k).J_k
        assert np.array_equal(J[6 * i:6 * i + 6], -J_k[:, idx]), i


@pytest.mark.parametrize("case", ["mixed", "ends", "straight", "one free"])
def test_identification_jacobian_is_the_negated_rank_one_product(bench, k_cal, case):
    # -(col krow^T) on the free columns, byte for byte, signed zeros included
    rng = np.random.default_rng(3)
    theta, delta = rng.uniform(0.3, 2.8, 40), rng.uniform(-np.pi, np.pi, 40)
    q_s = rng.uniform(0.0, bench.L, 40)
    if case == "ends":
        q_s[:20], q_s[20:] = 0.0, bench.L
    if case == "straight":
        theta[:] = TH0
    free = ("k_lambda_q",) if case == "one free" else PARAM_NAMES
    ms = [Measurement(psi=ConfigState(*psi), q_s=qs, x_bar=np.zeros(3))
          for *psi, qs in zip(theta, delta, q_s)]
    # the solve and chain formed afresh (_solved_chain), not by the fit's Newton solve
    col, krow = _jacobian_factors(bench, _fit(bench, theta, delta, q_s, 0),
                                  *_solved_chain(bench, theta, delta, q_s, k_cal))
    idx = [PARAM_NAMES.index(name) for name in free]
    ref = (-(col[:, :, None] * krow[:, None, idx])).reshape(-1, len(idx))
    assert identification_jacobian(ms, bench, k_cal, free).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# the stiffness kernel and a 40-digit reference


@pytest.mark.parametrize("length,bend", [(44.3, -0.8), (20.0, 0.3), (5.0, 0.0)])
def test_arc_stiffness_partials_against_differences(bench, length, bend):
    delta, h, kappa = 0.7, 1e-6, bend / length

    def M_of(kappa, delta):
        return _arc_moment(bench, projected_offsets(bench, delta), kappa)[1]

    D = projected_offsets(bench, delta)
    dD = -bench.r * np.sin(_sigma(bench, delta, 0))
    x, M, M_kappa, M_delta = _arc_moment(bench, D, kappa, dD)
    assert M == M_of(kappa, delta)
    assert_allclose(length * x, length + D * bend, rtol=0, atol=1e-12)
    fd = [(M_of(kappa + h, delta) - M_of(kappa - h, delta)) / (2.0 * h),
          (M_of(kappa, delta + h) - M_of(kappa, delta - h)) / (2.0 * h)]
    # M is O(100) N mm: the differences carry ~1e-8 of rounding
    assert_allclose([M_kappa, M_delta], fd, rtol=1e-7, atol=1e-6)


# interior points and points within 1e-3 and 3.3e-3 mm of either end
REFERENCE_POINTS = [
    (30, 0.4, 20.0), (120, -2.0, 5.0), (60, 1.1, 1e-3), (30, 0.4, 44.3 - 1e-3),
    (45, -0.7, 44.3 - 3.3e-3),
]
# near-straight points, |theta - pi/2| of 1e-5 and 1e-9, at interior depths and within 1e-3 mm
# of either end.  Left out: exactly straight, where the reference's arc ratios (cos u - 1) / u
# divide by u = 0 and J_q_psi loses its delta column, and q_s = 0 or L, where the balance's
# stiffnesses divide by the arc length 0; the points 1e-3 mm from either end stand in for them
NEAR_STRAIGHT_POINTS = [
    (90 + np.degrees(1e-5), 0.4, 20.0), (90 - np.degrees(1e-5), -2.0, 5.0),
    (90 + np.degrees(1e-9), 1.1, 1e-3), (90 - np.degrees(1e-9), 0.4, 44.3 - 1e-3),
]


def within_40_digit_reference(got, want):
    """got agrees with want to 1e-12 relative to max(1, |want|)."""
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("theta_deg,delta,q_s", REFERENCE_POINTS + NEAR_STRAIGHT_POINTS)
def test_twist_jacobians_match_40_digit_reference(bench, theta_deg, delta, q_s):
    # J_xi_phi, J_xi_delta and J_xi_qs: mpmath.diff in (theta_s, theta_eps, delta, q_s) of the
    # 40-digit tip position and rotation, at the 40-digit equilibrium held fixed
    k = UncertaintyParams(0.2, 0.01, 0.025)
    theta = np.radians(theta_deg)
    js = assemble_motion_jacobians(bench, ConfigState(theta, delta), q_s, k)
    xi = mp_twist_jacobian(bench, theta, delta, q_s, k)
    for got, want in ((js.J_xi_phi, xi[:, :2]), (js.J_xi_delta, xi[:, 2]),
                      (js.J_xi_qs, xi[:, 3])):
        assert within_40_digit_reference(got, want)


@pytest.mark.parametrize("theta_deg,delta,q_s", REFERENCE_POINTS + NEAR_STRAIGHT_POINTS[:2])
def test_macro_jacobian_matches_40_digit_reference(bench, theta_deg, delta, q_s):
    # J_M: the 40-digit J_psi through the 40-digit pseudo-inverse of J_q_psi.  Left out at
    # |theta - pi/2| = 1e-9: the package carries theta_s and theta_eps as floats near pi/2,
    # whose offsets from straight keep about 7 digits there, and J_q_psi's pseudo-inverse scales
    # the delta column by 1 / |theta - pi/2|; at (pi/2 + 1e-9, 1.1, 1e-3) J_M is off by 2.0e-9
    # relative to max(1, |J_M|)
    k = UncertaintyParams(0.2, 0.01, 0.025)
    theta = np.radians(theta_deg)
    js = assemble_motion_jacobians(bench, ConfigState(theta, delta), q_s, k)
    assert within_40_digit_reference(js.J_M, mp_macro_jacobian(bench, theta, delta, q_s, k))


@pytest.mark.parametrize("theta_deg,delta,q_s", REFERENCE_POINTS + NEAR_STRAIGHT_POINTS)
def test_equilibrium_and_gradient_match_40_digit_reference(bench, theta_deg, delta, q_s):
    # mpmath solves and differentiates the raw two-equation balance
    k = UncertaintyParams(0.2, 0.01, 0.025)
    core = jacobian_arrays(bench, np.radians(theta_deg), delta, q_s, k)
    th_s, th_e, d_phi = mp_equilibrium(bench, np.radians(theta_deg), delta, q_s, k)
    assert abs(core.th_s - th_s) <= 1e-12 * abs(th_s)
    assert abs(core.th_e - th_e) <= 1e-12 * abs(th_e)
    assert np.max(np.abs(core.d_phi - d_phi)) <= 1e-12 * np.max(np.abs(d_phi))


@pytest.mark.parametrize("theta_deg,delta,q_s", REFERENCE_POINTS + NEAR_STRAIGHT_POINTS)
def test_identification_jacobian_matches_40_digit_reference(bench, theta_deg, delta, q_s):
    # position rows: mpmath.diff in k of the 40-digit tip position; rotation
    # rows: d theta_s / d k about the plane normal Rz(-delta)(0, -1, 0)
    k = UncertaintyParams(0.2, 0.01, 0.025)
    theta = np.radians(theta_deg)
    m = Measurement(psi=ConfigState(theta, delta), q_s=q_s, x_bar=np.zeros(3))
    J_k = -identification_jacobian([m], bench, k, PARAM_NAMES)
    dp_dk = mp_tip_position_jacobian(bench, theta, delta, q_s, k, (3, 4, 5))
    _, _, d_phi = mp_equilibrium(bench, theta, delta, q_s, k)
    dw_dk = np.outer([-np.sin(delta), -np.cos(delta), 0.0], d_phi[0, 3:])
    assert np.max(np.abs(J_k[:3] - dp_dk)) <= 1e-12 * np.max(np.abs(dp_dk))
    assert np.max(np.abs(J_k[3:] - dw_dk)) <= 1e-12 * np.max(np.abs(dw_dk))


@pytest.mark.parametrize("theta_deg,delta,q_s", REFERENCE_POINTS + NEAR_STRAIGHT_POINTS)
def test_motion_jacobian_positions_match_40_digit_reference(bench, theta_deg, delta, q_s):
    # position rows of J_psi and J_mu: mpmath.diff in (theta, delta, q_s) of the 40-digit tip
    # position, solved anew at every point
    k = UncertaintyParams(0.2, 0.01, 0.025)
    theta = np.radians(theta_deg)
    js = assemble_motion_jacobians(bench, ConfigState(theta, delta), q_s, k)
    dp = mp_tip_position_jacobian(bench, theta, delta, q_s, k, (0, 1, 2))
    for got, want in ((js.J_psi[:3], dp[:, :2]), (js.J_mu[:3], dp[:, 2])):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("theta_deg,delta,q_s", REFERENCE_POINTS + NEAR_STRAIGHT_POINTS)
def test_motion_jacobian_rotations_match_40_digit_reference(bench, theta_deg, delta, q_s):
    # rotation rows of J_psi, J_mu and J_k: vee(dR/dx R^T) of the 40-digit tip rotation, with
    # dR/dx by mpmath.diff in (theta, delta, q_s, k), solved anew at every point
    k = UncertaintyParams(0.2, 0.01, 0.025)
    theta = np.radians(theta_deg)
    js = assemble_motion_jacobians(bench, ConfigState(theta, delta), q_s, k)
    dw = mp_tip_rotation_jacobian(bench, theta, delta, q_s, k, range(6))
    for got, want in ((js.J_psi[3:], dw[:, :2]), (js.J_mu[3:], dw[:, 2]), (js.J_k[3:], dw[:, 3:])):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("theta,q_s,index", [
    (np.radians(30), 0.0, 0), (np.radians(30), 44.3, 0), (np.radians(30), 5e-7, 0),
    (np.radians(30), 44.3 - 5e-7, 0), (5e-7, 20.0, 0), (np.pi - 5e-7, 20.0, 0),
    ([1.0, 1.2, 0.8], [20.0, 1e-7, 0.0], 1),
])
def test_fd_oracle_rejects_points_within_a_step_of_the_edge(bench, k_cal, theta, q_s, index):
    # every central step must stay in the solver's domain; the error names the
    # point, not an internal perturbed sample
    values = (np.ravel(theta)[index], 0.3, np.ravel(q_s)[index])
    with pytest.raises(ValidationError, match=outside(f"sample {index}", values, FD_DOMAIN)):
        differential._fd_discrepancy_arrays(bench, theta, 0.3, q_s, k_cal)


@pytest.mark.parametrize("delta,index", [(-np.pi, 0), (np.pi + 1e-9, 0), (np.nan, 0),
                                         ([0.3, np.pi, -4.0], 2)])
def test_fd_oracle_rejects_delta_outside_its_range(bench, k_cal, delta, index):
    values = (np.radians(30), np.ravel(delta)[index], 20.0)
    with pytest.raises(ValidationError, match=outside(f"sample {index}", values, FD_DOMAIN)):
        differential._fd_discrepancy_arrays(bench, np.radians(30), delta, 20.0, k_cal)


def ulps(x):
    """x and its two one-ulp neighbours."""
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


# the domain table, then the edges of the oracle's own domain: theta = h and pi - h and
# q_s = L - h (q_s = h is test_fd_oracle_accepts_points_one_step_from_the_edge's), each with
# its one-ulp neighbours
FD_EDGES = ([(theta, delta, q_s) for theta, delta, q_s, _ in DOMAIN_EDGES]
            + [(theta, 0.3, 20.0) for theta in ulps(_FD_STEP) + ulps(np.pi - _FD_STEP)]
            + [(1.0, 0.3, q_s) for q_s in ulps(44.3 - _FD_STEP)])


@pytest.mark.parametrize("theta,delta,q_s", FD_EDGES)
def test_fd_oracle_applies_the_domain_rule(bench, k_cal, theta, delta, q_s):
    # a point passes exactly when the solver passes its copies stepped by +-h in theta
    # and q_s, so no error names an internal perturbed sample
    h = _FD_STEP
    stepped = ([theta, theta + h, theta - h, theta, theta], delta,
               [q_s, q_s, q_s, q_s + h, q_s - h])
    try:
        solve_kappa(bench, *stepped, 0.0)
        inside = True
    except ValidationError:
        inside = False
    args = (bench, [1.0, theta], [0.3, delta], [20.0, q_s], k_cal)
    if inside:
        assert differential._fd_discrepancy_arrays(*args)["d_phi"].shape == (2,)
    else:
        with pytest.raises(ValidationError, match=outside("sample 1", (theta, delta, q_s),
                                                          FD_DOMAIN)):
            differential._fd_discrepancy_arrays(*args)


def test_fd_oracle_accepts_points_one_step_from_the_edge(bench, k_cal):
    errs = differential._fd_discrepancy_arrays(bench, np.radians(30), 0.3,
                                               [_FD_STEP, 20.0, bench.L - 2 * _FD_STEP], k_cal)
    assert errs["d_phi"].shape == (3,)
