"""Shared fixtures, test helpers and independent oracles.

The equilibrium oracles here deliberately re-derive the moment balance
from the raw beam formulas, as two equations in (theta_s, theta_prime),
and hand it to a general-purpose root finder (scipy in float64, mpmath
at 40 digits, which also differentiates it implicitly), so that
agreement with the package's scalar curvature solve is evidence and not
tautology.  Same idea for rotations: matrix exponentials come from
scipy, not from the package.  The two-arc pose chain and its twist
Jacobians are composed here in 3-D, from arc rotations built of scipy
matrix exponentials and from cross products, as oracles for the
package's planar chain; `segment_pose`, the pose of one arc, is the
reference for the arc ratios.  The per-point finite-difference oracle
is the scalar reference for the package's batched one.
"""

import functools
import re
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import root

from crem import (
    ConfigState,
    EquilibriumConfig,
    Pose,
    RobotParams,
    UncertaintyParams,
    ValidationError,
    assemble_motion_jacobians,
    crem_pose,
)
from crem.differential import _FD_STEP, _jacobian_arrays
from crem.kinematics import _arc, _scalar_chain, _solved_chain, _tip_positions, segment_rotation
from crem.model import _newton, _offsets, _solver_start
from crem.rotations import axis_angle_vector

TH0 = np.pi / 2


@pytest.fixture(scope="session")
def bench() -> RobotParams:
    # NiTi bench segment: 44.3 mm, three secondaries on a 3 mm pitch circle
    return RobotParams(
        L=44.3, r=3.0,
        E_p=41000.0, E_i=41000.0, E_s=41000.0,
        I_p=0.0312, I_i=0.0312, I_s=0.0010,
        n=3,
    )


@pytest.fixture(scope="session")
def k_cal() -> UncertaintyParams:
    return UncertaintyParams(0.2, 0.0, 0.025)


@pytest.fixture(scope="session")
def k_zero() -> UncertaintyParams:
    return UncertaintyParams.zero()


# every value the package keeps between scalar calls; test_source checks that this
# names each functools cache under src/crem
KEPT_VALUES = (_scalar_chain,)


def clear_kept_values():
    for kept in KEPT_VALUES:
        kept.cache_clear()


@pytest.fixture(autouse=True)
def fresh_scalar_solve():
    """Start each test with no kept scalar value, so that a test which patches the
    solver or the chain never reads a value formed before the patch."""
    clear_kept_values()


# the domain rule's message text: the solver's domain, the finite-difference oracle's (its
# step as the margin) and ConfigState's, which has no q_s
DOMAIN = "(0, pi) x (-pi, pi] x [0, L]"
FD_DOMAIN = "(1e-06, pi - 1e-06) x (-pi, pi] x [1e-06, L - 1e-06]"
CONFIG_DOMAIN = "(0, pi) x (-pi, pi]"

# the edges of the solver's domain on the 44.3 mm bench robot, each (theta, delta, q_s,
# inside): one coordinate of the inner point (1, 0.3, 20) moved onto or past an edge.  The
# first eight move an angle
DOMAIN_EDGES = [
    (0.0, 0.3, 20.0, False), (np.pi, 0.3, 20.0, False), (np.nan, 0.3, 20.0, False),
    (np.inf, 0.3, 20.0, False), (-np.inf, 0.3, 20.0, False),
    (1.0, -np.pi, 20.0, False), (1.0, np.pi, 20.0, True), (1.0, np.nan, 20.0, False),
    (1.0, 0.3, 0.0, True), (1.0, 0.3, 44.3, True),
    (1.0, 0.3, float(np.nextafter(44.3, np.inf)), False), (1.0, 0.3, -1.0, False),
    (1.0, 0.3, np.nan, False), (1.0, 0.3, np.inf, False),
]
ANGLE_EDGES = DOMAIN_EDGES[:8]


# (value, its repr in the message) of each kind of value the real-scalar rule refuses
NOT_REAL = [
    (np.array([1.0, 2.0]), "array([1., 2.])"),
    (np.array(0.5), "array(0.5)"),
    (True, "True"),
    ("1.0", "'1.0'"),
    (None, "None"),
]


def outside(name, values, domain) -> str:
    """The anchored pattern of the domain rule's message for the sample called name (as
    'sample 1') with values (theta, delta[, q_s]) outside domain."""
    names = ", ".join(("theta", "delta", "q_s")[:len(values)])
    shown = ", ".join(f"{v:.6g}" for v in values)
    return f"^{re.escape(f'{name}: ({names}) = ({shown}) outside {domain}')}$"


def jacobian_arrays(params, theta, delta, q_s, k):
    """The batched core _jacobian_arrays at its solve and chain (_solved_chain) of the
    samples broadcast to one shape."""
    samples = np.broadcast_arrays(theta, delta, q_s)
    return _jacobian_arrays(params, *samples, k, *_solved_chain(params, *samples, k))


def solve_kappa(params, theta, delta, q_s, lam):
    """kappa of samples (theta, delta, q_s) and lambda lam that broadcast against each other,
    a grid too: model._newton from model._solver_start, after each sample of more than one
    value and lam are broadcast to the batch, for the solver takes a sample of one value or
    of the batch's shape, and lambda of the batch's shape."""
    samples = [np.asarray(a, dtype=float) for a in (theta, delta, q_s)]
    shape = np.broadcast(*samples, lam).shape
    samples = [a if a.ndim == 0 else np.broadcast_to(a, shape) for a in samples]
    return _newton(params, _solver_start(params, *samples, 0), np.broadcast_to(lam, shape))


def projected_offsets(params, delta):
    """Delta_i = r cos(sigma_i): moment-arm projections onto the bending plane, (..., n)."""
    return np.moveaxis(_offsets(params, delta, 0), 0, -1)


def backbone_lengths(params, theta, delta):
    """Secondary backbone lengths L_i = L + Delta_i (theta - theta0)."""
    return params.L + projected_offsets(params, delta) * (theta - TH0)


def equilibrium_moments(params, theta, delta, q_s, k, th_s, th_p, cos=np.cos, pi=np.pi):
    """Moments (m1, m1p, m2, ms, lambda) at a candidate (theta_s, theta_prime).

    Written from the beam formulas directly (EI/length stiffnesses at the
    candidate angles) with no calls into the package.  m1 is carried
    across the base by the whole segment, m1p by the empty subsegment,
    m2 and ms resist bending of the inserted subsegment; at equilibrium
    m1 = m1p and m1p + m2 + ms = lambda.  cos and pi default to float64;
    mpmath's carry the same formulas at its working precision.
    """
    EIp = params.E_p * params.I_p
    EIi = params.E_i * params.I_i
    EIs = params.E_s * params.I_s
    offsets = [params.r * cos(delta + 2 * pi / params.n * i) for i in range(params.n)]
    k0 = EIp / params.L + sum(EIi / (params.L + d * (theta - TH0)) for d in offsets)
    k1 = EIp / (params.L - q_s) + sum(EIi / ((params.L - q_s) + d * (th_p - th_s))
                                      for d in offsets)
    k2 = EIp / q_s + sum(EIi / (q_s + d * (th_s - TH0)) for d in offsets)
    ks = EIs / q_s
    lam = k.k_lambda0 + k.k_lambda_theta * theta + k.k_lambda_q * q_s
    m1 = k0 * (theta - TH0)
    m1p = k1 * (th_p - th_s)
    m2 = -k2 * (th_s - TH0)
    ms = -ks * (th_s - TH0)
    return m1, m1p, m2, ms, lam


def oracle_equilibrium(params, theta, delta, q_s, k, tol=1e-12):
    """Brute-force (theta_s, theta_prime): root-find on raw moment residuals.

    The residuals come from equilibrium_moments, so no call goes into the
    package solver.  The guarantee checked is the residual itself, not the
    optimizer's verdict.
    """

    def residuals(phi):
        m1, m1p, m2, ms, lam = equilibrium_moments(params, theta, delta, q_s, k, *phi)
        return [m1p - m1, m1p + m2 + ms - lam]

    guess = [TH0 + (theta - TH0) * q_s / params.L, theta]
    sol = root(residuals, guess, tol=tol)
    # moments are O(100) N mm; 1e-8 here means the root is at float depth
    assert np.max(np.abs(residuals(sol.x))) < 1e-8, (sol.message, sol.x)
    return float(sol.x[0]), float(sol.x[1])


def _mp_residuals(params, th_s, th_p, theta, delta, q_s, k0, kt, kq):
    """The two raw balance residuals of equilibrium_moments in mpmath."""
    kk = SimpleNamespace(k_lambda0=k0, k_lambda_theta=kt, k_lambda_q=kq)
    m1, m1p, m2, ms, lam = equilibrium_moments(params, theta, delta, q_s, kk, th_s, th_p,
                                               cos=mpmath.cos, pi=mpmath.pi)
    return m1p - m1, m1p + m2 + ms - lam


def _mp_solve(params, x):
    """(theta_s, theta_prime) by mpmath.findroot at the working precision, for
    x = (theta, delta, q_s, k_lambda0, k_lambda_theta, k_lambda_q)."""
    guess = [TH0 + (x[0] - TH0) * x[2] / params.L, x[0]]
    return mpmath.findroot(lambda a, b: _mp_residuals(params, a, b, *x), guess)


def mp_equilibrium(params, theta, delta, q_s, k, dps=40):
    """(theta_s, theta_eps, d_phi (2, 6)) at dps digits, returned as floats.

    mpmath.findroot solves the two raw residuals of equilibrium_moments for
    (theta_s, theta_prime); d phi / d(theta, delta, q_s, k) follows by
    implicit differentiation, -F_phi^-1 F_x, with every partial of the
    residuals taken by mpmath.diff.  No call goes into the package.
    """
    with mpmath.workdps(dps):
        x = [mpmath.mpf(v) for v in (theta, delta, q_s, *k.as_array())]
        phi = _mp_solve(params, x)
        point = [phi[0], phi[1], *x]
        # J[r][j] = d residual_r / d (theta_s, theta_prime, theta, delta, q_s, k)_j
        J = [[mpmath.diff(lambda *v: _mp_residuals(params, *v)[r], point,
                          tuple(int(i == j) for i in range(8))) for j in range(8)]
             for r in range(2)]
        d = -(mpmath.matrix([row[:2] for row in J]) ** -1) * mpmath.matrix([row[2:] for row in J])
        th_s, th_e = phi[0], phi[1] + (TH0 - phi[0])
        d_phi = [[d[0, j] for j in range(6)], [d[1, j] - d[0, j] for j in range(6)]]
        return float(th_s), float(th_e), np.array(d_phi, dtype=float)


def mp_tip_position(params, th_s, th_e, delta, q_s):
    """Tip position [x, y, z] of the planar two-arc chain in mpmath:
    p = Rz(-delta) [x, 0, z] with (x, z) = q_s (a_s, b_s) +
    (L - q_s) Ry(pi/2 - theta_s) (a_e, b_e), a = (cos u - 1) / u and
    b = sin u / u of each arc's u = theta_x - pi/2 (neither arc straight)."""
    def ratios(theta_x):
        u = theta_x - TH0
        return (mpmath.cos(u) - 1) / u, mpmath.sin(u) / u

    (a_s, b_s), (a_e, b_e) = ratios(th_s), ratios(th_e)
    c, s = mpmath.cos(TH0 - th_s), mpmath.sin(TH0 - th_s)
    x = q_s * a_s + (params.L - q_s) * (c * a_e + s * b_e)
    z = q_s * b_s + (params.L - q_s) * (-s * a_e + c * b_e)
    return [mpmath.cos(delta) * x, -mpmath.sin(delta) * x, z]


def mp_tip_rotation(th_s, th_e, delta):
    """The nine entries, row by row, of the tip rotation Rz(-delta) Ry(pi/2 - theta') Rz(delta),
    theta' = theta_s + theta_eps - pi/2, in mpmath: the product of the three turns, not the
    package's closed form."""
    def rz(a):
        c, s = mpmath.cos(a), mpmath.sin(a)
        return mpmath.matrix([[c, -s, 0], [s, c, 0], [0, 0, 1]])

    c, s = mpmath.cos(2 * TH0 - th_s - th_e), mpmath.sin(2 * TH0 - th_s - th_e)
    R = rz(-delta) * mpmath.matrix([[c, 0, s], [0, 1, 0], [-s, 0, c]]) * rz(delta)
    return [R[i, j] for i in range(3) for j in range(3)]


def _mp_pose_partials(params, theta, delta, q_s, k, cols, pose):
    """(pose at x, [[d pose_r / d x_j for j in cols] for each entry r]) in mpmath at the working
    precision, for x = (theta, delta, q_s, k_lambda0, k_lambda_theta, k_lambda_q): mpmath.diff
    of pose(theta_s, theta_eps, delta, q_s), a list of entries, at the equilibrium solved anew
    at every x."""
    x0 = [mpmath.mpf(v) for v in (theta, delta, q_s, *k.as_array())]
    poses = {}

    def at(*x):
        if x not in poses:
            th_s, th_p = _mp_solve(params, list(x))
            poses[x] = pose(th_s, th_p + (TH0 - th_s), x[1], x[2])
        return poses[x]

    return at(*x0), [[mpmath.diff(lambda *x: at(*x)[r], x0, tuple(int(i == j) for i in range(6)))
                      for j in cols] for r in range(len(at(*x0)))]


def mp_tip_position_jacobian(params, theta, delta, q_s, k, cols, dps=40):
    """d p / d x_j for j in cols of x = (theta, delta, q_s, k_lambda0, k_lambda_theta,
    k_lambda_q), (3, len(cols)) floats: mpmath.diff of mp_tip_position at the dps-digit
    equilibrium, solved anew at every x."""
    with mpmath.workdps(dps):
        _, dp = _mp_pose_partials(params, theta, delta, q_s, k, cols,
                                  functools.partial(mp_tip_position, params))
        return np.array(dp, dtype=float)


def _mp_rotation_pose(th_s, th_e, delta, q_s):
    """mp_tip_rotation as a pose of (theta_s, theta_eps, delta, q_s), which q_s does not move."""
    return mp_tip_rotation(th_s, th_e, delta)


def _mp_angular_velocity(R, dR):
    """The space-frame angular velocity omega_j = vee(dR/dx_j R^T) of the nine entries R, row
    by row, and their partials dR[entry][j], (3, len(dR[0])) floats."""
    Rt = mpmath.matrix([[R[3 * c + r] for c in range(3)] for r in range(3)])
    omega = []
    for j in range(len(dR[0])):
        W = mpmath.matrix([[dR[3 * r + c][j] for c in range(3)] for r in range(3)]) * Rt
        omega.append([W[2, 1], W[0, 2], W[1, 0]])
    return np.array(omega, dtype=float).T


def mp_tip_rotation_jacobian(params, theta, delta, q_s, k, cols, dps=40):
    """The space-frame angular velocity omega_j = vee(dR/dx_j R^T) per x_j for j in cols of x as
    in mp_tip_position_jacobian, (3, len(cols)) floats: mpmath.diff of mp_tip_rotation at the
    dps-digit equilibrium, solved anew at every x."""
    with mpmath.workdps(dps):
        R, dR = _mp_pose_partials(params, theta, delta, q_s, k, cols, _mp_rotation_pose)
        return _mp_angular_velocity(R, dR)


def mp_twist_jacobian(params, theta, delta, q_s, k, dps=40):
    """The tip twist per (theta_s, theta_eps, delta, q_s) at the fixed dps-digit equilibrium of
    (theta, delta, q_s, k), (6, 4) floats: mpmath.diff of mp_tip_position and mp_tip_rotation
    in those four, the equilibrium not solved anew, the reference of J_xi_phi, J_xi_delta and
    J_xi_qs."""
    with mpmath.workdps(dps):
        x = [mpmath.mpf(v) for v in (theta, delta, q_s, *k.as_array())]
        th_s, th_p = _mp_solve(params, x)
        y0 = [th_s, th_p + (TH0 - th_s), x[1], x[2]]

        def partials(pose):
            return [[mpmath.diff(lambda *y: pose(*y)[r], y0, tuple(int(i == j) for i in range(4)))
                     for j in range(4)] for r in range(len(pose(*y0)))]

        dp = partials(functools.partial(mp_tip_position, params))
        omega = _mp_angular_velocity(_mp_rotation_pose(*y0), partials(_mp_rotation_pose))
        return np.vstack([np.array(dp, dtype=float), omega])


def mp_macro_jacobian(params, theta, delta, q_s, k, dps=40):
    """J_M (6, n) floats: the dps-digit J_psi (mp_tip_position_jacobian and
    mp_tip_rotation_jacobian in (theta, delta), as floats) times the pseudo-inverse
    (A^T A)^-1 A^T of the backbone map A = J_q_psi, q_i = r cos(sigma_i) (theta - theta0),
    formed in mpmath.  A has full column rank off straight."""
    J_psi = np.vstack([mp_tip_position_jacobian(params, theta, delta, q_s, k, (0, 1), dps),
                       mp_tip_rotation_jacobian(params, theta, delta, q_s, k, (0, 1), dps)])
    with mpmath.workdps(dps):
        u = mpmath.mpf(theta) - TH0
        sigma = [mpmath.mpf(delta) + 2 * mpmath.pi / params.n * i for i in range(params.n)]
        A = mpmath.matrix([[params.r * mpmath.cos(s), -params.r * mpmath.sin(s) * u]
                           for s in sigma])
        return np.array((mpmath.matrix(J_psi.tolist()) * (A.T * A) ** -1 * A.T).tolist(),
                        dtype=float)


def assert_valid_pose(pose, tol=1e-12):
    """p is a 3-vector and R a rotation matrix (orthonormal, det +1) within tol."""
    assert pose.p.shape == (3,) and pose.R.shape == (3, 3)
    assert np.max(np.abs(pose.R.T @ pose.R - np.eye(3))) <= tol
    assert abs(np.linalg.det(pose.R) - 1.0) <= tol


def segment_pose(L_x: float, theta_x: float, delta_x: float) -> Pose:
    """Pose of a single constant-curvature arc of length L_x bent to theta_x in the
    plane delta_x (scalar arguments): p = L_x Rz(-delta) [a, 0, b] from the
    package's arc ratios, R = segment_rotation(theta_x, delta_x)."""
    if not (L_x >= 0.0 and np.isfinite(L_x)):
        raise ValidationError(f"arc length must be finite and >= 0, got {L_x}")
    if not (np.isfinite(theta_x) and np.isfinite(delta_x)):
        raise ValidationError(f"arc angles must be finite, got ({theta_x}, {delta_x})")
    arc, d = _arc(theta_x), np.float64(delta_x)
    p = np.float64(L_x) * np.stack([np.cos(d) * arc.a, -np.sin(d) * arc.a, arc.b])
    return Pose(p, segment_rotation(theta_x, d))


def oracle_rotation(axis, alpha):
    """Rotation matrix via scipy's matrix exponential."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    K = np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])
    return expm(alpha * K)


# ---------------------------------------------------------------------------
# 3-D two-arc chain


def arc_direction(theta_x, delta_x):
    """Tip position per unit arc length, shape (..., 3)."""
    arc = _arc(theta_x)
    d = np.asarray(delta_x, dtype=float)
    return np.stack([np.cos(d) * arc.a, -np.sin(d) * arc.a, arc.b], axis=-1)


def jacobian_partitions(theta_i, delta_i, D_i):
    """Velocity partitions of one constant-curvature subsegment.

    Returns (J_v_theta, J_omega_theta, J_v_delta, J_omega_delta), each
    shape (..., 3), for a subsegment of arc length D_i bent to angle
    theta_i in plane delta_i.  Space-frame angular velocity.  The
    translational partitions scale the arc ratios (a, b): J_v_theta by
    their theta-slopes, J_v_delta by -a.
    """
    arc = _arc(theta_i, slopes=True)
    d = np.asarray(delta_i, dtype=float)
    Di = np.asarray(D_i, dtype=float)
    sd, cd = np.sin(d), np.cos(d)
    J_v_theta = Di[..., None] * np.stack([cd * arc.a_t, -sd * arc.a_t, arc.b_t], axis=-1)
    J_omega_theta = np.stack([-sd, -cd, np.zeros_like(sd)], axis=-1)
    J_v_delta = Di[..., None] * np.stack([-sd * arc.a, -cd * arc.a, np.zeros_like(sd)],
                                         axis=-1)
    J_omega_delta = np.stack([cd * arc.c, -sd * arc.c, arc.s - 1.0], axis=-1)
    return J_v_theta, J_omega_theta, J_v_delta, J_omega_delta


def arc_rotation_3d(theta_x, delta_x):
    """Rz(-delta) Ry(pi/2 - theta_x) Rz(delta) per sample, shape (..., 3, 3),
    each factor from oracle_rotation."""
    t, d = np.broadcast_arrays(np.asarray(theta_x, dtype=float), np.asarray(delta_x, dtype=float))
    z, y = [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]
    R = [oracle_rotation(z, -dd) @ oracle_rotation(y, TH0 - tt) @ oracle_rotation(z, dd)
         for tt, dd in zip(t.ravel(), d.ravel())]
    return np.reshape(R, t.shape + (3, 3))


def pose_arrays_3d(params, th_s, th_e, delta, q_s):
    """Tip position (..., 3) and tip rotation (..., 3, 3) of the two-arc chain,
    composed as p = p_c + R_c p_gc and R = R_c R_gc."""
    th_s, th_e, delta, q_s = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (th_s, th_e, delta, q_s)))
    p_c = q_s[..., None] * arc_direction(th_s, delta)
    R_c = arc_rotation_3d(th_s, delta)
    p_gc = (params.L - q_s)[..., None] * arc_direction(th_e, delta)
    R_gc = arc_rotation_3d(th_e, delta)
    return p_c + (R_c @ p_gc[..., None])[..., 0], R_c @ R_gc


def xi_jacobian_arrays_3d(params, th_s, th_e, delta, q_s):
    """(J_xi_phi (..., 6, 2), J_xi_delta (..., 6), J_xi_qs (..., 6)) by the
    chain rule over the 3-D composition: a perturbation of the separation
    frame carries the distal arc with it, so its lever arm w = R_c p_gc
    couples the inserted arc's angular partitions into the tip translation."""
    th_s, th_e, delta, q_s = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (th_s, th_e, delta, q_s)))
    Jvt_s, Jwt_s, Jvd_s, Jwd_s = jacobian_partitions(th_s, delta, q_s)
    L_emp = params.L - q_s
    Jvt_e, Jwt_e, Jvd_e, Jwd_e = jacobian_partitions(th_e, delta, L_emp)
    R_c = arc_rotation_3d(th_s, delta)
    dir_e = arc_direction(th_e, delta)
    w = (R_c @ (L_emp[..., None] * dir_e)[..., None])[..., 0]

    def rotate(v):
        return (R_c @ v[..., None])[..., 0]

    J_xi_phi = np.stack([
        np.concatenate([Jvt_s - np.cross(w, Jwt_s), Jwt_s], axis=-1),
        np.concatenate([rotate(Jvt_e), rotate(Jwt_e)], axis=-1),
    ], axis=-1)
    J_xi_delta = np.concatenate([Jvd_s - np.cross(w, Jwd_s) + rotate(Jvd_e),
                                 Jwd_s + rotate(Jwd_e)], axis=-1)
    q_top = arc_direction(th_s, delta) - rotate(dir_e)
    J_xi_qs = np.concatenate([q_top, np.zeros_like(q_top)], axis=-1)
    return J_xi_phi, J_xi_delta, J_xi_qs


# ---------------------------------------------------------------------------
# per-point finite differences


def finite_difference_jacobian(f, x) -> np.ndarray:
    """Central-difference twist Jacobian of a pose-valued map.

    f maps a parameter vector to a Pose; the rotational rows are the
    axis-angle vector of R(x + h e_j) R(x - h e_j)^T over 2h, h = _FD_STEP,
    matching the space-frame convention of the analytic Jacobians.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = _FD_STEP
        pose_p = f(x + e)
        pose_m = f(x - e)
        dv = (pose_p.p - pose_m.p) / (2.0 * _FD_STEP)
        dw = axis_angle_vector(pose_p.R @ pose_m.R.T) / (2.0 * _FD_STEP)
        cols.append(np.concatenate([dv, dw]))
    return np.stack(cols, axis=-1)


def _rel_err(analytic, fd) -> float:
    a = np.asarray(analytic, dtype=float)
    f = np.asarray(fd, dtype=float)
    return float(np.max(np.abs(a - f)) / max(1.0, np.max(np.abs(a))))


def fd_discrepancies_per_point(params, psi, q_s, k) -> dict:
    """fd_discrepancies one point at a time: one crem_pose per perturbed
    (theta, delta, q_s, k), a delta step across +-pi wrapped back into
    (-pi, pi], and kinematics-only steps of (theta_s, theta_eps, delta, q_s)
    about the solved equilibrium (th_s, th_e) of the JacobianSet.  The J_M
    entry scores J_psi, assembled here from the JacobianSet's constituent
    blocks."""
    js = assemble_motion_jacobians(params, psi, q_s, k)
    phis = []

    def full_pose(x):
        kk = UncertaintyParams(float(x[3]), float(x[4]), float(x[5]))
        delta = float(x[1])
        delta += 2.0 * np.pi * ((delta <= -np.pi) - (delta > np.pi))
        sp = crem_pose(params, ConfigState(float(x[0]), delta), float(x[2]), kk)
        phis.append((sp.equilibrium.theta_s, sp.equilibrium.theta_eps))
        return sp.tip

    x0 = np.array([psi.theta, psi.delta, q_s, k.k_lambda0, k.k_lambda_theta, k.k_lambda_q])
    fd_full = finite_difference_jacobian(full_pose, x0)
    # full_pose saw x0 + h e_j, then x0 - h e_j, for j = 0..5
    fd_phi = (np.array(phis[0::2]) - np.array(phis[1::2])).T / (2.0 * _FD_STEP)

    def kin_only(y):
        # crem_pose's pose at given angles, with no solve and no delta range
        # check: these delta steps are not wrapped, so near +-pi they leave (-pi, pi]
        e = EquilibriumConfig(theta_s=float(y[0]), theta_eps=float(y[1]))
        return Pose(_tip_positions(params, e.theta_s, e.theta_eps, float(y[2]), float(y[3])),
                    segment_rotation(e.theta_prime, float(y[2])))

    y0 = np.array([js.th_s, js.th_e, psi.delta, q_s])
    fd_kin = finite_difference_jacobian(kin_only, y0)

    # J_psi, the tip twist per (theta, delta) that J_M maps through pinv(J_q_psi)
    J_psi = np.column_stack([js.J_xi_phi @ js.d_phi[:, 0],
                             js.J_xi_phi @ js.d_phi[:, 1] + js.J_xi_delta])
    return {
        "J_M": _rel_err(J_psi, fd_full[:, 0:2]),
        "J_mu": _rel_err(js.J_mu, fd_full[:, 2]),
        "J_k": _rel_err(js.J_k, fd_full[:, 3:6]),
        "J_xi_phi": _rel_err(js.J_xi_phi, fd_kin[:, 0:2]),
        "J_xi_delta": _rel_err(js.J_xi_delta, fd_kin[:, 2]),
        "J_xi_qs": _rel_err(js.J_xi_qs, fd_kin[:, 3]),
        "d_phi": _rel_err(js.d_phi, fd_phi),
    }
