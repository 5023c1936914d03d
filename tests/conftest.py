"""Shared fixtures, test helpers and independent oracles.

The equilibrium oracle here deliberately re-derives the moment balance
from the raw beam formulas and hands it to a general-purpose root
finder, so that agreement with the fixed-point solver is evidence and
not tautology.  Same idea for rotations: matrix exponentials come from
scipy, not from the package.  The two-arc pose chain and its twist
Jacobians are composed here in 3-D, from arc rotations built of scipy
matrix exponentials and from cross products, as oracles for the
package's planar chain.
"""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import root

from crem import RobotParams, UncertaintyParams, projected_offsets
from crem.kinematics import _arc
from crem.model import _arc_stiffness

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


def backbone_lengths(params, theta, delta):
    """Secondary backbone lengths L_i = L + Delta_i (theta - theta0) from the arc kernel."""
    L_i, _ = _arc_stiffness(params, projected_offsets(params, delta), params.L, theta - TH0)
    return L_i


def equilibrium_moments(params, theta, delta, q_s, k, th_s, th_p):
    """Moments (m1, m1p, m2, ms, lambda) at a candidate (theta_s, theta_prime).

    Written from the beam formulas directly (EI/length stiffnesses at the
    candidate angles) with no calls into the package.  m1 is carried
    across the base by the whole segment, m1p by the empty subsegment,
    m2 and ms resist bending of the inserted subsegment; at equilibrium
    m1 = m1p and m1p + m2 + ms = lambda.
    """
    EIp = params.E_p * params.I_p
    EIi = params.E_i * params.I_i
    EIs = params.E_s * params.I_s
    offsets = params.r * np.cos(delta + 2.0 * np.pi / params.n * np.arange(params.n))
    L_i = params.L + offsets * (theta - TH0)
    L_si = q_s + offsets * (th_s - TH0)
    L_ei = (params.L - q_s) + offsets * (th_p - th_s)
    k0 = EIp / params.L + np.sum(EIi / L_i)
    k1 = EIp / (params.L - q_s) + np.sum(EIi / L_ei)
    k2 = EIp / q_s + np.sum(EIi / L_si)
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


def assert_valid_pose(pose, tol=1e-12):
    """p is a 3-vector and R a rotation matrix (orthonormal, det +1) within tol."""
    assert pose.p.shape == (3,) and pose.R.shape == (3, 3)
    assert np.max(np.abs(pose.R.T @ pose.R - np.eye(3))) <= tol
    assert abs(np.linalg.det(pose.R) - 1.0) <= tol


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
