"""Shared fixtures, test helpers and independent oracles.

The equilibrium oracle here deliberately re-derives the moment balance
from the raw beam formulas and hands it to a general-purpose root
finder, so that agreement with the fixed-point solver is evidence and
not tautology.  Same idea for rotations: matrix exponentials come from
scipy, not from the package.
"""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import root

from crem import RobotParams, UncertaintyParams, projected_offsets
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
