"""Analytic differential kinematics of the modulated segment.

Two layers:

* equilibrium sensitivities d phi / d(theta, delta, q_s, k_lambda) from
  implicit differentiation of the moment balance A(x) C_phi = B(x),
  where x collects the length-dependent stiffnesses;
* pose Jacobians of the two-subsegment chain: the tip twist per
  (theta_s, theta_eps), delta and q_s at fixed equilibrium
  (J_xi_phi / J_xi_delta / J_xi_qs), and the assembled macro / micro /
  identification Jacobians J_M, J_mu, J_k.

Both arcs bend in the plane delta, so each twist block is in-plane 2-D
arithmetic turned by Rz(-delta), with no 3x3 product.  J_M maps through
the closed-form pseudo-inverse of the backbone map J_q_psi, whose two
columns are orthogonal for evenly spaced backbones.

Angular velocity follows the space-frame convention dR R^T = [omega]^.
A batched central-difference oracle checks every analytic block against
finite differences: one equilibrium solve covers a batch of points and
their perturbations, and one pose pass per map forms the tip poses.  The
solver freezes each sample where a lone solve stops, so every point scores
as it does alone.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularGradient
from .kinematics import _arc, _in_plane_tip, _tip_positions, segment_rotation
from .model import (
    THETA_BASE,
    ConfigState,
    EquilibriumConfig,
    RobotParams,
    UncertaintyParams,
    _arc_stiffness_partials,
    _broadcast_samples,
    _sigma,
    _solve_equilibrium_arrays,
    _theta_eps,
    projected_offsets,
)
from .rotations import axis_angle_vector

# condition number above which a 2x2 or normal-equation solve is refused
_COND_LIMIT = 1e12
# relative singular-value cutoff of numpy's pinv, which J_M reproduces
_PINV_RCOND = 1e-15
# central-difference step of the finite-difference oracle
_FD_STEP = 1e-6


@dataclass(frozen=True, eq=False)
class JacobianSet:
    """Assembled Jacobians at one configuration with their constituents."""

    J_M: np.ndarray  # (6, n) tip twist per secondary-backbone displacement
    J_mu: np.ndarray  # (6,) tip twist per insertion depth
    J_k: np.ndarray  # (6, 3) tip twist per uncertainty parameter
    J_xi_phi: np.ndarray  # (6, 2) tip twist per (theta_s, theta_eps) at fixed equilibrium
    J_xi_delta: np.ndarray  # (6,)
    J_xi_qs: np.ndarray  # (6,)
    J_q_psi: np.ndarray  # (n, 2)
    phi: EquilibriumConfig
    # (2, 6) d phi / d(theta, delta, q_s, k_lambda0, k_lambda_theta, k_lambda_q)
    d_phi: np.ndarray


# ---------------------------------------------------------------------------
# equilibrium sensitivities


def _cond_2x2(M):
    """Spectral condition numbers sigma_max^2 / |det M| of (..., 2, 2) M; inf if singular."""
    # sigma_max^2 + sigma_min^2 = |M|_F^2 = F and sigma_max sigma_min = |det M|
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    F = np.sum(M * M, axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return (F + np.sqrt(np.maximum(F * F - 4.0 * det * det, 0.0))) / (2.0 * np.abs(det))


def _phi_gradient_arrays(params: RobotParams, theta, delta, q_s, k: UncertaintyParams,
                         th_s, th_p):
    """Vectorized d phi / d(theta, delta, q_s, k), stacked as (..., 2, 6).

    Implicit differentiation of A(x) C_phi - B(x) = 0 with
    C_phi = S0 phi - C0 = [theta_s, theta_prime].  The balance matrix
    depends on phi both through theta_s (inserted-side lengths) and
    through theta_prime (empty-side lengths), so the system matrix is

        M = A S0 - Gamma_ths [1 0] - Gamma_thp [1 1]

    with Gamma_a = B'_a - A'_a C_phi, and d phi / d a = M^{-1} Gamma_a.
    """
    theta = np.asarray(theta, dtype=float)
    q_s = np.asarray(q_s, dtype=float)
    th0 = THETA_BASE
    # same boundary clamp as the solver: stiffness lengths saturate at q_min
    # while lambda keeps the raw depth, so boundary samples get their finite
    # limit sensitivities instead of a division by zero
    qs_eff = np.clip(q_s, params.q_min, params.L - params.q_min)
    C1, C2 = np.asarray(th_s, dtype=float), np.asarray(th_p, dtype=float)
    D = projected_offsets(params, delta)
    dD = -params.r * np.sin(_sigma(params, delta))  # d Delta_i / d delta
    # the whole segment, the empty arc (L - q_s long, bent theta_prime -
    # theta_s) and the inserted arc (q_s long, bent theta_s - theta0)
    k0, _, k0_theta, k0_delta = _arc_stiffness_partials(params, D, dD, params.L, theta - th0)
    k1, k1_len, k1_thp, k1_delta = _arc_stiffness_partials(
        params, D, dD, params.L - qs_eff, C2 - C1)
    k2, k2_qs, k2_ths, k2_delta = _arc_stiffness_partials(params, D, dD, qs_eff, C1 - th0)
    ks = params.EI_s / qs_eff
    ks_qs = -params.EI_s / (qs_eff * qs_eff)

    def gamma(k1_a, k2_a, ks_a, b1_a, b2_a):
        # Gamma_a = B'_a - A'_a C_phi for A'_a built from the stiffness partials
        g1 = b1_a - ((k1_a + k2_a + ks_a) * C1 - k1_a * C2)
        g2 = b2_a - k1_a * (C1 - C2)
        return g1, g2

    zero = np.zeros_like(k0)
    g_th = gamma(zero, zero, zero, -k.k_lambda_theta + zero, k0_theta * (th0 - theta) - k0)
    g_de = gamma(k1_delta, k2_delta, zero, k2_delta * th0, k0_delta * (th0 - theta))
    g_qs = gamma(-k1_len, k2_qs, ks_qs, (k2_qs + ks_qs) * th0 - k.k_lambda_q, zero)
    g_ths = gamma(-k1_thp, k2_ths, zero, k2_ths * th0, zero)
    g_thp = gamma(k1_thp, zero, zero, zero, zero)

    # A S0 = [[k2 + ks, -k1], [0, -k1]]
    M = np.empty(np.shape(k0) + (2, 2))
    M[..., 0, 0] = (k2 + ks) - g_ths[0] - g_thp[0]
    M[..., 0, 1] = -k1 - g_thp[0]
    M[..., 1, 0] = -g_ths[1] - g_thp[1]
    M[..., 1, 1] = -k1 - g_thp[1]

    cond = _cond_2x2(M)
    if np.any(~np.isfinite(cond)) or np.any(cond > _COND_LIMIT):
        raise SingularGradient(
            f"equilibrium sensitivity matrix condition {np.max(cond):.3g} exceeds {_COND_LIMIT:.0e}"
        )

    rhs = np.stack([
        np.stack([g_th[0], g_de[0], g_qs[0],
                  -np.ones_like(k0), -theta, -q_s + zero], axis=-1),
        np.stack([g_th[1], g_de[1], g_qs[1],
                  zero, zero, zero], axis=-1),
    ], axis=-2)  # (..., 2, 6)

    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    sol = np.empty_like(rhs)
    sol[..., 0, :] = (M[..., 1, 1, None] * rhs[..., 0, :]
                      - M[..., 0, 1, None] * rhs[..., 1, :]) / det[..., None]
    sol[..., 1, :] = (-M[..., 1, 0, None] * rhs[..., 0, :]
                      + M[..., 0, 0, None] * rhs[..., 1, :]) / det[..., None]
    return sol


# ---------------------------------------------------------------------------
# pose Jacobians


def _xi_jacobian_arrays(params: RobotParams, th_s, th_e, delta, q_s):
    """Vectorized (J_xi_phi (..., 6, 2), J_xi_delta (..., 6), J_xi_qs (..., 6)).

    Both arcs bend in the plane delta, so every block is an in-plane (x, z)
    vector, or the plane normal y, turned by Rz(-delta).  The theta_s and
    theta_eps columns turn about the shared axis Rz(-delta)(0, -1, 0); a
    theta_s change also swings the empty arc, w = (L - q_s)(e_x, e_z), about
    that axis.  Turning the plane by delta moves the tip along -y by its
    in-plane distance x from the axis, and rotates the frame about
    Rz(-delta)(sin, 0, cos - 1) of the tip bend pi/2 - theta_prime.
    """
    th_s, th_e, delta, q_s = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (th_s, th_e, delta, q_s))
    )
    s, e = _arc(th_s, slopes=True), _arc(th_e, slopes=True)
    x, _, e_x, e_z = _in_plane_tip(params, s, e, q_s)
    L_e = params.L - q_s
    sd, cd = np.sin(delta), np.cos(delta)

    def in_plane(v_x, v_z):
        """Rz(-delta) [v_x, 0, v_z]."""
        return np.stack([cd * v_x, -sd * v_x, v_z], axis=-1)

    axis = np.stack([-sd, -cd, np.zeros_like(sd)], axis=-1)  # Rz(-delta) [0, -1, 0]
    J_xi_phi = np.stack([
        np.concatenate([in_plane(q_s * s.a_t - L_e * e_z, q_s * s.b_t + L_e * e_x), axis],
                       axis=-1),
        np.concatenate([in_plane(L_e * (s.s * e.a_t + s.c * e.b_t),
                                 L_e * (s.s * e.b_t - s.c * e.a_t)), axis], axis=-1),
    ], axis=-1)
    # sin and cos of theta_s + theta_eps = theta_prime + pi/2
    J_xi_delta = np.concatenate([
        x[..., None] * axis,
        in_plane(s.s * e.c + s.c * e.s, -1.0 - (s.c * e.c - s.s * e.s)),
    ], axis=-1)
    J_xi_qs = np.concatenate([in_plane(s.a - e_x, s.b - e_z), np.zeros_like(axis)], axis=-1)
    return J_xi_phi, J_xi_delta, J_xi_qs


def _orthogonal_pinv(J):
    """Minimum-norm pseudo-inverse (..., m, n) of (..., n, m) J with orthogonal
    columns, diag(1 / |J_j|^2) J^T.  A column is dropped where numpy's pinv
    drops its singular value: |J_j| <= 1e-15 max_j |J_j| (rcond)."""
    sq = np.sum(J * J, axis=-2)
    keep = sq > _PINV_RCOND**2 * np.max(sq, axis=-1, keepdims=True)
    return np.where(keep, 1.0 / np.where(keep, sq, 1.0), 0.0)[..., None] * np.swapaxes(J, -1, -2)


class _JacobianArrays(NamedTuple):
    """Vectorized constituents of the tip Jacobians at solved equilibria.

    grads stacks d phi / d(theta, delta, q_s, k_lambda0, k_lambda_theta,
    k_lambda_q) as (..., 2, 6).  J_q_psi and the assembled Jacobians are
    formed on access, so a caller that needs only J_k forms neither J_q_psi
    nor J_M.
    """

    params: RobotParams
    theta: np.ndarray
    delta: np.ndarray
    th_s: np.ndarray
    th_p: np.ndarray
    th_e: np.ndarray
    grads: np.ndarray
    J_xi_phi: np.ndarray
    J_xi_delta: np.ndarray
    J_xi_qs: np.ndarray

    @property
    def J_q_psi(self) -> np.ndarray:
        """(..., n, 2) secondary-backbone displacement per unit (theta, delta),
        row i differentiating q_i = Delta_i (theta - theta0)."""
        sig = _sigma(self.params, self.delta)
        return self.params.r * np.stack([
            np.cos(sig), (THETA_BASE - self.theta)[..., None] * np.sin(sig)], axis=-1)

    @property
    def J_M(self) -> np.ndarray:
        """(..., 6, n) through the minimum-norm pseudo-inverse of J_q_psi, whose
        columns are orthogonal for n >= 3 evenly spaced backbones:
        J_q_psi^T J_q_psi = (n r^2 / 2) diag(1, (theta0 - theta)^2).  At
        straight the delta column vanishes and is dropped."""
        col_theta = (self.J_xi_phi @ self.grads[..., 0:1])[..., 0]
        col_delta = (self.J_xi_phi @ self.grads[..., 1:2])[..., 0] + self.J_xi_delta
        J_psi = np.stack([col_theta, col_delta], axis=-1)  # (..., 6, 2)
        return J_psi @ _orthogonal_pinv(self.J_q_psi)

    @property
    def J_mu(self) -> np.ndarray:
        return (self.J_xi_phi @ self.grads[..., 2:3])[..., 0] + self.J_xi_qs

    @property
    def J_k(self) -> np.ndarray:
        return self.J_xi_phi @ self.grads[..., 3:6]


def _jacobian_arrays(params: RobotParams, theta, delta, q_s, k: UncertaintyParams, angles=None):
    """Differentiate the equilibria at the solved angles (theta_s, theta_prime),
    solving for them first when angles is None; see _JacobianArrays."""
    if angles is None:
        angles = _solve_equilibrium_arrays(params, theta, delta, q_s, k)
    th_s, th_p = angles
    theta, delta, q_s = _broadcast_samples(theta, delta, q_s)
    th_e = _theta_eps(th_s, th_p)
    grads = _phi_gradient_arrays(params, theta, delta, q_s, k, th_s, th_p)
    xi = _xi_jacobian_arrays(params, th_s, th_e, delta, q_s)
    return _JacobianArrays(params, theta, delta, th_s, th_p, th_e, grads, *xi)


def assemble_motion_jacobians(
    params: RobotParams, psi: ConfigState, q_s: float, k: UncertaintyParams
) -> JacobianSet:
    """All tip Jacobians at one configuration.

    J_M: tip twist per secondary-backbone displacement (macro motion),
    through the minimum-norm pseudo-inverse of J_q_psi.
    J_mu: tip twist per insertion depth (micro motion).
    J_k: tip twist per uncertainty parameter, columns ordered
    (k_lambda0, k_lambda_theta, k_lambda_q).
    """
    c = _jacobian_arrays(params, psi.theta, psi.delta, float(q_s), k)
    return JacobianSet(
        J_M=c.J_M,
        J_mu=c.J_mu,
        J_k=c.J_k,
        J_xi_phi=c.J_xi_phi,
        J_xi_delta=c.J_xi_delta,
        J_xi_qs=c.J_xi_qs,
        J_q_psi=c.J_q_psi,
        phi=EquilibriumConfig.from_tip_angle(float(c.th_s), float(c.th_p)),
        d_phi=c.grads,
    )


# ---------------------------------------------------------------------------
# finite-difference oracle

# per-sample uncertainty coefficients: the solver reads only these fields
_UncertaintyArrays = namedtuple("_UncertaintyArrays", "k_lambda0 k_lambda_theta k_lambda_q")


def _central_steps(x0):
    """Rows x0, then x0 + h e_j and x0 - h e_j for j = 0..m-1, shape (1 + 2m, N, m)
    for (N, m) x0, h = _FD_STEP."""
    m = x0.shape[-1]
    steps = np.vstack([np.zeros(m), np.kron(np.eye(m), [[_FD_STEP], [-_FD_STEP]])])
    return x0 + steps[:, None, :]


def _central_twists(params: RobotParams, th_s, th_e, delta, q_s):
    """Central-difference tip twists (N, 6, m) over the (+h, -h) row pairs (2m, N)
    of _central_steps.  The tip pose is formed as pose_from_phi forms it; the
    rotational rows are the axis-angle vector of R(x + h e_j) R(x - h e_j)^T
    over 2h, matching the space-frame convention of the analytic Jacobians."""
    p = _tip_positions(params, th_s, th_e, delta, q_s)
    R = segment_rotation(th_e - (np.pi / 2.0 - th_s), delta)
    w = axis_angle_vector(R[0::2] @ np.swapaxes(R[1::2], -1, -2))
    return np.moveaxis(np.concatenate([p[0::2] - p[1::2], w], axis=-1) / (2.0 * _FD_STEP), 0, -1)


def _rel_err(analytic, fd):
    """Per-point max |analytic - fd| over a (N, ...) block stack, divided by
    max |analytic| where that exceeds one."""
    axes = tuple(range(1, analytic.ndim))
    return (np.max(np.abs(analytic - fd), axis=axes)
            / np.maximum(1.0, np.max(np.abs(analytic), axis=axes)))


def _fd_discrepancy_arrays(params: RobotParams, theta, delta, q_s, k: UncertaintyParams):
    """fd_discrepancies at a batch of points, each error of the inputs' broadcast shape.

    One batched solve covers every point and its twelve perturbations
    x +- h e_j of x = (theta, delta, q_s, k), with k perturbed per sample and a
    delta step across +-pi wrapped back into (-pi, pi] (pose and equilibrium
    are 2 pi-periodic in delta).  The kinematics-only differences step
    (theta_s, theta_eps, delta, q_s) about the unperturbed solution.
    """
    samples = _broadcast_samples(theta, delta, q_s)
    theta, delta, q_s = (a.ravel() for a in samples)
    x = _central_steps(np.column_stack(
        [theta, delta, q_s, np.broadcast_to(k.as_array(), (theta.size, 3))]))
    th, de, qs, k0, kt, kq = np.moveaxis(x, -1, 0)
    de[1:] += 2.0 * np.pi * ((de[1:] <= -np.pi) * 1.0 - (de[1:] > np.pi))
    th_s, th_p = _solve_equilibrium_arrays(params, th, de, qs, _UncertaintyArrays(k0, kt, kq))
    th_e = _theta_eps(th_s, th_p)
    c = _jacobian_arrays(params, theta, delta, q_s, k, angles=(th_s[0], th_p[0]))
    fd = _central_twists(params, th_s[1:], th_e[1:], de[1:], qs[1:])
    phi = np.stack([th_s, th_e], axis=-1)
    fd_phi = np.moveaxis(phi[1::2] - phi[2::2], 0, -1) / (2.0 * _FD_STEP)
    y = _central_steps(np.column_stack([c.th_s, c.th_e, delta, q_s]))[1:]
    fd_kin = _central_twists(params, *np.moveaxis(y, -1, 0))
    errs = {
        "J_M": np.maximum(_rel_err(c.J_M @ c.J_q_psi[..., 0:1], fd[..., 0:1]),
                          _rel_err(c.J_M @ c.J_q_psi[..., 1:2], fd[..., 1:2])),
        "J_mu": _rel_err(c.J_mu, fd[..., 2]),
        "J_k": _rel_err(c.J_k, fd[..., 3:6]),
        "J_xi_phi": _rel_err(c.J_xi_phi, fd_kin[..., 0:2]),
        "J_xi_delta": _rel_err(c.J_xi_delta, fd_kin[..., 2]),
        "J_xi_qs": _rel_err(c.J_xi_qs, fd_kin[..., 3]),
        "d_phi": _rel_err(c.grads, fd_phi),
    }
    return {key: v.reshape(samples[0].shape) for key, v in errs.items()}


def fd_discrepancies(
    params: RobotParams,
    psi: ConfigState,
    q_s: float,
    k: UncertaintyParams,
) -> dict:
    """Max mismatch of every analytic Jacobian against central differences.

    Keys: J_M, J_mu, J_k, J_xi_phi, J_xi_delta, J_xi_qs, d_phi.  Errors
    are absolute for magnitudes below one and relative above, per block.
    """
    errs = _fd_discrepancy_arrays(params, psi.theta, psi.delta, float(q_s), k)
    return {key: float(v) for key, v in errs.items()}
