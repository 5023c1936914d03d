"""Analytic differential kinematics of the modulated segment.

Two layers:

* equilibrium sensitivities d phi / d(theta, delta, q_s, k_lambda): the
  inserted arc's curvature kappa solves the scalar balance G(kappa) = 0 of
  the model, so d kappa / d a = -(dG/da) / G', and the empty arc's angle
  theta_eps = pi/2 + (L - q_s) kappa0 has a closed-form row;
* pose Jacobians of the two-subsegment chain: the tip twist per
  (theta_s, theta_eps), delta and q_s at fixed equilibrium
  (J_xi_phi / J_xi_delta / J_xi_qs), and the assembled macro / micro /
  identification Jacobians J_M, J_mu, J_k.

Both layers land in one record, JacobianSet, of any batch shape, with the tip
position of the same chain pass: the batched core _jacobian_arrays fills it from
a solved kappa and its kinematics._chain, the assembled Jacobians are formed on
first access, and assemble_motion_jacobians returns the core's record at shape ().

Both arcs bend in the plane delta, so each twist block is in-plane 2-D
arithmetic turned by Rz(-delta), with no 3x3 product.  J_M maps through
the closed-form pseudo-inverse of the backbone map J_q_psi, whose two
columns are orthogonal for evenly spaced backbones.

Angular velocity follows the space-frame convention dR R^T = [omega]^.
A batched central-difference oracle checks every analytic block against
finite differences: one equilibrium solve covers a batch of points and
their perturbations, one pose pass forms the tip poses of both maps, and
one pass scores every block.  The solver freezes each sample where a lone
solve stops, so every point scores as it does alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kinematics import (_arc, _chain, _columns, _scalar_chain, _tip_positions, _turn,
                         segment_rotation)
from .model import (
    THETA_BASE,
    ConfigState,
    RobotParams,
    UncertaintyParams,
    _arc_moment,
    _check_domain,
    _check_types,
    _equilibrium_angles,
    _float,
    _newton,
    _sigma,
    _solver_start,
    _theta_prime,
)
from .rotations import axis_angle_vector

# relative singular-value cutoff of numpy's pinv, which J_M reproduces
_PINV_RCOND = 1e-15
# central-difference step of the finite-difference oracle
_FD_STEP = 1e-6


# ---------------------------------------------------------------------------
# equilibrium sensitivities


def _theta_s_row(q_s, dG, G_k):
    """d theta_s / d a = q_s d kappa / d a = -q_s (dG/da) / G' at fixed q_s, (..., m); at
    shape (), where q_s and G' are numpy scalars, without their padding."""
    if dG.ndim == 1:
        return q_s * (-dG / G_k)
    return q_s[..., None] * (-dG / G_k[..., None])


def _phi_gradient_arrays(params: RobotParams, theta, delta, q_s, k: UncertaintyParams, kappa):
    """Vectorized (d phi / d(theta, delta, q_s, k) (..., 2, 6), J_q_psi (..., n, 2)).

    kappa solves G(kappa) = M(kappa) + EI_s kappa - M(kappa0) + lambda = 0
    (model._newton), so d kappa / d a = -(dG/da) / G' with
    G' = dM/dkappa + EI_s and

        dG/d(theta, delta, q_s, k) = (k_lambda_theta - M'(kappa0) / L,
            M_delta(kappa) - M_delta(kappa0), k_lambda_q, 1, theta, q_s).

    The theta_s = theta0 + q_s kappa row is q_s d kappa / d a plus kappa in
    the q_s column; the theta_eps = pi/2 + (L - q_s) kappa0 row is
    ((L - q_s) / L, 0, -kappa0, 0, 0, 0).  J_q_psi, the secondary-backbone
    displacement per unit (theta, delta), takes the same cos and sin of sigma_i.
    The arguments broadcast against each other; at shape () J_q_psi is filled without the
    batch's transposes.
    """
    theta, delta, q_s, kappa = [_float(a) for a in (theta, delta, q_s, kappa)]
    shape = (np.broadcast(theta, delta, q_s, kappa).shape
             if theta.ndim or delta.ndim or q_s.ndim or kappa.ndim else ())
    sig = _sigma(params, delta, len(shape))
    cos_sig, sin_sig = np.cos(sig), np.sin(sig)
    # backbone-major Delta_i (model._offsets) and d Delta_i / d delta
    D, dD = params.r * cos_sig, -params.r * sin_sig
    kappa0 = (theta - THETA_BASE) / params.L
    _, _, M0_k, M0_d = _arc_moment(params, D, kappa0, dD)
    _, _, M_k, M_d = _arc_moment(params, D, kappa, dD)
    dG = _columns(shape, k.k_lambda_theta - M0_k / params.L, M_d - M0_d,
                  k.k_lambda_q, 1.0, theta, q_s)
    d_phi = np.zeros(shape + (2, 6))
    d_phi[..., 0, :] = _theta_s_row(q_s, dG, M_k + params.EI_s)
    d_phi[..., 0, 2] += kappa
    d_phi[..., 1, 0] = (params.L - q_s) / params.L
    d_phi[..., 1, 2] = -kappa0
    # J_q_psi (..., n, 2): row i differentiates q_i = Delta_i (theta - theta0)
    if not shape:
        J_q_psi = np.empty((params.n, 2))
        J_q_psi[:, 0] = D
        J_q_psi[:, 1] = params.r * ((THETA_BASE - theta) * sin_sig)
        return d_phi, J_q_psi
    backbone_last = tuple(range(1, sig.ndim)) + (0,)
    cos_sig, sin_sig = cos_sig.transpose(backbone_last), sin_sig.transpose(backbone_last)
    J_q_psi = params.r * _columns(shape + (params.n,), cos_sig,
                                  (THETA_BASE - theta)[..., None] * sin_sig)
    return d_phi, J_q_psi


# ---------------------------------------------------------------------------
# pose Jacobians


def _theta_s_twist(c, sd, cd, q_s, L_e):
    """The tip twist (..., 6) per theta_s, J_xi_phi[..., :, 0], of the planar chain c
    (kinematics._chain); sd, cd = sin, cos delta and L_e = L - q_s."""
    v_x, v_z = q_s * c.s.a_t - L_e * c.e_z, q_s * c.s.b_t + L_e * c.e_x
    p_x = cd * v_x
    return _columns(p_x.shape, p_x, -sd * v_x, v_z, -sd, -cd, 0.0)


def _xi_jacobian_arrays(params: RobotParams, c, delta, q_s):
    """Vectorized (p (..., 3), J_xi_phi (..., 6, 2), J_xi_delta (..., 6), J_xi_qs (..., 6))
    of the planar chain c (kinematics._chain) at depth q_s.

    Both arcs bend in the plane delta, so the tip p and every block is an
    in-plane (x, z) vector, or the plane normal y, turned by Rz(-delta).  The
    theta_s and theta_eps columns turn about the shared axis
    Rz(-delta)(0, -1, 0); a theta_s change also swings the empty arc,
    w = (L - q_s)(e_x, e_z), about that axis.  Turning the plane by delta moves
    the tip along -y by its in-plane distance x from the axis, and rotates the
    frame about Rz(-delta)(sin, 0, cos - 1) of the tip bend pi/2 - theta_prime.
    The arguments broadcast against each other.
    """
    s, e = c.s, c.e
    L_e = params.L - q_s
    sd, cd = np.sin(delta), np.cos(delta)
    col_s = _theta_s_twist(c, sd, cd, q_s, L_e)
    shape = col_s.shape[:-1]
    axis = (-sd, -cd, 0.0)
    w_x, w_z = L_e * (s.s * e.a_t + s.c * e.b_t), L_e * (s.s * e.b_t - s.c * e.a_t)
    J_xi_phi = _columns(shape + (6,), col_s, _columns(shape, cd * w_x, -sd * w_x, w_z, *axis))
    # sin and cos of theta_s + theta_eps = theta_prime + pi/2
    t_x, t_z = s.s * e.c + s.c * e.s, -1.0 - (s.c * e.c - s.s * e.s)
    J_xi_delta = _columns(shape, *(c.x * a for a in axis), cd * t_x, -sd * t_x, t_z)
    q_x = s.a - c.e_x
    J_xi_qs = _columns(shape, cd * q_x, -sd * q_x, s.b - c.e_z, 0.0, 0.0, 0.0)
    return _turn(c.x, c.z, sd, cd), J_xi_phi, J_xi_delta, J_xi_qs


def _orthogonal_pinv(J):
    """Minimum-norm pseudo-inverse (..., m, n) of (..., n, m) J with orthogonal
    columns, diag(1 / |J_j|^2) J^T.  A column is dropped where numpy's pinv
    drops its singular value: |J_j| <= 1e-15 max_j |J_j| (rcond)."""
    sq = (J * J).sum(axis=-2)
    keep = sq > _PINV_RCOND**2 * sq.max(axis=-1, keepdims=True)
    return np.where(keep, 1.0 / np.where(keep, sq, 1.0), 0.0)[..., None] * np.swapaxes(J, -1, -2)


@dataclass(frozen=True, eq=False)
class JacobianSet:
    """Tip Jacobians and their constituents at solved equilibria, of one batch shape.

    th_s and th_e are the equilibrium angles (theta_s, theta_eps), p (..., 3)
    the tip position, bit for bit kinematics._tip_positions.  d_phi
    stacks d phi / d(theta, delta, q_s, k_lambda0, k_lambda_theta,
    k_lambda_q) as (..., 2, 6).  J_xi_phi (..., 6, 2), J_xi_delta and
    J_xi_qs (..., 6) are the tip twist per (theta_s, theta_eps), delta and
    q_s at fixed equilibrium; J_q_psi (..., n, 2) is the secondary-backbone
    displacement per unit (theta, delta).  The assembled Jacobians are
    formed on first access; the fit forms J_k alone (calibration._jacobian_factors).
    """

    th_s: np.ndarray
    th_e: np.ndarray
    p: np.ndarray
    d_phi: np.ndarray
    J_xi_phi: np.ndarray
    J_xi_delta: np.ndarray
    J_xi_qs: np.ndarray
    J_q_psi: np.ndarray

    @cached_property
    def J_psi(self) -> np.ndarray:
        """(..., 6, 2) tip twist per unit (theta, delta)."""
        col_theta = (self.J_xi_phi @ self.d_phi[..., 0:1])[..., 0]
        col_delta = (self.J_xi_phi @ self.d_phi[..., 1:2])[..., 0] + self.J_xi_delta
        return _columns(col_theta.shape, col_theta, col_delta)

    @cached_property
    def J_M(self) -> np.ndarray:
        """(..., 6, n) tip twist per secondary-backbone displacement (macro
        motion): J_psi through the minimum-norm pseudo-inverse of J_q_psi,
        whose columns are orthogonal for n >= 3 evenly spaced backbones:
        J_q_psi^T J_q_psi = (n r^2 / 2) diag(1, (theta0 - theta)^2).  At
        straight the delta column vanishes and is dropped."""
        return self.J_psi @ _orthogonal_pinv(self.J_q_psi)

    @cached_property
    def J_mu(self) -> np.ndarray:
        """(..., 6) tip twist per insertion depth (micro motion)."""
        return (self.J_xi_phi @ self.d_phi[..., 2:3])[..., 0] + self.J_xi_qs

    @cached_property
    def J_k(self) -> np.ndarray:
        """(..., 6, 3) tip twist per (k_lambda0, k_lambda_theta, k_lambda_q)."""
        return self.J_xi_phi @ self.d_phi[..., 3:6]


def _jacobian_arrays(params: RobotParams, theta, delta, q_s, k: UncertaintyParams, kappa, chain):
    """Differentiate the equilibria of samples (theta, delta, q_s) at the solved curvature
    kappa and its kinematics._chain, with the empty arc's slopes (kinematics._solved_chain);
    see JacobianSet.  The samples are floats or arrays of the chain's shape."""
    d_phi, J_q_psi = _phi_gradient_arrays(params, theta, delta, q_s, k, kappa)
    p, *xi = _xi_jacobian_arrays(params, chain, delta, q_s)
    return JacobianSet(chain.th_s, chain.th_e, p, d_phi, *xi, J_q_psi)


def assemble_motion_jacobians(
    params: RobotParams, psi: ConfigState, q_s: float, k: UncertaintyParams
) -> JacobianSet:
    """All tip Jacobians at one configuration, a JacobianSet of batch shape (), from the
    configuration's kept solve and planar chain (kinematics._scalar_chain).  Arguments of the
    wrong type raise ValidationError (model._check_types)."""
    _check_types(params=params, psi=psi, k=k, q_s=q_s)
    kappa, chain = _scalar_chain(params, float(psi.theta), float(psi.delta), float(q_s), k)
    return _jacobian_arrays(params, psi.theta, psi.delta, float(q_s), k, kappa, chain)


# ---------------------------------------------------------------------------
# finite-difference oracle

# a zero row, then (+h, -h) rows per input; m inputs take the top-left (1 + 2m, m) block
_STEPS = np.vstack([np.zeros(6), np.kron(np.eye(6), [[_FD_STEP], [-_FD_STEP]])])
_STEPS.flags.writeable = False
# first column of each scored block in the oracle's stacked (N, 6, 12) differences
_BLOCKS = dict(J_M=0, J_mu=2, J_k=3, J_xi_phi=6, J_xi_delta=8, J_xi_qs=9, d_phi=10)


def _central_steps(x0):
    """The m <= 6 inputs x0, numpy scalars of one point or arrays of a batch, over the rows of
    _STEPS: m arrays (1 + 2m,) + the batch's shape, row 0 the input, rows 2j + 1, 2j + 2 x_j +-h."""
    steps = _STEPS[:1 + 2 * len(x0)].reshape((-1, 6) + (1,) * max(map(np.ndim, x0)))
    return tuple(a + steps[:, j] for j, a in enumerate(x0))


def _central_twists(params: RobotParams, th_s, th_e, delta, q_s):
    """Central-difference tip twists (..., 6, m) over (+h, -h) row pairs (2m, ...), one pass for
    the steps of both oracle maps.  The tip pose is formed as crem_pose forms it; the rotational
    rows are the axis-angle vector of R(x + h e_j) R(x - h e_j)^T over 2h, matching the
    space-frame convention of the analytic Jacobians."""
    p = _tip_positions(params, th_s, th_e, delta, q_s)
    R = segment_rotation(_theta_prime(th_s, th_e), delta)
    w = axis_angle_vector(R[0::2] @ np.swapaxes(R[1::2], -1, -2))
    return np.moveaxis(np.concatenate([p[0::2] - p[1::2], w], axis=-1) / (2.0 * _FD_STEP), 0, -1)


def _fd_discrepancy_arrays(params: RobotParams, theta, delta, q_s, k: UncertaintyParams):
    """fd_discrepancies at points of any shape, each error of their broadcast shape.

    One batched solve covers every point and its twelve perturbations x +- h e_j of
    x = (theta, delta, q_s, k), with k perturbed per sample and a delta step across +-pi
    wrapped back into the domain (pose and equilibrium are 2 pi-periodic in delta).  The
    kinematics-only differences step (theta_s, theta_eps, delta, q_s) about the unperturbed
    solution; one pose pass forms the tips of both maps and one pass scores every block.  The
    points are broadcast to one shape, as the steps lead every array (_central_steps); one
    point runs its analytic Jacobians at shape ().  Before any solve, the first point not h
    inside the domain (_check_domain) is rejected.
    """
    samples = theta, delta, q_s = [_float(a) for a in np.broadcast_arrays(theta, delta, q_s)]
    _check_domain(samples, _FD_STEP, params.L, "sample", 0)
    # the k rows are (13,) + (1,) * ndim: one k for every point
    th, de, qs, k0, kt, kq = _central_steps((theta, delta, q_s, *k.as_array()))
    de[1:] += 2.0 * np.pi * ((de[1:] <= -np.pi) * 1.0 - (de[1:] > np.pi))
    # uncertainty_lambda with k perturbed per sample
    kappa = _newton(params, _solver_start(params, th, de, qs, 0), k0 + kt * th + kq * qs)
    th_s, th_e = _equilibrium_angles(params, th, qs, kappa)
    c = _jacobian_arrays(params, theta, delta, q_s, k, kappa[0],
                         _chain(params, th_s[0], th_e[0], _arc(th_e[0], slopes=True), q_s))
    y = _central_steps((c.th_s, c.th_e, delta, q_s))
    # (..., 6, 10): the six full-map columns, then the four kinematic ones
    fd = _central_twists(params, *(np.concatenate([a[1:], b[1:]]) for a, b in
                                   zip((th_s, th_e, de, qs), y)))
    # (..., 6, 2) differences of phi, laid out as d_phi transposed
    fd_phi = np.moveaxis(np.stack([th_s[1::2] - th_s[2::2], th_e[1::2] - th_e[2::2]], -1), 0, -2)
    fd = np.concatenate([fd, fd_phi / (2.0 * _FD_STEP)], axis=-1)
    an = np.concatenate([c.J_psi, c.J_mu[..., None], c.J_k, c.J_xi_phi, c.J_xi_delta[..., None],
                         c.J_xi_qs[..., None], np.swapaxes(c.d_phi, -1, -2)], axis=-1)
    # per-point max |an - fd| and max |an| of each block, (..., 7) each: the max of the
    # column maxima is the block max exactly
    err, mag = np.maximum.reduceat(np.abs(np.array([an - fd, an])).max(axis=-2),
                                   tuple(_BLOCKS.values()), axis=-1)
    errs = err / np.maximum(1.0, mag)
    return {key: errs[..., j] for j, key in enumerate(_BLOCKS)}


def fd_discrepancies(
    params: RobotParams,
    psi: ConfigState,
    q_s: float,
    k: UncertaintyParams,
) -> dict:
    """Max mismatch of every analytic Jacobian against central differences.

    Keys: J_M, J_mu, J_k, J_xi_phi, J_xi_delta, J_xi_qs, d_phi.  Errors
    are absolute for magnitudes below one and relative above, per block.
    The J_M entry scores J_psi, the tip twist per (theta, delta) that J_M
    maps through the pseudo-inverse of J_q_psi: at straight J_q_psi loses
    its delta column, so J_M J_q_psi cannot reproduce the delta motion that
    an uncertainty moment still makes.
    The point must lie h = 1e-6 inside the domain, theta in (h, pi - h) and q_s in
    [h, L - h] (_check_domain), else ValidationError; so do arguments of the wrong type
    (model._check_types).
    """
    _check_types(params=params, psi=psi, k=k, q_s=q_s)
    errs = _fd_discrepancy_arrays(params, psi.theta, psi.delta, float(q_s), k)
    return {key: float(v) for key, v in errs.items()}
