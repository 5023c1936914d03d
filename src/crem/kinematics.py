"""Constant-curvature pose maps for the modulated segment.

A subsegment of arc length L_x bending from theta0 = pi/2 down to angle
theta_x in plane delta has tip position

    p = L_x * [cos(delta) a, -sin(delta) a, b],
    a = (sin theta_x - 1) / (theta_x - pi/2),  b = -cos theta_x / (theta_x - pi/2)

and orientation R = Rz(-delta) Ry(pi/2 - theta_x) Rz(delta).  Near the
straight configuration both ratios and their theta_x-slopes are evaluated
by series.  The full segment is the inserted subsegment (length q_s, angle
theta_s) composed with the empty subsegment (length L - q_s, angle
theta_eps) in the frame of the separation plane.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    ConfigState,
    EquilibriumConfig,
    RobotParams,
    UncertaintyParams,
    _solve_equilibrium_arrays,
    _theta_eps,
    solve_equilibrium,
)
from .rotations import rot_y, rot_z

# |theta_x - pi/2| below which the arc ratios switch to their series forms
STRAIGHT_SERIES_THRESHOLD = 1e-4


@dataclass(frozen=True, eq=False)
class Pose:
    """Position (mm) and rotation of one frame in another."""

    p: np.ndarray
    R: np.ndarray


@dataclass(frozen=True, eq=False)
class SegmentedPose:
    """Tip pose with the intermediate frames of the two-subsegment chain.

    separation: separation-plane frame in the base frame
    distal: tip frame in the separation-plane frame
    tip: their composition, the tip frame in the base frame
    """

    tip: Pose
    separation: Pose
    distal: Pose
    equilibrium: EquilibriumConfig


def _straight_window(theta_x):
    """(t, u = t - pi/2, mask of the series window, u with ones inside it)."""
    t = np.asarray(theta_x, dtype=float)
    u = t - np.pi / 2.0
    near = np.abs(u) < STRAIGHT_SERIES_THRESHOLD
    return t, u, near, np.where(near, 1.0, u)


def _arc_scalars(theta_x):
    """Ratios (a, b) above, series-evaluated within the straight window."""
    t, u, near, u_safe = _straight_window(theta_x)
    a = np.where(near, -u / 2.0 + u**3 / 24.0, (np.sin(t) - 1.0) / u_safe)
    b = np.where(near, 1.0 - u**2 / 6.0 + u**4 / 120.0, -np.cos(t) / u_safe)
    return a, b


def _arc_slopes(theta_x):
    """Slopes (da/d theta_x, db/d theta_x) of the ratios, in the same window.

        da/dt = (u cos t - sin t + 1) / u^2,  db/dt = (u sin t + cos t) / u^2
    """
    t, u, near, u_safe = _straight_window(theta_x)
    st, ct = np.sin(t), np.cos(t)
    a_t = np.where(near, -0.5 + u**2 / 8.0 - u**4 / 144.0, (u * ct - st + 1.0) / u_safe**2)
    b_t = np.where(near, -u / 3.0 + u**3 / 30.0, (u * st + ct) / u_safe**2)
    return a_t, b_t


def arc_direction(theta_x, delta_x):
    """Tip position per unit arc length, shape (..., 3)."""
    a, b = _arc_scalars(theta_x)
    d = np.asarray(delta_x, dtype=float)
    return np.stack([np.cos(d) * a, -np.sin(d) * a, b], axis=-1)


def segment_rotation(theta_x, delta_x):
    """R = Rz(-delta) Ry(pi/2 - theta_x) Rz(delta), shape (..., 3, 3)."""
    t = np.asarray(theta_x, dtype=float)
    d = np.asarray(delta_x, dtype=float)
    return rot_z(-d) @ rot_y(np.pi / 2.0 - t) @ rot_z(d)


def _arc_pose(L_x, theta_x, delta_x):
    """Tip position (..., 3) and rotation (..., 3, 3) of constant-curvature arcs."""
    p = np.asarray(L_x, dtype=float)[..., None] * arc_direction(theta_x, delta_x)
    return p, segment_rotation(theta_x, delta_x)


def segment_pose(L_x: float, theta_x: float, delta_x: float) -> Pose:
    """Pose of a single constant-curvature arc (scalar arguments)."""
    if not (L_x >= 0.0 and np.isfinite(L_x)):
        raise ValidationError(f"arc length must be finite and >= 0, got {L_x}")
    if not (np.isfinite(theta_x) and np.isfinite(delta_x)):
        raise ValidationError(f"arc angles must be finite, got ({theta_x}, {delta_x})")
    return Pose(*_arc_pose(np.float64(L_x), np.float64(theta_x), np.float64(delta_x)))


def _pose_arrays(params: RobotParams, th_s, th_e, delta, q_s):
    """Vectorized two-subsegment chain for given equilibrium angles.

    Returns the tip position p (..., 3) and the (p, R) pairs of both
    subsegments: the inserted arc (the separation plane in the base frame)
    and the empty arc (the tip in the separation-plane frame).
    """
    th_s, th_e, delta, q_s = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (th_s, th_e, delta, q_s))
    )
    p_c, R_c = _arc_pose(q_s, th_s, delta)
    p_gc, R_gc = _arc_pose(params.L - q_s, th_e, delta)
    p = p_c + (R_c @ p_gc[..., None])[..., 0]
    return p, (p_c, R_c), (p_gc, R_gc)


def pose_from_phi(
    params: RobotParams, phi: EquilibriumConfig, delta: float, q_s: float
) -> SegmentedPose:
    """Two-subsegment pose for given equilibrium angles (no solve)."""
    if not (0.0 <= q_s <= params.L):
        raise ValidationError(f"q_s={q_s} outside [0, L]")
    if not np.isfinite(delta):
        raise ValidationError(f"delta must be finite, got {delta}")
    p, (p_c, R_c), (p_gc, R_gc) = _pose_arrays(
        params, phi.theta_s, phi.theta_eps, delta, q_s
    )
    return SegmentedPose(
        tip=Pose(p=p, R=R_c @ R_gc),
        separation=Pose(p=p_c, R=R_c),
        distal=Pose(p=p_gc, R=R_gc),
        equilibrium=phi,
    )


def crem_pose(
    params: RobotParams, psi: ConfigState, q_s: float, k: UncertaintyParams
) -> SegmentedPose:
    """Tip pose at configuration psi and insertion depth q_s.

    Solves the moment equilibrium for phi, then composes the inserted and
    empty subsegment arcs.
    """
    phi = solve_equilibrium(params, psi, q_s, k)
    return pose_from_phi(params, phi, psi.delta, q_s)


def _tip_position_arrays(params: RobotParams, theta, delta, q_s, k: UncertaintyParams):
    """Vectorized tip positions over broadcast (theta, delta, q_s).

    Returns (positions (..., 3), theta_s, theta_prime).
    """
    th_s, th_p = _solve_equilibrium_arrays(params, theta, delta, q_s, k)
    p, _, _ = _pose_arrays(params, th_s, _theta_eps(th_s, th_p), delta, q_s)
    return p, th_s, th_p


def micro_trajectory(
    params: RobotParams,
    psi: ConfigState,
    qs_schedule,
    k: UncertaintyParams,
):
    """Tip positions along an insertion sweep at fixed psi.

    Returns (positions (N, 3), theta_s (N,), theta_prime (N,)).
    """
    return _tip_position_arrays(params, psi.theta, psi.delta, qs_schedule, k)
