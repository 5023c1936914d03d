"""Constant-curvature pose maps for the modulated segment.

A subsegment of arc length L_x bending from theta0 = pi/2 down to angle
theta_x in plane delta has tip position and orientation

    p = L_x Rz(-delta) [a, 0, b],  R = segment_rotation(theta_x, delta),
    a = (cos u - 1) / u,  b = sin u / u,  u = theta_x - pi/2,

where R turns by pi/2 - theta_x about the bending-plane normal.  Both
ratios and the theta_x-slope of a have half-angle closed forms that are
exact at the straight configuration u = 0 and lose no digits near it; only
the slope of b keeps a series there.  The full segment is the inserted
subsegment (length q_s, angle theta_s) followed by the empty subsegment
(length L - q_s, angle theta_eps), which starts in the frame of the
separation plane.  Both bend in the plane delta, so every tip pose, scalar
or batched, comes from one planar chain: p = Rz(-delta) [x, 0, z] with
(x, z) = q_s (a_s, b_s) + (L - q_s) Ry(pi/2 - theta_s) (a_e, b_e), and the
tip rotation is segment_rotation(theta_s + theta_eps - pi/2, delta).  Poses,
Jacobians and the calibration fit read one chain record, _Chain; _solved_chain is
the one solve-then-chain sequence, kept (_scalar_chain) for crem_pose, which returns the
angles with the pose, and the Jacobians of one configuration.  Sweeps take the plain-arc
_tip_positions; _turn turns every in-plane tip by delta.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigState,
    EquilibriumConfig,
    RobotParams,
    UncertaintyParams,
    _blocks,
    _check_types,
    _equilibrium_angles,
    _float,
    _lambda,
    _newton,
    _reals,
    _solver_start,
    _theta_prime,
)

# |theta_x - pi/2| below which the slope of b switches to its series form
STRAIGHT_SERIES_THRESHOLD = 1e-4


@dataclass(frozen=True, eq=False)
class Pose:
    """Position (mm) and rotation of one frame in another."""

    p: np.ndarray
    R: np.ndarray


@dataclass(frozen=True, eq=False)
class SegmentedPose:
    """Tip frame of the two-subsegment chain in the base frame, with the
    equilibrium angles it was formed at."""

    tip: Pose
    equilibrium: EquilibriumConfig


# sin, cos, arc ratios and their slopes (None unless asked) of one angle, see _arc
_Arc = namedtuple("_Arc", "s c a b a_t b_t")


def _arc(theta_x, slopes=False) -> _Arc:
    """sin theta_x = cos u, cos theta_x = -sin u, the ratios (a, b) above and, if
    asked, their theta_x-slopes, u = theta_x - pi/2.  With S = sin(u/2) / (u/2),
    1 at u = 0, the half-angle identities give, with no other division by u,

        a = -sin(u/2) S,  b = cos(u/2) S,  a_t = S^2 / 2 - b,

    exact at u = 0 and finite for every u.  b_t = (cos u - b) / u cancels near
    u = 0: within |u| < STRAIGHT_SERIES_THRESHOLD it is a series, evaluated on
    the window's samples only.
    """
    u = _float(theta_x) - np.pi / 2.0
    h = u / 2.0
    sh, ch = np.sin(h), np.cos(h)
    # at u = 0, where sh = 0, divide by 1 and add the 1 after
    zero = u == 0.0
    S = 2.0 * sh / (u + zero) + zero
    st, ct, b = 1.0 - 2.0 * sh * sh, -2.0 * sh * ch, ch * S
    a_t = b_t = None
    if slopes:
        a_t = S * S / 2.0 - b
        near = np.abs(u) < STRAIGHT_SERIES_THRESHOLD
        # the window's samples, divided by u + 1 here, take the series in place, a numpy
        # scalar through a 0-d copy
        b_t = np.asarray((st - b) / (u + near))
        if np.count_nonzero(near):
            w = u[near]
            b_t[near] = -w / 3.0 + w**3 / 30.0
        b_t = b_t[()]
    return _Arc(st, ct, -sh * S, b, a_t, b_t)


def segment_rotation(theta_x, delta_x):
    """R = Rz(-delta) Ry(pi/2 - theta_x) Rz(delta), shape (..., 3, 3), in closed
    form: the turn by pi/2 - theta_x about n = (sin delta, cos delta, 0),

        R = sin theta_x I + cos theta_x [n]^ + (1 - sin theta_x) n n^T.
    """
    t, d = _float(theta_x), _float(delta_x)
    st, ct, sd, cd = np.sin(t), np.cos(t), np.sin(d), np.cos(d)
    v = 1.0 - st
    R = np.empty(np.broadcast(t, d).shape + (3, 3))
    R[..., 0, 0] = st + v * sd * sd
    R[..., 0, 1] = R[..., 1, 0] = v * sd * cd
    R[..., 0, 2] = ct * cd
    R[..., 1, 1] = st + v * cd * cd
    R[..., 1, 2] = -ct * sd
    R[..., 2, 0] = -ct * cd
    R[..., 2, 1] = ct * sd
    R[..., 2, 2] = st
    return R


def _in_plane_tip(params: RobotParams, arc_s: _Arc, arc_e: _Arc, q_s):
    """Tip (x, z) in the bending plane, and (e_x, e_z) = Ry(pi/2 - theta_s)(a_e, b_e),
    the empty arc's direction turned by the inserted arc."""
    e_x = arc_s.s * arc_e.a + arc_s.c * arc_e.b
    e_z = arc_s.s * arc_e.b - arc_s.c * arc_e.a
    # L - q_s formed last: at N = 20,000 an array formed before the arcs' products
    # and kept through them slows a sweep by 10%
    L_e = params.L - q_s
    return q_s * arc_s.a + L_e * e_x, q_s * arc_s.b + L_e * e_z, e_x, e_z


def _columns(shape, *cols):
    """np.stack(cols, axis=-1) of columns that broadcast to shape, filled into one
    preallocated array of shape + (len(cols),); at shape (), one np.array of the scalars."""
    if shape == ():
        return np.array(cols)
    out = np.empty(shape + (len(cols),))
    for j, col in enumerate(cols):
        out[..., j] = col
    return out


def _turn(x, z, sd, cd):
    """Rz(-delta) [x, 0, z], shape (..., 3), of in-plane (x, z); sd, cd = sin, cos delta."""
    p_x = cd * x
    return _columns(p_x.shape, p_x, -sd * x, z)


def _tip_positions(params: RobotParams, th_s, th_e, delta, q_s):
    """Tip positions (..., 3) of the two-arc chain at given equilibrium angles:
    p = Rz(-delta) [x, 0, z] with (x, z) from _in_plane_tip.  The arguments
    broadcast against each other."""
    x, z, _, _ = _in_plane_tip(params, _arc(th_s), _arc(th_e), _float(q_s))
    return _turn(x, z, np.sin(delta), np.cos(delta))


_Chain = namedtuple("_Chain", "th_s th_e s e x z e_x e_z")


def _chain(params: RobotParams, th_s, th_e, e: _Arc, q_s) -> _Chain:
    """The angles (theta_s, theta_eps), the theta_s _arc with slopes, the empty arc e and
    _in_plane_tip (x, z, e_x, e_z), which poses, Jacobians and the fit read; nothing depends on
    delta.  e has slopes where J_xi is formed; the fit forms it without, once per fit."""
    s = _arc(th_s, slopes=True)
    return _Chain(th_s, th_e, s, e, *_in_plane_tip(params, s, e, q_s))


def _solved_chain(params: RobotParams, theta, delta, q_s, k):
    """(kappa, _chain) of one solve at k of samples each of one value or of the batch's shape
    (model._solver_start), the empty arc with slopes: the one solve-then-chain sequence of the
    scalar calls (_scalar_chain) and of simulate-macro."""
    kappa = _newton(params, _solver_start(params, theta, delta, q_s, 0),
                    _lambda(k, q_s, theta))
    th_s, th_e = _equilibrium_angles(params, theta, q_s, kappa)
    return kappa, _chain(params, th_s, th_e, _arc(th_e, slopes=True), q_s)


@functools.lru_cache(maxsize=1)
def _scalar_chain(params: RobotParams, theta: float, delta: float, q_s: float, k):
    """_solved_chain of one configuration, the one value kept between scalar calls, so that a
    pose and the Jacobians share one solve and one chain pass.  Every value in it is a numpy
    scalar, so no caller can change it."""
    return _solved_chain(params, theta, delta, q_s, k)


def crem_pose(
    params: RobotParams, psi: ConfigState, q_s: float, k: UncertaintyParams
) -> SegmentedPose:
    """Tip pose at configuration psi and insertion depth q_s, with the equilibrium angles
    (theta_s, theta_eps) of the segment there.

    Takes the kept solve and planar chain of the configuration (_scalar_chain),
    turns its in-plane tip by delta (_turn), and forms the
    rotation segment_rotation(theta_prime, delta).  Arguments of the wrong type raise
    ValidationError (model._check_types).
    """
    _check_types(params=params, psi=psi, k=k, q_s=q_s)
    _, c = _scalar_chain(params, float(psi.theta), float(psi.delta), float(q_s), k)
    tip = Pose(_turn(c.x, c.z, np.sin(psi.delta), np.cos(psi.delta)),
               segment_rotation(_theta_prime(c.th_s, c.th_e), psi.delta))
    return SegmentedPose(tip, EquilibriumConfig(float(c.th_s), float(c.th_e)))


def micro_trajectory(
    params: RobotParams,
    psi: ConfigState,
    qs_schedule,
    k: UncertaintyParams,
):
    """Tip positions along an insertion sweep at fixed psi.

    Returns (positions (N, 3), theta_s (N,), theta_prime (N,)).  The depths are solved and
    mapped over blocks of the schedule (model._blocks), each written into the outputs, so
    that besides them the working set is one block's whatever N is.  The bits are those of
    a one-depth call.  An error names a depth by its index in the schedule; NoConvergence's
    count of samples still active covers the block the depth is in.  Arguments of the wrong
    type (model._check_types) and a schedule of other than real numbers (model._reals), a
    ragged one too, raise ValidationError.
    """
    _check_types(params=params, psi=psi, k=k)
    q = _reals("qs_schedule", qs_schedule)
    flat = q.ravel()
    pos, th_s, th_p = np.empty((q.size, 3)), np.empty(q.size), np.empty(q.size)
    for b in _blocks(q.size):
        q_b = flat[b]
        kappa = _newton(params, _solver_start(params, psi.theta, psi.delta, q_b, b.start),
                        _lambda(k, q_b, psi.theta))
        th_s[b], th_e = _equilibrium_angles(params, psi.theta, q_b, kappa)
        pos[b] = _tip_positions(params, th_s[b], th_e, psi.delta, q_b)
        th_p[b] = _theta_prime(th_s[b], th_e)
        del kappa, th_e  # the next block's arrays are formed without this block's
    return pos.reshape(q.shape + (3,)), th_s.reshape(q.shape), th_p.reshape(q.shape)
