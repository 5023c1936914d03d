"""Small rotation-matrix toolbox.

All functions broadcast over leading dimensions: scalars give (3, 3),
an array of angles of shape S gives S + (3, 3).
"""
from __future__ import annotations

import numpy as np

# Below this angle the skew part of R is the rotation vector to better than
# machine precision; above pi minus this the skew part is too small to give
# the axis reliably and the symmetric part is used instead.
SMALL_ANGLE = 1e-7
NEAR_PI = 1e-4


def _plane_rotation(angle, i, j):
    """Right-handed rotation turning axis i toward axis j."""
    a = np.asarray(angle, dtype=float)
    c, s = np.cos(a), np.sin(a)
    R = np.zeros(a.shape + (3, 3))
    R[..., i, i] = c
    R[..., i, j] = -s
    R[..., j, i] = s
    R[..., j, j] = c
    R[..., 3 - i - j, 3 - i - j] = 1.0
    return R


def rot_z(angle):
    """Right-handed rotation about +z."""
    return _plane_rotation(angle, 0, 1)


def rot_y(angle):
    """Right-handed rotation about +y."""
    return _plane_rotation(angle, 2, 0)


def unskew(m):
    """v of a cross-product matrix [v]^ with [v]^ w = v x w.

    The input may be only approximately antisymmetric.
    """
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def axis_angle(R):
    """Rotation angle and unit axis of a single rotation matrix.

    Returns (alpha, axis) with alpha in [0, pi].  alpha is recovered from
    atan2(|skew part|, trace), which stays accurate at both ends of the
    range.  Near alpha = pi the axis comes from the symmetric part
    (R + I)/2 = m m^T + s (I - m m^T), s = (1 + cos alpha)/2, solved
    exactly for m m^T; the skew part only fixes the sign there.
    """
    R = np.asarray(R, dtype=float)
    v = unskew(R - R.T) / 2.0  # sin(alpha) * axis
    sin_a = float(np.linalg.norm(v))
    cos_a = float(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
    alpha = float(np.arctan2(sin_a, cos_a))
    if alpha < SMALL_ANGLE:
        # axis ill-defined; caller usually only needs alpha * axis ~ v
        return alpha, np.array([0.0, 0.0, 1.0]) if sin_a == 0.0 else v / sin_a
    if alpha > np.pi - NEAR_PI:
        s = (1.0 + cos_a) / 2.0
        outer = ((R + R.T) / 2.0 + np.eye(3)) / 2.0  # = m m^T + s (I - m m^T)
        outer = (outer - s * np.eye(3)) / (1.0 - s)
        j = int(np.argmax(np.diag(outer)))
        axis = outer[:, j] / np.sqrt(outer[j, j])
        if sin_a > 0.0 and float(axis @ v) < 0.0:
            axis = -axis
        elif sin_a == 0.0:
            # alpha = pi exactly: +-axis equivalent, pick a canonical sign
            k = int(np.argmax(np.abs(axis)))
            if axis[k] < 0.0:
                axis = -axis
        return alpha, axis
    return alpha, v / sin_a


def axis_angle_vector(R):
    """Rotation vector alpha * axis of a single rotation matrix."""
    alpha, axis = axis_angle(R)
    if alpha < SMALL_ANGLE:
        # first-order: the skew part itself, exact to O(alpha^3)
        return unskew(np.asarray(R, dtype=float) - np.asarray(R).T) / 2.0
    return alpha * axis
