"""Axis-angle maps of rotation matrices.

All functions broadcast over leading dimensions: a stack of matrices of
shape S + (3, 3) gives per-matrix results of shape S or S + (3,).
"""
from __future__ import annotations

import numpy as np

# Below this angle the skew part of R is the rotation vector to better than
# machine precision; above pi minus this the skew part is too small to give
# the axis reliably and the symmetric part is used instead.
SMALL_ANGLE = 1e-7
NEAR_PI = 1e-4


def unskew(m):
    """v of a cross-product matrix [v]^ with [v]^ w = v x w.

    The input may be only approximately antisymmetric.
    """
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def _axis_angle_parts(R):
    """(alpha, axis) as axis_angle documents them, plus the skew part v = sin(alpha) axis."""
    R = np.asarray(R, dtype=float)
    v = unskew(R - np.swapaxes(R, -1, -2)) / 2.0  # sin(alpha) * axis
    # |v| by matmul: the same rounding as np.linalg.norm of one vector
    sin_a = np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])
    cos_a = np.minimum(np.maximum((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0), 1.0)
    alpha = np.arctan2(sin_a, cos_a)
    axis = v / np.where(sin_a == 0.0, 1.0, sin_a)[..., None]
    axis[sin_a == 0.0] = (0.0, 0.0, 1.0)
    near = alpha > np.pi - NEAR_PI
    if near.any():
        s = ((1.0 + cos_a[near]) / 2.0)[:, None, None]
        outer = ((R[near] + np.swapaxes(R[near], -1, -2)) / 2.0 + np.eye(3)) / 2.0
        outer = (outer - s * np.eye(3)) / (1.0 - s)  # = m m^T
        diag = np.diagonal(outer, axis1=-2, axis2=-1)
        rows, j = np.arange(diag.shape[0]), np.argmax(diag, axis=-1)
        m = outer[rows, :, j] / np.sqrt(diag[rows, j])[:, None]
        largest = m[rows, np.argmax(np.abs(m), axis=-1)]
        flip = np.where(sin_a[near] > 0.0, np.sum(m * v[near], axis=-1) < 0.0, largest < 0.0)
        axis[near] = np.where(flip[:, None], -m, m)
    return alpha, axis, v


def axis_angle(R):
    """Rotation angles alpha, shape S, and unit axes, S + (3,), of R (S + (3, 3)).

    alpha in [0, pi] is recovered from atan2(|skew part|, trace), which
    stays accurate at both ends of the range.  Near alpha = pi the axis
    comes from the symmetric part (R + I)/2 = m m^T + s (I - m m^T),
    s = (1 + cos alpha)/2, solved exactly for m m^T; the skew part only
    fixes the sign there, and at alpha = pi exactly the largest component
    is made positive.  Without any skew part (the identity) the axis is +z.
    """
    alpha, axis, _ = _axis_angle_parts(R)
    return alpha, axis


def axis_angle_vector(R):
    """Rotation vectors alpha * axis (below SMALL_ANGLE the skew part, exact to O(alpha^3))."""
    alpha, axis, v = _axis_angle_parts(R)
    return np.where((alpha < SMALL_ANGLE)[..., None], v, alpha[..., None] * axis)
