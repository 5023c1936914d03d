"""The rotation-vector map of rotation matrices.

axis_angle_vector broadcasts over leading dimensions: a stack of matrices
of shape S + (3, 3) gives rotation vectors of shape S + (3,).
"""
from __future__ import annotations

import numpy as np

# above pi minus this angle the skew part is too small to give the axis
# reliably and the symmetric part is used instead
NEAR_PI = 1e-4


def axis_angle_vector(R):
    """Rotation vectors w = alpha * axis, S + (3,), of R, S + (3, 3).

    The skew part v = sin(alpha) axis of R gives w = v alpha / sin(alpha),
    with alpha in [0, pi] from atan2(|v|, (trace R - 1) / 2), which stays
    accurate at both ends of the range; the ratio is 1 where v = 0, so small
    rotations lose no digits and the identity gives w = 0 exactly.  Near
    alpha = pi the axis comes from the symmetric part (R + I)/2 = m m^T +
    s (I - m m^T), s = (1 + cos alpha)/2, solved exactly for m m^T; the skew
    part only fixes the sign there, and at alpha = pi exactly the largest
    component is made positive.  The input may be only approximately a
    rotation.
    """
    R = np.asarray(R, dtype=float)
    v = np.stack([R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0],
                  R[..., 1, 0] - R[..., 0, 1]], axis=-1) / 2.0
    # |v| by matmul: the same rounding as np.linalg.norm of one vector
    sin_a = np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])
    cos_a = np.minimum(np.maximum((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0), 1.0)
    alpha = np.arctan2(sin_a, cos_a)
    w = alpha[..., None] * (v / np.where(sin_a == 0.0, 1.0, sin_a)[..., None])
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
        w[near] = alpha[near][:, None] * np.where(flip[:, None], -m, m)
    return w
