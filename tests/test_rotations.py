import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crem.kinematics import segment_rotation
from crem.rotations import axis_angle_vector
from conftest import arc_rotation_3d, oracle_rotation

UNIT_AXES = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).map(np.array).filter(lambda v: np.linalg.norm(v) > 1e-3)


@pytest.mark.parametrize("angle", [0.0, 0.3, -1.2, np.pi / 2, 3.0])
def test_elementary_rotations_match_expm(angle):
    # the closed-form arc rotation at theta = angle against Rz(-delta)
    # Ry(pi/2 - theta) Rz(delta) composed of matrix exponentials
    for delta in (0.0, 0.7, -2.5, np.pi):
        assert_allclose(segment_rotation(angle, delta), arc_rotation_3d(angle, delta), atol=1e-14)


def axis_angle(R):
    """(alpha, axis) read off the rotation vector w: alpha = |w|, axis = w / |w|
    (zero where w is)."""
    w = axis_angle_vector(R)
    alpha = np.linalg.norm(w, axis=-1)
    return alpha, w / np.where(alpha == 0.0, 1.0, alpha)[..., None]


@given(axis=UNIT_AXES, alpha=st.floats(1e-6, np.pi - 1e-6))
@settings(max_examples=200, deadline=None)
def test_axis_angle_roundtrip(axis, alpha):
    axis = axis / np.linalg.norm(axis)
    R = oracle_rotation(axis, alpha)
    al, a = axis_angle(R)
    assert abs(al - alpha) < 1e-9
    assert np.linalg.norm(a - axis) < 1e-7 / max(alpha, 1e-7)


@pytest.mark.parametrize("alpha", [1e-9, 1e-8, 5e-8])
def test_small_angle_branch(alpha):
    R = oracle_rotation([0, 0, 1], alpha)
    al, a = axis_angle(R)
    # the skew part carries tiny angles with no loss of digits
    assert al <= alpha + 1e-15
    assert np.all(np.isfinite(a))


@pytest.mark.parametrize(
    "axis", [[0, 0, 1], [1, 0, 0], [0.6, -0.48, 0.64], [1, 1, 1]]
)
@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6])
def test_near_pi_extraction(axis, eps):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    alpha = np.pi - eps
    R = oracle_rotation(axis, alpha)
    al, a = axis_angle(R)
    assert abs(al - alpha) < 1e-6
    # near pi the axis sign is ambiguous; compare up to sign
    assert min(np.linalg.norm(a - axis), np.linalg.norm(a + axis)) < 1e-5


def test_axis_angle_vector_consistency():
    axis = np.array([0.0, 0.6, 0.8])
    R = oracle_rotation(axis, 0.7)
    assert_allclose(axis_angle_vector(R), 0.7 * axis, atol=1e-12)


def test_identity_rotation():
    assert np.all(axis_angle_vector(np.eye(3)) == 0.0)


ANGLES = st.one_of(st.floats(0.0, np.pi), st.sampled_from([0.0, 1e-9, np.pi - 1e-6, np.pi]))


@given(samples=st.lists(st.tuples(UNIT_AXES, ANGLES, st.booleans()), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_batched_axis_angle_equals_per_matrix(samples):
    Rs = []
    for axis, alpha, symmetric in samples:
        axis = axis / np.linalg.norm(axis)
        if alpha == np.pi and symmetric:
            # alpha = pi exactly with an exactly zero skew part
            Rs.append(2.0 * np.outer(axis, axis) - np.eye(3))
        else:
            Rs.append(oracle_rotation(axis, alpha))
    Rs = np.stack(Rs)
    alpha, axis = axis_angle(Rs)
    vec = axis_angle_vector(Rs)
    assert alpha.shape == (len(Rs),) and axis.shape == vec.shape == (len(Rs), 3)
    for i, R in enumerate(Rs):
        a, m = axis_angle(R)
        assert abs(alpha[i] - a) <= 1e-15
        assert_allclose(axis[i], m, rtol=0, atol=1e-15)
        assert_allclose(vec[i], axis_angle_vector(R), rtol=0, atol=1e-15)
