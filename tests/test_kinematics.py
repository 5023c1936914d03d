import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crem import (
    ConfigState,
    EquilibriumConfig,
    RobotParams,
    UncertaintyParams,
    ValidationError,
    crem_pose,
    micro_trajectory,
)
from crem.kinematics import _tip_positions, segment_rotation
from conftest import arc_direction, assert_valid_pose, pose_arrays_3d, segment_pose

TH0 = np.pi / 2

THETAS = st.floats(0.05, np.pi - 0.05)
DELTAS = st.floats(-np.pi, np.pi, exclude_min=True)


def arc_oracle(L_x, theta_x, delta_x):
    """Tip position from the explicit arc construction.

    The bending plane makes angle delta with x_b.  In that plane the arc
    has radius rho = L_x / (pi/2 - theta_x), starts tangent to z_b, and
    subtends angle (pi/2 - theta_x).
    """
    ang = TH0 - theta_x
    rho = L_x / ang
    in_plane = np.array([rho * (1 - np.cos(ang)), rho * np.sin(ang)])
    return np.array(
        [np.cos(delta_x) * in_plane[0], -np.sin(delta_x) * in_plane[0], in_plane[1]]
    )


# ---------------------------------------------------------------------------
# single segment


def test_straight_segment():
    pose = segment_pose(44.3, TH0, 1.234)
    assert_allclose(pose.p, [0.0, 0.0, 44.3], atol=0)
    # cos(pi/2) = 6e-17 leaves the identity only to rounding
    assert_allclose(pose.R, np.eye(3), atol=1e-15)


def test_quarter_turn_segment():
    pose = segment_pose(44.3, 0.0, 0.0)
    assert_allclose(pose.p, [2 * 44.3 / np.pi, 0.0, 2 * 44.3 / np.pi], rtol=1e-12)


def test_bent_segment_matches_arc_geometry():
    for theta in np.radians([10, 30, 60, 120, 170]):
        for delta in np.radians([0, 40, -75, 180]):
            pose = segment_pose(44.3, theta, delta)
            assert_allclose(pose.p, arc_oracle(44.3, theta, delta), atol=1e-9)


@given(L_x=st.floats(0.0, 100.0), theta=THETAS, delta=DELTAS)
@settings(max_examples=150, deadline=None)
def test_segment_rotation_is_orthonormal(L_x, theta, delta):
    assert_valid_pose(segment_pose(L_x, theta, delta), tol=1e-12)


def test_series_window_continuity():
    # just inside and just outside the b_t series window the positions,
    # which use no series, match the arc construction: no seam
    for sign in (+1.0, -1.0):
        for off in (0.99e-4, 1.01e-4):
            theta = TH0 + sign * off
            pose = segment_pose(44.3, theta, 0.3)
            assert np.linalg.norm(pose.p - arc_oracle(44.3, theta, 0.3)) < 1e-9


def test_zero_length_segment():
    pose = segment_pose(0.0, 1.0, 0.5)
    assert_allclose(pose.p, 0.0, atol=0)
    assert_valid_pose(pose)


def test_negative_length_rejected():
    for L_x, theta_x, delta_x in ((-1.0, 1.0, 0.0), (np.nan, 1.0, 0.0), (np.inf, 1.0, 0.0),
                                  (1.0, np.nan, 0.0), (1.0, -np.inf, 0.0),
                                  (1.0, 1.0, np.nan), (1.0, 1.0, np.inf)):
        with pytest.raises(ValidationError):
            segment_pose(L_x, theta_x, delta_x)


def test_rotation_fixes_delta_axis():
    # the composed rotation leaves the bending-plane normal's projection
    # consistent: R = Rz(-d) Ry(pi/2 - t) Rz(d)
    theta, delta = 0.9, 0.7
    R = segment_rotation(theta, delta)
    ez = np.array([0.0, 0.0, 1.0])
    tip_dir = R @ ez
    # tip tangent lies in the bending plane spanned by (cos d, -sin d, 0) and z
    normal = np.array([np.sin(delta), np.cos(delta), 0.0])
    assert abs(tip_dir @ normal) < 1e-12


def test_arc_direction_matches_position():
    p = segment_pose(7.0, 0.8, -0.4).p
    assert_allclose(7.0 * arc_direction(0.8, -0.4), p, atol=1e-14)


# ---------------------------------------------------------------------------
# two-subsegment composition


@given(theta=st.floats(np.radians(15), np.radians(160)), fq=st.floats(0, 1),
       delta=DELTAS)
@settings(max_examples=100, deadline=None)
def test_subdivision_identity(bench, theta, fq, delta):
    # splitting a constant-curvature arc at any point reproduces the whole
    L, q_s = bench.L, bench.L * fq
    th_s = TH0 + (theta - TH0) * q_s / L
    th_eps = theta - th_s + TH0
    p = _tip_positions(bench, th_s, th_eps, delta, q_s)
    R = segment_rotation(EquilibriumConfig(th_s, th_eps).theta_prime, delta)
    whole = segment_pose(L, theta, delta)
    assert np.linalg.norm(p - whole.p) < 1e-9
    assert np.max(np.abs(R - whole.R)) < 1e-9


def test_crem_pose_straight(bench, k_zero):
    for q_s in (0.0, 10.0, 44.3):
        sp = crem_pose(bench, ConfigState(TH0, 0.8), q_s, k_zero)
        assert_allclose(sp.tip.p, [0.0, 0.0, 44.3], atol=1e-12)
        assert_allclose(sp.tip.R, np.eye(3), atol=1e-12)


def test_crem_pose_zero_wire_neutrality(k_zero):
    p = RobotParams(L=44.3, r=3.0, E_p=41000.0, E_i=41000.0, E_s=0.0,
                    I_p=0.0312, I_i=0.0312, I_s=0.0)
    ref = segment_pose(44.3, np.radians(30), 0.0)
    sp = crem_pose(p, ConfigState(np.radians(30), 0.0), 20.0, k_zero)
    assert np.linalg.norm(sp.tip.p - ref.p) < 1e-9


def test_crem_pose_composition_consistency(bench, k_cal):
    # the planar tip pose against the 3-D composition of the two arc frames
    # at the solved equilibrium
    psi = ConfigState(np.radians(40), 0.5)
    sp = crem_pose(bench, psi, 17.0, k_cal)
    phi = sp.equilibrium
    for got, ref in zip((sp.tip.p, sp.tip.R),
                        pose_arrays_3d(bench, phi.theta_s, phi.theta_eps, psi.delta, 17.0)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert_valid_pose(sp.tip, tol=1e-12)


def test_planarity_of_micro_trajectory(bench, k_cal):
    # fixed delta keeps all tip positions in the bending plane
    delta = np.radians(40)
    qs = np.linspace(0.0, 40.0, 50)
    pos, _, _ = micro_trajectory(bench, ConfigState(np.radians(30), delta), qs, k_cal)
    normal = np.array([np.sin(delta), np.cos(delta), 0.0])
    assert np.max(np.abs(pos @ normal)) < 1e-9


def test_crem_pose_validates_range(bench, k_zero):
    for q_s in (-0.1, bench.L + 0.1, np.nan):
        with pytest.raises(ValidationError, match="q_s"):
            crem_pose(bench, ConfigState(1.2, 0.0), q_s, k_zero)
    # the ConfigState rule, delta in (-pi, pi], holds in ConfigState and in the solve
    for delta in (np.nan, np.inf, 10.0, -np.pi):
        with pytest.raises(ValidationError, match="delta"):
            ConfigState(1.2, delta)
        with pytest.raises(ValidationError, match="delta"):
            crem_pose(bench, SimpleNamespace(theta=1.2, delta=delta), 10.0, k_zero)
    # each equilibrium angle is a finite real scalar (model._real); a string raised TypeError
    for angles, message in (((np.nan, 1.3), "theta_s must be finite, got nan"),
                            ((1.2, np.inf), "theta_eps must be finite, got inf"),
                            ((-np.inf, np.nan), "theta_s must be finite, got -inf"),
                            (("a", 1.0), "theta_s must be a real number, got 'a'")):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            EquilibriumConfig(*angles)


def test_micro_trajectory_shapes(bench, k_zero):
    qs = np.linspace(0.0, 40.0, 7)
    pos, th_s, th_p = micro_trajectory(bench, ConfigState(1.0, 0.0), qs, k_zero)
    assert pos.shape == (7, 3)
    assert th_s.shape == (7,)
    assert th_p.shape == (7,)
    # batch output agrees with scalar solves
    sp = crem_pose(bench, ConfigState(1.0, 0.0), qs[3], k_zero)
    assert_allclose(pos[3], sp.tip.p, atol=1e-12)
