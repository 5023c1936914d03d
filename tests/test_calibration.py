import dataclasses
import pickle
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import crem
from crem import (
    CalibrationConfig,
    ConfigState,
    Measurement,
    NoConvergence,
    SingularNormalEquations,
    UncertaintyParams,
    ValidationError,
    crem_pose,
    direction_reversals,
    generate_synthetic,
    identification_jacobian,
    micro_trajectory,
    nls_estimate,
    pose_error,
    split_at_turning_point,
    turning_point_index,
)
from crem import calibration, dataio
from crem.calibration import (
    PARAM_NAMES,
    _free_indices,
    _jacobian_factors,
    _normal_equations,
    _principal_direction,
    _residuals,
    _rmse_um,
    _stack,
    _weighted_cost,
)
from crem.kinematics import Pose
from crem.rotations import NEAR_PI

from conftest import NOT_REAL, jacobian_arrays, oracle_rotation

TH0 = np.pi / 2


def make_measurements(params, theta, delta, qs, k_true, sigma=0.0, rng=None,
                      with_R=False):
    rows = []
    for q_s in np.atleast_1d(qs):
        psi = ConfigState(theta, delta)
        pose = crem_pose(params, psi, float(q_s), k_true).tip
        x = pose.p.copy()
        if sigma > 0.0:
            x = x + sigma * rng.standard_normal(3)
        rows.append(Measurement(psi=psi, q_s=float(q_s), x_bar=x,
                                R_bar=pose.R.copy() if with_R else None))
    return rows


def residual_matrix(measurements, params, k):
    """(N, 6) residuals [x_bar - x; alpha_e m_e] of the measurements at k."""
    return _residuals(_stack(measurements, params), params, k)[0]


# ---------------------------------------------------------------------------
# residuals


def test_pose_error_zero_for_exact_match(bench, k_cal):
    pose = crem_pose(bench, ConfigState(1.0, 0.3), 12.0, k_cal).tip
    m = Measurement(psi=ConfigState(1.0, 0.3), q_s=12.0, x_bar=pose.p,
                    R_bar=pose.R)
    assert_allclose(pose_error(m, pose), 0.0, atol=1e-12)


def test_pose_error_z_rotation():
    modeled = Pose(p=np.zeros(3), R=np.eye(3))
    Rz = oracle_rotation(np.array([0.0, 0.0, 1.0]), 0.1)
    m = Measurement(psi=ConfigState(1.0, 0.0), q_s=1.0, x_bar=np.zeros(3),
                    R_bar=Rz)
    assert_allclose(pose_error(m, modeled), [0, 0, 0, 0, 0, 0.1], atol=1e-12)


def test_pose_error_position_part_is_measured_minus_modeled():
    modeled = Pose(p=np.array([1.0, 2.0, 3.0]), R=np.eye(3))
    m = Measurement(psi=ConfigState(1.0, 0.0), q_s=1.0,
                    x_bar=np.array([1.5, 2.0, 2.0]))
    c = pose_error(m, modeled)
    assert_allclose(c, [0.5, 0.0, -1.0, 0.0, 0.0, 0.0], atol=0)


@pytest.mark.parametrize("alpha", [1e-3, 0.4, 2.0, np.pi - 1e-6])
def test_pose_error_axis_angle_round_trip(alpha):
    rng = np.random.default_rng(7)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    modeled = Pose(p=np.zeros(3), R=np.eye(3))
    m = Measurement(psi=ConfigState(1.0, 0.0), q_s=1.0, x_bar=np.zeros(3),
                    R_bar=oracle_rotation(axis, alpha))
    c = pose_error(m, modeled)
    assert abs(np.linalg.norm(c[3:]) - alpha) < 1e-9
    assert np.max(np.abs(c[3:] - alpha * axis)) < 1e-4


def test_pose_error_is_continuous_at_tiny_rotation():
    # a 1e-8 rad error is reported as its rotation vector, continuous through zero
    axis = np.array([0.6, -0.48, 0.64])
    modeled = Pose(p=np.zeros(3), R=np.eye(3))
    m = Measurement(psi=ConfigState(1.0, 0.0), q_s=1.0, x_bar=np.zeros(3),
                    R_bar=oracle_rotation(axis, 1e-8))
    assert_allclose(pose_error(m, modeled)[3:], 1e-8 * axis, rtol=1e-12, atol=0)


def test_measurement_validation():
    psi = ConfigState(1.0, 0.0)
    no_component = "^obs_mask must observe at least one component$"
    shape = r"^obs_mask must have shape \(6,\)$"
    faults = [
        ({"x_bar": np.array([1.0, np.nan, 0.0])}, "^x_bar must be a finite 3-vector$"),
        ({"x_bar": np.array([np.inf, 0.0, 0.0])}, "^x_bar must be a finite 3-vector$"),
        ({"x_bar": np.array([0.0, 0.0, -np.inf])}, "^x_bar must be a finite 3-vector$"),
        ({"x_bar": np.zeros(2)}, "^x_bar must be a finite 3-vector$"),
        ({"x_bar": np.zeros((3, 1))}, "^x_bar must be a finite 3-vector$"),
        ({"x_bar": np.zeros((1, 3))}, "^x_bar must be a finite 3-vector$"),
        ({"obs_mask": np.zeros(6, dtype=bool)}, no_component),
        ({"obs_mask": [False] * 6}, no_component),
        ({"obs_mask": np.zeros(6, dtype=bool), "R_bar": np.eye(3)}, no_component),
        ({"obs_mask": np.ones(3, dtype=bool)}, shape),
        ({"obs_mask": [True, True, True]}, shape),
        # unchecked, a NaN depth is refused by the fit's solver start, which names the sample
        ({"q_s": np.nan}, "^q_s must be finite and >= 0, got nan$"),
        ({"q_s": np.inf}, "^q_s must be finite and >= 0, got inf$"),
        ({"q_s": -1.0}, "^q_s must be finite and >= 0, got -1.0$"),
        # unchecked, a tuple psi failed only in the fit, with AttributeError
        ({"psi": (1.0, 0.2)}, r"^psi must be of type ConfigState, got \(1\.0, 0\.2\)$"),
    ]
    # ConfigState's type rule, before the range check: without it an array raised numpy's
    # ambiguous-truth ValueError, and a bool or a 0-d array passed
    faults += [({"q_s": q_s}, f"^q_s must be a real number, got {re.escape(shown)}$")
               for q_s, shown in NOT_REAL]
    # unchecked, a NaN R_bar gives a NaN orientation residual and a (2, 2)
    # one fails in _stack
    faults += [({"R_bar": R_bar}, "^R_bar must be a finite 3x3 matrix$")
               for R_bar in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0]),
                             np.eye(2), np.eye(3).ravel())]
    for fault, message in faults:
        with pytest.raises(ValidationError, match=message):
            Measurement(**{"psi": psi, "q_s": 1.0, "x_bar": np.zeros(3), **fault})
    # a valid mask given as a plain list is stored as a boolean array
    m = Measurement(psi=psi, q_s=1.0, x_bar=np.zeros(3), obs_mask=[1, 1, 0, 0, 0, 0])
    assert m.obs_mask.dtype == bool
    assert m.obs_mask.tolist() == [True, True, False, False, False, False]


def test_measurement_takes_any_finite_R_bar(bench, k_cal):
    # R_bar is not held to be a rotation: tracker data may miss RobotConfig's 1e-9
    m = Measurement(psi=ConfigState(1.0, 0.3), q_s=15.0, x_bar=np.zeros(3),
                    R_bar=2.0 * np.ones((3, 3)))
    assert m.R_bar.tolist() == [[2.0] * 3] * 3
    assert np.isfinite(residual_matrix([m], bench, k_cal)).all()


@pytest.mark.parametrize("observed", [[3, 4, 5], [4]])
def test_measurement_rejects_orientation_observed_without_R_bar(observed):
    # the orientation residual is zero without R_bar, so its rows would only add
    # phantom degrees of freedom to the fit
    mask = np.array([True] * 3 + [False] * 3)
    mask[observed] = True
    with pytest.raises(ValidationError,
                       match=r"^obs_mask observes orientation components without R_bar$"):
        Measurement(psi=ConfigState(1.0, 0.0), q_s=1.0, x_bar=np.zeros(3), obs_mask=mask)


def test_measurement_record_contract():
    # one checked __init__ on a slotted frozen record: the fields, their order and repr stay,
    # replace checks again, no attribute can be set and pickling keeps every field
    psi = ConfigState(1.0, 0.3)
    m = Measurement(psi, 2.0, [1, 2, 3], np.eye(3), [1, 1, 1, 0, 0, 1])
    assert [f.name for f in dataclasses.fields(Measurement)] == [
        "psi", "q_s", "x_bar", "R_bar", "obs_mask"]
    assert repr(m) == (f"Measurement(psi={psi!r}, q_s=2.0, x_bar={m.x_bar!r}, "
                       f"R_bar={m.R_bar!r}, obs_mask={m.obs_mask!r})")
    assert repr(Measurement(psi, 2.0, np.zeros(3))).endswith(
        "R_bar=None, obs_mask=array([ True,  True,  True, False, False, False]))")
    moved = dataclasses.replace(m, q_s=3.0)
    assert moved.q_s == 3.0 and moved.psi is psi and moved.x_bar is m.x_bar
    with pytest.raises(ValidationError, match=r"^q_s must be finite and >= 0, got -1\.0$"):
        dataclasses.replace(m, q_s=-1.0)
    with pytest.raises(ValidationError, match=r"^q_s must be a real number, got '1'$"):
        dataclasses.replace(m, q_s="1")
    for name in ("q_s", "obs_mask"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, None)
    # another name is refused as a frozen dataclass without slots refuses it, not with the
    # TypeError of the generated __setattr__ on Python 3.11
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'other'$"):
        m.other = 1
    for name in ("other", "q_s"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(m, name)
    assert not hasattr(m, "__dict__") and m.q_s == 2.0
    back = pickle.loads(pickle.dumps(m))
    assert type(back) is Measurement and back.psi == psi and back.q_s == 2.0
    for name in ("x_bar", "R_bar", "obs_mask"):
        assert getattr(back, name).tobytes() == getattr(m, name).tobytes()
        assert getattr(back, name).dtype == getattr(m, name).dtype


def test_default_obs_masks_are_shared_and_read_only():
    psi = ConfigState(1.0, 0.0)
    a, b = (Measurement(psi=psi, q_s=1.0, x_bar=np.zeros(3)) for _ in range(2))
    c, d = (Measurement(psi=psi, q_s=1.0, x_bar=np.zeros(3), R_bar=np.eye(3))
            for _ in range(2))
    assert a.obs_mask is b.obs_mask and c.obs_mask is d.obs_mask
    assert a.obs_mask.dtype == bool and c.obs_mask.dtype == bool
    assert a.obs_mask.tolist() == [True, True, True, False, False, False]
    assert c.obs_mask.tolist() == [True] * 6
    for m in (a, c):
        with pytest.raises(ValueError, match="read-only"):
            m.obs_mask[0] = False
    assert a.obs_mask.tolist() == [True, True, True, False, False, False]
    assert c.obs_mask.tolist() == [True] * 6


def fit_bytes(result):
    """The bytes of every number a CalibrationResult reports."""
    trace = [(r.iteration, r.k.as_array().tobytes(), r.rmse_um, r.M_lambda)
             for r in result.trace]
    return (result.k_star.as_array().tobytes(), trace, result.converged, result.eta_final,
            result.eta_flagged, result.std_errors.tobytes(), result.correlation.tobytes())


@pytest.mark.parametrize("kind", ["noisy", "rot", "planar"])
def test_shared_default_masks_fit_bit_identically(bench, criterion_7_noisy, kind):
    # the reference: a fresh writable mask per measurement; sharing must not move a bit.  A
    # shared mask is one weight row broadcast to every measurement, and dof counts them all
    shared = criterion_7_noisy["noisy" if kind == "planar" else kind]
    if kind == "planar":  # load_dataset's mask of 2-D rows
        shared = [Measurement(psi=m.psi, q_s=m.q_s, x_bar=m.x_bar,
                              obs_mask=dataio._PLANAR_OBSERVED) for m in shared]
    fresh = [Measurement(psi=m.psi, q_s=m.q_s, x_bar=m.x_bar, R_bar=m.R_bar,
                         obs_mask=np.array(m.obs_mask)) for m in shared]
    assert all(m.obs_mask.flags.writeable for m in fresh)
    w, w_fresh = _stack(shared, bench).w, _stack(fresh, bench).w
    assert w.strides[0] == 0 != w_fresh.strides[0] and w.tobytes() == w_fresh.tobytes()
    assert np.count_nonzero(w) == len(shared) * np.count_nonzero(shared[0].obs_mask)
    a, b = (nls_estimate(ms, bench, CalibrationConfig(), UncertaintyParams.zero())
            for ms in (shared, fresh))
    assert a.converged and fit_bytes(a) == fit_bytes(b)


# ---------------------------------------------------------------------------
# objective


def test_aggregate_zero_residuals(bench):
    c = np.zeros((4, 6))
    w = _stack([_dummy_measurement() for _ in range(4)], bench).w
    _, M = _weighted_cost(c, w)
    assert M == 0.0


def _dummy_measurement():
    return Measurement(psi=ConfigState(1.0, 0.0), q_s=1.0, x_bar=np.zeros(3))


def test_aggregate_single_unit_residual():
    c = np.zeros((1, 6))
    c[0, 0] = 1.0
    _, M = _weighted_cost(c, np.ones((1, 6)))
    assert M == 0.5


def test_aggregate_two_configs_hand_computed():
    # W selects x and y only; M = (1/2N) sum of weighted squares
    c = np.zeros((2, 6))
    c[0, :3] = [1.0, 2.0, 100.0]
    c[1, :3] = [3.0, -1.0, -100.0]
    w = np.zeros((2, 6))
    w[:, :2] = 1.0
    Wc, M = _weighted_cost(c, w)
    assert_allclose(Wc, np.where(np.arange(6) < 2, c, 0.0), atol=0)
    assert_allclose(M, (1.0 + 4.0 + 9.0 + 1.0) / 4.0, rtol=1e-15)


def test_default_weight_blocks_masks_and_scales(bench):
    m_pos = _dummy_measurement()
    m_full = Measurement(psi=ConfigState(1.0, 0.0), q_s=1.0, x_bar=np.zeros(3),
                         R_bar=np.eye(3))
    m_part = Measurement(psi=ConfigState(1.0, 0.0), q_s=1.0, x_bar=np.zeros(3),
                         R_bar=np.eye(3), obs_mask=[1, 0, 1, 0, 1, 0])
    w = _stack([m_pos, m_full, m_part], bench).w
    assert_allclose(w[0], [1, 1, 1, 0, 0, 0], atol=0)
    assert_allclose(w[1], [1, 1, 1, 10, 10, 10], atol=0)
    assert_allclose(w[2], [1, 0, 1, 0, 10, 0], atol=0)


def test_position_rmse_respects_mask(bench):
    m = Measurement(psi=ConfigState(1.0, 0.0), q_s=1.0, x_bar=np.zeros(3),
                    obs_mask=np.array([True, True, False, False, False, False]))
    c = np.array([[3.0, 4.0, 1e6, 0.0, 0.0, 0.0]])
    assert_allclose(_rmse_um(c, _stack([m], bench).pos), 5000.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# identification Jacobian


def test_identification_jacobian_single_config_is_negated_tip_jacobian(bench, k_cal):
    from crem import assemble_motion_jacobians

    psi = ConfigState(np.radians(40), 0.2)
    ms = [Measurement(psi=psi, q_s=15.0,
                      x_bar=crem_pose(bench, psi, 15.0, k_cal).tip.p)]
    J = identification_jacobian(ms, bench, k_cal, free_params=PARAMS_ALL)
    js = assemble_motion_jacobians(bench, psi, 15.0, k_cal)
    assert_allclose(J, -js.J_k, atol=1e-12)


PARAMS_ALL = ("k_lambda0", "k_lambda_theta", "k_lambda_q")


def test_identification_jacobian_matches_residual_differences(bench, k_cal):
    # position rows against the position-only residual pipeline with a
    # tight step; rotation rows against full-pose measurements with a
    # larger step
    qs = np.array([5.0, 14.0, 23.0, 32.0])
    pos_rows = np.tile([True] * 3 + [False] * 3, len(qs))

    for with_R, h, rows in ((False, 1e-6, pos_rows), (True, 1e-3, ~pos_rows)):
        ms = make_measurements(bench, np.radians(30), 0.0, qs, k_cal,
                               with_R=with_R)
        J = identification_jacobian(ms, bench, k_cal, free_params=PARAMS_ALL)
        for j, name in enumerate(PARAMS_ALL):
            kv = k_cal.as_array()
            kp, km = kv.copy(), kv.copy()
            kp[j] += h
            km[j] -= h
            cp = residual_matrix(ms, bench, UncertaintyParams.from_array(kp))
            cm = residual_matrix(ms, bench, UncertaintyParams.from_array(km))
            fd = ((cp - cm) / (2.0 * h)).reshape(-1)
            assert np.max(np.abs(J[rows, j] - fd[rows])) < 1e-6, name


def test_identification_jacobian_nonzero_at_straight(bench, k_cal):
    # lambda bends even the nominally straight robot, so the straight
    # dataset still carries information about k
    ms = make_measurements(bench, TH0, 0.0, [10.0, 25.0], k_cal)
    J = identification_jacobian(ms, bench, k_cal, ("k_lambda0", "k_lambda_q"))
    assert np.max(np.abs(J)) > 1e-4


# ---------------------------------------------------------------------------
# estimator


def test_noiseless_recovery_and_monotone_descent(bench):
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    qs = np.linspace(0.0, 40.0, 60)
    ms = make_measurements(bench, np.radians(45), 0.0, qs, k_true)
    res = nls_estimate(ms, bench, CalibrationConfig(), UncertaintyParams.zero())
    assert res.converged
    assert abs(res.k_star.k_lambda0 - 0.2) / 0.2 < 0.01
    assert abs(res.k_star.k_lambda_q - 0.025) / 0.025 < 0.01
    assert res.trace[-1].rmse_um <= 0.01
    M_vals = [r.M_lambda for r in res.trace]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(M_vals, M_vals[1:]))


def test_init_at_truth_converges_immediately(bench):
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    ms = make_measurements(bench, np.radians(45), 0.0, np.linspace(2, 40, 20), k_true)
    res = nls_estimate(ms, bench, CalibrationConfig(), k_true)
    assert res.converged
    assert len(res.trace) == 2  # the initial record plus one iteration


@pytest.mark.parametrize("k0_true", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("kq_true", [0.005, 0.025, 0.05])
def test_estimator_consistency_grid(bench, k0_true, kq_true):
    k_true = UncertaintyParams(k0_true, 0.0, kq_true)
    qs = np.linspace(0.0, 40.0, 30)
    ms = make_measurements(bench, np.radians(45), 0.0, qs, k_true)
    res = nls_estimate(ms, bench, CalibrationConfig(), UncertaintyParams.zero())
    assert abs(res.k_star.k_lambda0 - k0_true) / k0_true < 0.01
    assert abs(res.k_star.k_lambda_q - kq_true) / kq_true < 0.01


def test_noise_robustness(bench):
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    sigma = 0.002  # mm, the tracker accuracy scale
    rng = np.random.default_rng(3)
    qs = np.linspace(0.0, 40.0, 120)
    ms = make_measurements(bench, np.radians(45), 0.0, qs, k_true,
                           sigma=sigma, rng=rng)
    res = nls_estimate(ms, bench, CalibrationConfig(), UncertaintyParams.zero())
    assert abs(res.k_star.k_lambda0 - 0.2) / 0.2 < 0.10
    assert abs(res.k_star.k_lambda_q - 0.025) / 0.025 < 0.10
    assert 1.0 <= res.trace[-1].rmse_um <= 4.0  # [sigma/2, 2 sigma] in um


def test_masked_components_cannot_influence_estimate(bench):
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    qs = np.linspace(1.0, 40.0, 25)
    clean = make_measurements(bench, np.radians(45), 0.0, qs, k_true)
    garbled = []
    for m in clean:
        x = m.x_bar.copy()
        x[2] = 1e6  # finite garbage in the masked z component
        garbled.append(Measurement(
            psi=m.psi, q_s=m.q_s, x_bar=x,
            obs_mask=np.array([True, True, False, False, False, False]),
        ))
    masked_clean = [
        Measurement(psi=m.psi, q_s=m.q_s, x_bar=m.x_bar,
                    obs_mask=np.array([True, True, False, False, False, False]))
        for m in clean
    ]
    cfg = CalibrationConfig()
    res_a = nls_estimate(masked_clean, bench, cfg, UncertaintyParams.zero())
    res_b = nls_estimate(garbled, bench, cfg, UncertaintyParams.zero())
    assert res_a.k_star.k_lambda0 == res_b.k_star.k_lambda0
    assert res_a.k_star.k_lambda_q == res_b.k_star.k_lambda_q


def test_identical_depths_are_rank_deficient(bench):
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    ms = make_measurements(bench, np.radians(45), 0.0, [15.0] * 10, k_true)
    with pytest.raises(ValidationError, match="k_lambda0, k_lambda_q are not identifiable: "
                                              "q_s is constant across the 10 weighted"):
        nls_estimate(ms, bench, CalibrationConfig(), UncertaintyParams.zero())


def test_constant_theta_is_named_before_the_first_iteration(bench):
    # every J_k,i lies along u_i = (1, theta_i, q_s_i): one theta cannot tell
    # k_lambda0 from k_lambda_theta, whatever the depths
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    ms = make_measurements(bench, np.radians(30), 0.0, np.linspace(0.0, 40.0, 20), k_true)
    for free in (PARAMS_ALL, ("k_lambda0", "k_lambda_theta")):
        cfg = CalibrationConfig(free_params=free)
        with pytest.raises(ValidationError, match=f"{', '.join(free)} are not identifiable: "
                                                  "theta is constant across the 20 weighted"):
            nls_estimate(ms, bench, cfg, UncertaintyParams.zero())
    for free in (("k_lambda_theta",), ("k_lambda_theta", "k_lambda_q")):
        cfg = CalibrationConfig(free_params=free)
        assert nls_estimate(ms, bench, cfg, UncertaintyParams.zero()).converged


def test_zero_depth_data_hit_the_condition_gate(bench):
    # (1, theta_i) has full rank, but at q_s = 0 no moment reaches the tip:
    # J_k = 0, and the condition gate refuses the normal equations
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    ms = [make_measurements(bench, theta, 0.0, [0.0], k_true)[0]
          for theta in np.radians([30, 45, 60])]
    cfg = CalibrationConfig(free_params=("k_lambda0", "k_lambda_theta"))
    with pytest.raises(SingularNormalEquations, match="at iteration 1"):
        nls_estimate(ms, bench, cfg, UncertaintyParams.zero())


def test_empty_dataset_rejected(bench):
    with pytest.raises(ValidationError):
        nls_estimate([], bench, CalibrationConfig(), UncertaintyParams.zero())


ENTRY = "^measurement 2 must be of type Measurement, got {}$"
SEQUENCE = "^measurements must be a sequence of Measurement, got {}$"


# (dataset of four good measurements ms, message): an entry that is not a Measurement raised
# AttributeError, and a generator or a lone Measurement TypeError (has no len())
@pytest.mark.parametrize("dataset, message", [
    *((lambda ms, bad=bad: ms[:2] + [bad] + ms[2:], ENTRY.format(re.escape(repr(bad))))
      for bad in (None, (1.0, 2.0), "abc", {"q_s": 1.0})),
    (lambda ms: (m for m in ms), SEQUENCE.format("<generator object .*>")),
    (lambda ms: ms[0], SEQUENCE.format(r"Measurement\(psi=ConfigState\(theta=1\.0, .*\)")),
], ids=["None", "tuple", "str", "dict", "generator", "Measurement"])
@pytest.mark.parametrize("call", [
    lambda d, p, k: nls_estimate(d, p, CalibrationConfig(), k),
    lambda d, p, k: identification_jacobian(d, p, k, PARAM_NAMES),
    lambda d, p, k: split_at_turning_point(d),
], ids=["nls_estimate", "identification_jacobian", "split_at_turning_point"])
def test_dataset_calls_take_measurement_sequences_only(bench, k_cal, call, dataset, message):
    ms = [Measurement(ConfigState(1.0, 0.2), q_s, np.zeros(3)) for q_s in (5.0, 10.0, 15.0, 20.0)]
    with pytest.raises(ValidationError, match=message):
        call(dataset(ms), bench, k_cal)


@pytest.fixture(scope="module")
def criterion_7_noisy(bench):
    """The criterion-7 noisy sweep (382 samples, 2 um, seed 11) and its
    96-sample subset with the true tip orientation observed."""
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    psi = ConfigState(np.radians(45), 0.0)
    qs = np.linspace(0.0, 40.0, 382)
    pos = generate_synthetic(bench, k_true, psi.theta, psi.delta, qs, 0.002, seed=11)
    noisy = [Measurement(psi=psi, q_s=q, x_bar=p) for q, p in zip(qs, pos)]
    rot = [Measurement(psi=m.psi, q_s=m.q_s, x_bar=m.x_bar,
                       R_bar=crem_pose(bench, m.psi, m.q_s, k_true).tip.R)
           for m in noisy[::4]]
    return {"noisy": noisy, "rot": rot}


@pytest.mark.parametrize("kind", ["noisy", "rot"])
def test_default_fit_ends_at_the_minimiser(bench, criterion_7_noisy, kind):
    ms = criterion_7_noisy[kind]
    res = nls_estimate(ms, bench, CalibrationConfig(), UncertaintyParams.zero())
    tight = nls_estimate(ms, bench, CalibrationConfig(beta_conv=1e-14),
                         UncertaintyParams.zero())
    idx = _free_indices(CalibrationConfig().free_params)
    off = (res.k_star.as_array() - tight.k_star.as_array())[idx] / tight.std_errors
    assert np.max(np.abs(off)) <= 0.01
    assert res.trace[-1].iteration <= 5


def test_fit_stops_where_no_step_length_is_left(bench, criterion_7_noisy, monkeypatch):
    # with no step length to try, no step is accepted: k stays at k0 and the fit stops
    monkeypatch.setattr(calibration, "_MAX_STEP_RETRIES", 0)
    k0 = UncertaintyParams.zero()
    res = nls_estimate(criterion_7_noisy["noisy"], bench, CalibrationConfig(), k0)
    assert [rec.k for rec in res.trace] == [k0, k0]
    assert res.k_star == k0


def test_fit_short_of_its_minimiser_raises_no_convergence(bench, criterion_7_noisy):
    # the default fit takes two iterations on this set
    with pytest.raises(NoConvergence, match="^identification not converged after 1 iterations"):
        nls_estimate(criterion_7_noisy["noisy"], bench, CalibrationConfig(max_iter=1),
                     UncertaintyParams.zero())


@pytest.mark.parametrize("seed", range(6))
def test_fit_stops_when_the_cost_change_is_float_noise(bench, seed):
    # at the minimiser of a small orientation set each full step moves the
    # cost within the 1e-12 no-increase band; a beta_conv below that band
    # must not leave the fit churning until NoConvergence at max_iter
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    ms = make_measurements(bench, np.radians(45), 0.0, np.linspace(0.0, 40.0, 12), k_true,
                           sigma=0.002, rng=np.random.default_rng(seed), with_R=True)
    cfg = CalibrationConfig(eta=1.0, beta_conv=1e-14, max_iter=50)
    res = nls_estimate(ms, bench, cfg, UncertaintyParams.zero())
    assert res.trace[-1].iteration <= 5


def test_std_errors_and_correlation_from_the_normal_equations(bench):
    # sigma^2 (J^T W J)^-1 rebuilt at k_star from identification_jacobian
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    rng = np.random.default_rng(5)
    ms = make_measurements(bench, np.radians(45), 0.0, np.linspace(0.0, 40.0, 40), k_true,
                           sigma=0.002, rng=rng)
    ms += make_measurements(bench, np.radians(60), 0.5, np.linspace(2.0, 38.0, 10), k_true,
                            sigma=0.002, rng=rng, with_R=True)
    cfg = CalibrationConfig(beta_conv=1e-14)
    res = nls_estimate(ms, bench, cfg, UncertaintyParams.zero())
    # W: 1 on observed positions, 10 on observed orientations, 0 elsewhere
    w = np.where([m.obs_mask for m in ms], np.repeat([1.0, 10.0], 3), 0.0)
    J = identification_jacobian(ms, bench, res.k_star, cfg.free_params).reshape(len(ms), 6, -1)
    JtWJ = np.einsum("nij,ni,nik->jk", J, w, J)
    c = residual_matrix(ms, bench, res.k_star)
    observed = 3 * 40 + 6 * 10
    sigma2 = float(np.einsum("ni,ni,ni->", c, w, c)) / (observed - 2)
    cov = sigma2 * np.linalg.inv(JtWJ)
    se = np.sqrt(np.diag(cov))
    assert_allclose(res.std_errors, se, rtol=1e-6)
    assert_allclose(res.correlation, cov / np.outer(se, se), rtol=1e-6)
    assert_allclose(np.diag(res.correlation), 1.0, rtol=1e-12)
    assert_allclose(res.correlation, res.correlation.T, atol=0)


def test_rank_one_normal_equations_with_general_weights(bench):
    # random positive weights on every component and observed orientations:
    # the rank-one sums equal the einsum over the identification_jacobian rows
    k_true = UncertaintyParams(0.2, 0.01, 0.025)
    rng = np.random.default_rng(7)
    ms = make_measurements(bench, np.radians(45), 0.3, np.linspace(0.0, 40.0, 20), k_true,
                           sigma=0.002, rng=rng)
    ms += make_measurements(bench, np.radians(70), -1.0, np.linspace(2.0, 38.0, 10), k_true,
                            sigma=0.002, rng=rng, with_R=True)
    w = rng.uniform(0.1, 10.0, (len(ms), 6))
    k = UncertaintyParams(0.15, 0.0, 0.02)
    data = _stack(ms, bench)
    c, solved = _residuals(data, bench, k)
    Wc, _ = _weighted_cost(c, w)
    col, krow = _jacobian_factors(bench, data.fit, *solved)
    for free in (PARAM_NAMES, ("k_lambda0", "k_lambda_q"), ("k_lambda_theta",)):
        idx = [PARAM_NAMES.index(name) for name in free]
        JtWJ, JtWc = _normal_equations(col, krow[:, idx], w, Wc)
        J = identification_jacobian(ms, bench, k, free).reshape(len(ms), 6, -1)
        for got, ref in ((JtWJ, np.einsum("nij,ni,nik->jk", J, w, J)),
                         (JtWc, np.einsum("nij,ni->j", J, Wc))):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_std_errors_are_nan_without_degrees_of_freedom(bench):
    # two x-only samples fix two free parameters exactly: no residual
    # degree of freedom is left to estimate the noise from
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    mask = np.array([True, False, False, False, False, False])
    ms = [Measurement(psi=m.psi, q_s=m.q_s, x_bar=m.x_bar, obs_mask=mask)
          for m in make_measurements(bench, np.radians(45), 0.0, [10.0, 30.0], k_true,
                                     sigma=0.002, rng=np.random.default_rng(0))]
    res = nls_estimate(ms, bench, CalibrationConfig(), UncertaintyParams.zero())
    assert np.all(np.isnan(res.std_errors))
    assert_allclose(np.diag(res.correlation), 1.0, rtol=1e-12)


@pytest.mark.parametrize("eta", [0.0, -0.1, 1.5])
def test_eta_validation(eta):
    with pytest.raises(ValidationError):
        CalibrationConfig(eta=eta)


@pytest.mark.parametrize("beta_conv", [0.0, -1e-3, np.nan])
def test_beta_conv_validation(beta_conv):
    with pytest.raises(ValidationError, match=f"^beta_conv must be positive, got {beta_conv}$"):
        CalibrationConfig(beta_conv=beta_conv)


@pytest.mark.parametrize("fields, message", [
    ({"beta_conv": np.inf}, "beta_conv must be positive, got inf"),
    *(({"eta": value}, f"eta must be a real number, got {shown}") for value, shown in NOT_REAL),
    *(({"beta_conv": value}, f"beta_conv must be a real number, got {shown}")
      for value, shown in NOT_REAL),
])
def test_calibration_config_refuses_what_no_fit_can_use(fields, message):
    # an infinite beta_conv stopped every fit after one step as converged, and an array eta
    # raised numpy's ambiguous-truth ValueError
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        CalibrationConfig(**fields)


@pytest.mark.parametrize("max_iter", [0, 2.5, np.nan, np.inf, True])
def test_max_iter_validation(max_iter):
    # a non-integral count would fail later in range()
    with pytest.raises(ValidationError, match="max_iter"):
        CalibrationConfig(max_iter=max_iter)


def test_integral_float_max_iter_is_stored_as_int():
    assert type(CalibrationConfig(max_iter=2.0).max_iter) is int


@pytest.mark.parametrize("field, value", [("eta", 3.0), ("beta_conv", 0.0),
                                          ("max_iter", 0.5), ("free_params", ("bogus",))])
def test_calibration_config_is_frozen(field, value):
    # a field set after the checks would reach the fit unchecked
    cfg = CalibrationConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, value)
    assert cfg == CalibrationConfig()


def test_calibration_config_holds_only_the_loop_settings():
    assert [f.name for f in dataclasses.fields(CalibrationConfig)] == [
        "eta", "beta_conv", "max_iter", "free_params"]


@pytest.mark.parametrize("setting", ["w_rot", "H", "weight_blocks"])
def test_removed_weight_settings_are_refused(setting):
    # the weights follow from the observation masks alone
    with pytest.raises(TypeError, match=setting):
        CalibrationConfig(**{setting: 1.0})


def test_free_params_are_stored_as_a_tuple():
    names = ["k_lambda0", "k_lambda_q"]
    cfg = CalibrationConfig(free_params=names)
    names.append("bogus")
    assert cfg.free_params == ("k_lambda0", "k_lambda_q")


@pytest.mark.parametrize("name", ["default_weight_blocks", "principal_direction"])
def test_test_only_names_left_the_package(name):
    assert not hasattr(crem, name)
    assert not hasattr(calibration, name)


def test_free_params_validation(bench, k_cal):
    ms = make_measurements(bench, np.radians(45), 0.0, [10.0, 20.0], k_cal)
    distinct = "free_params must be a nonempty set of distinct names"
    for free, message in ((("k_lambda0", "bogus"), "unknown free parameter 'bogus'"),
                          ((), distinct), (("k_lambda0", "k_lambda0"), distinct),
                          # a string is a sequence of one-letter names: refused as a whole
                          ("k_lambda0", "free_params must be a sequence of names, "
                                        "got the string 'k_lambda0'")):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            CalibrationConfig(free_params=free)
        # the identification Jacobian applies the same rule to its free_params
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            identification_jacobian(ms, bench, k_cal, free_params=free)


# ---------------------------------------------------------------------------
# turning-point utilities


@pytest.fixture(scope="module")
def hairpin():
    from crem import RobotParams

    params = RobotParams(L=44.3, r=3.0, E_p=41000.0, E_i=41000.0, E_s=41000.0,
                         I_p=0.0312, I_i=0.0312, I_s=0.0010)
    qs = np.linspace(0.0, 40.0, 200)
    pos, _, _ = micro_trajectory(params, ConfigState(np.radians(30), 0.0), qs,
                                 UncertaintyParams(0.2, 0.0, 0.025))
    return pos, qs


def test_principal_direction_of_a_line():
    t = np.linspace(0.0, 5.0, 40)
    d = np.array([2.0, -1.0, 2.0]) / 3.0
    e, _ = _principal_direction(np.outer(t, d))
    assert_allclose(np.abs(e @ d), 1.0, atol=1e-12)
    # oriented so the far end sits on the positive side
    assert e @ d > 0.0


def test_principal_direction_returns_the_progress_along_it():
    # ten random clouds: the sign of the raw eigh vector leaves some to flip, so both
    # orientation branches run
    rng = np.random.default_rng(0)
    flipped = []
    for _ in range(10):
        p = rng.normal(size=(10, 3))
        e, c = _principal_direction(p)
        assert_allclose(c, (p - p[0]) @ e, rtol=0.0, atol=1e-14)
        assert c[0] == 0.0 and c[np.argmax(np.abs(c))] > 0.0
        centred = p - p.mean(axis=0)
        raw = np.linalg.eigh(centred.T @ centred)[1][:, -1]
        assert_allclose(np.abs(e @ raw), 1.0, rtol=0.0, atol=1e-14)
        flipped.append(e @ raw < 0.0)
    assert any(flipped) and not all(flipped)


def svd_direction(p):
    """_principal_direction by the leading right singular vector of the centred positions."""
    e = np.linalg.svd(p - p.mean(axis=0), full_matrices=False)[2][0]
    c = (p - p[0]) @ e
    return (-e, -c) if c[np.argmax(np.abs(c))] < 0.0 else (e, c)


def loop_reversals(p, e):
    """direction_reversals along e, a zero step carrying the sign before it by a loop."""
    sgn = np.sign(np.diff(p, axis=0) @ e)
    for i in range(1, sgn.size):
        if sgn[i] == 0.0:
            sgn[i] = sgn[i - 1]
    return np.nonzero(sgn[1:] * sgn[:-1] < 0.0)[0] + 1


def test_turning_point_agrees_with_an_svd_reference(bench, monkeypatch):
    # seeded sweeps, clean and noisy, of 3 to 20,000 samples: the scatter's eigenvector
    # finds the same turning sample and the same reversals as the tall SVD
    rng = np.random.default_rng(30)
    lengths = [3, 4, 5, 20_000, *np.geomspace(3, 20_000, 120).astype(int)]
    for i, n in enumerate(lengths):
        psi = ConfigState(rng.uniform(0.3, TH0) if i % 8 else TH0, rng.uniform(-np.pi, np.pi))
        k = UncertaintyParams(rng.uniform(-0.5, 0.5), 0.0, rng.uniform(-0.05, 0.05))
        pos, _, _ = micro_trajectory(bench, psi, np.linspace(0.0, bench.L, n), k)
        for p in (pos, pos + 0.002 * rng.standard_normal(pos.shape)):
            got = turning_point_index(p), direction_reversals(p)
            with monkeypatch.context() as patch:
                patch.setattr(calibration, "_principal_direction", svd_direction)
                assert got[0] == turning_point_index(p)
            assert np.array_equal(got[1], loop_reversals(p, svd_direction(p)[0]))


def test_reversals_carry_the_sign_over_zero_steps():
    # a path along x with repeated samples: leading, interior and trailing zero steps
    x = np.array([0, 0, 0, 1, 2, 2, 2, 1, 1, 0, 0, 1, 3, 3], dtype=float)
    p = np.column_stack([x, 0.0 * x, 0.0 * x])
    e, _ = _principal_direction(p)
    expected = loop_reversals(p, e)
    assert np.array_equal(expected, [6, 10])
    assert np.array_equal(direction_reversals(p), expected)
    # only zero steps before the first move, and a path that never moves
    assert np.array_equal(direction_reversals(p[:5]), [])
    assert direction_reversals(np.zeros((6, 3))).size == 0


def test_reversals_sit_at_sign_changes_of_the_micro_jacobian(bench):
    # on clean sweeps the progress rate along e, d c / d q_s = J_mu[:3] . e, changes sign
    # within one sample of each reversal of the sampled path, and as often: the analytic
    # micro Jacobian and the sample-based detector find the same turns, with no finite
    # differences
    rng = np.random.default_rng(11)
    q_s = np.linspace(0.0, bench.L, 400)
    turned = 0
    for _ in range(300):
        theta, delta = np.radians(rng.uniform(15.0, 89.0)), np.radians(rng.uniform(-90.0, 90.0))
        k = UncertaintyParams(rng.uniform(-0.5, 0.5), 0.0, rng.uniform(-0.05, 0.05))
        pos, _, _ = micro_trajectory(bench, ConfigState(theta, delta), q_s, k)
        e, _ = _principal_direction(pos)
        rate = np.sign(jacobian_arrays(bench, theta, delta, q_s, k).J_mu[:, :3] @ e)
        # a change at j lies between samples j and j + 1; a reversal at i between the steps
        # into and out of sample i
        changes = np.flatnonzero(rate[1:] * rate[:-1] < 0.0)
        reversals = direction_reversals(pos)
        assert reversals.size == changes.size
        assert all(np.min(np.abs(changes - i)) <= 1 for i in reversals)
        turned += reversals.size > 0
    assert turned > 100  # about half the sweeps turn


def test_clean_hairpin_has_one_reversal(hairpin):
    pos, qs = hairpin
    rev = direction_reversals(pos)
    assert rev.size == 1
    # the vertex sits beside the horizontal excursion peak; the return leg
    # overshoots the start, so the global |progress| peak is the end sample
    assert abs(int(rev[0]) - int(np.argmin(pos[:, 0]))) <= 5


def test_clean_monotone_path_has_no_reversal(bench, k_zero):
    qs = np.linspace(0.0, 40.0, 100)
    pos, _, _ = micro_trajectory(bench, ConfigState(np.radians(30), 0.0), qs, k_zero)
    assert direction_reversals(pos).size == 0


def test_turning_point_on_clean_and_noisy_data(hairpin):
    pos, qs = hairpin
    i_clean = turning_point_index(pos)
    assert i_clean is not None
    rev = direction_reversals(pos)
    assert abs(i_clean - int(rev[0])) <= 2

    rng = np.random.default_rng(5)
    for _ in range(5):
        noisy = pos + 0.002 * rng.standard_normal(pos.shape)
        i = turning_point_index(noisy)
        assert i is not None
        assert abs(i - i_clean) < 30


def test_turning_point_none_on_monotone_noisy_data(bench, k_zero):
    qs = np.linspace(0.0, 40.0, 200)
    pos, _, _ = micro_trajectory(bench, ConfigState(np.radians(30), 0.0), qs, k_zero)
    rng = np.random.default_rng(6)
    for _ in range(5):
        noisy = pos + 0.002 * rng.standard_normal(pos.shape)
        assert turning_point_index(noisy) is None


@pytest.mark.parametrize("shape", [(20,), (20, 4), (20, 3, 1), (3, 20), ()])
def test_turning_point_utilities_refuse_positions_that_are_not_n_by_3(shape):
    message = f"^{re.escape(f'positions must have shape (N, 3), got {shape}')}$"
    for find in (turning_point_index, direction_reversals):
        with pytest.raises(ValidationError, match=message):
            find(np.zeros(shape))


@pytest.mark.parametrize("positions", ["x", [["1", "2", "3"]] * 4, np.ones((4, 3), dtype=bool),
                                       [[0.0, 0.0, 0.0], [1.0, 2.0]], None])
def test_turning_point_utilities_refuse_positions_that_are_not_real_numbers(positions):
    # unchecked, a string failed with numpy's ValueError, and strings of digits, bools and
    # None were taken as floats
    message = f"^{re.escape(f'positions must hold real numbers, got {positions!r}')}$"
    for find in (turning_point_index, direction_reversals):
        with pytest.raises(ValidationError, match=message):
            find(positions)


@pytest.mark.parametrize("n, row, value", [(10, 4, np.nan), (10, 0, np.inf), (10, 9, -np.inf),
                                           (2, 1, np.nan)])
def test_turning_point_utilities_name_the_first_non_finite_sample(hairpin, n, row, value):
    # numpy's LinAlgError ("Eigenvalues did not converge") came out of the scatter before
    p = hairpin[0][:n].copy()
    p[row, 1] = value
    p[-1, 2] = np.nan  # the last sample is bad too: the first bad one is named
    bad = p[row].tolist()
    message = f"^{re.escape(f'sample {row}: position must be finite, got {bad}')}$"
    for find in (turning_point_index, direction_reversals):
        with pytest.raises(ValidationError, match=message):
            find(p)


def test_turning_point_degenerate_inputs():
    assert turning_point_index(np.zeros((5, 3))) is None
    assert turning_point_index(np.zeros((2, 3))) is None
    assert direction_reversals(np.zeros((2, 3))).size == 0


def test_split_at_turning_point(bench, hairpin):
    pos, qs = hairpin
    k = UncertaintyParams(0.2, 0.0, 0.025)
    ms = [Measurement(psi=ConfigState(np.radians(30), 0.0), q_s=float(q),
                      x_bar=p)
          for q, p in zip(qs, pos)]
    pre, post = split_at_turning_point(ms)
    assert len(pre) + len(post) == len(ms)
    assert 0 < len(pre) < len(ms)
    i = turning_point_index(pos)
    assert len(pre) == i + 1  # the turning sample itself stays in the head

    mono = ms[: i // 2]
    pre2, post2 = split_at_turning_point(mono)
    assert len(pre2) == len(mono) and post2 == []
    assert split_at_turning_point([]) == ([], [])


# ---------------------------------------------------------------------------
# batched residuals, one solve per evaluated k


def test_batched_residuals_equal_per_sample_pose_error(bench, k_cal):
    # R_bar absent and present, a partial mask, and orientation errors past
    # the near-pi switch and of 1e-8 rad
    rng = np.random.default_rng(11)
    axis = np.array([0.6, -0.48, 0.64])
    part = np.array([True, True, False, True, False, True])
    rows = [
        (np.radians(40), 0.3, 12.0, None, None),
        (np.radians(70), -1.1, 30.0, 0.3, None),
        (np.radians(25), 2.0, 21.0, np.pi - 0.1 * NEAR_PI, None),
        (TH0, 0.0, 5.0, 1e-8, None),
        (np.radians(55), -0.4, 40.0, 1.2, part),
        (np.radians(35), 1.0, 0.0, None, part[:3].tolist() + [False] * 3),
    ]
    ms = []
    for theta, delta, q_s, alpha, mask in rows:
        psi = ConfigState(theta, delta)
        tip = crem_pose(bench, psi, q_s, k_cal).tip
        R_bar = None if alpha is None else oracle_rotation(axis, alpha) @ tip.R
        ms.append(Measurement(psi=psi, q_s=q_s, x_bar=tip.p + 0.01 * rng.standard_normal(3),
                              R_bar=R_bar, obs_mask=mask))
    c = residual_matrix(ms, bench, k_cal)
    ref = np.stack([pose_error(m, crem_pose(bench, m.psi, m.q_s, k_cal).tip) for m in ms])
    assert np.max(np.abs(c - ref)) <= 1e-12
    assert np.linalg.norm(c[2, 3:]) > np.pi - NEAR_PI
    assert_allclose(c[3, 3:], 1e-8 * axis, rtol=1e-6, atol=0)


def test_one_equilibrium_solve_per_evaluated_k(bench, monkeypatch):
    # one solver start and one empty arc per fit; one Newton solve and one theta_s arc per
    # evaluated k, which the next Jacobian reuses
    import crem.calibration
    import crem.differential
    import crem.kinematics
    import crem.model

    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    rng = np.random.default_rng(3)
    ms = make_measurements(bench, np.radians(45), 0.0, np.linspace(0.0, 40.0, 24), k_true,
                           sigma=0.002, rng=rng)
    ms += make_measurements(bench, np.radians(60), 0.5, np.linspace(2.0, 38.0, 8), k_true,
                            with_R=True)
    calls = {"_solver_start": [], "_newton": [], "_arc": []}

    def counting(module, name):
        function = getattr(module, name)

        def count(*args, **kwargs):
            calls[name].append(1)
            return function(*args, **kwargs)
        return count

    def forbidden(*args, **kwargs):
        raise AssertionError("equilibrium solved outside the residual evaluation")

    normal_equations = crem.calibration._normal_equations

    def overshooting(*args):
        # four times the Gauss-Newton step: some candidates are rejected and eta halves
        JtW, JtWc = normal_equations(*args)
        return JtW, 4.0 * JtWc

    # the fit forms its empty arc in calibration, and kinematics._chain each theta_s arc
    for module, name in ((crem.calibration, "_solver_start"), (crem.calibration, "_newton"),
                         (crem.calibration, "_arc"), (crem.kinematics, "_arc")):
        monkeypatch.setattr(module, name, counting(module, name))
    monkeypatch.setattr(crem.calibration, "_normal_equations", overshooting)
    for module in (crem.differential, crem.kinematics, crem.model):
        monkeypatch.setattr(module, "_newton", forbidden)
    cfg = CalibrationConfig(eta=1.0)
    res = nls_estimate(ms, bench, cfg, UncertaintyParams.zero())
    rejected = int(round(np.log2(cfg.eta / res.eta_final)))
    assert res.converged and rejected > 0
    # the start, every accepted step and every rejected candidate
    evaluations = len(res.trace) + rejected
    assert ({name: len(c) for name, c in calls.items()}
            == {"_solver_start": 1, "_newton": evaluations, "_arc": 1 + evaluations})


def test_depth_beyond_L_is_refused_before_any_step(bench, monkeypatch):
    # Measurement checks only q_s >= 0: the solver start of the fit refuses q_s > L, once,
    # naming the sample, before any Newton step
    import crem.calibration

    def forbidden(*args, **kwargs):
        raise AssertionError("Newton step taken")

    monkeypatch.setattr(crem.calibration, "_newton", forbidden)
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    ms = make_measurements(bench, np.radians(45), 0.0, np.linspace(0.0, 40.0, 6), k_true)
    ms[3] = Measurement(psi=ms[3].psi, q_s=bench.L + 1.0, x_bar=ms[3].x_bar)
    message = (r"^sample 3: \(theta, delta, q_s\) = \(0\.785398, 0, 45\.3\) "
               r"outside \(0, pi\) x \(-pi, pi\] x \[0, L\]$")
    with pytest.raises(ValidationError, match=message):
        nls_estimate(ms, bench, CalibrationConfig(), UncertaintyParams.zero())
    with pytest.raises(ValidationError, match=message):
        identification_jacobian(ms, bench, k_true, PARAM_NAMES)


def test_rank_one_jacobian_forms_no_full_jacobian(bench, monkeypatch):
    # J_k comes from the theta_s column and d theta_s / d k alone: neither
    # consumer forms the full sensitivity and twist blocks
    import crem.calibration
    import crem.differential

    def forbidden(*args, **kwargs):
        raise AssertionError("full Jacobian formed for J_k")

    for name in ("_phi_gradient_arrays", "_xi_jacobian_arrays", "_jacobian_arrays"):
        monkeypatch.setattr(crem.differential, name, forbidden)
    monkeypatch.setattr(crem.calibration, "_jacobian_arrays", forbidden, raising=False)
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    ms = make_measurements(bench, np.radians(45), 0.0, np.linspace(0.0, 40.0, 24), k_true,
                           sigma=0.002, rng=np.random.default_rng(3))
    ms += make_measurements(bench, np.radians(60), 0.5, np.linspace(2.0, 38.0, 8), k_true,
                            with_R=True)
    assert identification_jacobian(ms, bench, k_true, PARAM_NAMES).shape == (6 * len(ms), 3)
    res = nls_estimate(ms, bench, CalibrationConfig(), UncertaintyParams.zero())
    assert res.converged and np.all(np.isfinite(res.std_errors))


# ---------------------------------------------------------------------------
# a set whose measurements share one psi or one obs_mask object (_commands, _stack)


@pytest.mark.parametrize("theta, delta", [(1, 0.3), (np.float32(0.9), 0.3), (1.2, -0.0)],
                         ids=["int-theta", "float32-theta", "delta=-0.0"])
def test_a_shared_psi_gives_the_bits_of_distinct_equal_ones(bench, theta, delta):
    k_true = UncertaintyParams(0.2, 0.0, 0.025)
    psi = ConfigState(theta, delta)
    qs = np.linspace(0.0, 40.0, 30)
    x = make_measurements(bench, float(theta), delta, qs, k_true, sigma=0.002,
                          rng=np.random.default_rng(31), with_R=True)
    # every fifth measurement observes its orientation
    shared = [Measurement(psi=psi, q_s=m.q_s, x_bar=m.x_bar, R_bar=m.R_bar if i % 5 else None)
              for i, m in enumerate(x)]
    distinct = [Measurement(psi=ConfigState(theta, delta), q_s=m.q_s, x_bar=m.x_bar,
                            R_bar=m.R_bar) for m in shared]

    # the shared psi gives one value, distinct ones an array of it
    one = calibration._commands(shared)
    for a, b in zip(one[:2], calibration._commands(distinct)[:2]):
        assert type(a) is np.float64 and np.full(len(x), a).tobytes() == b.tobytes()
    assert np.signbit(one[1]) == np.signbit(delta)
    k = UncertaintyParams(0.1, 0.01, 0.02)
    assert (identification_jacobian(shared, bench, k, PARAM_NAMES).tobytes()
            == identification_jacobian(distinct, bench, k, PARAM_NAMES).tobytes())
    c = residual_matrix(shared, bench, k)
    assert np.count_nonzero(c[1, 3:]) and c.tobytes() == residual_matrix(distinct, bench,
                                                                           k).tobytes()
    fits = [nls_estimate(ms, bench, CalibrationConfig(), UncertaintyParams.zero())
            for ms in (shared, distinct)]
    assert fits[0].converged and fit_bytes(fits[0]) == fit_bytes(fits[1])


def test_shared_psis_of_both_zero_deltas_stay_on_the_array_path(bench, k_cal):
    # two objects that compare equal, one at delta = 0.0 and one at -0.0: each sample keeps
    # its own sign, as sin(delta) does
    plus, minus = ConfigState(0.9, 0.0), ConfigState(0.9, -0.0)
    ms = [Measurement(psi=psi, q_s=q, x_bar=np.zeros(3))
          for psi, q in zip((plus, plus, minus, minus, plus), (5.0, 10.0, 15.0, 20.0, 25.0))]
    theta, delta, _ = calibration._commands(ms)
    assert np.all(theta == 0.9)
    assert np.ndim(delta) == 1 and np.signbit(delta).tolist() == [False, False, True, True,
                                                                  False]
    J = identification_jacobian(ms, bench, k_cal, PARAM_NAMES)
    assert J[12:18].tobytes() == identification_jacobian(ms[2:3], bench, k_cal,
                                                         PARAM_NAMES).tobytes()
    _, one, _ = calibration._commands(ms[2:4])
    assert np.ndim(one) == 0 and np.signbit(one)
