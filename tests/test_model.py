import dataclasses
import pickle
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crem import (
    CalibrationConfig,
    ConfigState,
    EquilibriumConfig,
    Measurement,
    NoConvergence,
    NonPhysicalLength,
    RobotParams,
    UncertaintyParams,
    ValidationError,
    assemble_motion_jacobians,
    crem_pose,
    fd_discrepancies,
    identification_jacobian,
    micro_trajectory,
    nls_estimate,
    uncertainty_lambda,
)
from crem import calibration, differential, kinematics, model
from crem.calibration import PARAM_NAMES
from crem.model import _arc_moment, _newton, _offsets, _solver_start
from conftest import (
    ANGLE_EDGES,
    CONFIG_DOMAIN,
    DOMAIN,
    DOMAIN_EDGES,
    NOT_REAL,
    backbone_lengths,
    clear_kept_values,
    equilibrium_moments,
    jacobian_arrays,
    oracle_equilibrium,
    outside,
    projected_offsets,
    solve_kappa,
)

TH0 = np.pi / 2


# ---------------------------------------------------------------------------
# parameter and state validation


@pytest.mark.parametrize(
    "field,value",
    [("L", 0.0), ("L", -1.0), ("r", 0.0), ("E_p", -5.0), ("I_i", 0.0),
     ("E_s", -1e-9), ("n", 2), ("n", 3.5), ("n", np.inf), ("n", np.nan),
     ("n", True)],
)
def test_invalid_params_rejected(bench, field, value):
    kwargs = {n: getattr(bench, n) for n in
              ("L", "r", "E_p", "E_i", "E_s", "I_p", "I_i", "I_s", "n")}
    kwargs[field] = value
    with pytest.raises(ValidationError):
        RobotParams(**kwargs)


@pytest.mark.parametrize("field,value", [("k_lambda0", np.nan), ("k_lambda_theta", np.inf),
                                         ("k_lambda_q", -np.inf)])
def test_invalid_uncertainty_params_rejected(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be finite, got {value}$"):
        UncertaintyParams(**{field: value})


# (k, message): from_array takes three real numbers (model._reals); two numbers raised
# IndexError, strings ValueError, and a fourth number was dropped
@pytest.mark.parametrize("k, message", [
    ([1.0, 2.0], "k must have shape (3,), got (2,)"),
    ([1.0, 2.0, 3.0, 4.0], "k must have shape (3,), got (4,)"),
    ([[1.0, 2.0, 3.0]], "k must have shape (3,), got (1, 3)"),
    (["a", "b", "c"], "k must hold real numbers, got ['a', 'b', 'c']"),
    (None, "k must hold real numbers, got None"),
    ([1.0, np.nan, 0.0], "k_lambda_theta must be finite, got nan"),
])
def test_uncertainty_params_from_array_takes_three_real_numbers(k, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        UncertaintyParams.from_array(k)


def test_uncertainty_params_from_array_holds_floats():
    k = UncertaintyParams.from_array(np.array([1, 2, 3]))
    assert k == UncertaintyParams(1.0, 2.0, 3.0)
    assert all(type(v) is float for v in dataclasses.astuple(k))


def test_integral_float_n_is_stored_as_int(bench, k_zero):
    kwargs = {n: getattr(bench, n) for n in
              ("L", "r", "E_p", "E_i", "E_s", "I_p", "I_i", "I_s")}
    p = RobotParams(**kwargs, n=3.0)
    assert type(p.n) is int and p.n == 3
    assert crem_pose(p, ConfigState(1.0, 0.3), 20.0, k_zero).equilibrium \
        == crem_pose(bench, ConfigState(1.0, 0.3), 20.0, k_zero).equilibrium


def test_wire_absent_params_allowed(bench):
    # E_s = I_s = 0 models the no-wire limit and must construct fine
    p = RobotParams(L=bench.L, r=bench.r, E_p=bench.E_p, E_i=bench.E_i,
                    E_s=0.0, I_p=bench.I_p, I_i=bench.I_i, I_s=0.0)
    assert p.EI_s == 0.0


def test_derived_properties(bench):
    assert_allclose(bench.beta, 2 * np.pi / 3)
    assert_allclose(bench.EI_p, 41000.0 * 0.0312)


@pytest.mark.parametrize("theta", [0.0, np.pi, -0.1, 3.2])
def test_config_state_rejects_out_of_range_theta(theta):
    with pytest.raises(ValidationError):
        ConfigState(theta, 0.0)


@pytest.mark.parametrize("theta,delta,_,inside", ANGLE_EDGES)
def test_config_state_applies_the_domain_rule(theta, delta, _, inside):
    # the angle rows of the domain table: ConfigState has no q_s
    if inside:
        assert ConfigState(theta, delta).delta == delta
    else:
        with pytest.raises(ValidationError,
                           match=outside("sample 0", (theta, delta), CONFIG_DOMAIN)):
            ConfigState(theta, delta)


# (theta, delta, message or None): the type rule of ConfigState, which runs before the
# domain rule; a real scalar is stored as given
CONFIG_TYPES = [
    (np.array([1.0, 1.2]), 0.3, "theta must be a real number, got array([1. , 1.2])"),
    (np.array(1.0), 0.3, "theta must be a real number, got array(1.)"),
    (True, 0.3, "theta must be a real number, got True"),
    ("1.0", 0.3, "theta must be a real number, got '1.0'"),
    (None, 0.3, "theta must be a real number, got None"),
    (1.0, np.array([0.3, 0.4]), "delta must be a real number, got array([0.3, 0.4])"),
    (1.0, np.array(0.3), "delta must be a real number, got array(0.3)"),
    (1.0, False, "delta must be a real number, got False"),
    (1.0, "0.3", "delta must be a real number, got '0.3'"),
    (1.0, None, "delta must be a real number, got None"),
    (1, 0, None),
    (1.0, -0.5, None),
    (np.float64(1.2), np.float64(0.3), None),
]


@pytest.mark.parametrize("theta,delta,message", CONFIG_TYPES)
def test_config_state_takes_real_scalars_only(theta, delta, message, monkeypatch):
    if message is None:
        psi = ConfigState(theta, delta)
        assert (type(psi.theta), psi.theta, type(psi.delta), psi.delta) \
            == (type(theta), theta, type(delta), delta)
        return

    def domain_checked(*args):
        raise AssertionError("domain checked before the type")

    monkeypatch.setattr(model, "_check_domain", domain_checked)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ConfigState(theta, delta)


@pytest.mark.parametrize("field", ["k_lambda0", "k_lambda_theta", "k_lambda_q"])
@pytest.mark.parametrize("value,shown", NOT_REAL)
def test_uncertainty_params_take_real_scalars_only(field, value, shown):
    # ConfigState's rule: without it an array raised TypeError, and a bool or a 0-d array
    # passed, a 0-d one to fail later in the kept chain's key
    with pytest.raises(ValidationError, match=f"^{field} must be a real number, got "
                                              f"{re.escape(shown)}$"):
        UncertaintyParams(**{field: value})


def test_uncertainty_params_store_real_scalars_as_given():
    k = UncertaintyParams(1, np.float64(0.5), -0.25)
    assert [(type(v), v) for v in (k.k_lambda0, k.k_lambda_theta, k.k_lambda_q)] \
        == [(int, 1), (np.float64, 0.5), (float, -0.25)]


@pytest.mark.parametrize("field", ["L", "r", "E_p", "E_i", "E_s", "I_p", "I_i", "I_s"])
@pytest.mark.parametrize("value,shown", NOT_REAL)
def test_robot_params_take_real_scalars_only(bench, field, value, shown):
    # without the rule L=True constructed, and a string or an array raised TypeError
    with pytest.raises(ValidationError, match=f"^{field} must be a real number, got "
                                              f"{re.escape(shown)}$"):
        dataclasses.replace(bench, **{field: value})


SCALAR_CALLS = [crem_pose, assemble_motion_jacobians, fd_discrepancies]
# (argument, value, message): the type rule of every scalar call (model._check_types); without
# it q_s went through float(), which took True and '3', and a tuple psi or k raised
# AttributeError
CALL_FAULTS = [
    *(("q_s", value, f"q_s must be a real number, got {shown}") for value, shown in NOT_REAL),
    ("q_s", "3", "q_s must be a real number, got '3'"),
    ("q_s", (1.0,), "q_s must be a real number, got (1.0,)"),
    ("params", (44.3, 3.0), "params must be of type RobotParams, got (44.3, 3.0)"),
    ("psi", (1.0, 0.3), "psi must be of type ConfigState, got (1.0, 0.3)"),
    ("k", (0.0, 0.0, 0.0), "k must be of type UncertaintyParams, got (0.0, 0.0, 0.0)"),
]


@pytest.mark.parametrize("call", SCALAR_CALLS, ids=lambda call: call.__name__)
@pytest.mark.parametrize("argument,value,message", CALL_FAULTS)
def test_scalar_calls_take_their_types_only(bench, k_cal, call, argument, value, message):
    args = {"params": bench, "psi": ConfigState(1.0, 0.3), "q_s": 15.0, "k": k_cal}
    args[argument] = value
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(**args)


@pytest.mark.parametrize("call", [micro_trajectory, identification_jacobian],
                         ids=lambda call: call.__name__)
@pytest.mark.parametrize("argument,value,message", CALL_FAULTS[-3:],
                         ids=[f[0] for f in CALL_FAULTS[-3:]])
def test_batch_calls_take_their_types_only(bench, k_cal, call, argument, value, message):
    # the rule of the scalar calls (model._check_types); a tuple psi or k raised AttributeError.
    # identification_jacobian's psi is each Measurement's, checked when it is made
    args = {"params": bench, "psi": ConfigState(1.0, 0.3), "k": k_cal}
    args[argument] = value
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        if call is micro_trajectory:
            micro_trajectory(args["params"], args["psi"], [5.0, 15.0], args["k"])
        else:
            ms = [Measurement(psi=args["psi"], q_s=q, x_bar=np.zeros(3)) for q in (5.0, 15.0)]
            identification_jacobian(ms, args["params"], args["k"], PARAM_NAMES)


# (argument, value, message): the fit's params and k0 by the same rule, and its config; each
# raised AttributeError
FIT_FAULTS = [
    CALL_FAULTS[-3],
    ("k0", (0.0, 0.0, 0.0), "k0 must be of type UncertaintyParams, got (0.0, 0.0, 0.0)"),
    ("config", {"free_params": ("k_lambda0",)},
     "config must be of type CalibrationConfig, got {'free_params': ('k_lambda0',)}"),
    ("config", None, "config must be of type CalibrationConfig, got None"),
]


@pytest.mark.parametrize("argument,value,message", FIT_FAULTS,
                         ids=[f"{f[0]}-{type(f[1]).__name__}" for f in FIT_FAULTS])
def test_nls_estimate_takes_its_types_only(bench, k_cal, argument, value, message):
    args = {"params": bench, "config": CalibrationConfig(), "k0": k_cal}
    args[argument] = value
    ms = [Measurement(psi=ConfigState(1.0, 0.3), q_s=q, x_bar=np.zeros(3)) for q in (5.0, 15.0)]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        nls_estimate(ms, **args)


@pytest.mark.parametrize("schedule,shown", [(["1", "2"], "['1', '2']"),
                                            (np.array(["1.5"]), "array(['1.5'], dtype='<U3')"),
                                            ([True, False], "[True, False]"),
                                            ([None], "[None]"),
                                            ([[1.0], [2.0, 3.0]], "[[1.0], [2.0, 3.0]]")])
def test_micro_trajectory_takes_real_depths_only(bench, k_cal, schedule, shown):
    # np.asarray(..., dtype=float) parsed the strings and took the bools
    psi = ConfigState(1.0, 0.3)
    with pytest.raises(ValidationError, match="^qs_schedule must hold real numbers, got "
                                              f"{re.escape(shown)}$"):
        micro_trajectory(bench, psi, schedule, k_cal)
    # integers are real numbers: the bits of their floats
    assert ([a.tobytes() for a in micro_trajectory(bench, psi, [5, 15], k_cal)]
            == [a.tobytes() for a in micro_trajectory(bench, psi, [5.0, 15.0], k_cal)])


@pytest.mark.parametrize("call", SCALAR_CALLS, ids=lambda call: call.__name__)
def test_scalar_calls_take_any_real_depth(bench, k_cal, call):
    psi = ConfigState(1.0, 0.3)
    assert [pickle.dumps(call(bench, psi, q_s, k_cal)) for q_s in (15, np.float64(15.0))] \
        == [pickle.dumps(call(bench, psi, 15.0, k_cal))] * 2


def test_equilibrium_config_angle_identity():
    phi = EquilibriumConfig(theta_s=1.2, theta_eps=1.4)
    assert_allclose(phi.theta_eps, phi.theta_prime + (np.pi / 2 - phi.theta_s), atol=0)


# ---------------------------------------------------------------------------
# geometry helpers


def arc(params, delta, length, bend):
    """(backbone lengths, stiffness) of an arc from the moment kernel at curvature
    bend / length: lengths length * x_i, stiffness M / bend, or dM/dkappa / length
    where straight."""
    x, M, M_k = _arc_moment(params, projected_offsets(params, delta), bend / length)
    return length * x, (M / bend if bend else M_k / length)


def stiffness_kernel(params, delta, q_s, theta, th_s, th_p):
    """(L_si, L_ei, k0, k1, k2) of the whole segment, the empty and the inserted arc."""
    _, k0 = arc(params, delta, params.L, theta - TH0)
    L_ei, k1 = arc(params, delta, params.L - q_s, th_p - th_s)
    L_si, k2 = arc(params, delta, q_s, th_s - TH0)
    return L_si, L_ei, k0, k1, k2


def test_projected_offsets_delta_zero(bench):
    assert_allclose(projected_offsets(bench, 0.0), [3.0, -1.5, -1.5], atol=1e-12)


def test_projected_offsets_delta_right_angle(bench):
    # r cos(pi/2 + (i-1) 2pi/3)
    expected = [0.0, -3 * np.sin(2 * np.pi / 3), 3 * np.sin(2 * np.pi / 3)]
    assert_allclose(projected_offsets(bench, np.pi / 2), expected, atol=1e-12)


def test_projected_offsets_sum_to_zero(bench):
    # symmetric arrangement: sum of cosines over the full circle vanishes
    for delta in np.linspace(-np.pi, np.pi, 17):
        assert abs(np.sum(projected_offsets(bench, delta))) < 1e-12


def test_backbone_lengths_straight(bench):
    assert_allclose(backbone_lengths(bench, TH0, 0.7), np.full(3, 44.3), atol=0)


def test_backbone_lengths_bent(bench):
    L = backbone_lengths(bench, np.radians(30), 0.0)
    assert_allclose(L[0], 44.3 + 3.0 * (np.radians(30) - TH0), atol=1e-12)
    assert_allclose(L[1], L[2], atol=1e-12)


def test_backbone_lengths_nonphysical(bench, k_zero):
    # a 3 mm pitch circle on a 1 mm segment: bent to theta = 0.2 the
    # backbone at sigma = 0 would need length 1 + 3 (0.2 - pi/2) < 0
    short = RobotParams(L=1.0, r=3.0, E_p=bench.E_p, E_i=bench.E_i, E_s=bench.E_s,
                        I_p=bench.I_p, I_i=bench.I_i, I_s=bench.I_s)
    psi = ConfigState(0.2, 0.0)
    with pytest.raises(NonPhysicalLength, match=r"^sample 0: \(theta, delta, q_s\) = "
                                                 r"\(0\.2, 0, 0\.5\): backbone length <= 0 "):
        crem_pose(short, psi, 0.5, k_zero)
    with pytest.raises(NonPhysicalLength):
        micro_trajectory(short, psi, np.linspace(0.0, 1.0, 5), k_zero)
    # the first sample at fault is named, with the least length of its own backbones
    message = (r"^sample 2: \(theta, delta, q_s\) = \(0\.2, 0, 0\.5\): "
               r"backbone length <= 0 \(min -3\.11239 mm\)$")
    with pytest.raises(NonPhysicalLength, match=message):
        solve_kappa(short, [1.5, 1.4, 0.2, 0.1], 0.0, 0.5, 0.0)


def test_subsegment_lengths_direct(bench):
    L_si, L_ei, *_ = stiffness_kernel(bench, 0.0, 20.0, 1.0, 1.2, 1.1)
    assert_allclose(L_si[0], 20.0 + 3.0 * (1.2 - TH0), atol=1e-12)
    assert_allclose(L_ei[0], 24.3 + 3.0 * (1.1 - 1.2), atol=1e-12)


def test_subsegment_lengths_sum_identity(bench):
    # the two partitions sum to the backbone length evaluated at theta_prime
    th_s, th_p = 1.3, 1.05
    L_si, L_ei, *_ = stiffness_kernel(bench, 0.4, 17.0, 1.0, th_s, th_p)
    D = projected_offsets(bench, 0.4)
    assert_allclose(L_si + L_ei, bench.L + D * (th_p - TH0), atol=1e-12)


def test_subsegment_lengths_boundaries(bench, k_cal):
    # the solved ends collapse the vanishing subsegment exactly: q_s = 0 leaves
    # theta_s = theta0, and q_s = L leaves theta_prime = theta_s
    D = projected_offsets(bench, 0.3)
    psi = ConfigState(1.0, 0.3)
    phi = crem_pose(bench, psi, 0.0, k_cal).equilibrium
    assert_allclose(0.0 + D * (phi.theta_s - TH0), 0.0, atol=0)
    phi = crem_pose(bench, psi, bench.L, k_cal).equilibrium
    assert_allclose(0.0 + D * (phi.theta_prime - phi.theta_s), 0.0, atol=0)


def test_uncertainty_lambda_values(k_cal):
    assert uncertainty_lambda(UncertaintyParams.zero(), 10.0, 1.0) == 0.0
    assert_allclose(uncertainty_lambda(k_cal, 10.0, 0.5), 0.45, atol=1e-15)
    assert_allclose(uncertainty_lambda(UncertaintyParams(1, 1, 1), 2.0, 3.0), 6.0)


K = UncertaintyParams(0.2, 0.0, 0.025)  # the k_cal fixture's value, for a parametrize table
# (k, q_s, theta, message): without the checks a tuple k raised AttributeError, a string
# ValueError, and a NaN or negative depth passed
UNCERTAINTY_LAMBDA_REFUSED = [
    ((1, 2, 3), 10.0, 0.5, "k must be of type UncertaintyParams, got (1, 2, 3)"),
    (None, 10.0, 0.5, "k must be of type UncertaintyParams, got None"),
    (K, "x", 0.5, "q_s must hold real numbers, got 'x'"),
    (K, 10.0, "x", "theta must hold real numbers, got 'x'"),
    (K, True, 0.5, "q_s must hold real numbers, got True"),
    (K, 10.0, None, "theta must hold real numbers, got None"),
    (K, [[1.0], [2.0, 3.0]], 0.5, "q_s must hold real numbers, got [[1.0], [2.0, 3.0]]"),
    (K, [1.0, 2.0, 3.0], [0.5, 0.6],
     "q_s and theta must broadcast against each other, got shapes (3,) and (2,)"),
    (K, np.nan, 0.5, "q_s must be finite and >= 0, got nan"),
    (K, -1.0, 0.5, "q_s must be finite and >= 0, got -1.0"),
    (K, np.inf, 0.5, "q_s must be finite and >= 0, got inf"),
    (K, 10.0, np.nan, "theta must be finite, got nan"),
    (K, 10.0, -np.inf, "theta must be finite, got -inf"),
    (K, [1.0, -2.0, np.nan], 0.5, "sample 1: q_s must be finite and >= 0, got -2.0"),
    (K, 1.0, np.array([0.5, 0.6, np.inf]), "sample 2: theta must be finite, got inf"),
]


@pytest.mark.parametrize("k,q_s,theta,message", UNCERTAINTY_LAMBDA_REFUSED)
def test_uncertainty_lambda_refuses_bad_arguments(k, q_s, theta, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        uncertainty_lambda(k, q_s, theta)


def test_uncertainty_lambda_is_its_kernel(k_cal):
    # the checks return the kernel's bits, which the solver's callers take unchecked;
    # integers, q_s = 0 and arrays that broadcast pass
    q_s, theta = np.array([0.0, 12.5, 44.3]), np.array([[0.3], [2.9]])
    for args in ((q_s, theta), (0, 1), (12.5, np.float64(0.7)), (q_s, 0.4)):
        got, want = uncertainty_lambda(k_cal, *args), model._lambda(k_cal, *args)
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("a", [1.25, -0.0, np.float64(-2.5), np.float64(np.nan), 3, True,
                               np.float32(0.1), np.array(0.7), [1.0, 2.0], np.arange(3),
                               np.array([[1.0], [2.0]])],
                         ids=["float", "neg-zero", "float64", "float64-nan", "int", "bool",
                              "float32", "0-d", "list", "int-array", "2-d"])
def test_float_is_the_array_conversion(a):
    # a float or an np.float64 skips the array round trip with the same type and bits
    got, want = model._float(a), np.asarray(a, dtype=float)[()]
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.float64 and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("n", [3, 5, 12])
def test_robot_params_form_their_constants_once(bench, n):
    # beta, the EI products and the backbone angles are kept on first read, bit for bit the
    # products; the record's fields, repr, ==, hash, replace and pickle do not see them
    params = dataclasses.replace(bench, n=n)
    fresh = dataclasses.replace(bench, n=n)
    before = (repr(params), hash(params), pickle.dumps(params))
    assert set(vars(params)) == {f.name for f in dataclasses.fields(RobotParams)}
    for name, want in (("beta", 2.0 * np.pi / n), ("EI_p", params.E_p * params.I_p),
                       ("EI_i", params.E_i * params.I_i), ("EI_s", params.E_s * params.I_s)):
        got = getattr(params, name)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
        assert getattr(params, name) is got
    angles = params._angles
    assert angles.tobytes() == (params.beta * np.arange(n)).tobytes()
    assert angles.shape == (n,) and not angles.flags.writeable and params._angles is angles
    assert [f.name for f in dataclasses.fields(params)] == [
        "L", "r", "E_p", "E_i", "E_s", "I_p", "I_i", "I_s", "n"]
    assert (repr(params), hash(params), pickle.dumps(params)) == before
    assert params == fresh and hash(params) == hash(fresh)
    back = pickle.loads(pickle.dumps(params))
    assert back == params and set(vars(back)) == set(vars(fresh))
    moved = dataclasses.replace(params, n=n + 1)
    assert moved._angles.shape == (n + 1,) and moved.beta == 2.0 * np.pi / (n + 1)


# ---------------------------------------------------------------------------
# stiffnesses


def test_stiffness_straight_values(bench):
    _, _, k0, k1, k2 = stiffness_kernel(bench, 0.0, 22.15, TH0, TH0, TH0)
    # all lengths equal L: k0 = E(I_p + 3 I_i)/L; each half is twice as stiff
    assert_allclose(k0, 4 * 41000.0 * 0.0312 / 44.3, rtol=1e-12)
    assert_allclose([k1, k2], [2 * k0, 2 * k0], rtol=1e-12)
    assert k0 == pytest.approx(115.52, rel=1e-3)


def test_stiffness_positive_interior(bench):
    for v in stiffness_kernel(bench, 0.3, 10.0, 1.0, 1.3, 1.1)[2:]:
        assert v > 0.0


# ---------------------------------------------------------------------------
# equilibrium solver


def test_straightness_preserved(bench, k_zero):
    psi = ConfigState(TH0, 0.3)
    for q_s in np.linspace(0.0, bench.L, 7):
        phi = crem_pose(bench, psi, q_s, k_zero).equilibrium
        assert phi.theta_s == TH0
        assert phi.theta_prime == TH0
        assert phi.theta_eps == TH0


def test_zero_wire_closed_form(bench, k_zero):
    p = RobotParams(L=bench.L, r=bench.r, E_p=bench.E_p, E_i=bench.E_i,
                    E_s=bench.E_s, I_p=bench.I_p, I_i=bench.I_i, I_s=0.0)
    for theta in np.radians([15, 45, 75]):
        for q_s in np.linspace(0.05, 0.95, 7) * p.L:
            phi = crem_pose(p, ConfigState(theta, 0.2), q_s, k_zero).equilibrium
            assert abs(phi.theta_prime - theta) < 1e-10
            assert abs(phi.theta_s - (TH0 + (theta - TH0) * q_s / p.L)) < 1e-10


def test_moment_residuals_at_convergence(bench, k_cal):
    psi = ConfigState(np.radians(40), 0.6)
    phi = crem_pose(bench, psi, 18.0, k_cal).equilibrium
    m1, m1p, m2, ms, lam = equilibrium_moments(bench, psi.theta, psi.delta, 18.0, k_cal,
                                               phi.theta_s, phi.theta_prime)
    scale = max(1.0, abs(m1))
    assert abs(m1 - m1p) < 1e-9 * scale
    assert abs(m1p + m2 + ms - lam) < 1e-9 * scale


def test_batched_solve_rejects_non_finite_sample(bench, k_cal):
    qs = np.linspace(0.0, 40.0, 6)
    qs[3] = np.nan
    with pytest.raises(ValidationError, match=r"sample 3: \(theta, delta, q_s\) = .*nan"):
        micro_trajectory(bench, ConfigState(np.radians(30), 0.0), qs, k_cal)
    with pytest.raises(ValidationError, match="sample 1"):
        solve_kappa(bench, [1.0, np.inf, np.nan], 0.0, 10.0, 0.45)


@pytest.mark.parametrize("theta,delta,q_s,inside", DOMAIN_EDGES)
def test_solver_applies_the_domain_rule(bench, theta, delta, q_s, inside):
    # each row of the domain table as the second sample of a batch
    args = (bench, [1.0, theta], [0.3, delta], [20.0, q_s], 0.45)
    if inside:
        assert np.all(np.isfinite(solve_kappa(*args)))
    else:
        with pytest.raises(ValidationError, match=outside("sample 1", (theta, delta, q_s),
                                                          DOMAIN)):
            solve_kappa(*args)


@pytest.mark.parametrize("bad", [3.5, -0.2, 0.0, np.pi])
def test_batched_solve_rejects_theta_outside_range(bench, bad):
    # the same rule ConfigState enforces on a single configuration
    pattern = r"sample 2: \(theta, delta, q_s\) = \(" + f"{bad:.6g}"
    with pytest.raises(ValidationError, match=pattern):
        solve_kappa(bench, [1.0, 0.5, bad, 1.2], 0.3, 10.0, 0.45)


def test_batched_solve_no_convergence_names_the_sample(bench, monkeypatch):
    # straight samples take a zero first step; the bent one cannot settle in one step
    theta = np.full(5, TH0)
    theta[3] = np.radians(40)
    monkeypatch.setattr(model, "_SOLVER_MAX_ITER", 1)
    pattern = (r"sample 3: \(theta, delta, q_s\) = \(0\.698132, 0\.2, 15\): "
               r".*not converged after 1 ")
    with pytest.raises(NoConvergence, match=pattern):
        solve_kappa(bench, theta, 0.2, 15.0, 0.0)


def test_batched_solve_no_convergence_counts_active_samples(bench, monkeypatch):
    # the straight samples freeze after their zero first step; the worst of
    # the two bent ones is named
    theta = np.full(5, TH0)
    theta[1], theta[3] = np.radians(60), np.radians(40)
    monkeypatch.setattr(model, "_SOLVER_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match=r"sample 3: .*; 2 of 5 samples still active"):
        solve_kappa(bench, theta, 0.2, 15.0, 0.0)


def test_overflowing_lambda_is_reported_not_halved_forever(bench):
    # finite coefficients whose lambda overflows give a non-finite Newton step;
    # it is not halved, and the sample is named once the steps run out
    k = UncertaintyParams(1e308, 0.0, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NoConvergence, match=r"sample 0: .*last step nan"):
            crem_pose(bench, ConfigState(1.0, 0.2), 15.0, k)


def test_solver_matches_bruteforce_oracle(bench, k_cal, k_zero):
    for k in (k_zero, k_cal):
        for theta in np.radians([20, 45, 70]):
            for q_s in (4.43, 22.15, 39.87):
                phi = crem_pose(bench, ConfigState(theta, 0.0), q_s, k).equilibrium
                ref_s, ref_p = oracle_equilibrium(bench, theta, 0.0, q_s, k)
                assert abs(phi.theta_s - ref_s) < 1e-9
                assert abs(phi.theta_prime - ref_p) < 1e-9


def test_robot_straightens_with_insertion(bench, k_zero):
    # wire stiffens the inserted portion, pulling theta_prime toward pi/2
    theta = np.radians(30)
    phi = crem_pose(bench, ConfigState(theta, 0.0), 20.0, k_zero).equilibrium
    assert theta < phi.theta_prime < TH0


def test_boundary_continuity_small_qs(bench, k_zero):
    theta = np.radians(35)
    psi = ConfigState(theta, 0.0)
    for exp in range(1, 7):
        q_s = 10.0 ** (-exp) * bench.L
        phi = crem_pose(bench, psi, q_s, k_zero).equilibrium
        assert abs(phi.theta_prime - theta) < 10.0 ** (-exp) * 2
        assert abs(phi.theta_s - TH0) < 10.0 ** (-exp) * 2
    phi = crem_pose(bench, psi, 0.0, k_zero).equilibrium
    assert phi.theta_s == TH0
    assert phi.theta_prime == theta


def test_full_insertion_limit(bench, k_zero):
    theta = np.radians(35)
    phi = crem_pose(bench, ConfigState(theta, 0.0), bench.L, k_zero).equilibrium
    assert np.isfinite(phi.theta_s) and np.isfinite(phi.theta_prime)
    # fully inserted: separation plane reaches the end disk
    assert abs(phi.theta_prime - phi.theta_s) < 1e-6


def test_delta_equivariance(bench, k_cal):
    # n = 3 symmetric arrangement: shifting delta by the separation angle
    # relabels backbones without changing the stiffness sums
    theta = np.radians(50)
    for delta in (0.0, 0.37, -1.1):
        a = crem_pose(bench, ConfigState(theta, delta), 15.0, k_cal).equilibrium
        b = crem_pose(
            bench, ConfigState(theta, delta + 2 * np.pi / 3), 15.0, k_cal
        ).equilibrium
        assert abs(a.theta_s - b.theta_s) < 1e-11
        assert abs(a.theta_prime - b.theta_prime) < 1e-11


@given(
    theta=st.floats(np.radians(15), np.radians(75)),
    delta=st.floats(-np.pi, np.pi, exclude_min=True),
    fq=st.floats(0.01, 0.99),
    k0=st.floats(-0.5, 0.5),
    kq=st.floats(-0.05, 0.05),
)
@settings(max_examples=60, deadline=None)
def test_moment_balance_property(bench, theta, delta, fq, k0, kq):
    k = UncertaintyParams(k0, 0.0, kq)
    psi = ConfigState(theta, delta)
    q_s = fq * bench.L
    phi = crem_pose(bench, psi, q_s, k).equilibrium
    m1, m1p, m2, ms, lam = equilibrium_moments(bench, theta, delta, q_s, k,
                                               phi.theta_s, phi.theta_prime)
    scale = max(1.0, abs(m1))
    assert abs(m1 - m1p) < 1e-9 * scale
    assert abs(m1p + m2 + ms - lam) < 1e-9 * scale


# ---------------------------------------------------------------------------
# the scalar curvature equation


@pytest.mark.parametrize("theta", [0.05, np.radians(35), 1.3, TH0 + 0.2, np.pi - 0.05])
@pytest.mark.parametrize("delta", [0.0, 0.9, -2.5])
def test_equilibrium_ends_are_exact(bench, k_cal, theta, delta):
    # q_s = 0 leaves the whole segment to the empty arc, q_s = L to the
    # inserted one, with no special case in the solver
    k = UncertaintyParams(0.3, -0.1, 0.02)
    for kk in (k_cal, k):
        phi = crem_pose(bench, ConfigState(theta, delta), 0.0, kk).equilibrium
        assert (phi.theta_s, phi.theta_prime) == (TH0, theta)
        phi = crem_pose(bench, ConfigState(theta, delta), bench.L, kk).equilibrium
        assert phi.theta_eps == TH0
        _, th_s, th_p = micro_trajectory(bench, ConfigState(theta, delta), [0.0, bench.L], kk)
        assert (th_s[0], th_p[0]) == (TH0, theta)
        assert jacobian_arrays(bench, theta, delta, [0.0, bench.L], kk).th_e[1] == TH0


def test_continuity_across_the_old_clamp(bench, k_cal):
    # an earlier solver snapped q_s < 1e-6 L to (theta0, theta): at theta = 45 deg
    # that jumped 7.8e-7 rad in theta_s and 1.7e-5 mm at the tip
    q_old = 1e-6 * bench.L
    qs = q_old + np.array([-1e-12, 0.0, 1e-12])
    for theta in np.radians([20, 45, 70]):
        pos, th_s, th_p = micro_trajectory(bench, ConfigState(theta, 0.4), qs, k_cal)
        assert np.max(np.abs(np.diff(th_s))) < 1e-13
        assert np.max(np.abs(np.diff(th_p))) < 1e-13
        assert np.max(np.abs(np.diff(pos, axis=0))) < 1e-12


def test_curvature_equation_increases_on_the_physical_interval(bench):
    # G(kappa) = M(kappa) + EI_s kappa - M(kappa0) + lambda: G' > 0 and G runs
    # from -inf to +inf between the curvatures at which a backbone vanishes
    robot = RobotParams(L=18.6, r=14.3, E_p=3521.0, E_i=8456.0, E_s=23902.0,
                        I_p=0.00117, I_i=0.0017, I_s=0.00115, n=3)
    for params in (bench, robot):
        for delta in (0.0, 0.4, 2.0):
            D = _offsets(params, delta, 0)[:, None]  # backbone-major (n, 1) against (N,) kappa
            lo, hi = -1.0 / np.max(D), -1.0 / np.min(D)
            kappa = lo + (hi - lo) * np.linspace(1e-9, 1.0 - 1e-9, 20001)
            x, M, M_k = _arc_moment(params, D, kappa)
            G = M + params.EI_s * kappa
            assert np.all(x > 0.0)
            assert np.all(M_k + params.EI_s > 0.0)
            assert np.all(np.diff(G) > 0.0)
            assert G[0] < -1e3 * params.EI_p and G[-1] > 1e3 * params.EI_p


# random robots on which a damped 2-D fixed-point solve raised NonPhysicalLength
# or NoConvergence, drawn with numpy.random.default_rng(11) in this order:
# L ~ U(10, 100), r ~ U(0.5, 15), (E_p, E_i, E_s) = 10**U(3.5, 5.5, 3),
# (I_p, I_i, I_s) = 10**U(-3, 0, 3), n = integers(3, 7), theta ~ U(0.05, pi - 0.05),
# delta ~ U(-pi, pi), q_s ~ U(0, L), k = U(-5, 5, 3) * (1, 1, 1 / L), skipping
# draws with a non-positive whole-segment backbone length.  Each case is
# (L, r, E_p, E_i, E_s, I_p, I_i, I_s, n), (theta, delta, q_s), k.
RANDOM_ROBOTS = [
    ((17.929276220345763, 13.460257608301413, 3865.3216553445423, 9251.97330409119,
      3370.422349063402, 0.002218963487619883, 0.012689065082218667, 0.011886414186344476, 6),
     (0.6702699308139277, -0.7823177434448869, 0.6624068050177973),
     (4.255877002167756, 2.993276267743255, -0.25699888469851273)),
    ((13.361793849036374, 14.678435323149161, 57484.90392010404, 5535.737515777494,
      55736.853210179164, 0.001884183593442402, 0.24738964949140835, 0.08573323493274945, 6),
     (2.400916965147411, 0.9506446910772244, 13.214708841357952),
     (-0.7899342369947471, 3.8035609674376065, -0.11158435305851365)),
    ((13.598968768135801, 8.90593536236036, 148852.7059225318, 123985.86204589892,
      13462.197805712942, 0.00988886085493284, 0.10005161265559481, 0.06650016024191178, 4),
     (2.586773425254155, 1.564838554056502, 9.889169639725427),
     (2.1881706990882144, 3.131328615333297, -0.02282514505857082)),
    ((10.825775805836113, 11.471910897622054, 8473.626135091958, 5972.456900225226,
      196247.72386088938, 0.0019973014285122924, 0.19104803327899053, 0.15837205339060353, 4),
     (2.4913941550605965, -1.7694089871740761, 7.787764664629376),
     (3.7368701016636265, 3.404591784997077, 0.1386065169238116)),
    ((28.354062414033987, 14.378888087905707, 3457.436039439094, 8411.234816585991,
      13917.198784902303, 0.01320903436700267, 0.0018008746893482992, 0.001880030984450956, 3),
     (1.591825352985861, -1.3266318599041633, 26.591394844053113),
     (-3.2114799386575354, -1.1215359142410533, -0.15450830370580823)),
    ((12.799474323513698, 9.068169128576136, 45287.446862487544, 24683.09286380946,
      258852.21001895922, 0.004307531744923252, 0.8064266988294316, 0.0011547133200882048, 5),
     (2.5236740942845595, -1.7162041481918962, 7.627834354480234),
     (-3.952841361408912, -0.405088408709843, -0.20483530125373264)),
    ((12.61540147599865, 13.263792581288879, 217237.17084286088, 38907.60476086809,
      27065.83429000544, 0.10244240291731133, 0.07880702788779569, 0.8365337102341623, 5),
     (2.4543325252358983, -3.1273605303370036, 12.577095448538085),
     (-0.7034488105263854, -2.3918185861361154, 0.03881432597777606)),
    ((18.625345348698918, 14.295762796003473, 3521.024279261927, 8455.898211137024,
      23902.103348987526, 0.0011691551363774435, 0.001695988841072099, 0.0011485506459676814, 3),
     (1.8526436781535751, 1.3387593333859282, 2.673410359768721),
     (3.1424387902674553, 3.8888973163449077, 0.00548284998952647)),
    ((16.390948937306828, 14.619858254027038, 95110.40644623805, 25585.91279168599,
      306787.29029089445, 0.03493967005830396, 0.05679571531123155, 0.004262521229134409, 5),
     (0.38045644444794174, -2.874235348646025, 1.726843067894003),
     (-3.4234627247093528, -0.2252962991149854, -0.17714171887279384)),
    ((48.536153000070364, 14.170448380572797, 5888.451027369075, 6719.3857464651455,
      3557.347151546009, 0.002276422403460164, 0.002059131595456339, 0.0014743013684271496, 5),
     (1.7585097186085605, 2.4927905746660644, 13.78522181781081),
     (-2.814373742038012, -1.9866215472127768, -0.039219024079442916)),
]


@pytest.mark.parametrize("robot,x,k", RANDOM_ROBOTS)
def test_random_robot_regression(robot, x, k):
    params, (theta, delta, q_s), k = RobotParams(*robot), x, UncertaintyParams(*k)
    phi = crem_pose(params, ConfigState(theta, delta), q_s, k).equilibrium
    m1, m1p, m2, ms, lam = equilibrium_moments(params, theta, delta, q_s, k,
                                               phi.theta_s, phi.theta_prime)
    scale = max(abs(m1), abs(m2), abs(ms), abs(lam), 1.0)
    assert max(abs(m1p - m1), abs(m1p + m2 + ms - lam)) <= 1e-9 * scale


@pytest.mark.parametrize("n", [8, 12])
def test_many_backbones_solve_batch_invariant_and_pass_fd(bench, k_cal, n):
    # numpy sums a lone column of n >= 8 numbers pairwise; the moment sums add
    # the backbone rows in order, so a sample's bits do not depend on its batch
    params = dataclasses.replace(bench, n=n)
    rng = np.random.default_rng(n)
    theta = np.concatenate([[TH0, TH0], rng.uniform(0.3, np.pi - 0.3, 38)])
    delta = rng.uniform(-np.pi, np.pi, 40)
    q_s = np.concatenate([[0.0, 20.0, params.L, 0.0], rng.uniform(0.0, params.L, 36)])
    lam = uncertainty_lambda(k_cal, q_s, theta)
    for order in (np.arange(40), rng.permutation(40)):
        batch = solve_kappa(params, theta[order], delta[order], q_s[order], lam[order])
        for got, i in zip(batch, order):
            alone = solve_kappa(params, theta[i], delta[i], q_s[i], lam[i])
            assert got.tobytes() == alone.tobytes()
    # criterion-5 domain: theta 15-75 deg, q_s 0.1-0.9 L
    for theta, delta, q_s in zip(np.radians(rng.uniform(15.0, 75.0, 4)),
                                 rng.uniform(-np.pi, np.pi, 4),
                                 params.L * rng.uniform(0.1, 0.9, 4)):
        errs = fd_discrepancies(params, ConfigState(theta, delta), q_s, k_cal)
        assert max(errs.values()) <= 1e-6, errs


def _newton_replay(params, theta, delta, q_s, lam):
    """The solver's safeguarded Newton on one sample, one scalar step at a time:
    (kappa, number of halved steps)."""
    D = projected_offsets(params, delta)
    kappa = (theta - TH0) / params.L
    rhs = _arc_moment(params, D, kappa)[1] - lam
    halved = 0
    for _ in range(200):
        _, M, M_k = _arc_moment(params, D, kappa)
        s = (rhs - M - params.EI_s * kappa) / (M_k + params.EI_s)
        while np.any(1.0 + D * (kappa + s) <= 0.0):
            s, halved = 0.5 * s, halved + 1
        kappa = kappa + s
        if abs(s) * params.L < 1e-12:
            return kappa, halved
    raise AssertionError("the replay did not converge")


def _rr_lambda(i):
    _, (theta, _, q_s), k = RANDOM_ROBOTS[i]
    return float(uncertainty_lambda(UncertaintyParams(*k), q_s, theta))


# samples whose Newton steps leave the physical interval:
# (robot, (theta, delta, q_s), lambda, steps halved); None is the bench robot
HALVING_CASES = [
    (None, (1.0, 0.0, 30.0), 1e4, 5),
    (None, (1.0, 0.0, 30.0), -1e4, 2),
    (RANDOM_ROBOTS[4][0], RANDOM_ROBOTS[4][1], _rr_lambda(4), 1),
    (RANDOM_ROBOTS[7][0], RANDOM_ROBOTS[7][1], _rr_lambda(7), 1),
]


@pytest.mark.parametrize("case", range(len(HALVING_CASES)))
def test_halved_steps_are_batch_invariant(bench, case):
    robot, (theta, delta, q_s), lam, halved = HALVING_CASES[case]
    params = bench if robot is None else RobotParams(*robot)
    kappa, count = _newton_replay(params, theta, delta, q_s, lam)
    assert count == halved
    assert solve_kappa(params, theta, delta, q_s, lam) == kappa
    # in a batch with straight samples, which freeze after one zero step, and
    # ordinary ones; the span keeps every whole-segment backbone length positive
    rng = np.random.default_rng(case)
    span = 0.5 * min(1.0, params.L / params.r)
    th = np.concatenate([[theta], np.full(3, TH0), TH0 + rng.uniform(-span, span, 6)])
    de = np.concatenate([[delta], rng.uniform(-np.pi, np.pi, 9)])
    qs = np.concatenate([[q_s, 0.0, params.L / 2, params.L], rng.uniform(0.0, params.L, 6)])
    lams = np.concatenate([[lam], np.zeros(3), rng.uniform(-1.0, 1.0, 6)])
    for order in (np.arange(10), np.arange(10)[::-1], rng.permutation(10)):
        batch = solve_kappa(params, th[order], de[order], qs[order], lams[order])
        for got, i in zip(batch, order):
            alone = solve_kappa(params, th[i], de[i], qs[i], lams[i])
            assert got.tobytes() == alone.tobytes()


def test_offsets_of_an_unbroadcast_delta_give_the_same_bits(bench):
    # the solver forms Delta_i of one delta once, as an (n, 1) row that Newton broadcasts
    rng = np.random.default_rng(5)
    theta = TH0 + rng.uniform(-1.0, 0.5, (4, 1))
    q_s = rng.uniform(0.0, bench.L, (4, 3))
    for delta in (0.3, -0.0):
        full = np.full(q_s.shape, delta)
        assert (solve_kappa(bench, theta, delta, q_s, 0.2).tobytes()
                == solve_kappa(bench, theta, full, q_s, 0.2).tobytes())


# a batch of 40 with q_s = 0, q_s = L and exactly straight theta among it, each of those
# alone, and one generic sample of batch shape ()
START_ROWS = [slice(None), [0], [4], [8], [9], 20]


@pytest.mark.parametrize("rows", START_ROWS, ids=["N", "q_s=0", "q_s=L", "straight q_s=0",
                                                   "straight q_s=L", "scalar"])
def test_one_start_solves_each_lambda_as_a_fresh_solve(bench, rows):
    rng = np.random.default_rng(17)
    theta, delta = rng.uniform(0.3, 2.8, 40), rng.uniform(-np.pi, np.pi, 40)
    q_s = rng.uniform(0.0, bench.L, 40)
    q_s[:4], q_s[4:8], theta[8:12] = 0.0, bench.L, TH0
    q_s[8], q_s[9] = 0.0, bench.L
    th, de, qs = theta[rows], delta[rows], q_s[rows]
    start = _solver_start(bench, th, de, qs, 0)
    arrays = start.D, start.kappa0, start.M0, start.M0_k
    kept = [a.copy() for a in arrays]
    for lam in (0.0, 0.45, -0.3, rng.uniform(-0.5, 0.5, 40)[rows], 0.45):
        got = _newton(bench, start, np.broadcast_to(lam, start.shape))
        fresh = solve_kappa(bench, th, de, qs, lam)
        assert got.shape == np.shape(th) and got.tobytes() == fresh.tobytes()
    # no solve writes into the start it shares with the next
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in kept]


# ---------------------------------------------------------------------------
# the kept scalar solve


def counted_solves(monkeypatch):
    """A list that gains one entry per equilibrium solve (model._newton), from any module."""
    solve, calls = model._newton, []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    for module in (model, differential, kinematics):
        monkeypatch.setattr(module, "_newton", counting)
    return calls


def counted_arcs(monkeypatch):
    """A list that gains one entry per kinematics._arc call, from any module."""
    arc, calls = kinematics._arc, []

    def counting(*args, **kwargs):
        calls.append(1)
        return arc(*args, **kwargs)

    for module in (kinematics, calibration):
        monkeypatch.setattr(module, "_arc", counting)
    return calls


def test_pose_then_jacobians_solve_once(bench, k_cal, monkeypatch):
    # and form one chain: both arcs, with slopes, once for the configuration
    calls, arcs = counted_solves(monkeypatch), counted_arcs(monkeypatch)
    psi = ConfigState(1.0, 0.3)
    crem_pose(bench, psi, 15.0, k_cal)
    assemble_motion_jacobians(bench, psi, 15.0, k_cal)
    assert (len(calls), len(arcs)) == (1, 2)


def test_jacobians_then_pose_form_one_chain(bench, k_cal, monkeypatch):
    calls, arcs = counted_solves(monkeypatch), counted_arcs(monkeypatch)
    psi = ConfigState(1.0, 0.3)
    assemble_motion_jacobians(bench, psi, 15.0, k_cal)
    crem_pose(bench, psi, 15.0, k_cal)
    assert (len(calls), len(arcs)) == (1, 2)


@pytest.mark.parametrize("theta", [1.0, TH0 + 1e-5])
def test_kept_chain_is_read_only(bench, k_cal, theta):
    # near straight the slope of b comes from its series, written into a 0-d buffer
    crem_pose(bench, ConfigState(theta, 0.3), 15.0, k_cal)
    _, chain = kinematics._scalar_chain(bench, theta, 0.3, 15.0, k_cal)
    assert kinematics._scalar_chain.cache_info().hits == 1
    values = [*chain[:2], *chain.s, *chain.e, *chain[4:]]
    assert [v for v in values if isinstance(v, np.ndarray) and v.flags.writeable] == []


@pytest.mark.parametrize("theta", [1.0, TH0, TH0 + 1e-5])
def test_a_scalar_sample_stays_a_numpy_scalar(bench, k_cal, theta):
    # a 0-d array costs each numpy operation about ten times what a numpy scalar does:
    # float samples solve and chain on numpy scalars, and D is one (n,) backbone row
    start = _solver_start(bench, theta, 0.3, 15.0, 0)
    assert start.D.shape == (bench.n,)
    assert [type(v) for v in (*start.samples, start.kappa0, start.M0, start.M0_k)] \
        == [np.float64] * 6
    assert type(_newton(bench, start, uncertainty_lambda(k_cal, 15.0, theta))) is np.float64
    kappa, chain = kinematics._scalar_chain(bench, theta, 0.3, 15.0, k_cal)
    values = [kappa, *chain[:2], *chain.s, *chain.e, *chain[4:]]
    assert [type(v) for v in values] == [np.float64] * len(values)


def test_one_sample_fails_as_a_batch_of_one(bench, monkeypatch):
    # shape () runs the batch loop on numpy scalars: the messages of shape (1,), index included
    short = RobotParams(L=1.0, r=3.0, E_p=bench.E_p, E_i=bench.E_i, E_s=bench.E_s,
                        I_p=bench.I_p, I_i=bench.I_i, I_s=bench.I_s)
    for one in (float, lambda v: np.array([v])):
        with pytest.raises(NonPhysicalLength, match=r"^sample 7: \(theta, delta, q_s\) = "
                                                     r"\(0\.2, 0, 0\.5\): backbone length "
                                                     r"<= 0 \(min -3\.11239 mm\)$"):
            _solver_start(short, one(0.2), one(0.0), one(0.5), 7)
    monkeypatch.setattr(model, "_SOLVER_MAX_ITER", 1)
    for one in (float, lambda v: np.array([v])):
        start = _solver_start(bench, one(np.radians(40)), one(0.2), one(15.0), 7)
        with pytest.raises(NoConvergence, match=r"^sample 7: \(theta, delta, q_s\) = "
                                                 r"\(0\.698132, 0\.2, 15\): equilibrium not "
                                                 r"converged after 1 Newton steps \(last step "
                                                 r"0\.00691 rad\); 1 of 1 samples still active$"):
            _newton(bench, start, one(0.0))


@pytest.mark.parametrize("theta,delta,q_s", [(1.0, 0.3, 15.0), (TH0, -0.0, 20.0),
                                             (TH0 + 5e-5, 2.0, 0.0), (0.4, -1.7, 44.3)])
def test_scalar_pose_is_the_sweep_row(bench, k_cal, theta, delta, q_s):
    psi = ConfigState(theta, delta)
    row = micro_trajectory(bench, psi, np.array([q_s]), k_cal)[0][0]
    assert crem_pose(bench, psi, q_s, k_cal).tip.p.tobytes() == row.tobytes()


@pytest.mark.parametrize("part", ["params", "theta", "delta", "q_s",
                                  "k_lambda0", "k_lambda_theta", "k_lambda_q"])
def test_each_key_part_solves_again(bench, k_cal, monkeypatch, part):
    base = {"params": bench, "theta": 1.0, "delta": 0.3, "q_s": 15.0, "k": k_cal}
    changed = dict(base)
    if part == "params":
        changed[part] = dataclasses.replace(bench, E_s=2.0 * bench.E_s)
    elif part in base:
        changed[part] += 0.25
    else:
        changed["k"] = dataclasses.replace(k_cal, **{part: getattr(k_cal, part) + 0.01})

    def phi(a):
        return crem_pose(a["params"], ConfigState(a["theta"], a["delta"]), a["q_s"],
                         a["k"]).equilibrium

    calls = counted_solves(monkeypatch)
    before, after = phi(base), phi(changed)
    assert len(calls) == 2
    assert after != before
    kinematics._scalar_chain.cache_clear()
    assert phi(changed) == after


def test_scalar_solve_errors_are_not_kept(bench, k_zero, monkeypatch):
    for _ in range(2):
        with pytest.raises(ValidationError, match="q_s"):
            crem_pose(bench, ConfigState(1.0, 0.3), bench.L + 0.1, k_zero)
    assert kinematics._scalar_chain.cache_info().currsize == 0
    # a solve that fails in Newton is solved again by the next call
    calls = counted_solves(monkeypatch)
    monkeypatch.setattr(model, "_SOLVER_MAX_ITER", 1)
    for _ in range(2):
        with pytest.raises(NoConvergence):
            crem_pose(bench, ConfigState(np.radians(40), 0.2), 15.0, k_zero)
    assert len(calls) == 2


@pytest.mark.parametrize("first_delta,delta", [(0.3, 0.3), (0.0, -0.0)])
def test_kept_solve_is_bit_identical_to_a_fresh_one(bench, k_cal, monkeypatch,
                                                    first_delta, delta):
    # -0.0 and +0.0 are one key; the kept curvature serves both
    psi = ConfigState(1.0, delta)

    def outputs(fresh):
        out = []
        for call in (crem_pose, assemble_motion_jacobians):
            if fresh:
                clear_kept_values()
            out.append(call(bench, psi, 15.0, k_cal))
        pose, js = out
        return [np.asarray(a).tobytes() for a in (
            pose.tip.p, pose.tip.R, (pose.equilibrium.theta_s, pose.equilibrium.theta_eps),
            js.th_s, js.th_e, js.p, js.d_phi, js.J_xi_phi, js.J_xi_delta, js.J_xi_qs,
            js.J_M, js.J_mu, js.J_k)]

    calls = counted_solves(monkeypatch)
    # the first configuration's chain is kept too, at the other sign of a zero delta
    crem_pose(bench, ConfigState(1.0, first_delta), 15.0, k_cal)
    kept = outputs(fresh=False)
    assert len(calls) == 1
    assert kept == outputs(fresh=True)


# ---------------------------------------------------------------------------
# blocks of a large batch (model._blocks)


def block_measurements(theta, delta, q_s):
    return [Measurement(psi=ConfigState(t, d), q_s=q, x_bar=np.zeros(3))
            for t, d, q in zip(theta.tolist(), delta.tolist(), q_s.tolist())]


def one_psi_measurements(theta, delta, q_s):
    """Measurements that hold one ConfigState object: the one signal of a set at one psi."""
    psi = ConfigState(theta, delta)
    return [Measurement(psi=psi, q_s=q, x_bar=np.zeros(3)) for q in q_s.tolist()]


def test_blocks_split_a_batch_in_order():
    B = model._BLOCK
    assert model._blocks(0) == []
    assert model._blocks(B) == [slice(0, B)]
    assert model._blocks(2 * B + 17) == [slice(0, B), slice(B, 2 * B), slice(2 * B, 2 * B + 17)]


def test_blocks_change_no_bit(bench, k_cal):
    # the first, last and edge rows of three blocks equal a call on that sample alone
    B = model._BLOCK
    n = 2 * B + 17
    rng = np.random.default_rng(29)
    theta, delta = rng.uniform(0.3, 2.8, n), rng.uniform(-np.pi, np.pi, n)
    q_s = rng.uniform(0.0, bench.L, n)
    rows = [0, B - 1, B, B + 1, 2 * B, n - 1]
    theta[[0, B, n - 1]] = TH0
    q_s[[0, B + 1]], q_s[[B - 1, 2 * B]] = 0.0, bench.L
    ms = block_measurements(theta, delta, q_s)
    J = identification_jacobian(ms, bench, k_cal, PARAM_NAMES).reshape(n, 6, 3)
    for i in rows:
        alone = identification_jacobian([ms[i]], bench, k_cal, PARAM_NAMES)
        assert J[i].tobytes() == alone.tobytes(), i
    for psi in (ConfigState(TH0, 0.3), ConfigState(1.0, -2.0)):
        sweep = micro_trajectory(bench, psi, q_s, k_cal)
        for i in rows:
            alone = micro_trajectory(bench, psi, q_s[i:i + 1], k_cal)
            assert [a[i].tobytes() for a in sweep] == [a[0].tobytes() for a in alone], i


def test_block_errors_name_the_sample_in_the_batch(bench, k_cal):
    B = model._BLOCK
    n = B + 10
    q_s = np.linspace(0.0, bench.L, n)
    psi = ConfigState(1.0, 0.3)
    q_s[B + 3] = np.nan
    with pytest.raises(ValidationError, match=rf"^sample {B + 3}: \(theta, delta, q_s\) = "
                                              r"\(1, 0\.3, nan\) outside "):
        micro_trajectory(bench, psi, q_s, k_cal)
    # a Measurement refuses a NaN depth itself; one deeper than L reaches the solver start
    q_s[B + 3] = 2.0 * bench.L
    with pytest.raises(ValidationError, match=rf"^sample {B + 3}: \(theta, delta, q_s\) = "
                                              r"\(1, 0\.3, 88\.6\) outside "):
        identification_jacobian(block_measurements(np.full(n, 1.0), np.full(n, 0.3), q_s),
                                bench, k_cal, PARAM_NAMES)


def test_block_non_physical_length_names_the_sample_in_the_batch(bench, k_zero):
    # the short robot of test_non_physical_lengths_rejected; a sweep shares one psi, so
    # there every sample fails and sample 0 is named: only the Jacobian's measurements
    # can fail past the first block
    short = RobotParams(L=1.0, r=3.0, E_p=bench.E_p, E_i=bench.E_i, E_s=bench.E_s,
                        I_p=bench.I_p, I_i=bench.I_i, I_s=bench.I_s)
    B = model._BLOCK
    n = B + 10
    theta = np.full(n, 1.5)
    theta[B + 5] = 0.2
    ms = block_measurements(theta, np.zeros(n), np.full(n, 0.5))
    with pytest.raises(NonPhysicalLength, match=rf"^sample {B + 5}: \(theta, delta, q_s\) = "
                                                r"\(0\.2, 0, 0\.5\): backbone length <= 0 "):
        identification_jacobian(ms, short, k_zero, PARAM_NAMES)


def test_block_no_convergence_names_the_sample_and_counts_its_block(bench, monkeypatch):
    # straight at depth 0, lambda = k_q q_s is 0 and the first step is zero; the one deeper
    # sample cannot settle in one step.  The count of active samples is of its block
    B = model._BLOCK
    n = B + 10
    q_s = np.zeros(n)
    q_s[B + 7] = 15.0
    k = UncertaintyParams(0.0, 0.0, 0.01)
    monkeypatch.setattr(model, "_SOLVER_MAX_ITER", 1)
    pattern = (rf"^sample {B + 7}: \(theta, delta, q_s\) = \(1\.5708, 0\.2, 15\): "
               rf"equilibrium not converged after 1 .*; 1 of {n - B} samples still active$")
    with pytest.raises(NoConvergence, match=pattern):
        micro_trajectory(bench, ConfigState(TH0, 0.2), q_s, k)
    with pytest.raises(NoConvergence, match=pattern):
        identification_jacobian(block_measurements(np.full(n, TH0), np.full(n, 0.2), q_s),
                                bench, k, PARAM_NAMES)


def temporaries(call):
    """Peak bytes the call allocates (tracemalloc) less the bytes of the arrays it returns."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))


def test_block_working_set_is_bounded(bench, k_cal):
    # from N = B to N = 4B the temporaries grow by no more than the Jacobian's three (N,)
    # command arrays at 4B: one block's arrays, none kept while the next block's are formed
    B = model._BLOCK
    psi = ConfigState(1.0, 0.3)
    used = {}
    for n in (B, 4 * B):
        q_s = np.linspace(0.0, bench.L, n)
        ms = block_measurements(np.full(n, 1.0), np.full(n, 0.3), q_s)
        used[n] = (temporaries(lambda: micro_trajectory(bench, psi, q_s, k_cal)),
                   temporaries(lambda: identification_jacobian(ms, bench, k_cal, PARAM_NAMES)))
    commands = 3 * 8 * 4 * B
    assert all(grown <= commands for grown in np.subtract(used[4 * B], used[B])), used


def test_one_shot_solve_frees_its_start_at_the_first_newton_step(bench, k_cal, monkeypatch):
    # a one-shot multi-psi solve (a simulate-macro theta range, a jacobian-check grid) holds
    # its start nowhere else: _newton drops it, so the (N,) kappa0 of the start that
    # kinematics._solved_chain builds is freed before the next step's moment is formed
    kappa0, freed = [], []
    build, moment = kinematics._solver_start, model._stretched_moment

    def watched_start(*args):
        start = build(*args)
        kappa0.append(weakref.ref(start.kappa0))
        return start

    def watched_moment(*args):
        if sys._getframe(1).f_code is _newton.__code__ and not freed:
            freed.append(kappa0[0]() is None)
        return moment(*args)

    monkeypatch.setattr(kinematics, "_solver_start", watched_start)
    monkeypatch.setattr(model, "_stretched_moment", watched_moment)
    kinematics._solved_chain(bench, np.linspace(0.3, 2.8, 50), 0.3, 20.0, k_cal)
    assert len(kappa0) == 1 and freed == [True]


# ---------------------------------------------------------------------------
# a set at one psi (calibration._commands, model._solver_start)


def test_one_psi_commands_are_one_value():
    q_s = np.linspace(0.0, 40.0, 4)
    theta, delta, q = calibration._commands(one_psi_measurements(0.9, 0.3, q_s))
    assert np.ndim(theta) == np.ndim(delta) == 0 and (theta, delta) == (0.9, 0.3)
    assert np.array_equal(q, q_s)
    # equal psis that are distinct objects, and one theta with two deltas, take arrays
    theta, delta, _ = calibration._commands(block_measurements(np.full(4, 0.9),
                                                               np.full(4, 0.3), q_s))
    assert np.array_equal(theta, np.full(4, 0.9)) and np.array_equal(delta, np.full(4, 0.3))
    theta, delta, _ = calibration._commands(
        block_measurements(np.full(4, 0.9), np.array([0.3, 0.3, 0.3, 0.4]), q_s))
    assert np.array_equal(theta, np.full(4, 0.9))
    assert np.array_equal(delta, [0.3, 0.3, 0.3, 0.4])
    assert [np.ndim(a) for a in calibration._commands([])] == [1, 1, 1]


def test_signed_zero_deltas_stay_on_the_array_path(bench, k_cal):
    # -0.0 == 0.0, but sin(-0.0) is -0.0: a set of both keeps each sample's own delta
    delta = np.array([0.0, -0.0, 0.0, -0.0])
    ms = block_measurements(np.full(4, 0.9), delta, np.linspace(5.0, 40.0, 4))
    _, got, _ = calibration._commands(ms)
    assert np.array_equal(np.signbit(got), np.signbit(delta))
    J = identification_jacobian(ms, bench, k_cal, PARAM_NAMES)
    for i, m in enumerate(ms):
        assert (J[6 * i:6 * i + 6].tobytes()
                == identification_jacobian([m], bench, k_cal, PARAM_NAMES).tobytes())
    # the signs show in the rows
    assert J[:6].tobytes() != J[6:12].tobytes()
    _, minus, _ = calibration._commands(ms[1::2])
    assert np.signbit(minus).all()


@pytest.mark.parametrize("theta, delta", [(0.9, 0.3), (TH0, -0.0), (2.5, np.pi)],
                         ids=["bent", "straight", "delta=pi"])
def test_one_psi_rows_keep_their_bits_beside_another_psi(bench, k_cal, theta, delta):
    # the measurements of one psi take the one-value path alone and the array path with one
    # measurement at another psi after them: the same bits either way
    n = 37
    ms = one_psi_measurements(theta, delta, np.linspace(0.0, bench.L, n))
    R = crem_pose(bench, ConfigState(theta, delta), 25.0, k_cal).tip.R
    ms[5] = Measurement(psi=ms[5].psi, q_s=20.0, x_bar=np.ones(3), R_bar=R)
    mixed = ms + block_measurements(np.array([1.0]), np.array([0.5]), np.array([10.0]))
    assert np.ndim(calibration._commands(ms)[0]) == 0
    assert np.ndim(calibration._commands(mixed)[0]) == 1
    one = identification_jacobian(ms, bench, k_cal, PARAM_NAMES)
    assert one.tobytes() == identification_jacobian(mixed, bench, k_cal,
                                                    PARAM_NAMES)[:6 * n].tobytes()
    # the residuals, the orientation row of sample 5 included
    c = calibration._residuals(calibration._stack(ms, bench), bench, k_cal)[0]
    c_mixed = calibration._residuals(calibration._stack(mixed, bench), bench, k_cal)[0]
    assert np.count_nonzero(c[5, 3:]) and c.tobytes() == c_mixed[:n].tobytes()


def test_one_psi_errors_name_the_same_sample_on_both_paths(bench, k_zero):
    short = RobotParams(L=1.0, r=3.0, E_p=bench.E_p, E_i=bench.E_i, E_s=bench.E_s,
                        I_p=bench.I_p, I_i=bench.I_i, I_s=bench.I_s)
    q_s = np.linspace(0.0, bench.L, 9)
    past_L = q_s.copy()
    past_L[5] = 2.0 * bench.L
    nan_theta = np.full(9, 0.9)
    nan_theta[3] = np.nan
    # at theta = pi/2 - 0.5 the short robot's backbones reach length 0 at delta = 0, not at
    # delta = pi/3
    deltas = np.full(9, np.pi / 3)
    deltas[2] = 0.0
    for params, theta, delta, q, error, sample in (
            (bench, 0.9, 0.3, past_L, ValidationError, 5),
            (bench, np.nan, 0.3, q_s, ValidationError, 0),
            (bench, nan_theta, 0.3, q_s, ValidationError, 3),
            (short, 0.2, 0.0, q_s / 50.0, NonPhysicalLength, 0),
            (short, TH0 - 0.5, deltas, q_s / 50.0, NonPhysicalLength, 2)):
        messages = []
        for args in ((theta, delta, q), np.broadcast_arrays(theta, delta, q)):
            with pytest.raises(error, match=rf"^sample {sample}: ") as caught:
                _solver_start(params, *args, 0)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
    # and through the measurements: one psi alone, and beside a measurement at another psi
    for params, q, error, sample in ((bench, past_L, ValidationError, 5),
                                     (short, q_s / 50.0, NonPhysicalLength, 0)):
        ms = one_psi_measurements(0.2, 0.0, q)
        messages = []
        for batch in (ms, ms + block_measurements(np.array([1.5]), np.array([0.5]),
                                                  np.array([0.5]))):
            with pytest.raises(error, match=rf"^sample {sample}: ") as caught:
                identification_jacobian(batch, params, k_zero, PARAM_NAMES)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


def test_empty_sweep_at_a_non_physical_psi_has_no_sample_to_fail(bench, k_zero):
    # the stretch check runs on the one psi, but names only a sample of the batch
    short = RobotParams(L=1.0, r=3.0, E_p=bench.E_p, E_i=bench.E_i, E_s=bench.E_s,
                        I_p=bench.I_p, I_i=bench.I_i, I_s=bench.I_s)
    pos, th_s, th_p = micro_trajectory(short, ConfigState(0.2, 0.0), [], k_zero)
    assert pos.shape == (0, 3) and th_s.shape == th_p.shape == (0,)
