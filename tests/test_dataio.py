import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crem import (
    ConfigState,
    FrameError,
    ParseError,
    RobotConfig,
    UncertaintyParams,
    ValidationError,
    default_params,
    generate_synthetic,
    load_dataset,
    load_robot_config,
    micro_trajectory,
    turning_point_index,
    write_robot_config,
)
from crem import calibration

from conftest import DOMAIN, DOMAIN_EDGES, oracle_rotation, outside


BENCH_CFG = """\
# bench segment
L = 44.3
r = 3
E_p = 41000
E_i = 41000
E_s = 41000
I_p = 0.0312
I_i = 0.0312
I_s = 0.0010
n = 3
"""
# the bench robot of BENCH_CFG, built in code
BENCH_ROBOT = RobotConfig(params=default_params())


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# robot config files


def test_bench_config_loads(tmp_path):
    cfg = load_robot_config(write(tmp_path, "r.cfg", BENCH_CFG))
    assert cfg.params.L == 44.3
    assert cfg.params.n == 3
    assert_allclose(cfg.params.beta, 2.0 * np.pi / 3.0, rtol=1e-15)
    assert_allclose(cfg.T_BI, np.eye(4), atol=0)


def test_config_round_trip_is_lossless(tmp_path):
    R = oracle_rotation(np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8]),
                        1.234567891234)
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = [0.123456789012345678, -7.0, np.pi]
    cfg = RobotConfig(params=default_params(), T_BI=T)
    path = tmp_path / "rt.cfg"
    write_robot_config(path, cfg)
    back = load_robot_config(path)
    for name in ("L", "r", "E_p", "E_i", "E_s", "I_p", "I_i", "I_s", "n"):
        assert getattr(back.params, name) == getattr(cfg.params, name)
    assert np.array_equal(back.T_BI, cfg.T_BI)
    assert np.array_equal(back.T_GM, np.eye(4))


@pytest.mark.parametrize("text,where,msg", [
    (BENCH_CFG + "L 44.3\n", ":11:", "expected 'key = value'"),
    (BENCH_CFG + "bogus = 1\n", ":11:", "unknown key"),
    (BENCH_CFG.replace("I_s = 0.0010", "I_s = tiny"), ":9:", "could not convert"),
    (BENCH_CFG + "T_BI = 1 0 0\n", ":11:", "12 numbers"),
    # the base-in-world transform T_WB was never read and is no longer a key
    (BENCH_CFG + "T_WB = 1 0 0 0 0 1 0 0 0 0 1 0\n", ":11:", "unknown key"),
    (BENCH_CFG + " = 3\n", ":11:", "expected 'key = value'"),
    (BENCH_CFG + "n =\n", ":11:", "expected 'key = value'"),
])
def test_config_parse_errors_name_the_line(tmp_path, text, where, msg):
    path = write(tmp_path, "bad.cfg", text)
    with pytest.raises(ParseError) as err:
        load_robot_config(path)
    assert where in str(err.value)
    assert msg in str(err.value)


def test_config_duplicate_key(tmp_path):
    path = write(tmp_path, "dup.cfg", BENCH_CFG + "L = 10\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_robot_config(path)


def test_config_missing_required_field(tmp_path):
    text = "\n".join(l for l in BENCH_CFG.splitlines() if not l.startswith("E_s"))
    path = write(tmp_path, "m.cfg", text)
    message = f"{path}: config missing required field(s): E_s"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_robot_config(path)


def test_config_invalid_length(tmp_path):
    # a rule error of RobotParams names the file, as a parse error names its line
    path = write(tmp_path, "neg.cfg", BENCH_CFG.replace("L = 44.3", "L = -1"))
    message = f"{path}: L must be positive, got -1.0"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_robot_config(path)


def test_config_rejects_nonrigid_transform(tmp_path):
    # non-finite entries fail here, naming the key, in the rotation block
    # and in the translation column alike
    for line in ("T_BI = 2 0 0 0 0 1 0 0 0 0 1 0",
                 "T_BI = nan 0 0 0 0 1 0 0 0 0 1 0",
                 "T_BI = 1 0 0 0 0 1 0 0 0 0 inf 0",
                 "T_GM = 1 0 0 inf 0 1 0 0 0 0 1 0",
                 "T_GM = 1 0 0 0 0 1 0 -inf 0 0 1 nan"):
        key = line.split()[0]
        path = write(tmp_path, "nr.cfg", BENCH_CFG + line + "\n")
        message = f"^{re.escape(str(path))}: {key} is not a valid rigid"
        with pytest.raises(ValidationError, match=message):
            load_robot_config(path)
    # only the translation of T_GM is read, so a rotation in it is refused
    path = write(tmp_path, "nr.cfg", BENCH_CFG + "T_GM = 0 -1 0 0 1 0 0 0 0 0 1 0\n")
    message = f"^{re.escape(str(path))}: T_GM must be a translation"
    with pytest.raises(ValidationError, match=message):
        load_robot_config(path)
    # a RobotConfig built directly obeys the same rules
    T = np.eye(4)
    T[0, 3] = np.nan
    with pytest.raises(ValidationError, match="^T_BI is not a valid rigid"):
        RobotConfig(params=default_params(), T_BI=T)
    T = np.eye(4)
    T[:3, :3] = oracle_rotation(np.array([0.0, 0.0, 1.0]), 0.1)
    with pytest.raises(ValidationError, match="^T_GM must be a translation"):
        RobotConfig(params=default_params(), T_GM=T)


def last_row(values):
    T = np.eye(4)
    T[3] = values
    return T


@pytest.mark.parametrize("key", ["T_BI", "T_GM"])
@pytest.mark.parametrize("T", [
    np.eye(3),
    np.eye(4)[:3],
    last_row([1.0, 2.0, 3.0, 4.0]),
    last_row([0.0, 0.0, 1e-12, 1.0]),
], ids=["3x3", "3x4", "last-row-1234", "last-row-off-by-1e-12"])
def test_robot_config_refuses_transform_that_is_not_4x4_homogeneous(key, T):
    # a 3x3 transform would fail in load_dataset as a bare IndexError, and
    # write_robot_config writes only the top three rows of a 4x4 one
    with pytest.raises(ValidationError, match=f"^{key} is not a valid rigid transform: "
                                              r"it must be 4x4 with last row \[0, 0, 0, 1\]"):
        RobotConfig(params=default_params(), **{key: T})


@pytest.mark.parametrize("key", ["T_BI", "T_GM"])
def test_robot_config_holds_a_read_only_float_copy(key):
    T = np.eye(4, dtype=int)
    cfg = RobotConfig(params=default_params(), **{key: T})
    held = getattr(cfg, key)
    assert held.dtype == float and not held.flags.writeable
    T[0, 3] = 5
    T[3] = [1, 2, 3, 4]
    assert np.array_equal(held, np.eye(4))
    with pytest.raises(ValueError, match="read-only"):
        held[0, 3] = 5.0


# ---------------------------------------------------------------------------
# trajectory files


def test_synthetic_file_round_trips_through_load_dataset(tmp_path, bench):
    # positions and depths survive the 17-digit decimal detour bitwise; angles
    # are degrees on disk and pick up one rounding from each conversion
    qs = np.linspace(0.0, 40.0, 25)
    theta, delta = np.pi / 6.0, -np.pi / 2.0
    path = tmp_path / "t.csv"
    pos = generate_synthetic(bench, UncertaintyParams(0.2, 0.0, 0.025), theta, delta, qs,
                             0.002, seed=42, path=path)
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# frame=base", "t,q_s,theta,delta,x,y,z"]
    assert [float(v) for v in lines[2].split(",")[2:4]] == pytest.approx([30.0, -90.0],
                                                                         abs=1e-12)
    ms = load_dataset(path, BENCH_ROBOT)
    assert len(ms) == len(qs)
    for m, q, p in zip(ms, qs, pos):
        assert m.q_s == q and np.array_equal(m.x_bar, p)
        assert abs(m.psi.theta - theta) <= 4.0 * np.finfo(float).eps
        assert abs(m.psi.delta - delta) <= 4.0 * np.finfo(float).eps


def test_trajectory_header_errors(tmp_path):
    with pytest.raises(ParseError, match="header"):
        load_dataset(write(tmp_path, "h.csv", "a,b,c\n1,2,3\n"), BENCH_ROBOT)
    with pytest.raises(ParseError, match="no header"):
        load_dataset(write(tmp_path, "e.csv", "# frame=base\n"), BENCH_ROBOT)
    bad_width = "t,q_s,theta,delta,x,y\n0,1,2,3,4\n"
    with pytest.raises(ParseError, match="6 fields"):
        load_dataset(write(tmp_path, "w.csv", bad_width), BENCH_ROBOT)
    not_a_number = "t,q_s,theta,delta,x,y\n0,1,2,3,4,5\n1,2,3,x,4,5\n"
    with pytest.raises(ParseError, match=":3: could not convert string to float: 'x'$"):
        load_dataset(write(tmp_path, "n.csv", not_a_number), BENCH_ROBOT)


@pytest.mark.parametrize("text,message", [
    # a pragma after the data rows would otherwise turn every row image-frame
    ("t,q_s,theta,delta,x,y\n0,1,30,0,1,2\n# frame=image\n",
     ":3: pragma 'frame' after the header$"),
    ("# frame=base\n# frame = image\nt,q_s,theta,delta,x,y\n0,1,30,0,1,2\n",
     ":2: pragma 'frame' repeated$"),
], ids=["after-header", "repeated"])
def test_trajectory_refuses_a_stray_pragma(tmp_path, text, message):
    with pytest.raises(ParseError, match=message):
        load_dataset(write(tmp_path, "p.csv", text), BENCH_ROBOT)


def test_trajectory_allows_plain_comments_anywhere(tmp_path):
    text = ("# hand-made\n# frame=base\nt,q_s,theta,delta,x,y,z\n"
            "0,1,30,0,1,2,3\n# a note, not a pragma\n1,2,30,0,4,5,6\n")
    ms = load_dataset(write(tmp_path, "c.csv", text), BENCH_ROBOT)
    assert [m.q_s for m in ms] == [1.0, 2.0]


def test_trajectory_rejects_nonmonotone_time(tmp_path):
    # NaN compares false both ways: it is refused as non-finite, so it can
    # neither pass nor reset the monotonic rule
    for rows, where, msg in (("0,1,30,0,0,0\n0,2,30,0,0,0\n", ":3:", "monotonically"),
                             ("0,1,30,0,0,0\nnan,2,30,0,0,0\n-5,3,30,0,0,0\n", ":3:",
                              "t must be finite"),
                             ("nan,1,30,0,0,0\n", ":2:", "t must be finite")):
        text = "t,q_s,theta,delta,x,y\n" + rows
        with pytest.raises(ParseError, match=msg) as err:
            load_dataset(write(tmp_path, "mono.csv", text), BENCH_ROBOT)
        assert where in str(err.value)


# ---------------------------------------------------------------------------
# dataset assembly


def test_load_dataset_identity_frames(tmp_path):
    text = "# frame=image\nt,q_s,theta,delta,x,y\n0,5,30,0,1.5,-2.5\n1,6,30,0,0.5,0.25\n"
    path = write(tmp_path, "img.csv", text)
    cfg = RobotConfig(params=default_params())
    ms = load_dataset(path, cfg)
    assert len(ms) == 2
    assert_allclose(ms[0].x_bar, [1.5, -2.5, 0.0], atol=0)
    assert np.array_equal(ms[0].obs_mask, [True, True, False, False, False, False])
    assert ms[0].psi.theta == pytest.approx(np.radians(30.0))


@pytest.mark.parametrize("columns, row, mask", [
    ("x,y", "1,2", [True, True, False, False, False, False]),
    ("x,y,z", "1,2,3", [True, True, True, False, False, False]),
], ids=["2-D", "3-D"])
def test_load_dataset_rows_share_one_read_only_mask(tmp_path, columns, row, mask):
    text = f"t,q_s,theta,delta,{columns}\n0,5,30,0,{row}\n1,6,30,0,{row}\n"
    ms = load_dataset(write(tmp_path, "d.csv", text), BENCH_ROBOT)
    assert ms[0].obs_mask is ms[1].obs_mask
    assert ms[0].obs_mask.dtype == bool and ms[0].obs_mask.tolist() == mask
    with pytest.raises(ValueError, match="read-only"):
        ms[0].obs_mask[5] = True


def test_load_dataset_shares_one_config_state_per_run_of_rows(tmp_path, bench):
    # runs start at rows 0, 2 (delta turns -0.0), 4 (back to 0.0), 5 (theta) and 6 (theta)
    rows = ["0,5,30,0", "1,6,30,0", "2,7,30,-0", "3,8,30,-0.0", "4,9,30,0", "5,10,40,0",
            "6,11,30,0"]
    text = "t,q_s,theta,delta,x,y,z\n" + "".join(f"{row},1,2,3\n" for row in rows)
    psis = [m.psi for m in load_dataset(write(tmp_path, "d.csv", text), BENCH_ROBOT)]
    starts = [i for i in range(len(psis)) if i == 0 or psis[i] is not psis[i - 1]]
    assert starts == [0, 2, 4, 5, 6]
    assert np.signbit([psi.delta for psi in psis]).tolist() == [False, False, True, True,
                                                                False, False, False]
    # a one-psi file holds one object, so calibration._commands reads its angles once
    path = tmp_path / "s.csv"
    generate_synthetic(bench, UncertaintyParams(), np.radians(40.0), -0.0,
                       np.linspace(0.0, 40.0, 9), 0.0, 0, path=path)
    ms = load_dataset(path, BENCH_ROBOT)
    assert all(m.psi is ms[0].psi for m in ms) and np.signbit(ms[0].psi.delta)
    theta, delta, _ = calibration._commands(ms)
    assert type(theta) is type(delta) is np.float64 and np.signbit(delta)


def test_load_dataset_applies_image_transform(tmp_path):
    rng = np.random.default_rng(9)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    T_BI = np.eye(4)
    T_BI[:3, :3] = oracle_rotation(axis, 0.83)
    T_BI[:3, 3] = [4.0, -2.0, 1.5]

    text = ("# frame=image\nt,q_s,theta,delta,x,y,z\n"
            "0,5,30,0,1.5,-2.5,0.75\n1,6,30,0,0.5,0.25,-3\n2,7,45,10,-4,2,1e-3\n")
    path = write(tmp_path, "img.csv", text)

    plain = load_dataset(path, RobotConfig(params=default_params()))
    mapped = load_dataset(path, RobotConfig(params=default_params(), T_BI=T_BI))
    for a, b in zip(plain, mapped):
        assert_allclose(b.x_bar, T_BI[:3, :3] @ a.x_bar + T_BI[:3, 3], atol=1e-12)


def test_load_dataset_removes_marker_offset(tmp_path, bench):
    T_GM = np.eye(4)
    T_GM[:3, 3] = [0.1, -0.2, 0.3]
    path = tmp_path / "m.csv"
    generate_synthetic(bench, UncertaintyParams(0.2, 0.0, 0.025), 0.5, 1.0,
                       np.linspace(0.0, 40.0, 3), 1.0, seed=42, path=path)
    plain = load_dataset(path, RobotConfig(params=default_params()))
    shifted = load_dataset(path, RobotConfig(params=default_params(), T_GM=T_GM))
    for a, b in zip(plain, shifted):
        assert_allclose(b.x_bar, a.x_bar - T_GM[:3, 3], atol=1e-15)


def tilted_image_config(angle, axis):
    T_BI = np.eye(4)
    T_BI[:3, :3] = oracle_rotation(np.array(axis, dtype=float), angle)
    T_BI[:3, 3] = [4.0, -2.0, 1.5]
    return RobotConfig(params=default_params(), T_BI=T_BI)


def test_load_dataset_refuses_2d_image_file_through_tilted_image_frame(tmp_path):
    # a 2-D row's unobserved image z, taken as 0, would leak into base y
    path = write(tmp_path, "img.csv", "# frame=image\nt,q_s,theta,delta,x,y\n0,5,30,0,1,2\n")
    with pytest.raises(FrameError, match=f"^{re.escape(str(path))}: 2-D image-frame data"):
        load_dataset(path, tilted_image_config(0.5, [1.0, 0.0, 0.0]))


def test_load_dataset_maps_2d_image_file_through_turn_about_z(tmp_path):
    cfg = tilted_image_config(0.5, [0.0, 0.0, 1.0])
    path = write(tmp_path, "img.csv", "# frame=image\nt,q_s,theta,delta,x,y\n0,5,30,0,1,2\n")
    (m,) = load_dataset(path, cfg)
    assert_allclose(m.x_bar, cfg.T_BI[:3, :3] @ [1.0, 2.0, 0.0] + cfg.T_BI[:3, 3], atol=1e-15)
    assert m.obs_mask.tolist() == [True, True, False, False, False, False]


def test_load_dataset_maps_3d_image_file_through_tilted_image_frame(tmp_path):
    cfg = tilted_image_config(0.5, [1.0, 0.0, 0.0])
    path = write(tmp_path, "img.csv",
                 "# frame=image\nt,q_s,theta,delta,x,y,z\n0,5,30,0,1,2,7\n")
    (m,) = load_dataset(path, cfg)
    assert_allclose(m.x_bar, cfg.T_BI[:3, :3] @ [1.0, 2.0, 7.0] + cfg.T_BI[:3, 3], atol=1e-14)


def test_load_dataset_depth_out_of_range(tmp_path):
    text = "t,q_s,theta,delta,x,y,z\n0,5,30,0,0,0,0\n1,99,30,0,0,0,0\n"
    path = write(tmp_path, "oor.csv", text)
    with pytest.raises(ValidationError, match="row 2"):
        load_dataset(path, RobotConfig(params=default_params()))


def test_load_dataset_bad_angle_names_row(tmp_path):
    text = "t,q_s,theta,delta,x,y,z\n0,5,190,0,0,0,0\n"
    path = write(tmp_path, "ang.csv", text)
    with pytest.raises(ValidationError, match="row 1"):
        load_dataset(path, RobotConfig(params=default_params()))


def test_load_dataset_nonfinite_position_names_row(tmp_path):
    text = "t,q_s,theta,delta,x,y,z\n0,5,30,0,nan,0,0\n"
    path = write(tmp_path, "nan.csv", text)
    with pytest.raises(ValidationError, match="row 1: x_bar must be a finite 3-vector"):
        load_dataset(path, RobotConfig(params=default_params()))


def test_load_dataset_checks_every_depth_against_L(tmp_path):
    # a dataset is always read against its robot, so every row gets the [0, L] check
    for q_s in ("nan", "-1", "inf", "44.300000000000004"):
        path = write(tmp_path, "qs.csv", f"t,q_s,theta,delta,x,y,z\n0,5,30,0,1,0,40\n"
                                         f"1,{q_s},30,0,1,0,40\n")
        message = outside(f"{path}: row 2", (np.radians(30), 0.0, float(q_s)), DOMAIN)
        with pytest.raises(ValidationError, match=message):
            load_dataset(path, BENCH_ROBOT)


@pytest.mark.parametrize("theta,delta,q_s,inside", DOMAIN_EDGES)
def test_load_dataset_applies_the_domain_rule(tmp_path, theta, delta, q_s, inside):
    # each row of the domain table as the second row of a file, its angles in degrees;
    # every edge angle converts back to itself
    theta_deg, delta_deg = float(np.degrees(theta)), float(np.degrees(delta))
    assert np.array_equal(np.radians([theta_deg, delta_deg]), [theta, delta], equal_nan=True)
    path = write(tmp_path, "edge.csv", "t,q_s,theta,delta,x,y,z\n0,20,57.3,17.2,1,0,40\n"
                                       f"1,{q_s!r},{theta_deg!r},{delta_deg!r},1,0,40\n")
    if inside:
        assert len(load_dataset(path, BENCH_ROBOT)) == 2
    else:
        with pytest.raises(ValidationError,
                           match=outside(f"{path}: row 2", (theta, delta, q_s), DOMAIN)):
            load_dataset(path, BENCH_ROBOT)


@pytest.mark.parametrize("rows,message", [
    # a bad position before a depth outside the domain
    (["1,5,30,0,nan,0,0", "2,99,30,0,1,0,40"], "row 2: x_bar must be a finite 3-vector"),
    # a depth outside the domain before a bad position
    (["1,99,30,0,1,0,40", "2,5,30,0,nan,0,0"],
     "row 2: (theta, delta, q_s) = (0.523599, 0, 99) outside (0, pi) x (-pi, pi] x [0, L]"),
    # one row with a bad angle and a bad position: the domain is named
    (["1,5,190,0,nan,0,0", "2,99,30,0,1,0,40"],
     "row 2: (theta, delta, q_s) = (3.31613, 0, 5) outside (0, pi) x (-pi, pi] x [0, L]"),
])
def test_load_dataset_names_the_first_bad_row_whatever_its_fault(tmp_path, rows, message):
    path = write(tmp_path, "bad.csv", "\n".join(["t,q_s,theta,delta,x,y,z", "0,5,30,0,1,0,40",
                                                   *rows]) + "\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_dataset(path, BENCH_ROBOT)


@pytest.mark.parametrize("config", [default_params(), None, "bench.cfg"])
def test_robot_config_calls_refuse_another_type(tmp_path, config):
    # unchecked, a RobotParams failed with AttributeError on T_GM or params
    message = f"^{re.escape(f'config must be of type RobotConfig, got {config!r}')}$"
    path = write(tmp_path, "d.csv", "t,q_s,theta,delta,x,y,z\n0,5,30,0,1,0,40\n")
    with pytest.raises(ValidationError, match=message):
        load_dataset(path, config)
    with pytest.raises(ValidationError, match=message):
        write_robot_config(tmp_path / "robot.cfg", config)
    assert not (tmp_path / "robot.cfg").exists()


@pytest.mark.parametrize("bad", ["descriptor", True, False, None, 3.5, b"robot.cfg"])
def test_file_calls_refuse_a_path_that_is_not_a_path(tmp_path, bench, bad):
    # open() takes an int or a bool as a file descriptor: write_robot_config wrote into the
    # caller's descriptor and closed it, and load_robot_config(True) closed stdout
    held = tmp_path / "held.txt"
    fd = os.open(held, os.O_RDWR | os.O_CREAT)
    try:
        path = fd if bad == "descriptor" else bad
        message = f"^{re.escape(f'path must be a str or os.PathLike, got {path!r}')}$"
        calls = [lambda: load_robot_config(path), lambda: write_robot_config(path, BENCH_ROBOT),
                 lambda: load_dataset(path, BENCH_ROBOT)]
        if path is not None:  # generate_synthetic's default, which writes no file
            calls.append(lambda: generate_synthetic(
                bench, UncertaintyParams(0.2, 0.0, 0.025), np.radians(30), 0.0,
                np.linspace(0.0, 40.0, 10), 0.002, seed=0, path=path))
        for call in calls:
            with pytest.raises(ValidationError, match=message):
                call()
        os.fstat(fd)  # the descriptor is still open, and nothing was written into it
        assert held.stat().st_size == 0
    finally:
        os.close(fd)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["held.txt"]


def test_load_dataset_unknown_frame(tmp_path):
    text = "# frame=world\nt,q_s,theta,delta,x,y\n0,5,30,0,0,0\n"
    with pytest.raises(ParseError, match="frame"):
        load_dataset(write(tmp_path, "f.csv", text), BENCH_ROBOT)


# ---------------------------------------------------------------------------
# synthetic data


def test_synthetic_same_seed_identical_files(tmp_path, bench):
    k = UncertaintyParams(0.2, 0.0, 0.025)
    qs = np.linspace(0.0, 40.0, 50)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    generate_synthetic(bench, k, np.radians(30), 0.0, qs, 0.002, seed=11, path=a)
    generate_synthetic(bench, k, np.radians(30), 0.0, qs, 0.002, seed=11, path=b)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    generate_synthetic(bench, k, np.radians(30), 0.0, qs, 0.002, seed=12, path=c)
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("noise, seed, msg", [
    (float("nan"), 0, "noise_sigma"),
    (float("inf"), 0, "noise_sigma"),
    (-0.001, 0, "noise_sigma"),
    (0.002, -1, "seed"),
    (0.002, 1.5, "seed"),
    # unchecked, a string failed with TypeError from math.isfinite
    ("a", 0, "^noise_sigma must be a real number, got 'a'$"),
    (None, 0, "^noise_sigma must be a real number, got None$"),
])
def test_synthetic_rejects_bad_noise_and_seed(tmp_path, bench, noise, seed, msg):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValidationError, match=msg):
        generate_synthetic(bench, UncertaintyParams(0.2, 0.0, 0.025), np.radians(30), 0.0,
                           np.linspace(0.0, 40.0, 10), noise, seed=seed, path=path)
    assert not path.exists()


@pytest.mark.parametrize("schedule", [["1", "2"], [True, False], np.array([b"1"]),
                                      [[1.0], [2.0, 3.0]]])
def test_synthetic_refuses_a_schedule_micro_trajectory_refuses(tmp_path, bench, schedule):
    # converted to floats first, strings and bools were accepted
    path = tmp_path / "bad.csv"
    message = f"^{re.escape(f'qs_schedule must hold real numbers, got {schedule!r}')}$"
    with pytest.raises(ValidationError, match=message):
        generate_synthetic(bench, UncertaintyParams(0.2, 0.0, 0.025), np.radians(30), 0.0,
                           schedule, 0.002, seed=0, path=path)
    assert not path.exists()


@pytest.mark.parametrize("schedule, shape", [(np.linspace(0.0, 40.0, 6).reshape(2, 3), (2, 3)),
                                             (5.0, ()), ([[5.0]], (1, 1))])
def test_synthetic_refuses_a_schedule_that_is_not_1d(tmp_path, bench, schedule, shape):
    # unchecked, a 2-D schedule left a file of the header alone and a 0-d one raised TypeError
    path = tmp_path / "bad.csv"
    message = f"^{re.escape(f'qs_schedule must be 1-D, got shape {shape}')}$"
    for out in (None, path):
        with pytest.raises(ValidationError, match=message):
            generate_synthetic(bench, UncertaintyParams(0.2, 0.0, 0.025), np.radians(30), 0.0,
                               schedule, 0.002, seed=0, path=out)
    assert not path.exists()


def test_synthetic_zero_uncertainty_is_constant(tmp_path, k_zero):
    from crem import RobotParams

    params = RobotParams(L=44.3, r=3.0, E_p=41000.0, E_i=41000.0, E_s=0.0,
                         I_p=0.0312, I_i=0.0312, I_s=0.0)
    pos = generate_synthetic(params, k_zero, np.radians(30), 0.0,
                             np.linspace(0.0, 40.0, 20), 0.0, seed=0)
    assert np.max(np.abs(pos - pos[0])) < 1e-9


def test_synthetic_hairpin_scale(bench):
    k = UncertaintyParams(0.2, 0.0, 0.025)
    pos = generate_synthetic(bench, k, np.radians(30), 0.0,
                             np.linspace(0.0, 40.0, 200), 0.0, seed=0)
    assert turning_point_index(pos) is not None
    path_len = float(np.sum(np.linalg.norm(np.diff(pos, axis=0), axis=1)))
    assert 0.05 < path_len < 0.5  # tens-to-hundreds of micrometres


def test_synthetic_round_trip_through_dataset(tmp_path, bench):
    k = UncertaintyParams(0.2, 0.0, 0.025)
    qs = np.linspace(0.0, 40.0, 30)
    path = tmp_path / "syn.csv"
    pos = generate_synthetic(bench, k, np.radians(30), 0.0, qs, 0.002, seed=4, path=path)
    ms = load_dataset(path, RobotConfig(params=bench))
    assert len(ms) == 30
    for q, p, m in zip(qs, pos, ms):
        assert_allclose(m.x_bar, p, atol=1e-12)
        assert m.q_s == q
        assert np.array_equal(m.obs_mask, [True, True, True, False, False, False])
    # positions regenerate from the model plus the same seeded noise
    clean, _, _ = micro_trajectory(bench, ConfigState(np.radians(30), 0.0), qs, k)
    noise = pos - clean
    assert np.max(np.abs(noise)) < 5 * 0.002 * 4.0
