import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crem import ConfigState, UncertaintyParams, fd_discrepancies, load_robot_config
from crem import cli as crem_cli

CONFIG_TEXT = """\
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


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "robot.cfg"
    p.write_text(CONFIG_TEXT, encoding="utf-8")
    return str(p)


def crem(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("CREM_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "crem.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def summary(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    data = np.array([[float(v) for v in l.split(",")] for l in lines[2:]])
    return header, data


# ---------------------------------------------------------------------------
# simulate-micro


def test_micro_ideal_sweep_is_monotone(config_path, tmp_path):
    out = tmp_path / "micro0.csv"
    proc = crem("simulate-micro", "--config", config_path, "--theta", "30",
                "--qs-range", "0:40:200", "--out", str(out))
    s = summary(proc)
    assert s["turning_point_qs"] is None
    header, data = read_csv(out)
    assert header == ["q_s", "x", "y", "z", "theta_s", "theta_prime",
                      "turning_point"]
    assert data.shape == (200, 7)
    assert np.all(data[:, 6] == 0)


def test_micro_uncertain_sweep_flags_turning_point(config_path, tmp_path):
    out = tmp_path / "micro1.csv"
    proc = crem("simulate-micro", "--config", config_path, "--theta", "30",
                "--k-lambda", "0.2,0,0.025", "--qs-range", "0:40:200",
                "--out", str(out))
    s = summary(proc)
    assert s["turning_point_qs"] is not None
    assert 0.0 < s["turning_point_qs"] < 40.0
    _, data = read_csv(out)
    flagged = np.nonzero(data[:, 6])[0]
    assert flagged.size == 1
    assert 0 < flagged[0] < 199


def test_micro_straight_angle_constant_positions(config_path, tmp_path):
    out = tmp_path / "micro90.csv"
    proc = crem("simulate-micro", "--config", config_path, "--theta", "90",
                "--qs-range", "0:40:50", "--out", str(out))
    summary(proc)
    _, data = read_csv(out)
    assert np.max(np.abs(data[:, 1:4] - data[0, 1:4])) < 1e-9


# ---------------------------------------------------------------------------
# simulate-macro


def test_macro_single_point_sweep(config_path, tmp_path):
    out = tmp_path / "macro1.csv"
    proc = crem("simulate-macro", "--config", config_path, "--qs", "13.29",
                "--theta-range", "30:30:1", "--out", str(out))
    s = summary(proc)
    assert s["rows"] == 1
    header, data = read_csv(out)
    assert data.shape == (1, len(header))
    assert data[0, 0] == pytest.approx(30.0, abs=1e-12)


def test_macro_bad_range_is_usage_error(config_path, tmp_path):
    proc = crem("simulate-macro", "--config", config_path, "--qs", "13.29",
                "--theta-range", "30to75", "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "theta-range" in proc.stderr


@pytest.mark.parametrize("theta_range", ["0:60:4", "30:180:4", "30:200:2"])
def test_macro_theta_outside_range_fails(config_path, tmp_path, theta_range):
    # refused as a usage error, naming the first angle outside the domain
    proc = crem("simulate-macro", "--config", config_path, "--qs", "13.29",
                "--theta-range", theta_range, "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "argument --theta-range: sample " in proc.stderr
    assert "outside (0, pi) x (-pi, pi]" in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate-micro", "--theta", "200", "--qs-range", "0:40:5"],
     "argument --theta: sample 0: (theta, delta) = (3.49066, 0)"),
    (["simulate-micro", "--theta", "30", "--delta", "400", "--qs-range", "0:40:5"],
     "argument --delta: sample 0: (theta, delta) = (1.5708, 6.98132)"),
    (["simulate-macro", "--qs", "10", "--theta-range", "30:30:1", "--delta", "-180"],
     "argument --delta: sample 0: (theta, delta) = (1.5708, -3.14159)"),
    (["gen-synthetic", "--theta", "0", "--qs-range", "0:40:5"],
     "argument --theta: sample 0: (theta, delta) = (0, 0)"),
    (["gen-synthetic", "--theta", "nan", "--qs-range", "0:40:5"],
     "argument --theta: sample 0: (theta, delta) = (nan, 0)"),
    (["simulate-macro", "--qs", "10", "--theta-range", "150:190:5"],
     "argument --theta-range: sample 3: (theta, delta) = (3.14159, 0)"),
], ids=["micro-theta", "micro-delta", "macro-delta", "synthetic-theta", "synthetic-nan",
        "macro-theta-range"])
def test_angle_outside_its_range_is_a_usage_error(tmp_path, capsys, argv, message):
    # the model's domain rule refuses the angle, its radians checked with the other angle
    # held inside the domain, before the config (here missing) is read
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exit_:
        crem_cli.main([*argv, "--config", str(tmp_path / "none.cfg"), "--out", str(out)])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"{message} outside (0, pi) x (-pi, pi]\n" in captured.err


def test_angles_at_the_domain_edges_parse(config_path, tmp_path):
    # delta = 180 deg is pi, inside (-pi, pi]; theta just inside (0, 180) deg
    out = tmp_path / "edge.csv"
    summary(crem("simulate-micro", "--config", config_path, "--theta", "179.9",
                 "--delta", "180", "--qs-range", "0:40:3", "--out", str(out)))
    summary(crem("simulate-macro", "--config", config_path, "--qs", "10",
                 "--theta-range", "0.1:179.9:3", "--delta", "180", "--out", str(out)))


def test_macro_columns_tangent_to_trajectory(config_path, tmp_path):
    out = tmp_path / "macro.csv"
    proc = crem("simulate-macro", "--config", config_path, "--qs", "13.29",
                "--theta-range", "15:75:41", "--out", str(out))
    summary(proc)
    header, data = read_csv(out)
    assert header[:4] == ["theta", "x", "y", "z"]
    pos = data[:, 1:4]
    # delta = 0 keeps the sweep in the x-z plane; every backbone column of
    # J_M must align with the finite-difference tangent there
    tangents = pos[2:] - pos[:-2]
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    for i in range(3):
        cols = data[1:-1, 4 + 3 * i:7 + 3 * i]
        proj = cols[:, [0, 2]]
        norms = np.linalg.norm(proj, axis=1)
        cosines = np.abs(np.sum(proj * tangents[:, [0, 2]], axis=1)) / norms
        assert np.min(cosines) >= 0.999


# ---------------------------------------------------------------------------
# jacobian-check


def test_jacobian_check_passes_both_k(config_path, tmp_path):
    # the second grid's delta steps of the finite differences cross pi
    for grid, points in (("theta=20:70:2;delta=0:40:2;qs=0.2:0.8:2", 8),
                         ("theta=30:30:1;delta=180:180:1;qs=0.5:0.5:1", 1)):
        for k in ("0,0,0", "0.2,0,0.025"):
            out = tmp_path / f"jc_{k.replace(',', '_')}.csv"
            proc = crem("jacobian-check", "--config", config_path,
                        "--k-lambda", k, "--grid", grid, "--out", str(out))
            s = summary(proc)
            assert s["pass"] is True
            assert s["points"] == points
            assert max(s["max_errors"].values()) <= 1e-6
            header, data = read_csv(out)
            assert len(data) == points


def test_jacobian_check_rows_equal_per_point_fd(config_path, tmp_path):
    out = tmp_path / "fd.csv"
    assert crem_cli.main(["jacobian-check", "--config", config_path,
                          "--k-lambda", "0.2,0.01,0.025", "--out", str(out),
                          "--grid", "theta=20:120:3;delta=-90:180:4;qs=0.1:0.9:2"]) == 0
    header, data = read_csv(out)
    params = load_robot_config(config_path).params
    k = UncertaintyParams(0.2, 0.01, 0.025)
    assert len(data) == 24
    for th, de, q_s, *errs in data:
        ref = fd_discrepancies(params, ConfigState(np.radians(th), np.radians(de)), q_s, k)
        assert errs == [ref[key] for key in header[3:]]


def test_jacobian_check_delta_outside_range_fails(config_path):
    proc = crem("jacobian-check", "--config", config_path,
                "--grid", "theta=30:30:1;delta=0:-200:3;qs=0.5:0.5:1")
    assert proc.returncode == 1
    assert proc.stderr == ("error: sample 2: (theta, delta, q_s) = (0.523599, -3.49066, 22.15) "
                           "outside (1e-06, pi - 1e-06) x (-pi, pi] x [1e-06, L - 1e-06]\n")


def test_jacobian_check_point_within_a_step_of_the_edge_fails(config_path):
    # q_s = 0 would step to -h; the error names the grid point, not an internal sample
    proc = crem("jacobian-check", "--config", config_path,
                "--grid", "theta=30:30:1;delta=0:0:1;qs=0:0.5:2")
    assert proc.returncode == 1
    assert proc.stderr == ("error: sample 0: (theta, delta, q_s) = (0.523599, 0, 0) "
                           "outside (1e-06, pi - 1e-06) x (-pi, pi] x [1e-06, L - 1e-06]\n")
    assert proc.stdout == ""


def test_jacobian_check_straight_boundary(config_path):
    proc = crem("jacobian-check", "--config", config_path,
                "--grid", "theta=90:90:1;delta=0:40:2;qs=0.25:0.75:3")
    s = summary(proc)
    assert s["pass"] is True


@pytest.mark.parametrize("grid,msg", [
    ("theta=15:75:0", "count must be >= 1"),
    ("theta=15:75:-2;qs=0.2:0.8:2", "count must be >= 1"),
    ("qs=0.2:0.8", "lo:hi:count"),
    ("theta=20:70:2;theta=30:40:1", "given twice"),
    ("phi=0:1:2", "unknown grid axis"),
], ids=["zero-count", "negative-count", "two-fields", "repeated-axis", "unknown-axis"])
def test_jacobian_check_bad_grid_is_usage_error(config_path, grid, msg):
    proc = crem("jacobian-check", "--config", config_path, "--grid", grid)
    assert proc.returncode == 2
    assert "--grid" in proc.stderr and msg in proc.stderr
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_noiseless_recovers_truth(config_path, tmp_path):
    data = tmp_path / "noiseless.csv"
    crem("gen-synthetic", "--config", config_path, "--theta", "45",
         "--k-lambda", "0.2,0,0.025", "--qs-range", "0:40:60",
         "--noise", "0", "--out", str(data))
    trace = tmp_path / "trace.csv"
    proc = crem("calibrate", "--config", config_path, "--data", str(data),
                "--out-trace", str(trace))
    s = summary(proc)
    assert s["converged"] is True
    assert s["rmse_final_um"] <= 0.01
    assert abs(s["k_star"]["k_lambda0"] - 0.2) / 0.2 < 0.01
    assert abs(s["k_star"]["k_lambda_q"] - 0.025) / 0.025 < 0.01
    lines = trace.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].startswith("iteration,k_lambda0,k_lambda_q")
    assert len(lines) == 3 + s["iterations"]


def test_calibrate_init_at_truth_takes_one_iteration(config_path, tmp_path):
    data = tmp_path / "noiseless.csv"
    crem("gen-synthetic", "--config", config_path, "--theta", "45",
         "--k-lambda", "0.2,0,0.025", "--qs-range", "2:40:30",
         "--noise", "0", "--out", str(data))
    proc = crem("calibrate", "--config", config_path, "--data", str(data),
                "--init", "0.2,0,0.025")
    s = summary(proc)
    assert s["iterations"] == 1
    assert s["converged"] is True


def test_readme_calibrate_takes_few_iterations(config_path, tmp_path):
    data = tmp_path / "data.csv"
    summary(crem("gen-synthetic", "--config", config_path, "--theta", "30",
                 "--qs-range", "0:40:200", "--k-lambda", "5,0,-0.1",
                 "--noise", "0.002", "--seed", "0", "--out", str(data)))
    s = summary(crem("calibrate", "--config", config_path, "--data", str(data),
                     "--free", "k0,kq"))
    assert s["converged"] is True
    assert s["iterations"] <= 5


def test_calibrate_identical_depths_fail_cleanly(config_path, tmp_path):
    data = tmp_path / "flat.csv"
    lines = ["# frame=base", "t,q_s,theta,delta,x,y,z"]
    for i in range(8):
        lines.append(f"{i / 30.0},15,45,0,1.0,0.0,43.0")
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = crem("calibrate", "--config", config_path, "--data", str(data))
    assert proc.returncode == 1
    assert "not identifiable: q_s is constant" in proc.stderr


@pytest.mark.parametrize("split", [[], ["--split-turning-point"]])
def test_calibrate_header_only_dataset_fails_cleanly(config_path, tmp_path, capsys, split):
    data = tmp_path / "empty.csv"
    data.write_text("# frame=base\nt,q_s,theta,delta,x,y,z\n", encoding="utf-8")
    code = crem_cli.main(["calibrate", "--config", config_path, "--data", str(data), *split])
    assert code == 1
    assert capsys.readouterr().err == "error: empty dataset\n"


def test_calibrate_names_a_constant_theta(config_path, tmp_path):
    # the README sweep holds theta at 30 deg: k_lambda0 and k_lambda_theta
    # cannot both be free, but k_lambda_theta alone or with k_lambda_q can
    data = tmp_path / "data.csv"
    crem("gen-synthetic", "--config", config_path, "--theta", "30",
         "--qs-range", "0:40:40", "--k-lambda", "5,0,-0.1", "--noise", "0.002",
         "--seed", "0", "--out", str(data))
    for free in ("k0,ktheta,kq", "k0,ktheta"):
        proc = crem("calibrate", "--config", config_path, "--data", str(data), "--free", free)
        assert proc.returncode == 1
        assert "not identifiable: theta is constant across the 40 weighted" in proc.stderr
    for free in ("ktheta", "ktheta,kq"):
        assert summary(crem("calibrate", "--config", config_path, "--data", str(data),
                            "--free", free))["converged"] is True


def test_calibrate_unknown_free_token(config_path, tmp_path):
    data = tmp_path / "d.csv"
    crem("gen-synthetic", "--config", config_path, "--theta", "45",
         "--qs-range", "0:40:10", "--out", str(data))
    proc = crem("calibrate", "--config", config_path, "--data", str(data),
                "--free", "k0,bogus")
    assert proc.returncode == 2
    assert "--free: unknown parameter 'bogus'" in proc.stderr


def test_calibrate_takes_no_k_lambda(config_path, tmp_path):
    # calibrate starts from --init; a --k-lambda it would not read is refused
    proc = crem("calibrate", "--config", config_path, "--data", str(tmp_path / "d.csv"),
                "--k-lambda", "1,0,0")
    assert proc.returncode == 2
    assert "unrecognized arguments: --k-lambda 1,0,0" in proc.stderr
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# gen-synthetic and config plumbing


def test_gen_synthetic_deterministic(config_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("gen-synthetic", "--config", config_path, "--theta", "30",
            "--k-lambda", "0.2,0,0.025", "--qs-range", "0:40:50",
            "--noise", "0.002", "--seed", "7")
    summary(crem(*args, "--out", str(a)))
    summary(crem(*args, "--out", str(b)))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag, value", [("--noise", "nan"), ("--noise", "-0.001"),
                                         ("--seed", "-1")])
def test_gen_synthetic_bad_noise_or_seed_fails_cleanly(tmp_path, capsys, flag, value):
    # the config file does not exist: generate_synthetic's own rule refuses the value
    # as a usage error that names its flag, before the config is read
    out = tmp_path / "bad.csv"
    with pytest.raises(SystemExit) as exit_:
        crem_cli.main(["gen-synthetic", "--config", str(tmp_path / "none.cfg"),
                       "--theta", "30", "--qs-range", "0:40:10", flag, value,
                       "--out", str(out)])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: {flag[2:]}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--eta", "2", "eta must lie in (0, 1], got 2.0"),
    ("--conv", "0", "beta_conv must be positive"),
    ("--conv", "inf", "beta_conv must be finite, got inf"),
    ("--max-iter", "0", "max_iter must be an integer >= 1, got 0"),
    ("--free", "k0,k0", "free_params must be a nonempty set of distinct names"),
])
def test_bad_calibration_setting_is_usage_error_before_the_files(tmp_path, capsys, flag,
                                                                 value, message):
    # neither the config nor the data exists: CalibrationConfig's own rule refuses the
    # value as a usage error that names its flag, before either file is read
    with pytest.raises(SystemExit) as exit_:
        crem_cli.main(["calibrate", "--config", str(tmp_path / "none.cfg"),
                       "--data", str(tmp_path / "missing.csv"), flag, value])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: {message}\n" in captured.err


def test_config_from_environment(config_path, tmp_path):
    out = tmp_path / "env.csv"
    proc = crem("simulate-micro", "--theta", "30", "--qs-range", "0:40:5",
                "--out", str(out), env_extra={"CREM_CONFIG": config_path})
    assert proc.returncode == 0
    assert out.exists()


def test_missing_config_is_usage_error(tmp_path):
    proc = crem("simulate-micro", "--theta", "30", "--qs-range", "0:40:5",
                "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "--config" in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    (["simulate-micro", "--theta", "30", "--qs-range", "0:40:5", "--k-lambda", "1,2"],
     "--k-lambda"),
    (["gen-synthetic", "--theta", "30", "--qs-range", "0:40:5", "--k-lambda", "1,nan,0"],
     "--k-lambda"),
    (["calibrate", "--data", "d.csv", "--init", "1,2"], "--init"),
], ids=["two-numbers", "nan", "init"])
def test_bad_uncertainty_flag_is_usage_error_before_the_config(tmp_path, argv, flag):
    # the config file does not exist: the usage error must come first and name its flag
    proc = crem(*argv, "--config", str(tmp_path / "none.cfg"))
    assert proc.returncode == 2
    assert f"argument {flag}: " in proc.stderr
    assert proc.stdout == ""


def test_missing_config_file_fails(tmp_path):
    proc = crem("simulate-micro", "--config", str(tmp_path / "none.cfg"),
                "--theta", "30", "--qs-range", "0:40:5",
                "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 1
    assert "error" in proc.stderr.lower()


def test_version_flag():
    proc = crem("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_readme_commands_run_without_scipy(config_path, tmp_path):
    # the runtime needs numpy only: with scipy unimportable, the README
    # Quick start snippet and every README command still run in process
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    quick_start = quick_start.split("```", 1)[0]
    code = f"""
import sys
sys.modules["scipy"] = None
exec({quick_start!r})
import crem.cli
commands = [
    "simulate-micro --theta 30 --qs-range 0:40:200 --k-lambda 0.2,0,0.025 --out sweep.csv",
    "simulate-macro --theta-range 15:75:41 --qs 13.3 --out macro.csv",
    "jacobian-check --out fd.csv",
    "gen-synthetic --theta 30 --qs-range 0:40:200 --k-lambda 5,0,-0.1 "
    "--noise 0.002 --seed 0 --out data.csv",
    "calibrate --data data.csv --free k0,kq --out-trace trace.csv",
    "calibrate --data data.csv --split-turning-point",
]
for command in commands:
    code = crem.cli.main(command.split() + ["--config", {config_path!r}])
    assert code == 0, (command, code)
"""
    env = dict(os.environ)
    src = str(Path(crem_cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 6
    for name in ("sweep.csv", "macro.csv", "fd.csv", "data.csv", "trace.csv"):
        assert (tmp_path / name).exists()
