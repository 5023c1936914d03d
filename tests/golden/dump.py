"""Seeded golden dump of the calibration fits and the identification Jacobian.

The dump is a fixed sequence of named float64 arrays: nls_estimate with the
default CalibrationConfig on the criterion-7 sweep (noiseless, 2 um noise,
and every fourth noisy sample with its observed orientation), each fit's
k_star, every IterationRecord, std_errors, correlation, eta_final,
eta_flagged and converged; then identification_jacobian on a seeded mixed set
that takes in q_s = 0, q_s = L and exactly straight samples; then, at eight
configurations of that set (two each at q_s = 0, at q_s = L, exactly straight
and interior), crem_pose's p, R and angles, every field and assembled block of
assemble_motion_jacobians, fd_discrepancies where the point lies its step inside
the domain, and micro_trajectory's three arrays on a sweep over [0, L].  golden.json
beside this file holds the arrays, one SHA-256 over their names and bytes,
and the numpy version and platform they were made on.  It also holds a
SHA-256 of the stdout and of each CSV of the six README commands, run in
order in one temporary directory through crem.cli.main.  Regenerate it from
the root of a checkout with

    PYTHONPATH=src python tests/golden/dump.py

With --diff the dump is rebuilt and nothing is written: each array whose bytes moved from
the record is listed with its shape and largest absolute and relative difference, then each
README output whose hash moved, and the exit status is 1 if anything moved.
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from crem import (
    CalibrationConfig,
    ConfigState,
    JacobianSet,
    Measurement,
    UncertaintyParams,
    assemble_motion_jacobians,
    crem_pose,
    default_params,
    fd_discrepancies,
    generate_synthetic,
    identification_jacobian,
    micro_trajectory,
    nls_estimate,
)
from crem import cli
from crem.calibration import PARAM_NAMES
from crem.differential import _FD_STEP

GOLDEN = Path(__file__).resolve().parent / "golden.json"
CONFIG = Path(__file__).resolve().parents[2] / "configs" / "default_robot.cfg"
# the six commands of the README's command-line section, in order: the calibrations read
# the data.csv that gen-synthetic writes
README_COMMANDS = (
    "simulate-micro --theta 30 --qs-range 0:40:200 --k-lambda 0.2,0,0.025 --out sweep.csv",
    "simulate-macro --theta-range 15:75:41 --qs 13.3 --out macro.csv",
    "jacobian-check --out fd.csv",
    "gen-synthetic --theta 30 --qs-range 0:40:200 --k-lambda 5,0,-0.1 --noise 0.002 "
    "--seed 0 --out data.csv",
    "calibrate --data data.csv --free k0,kq --out-trace trace.csv",
    "calibrate --data data.csv --split-turning-point",
)
K_TRUE = UncertaintyParams(0.2, 0.0, 0.025)
# the k at which the mixed set's identification Jacobian is formed
K_JACOBIAN = UncertaintyParams(0.15, 0.01, 0.02)
# the mixed set's configurations whose poses, Jacobians, FD errors and sweeps are dumped:
# two at q_s = 0, two at q_s = L, two exactly straight and two interior
POINTS = (0, 1, 8, 9, 16, 17, 24, 25)
# every JacobianSet field, then the assembled blocks
JACOBIANS = (*(f.name for f in dataclasses.fields(JacobianSet)), "J_psi", "J_M", "J_mu", "J_k")


def platform_name() -> str:
    return f"{platform.system()}-{platform.machine()}"


def fit_sets(params):
    """The criterion-7 sets: exact, noisy and rot (every fourth noisy sample with R_bar)."""
    qs = np.linspace(0.0, 40.0, 382)
    psi = ConfigState(np.radians(45.0), 0.0)
    sets = {}
    for kind, noise, seed in (("exact", 0.0, 0), ("noisy", 0.002, 11)):
        pos = generate_synthetic(params, K_TRUE, psi.theta, psi.delta, qs, noise, seed)
        sets[kind] = [Measurement(psi=psi, q_s=q, x_bar=p) for q, p in zip(qs, pos)]
    sets["rot"] = [Measurement(psi=m.psi, q_s=m.q_s, x_bar=m.x_bar,
                               R_bar=crem_pose(params, m.psi, m.q_s, K_TRUE).tip.R)
                   for m in sets["noisy"][::4]]
    return sets


def mixed_configurations(params):
    """(theta, delta, q_s) of 48 seeded configurations; eight at q_s = 0, eight at q_s = L,
    eight exactly straight."""
    rng = np.random.default_rng(2026)
    theta, delta = rng.uniform(0.3, 2.8, 48), rng.uniform(-np.pi, np.pi, 48)
    q_s = rng.uniform(0.0, params.L, 48)
    q_s[:8], q_s[8:16], theta[16:24] = 0.0, params.L, np.pi / 2.0
    return theta, delta, q_s


def mixed_set(params):
    return [Measurement(psi=ConfigState(t, d), q_s=q, x_bar=np.zeros(3))
            for t, d, q in zip(*mixed_configurations(params))]


def configuration_outputs(params) -> dict:
    """Pose, Jacobians, FD errors (where the point lies _FD_STEP inside the domain) and
    insertion sweep at each of the POINTS of the mixed set, named by its index."""
    out = {}
    sweep = np.linspace(0.0, params.L, 9)
    theta, delta, q_s = mixed_configurations(params)
    for i in POINTS:
        psi, q, key = ConfigState(theta[i], delta[i]), float(q_s[i]), f"config{i}"
        pose = crem_pose(params, psi, q, K_JACOBIAN)
        phi = pose.equilibrium
        out[f"{key}.pose.p"], out[f"{key}.pose.R"] = pose.tip.p, pose.tip.R
        out[f"{key}.pose.angles"] = np.array([phi.theta_s, phi.theta_eps, phi.theta_prime])
        js = assemble_motion_jacobians(params, psi, q, K_JACOBIAN)
        for name in JACOBIANS:
            out[f"{key}.jacobians.{name}"] = getattr(js, name)
        if _FD_STEP <= q <= params.L - _FD_STEP:
            out[f"{key}.fd"] = np.array(list(fd_discrepancies(params, psi, q, K_JACOBIAN).values()))
        for name, a in zip(("positions", "theta_s", "theta_prime"),
                           micro_trajectory(params, psi, sweep, K_JACOBIAN)):
            out[f"{key}.sweep.{name}"] = a
    return {name: np.asarray(a, dtype=float) for name, a in out.items()}


def build() -> dict:
    """The dump: name -> float64 array, in a fixed order."""
    params = default_params()
    out = {}
    for kind, ms in fit_sets(params).items():
        res = nls_estimate(ms, params, CalibrationConfig(), UncertaintyParams.zero())
        out[f"{kind}.k_star"] = res.k_star.as_array()
        out[f"{kind}.trace"] = np.array([[r.iteration, *r.k.as_array(), r.rmse_um, r.M_lambda]
                                         for r in res.trace])
        out[f"{kind}.std_errors"] = np.asarray(res.std_errors, dtype=float)
        out[f"{kind}.correlation"] = np.asarray(res.correlation, dtype=float)
        out[f"{kind}.eta"] = np.array([res.eta_final, res.eta_flagged, res.converged], dtype=float)
    out["mixed.identification_jacobian"] = identification_jacobian(
        mixed_set(params), params, K_JACOBIAN, PARAM_NAMES)
    out.update(configuration_outputs(params))
    return out


def digest(arrays: dict) -> str:
    """SHA-256 over each array's name, shape and little-endian float64 bytes, in order."""
    h = hashlib.sha256()
    for name, a in arrays.items():
        a = np.ascontiguousarray(a, dtype="<f8")
        h.update(f"{name}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def readme_outputs() -> dict:
    """SHA-256 of the stdout of each README command and of every CSV the commands write,
    keyed 'stdout <n>: <command>' and by file name; each command must exit 0."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for n, command in enumerate(README_COMMANDS, start=1):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    status = cli.main([*command.split(), "--config", str(CONFIG)])
                if status != 0:
                    raise RuntimeError(f"crem {command} exited {status}")
                out[f"stdout {n}: {command}"] = sha256(stdout.getvalue().encode())
            for name in sorted(os.listdir(tmp)):
                out[name] = sha256(Path(tmp, name).read_bytes())
        finally:
            os.chdir(cwd)
    return out


def write(path=GOLDEN):
    arrays = build()
    record = {"numpy": np.__version__, "platform": platform_name(), "sha256": digest(arrays),
              "readme": readme_outputs(),
              "arrays": {name: a.tolist() for name, a in arrays.items()}}
    Path(path).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def diff(arrays: dict, readme: dict, record: dict) -> list:
    """One line per array of the rebuilt dump whose bytes differ from the record, signed zeros
    included: its name, shape, and largest absolute difference and that difference relative to
    the record's largest entry (test_golden's off-platform measure); then one per README
    output whose hash moved.  Empty when nothing moved."""
    lines = []
    recorded = record["arrays"]
    for name in [*arrays, *(name for name in recorded if name not in arrays)]:
        if name not in arrays or name not in recorded:
            lines.append(f"{name}: {'not in the record' if name in arrays else 'not rebuilt'}")
            continue
        got, ref = arrays[name], np.array(recorded[name], dtype=float)
        if got.shape != ref.shape:
            lines.append(f"{name}: shape {got.shape}, recorded {ref.shape}")
        elif got.tobytes() != ref.tobytes():
            err, scale = (np.max(np.abs(a), initial=0.0) for a in (got - ref, ref))
            rel = err / scale if scale > 0.0 else (np.inf if err > 0.0 else 0.0)
            lines.append(f"{name}: shape {got.shape}, max abs diff {err:.3g}, "
                         f"max rel diff {rel:.3g}")
    for key in [*readme, *(key for key in record["readme"] if key not in readme)]:
        if readme.get(key) != record["readme"].get(key):
            lines.append(f"README output moved: {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the golden dump to golden.json.")
    parser.add_argument("--diff", action="store_true",
                        help="rebuild the dump, write nothing, and list what moved from the "
                             "record; exit 1 if anything did")
    if not parser.parse_args(argv).diff:
        write()
        return 0
    moved = diff(build(), readme_outputs(), json.loads(GOLDEN.read_text(encoding="utf-8")))
    print("\n".join(moved) or "nothing moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
