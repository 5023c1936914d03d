"""Seeded golden dump of the calibration fits and the identification Jacobian.

The dump is a fixed sequence of named float64 arrays: nls_estimate with the
default CalibrationConfig on the criterion-7 sweep (noiseless, 2 um noise,
and every fourth noisy sample with its observed orientation), each fit's
k_star, every IterationRecord, std_errors, correlation, eta_final,
eta_flagged and converged; then identification_jacobian on a seeded mixed set
that takes in q_s = 0, q_s = L and exactly straight samples.  golden.json
beside this file holds the arrays, one SHA-256 over their names and bytes,
and the numpy version and platform they were made on.  Regenerate it from
the root of a checkout with

    PYTHONPATH=src python tests/golden/dump.py
"""
import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from crem import (
    CalibrationConfig,
    ConfigState,
    Measurement,
    UncertaintyParams,
    crem_pose,
    default_params,
    generate_synthetic,
    identification_jacobian,
    nls_estimate,
)
from crem.calibration import PARAM_NAMES

GOLDEN = Path(__file__).resolve().parent / "golden.json"
K_TRUE = UncertaintyParams(0.2, 0.0, 0.025)
# the k at which the mixed set's identification Jacobian is formed
K_JACOBIAN = UncertaintyParams(0.15, 0.01, 0.02)


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


def mixed_set(params):
    """48 seeded configurations; eight at q_s = 0, eight at q_s = L, eight exactly straight."""
    rng = np.random.default_rng(2026)
    theta, delta = rng.uniform(0.3, 2.8, 48), rng.uniform(-np.pi, np.pi, 48)
    q_s = rng.uniform(0.0, params.L, 48)
    q_s[:8], q_s[8:16], theta[16:24] = 0.0, params.L, np.pi / 2.0
    return [Measurement(psi=ConfigState(t, d), q_s=q, x_bar=np.zeros(3))
            for t, d, q in zip(theta, delta, q_s)]


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
    return out


def digest(arrays: dict) -> str:
    """SHA-256 over each array's name, shape and little-endian float64 bytes, in order."""
    h = hashlib.sha256()
    for name, a in arrays.items():
        a = np.ascontiguousarray(a, dtype="<f8")
        h.update(f"{name}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def write(path=GOLDEN):
    arrays = build()
    record = {"numpy": np.__version__, "platform": platform_name(), "sha256": digest(arrays),
              "arrays": {name: a.tolist() for name, a in arrays.items()}}
    Path(path).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write()
