"""File formats and dataset assembly.

Robot config: flat key = value text, one entry per line, '#' comments.
Lengths mm, moduli MPa, areas mm^4.  Optional rigid transforms T_BI
(image in base) and T_GM (marker offset) are given as 12 numbers,
row-major 3x4; T_GM is a translation, its rotation block the identity.

Trajectory CSV: optional '# key=value' pragma lines, each key once, then a
header 't,q_s,theta,delta,x,y[,z]' and data rows; a pragma after the header
is refused, a plain '#' comment is allowed anywhere.  generate_synthetic is its
one writer and load_dataset its one reader, in one pass that checks each row in
full before it reads the next.  Angles are stored in degrees in files and converted
to radians by load_dataset; all other numbers pass through verbatim with 17
significant digits, so write/read round-trips are lossless.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FrameError, ParseError, ValidationError
from .calibration import Measurement
from .kinematics import micro_trajectory
from .model import (ConfigState, RobotParams, UncertaintyParams, _check_domain, _check_types,
                    _integer, _real)

_REQUIRED_KEYS = ("L", "r", "E_p", "E_i", "E_s", "I_p", "I_i", "I_s")
_TRANSFORM_KEYS = ("T_BI", "T_GM")
_TRAJECTORY_COLUMNS = ("t", "q_s", "theta", "delta", "x", "y", "z")
_HEADERS = (_TRAJECTORY_COLUMNS[:6], _TRAJECTORY_COLUMNS)
_FMT = "%.17g"
# sample rate of synthetic sweeps, Hz
_SYNTHETIC_HZ = 30.0
# obs_mask of a 2-D row (x and y observed): one read-only array shared by every such row
_PLANAR_OBSERVED = np.array([True, True, False, False, False, False])
_PLANAR_OBSERVED.flags.writeable = False


@dataclass(frozen=True, eq=False)
class RobotConfig:
    """Robot parameters, a RobotParams (model._check_types), plus the optional rig transforms
    (4x4, identity default), each finite and rigid with last row [0, 0, 0, 1] and held as a
    read-only float copy; T_GM, read only for its offset, must be a translation."""

    params: RobotParams
    T_BI: np.ndarray = field(default_factory=lambda: np.eye(4))
    T_GM: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        _check_types(params=self.params)
        for key in _TRANSFORM_KEYS:
            T = np.array(getattr(self, key), dtype=float)
            if T.shape != (4, 4) or not np.array_equal(T[3], [0.0, 0.0, 0.0, 1.0]):
                raise ValidationError(f"{key} is not a valid rigid transform: "
                                      "it must be 4x4 with last row [0, 0, 0, 1]")
            if not np.all(np.isfinite(T)):
                raise ValidationError(f"{key} is not a valid rigid transform: "
                                      "entries must be finite")
            R = T[:3, :3]
            if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9 or abs(np.linalg.det(R) - 1.0) > 1e-9:
                raise ValidationError(f"{key} is not a valid rigid transform")
            T.flags.writeable = False
            object.__setattr__(self, key, T)
        if np.max(np.abs(self.T_GM[:3, :3] - np.eye(3))) > 1e-9:
            raise ValidationError("T_GM must be a translation: its rotation must be the identity")


def default_params() -> RobotParams:
    """Bench single-segment robot: 44.3 mm NiTi segment, three secondaries."""
    return RobotParams(
        L=44.3, r=3.0,
        E_p=41000.0, E_i=41000.0, E_s=41000.0,
        I_p=0.0312, I_i=0.0312, I_s=0.0010,
        n=3,
    )


def _check_path(path) -> None:
    """ValidationError unless path is a str or an os.PathLike: open() takes an int or a bool
    as a file descriptor, which it would read or write and then close."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"path must be a str or os.PathLike, got {path!r}")


def load_robot_config(path) -> RobotConfig:
    """Parse a key = value robot config file; every error names the file.  path must be a str
    or an os.PathLike (_check_path), as for every file this module reads or writes."""
    _check_path(path)
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, _, rhs = line.partition("=")
            key = key.strip()
            rhs = rhs.strip()
            if not key or not rhs:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            if key in values:
                raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                if key in _TRANSFORM_KEYS:
                    parts = rhs.split()
                    if len(parts) != 12:
                        raise ParseError(
                            f"{path}:{lineno}: {key} needs 12 numbers (row-major 3x4)"
                        )
                    values[key] = np.vstack([np.reshape([float(p) for p in parts], (3, 4)),
                                             [0.0, 0.0, 0.0, 1.0]])
                elif key in _REQUIRED_KEYS + ("n",):
                    values[key] = int(rhs) if key == "n" else float(rhs)
                else:
                    raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ValidationError(f"{path}: config missing required field(s): {', '.join(missing)}")
    try:
        params = RobotParams(**{k: values[k] for k in _REQUIRED_KEYS}, n=values.get("n", 3))
        return RobotConfig(params=params, **{k: values[k] for k in _TRANSFORM_KEYS if k in values})
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e


def _write_csv(path, pragma, columns, rows) -> None:
    """A CSV of one '# pragma' line, the header of columns, then each row's values in _FMT."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {pragma}\n" + ",".join(columns) + "\n")
        fh.writelines(",".join(_FMT % v for v in row) + "\n" for row in rows)


def write_robot_config(path, config: RobotConfig) -> None:
    _check_path(path)
    if not isinstance(config, RobotConfig):  # worded as model._check_types
        raise ValidationError(f"config must be of type RobotConfig, got {config!r}")
    p = config.params
    lines = [f"{k} = {_FMT % getattr(p, k)}" for k in _REQUIRED_KEYS]
    lines.append(f"n = {p.n}")
    for key in _TRANSFORM_KEYS:
        T = getattr(config, key)
        if not np.array_equal(T, np.eye(4)):
            lines.append(f"{key} = " + " ".join(_FMT % v for v in T[:3, :].ravel()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path, config: RobotConfig):
    """Read a trajectory file into Measurement objects in the base frame of config's robot.

    config must be a RobotConfig.  One pass: the frame is decided at the header, where a 2-D
    image-frame file, its image z taken as 0, is refused (FrameError) if T_BI carries image z
    into base x or y.  Each data row is checked in full before the next line is read: its
    fields and t ('<path>:<line>'), then its domain (_check_domain, h = 0) and its Measurement
    ('<path>: row <row>'), so the first bad row is named, whatever its fault.  Image-frame
    positions are mapped through T_BI; the marker offset (translation of T_GM) is then
    removed.  3-D rows take the default obs_mask; 2-D rows share one read-only mask that
    observes only x and y.  Each run of consecutive rows with the same (theta, delta) bits
    shares one ConfigState, so calibration._commands reads a one-psi file's angles once.
    """
    _check_path(path)
    if not isinstance(config, RobotConfig):  # worded as model._check_types
        raise ValidationError(f"config must be of type RobotConfig, got {config!r}")
    R_BI, p_BI, offset = config.T_BI[:3, :3], config.T_BI[:3, 3], config.T_GM[:3, 3]
    pragmas: dict = {}
    measurements, width, prev_t, key = [], 0, -math.inf, None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, _, v = (t.strip() for t in body.partition("="))
                    if width or k in pragmas:
                        raise ParseError(f"{path}:{lineno}: pragma {k!r} "
                                         + ("after the header" if width else "repeated"))
                    pragmas[k] = v
                continue
            fields = line.split(",")
            if not width:
                if tuple(p.strip() for p in fields) not in _HEADERS:
                    raise ParseError(f"{path}:{lineno}: header must be t,q_s,theta,delta,x,y[,z]")
                width = len(fields)
                frame = pragmas.get("frame", "base")
                if frame not in ("base", "image"):
                    raise ParseError(f"{path}: unknown frame {frame!r}")
                image = frame == "image"
                if image and width == 6 and np.max(np.abs(config.T_BI[:2, 2])) > 1e-9:
                    raise FrameError(f"{path}: 2-D image-frame data needs a T_BI that maps "
                                     "image z into base z alone")
                mask = None if width == 7 else _PLANAR_OBSERVED
                continue
            if len(fields) != width:
                raise ParseError(f"{path}:{lineno}: expected {width} fields")
            try:
                try:  # float() takes the blanks round a field, so only the header is stripped
                    t, q_s, theta, delta, *xyz = map(float, fields)
                except ValueError:  # again on the stripped fields, which the message quotes
                    t, q_s, theta, delta, *xyz = (float(p.strip()) for p in fields)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
            if not math.isfinite(t):
                raise ParseError(f"{path}:{lineno}: t must be finite")
            if not t > prev_t:
                raise ParseError(f"{path}:{lineno}: t must increase monotonically")
            prev_t = t
            row = len(measurements) + 1
            # Python floats, so that a row inside the domain takes the check's scalar shortcut
            angles = math.radians(theta), math.radians(delta)
            _check_domain((*angles, q_s), 0.0, config.params.L, f"{path}: row", row)
            # a run of rows at one (theta, delta) shares one ConfigState; the sign of delta is
            # in the key, because -0.0 == 0.0 but their sines differ (theta = 0 is refused)
            row_key = (theta, delta, math.copysign(1.0, delta))
            if row_key != key:
                key, psi = row_key, ConfigState(*angles)
            p = np.array(xyz if width == 7 else xyz + [0.0])
            if image:
                p = R_BI @ p + p_BI
            try:
                measurements.append(Measurement(psi=psi, q_s=q_s, x_bar=p - offset, obs_mask=mask))
            except ValidationError as e:
                raise ValidationError(f"{path}: row {row}: {e}") from e
    if not width:
        raise ParseError(f"{path}: no header row")
    return measurements


def generate_synthetic(
    params: RobotParams,
    k_true: UncertaintyParams,
    theta: float,
    delta: float,
    qs_schedule,
    noise_sigma: float,
    seed: int,
    path=None,
):
    """Model-generated insertion sweep with seeded isotropic position noise.

    Returns the (N, 3) noisy base-frame positions, sampled at _SYNTHETIC_HZ,
    and writes them as a base-frame trajectory CSV when path is given.
    Identical arguments always produce identical data.  noise_sigma must be a
    real number, finite and >= 0 (model._real), seed an integer >= 0, path None, a str or an
    os.PathLike, and qs_schedule 1-D and of real numbers (micro_trajectory's
    rule), else ValidationError before anything is written.
    """
    _real("noise_sigma", noise_sigma, "be finite and >= 0")
    seed = _integer("seed", seed, 0)
    if path is not None:
        _check_path(path)
    pos, _, _ = micro_trajectory(params, ConfigState(theta, delta), qs_schedule, k_true)
    if pos.ndim != 2:
        raise ValidationError(f"qs_schedule must be 1-D, got shape {pos.shape[:-1]}")
    rng = np.random.default_rng(seed)
    noisy = pos + noise_sigma * rng.standard_normal(pos.shape)
    if path is not None:
        qs = np.asarray(qs_schedule, dtype=float)
        _write_csv(path, "frame=base", _TRAJECTORY_COLUMNS,
                   ([i / _SYNTHETIC_HZ, q, math.degrees(theta), math.degrees(delta), *xyz]
                    for i, (q, xyz) in enumerate(zip(qs.tolist(), noisy.tolist()))))
    return noisy
