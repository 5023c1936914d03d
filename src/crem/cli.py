"""Command-line front end.

Subcommands: simulate-micro, simulate-macro, jacobian-check, calibrate,
gen-synthetic.  argparse parses every flag: a malformed one, an --eta,
--conv, --max-iter, --free, --noise or --seed value that the rules of
CalibrationConfig or generate_synthetic refuse, or a --theta, --delta or
--theta-range angle outside the model's domain (model._check_domain), is a
usage error before main loads the robot config named by --config (default:
the CREM_CONFIG environment variable).  --qs and --qs-range depths need the
config's L: out of range, they exit 1 when the command runs.  Each command
writes CSV through dataio's one writer and returns a summary, which main
prints as one line of JSON on stdout.  The simulate, jacobian-check and
calibrate artifacts start with '# schema=1'; gen-synthetic writes the
trajectory format, which starts with '# frame=base'.  Exit codes: 0
success, 1 numeric or file failure or a failed jacobian-check, 2 usage.
Identical invocations produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .calibration import (
    PARAM_NAMES,
    CalibrationConfig,
    direction_reversals,
    nls_estimate,
    split_at_turning_point,
)
from .dataio import (
    _check_noise_sigma,
    _write_csv,
    generate_synthetic,
    load_dataset,
    load_robot_config,
)
from .differential import _fd_discrepancy_arrays, _jacobian_arrays
from .errors import CremError
from .kinematics import _solved_chain, micro_trajectory
from .model import THETA_BASE, ConfigState, UncertaintyParams, _check_domain, _integer

_FD_TOL = 1e-6
_FREE_TOKENS = {"k0": "k_lambda0", "ktheta": "k_lambda_theta", "kq": "k_lambda_q"}


# argparse types: an ArgumentTypeError becomes a usage error that names the flag
def _range(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        if n < 1:
            raise ValueError("count must be >= 1")
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expects lo:hi:count, got {text!r} ({e})") from None
    return np.linspace(lo, hi, n)


def _k(text: str) -> UncertaintyParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expects three comma-separated numbers, got {text!r}")
    try:
        return UncertaintyParams(*(float(p) for p in parts))
    except (ValueError, CremError) as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _grid(text: str) -> dict:
    axes = {}
    for part in text.split(";"):
        name, _, rng = part.partition("=")
        name = name.strip()
        if name not in ("theta", "delta", "qs"):
            raise argparse.ArgumentTypeError(f"unknown grid axis {name!r}")
        if name in axes:
            raise argparse.ArgumentTypeError(f"axis {name!r} given twice")
        try:
            axes[name] = _range(rng)
        except argparse.ArgumentTypeError as e:
            raise argparse.ArgumentTypeError(f"{name} {e}") from None
    return axes


def _checked(parse, check):
    """A type that parses the text, then applies check, the library's own rule, to the
    value, so that a value the run would refuse is a usage error."""
    def convert(text: str):
        value = parse(text)
        try:
            check(value)
        except CremError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return value
    convert.__name__ = parse.__name__  # argparse reports a ValueError as "invalid float value"
    return convert


def _in_domain(axis: int):
    """A check for _checked of an angle flag in degrees, or of a range of them: their radians
    as theta (axis 0) or delta (axis 1) of model._check_domain, the other angle held inside
    the domain at the straight theta or delta = 0; the error names the first bad sample."""
    def check(degrees):
        angle = np.radians(degrees)
        _check_domain((angle, 0.0) if axis == 0 else (THETA_BASE, angle), 0.0, None, "sample", 0)
    return check


_THETA, _DELTA = _checked(float, _in_domain(0)), _checked(float, _in_domain(1))


def _free(text: str) -> tuple:
    free = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if tok not in _FREE_TOKENS:
            raise argparse.ArgumentTypeError(f"unknown parameter {tok!r} (use k0,ktheta,kq)")
        free.append(_FREE_TOKENS[tok])
    return tuple(free)


def cmd_simulate_micro(args, cfg) -> dict:
    qs = args.qs_range
    psi = ConfigState(math.radians(args.theta), math.radians(args.delta))
    pos, th_s, th_p = micro_trajectory(cfg.params, psi, qs, args.k_lambda)
    reversals = set(int(i) for i in direction_reversals(pos))
    _write_csv(args.out, "schema=1",
               ["q_s", "x", "y", "z", "theta_s", "theta_prime", "turning_point"],
               ([qs[i], *pos[i], math.degrees(th_s[i]), math.degrees(th_p[i]),
                 int(i in reversals)] for i in range(len(qs))))
    turning_qs = float(qs[min(reversals)]) if reversals else None
    return {
        "rows": int(len(qs)),
        "turning_point_qs": turning_qs,
        "out": args.out,
    }


def cmd_simulate_macro(args, cfg) -> dict:
    thetas = args.theta_range
    samples = np.radians(thetas), math.radians(args.delta), args.qs
    js = _jacobian_arrays(cfg.params, *samples, args.k_lambda,
                          *_solved_chain(cfg.params, *samples, args.k_lambda))
    cols = ["theta", "x", "y", "z"] + [f"jm{i + 1}{ax}" for i in range(3) for ax in "xyz"]
    _write_csv(args.out, "schema=1", cols,
               ([th_deg, *p, *JM.T.ravel()]
                for th_deg, p, JM in zip(thetas, js.p, js.J_M[:, :3, :])))
    return {"rows": len(thetas), "out": args.out}


def cmd_jacobian_check(args, cfg) -> dict:
    axes = args.grid or {}
    thetas = axes.get("theta", np.linspace(15.0, 75.0, 5))
    deltas = axes.get("delta", np.array([0.0, 40.0, 90.0]))
    qs_fracs = axes.get("qs", np.linspace(0.1, 0.9, 5))
    th, de, qs = (a.ravel() for a in np.meshgrid(thetas, deltas, qs_fracs * cfg.params.L,
                                                 indexing="ij"))
    errs = _fd_discrepancy_arrays(cfg.params, np.radians(th), np.radians(de), qs,
                                  args.k_lambda)
    worst = {key: float(np.max(v)) for key, v in errs.items()}
    if args.out:
        _write_csv(args.out, "schema=1", ["theta", "delta", "q_s", *errs],
                   np.column_stack([th, de, qs, *errs.values()]))
    return {
        "points": int(th.size),
        "max_errors": worst,
        "tolerance": _FD_TOL,
        "pass": all(v <= _FD_TOL for v in worst.values()),
    }


def cmd_calibrate(args, cfg) -> dict:
    measurements = load_dataset(args.data, cfg)
    split_info = None
    if args.split_turning_point:
        pre, post = split_at_turning_point(measurements)
        split_info = {"pre": len(pre), "post": len(post)}
        measurements = pre
    ccfg = CalibrationConfig(
        eta=args.eta, beta_conv=args.conv, max_iter=args.max_iter,
        free_params=args.free,
    )
    result = nls_estimate(measurements, cfg.params, ccfg, args.init)
    if args.out_trace:
        _write_csv(args.out_trace, "schema=1",
                   ["iteration", "k_lambda0", "k_lambda_q", "k_lambda_theta", "rmse_um",
                    "M_lambda"],
                   ([rec.iteration, rec.k.k_lambda0, rec.k.k_lambda_q, rec.k.k_lambda_theta,
                     rec.rmse_um, rec.M_lambda] for rec in result.trace))
    return {
        "samples": len(measurements),
        "split": split_info,
        "k_star": {name: getattr(result.k_star, name) for name in PARAM_NAMES},
        "rmse_initial_um": result.trace[0].rmse_um,
        "rmse_final_um": result.trace[-1].rmse_um,
        "iterations": result.trace[-1].iteration,
        "converged": result.converged,
        "eta_flagged": result.eta_flagged,
    }


def cmd_gen_synthetic(args, cfg) -> dict:
    qs = args.qs_range
    generate_synthetic(
        cfg.params, args.k_lambda, math.radians(args.theta), math.radians(args.delta),
        qs, args.noise, args.seed, path=args.out,
    )
    return {
        "rows": int(len(qs)),
        "noise": args.noise,
        "seed": args.seed,
        "out": args.out,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crem",
        description="Equilibrium-modulation continuum robot simulation and calibration",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="robot config file (default: $CREM_CONFIG)")
    k_lambda = argparse.ArgumentParser(add_help=False)
    k_lambda.add_argument("--k-lambda", type=_k, default="0,0,0",
                          help="uncertainty parameters k0,ktheta,kq (default 0,0,0)")

    p = sub.add_parser("simulate-micro", parents=[config, k_lambda],
                       help="tip trajectory of an insertion sweep")
    p.add_argument("--theta", type=_THETA, required=True, help="bend angle, deg")
    p.add_argument("--delta", type=_DELTA, default=0.0, help="bending plane, deg")
    p.add_argument("--qs-range", type=_range, required=True,
                   help="insertion sweep lo:hi:count, mm")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_simulate_micro)

    p = sub.add_parser("simulate-macro", parents=[config, k_lambda],
                       help="tip pose and J_M along a theta sweep")
    p.add_argument("--qs", type=float, required=True, help="insertion depth, mm")
    p.add_argument("--theta-range", type=_checked(_range, _in_domain(0)), required=True,
                   help="theta sweep lo:hi:count, deg")
    p.add_argument("--delta", type=_DELTA, default=0.0, help="bending plane, deg")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_simulate_macro)

    p = sub.add_parser("jacobian-check", parents=[config, k_lambda],
                       help="analytic Jacobians against finite differences on a grid")
    p.add_argument("--grid", type=_grid,
                   help="axes as theta=lo:hi:n;delta=lo:hi:n;qs=lo:hi:n "
                        "(theta/delta deg, qs fraction of L); default standard grid. "
                        "Every point must lie h = 1e-6, the difference step, inside "
                        "the model's domain")
    p.add_argument("--out", help="per-point error CSV")
    p.set_defaults(func=cmd_jacobian_check)

    p = sub.add_parser("calibrate", parents=[config],
                       help="identify uncertainty parameters from data")
    p.add_argument("--data", required=True, help="trajectory CSV")
    p.add_argument("--init", type=_k, default="0,0,0", help="initial k0,ktheta,kq")
    p.add_argument("--eta", type=_checked(float, lambda v: CalibrationConfig(eta=v)), default=1.0,
                   help="initial step length in (0, 1]; 1 is a full Gauss-Newton step")
    p.add_argument("--conv", type=_checked(float, lambda v: CalibrationConfig(beta_conv=v)),
                   default=1e-3,
                   help="relative M_lambda convergence threshold")
    p.add_argument("--max-iter", type=_checked(int, lambda v: CalibrationConfig(max_iter=v)),
                   default=500)
    p.add_argument("--free", type=_checked(_free, lambda v: CalibrationConfig(free_params=v)),
                   default="k0,kq", help="free parameters (k0,ktheta,kq)")
    p.add_argument("--split-turning-point", action="store_true",
                   help="calibrate on the pre-turning-point subset only")
    p.add_argument("--out-trace", help="iteration trace CSV")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("gen-synthetic", parents=[config, k_lambda],
                       help="model-generated noisy dataset")
    p.add_argument("--theta", type=_THETA, required=True, help="bend angle, deg")
    p.add_argument("--delta", type=_DELTA, default=0.0, help="bending plane, deg")
    p.add_argument("--qs-range", type=_range, required=True,
                   help="insertion sweep lo:hi:count, mm")
    p.add_argument("--noise", type=_checked(float, _check_noise_sigma), default=0.0,
                   help="position noise sigma, mm")
    p.add_argument("--seed", type=_checked(int, lambda v: _integer("seed", v, 0)), default=0)
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_gen_synthetic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    path = args.config or os.environ.get("CREM_CONFIG")
    if not path:
        parser.error("--config is required (or set CREM_CONFIG)")
    try:
        summary = args.func(args, load_robot_config(path))
    except (CremError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"command": args.command, **summary}))
    return 0 if summary.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
