"""The four workloads: seeded inputs, timed ops and their correctness checks.

Each workload builds every input from its seed in ``__init__`` (the
set-up that ``setup_s`` times) and exposes ``ops``, one round of work in
a fixed order.  An op's ``run`` is the timed call into crem; its
``check`` runs untimed afterwards and returns False on a wrong output,
so a failure is counted, not raised.  ``details`` turns the per-kind
timings of a run into the named end-to-end metrics of the workload, and
``trace_details`` turns the spans of a traced run into its per-layer
metrics.  See perfbench/README.md for why each workload exists.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from crem import (
    CalibrationConfig,
    ConfigState,
    Measurement,
    RobotConfig,
    UncertaintyParams,
    assemble_motion_jacobians,
    crem_pose,
    default_params,
    fd_discrepancies,
    generate_synthetic,
    identification_jacobian,
    load_dataset,
    micro_trajectory,
    nls_estimate,
    pose_error,
    turning_point_index,
    write_robot_config,
)
import crem.cli

clock = time.perf_counter
DEG = math.pi / 180.0
ALL_FREE = ("k_lambda0", "k_lambda_theta", "k_lambda_q")
# tolerances of the repository's own tests
POSITION_TOL_MM = 1e-12  # scalar vs batched tip position
JK_REL_TOL = 1e-12  # scalar vs batched J_k
FD_TOL = 1e-6  # acceptance criterion 5
_ZERO3 = np.zeros(3)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    in_process: bool = True  # False: run() waits on a child process


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def _random_k(rng) -> UncertaintyParams:
    return UncertaintyParams(float(rng.uniform(-0.5, 0.5)), 0.0,
                             float(rng.uniform(-0.05, 0.05)))


def _rel_close(a, b, tol) -> bool:
    """max |a - b| within ``tol`` of max |b|, and a finite."""
    if not np.all(np.isfinite(a)):
        return False
    return float(np.max(np.abs(a - b))) <= tol * float(np.max(np.abs(b)))


class Sweep:
    """Batched insertion sweeps: micro_trajectory, turning_point_index and
    identification_jacobian over mixed sweep lengths."""

    name = "sweep"
    LENGTHS = (200, 2_000, 20_000)

    def __init__(self, seed: int, small: bool, workdir: Path, inproc: bool = False):
        rng = np.random.default_rng(seed)
        self.params = default_params()
        L = self.params.L
        self.configs = []
        for i in range(3 if small else 24):
            theta = float(rng.uniform(15.0, 90.0)) * DEG
            if i % 8 == 0:
                theta = math.pi / 2.0  # exactly straight
            psi = ConfigState(theta, float(rng.uniform(-90.0, 90.0)) * DEG)
            k = _random_k(rng)
            n = self.LENGTHS[i % 3]
            qs = np.linspace(0.0, L, n)
            meas = [Measurement(psi=psi, q_s=float(q), x_bar=_ZERO3) for q in qs]
            picks = rng.integers(0, n, size=2)
            self.configs.append((f"cfg{i:02d}.n{n}", psi, k, qs, meas, picks))
        self.part_times = defaultdict(lambda: {"pos": [], "jac": []})
        # first-round output of each config; later rounds must repeat it exactly
        self.reference: dict[str, tuple] = {}
        self.ops = [Op(kind, self._runner(kind, psi, k, qs, meas),
                       self._checker(kind, psi, k, qs, picks))
                    for kind, psi, k, qs, meas, picks in self.configs]

    def _runner(self, kind, psi, k, qs, meas):
        def run():
            t0 = clock()
            pos, _, _ = micro_trajectory(self.params, psi, qs, k)
            tp = turning_point_index(pos)
            t1 = clock()
            J = identification_jacobian(meas, self.params, k, ALL_FREE)
            t2 = clock()
            self.part_times[kind]["pos"].append(t1 - t0)
            self.part_times[kind]["jac"].append(t2 - t1)
            return pos, tp, J
        return run

    def _checker(self, kind, psi, k, qs, picks):
        def check(out):
            pos, tp, J = out
            ref_pos, ref_tp = self.reference.setdefault(kind, (pos, tp))
            ok = np.array_equal(pos, ref_pos) and tp == ref_tp
            for i in picks:
                p = crem_pose(self.params, psi, float(qs[i]), k).tip.p
                ok = ok and float(np.max(np.abs(p - pos[i]))) <= POSITION_TOL_MM
                J_k = assemble_motion_jacobians(self.params, psi, float(qs[i]), k).J_k
                ok = ok and _rel_close(-J[6 * i:6 * i + 6], J_k, JK_REL_TOL)
            return ok
        return check

    def details(self, samples) -> dict:
        n = {kind: len(qs) for kind, _, _, qs, _, _ in self.configs}
        out = {}
        for part, metric in (("pos", "positions_per_s"), ("jac", "jacobians_per_s")):
            times = {kind: self.part_times[kind][part] for kind in n}
            out[metric] = (sum(n.values()) / sum(median(t) for t in times.values()),
                           "samples/s", sum(len(t) for t in times.values()))
        return out

    def trace_details(self, tracer, samples) -> dict:
        out = {}
        for n in self.LENGTHS:
            kinds = {kind for kind, *_ in self.configs if kind.endswith(f".n{n}")}
            for span in ("kinematics.micro_trajectory",
                         "calibration.identification_jacobian"):
                d = tracer.durations(span, kinds)
                out[f"{span}.us_per_sample.n{n}"] = (median(d) / n * 1e6, "us", len(d))
        d = tracer.durations("calibration.turning_point_index")
        out["calibration.turning_point_index.us"] = (median(d) * 1e6, "us", len(d))
        return out


class Pointwise:
    """Scalar API one configuration per call: ticks of crem_pose plus
    assemble_motion_jacobians, and fd_discrepancies points."""

    name = "pointwise"

    def __init__(self, seed: int, small: bool, workdir: Path, inproc: bool = False):
        rng = np.random.default_rng(seed)
        self.params = default_params()
        L = self.params.L
        n_ticks, n_fd = (40, 4) if small else (2_000, 100)
        ticks = []
        for j in range(n_ticks):
            theta = float(rng.uniform(15.0, 90.0)) * DEG
            if j % 16 == 0:
                theta = math.pi / 2.0
            psi = ConfigState(theta, float(rng.uniform(-90.0, 90.0)) * DEG)
            ticks.append(Op("tick", self._tick(psi, float(rng.uniform(0.02, 0.98)) * L,
                                                _random_k(rng)), self._tick_ok))
        fds = []
        for _ in range(n_fd):
            # criterion-5 domain; delta anywhere in (-pi, pi]
            psi = ConfigState(float(rng.uniform(15.0, 75.0)) * DEG,
                              math.pi - float(rng.uniform(0.0, 2.0 * math.pi)))
            qs = float(rng.uniform(0.1, 0.9)) * L
            fds.append(Op("fd", self._fd(psi, qs, _random_k(rng)), self._fd_ok))
        every = n_ticks // n_fd
        self.ops = []
        for j, tick in enumerate(ticks):
            self.ops.append(tick)
            if (j + 1) % every == 0:
                self.ops.append(fds[j // every])

    def _tick(self, psi, qs, k):
        def run():
            return (crem_pose(self.params, psi, qs, k),
                    assemble_motion_jacobians(self.params, psi, qs, k))
        return run

    @staticmethod
    def _tick_ok(out) -> bool:
        pose, js = out
        return all(bool(np.all(np.isfinite(a))) for a in
                   (pose.tip.p, pose.tip.R, js.J_M, js.J_mu, js.J_k))

    def _fd(self, psi, qs, k):
        return lambda: fd_discrepancies(self.params, psi, qs, k)

    @staticmethod
    def _fd_ok(errs) -> bool:
        return all(v <= FD_TOL for v in errs.values())

    def details(self, samples) -> dict:
        ticks, fd = samples["tick"], samples["fd"]
        return {
            "tick_us_p50": (median(ticks) * 1e6, "us", len(ticks)),
            "tick_us_p99": (percentile(ticks, 99) * 1e6, "us", len(ticks)),
            "fd_points_per_s": (1.0 / median(fd), "1/s", len(fd)),
        }

    def trace_details(self, tracer, samples) -> dict:
        out = {}
        d = tracer.durations("model.solve_equilibrium", {"tick"})
        out["model.solve_equilibrium.us_p50"] = (median(d) * 1e6, "us", len(d))
        for span in ("kinematics.crem_pose", "differential.assemble_motion_jacobians"):
            d = tracer.durations(span, {"tick"})
            out[f"{span}.us_p50"] = (median(d) * 1e6, "us", len(d))
            out[f"{span}.us_p99"] = (percentile(d, 99) * 1e6, "us", len(d))
        d = tracer.durations("differential.fd_discrepancies", {"fd"})
        out["differential.fd_discrepancies.ms_p50"] = (median(d) * 1e3, "ms", len(d))
        return out


class Calibrate:
    """nls_estimate with the default CalibrationConfig on the criterion-7
    sweep: noiseless, 2 um noise, and a quarter of it with orientation."""

    name = "calibrate"
    K_TRUE = UncertaintyParams(0.2, 0.0, 0.025)
    # (k0, k_q) relative tolerance and minimum RMSE drop, criterion 7
    BOUNDS = {"exact": (0.01, 0.99), "noisy": (0.10, 0.90), "rot": (0.10, 0.90)}

    def __init__(self, seed: int, small: bool, workdir: Path, inproc: bool = False):
        rng = np.random.default_rng(seed)
        self.params = default_params()
        self.k_true = self.K_TRUE
        config = RobotConfig(params=self.params)
        qs = np.linspace(0.0, 40.0, 382)
        data = {}
        for kind, noise, noise_seed in (("exact", 0.0, 0),
                                        ("noisy", 0.002, int(rng.integers(2**31)))):
            path = workdir / f"{kind}.csv"
            generate_synthetic(self.params, self.k_true, 45.0 * DEG, 0.0, qs,
                               noise, noise_seed, path=path)
            data[kind] = load_dataset(path, config)
        data["rot"] = [
            Measurement(psi=m.psi, q_s=m.q_s, x_bar=m.x_bar,
                        R_bar=crem_pose(self.params, m.psi, m.q_s, self.k_true).tip.R)
            for m in data["noisy"][::4]
        ]
        self.data = data
        self.iterations: dict[str, int] = {}
        self.final_rmse: dict[str, float] = {}
        self.ops = [Op(kind, self._fit(kind), self._checker(kind)) for kind in data]

    def _fit(self, kind):
        meas = self.data[kind]
        return lambda: nls_estimate(meas, self.params, CalibrationConfig(),
                                    UncertaintyParams.zero())

    def _checker(self, kind):
        def check(res):
            self.iterations[kind] = res.trace[-1].iteration
            self.final_rmse[kind] = res.trace[-1].rmse_um
            rel_tol, min_drop = self.BOUNDS[kind]
            k, truth = res.k_star, self.k_true
            rel0 = abs(k.k_lambda0 - truth.k_lambda0) / abs(truth.k_lambda0)
            relq = abs(k.k_lambda_q - truth.k_lambda_q) / abs(truth.k_lambda_q)
            drop = 1.0 - res.trace[-1].rmse_um / res.trace[0].rmse_um
            return res.converged and rel0 <= rel_tol and relq <= rel_tol and drop >= min_drop
        return check

    def details(self, samples) -> dict:
        out = {f"fit_{kind}_s": (median(samples[kind]), "s", len(samples[kind]))
               for kind in self.data}
        out["fit_noisy_rmse_um"] = (self.final_rmse.get("noisy", float("nan")), "um",
                                    len(samples["noisy"]))
        return out

    def trace_details(self, tracer, samples) -> dict:
        out = {}
        for kind in self.data:
            iters = self.iterations.get(kind, 0)
            out[f"calibration.gn_iterations.{kind}"] = (iters, "count", len(samples[kind]))
            fit = median(tracer.durations("calibration.nls_estimate", {kind}))
            out[f"calibration.gn_iter_ms.{kind}"] = (fit / max(iters, 1) * 1e3, "ms",
                                                     len(samples[kind]))
        reps = [self._residual_pass() for _ in range(5)]
        out["calibration.residual_rot.ms"] = (median(reps) * 1e3, "ms", len(reps))
        for span in ("dataio.generate_synthetic", "dataio.load_dataset"):
            d = tracer.durations(span)
            out[f"{span}.ms"] = (median(d) * 1e3, "ms", len(d))
        return out

    def _residual_pass(self) -> float:
        """One pass of crem_pose + pose_error over the orientation set."""
        t0 = clock()
        for m in self.data["rot"]:
            pose_error(m, crem_pose(self.params, m.psi, m.q_s, self.k_true).tip)
        return clock() - t0


class Cli:
    """The five README commands, each a fresh ``python -m crem`` process
    (in the traced run: ``crem.cli.main(argv)`` in this process)."""

    name = "cli"
    CALIBRATE_TRUTH = (5.0, -0.1)  # --k-lambda of gen-synthetic below

    def __init__(self, seed: int, small: bool, workdir: Path, inproc: bool = False):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.inproc = inproc
        cfg = str(workdir / "robot.cfg")
        write_robot_config(cfg, RobotConfig(params=default_params()))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(Path(crem.__file__).resolve().parent.parent)

        def out(name):
            return str(workdir / name)

        self.commands = [
            ("simulate-micro", ["--theta", "30", "--qs-range", "0:40:200",
                                "--k-lambda", "0.2,0,0.025", "--out", out("sweep.csv")],
             {"rows": 200, "csv": ("sweep.csv", 200)}),
            ("simulate-macro", ["--theta-range", "15:75:41", "--qs", "13.3",
                                "--out", out("macro.csv")],
             {"rows": 41, "csv": ("macro.csv", 41)}),
            ("jacobian-check", ["--out", out("fd.csv")],
             {"points": 75, "pass": True, "csv": ("fd.csv", 75)}),
            ("gen-synthetic", ["--theta", "30", "--qs-range", "0:40:200",
                               "--k-lambda", "5,0,-0.1", "--noise", "0.002",
                               "--seed", str(int(rng.integers(2**31))),
                               "--out", out("data.csv")],
             {"rows": 200, "csv": ("data.csv", 200)}),
            ("calibrate", ["--data", out("data.csv"), "--free", "k0,kq",
                           "--out-trace", out("trace.csv")],
             {"converged": True}),
        ]
        self.ops = [Op(cmd, self._runner([cmd, "--config", cfg, *argv]),
                       self._checker(cmd, expect), in_process=inproc)
                    for cmd, argv, expect in self.commands]

    def _runner(self, argv):
        def in_process():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = crem.cli.main(argv)
            return code, buf.getvalue()

        def subprocess_run():
            proc = subprocess.run([sys.executable, "-m", "crem", *argv], cwd=self.workdir,
                                  env=self.env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout

        return in_process if self.inproc else subprocess_run

    def _checker(self, cmd, expect):
        def check(out):
            code, stdout = out
            if code != 0:
                return False
            summary = json.loads(stdout.strip().splitlines()[-1])
            ok = summary.get("command") == cmd
            for key, want in expect.items():
                if key != "csv":
                    ok = ok and summary.get(key) == want
            if "csv" in expect:
                name, rows = expect["csv"]
                ok = ok and _csv_rows(self.workdir / name) == rows
            if cmd == "calibrate":
                k = summary["k_star"]
                ok = ok and _csv_rows(self.workdir / "trace.csv") == summary["iterations"] + 1
                for got, truth in zip((k["k_lambda0"], k["k_lambda_q"]), self.CALIBRATE_TRUTH):
                    ok = ok and abs(got - truth) <= 0.10 * abs(truth)
            return ok
        return check

    def details(self, samples) -> dict:
        return {f"cli_{cmd}_s": (median(samples[cmd]), "s", len(samples[cmd]))
                for cmd, _, _ in self.commands}

    def trace_details(self, tracer, samples) -> dict:
        out = {}
        for cmd, _, _ in self.commands:
            d = tracer.durations(f"bench.{cmd}", {cmd})
            out[f"cli.{cmd}.inproc_s"] = (median(d), "s", len(d))
        for span in ("dataio.generate_synthetic", "dataio.load_dataset"):
            d = tracer.durations(span)
            out[f"{span}.ms"] = (median(d) * 1e3, "ms", len(d))
        return out


def _csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    return len(lines) - 1  # header


WORKLOADS = {cls.name: cls for cls in (Sweep, Pointwise, Calibrate, Cli)}
