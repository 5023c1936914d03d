"""Tests of the benchmark itself: every metric is emitted, failures are counted.

    python3 -m pytest perfbench/tests -q

The end-to-end tests run ``run.py`` with ``--small`` (reduced sweep and
pointwise inputs) and a short measuring time; the rest drive the workloads
in this process with deliberately wrong expectations.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from worker import measure  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

NAMED = {
    "sweep": {
        0: ["positions_per_s", "jacobians_per_s"],
        1: [f"{span}.us_per_sample.n{n}"
            for span in ("kinematics.micro_trajectory", "calibration.identification_jacobian")
            for n in (200, 2000, 20000)] + ["calibration.turning_point_index.us"],
    },
    "pointwise": {
        0: ["tick_us_p50", "tick_us_p99", "fd_points_per_s"],
        1: ["model.solve_equilibrium.us_p50", "kinematics.crem_pose.us_p50",
            "kinematics.crem_pose.us_p99", "differential.assemble_motion_jacobians.us_p50",
            "differential.assemble_motion_jacobians.us_p99",
            "differential.fd_discrepancies.ms_p50"],
    },
    "calibrate": {
        0: ["fit_exact_s", "fit_noisy_s", "fit_rot_s", "fit_noisy_rmse_um"],
        1: [f"calibration.{m}.{kind}" for m in ("gn_iterations", "gn_iter_ms")
            for kind in ("exact", "noisy", "rot")]
           + ["calibration.residual_rot.ms", "dataio.generate_synthetic.ms",
              "dataio.load_dataset.ms"],
    },
    "cli": {
        0: [f"cli_{cmd}_s" for cmd in ("simulate-micro", "simulate-macro", "jacobian-check",
                                       "gen-synthetic", "calibrate")],
        1: [f"cli.{cmd}.inproc_s" for cmd in ("simulate-micro", "simulate-macro",
                                              "jacobian-check", "gen-synthetic", "calibrate")]
           + ["dataio.generate_synthetic.ms", "dataio.load_dataset.ms"],
    },
}
EVERY_RUN = {0: ["setup_s", "failed_frac"],
             1: ["failed_frac", "import.crem_s", "import.scipy_signal_s", "trace.overhead_frac"]}


def test_spec_lists_the_workloads_and_metrics_run_py_emits():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(NAMED))
def test_reduced_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert final["metrics"] == {
        m["name"]: {"value": final["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec
    }
    for entry in final["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    reported = {line.split()[0] for line in lines[2:-1] if line.startswith("  ")}
    expected = NAMED[workload][trace] + EVERY_RUN[trace]
    assert not set(expected) - reported


def test_perturbed_reference_position_counts_as_failed(tmp_path):
    wl = workloads.Sweep(seed=1, small=True, workdir=tmp_path)
    first = measure(wl.ops, 0.0)
    assert first["failed"] == 0 and first["attempted"] == len(wl.ops)
    kind = wl.ops[0].kind
    pos, tp = wl.reference[kind]
    wl.reference[kind] = (pos + 1e-9, tp)
    second = measure(wl.ops, 0.0)
    assert second["attempted"] == len(wl.ops) and second["failed"] == 1


def test_wrong_true_k_counts_as_failed(tmp_path):
    wl = workloads.Calibrate(seed=1, small=True, workdir=tmp_path)
    noisy = [op for op in wl.ops if op.kind == "noisy"]
    assert measure(noisy, 0.0)["failed"] == 0
    wl.k_true = workloads.UncertaintyParams(0.25, 0.0, 0.025)
    assert measure(noisy, 0.0)["failed"] == 1


def test_fd_tolerance_breach_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.Pointwise(seed=1, small=True, workdir=tmp_path)
    fd = [op for op in wl.ops if op.kind == "fd"][:2]
    assert measure(fd, 0.0)["failed"] == 0
    monkeypatch.setattr(workloads, "FD_TOL", 1e-16)
    assert measure(fd, 0.0)["failed"] == 2


def test_wrong_cli_calibration_truth_counts_as_failed(tmp_path):
    wl = workloads.Cli(seed=1, small=True, workdir=tmp_path, inproc=True)
    assert measure(wl.ops, 0.0)["failed"] == 0
    wl.CALIBRATE_TRUTH = (6.0, -0.1)
    run = measure(wl.ops, 0.0)
    assert run["attempted"] == 5 and run["failed"] == 1


def test_raising_op_counts_as_failed():
    def boom():
        raise RuntimeError("op failed")

    ops = [Op("ok", lambda: 1, lambda out: out == 1), Op("boom", boom, lambda out: True)]
    run = measure(ops, 0.0)
    assert run["attempted"] == 2 and run["failed"] == 1
    assert set(run["samples"]) == {"ok", "boom"}


def test_refuses_a_checkout_without_crem(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "tracing.py"):
        (bench / name).write_bytes((BENCH / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
