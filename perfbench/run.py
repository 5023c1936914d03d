"""crem benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; crem is imported from ``src/`` there.
Workloads: sweep, pointwise, calibrate, cli (see perfbench/README.md).

Set-up is timed three times, each in a fresh interpreter, from process
start until the workload's inputs exist: two processes only set up, the
third goes on to measure.  ``setup_s`` is the median.  With ``--trace 1``
the same processes run under ``-X importtime`` and the measuring one
wraps crem's public functions in spans; the per-layer metrics replace
the end-to-end ones.

The report goes to standard output, and the last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record (environment, every named metric with its sample count) is
written to ``.perfbench_out/`` in the checkout.  Only the standard
library is used here, so a checkout without crem fails before any run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "pointwise", "calibrate", "cli")
LAYERS = ("model", "kinematics", "differential", "calibration", "dataio", "cli")
SETUPS = 3
DEADLINE_S = 170.0  # the whole run, all child processes included
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit; the metrics of the last line, as listed in BENCHMARK.json
END_TO_END = {"setup_s": "s", "round_ref": "ref"}
PER_LAYER = {"import.crem_s": "s", "import.scipy_signal_s": "s",
             "trace.overhead_frac": "frac"}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_frac"] = "frac"


def child_env() -> dict:
    """crem from this checkout; BLAS threads capped at the core count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    nproc = os.cpu_count() or 1
    for var in BLAS_VARS:
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))
    return env


def environment(env: dict, args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "platform": platform.platform(),
            "blas_threads": {var: env[var] for var in BLAS_VARS}}


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of ``crem`` and ``scipy.signal`` from ``-X importtime``."""
    found = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        if module in ("crem", "scipy.signal") and module not in found:
            try:
                found[module] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return found


def start_child(args, role: str, env: dict, log: Path):
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role, "--out-dir", str(OUT_DIR)]
    if args.small:
        cmd.append("--small")
    t0 = time.perf_counter()
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True, start_new_session=True)
    return proc, t0


def run_child(args, role: str, env: dict, log: Path, timeout: float):
    """Start a worker; return (seconds until READY, stdout lines after it, exit code).

    The worker, and any ``crem`` process it started, is killed if it is
    still running after ``timeout`` seconds.
    """
    proc, t0 = start_child(args, role, env, log)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    killer = threading.Timer(max(timeout, 0.0), kill_group)
    killer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                lines.append(line.rstrip("\n"))
    finally:
        killer.cancel()
        if proc.poll() is None:
            kill_group()
        code = proc.wait()
        proc.stdout.close()
    return ready, lines, code


def fail(message: str, log: Path | None = None) -> int:
    if log is not None and log.exists():
        sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "crem" / "__init__.py").is_file():
        return fail(f"no crem package under {ROOT / 'src'}; run from a crem checkout")
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    setup_times, imports, result = [], [], None
    with tempfile.TemporaryDirectory(prefix="logs-", dir=OUT_DIR) as logs:
        for i in range(SETUPS):
            role = "measure" if i == SETUPS - 1 else "setup"
            log = Path(logs) / f"{role}-{i}.log"
            ready, lines, code = run_child(args, role, env, log,
                                           DEADLINE_S - (time.perf_counter() - started))
            if code != 0 or ready is None:
                return fail(f"{role} process exited with code {code}", log)
            setup_times.append(ready)
            text = log.read_text(encoding="utf-8", errors="replace")
            if args.trace:
                imports.append(parse_importtime(text))
            elif text.strip():
                sys.stderr.write(text)  # tracebacks of failed ops
            if role == "measure":
                try:
                    result = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    return fail("measuring process printed no result", log)

    metrics = {}
    if args.trace:
        for key, module in (("import.crem_s", "crem"), ("import.scipy_signal_s", "scipy.signal")):
            values = [imp[module] for imp in imports if module in imp]
            if not values:
                return fail(f"-X importtime did not report {module}")
            metrics[key] = statistics.median(values)
        metrics["trace.overhead_frac"] = result["overhead_frac"]
        for layer, entry in result["layers"].items():
            metrics[f"{layer}.calls"] = entry["calls"]
            metrics[f"{layer}.self_frac"] = entry["self_frac"]
        units = PER_LAYER
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["round_ref"] = result["round_ref"]
        units = END_TO_END

    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        return fail(f"no finite value for {', '.join(bad)}")
    attempted, failed = result["attempted"], result["failed"]
    named = {"failed_frac": (failed / attempted, "frac", attempted)}
    if args.trace:
        # end-to-end numbers of a traced run include tracing, so it reports none
        named.update(result["trace_details"])
        for key in ("import.crem_s", "import.scipy_signal_s"):
            named[key] = (metrics[key], PER_LAYER[key], len(imports))
        named["trace.overhead_frac"] = (metrics["trace.overhead_frac"], "frac", result["ops"])
    else:
        named.update(result["details"])
        named["setup_s"] = (metrics["setup_s"], "s", len(setup_times))
        named["round_ref"] = (result["round_ref"], "ref", result["ops"])
        named["op_ref_p50"] = (result["op_ref_p50"], "ref", result["ops"])
        named["round_s"] = (result["round_s"], "s", result["ops"])
        named["op_ms_p50"] = (result["op_ms_p50"], "ms", result["ops"])
        if result["refs"]:
            named["ref_ms_p50"] = (result["ref_ms_p50"], "ms", result["refs"])
        if result["ref_processes"]:
            named["ref_process_ms_p50"] = (result["ref_process_ms_p50"], "ms",
                                           result["ref_processes"])

    info = environment(env, args)
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, {result['rounds']} full rounds, {result['ops']} ops")
    print("env: " + json.dumps(info, sort_keys=True))
    for name, (value, unit, n) in sorted(named.items()):
        print(f"  {name:<52} {value:>14.6g} {unit:<10} n={n}")
    if args.trace:
        print(f"  {'span':<52} {'calls':>10} {'busy_s':>10} {'self_s':>10}")
        for name, entry in result["by_name"].items():
            print(f"  {name:<52} {entry['calls']:>10} {entry['busy_s']:>10.4f} "
                  f"{entry['self_s']:>10.4f}")

    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}}
    record = {"env": info, "setup_times_s": setup_times, "result": final,
              "named": {k: {"value": v, "unit": u, "n": n}
                        for k, (v, u, n) in named.items()}}
    if args.trace:
        record["spans_by_name"] = result["by_name"]
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
