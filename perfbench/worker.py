"""One benchmark process: set up a workload, then (role ``measure``) run it.

Started by run.py, never by hand.  It prints ``READY`` as soon as the
workload's inputs exist, so the parent can time set-up from process start,
and with role ``measure`` ends with one JSON line holding the op counts,
the generic end-to-end metrics, the workload's named metrics and, when
traced, the per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import tracing
import workloads
from workloads import WORKLOADS, clock, median


def _timed(op):
    t0 = clock()
    try:
        out = op.run()
    except Exception:  # counted as a failed op; the run goes on
        traceback.print_exc()
        out = None
    return out, clock() - t0


def _checked(op, out) -> bool:
    if out is None:
        return False
    try:
        return bool(op.check(out))
    except Exception:  # a check that cannot read the output fails the op
        traceback.print_exc()
        return False


# The machine this benchmark was written on changes speed by up to 2x within
# seconds (other tenants on shared cores).  Op times are therefore also
# reported in units of a fixed reference timed around and inside the ops:
# a slow phase stretches both, and their ratio stays put.  In-process ops
# are set against a numpy kernel sampled every REF_INTERVAL_S from a timer
# signal; child-process ops against a child process that imports numpy,
# which loads libraries and unmarshals code much as ``python -m crem`` does.
REF_INTERVAL_S = 0.015
REF_WINDOW = 8  # kernel samples on each side of an op that also normalise it
REF_PROCESSES = 2  # reference processes after each child-process op
REF_PROCESS = (sys.executable, "-c", "import numpy")
_REF_A = np.arange(9.0).reshape(3, 3) / 10.0 + np.eye(3)
_REF_X = np.linspace(0.0, 1.0, 3 * 1024).reshape(-1, 3)


def reference_kernel() -> float:
    """Fixed work that never touches crem: small numpy calls in a Python loop,
    like crem's scalar path, then whole-array arithmetic, like its batched path."""
    v, s = np.ones(3), 0.0
    for i in range(40):
        b = _REF_A @ _REF_A.T + np.eye(3) * (i + 1)
        v = np.linalg.solve(b, v) + math.sin(i)
        s += float(np.sqrt(v @ v))
    y = _REF_X
    for _ in range(4):
        y = np.sin(y) * np.cos(y) + y @ _REF_A
    return s + float(y.sum())


class ReferenceSampler:
    """Runs and times ``reference_kernel`` on every SIGALRM of an interval timer.

    The handler runs in the main thread between bytecodes, so samples are
    spread evenly through the run, in the middle of an op as well as
    between ops.  ``total`` lets the caller take the handler's time back
    out of an in-process op.
    """

    def __init__(self):
        self.times: list[float] = []
        self.total = 0.0

    def _sample(self, signum, frame):
        t0 = clock()
        reference_kernel()
        self.times.append(clock() - t0)
        self.total += self.times[-1]


    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def pause():
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    @staticmethod
    def resume():
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    @contextlib.contextmanager
    def paused(self):
        self.pause()
        try:
            yield
        finally:
            self.resume()


def reference_process() -> float:
    t0 = clock()
    subprocess.run(REF_PROCESS, check=True, timeout=60)
    return clock() - t0


def measure(ops, seconds: float, tracer=None) -> dict:
    """Run rounds of ``ops`` until ``seconds`` have passed and one round is done.

    The deadline is tested before each op, so a run ends at most one op
    late.

    Untraced, a ``ReferenceSampler`` runs throughout, except while a
    child process runs, which would share the two cores with it.  An
    in-process op's time excludes the samples taken inside it, and is
    divided by the median of those samples and the ``REF_WINDOW`` on each
    side.  After a child-process op, ``REF_PROCESSES`` reference processes
    run, and the op is divided by the median of those and the ones before
    it.  The quotients are ``normalised``, in units of the reference.

    With a tracer each op runs twice, untraced and traced, alternating
    which goes first, so tracing overhead is measured on the same inputs
    without an order bias.  The references are off, so that their time
    lands in no span.
    """
    samples, traced = defaultdict(list), defaultdict(list)
    marks = []  # (kind, untraced seconds, reference series, slice of it)
    proc_refs = []  # reference process seconds
    attempted = failed = 0
    deadline = clock() + seconds
    rounds = 0
    passes = [False] if tracer is None else [False, True]
    with contextlib.ExitStack() as outer:
        ref = ReferenceSampler()
        sampling = tracer is None
        if sampling:
            outer.enter_context(ref)
        while True:
            for op in ops:
                if rounds and clock() >= deadline:
                    break
                for with_trace in passes:
                    with contextlib.ExitStack() as stack:
                        if with_trace:
                            stack.enter_context(tracer.installed())
                            stack.enter_context(tracer.op(op.kind))
                        elif sampling and not op.in_process:
                            stack.enter_context(ref.paused())
                        j0, r0 = len(ref.times), ref.total
                        out, dt = _timed(op)
                        dt -= ref.total - r0
                    (traced if with_trace else samples)[op.kind].append(dt)
                    attempted += 1
                    failed += not _checked(op, out)
                    if with_trace or not sampling:
                        continue
                    if op.in_process:
                        marks.append((op.kind, dt, ref.times,
                                      j0 - REF_WINDOW, len(ref.times) + REF_WINDOW))
                    else:
                        j0 = len(proc_refs)
                        with ref.paused():
                            proc_refs += [reference_process() for _ in range(REF_PROCESSES)]
                        marks.append((op.kind, dt, proc_refs,
                                      j0 - REF_PROCESSES, j0 + REF_PROCESSES))
                passes.reverse()
            else:
                rounds += 1
                continue
            break
    normalised = defaultdict(list)
    for kind, dt, series, lo, hi in marks:
        normalised[kind].append(dt / median(series[max(0, lo):hi]))
    return {"samples": samples, "traced": traced, "normalised": normalised,
            "refs": ref.times, "proc_refs": proc_refs, "attempted": attempted,
            "failed": failed, "rounds": rounds}


def round_cost(counts: Counter, samples) -> float:
    """Seconds for one round, each op kind at its median time."""
    return sum(n * median(samples[kind]) for kind, n in counts.items())


def weighted_median(counts: Counter, samples) -> float:
    """Median op time of a round, each op at the median time of its kind."""
    meds = sorted((median(samples[kind]), n) for kind, n in counts.items())
    half, seen = sum(counts.values()) / 2.0, 0
    for value, n in meds:
        seen += n
        if seen >= half:
            return value
    raise ValueError("no ops")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        tracer = None
        if args.trace and args.role == "measure":
            tracer = tracing.Tracer(also_patch=(workloads,))
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.op("setup"))
            wl = WORKLOADS[args.workload](args.seed, args.small, workdir,
                                          inproc=bool(args.trace))
        if args.trace:
            # measured by -X importtime even where crem no longer imports it
            import scipy.signal  # noqa: F401
        print("READY", flush=True)
        if args.role == "setup":
            return 0

        run = measure(wl.ops, args.seconds, tracer)
        counts = Counter(op.kind for op in wl.ops)
        samples = run["samples"]
        result = {
            "attempted": run["attempted"],
            "failed": run["failed"],
            "rounds": run["rounds"],
            "ops": sum(len(v) for v in samples.values()),
            "round_s": round_cost(counts, samples),
            "op_ms_p50": weighted_median(counts, samples) * 1e3,
            "round_ref": round_cost(counts, run["normalised"]),
            "op_ref_p50": weighted_median(counts, run["normalised"]),
            "ref_ms_p50": median(run["refs"]) * 1e3,
            "refs": len(run["refs"]),
            "ref_process_ms_p50": median(run["proc_refs"]) * 1e3,
            "ref_processes": len(run["proc_refs"]),
            "details": wl.details(samples),
        }
        if tracer is not None:
            traced = run["traced"]
            result["overhead_frac"] = round_cost(counts, traced) / result["round_s"] - 1.0
            result["layers"] = tracer.layer_shares(counts)
            result["by_name"] = tracer.by_name()
            result["trace_details"] = wl.trace_details(tracer, traced)
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
