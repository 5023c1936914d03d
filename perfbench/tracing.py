"""Spans around calls into crem's public functions, recorded from outside.

While a ``Tracer`` is installed, every public function defined in one of
crem's layer modules is replaced, in every crem module namespace that
refers to it, by a wrapper that records a span.  Calls between layers
(``crem_pose`` calling ``solve_equilibrium``) are caught because they go
through module globals.  ``rotations`` and ``errors`` are leaves and are
not wrapped, so their cost lands in the self time of the caller.

A span has a name, start, end, parent and group: ``parent`` indexes the
enclosing span (-1 at the root) and ``group`` numbers the benchmark op
(one tick, sweep, fit or command) that all spans under it belong to.
Spans stay in memory until ``write`` is called at the end of a run.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("model", "kinematics", "differential", "calibration", "dataio", "cli")


class Tracer:
    """Records spans; ``also_patch`` lists non-crem modules (the benchmark's
    own) whose imported crem functions are wrapped as well.

    Span fields live in flat arrays, which the garbage collector does not
    scan, so a long traced run does not slow down as spans pile up.
    """

    def __init__(self, also_patch=()):
        self._also_patch = tuple(also_patch)
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.groups = array("q")
        self.group_kinds: list[str] = []
        self._stack: list[int] = []
        self._group = -1
        self._patches = None

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.groups.append(self._group)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    def _patch_list(self):
        layer_modules = [importlib.import_module(f"crem.{name}") for name in LAYERS]
        wrapped = {}
        for mod in layer_modules:
            layer = mod.__name__.split(".")[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
        patches = []
        modules = [mod for mod_name, mod in list(sys.modules.items())
                   if mod_name == "crem" or mod_name.startswith("crem.")]
        for mod in modules + list(self._also_patch):
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    patches.append((mod, name, obj, wrapped[obj]))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Patch crem's public layer functions for the duration of the block."""
        if self._patches is None:
            self._patches = self._patch_list()
        for mod, name, _, traced in self._patches:
            setattr(mod, name, traced)
        try:
            yield self
        finally:
            for mod, name, original, _ in self._patches:
                setattr(mod, name, original)

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span ``bench.<kind>`` of one benchmark op, opening a new group."""
        self._group = len(self.group_kinds)
        self.group_kinds.append(kind)
        idx = self._open(f"bench.{kind}")
        try:
            yield
        finally:
            self._close(idx)
            self._group = -1

    def _rows(self):
        """(name, duration, self time, group) of every span."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            yield name, dur, dur - child[i], self.groups[i]

    def by_name(self) -> dict:
        """calls, busy_s and self_s for every span name."""
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name, dur, self_s, _ in self._rows():
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += dur
            entry["self_s"] += self_s
        return dict(sorted(out.items()))

    def durations(self, name: str, kinds=None) -> list[float]:
        """Durations of every span called ``name``, optionally only in ops of ``kinds``."""
        return [
            self.ends[i] - self.starts[i] for i, n in enumerate(self.names)
            if n == name and (kinds is None or (self.groups[i] >= 0 and
                                                self.group_kinds[self.groups[i]] in kinds))
        ]

    def layer_shares(self, round_counts: dict) -> dict:
        """Per layer: calls and share of op time spent in its own code, per round.

        Each op kind is weighted by how often it occurs in one round
        (``round_counts``), so a run that stopped part-way through a round
        reports the same mix as a whole round.
        """
        per_kind = defaultdict(lambda: {"ops": 0, "dur": 0.0,
                                        "calls": defaultdict(int),
                                        "self": defaultdict(float)})
        for name, dur, self_s, group in self._rows():
            if group < 0:
                continue
            acc = per_kind[self.group_kinds[group]]
            layer = name.split(".")[0]
            if layer == "bench":
                acc["ops"] += 1
                acc["dur"] += dur
            acc["calls"][layer] += 1
            acc["self"][layer] += self_s
        total = 0.0
        calls = defaultdict(float)
        self_s = defaultdict(float)
        for kind, acc in per_kind.items():
            weight = round_counts.get(kind, 0) / acc["ops"]
            total += weight * acc["dur"]
            for layer in LAYERS:
                calls[layer] += weight * acc["calls"][layer]
                self_s[layer] += weight * acc["self"][layer]
        return {layer: {"calls": round(calls[layer]),
                        "self_frac": self_s[layer] / total if total > 0 else 0.0}
                for layer in LAYERS}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"group_kinds": self.group_kinds,
                       "by_name": self.by_name(),
                       "spans": {"name": self.names, "start": self.starts.tolist(),
                                 "end": self.ends.tolist(), "parent": self.parents.tolist(),
                                 "group": self.groups.tolist()}}, fh)
