"""Span tracer that wraps the package's public functions from outside.

``install`` rebinds each listed function, in every loaded ``unzipseq``
module that holds a reference to it, to a wrapper that records a span
(function, start, end, parent span, op id); ``uninstall`` restores the
originals.  Spans stay in memory (compact arrays) until ``save``.  A
function's self time is its span's duration minus the time its direct child
spans cover.  A listed function the package no longer has is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (layer, function) pairs whose cost the per-layer metrics read.
TRACED = (
    ("energy", "environment_from_json"),
    ("walker", "simulate_ensemble"),
    ("walker", "accumulate_checkpoints"),
    ("inference", "build_edge_potentials"),
    ("inference", "decode_map"),
    ("inference", "log_partition"),
    ("inference", "prob_any_error"),
    ("inference", "log_prob_any_error"),
    ("inference", "log_prob_nonsuccessive_errors"),
    ("inference", "error_report"),
    ("inference", "site_posterior"),
    ("rates", "rate_report"),
    ("rates", "log_inv_pbar"),
    ("rates", "rc_site"),
    ("rates", "count_moments"),
    ("rates", "obstacle_height"),
    ("rates", "expected_unzip_time"),
    ("protocols", "run_protocol"),
    ("protocols", "estimate_energy"),
    ("protocols", "rc_energy"),
    ("cli", "main"),
)
WALKER = {"walker.simulate_ensemble", "walker.accumulate_checkpoints"}


class Tracer:
    def __init__(self, targets=TRACED):
        self.names = [f"{layer}.{fn}" for layer, fn in targets]
        n = len(self.names)
        self.calls = [0] * n
        self.failed = [0] * n
        self.self_s = [0.0] * n
        self.absent: list[str] = []
        self.steps = 0
        self.replicas = 0
        self.op = -1
        self._fid = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._parent = array("i")
        self._opid = array("i")
        self._stack: list[list] = []  # [span index, child seconds]
        self._bound: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for fid, (layer, fn) in enumerate(targets):
            module = sys.modules.get(f"unzipseq.{layer}")
            original = getattr(module, fn, None) if module is not None else None
            if original is None:
                self.absent.append(self.names[fid])
            else:
                self._wrappers[fid] = (original, self._wrap(fid, original))

    def _wrap(self, fid: int, fn):
        walker = self.names[fid] in WALKER
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            idx = len(self._fid)
            self._fid.append(fid)
            self._parent.append(stack[-1][0] if stack else -1)
            self._opid.append(self.op)
            self._t0.append(0.0)
            self._t1.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self._t0[idx] = t0
                self._t1[idx] = t1
                self.self_s[fid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.calls[fid] += 1
                if not ok:
                    self.failed[fid] += 1
            if walker:
                last = result[-1] if isinstance(result, list) else result
                self.steps += int(last.steps)
                self.replicas += int(last.R)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "unzipseq" or name.startswith("unzipseq."))]
        for original, wrapper in self._wrappers.values():
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in self._bound:
            setattr(module, attr, original)
        self._bound.clear()

    def self_of(self, name: str) -> float:
        return self.self_s[self.names.index(name)]

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def failed_of(self, name: str) -> int:
        return self.failed[self.names.index(name)]

    @property
    def n_spans(self) -> int:
        return len(self._t1)

    def save(self, path: Path) -> None:
        """Write every span as compressed arrays, in start order; ``parent``
        indexes into the same arrays (-1 for a top-level span)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self._fid, dtype=np.int32),
            start=np.frombuffer(self._t0, dtype=np.float64),
            end=np.frombuffer(self._t1, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            op=np.frombuffer(self._opid, dtype=np.int32),
        )
