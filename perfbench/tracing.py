"""Spans around planar2's layer functions, recorded from outside the package.

install() replaces each function named in LAYERS, at every module or class
attribute of planar2 that holds it, by a wrapper that records one span per
call: name, start, end, parent span and op id. Nothing in src/ changes;
uninstall() puts the originals back. Spans stay in memory until the run
writes them out.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans. Child spans opened in a worker thread (the
converse sweep's thread pool) hang under the span that was open in the
thread that created the tracer, since that thread waits for them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = (
    "fields.field",
    "fields.tower",
    "kernels.planar_check_table",
    "kernels.planar_sweep",
    "planar.is_planar_bruteforce",
    "planar.is_planar_linearized",
    "planar.planar_by_criterion",
    "planar.DOPoly.value_table",
    "planar.family_param_space",
    "planar.family_coeffs",
    "planar.family_audit",
    "planar.offdiagonal_search",
    "surfaces.MvPoly.evaluate_vec",
    "surfaces.linear_factor_search",
    "surfaces.divmod_linear",
    "surfaces.build_G",
    "surfaces.specialize_normal",
    "surfaces.count_points_affine",
    "surfaces.count_points_projective",
    "surfaces.langweil_check",
    "surfaces.orbit_has_zero",
    "semifields.presemifield_from_planar",
    "semifields.to_semifield",
    "semifields.nuclei",
    "linearized.is_permutation",
    "linearized.inverse_map",
    "cli.main",
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: bool


# Counters taken from a layer's result, where the work is done:
# (counter name, function of the call's result).
_COUNTERS = {
    "kernels.planar_check_table": (("planar", lambda r: int(bool(r))),),
    "kernels.planar_sweep": (("rows", len), ("planar", lambda r: int(r.sum()))),
    "surfaces.divmod_linear": (("exact", lambda r: int(r[1].is_zero())),),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counters = _COUNTERS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            origin = stack or self._root
            parent = origin[-1] if origin else None
            sid = next(self._ids)
            stack.append(sid)
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.op, error))
            if counters:
                with self._lock:
                    for key, count in counters:
                        self.counters[f"{name}.{key}"] += count(result)
            return result

        return traced

    def adopt(self, rows):
        """Add spans recorded by another process (as written by write()),
        with their ids moved past this tracer's own."""
        offset = 10 ** 9
        for sid, name, start, end, parent, _, error in rows:
            self.spans.append(Span(sid + offset, name, start, end,
                                   None if parent is None else parent + offset, None, error))

    def write(self, path):
        """Spans as JSON lines: [id, name, start, end, parent, op, error]."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


def _owner(qualname: str):
    module, *path = qualname.split(".")
    owner = importlib.import_module(f"planar2.{module}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return owner, path[-1]


def install(tracer: Tracer, layers=LAYERS) -> list:
    """Wrap every layer function where callers look it up; returns the undo list."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "planar2" or name.startswith("planar2.")]
    undo = []
    for qualname in layers:
        owner, attr = _owner(qualname)
        original = vars(owner)[attr]
        wrapped = tracer.wrap(qualname, original)
        sites = [(owner, attr)]
        if not isinstance(owner, type):
            sites += [(m, k) for m in modules for k, v in vars(m).items()
                      if v is original and (m, k) != (owner, attr)]
        for site, key in sites:
            setattr(site, key, wrapped)
            undo.append((site, key, original))
    return undo


def uninstall(undo: list):
    for site, key, original in reversed(undo):
        setattr(site, key, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counters: dict[str, int]) -> dict:
    """Per-layer metrics: calls, self time and errors of every layer, plus the
    work counters and useful-outcome ratios of the kernels and the division."""
    selfs = self_times(spans)
    calls, self_s, errors = defaultdict(int), defaultdict(float), defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += selfs[s.id]
        errors[s.name] += s.error
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.errors"] = (errors[name], "count")
    check, sweep = "kernels.planar_check_table", "kernels.planar_sweep"
    rows = counters.get(f"{sweep}.rows", 0)
    out[f"{check}.planar_ratio"] = (
        _ratio(counters.get(f"{check}.planar", 0), calls[check] - errors[check]), "ratio")
    out[f"{sweep}.rows"] = (rows, "count")
    out[f"{sweep}.rows_per_s"] = (_ratio(rows, self_s[sweep]), "1/s")
    out[f"{sweep}.planar_ratio"] = (_ratio(counters.get(f"{sweep}.planar", 0), rows), "ratio")
    div = "surfaces.divmod_linear"
    out[f"{div}.exact_ratio"] = (
        _ratio(counters.get(f"{div}.exact", 0), calls[div] - errors[div]), "ratio")
    return out
