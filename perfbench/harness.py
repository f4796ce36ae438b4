"""Closed-loop measurement of an op list and the end-to-end statistics.

One client runs the workload's ops in order, each after the previous one
finished, and cycles through the list until the run's time is up (always
at least one full pass). Every execution is checked; a failed one is
recorded as an infinite latency, so it can only make a percentile worse.

The host's speed drifts by up to a third within minutes, because of
neighbouring load. So between ops the run also times a fixed reference
task that does not touch planar2 (reference.py), and the end-to-end
times are scaled to a host on which that task takes REFERENCE_NOMINAL_S.
A change to planar2 moves the scaled times as it moves the raw ones; a
change in host speed moves the reference with them and cancels out. Raw
times are kept too.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

FAILED = math.inf
REFERENCE_NOMINAL_S = 0.025


@dataclass
class Measurement:
    samples: list[list[float]]          # seconds per execution, per op; FAILED if it failed
    attempted: int
    failures: list[tuple[str, str]]     # (op label, what was wrong)


def measure(ops, seconds: float, scratch, execute, verify, tracer=None,
            interleave=()) -> Measurement:
    """Run ops in a closed loop for `seconds` (at least one full pass).
    `interleave` holds (callable, every_s) pairs: each callable runs before
    the first op and then between two ops every every_s seconds; its time
    counts for no op."""
    samples = [[] for _ in ops]
    failures = []
    start = time.perf_counter()
    deadline = start + seconds
    due = [start] * len(interleave)
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        for j, (task, every) in enumerate(interleave):
            if time.perf_counter() >= due[j]:
                task()
                due[j] += every
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        try:
            elapsed, outcome = execute(op, scratch)
            if tracer is not None:
                tracer.enabled = False
            problem = verify(op, outcome, scratch)
        except Exception as exc:  # a crashing op is a failed op, the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.enabled = True
        samples[i % len(ops)].append(FAILED if problem else elapsed)
        if problem:
            failures.append((op.label, problem))
        i += 1
    return Measurement(samples, i, failures)


def percentile(values, p: float) -> tuple[float, int, int]:
    """Nearest-rank p-th percentile: (value, sample count, samples above it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered), len(ordered) - rank


def wall_s(m: Measurement) -> tuple[float, int]:
    """Time to solution: each op's median latency, summed over the op list;
    and the number of full passes behind the medians."""
    return sum(statistics.median(s) for s in m.samples), min(len(s) for s in m.samples)


def end_to_end(m: Measurement, setup: list[float], peak_rss_mib: float,
               reference: list[float]) -> tuple[dict, dict]:
    """Every end-to-end metric as name -> (value, unit, sample count): times
    scaled to the nominal reference speed, and the same metrics unscaled."""
    flat = [s for per_op in m.samples for s in per_op]
    p50, n, _ = percentile(flat, 50)
    p90, _, _ = percentile(flat, 90)
    wall, passes = wall_s(m)
    raw = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (wall, "s", passes),
        "op_p50_s": (p50, "s", n),
        "op_p90_s": (p90, "s", n),
        "peak_rss_mib": (peak_rss_mib, "MiB", 1),
    }
    scale = REFERENCE_NOMINAL_S / statistics.median(reference)
    scaled = {name: (value * scale if unit == "s" else value, unit, count)
              for name, (value, unit, count) in raw.items()}
    return scaled, raw
