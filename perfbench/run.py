"""Run one planar2 benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload check --seed 1 --seconds 28 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; their times are
scaled by a reference task timed in the same run (see harness.py and
reference.py). --trace 1
spends half the time untraced, then runs one traced pass over the op list
(so per-layer numbers describe a fixed amount of work), prints the
per-layer table and the tracing overhead (traced wall_s minus untraced
wall_s), and reports the per-layer metrics. Each metric is printed by name with its
unit and sample count; the last line of standard output is the result
as one JSON object. The full result, and the spans of a traced run, are
written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
REFERENCE_EVERY_S = 1.0
PROBE_TIMEOUT_S = 60


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    import numpy
    from planar2 import kernels
    from workloads import THREADS

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.backend(),
        "threads": THREADS[workload],
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
    }


def probe(towers, trace: bool = False) -> tuple[float, str]:
    """Seconds from starting a fresh interpreter until planar2 is imported and
    every listed tower is constructed, and the probe's output line."""
    argv = [sys.executable, str(Path(__file__).with_name("probe.py")), str(SRC),
            *(f"{m},{k}" for m, k in towers)]
    if trace:
        argv.append("--trace")
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed, line


@contextlib.contextmanager
def reference_timer():
    """A callable that times one reference task in the helper process."""
    argv = [sys.executable, str(Path(__file__).with_name("reference.py"))]
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        def time_once() -> float:
            proc.stdin.write("\n")
            proc.stdin.flush()
            return float(proc.stdout.readline())

        try:
            yield time_once
        finally:
            proc.stdin.close()
            proc.wait(timeout=PROBE_TIMEOUT_S)


def _finite(v):
    return v if math.isfinite(v) else None


def _print_metrics(metrics: dict, raw: dict):
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<14} {value:>14.6g} {unit:<4} n={samples:<5} [{raw[name][0]:.6g}]")


def _print_layers(metrics: dict, layers):
    print(f"  {'layer':<38} {'calls':>8} {'self_s':>12} {'errors':>7}")
    for layer in sorted(layers, key=lambda name: -metrics[f"{name}.self_s"][0]):
        calls, self_s, errors = (metrics[f"{layer}.{key}"][0]
                                 for key in ("calls", "self_s", "errors"))
        print(f"  {layer:<38} {calls:>8} {self_s:>12.6f} {errors:>7}")
    for name, (value, unit, _) in metrics.items():
        if name.rsplit(".", 1)[1] not in ("calls", "self_s", "errors"):
            print(f"  {name:<46} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "planar2" / "__init__.py").is_file():
        print(f"error: no planar2 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import planar2

    if Path(planar2.__file__).resolve().parent != (SRC / "planar2").resolve():
        print(f"error: planar2 imported from {planar2.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    towers = workloads.towers(ops)
    env = environment(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{tag}-{os.getpid()}"
    scratch.mkdir()
    result = {"env": env, "ops": len(ops)}
    print(f"# planar2 benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ops={len(ops)}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    def run(seconds, **kwargs):
        return harness.measure(ops, seconds, scratch, workloads.execute, workloads.verify,
                               **kwargs)

    try:
        if args.trace == 0:
            # Set-up probes and reference timings are spread over the run,
            # so they see the same host as the ops they are compared with.
            setup, reference = [], []
            with reference_timer() as time_reference:
                measured = [run(args.seconds, interleave=(
                    (lambda: setup.append(probe(towers)[0]), args.seconds / SETUP_PROBES),
                    (lambda: reference.append(time_reference()), REFERENCE_EVERY_S)))]
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, raw = harness.end_to_end(measured[0], setup, rss_mib, reference)
            result["reference_s"] = {"median": statistics.median(reference),
                                     "nominal": harness.REFERENCE_NOMINAL_S,
                                     "samples": len(reference)}
            result["raw_metrics"] = {name: {"value": _finite(v), "unit": u, "samples": n}
                                     for name, (v, u, n) in raw.items()}
        else:
            untraced = run(args.seconds / 2)
            tracer = tracing.Tracer()
            _, line = probe(towers, trace=True)
            tracer.adopt(json.loads(line))
            undo = tracing.install(tracer)
            try:
                traced = run(0, tracer=tracer)  # one pass: per-layer numbers are per pass
            finally:
                tracing.uninstall(undo)
            measured = [untraced, traced]
            metrics = {name: (value, unit, 1) for name, (value, unit)
                       in tracing.layer_metrics(tracer.spans, tracer.counters).items()}
            wall_untraced, wall_traced = harness.wall_s(untraced)[0], harness.wall_s(traced)[0]
            result["overhead"] = {"wall_s_untraced": wall_untraced,
                                  "wall_s_traced": wall_traced,
                                  "overhead_s": wall_traced - wall_untraced}
            tracer.write(OUT / f"spans-{tag}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(m.attempted for m in measured)
    failures = [f for m in measured for f in m.failures]
    print(f"# ops attempted={attempted} failed={len(failures)} "
          f"fail_ratio={len(failures) / attempted:.6g}")
    for label, problem in failures[:10]:
        print(f"#   FAILED {label[:100]}: {problem}")
    if args.trace == 0:
        ref = result["reference_s"]
        print(f"# end-to-end metrics (tracing off), times scaled by reference "
              f"{ref['nominal']:g} s / {ref['median']:.6g} s (n={ref['samples']}); "
              f"unscaled in brackets")
        _print_metrics(metrics, raw)
    else:
        print("# per-layer metrics (one traced pass; self time excludes child spans)")
        _print_layers(metrics, tracing.LAYERS)
        o = result["overhead"]
        print(f"# tracing overhead  workload={args.workload}  wall_s untraced="
              f"{o['wall_s_untraced']:.6g} traced={o['wall_s_traced']:.6g} "
              f"overhead={o['overhead_s']:.6g} s")

    result.update({
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:100],
        "metrics": {name: {"value": _finite(v), "unit": u, "samples": n}
                    for name, (v, u, n) in metrics.items()},
        "per_op": [{"op": op.label, "samples": [_finite(s) for s in per_op]}
                   for op, per_op in zip(ops, measured[-1].samples)],
    })
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": _finite(v), "unit": u}
                    for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
