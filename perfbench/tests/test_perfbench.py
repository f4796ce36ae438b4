"""Tests of the benchmark harness itself: spans, percentiles, failed ops."""

import json
import math
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(1, "outer", 0.0, 10.0, None, 0, False),
        Span(2, "a", 1.0, 4.0, 1, 0, False),
        Span(3, "b", 3.0, 6.0, 1, 0, False),    # overlaps a, as a worker thread would
        Span(4, "leaf", 2.0, 3.0, 2, 0, False),
        Span(5, "late", 9.5, 12.0, 1, 0, False),  # clipped to the parent's interval
    ]
    got = tracing.self_times(spans)
    assert got[1] == pytest.approx(10.0 - 5.0 - 0.5)
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)


def test_layer_metrics_aggregate_nested_spans_by_name():
    spans = [
        Span(1, "cli.main", 0.0, 1.0, None, 0, False),
        Span(2, "planar.is_planar_bruteforce", 0.1, 0.9, 1, 0, False),
        Span(3, "kernels.planar_check_table", 0.2, 0.8, 2, 0, False),
        Span(4, "kernels.planar_check_table", 1.2, 1.3, None, 1, True),
    ]
    counters = {"kernels.planar_check_table.planar": 1}
    got = tracing.layer_metrics(spans, counters)
    assert got["cli.main.self_s"][0] == pytest.approx(0.2)
    assert got["planar.is_planar_bruteforce.self_s"][0] == pytest.approx(0.2)
    assert got["kernels.planar_check_table.self_s"][0] == pytest.approx(0.7)
    assert got["kernels.planar_check_table.calls"][0] == 2
    assert got["kernels.planar_check_table.errors"][0] == 1
    assert got["kernels.planar_check_table.planar_ratio"][0] == 1.0
    assert got["semifields.nuclei.calls"][0] == 0
    assert set(got) >= {f"{name}.{key}" for name in tracing.LAYERS
                        for key in ("calls", "self_s", "errors")}


def test_tracer_records_parents_across_threads():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        inner()

    tracer.op = 7
    tracer.wrap("outer", outer)()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["outer"]
    assert top.parent is None and top.op == 7
    assert [s.parent for s in by_name["inner"]] == [top.id, top.id]


def test_install_wraps_every_lookup_site_and_uninstall_restores(tmp_path):
    from planar2 import cli, kernels, planar, semifields

    original = planar.is_planar_bruteforce
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert semifields.is_planar_bruteforce is planar.is_planar_bruteforce
        assert planar.is_planar_bruteforce is not original
        out = tmp_path / "r.json"
        assert cli.main(["check", "--terms", "(1,1,3);(1,1,5)", "--m", "2", "--k", "3",
                         "--out", str(out)]) == 0
    finally:
        tracing.uninstall(undo)
    assert planar.is_planar_bruteforce is original
    assert semifields.is_planar_bruteforce is original
    assert json.loads(out.read_text())["planar"] is True
    by_id = {s.id: s for s in tracer.spans}
    (kernel,) = [s for s in tracer.spans if s.name == "kernels.planar_check_table"]
    chain = [kernel.name]
    while chain[-1] != "cli.main":
        kernel = by_id[kernel.parent]
        chain.append(kernel.name)
    assert chain == ["kernels.planar_check_table", "planar.is_planar_bruteforce", "cli.main"]
    assert tracer.counters["kernels.planar_check_table.planar"] == 1
    assert kernels.planar_check_table.__name__ == "planar_check_table"


def test_percentile_is_nearest_rank_with_its_sample_count():
    values = [float(v) for v in range(200, 0, -1)]
    assert harness.percentile(values, 90) == (180.0, 200, 20)
    assert harness.percentile(values, 50) == (100.0, 200, 100)
    assert harness.percentile([3.0], 90) == (3.0, 1, 0)
    # failed executions rank above every success
    assert harness.percentile([1.0, math.inf, 2.0], 90) == (math.inf, 3, 0)


def test_wrong_verdict_counts_as_failed_not_fast(tmp_path):
    planted = workloads.Op("check", ["check", "--terms", "(1,0,2)", "--m", "2", "--k", "2"],
                           (2, 2), {"planted": True})
    slow_ok = workloads.Op("check", ["check", "--terms", "(1,0,1)", "--m", "2", "--k", "2"],
                           (2, 2), {"planted": False})

    def execute(op, scratch):
        wrong = op is planted   # answers fast, and says a planted instance is not planar
        report = {"agree": True, "planar": not wrong}
        (scratch / "report.json").write_text(json.dumps(report))
        return (1e-6 if wrong else 0.5), 0

    m = harness.measure([planted, slow_ok], 0, tmp_path, execute, workloads.verify)
    assert m.attempted == 2
    assert m.failures == [(planted.label, "a planted family instance reads non-planar")]
    assert m.samples == [[math.inf], [0.5]]
    metrics, _ = harness.end_to_end(m, [0.1], 1.0, [harness.REFERENCE_NOMINAL_S])
    assert metrics["op_p50_s"] == (0.5, "s", 2)
    assert metrics["op_p90_s"][0] == math.inf
    assert metrics["wall_s"][0] == math.inf


def test_times_scale_with_the_reference_and_memory_does_not():
    m = harness.Measurement([[1.0, 3.0], [2.0]], 3, [])
    nominal = harness.REFERENCE_NOMINAL_S
    scaled, raw = harness.end_to_end(m, [0.4], 50.0, [nominal * 2, nominal * 2, 9.0])
    assert raw["wall_s"] == (4.0, "s", 1) and raw["setup_s"] == (0.4, "s", 1)
    assert scaled["wall_s"] == (2.0, "s", 1) and scaled["setup_s"] == (0.2, "s", 1)
    assert scaled["op_p90_s"] == (1.5, "s", 3)
    assert scaled["peak_rss_mib"] == raw["peak_rss_mib"] == (50.0, "MiB", 1)


def test_crashing_op_counts_as_failed(tmp_path):
    op = workloads.Op("check", ["check"], (2, 2), {"planted": False})

    def execute(op, scratch):
        raise RuntimeError("boom")

    m = harness.measure([op], 0, tmp_path, execute, workloads.verify)
    assert m.failures == [("check", "RuntimeError: boom")] and m.samples == [[math.inf]]


def test_workload_inputs_depend_only_on_the_seed():
    labels = lambda seed: [op.label for op in workloads.build("structure", seed)]
    assert labels(3) == labels(3)
    assert labels(3) != labels(4)
    assert len(labels(3)) >= 100


def test_compare_warns_on_different_backends():
    import compare

    def result(backend, wall):
        env = {"backend": backend, "workload": "check", "nproc": 2, "python": "3",
               "numpy": "2", "threads": 1, "seed": 1, "git_sha": "x"}
        return {"env": env, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    lines = compare.compare(result("numpy", 2.0), result("numba", 1.0))
    assert lines[0] == "WARNING: different backend: numpy vs numba"
    assert any(line.startswith("wall_s") and "0.500" in line for line in lines)
    assert not any("WARNING" in line
                   for line in compare.compare(result("numpy", 2.0), result("numpy", 1.0)))
