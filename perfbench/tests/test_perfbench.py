"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent, rss=(0, 0), counts=None):
    return {
        "name": name,
        "start": start,
        "end": end,
        "parent": parent,
        "rss_start_kb": rss[0],
        "rss_end_kb": rss[1],
        "counts": counts or {},
    }


def test_self_time_of_nested_spans():
    tree = [
        span("cli.self", 0.0, 10.0, None, rss=(100, 4196)),
        span("io.read", 1.0, 4.0, 0, rss=(100, 1124)),
        span("mcstudy.self", 5.0, 9.0, 0, rss=(1124, 3172)),
        span("simulate.path", 6.0, 8.0, 2, rss=(1124, 2148)),
    ]
    got = spans.self_values(tree)
    assert [t for t, _ in got] == pytest.approx([3.0, 3.0, 2.0, 2.0])
    assert [r for _, r in got] == [1024, 1024, 1024, 1024]


def test_self_time_counts_overlapping_children_once():
    tree = [
        span("cli.self", 0.0, 10.0, None),
        span("io.read", 1.0, 4.0, 0),
        span("io.write", 3.0, 6.0, 0),
        span("io.write", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_values(tree)[0][0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_sum_self_times_and_counts():
    tree = [
        span("cli.self", 0.0, 10.0, None),
        span("mcstudy.self", 1.0, 9.0, 0, counts={
            "mcstudy.replicates": 2, "mcstudy.skipped_replicates": 0}),
        span("simulate.path", 1.0, 2.0, 1, counts={"simulate.substeps": 30}),
        span("simulate.path", 2.0, 3.0, 1, counts={"simulate.substeps": 30}),
        span("simulate.path", 3.0, 4.0, 1, counts={"simulate.substeps": 30}),
        span("estimators.fit", 4.0, 4.5, 1, rss=(0, 2048), counts={
            "estimators.kernel_evals": 10, "estimators.matrix_bytes": 80,
            "estimators.undefined_points": 1}),
        span("estimators.fit", 5.0, 5.5, 1, counts={
            "estimators.kernel_evals": 10, "estimators.matrix_bytes": 80,
            "estimators.undefined_points": 0}),
    ]
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["mcstudy.self_s"] == pytest.approx(8.0 - 3.0 - 1.0)
    assert m["simulate.path_s"] == pytest.approx(3.0)
    assert m["simulate.calls"] == 3
    assert m["simulate.substeps"] == 90
    assert m["simulate.calls_per_replicate"] == pytest.approx(1.5)
    assert m["estimators.fit_calls"] == 2
    assert m["estimators.kernel_evals"] == 20
    assert m["estimators.rss_added_mb"] == pytest.approx(2.0)
    assert m["estimators.undefined_points"] == 1
    assert m["io.read_s"] == 0
    assert "mcstudy.replicates" not in m
    assert set(m) == {k for k in spans.PER_LAYER if not k.startswith("trace.")}


def test_tracer_records_parents_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "proxy.build")
    outer = tracer.wrap(lambda x: inner(x) * 2, "estimators.fit",
                        lambda result, args: {"estimators.kernel_evals": result})
    assert outer(3) == 8
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("estimators.fit", None), ("proxy.build", 0)]
    assert tracer.spans[0]["counts"] == {"estimators.kernel_evals": 8}
    assert tracer.spans[0]["start"] <= tracer.spans[1]["start"]
    assert tracer.spans[1]["end"] <= tracer.spans[0]["end"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checker_accepts_the_reference_itself(name):
    ref = workloads.WORKLOADS[name].reference(0)
    assert workloads.mismatches(copy.deepcopy(ref), ref) == []


@pytest.mark.parametrize("name,key,index", [
    ("estimate_large", "mu_hat", 50),
    ("estimate_large", "hi_m", 0),
    ("empirical_cv", "lo_mu", 10),
    ("mc_table2", "rmse_ll", 4),
])
def test_checker_rejects_a_perturbed_output(name, key, index):
    ref = workloads.WORKLOADS[name].reference(0)
    got = copy.deepcopy(ref)
    got[key][index] += 1e-4 * max(abs(v) for v in got[key] if v is not None)
    assert any(m.startswith(key) for m in workloads.mismatches(got, ref))


def test_checker_rejects_another_bandwidth_missing_or_undefined_values():
    ref = workloads.WORKLOADS["empirical_cv"].reference(0)
    got = copy.deepcopy(ref)
    got["h"] *= 25 ** (1 / 24)  # the neighbouring point of the CV grid
    got["m_hat"][3] = math.nan
    del got["n_eff"]
    bad = workloads.mismatches(got, ref)
    assert [m.split(":")[0] for m in bad] == ["h", "m_hat", "n_eff"]


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
