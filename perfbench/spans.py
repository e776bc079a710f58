"""Span tracing for one CLI invocation, and the arithmetic that turns spans
into per-layer metrics.

Run as a script, it imports ``lljd.cli``, wraps the layer functions that the
CLI and ``lljd.mcstudy`` call, runs the CLI and writes the spans as JSON:

    python3 perfbench/spans.py SPANS.json estimate --in path.csv --out curve.csv

Functions are wrapped where their caller binds them (``lljd.cli.estimate_curve``,
not ``lljd.estimators.estimate_curve``), so the calls a layer makes into lower
modules stay inside its own span: the kernel fits that ``attach_bands`` runs
count as inference time. ``kernels`` has no span; its work shows as the
computed kernel-evaluation counts of its callers.

A span's name is the stem of the per-layer metric it feeds: the metric
``<name>_s`` is the summed self time of the spans of that name. Self time is a
span's duration minus the part of it that its child spans cover. The spans
``cli.self`` (around ``main``) and ``mcstudy.self`` (around ``run_study``)
collect the time of those layers that no deeper span claims.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict

# Per-layer metrics and their units, in the order they are reported.
# "computed" units are derived from argument shapes, not measured; they
# count the work the dense algorithms do for those shapes.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "io.read_s": "s",
    "io.rows_read": "count",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "proxy.build_s": "s",
    "proxy.calls": "count",
    "bandwidth.rot_s": "s",
    "bandwidth.cv_s": "s",
    "bandwidth.cv_kernel_evals": "count.computed",
    "bandwidth.cv_degenerate_terms": "count",
    "bandwidth.cv_grid_edge": "count",
    "estimators.fit_s": "s",
    "estimators.fit_calls": "count",
    "estimators.kernel_evals": "count.computed",
    "estimators.matrix_bytes": "bytes.computed",
    "estimators.rss_added_mb": "MB",
    "estimators.undefined_points": "count",
    "inference.bands_s": "s",
    "inference.kernel_evals": "count.computed",
    "inference.rss_added_mb": "MB",
    "inference.undefined_points": "count",
    "simulate.path_s": "s",
    "simulate.calls": "count",
    "simulate.substeps": "count.computed",
    "simulate.calls_per_replicate": "ratio",
    "mcstudy.self_s": "s",
    "mcstudy.skipped_replicates": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}

# Span names whose call count is a metric.
CALL_COUNTS = {
    "proxy.build": "proxy.calls",
    "estimators.fit": "estimators.fit_calls",
    "simulate.path": "simulate.calls",
}

# Span names whose added peak RSS is a metric.
RSS_ADDED = {
    "estimators.fit": "estimators.rss_added_mb",
    "inference.bands": "inference.rss_added_mb",
}


def _bytes_written(result, args):
    return {"io.bytes_written": os.path.getsize(result)}


def _columns_read(result, args):
    return {"io.rows_read": len(next(iter(result.values())))}


def _prices_read(result, args):
    return {"io.rows_read": result[1]["rows"]}


def _cv_counts(choice, args):
    series, h_grid = args[0], args[1]
    n_terms = len(series.xt) - 2
    return {
        "bandwidth.cv_kernel_evals": n_terms * n_terms * len(h_grid),
        "bandwidth.cv_degenerate_terms": sum(choice.cv_degenerate),
        "bandwidth.cv_grid_edge": int(choice.h in (h_grid[0], h_grid[-1])),
    }


def _fit_counts(est, args):
    evals = len(est.grid) * est.n_terms
    return {
        "estimators.kernel_evals": evals,
        "estimators.matrix_bytes": 8 * evals,  # one float64 G x n kernel matrix
        "estimators.undefined_points": est.undefined_count,
    }


def _band_counts(bands, args):
    est, series = args[0], args[1]
    # two density passes over every proxy, two local cubic fits and one
    # fourth-moment fit over the estimating terms
    evals = len(est.grid) * (2 * len(series.xt) + 3 * est.n_terms)
    return {
        "inference.kernel_evals": evals,
        "inference.undefined_points": bands.undefined_mu + bands.undefined_m,
    }


def _path_counts(path, args):
    cfg = args[1]
    return {"simulate.substeps": (cfg.burn_in + cfg.n + 1) * cfg.substeps}


def _study_counts(report, args):
    return {
        "mcstudy.replicates": args[0].replicates,
        "mcstudy.skipped_replicates": report.skipped,
    }


# (module, attribute path, span name, counter of the call's result)
WRAPPED = (
    ("lljd.cli", "read_columns_csv", "io.read", _columns_read),
    ("lljd.cli", "ingest_prices", "io.read", _prices_read),
    ("lljd.cli", "sha256_file", "io.read", None),
    ("lljd.cli", "write_curve_csv", "io.write", _bytes_written),
    ("lljd.cli", "write_cv_csv", "io.write", _bytes_written),
    ("lljd.cli", "write_path_csv", "io.write", _bytes_written),
    ("lljd.cli", "write_proxy_csv", "io.write", _bytes_written),
    ("lljd.cli", "emit_report", "io.write", _bytes_written),
    ("lljd.io", "RunManifest.write", "io.write", _bytes_written),
    ("lljd.io", "build_log_proxy", "proxy.build", None),
    ("lljd.cli", "build_proxy", "proxy.build", None),
    ("lljd.mcstudy", "build_proxy", "proxy.build", None),
    ("lljd.cli", "rule_of_thumb", "bandwidth.rot", None),
    ("lljd.mcstudy", "rule_of_thumb", "bandwidth.rot", None),
    ("lljd.cli", "cross_validate", "bandwidth.cv", _cv_counts),
    ("lljd.cli", "estimate_curve", "estimators.fit", _fit_counts),
    ("lljd.mcstudy", "estimate_curve", "estimators.fit", _fit_counts),
    ("lljd.cli", "attach_bands", "inference.bands", _band_counts),
    ("lljd.cli", "simulate_path", "simulate.path", _path_counts),
    ("lljd.mcstudy", "simulate_path", "simulate.path", _path_counts),
    ("lljd.cli", "run_study", "mcstudy.self", _study_counts),
)


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records nested spans in memory: name, start, end, parent index, peak
    RSS at both ends (KiB) and the counts taken from the call's result."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name: str) -> dict:
        span = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "rss_start_kb": _max_rss_kb(),
            "counts": {},
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: dict) -> None:
        self._open.pop()
        span["end"] = time.perf_counter()
        span["rss_end_kb"] = _max_rss_kb()

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span["counts"] = counter(result, args)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counter in WRAPPED:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), name, counter))


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_values(spans):
    """Per span: (self time in s, self added peak RSS in KiB)."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(spans[idx])
    out = []
    for idx, span in enumerate(spans):
        kids = children[idx]
        covered = _covered(
            [(k["start"], k["end"]) for k in kids], span["start"], span["end"]
        )
        rss = span["rss_end_kb"] - span["rss_start_kb"]
        rss -= sum(k["rss_end_kb"] - k["rss_start_kb"] for k in kids)
        out.append((span["end"] - span["start"] - covered, rss))
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one invocation's spans, every name of
    PER_LAYER except the trace.* ones, which need the untraced wall time."""
    metrics = {name: 0 for name in PER_LAYER if not name.startswith("trace.")}
    for span, (self_s, self_rss_kb) in zip(spans, self_values(spans)):
        name = span["name"]
        metrics[name + "_s"] += self_s
        if name in CALL_COUNTS:
            metrics[CALL_COUNTS[name]] += 1
        if name in RSS_ADDED:
            metrics[RSS_ADDED[name]] += self_rss_kb / 1024.0
        for key, value in span["counts"].items():
            metrics[key] = metrics.get(key, 0) + value
    replicates = metrics.pop("mcstudy.replicates", 0)
    metrics["simulate.calls_per_replicate"] = (
        metrics["simulate.calls"] / replicates if replicates else 0.0
    )
    return metrics


def root_seconds(spans) -> float:
    """Time covered by spans that have no parent."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.begin("cli.import")
    cli = importlib.import_module("lljd.cli")
    tracer.end(span)
    tracer.install()
    span = tracer.begin("cli.self")
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.end(span)
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
