"""CSV ingestion, report emission and run manifests.

All data artifacts are deterministic: fixed field order, floats written in
shortest exact round-trip form, no timestamps. Each artifact gets a sibling
``<name>.manifest.json`` recording the command, parameters, seeds, input
digests and library version; the manifest carries the only timestamp.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError
from .proxy import ProxySeries, build_log_proxy

__all__ = [
    "fmt_float",
    "sha256_file",
    "RunManifest",
    "ingest_prices",
    "emit_report",
    "write_path_csv",
    "write_proxy_csv",
    "write_curve_csv",
    "write_cv_csv",
    "read_columns_csv",
]


def fmt_float(x) -> str:
    """Shortest decimal form that parses back to exactly the same float."""
    return repr(float(x))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: str
    params: dict
    master_seed: int | None = None
    version: str = __version__
    input_digests: dict = field(default_factory=dict)
    timestamp: float = field(default_factory=time.time)
    runtime_s: float | None = None

    def write(self, out_path) -> Path:
        """Write the manifest next to the artifact it describes."""
        path = Path(str(out_path) + ".manifest.json")
        payload = {
            "command": self.command,
            "params": self.params,
            "master_seed": self.master_seed,
            "version": self.version,
            "input_digests": self.input_digests,
            "timestamp": self.timestamp,
            "runtime_s": self.runtime_s,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def ingest_prices(path, price_col: str, delta: float, time_col: str | None = None):
    """Read a headed CSV of prices and build the log-return-rate proxy.

    Consecutive rows are treated as uniformly delta-spaced regardless of any
    time column (session gaps are not special-cased), and that choice is
    flagged in the returned diagnostics. Malformed cells, blank rows and
    non-positive prices are reported with their row and column.

    Returns (ProxySeries, info dict).
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    prices = []
    times = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if price_col not in header:
            raise ValidationError(
                f"{path}: missing price column {price_col!r} (header: {header})"
            )
        pidx = header.index(price_col)
        tidx = None
        if time_col is not None:
            if time_col not in header:
                raise ValidationError(f"{path}: missing time column {time_col!r}")
            tidx = header.index(time_col)
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                raise ValidationError(f"{path}: blank row at line {rownum}")
            if len(row) <= pidx:
                raise ValidationError(
                    f"{path}: row at line {rownum} has no {price_col!r} cell"
                )
            cell = row[pidx].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: unparseable {price_col!r} cell {cell!r} at line {rownum}"
                ) from None
            if not np.isfinite(value) or value <= 0.0:
                raise ValidationError(
                    f"{path}: non-positive price {cell!r} at line {rownum}"
                )
            prices.append(value)
            if tidx is not None and len(row) > tidx:
                times.append(row[tidx].strip())
    series = build_log_proxy(np.asarray(prices), delta)
    info = {
        "rows": len(prices),
        "dropped": 0,
        "delta": delta,
        "gaps_treated_as_uniform_steps": True,
        "times": times or None,
    }
    return series, info


def _strict_json(value):
    """`value` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def emit_report(results, format: str, path) -> Path:
    """Write a results payload deterministically.

    JSON: `results` is a dict; a schema_version field is added when absent,
    keys are sorted and non-finite floats are written as null, so the file is
    strict JSON. CSV: `results` is a list of dicts with identical keys, in
    row order.
    """
    path = Path(path)
    if format == "json":
        if not isinstance(results, dict):
            raise ValidationError("JSON reports take a dict payload")
        payload = _strict_json(dict(results))
        payload.setdefault("schema_version", 1)
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        path.write_text(text + "\n")
        return path
    if format == "csv":
        if not isinstance(results, list) or not results:
            raise ValidationError("CSV reports take a nonempty list of row dicts")
        header = list(results[0].keys())
        lines = [",".join(header)]
        for row in results:
            lines.append(
                ",".join(
                    fmt_float(v) if isinstance(v, (float, np.floating)) else str(v)
                    for v in (row[k] for k in header)
                )
            )
        path.write_text("\n".join(lines) + "\n")
        return path
    raise ValidationError(f"unknown report format {format!r}")


def write_path_csv(path, sample) -> Path:
    rows = ["i,t,x,y"]
    for i, (x, y) in enumerate(zip(sample.x, sample.y)):
        rows.append(f"{i},{fmt_float(i * sample.delta)},{fmt_float(x)},{fmt_float(y)}")
    out = Path(path)
    out.write_text("\n".join(rows) + "\n")
    return out


def write_proxy_csv(path, series: ProxySeries) -> Path:
    # the proxy at slot i summarises the step ending at (i+1)*delta
    rows = ["i,t,xtilde"]
    for i, v in enumerate(series.xt):
        rows.append(f"{i},{fmt_float((i + 1) * series.delta)},{fmt_float(v)}")
    out = Path(path)
    out.write_text("\n".join(rows) + "\n")
    return out


def write_curve_csv(path, est) -> Path:
    header = "x,mu_hat,m_hat,n_eff"
    bands = est.bands
    if bands is not None:
        header += ",lo_mu,hi_mu,lo_m,hi_m"
    rows = [header]
    for k in range(len(est.grid)):
        cells = [
            fmt_float(est.grid[k]),
            fmt_float(est.mu_hat[k]),
            fmt_float(est.m_hat[k]),
            fmt_float(est.n_eff[k]),
        ]
        if bands is not None:
            cells += [
                fmt_float(arr[k]) if arr is not None else "nan"
                for arr in (bands.lo_mu, bands.hi_mu, bands.lo_m, bands.hi_m)
            ]
        rows.append(",".join(cells))
    out = Path(path)
    out.write_text("\n".join(rows) + "\n")
    return out


def write_cv_csv(path, choice) -> Path:
    if choice.cv_curve is None:
        raise ValidationError("no cross-validation curve to write")
    rows = ["h,cv,degenerate"]
    for (h, cv), deg in zip(choice.cv_curve, choice.cv_degenerate):
        rows.append(f"{fmt_float(h)},{fmt_float(cv)},{deg}")
    out = Path(path)
    out.write_text("\n".join(rows) + "\n")
    return out


def read_columns_csv(path) -> dict:
    """Read a headed numeric CSV into named float arrays."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        cols = {h: [] for h in header}
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                raise ValidationError(f"{path}: blank row at line {rownum}")
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row at line {rownum} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            for h, cell in zip(header, row):
                try:
                    cols[h].append(float(cell))
                except ValueError:
                    raise ValidationError(
                        f"{path}: unparseable {h!r} cell {cell!r} at line {rownum}"
                    ) from None
    return {h: np.asarray(v) for h, v in cols.items()}
