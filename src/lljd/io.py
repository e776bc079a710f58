"""CSV ingestion and artifacts, reports and run manifests.

One reader and one writer serve every CSV. `read_columns_csv` counts the
file's lines and parses the numeric cells in one `np.loadtxt` call; only when
that parse fails or yields fewer rows than there are lines does it rescan
the file to name the first offending line. `write_table` writes named
columns, arrays or functions of a block's rows (index and time, say), one
block at a time with floats in shortest exact round-trip form: it holds that
block's text and no n-row column of its own. Reports and manifests share one
strict JSON writer that encodes into the open file: it holds a null-mapped
copy of the document's containers, never its text. Data artifacts carry no
timestamps: each gets a sibling ``<name>.manifest.json`` recording the
command, parameters, seeds, input digests, library version and timestamp.
"""

from __future__ import annotations

import csv
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError
from .proxy import ProxySeries, build_log_proxy

__all__ = [
    "sha256_file",
    "RunManifest",
    "Stages",
    "ingest_prices",
    "emit_report",
    "write_path_csv",
    "write_proxy_csv",
    "write_curve_csv",
    "write_cv_csv",
    "write_table",
    "csv_header",
    "read_columns_csv",
]

# Rows that write_table formats at a time, about 0.5 MB of Python strings for
# a path's four columns, however long the table. Larger blocks write no faster
# and raise the high-water mark that a process spawned afterwards inherits.
WRITE_BLOCK_ROWS = 1 << 11


def sha256_file(path) -> str:
    import hashlib  # loads OpenSSL, which only --in digests need

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
    diagnostics: dict = field(default_factory=dict)

    def write(self, out_path) -> Path:
        """Write the manifest next to the artifact it describes."""
        return _write_json(str(out_path) + ".manifest.json", asdict(self))


class Stages:
    """Seconds per named stage of a run, added to `seconds` (a new dict by
    default); each lap runs from the previous one."""

    def __init__(self, seconds: dict | None = None):
        self.start = self._last = time.perf_counter()
        self.seconds = {} if seconds is None else seconds

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + now - self._last
        self._last = now


def ingest_prices(path, price_col: str, delta: float):
    """Read the price column of a headed CSV and build the log-return-rate proxy.

    Only the price column is parsed, so other columns (timestamps, say) may
    hold anything. Consecutive rows are treated as uniformly delta-spaced
    (session gaps are not special-cased), a choice flagged in the returned
    diagnostics. Returns (ProxySeries, info dict).
    """
    prices = read_columns_csv(path, [price_col])[price_col]
    info = {"rows": len(prices), "dropped": 0, "delta": delta,
            "gaps_treated_as_uniform_steps": True}
    return build_log_proxy(prices, delta), info


def _strict_json(value):
    """`value` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _write_json(path, payload: dict) -> Path:
    """Encode `payload` into the file as deterministic strict JSON: keys
    sorted and non-finite floats written as null. If encoding raises, no
    file is left."""
    path = Path(path)
    try:
        with path.open("w") as fh:
            json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def emit_report(results: dict, path) -> Path:
    """Write a results dict as strict JSON, adding a schema_version field
    when absent."""
    return _write_json(path, {"schema_version": 1, **results})


def write_table(path, columns: dict) -> Path:
    """Write equal-length named columns as a headed CSV, one row per index.

    A column is a sequence, or a function of a block's rows (r0, r1) that
    returns that block; the sequences set the length. Each block is
    formatted by its type: floats with `repr`, the shortest decimal form
    that parses back to exactly the same float, anything else (ints, labels)
    with `str`. Rows are formatted and written WRITE_BLOCK_ROWS at a time.
    """
    sources = [c if callable(c) else np.asarray(c) for c in columns.values()]
    lengths = {len(c) for c in sources if not callable(c)}
    if len(lengths) > 1:
        raise ValidationError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    out = Path(path)
    with out.open("w") as fh:
        fh.write(",".join(columns) + "\n")
        for r0 in range(0, n_rows, WRITE_BLOCK_ROWS):
            r1 = min(r0 + WRITE_BLOCK_ROWS, n_rows)
            blocks = [c(r0, r1) if callable(c) else c[r0:r1] for c in sources]
            cells = [map(repr if b.dtype.kind == "f" else str, b.tolist()) for b in blocks]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return out


def write_path_csv(path, sample) -> Path:
    # per block, np.arange(r0, r1) * delta has the bits of the whole column's rows
    return write_table(path, {"i": np.arange, "t": lambda r0, r1: np.arange(r0, r1) * sample.delta,
                              "x": sample.x, "y": sample.y})


def write_proxy_csv(path, series: ProxySeries) -> Path:
    # the proxy at slot i summarises the step ending at (i+1)*delta
    return write_table(path, {"i": np.arange,
                              "t": lambda r0, r1: np.arange(r0 + 1, r1 + 1) * series.delta,
                              "xtilde": series.xt})


def write_curve_csv(path, est) -> Path:
    columns = {"x": est.grid, "mu_hat": est.mu_hat, "m_hat": est.m_hat, "n_eff": est.n_eff}
    if est.bands is not None:
        for name in ("lo_mu", "hi_mu", "lo_m", "hi_m"):
            columns[name] = getattr(est.bands, name)
    return write_table(path, columns)


def write_cv_csv(path, choice) -> Path:
    if choice.cv_curve is None:
        raise ValidationError("no cross-validation curve to write")
    h, cv = zip(*choice.cv_curve)
    return write_table(path, {"h": h, "cv": cv, "degenerate": choice.cv_degenerate})


def csv_header(path) -> list:
    """The stripped column names of a headed CSV."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
        header = next(csv.reader(fh), None)
    if header is None:
        raise ValidationError(f"{path}: empty file")
    return [h.strip() for h in header]


def _count_lines(path) -> int:
    """Lines in the file, a last line without a newline included."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
            last = block[-1:]
    return lines + (last != b"\n")


def read_columns_csv(path, columns=None) -> dict:
    """Read a headed numeric CSV into named float arrays.

    With `columns` None every cell is parsed and every row must have one cell
    per header name; otherwise only the named columns are parsed and every
    row must reach them. A well-formed file is parsed in bulk with no
    per-line Python work. Errors name the first offending line.
    """
    header = csv_header(path)
    path = Path(path)
    names = header if columns is None else list(columns)
    for name in names:
        if name not in header:
            raise ValidationError(f"{path}: missing column {name!r} (header: {header})")
    n_rows = _count_lines(path) - 1
    if n_rows == 0:
        return {name: np.empty(0) for name in names}
    usecols = None if columns is None else [header.index(name) for name in names]
    try:
        # np.loadtxt skips blank lines, so a blank row shows as a row shortfall
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                              quotechar='"', ndmin=2, usecols=usecols)
        if data.shape[1] != len(names):
            raise ValueError(f"rows have {data.shape[1]} cells, expected {len(names)}")
        if len(data) < n_rows:
            raise ValueError(f"parsed {len(data)} rows from {n_rows} lines")
    except ValueError as exc:
        raise ValidationError(f"{path}: {_first_bad_cell(path, header, usecols) or exc}") from None
    return dict(zip(names, data.T.copy()))


def _first_bad_cell(path, header, usecols):
    """The first blank, short, long or unparseable row, or None: why a bulk
    parse failed."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for line, row in enumerate(rows, start=2):
            if not "".join(row).strip():
                return f"blank row at line {line}"
            if usecols is None and len(row) != len(header):
                return f"row at line {line} has {len(row)} cells, expected {len(header)}"
            for j in usecols or range(len(header)):
                if j >= len(row):
                    return f"row at line {line} has no {header[j]!r} cell"
                try:
                    float(row[j])
                except ValueError:
                    return f"unparseable {header[j]!r} cell {row[j]!r} at line {line}"
