import argparse
import gc
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from lljd import cli
from lljd.bandwidth import BandwidthChoice
from lljd.cli import main
from lljd.errors import ValidationError
from lljd.estimators import CV_BINS, CurveEstimate
from lljd.inference import ConfidenceBands
from lljd.io import (
    WRITE_BLOCK_ROWS,
    RunManifest,
    _count_lines,
    emit_report,
    ingest_prices,
    read_columns_csv,
    sha256_file,
    write_curve_csv,
    write_cv_csv,
    write_path_csv,
    write_proxy_csv,
    write_table,
)
from lljd.mcstudy import McConfig, qq_data, run_study
from lljd.proxy import ProxySeries, build_proxy
from lljd.simulate import (
    CompoundPoisson,
    JumpSizeDist,
    PathConfig,
    SamplePath,
    default_model,
    simulate_path,
)


def write_prices(path, rows, header="t,close"):
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_ingest_flat_prices(tmp_path):
    f = write_prices(tmp_path / "p.csv", ["0,100", "1,100", "2,100"])
    series, info = ingest_prices(f, "close", delta=1.0)
    assert np.array_equal(series.xt, [0.0, 0.0])
    assert info == {"rows": 3, "delta": 1.0}


def test_ingest_blank_row_reports_line(tmp_path):
    # empty, whitespace-only and empty-cell lines alike, through both readers
    for blank in ["", "   ", ","]:
        f = write_prices(tmp_path / "p.csv", ["0,100", blank, "2,101"])
        with pytest.raises(ValidationError, match="blank row at line 3"):
            ingest_prices(f, "close", delta=1.0)
        with pytest.raises(ValidationError, match="blank row at line 3"):
            read_columns_csv(f)


@pytest.mark.parametrize("text, line", [
    ("t,close\n0,100\n1,101\n\n", 4),  # a trailing blank line
    ("t,close\n0,100\n1,101\n   ", 4),  # a whitespace-only last line, no newline
    ("t,close\n\n", 2),
    ("t,close\n0,100\n\n1,101", 3),  # the last row, without a newline, still counts
])
def test_read_columns_row_shortfall_is_a_blank_row(tmp_path, text, line):
    # np.loadtxt skips these lines; the reader counts lines and notices
    f = tmp_path / "p.csv"
    f.write_text(text)
    for columns in (None, ["close"]):
        with pytest.raises(ValidationError, match=f"blank row at line {line}$"):
            read_columns_csv(f, columns)


def test_read_columns_scans_lines_only_when_the_bulk_parse_falls_short(tmp_path, monkeypatch):
    import lljd.io

    def no_scan(*args):
        raise AssertionError("a well-formed file was rescanned")

    monkeypatch.setattr(lljd.io, "_first_bad_cell", no_scan)
    f = write_prices(tmp_path / "p.csv", ["0,100", "1,101.5", "2,99"])
    assert np.array_equal(read_columns_csv(f)["close"], [100.0, 101.5, 99.0])
    f.write_text("t,close\n0,100\n1,101.5")  # no newline after the last row
    assert np.array_equal(read_columns_csv(f, ["t"])["t"], [0.0, 1.0])


@pytest.mark.parametrize("data", [
    b"t,close\n0,100\n1,101\n",  # a final newline
    b"t,close\n0,100\n1,101",  # none
    b"t,close\r\n0,100\r\n1,101\r\n",  # CRLF endings
    b"t,close",  # a single line
    b"t,close\n",
    b"t,close\n\n0,100\n\n\n1,101\n\n",  # blank lines
    b"",
    b"0,100\n" * 200_000 + b"1,101",  # past one read block, no final newline
], ids=["final-newline", "no-final-newline", "crlf", "single-line", "single-line-newline",
        "blank-lines", "empty", "many-blocks"])
def test_count_lines_matches_bytes_count(tmp_path, data):
    f = tmp_path / "p.csv"
    f.write_bytes(data)
    assert _count_lines(f) == data.count(b"\n") + (data[-1:] not in (b"", b"\n"))


def test_ingest_missing_column(tmp_path):
    f = write_prices(tmp_path / "p.csv", ["0,100"])
    with pytest.raises(ValidationError, match="price"):
        ingest_prices(f, "price", delta=1.0)


def test_ingest_unparseable_cell(tmp_path):
    f = write_prices(tmp_path / "p.csv", ["0,100", "1,n/a", "2,101"])
    with pytest.raises(ValidationError, match="line 3"):
        ingest_prices(f, "close", delta=1.0)


def test_ingest_nonpositive_price(tmp_path):
    f = write_prices(tmp_path / "p.csv", ["0,100", "1,-3", "2,101"])
    with pytest.raises(ValidationError, match=r"non-positive.* data row 1 \(value -3\.0\)$"):
        ingest_prices(f, "close", delta=1.0)


def test_ingest_round_trip_against_direct_proxy(tmp_path):
    path = simulate_path(default_model(), PathConfig(t_span=2.0, n=96, seed=4))
    prices = np.exp(path.y)
    rows = [f"{i},{float(p)!r}" for i, p in enumerate(prices)]
    f = write_prices(tmp_path / "p.csv", rows)
    series, _ = ingest_prices(f, "close", delta=path.delta)
    direct = build_proxy(path.y, path.delta)
    assert np.allclose(series.xt, direct.xt, atol=1e-10)


def test_read_columns_quoted_cells_and_crlf(tmp_path):
    f = tmp_path / "q.csv"
    f.write_bytes(b'a,b\r\n"1.5",2\r\n-3,"4e-3"\r\n')
    cols = read_columns_csv(f)
    assert list(cols) == ["a", "b"]
    assert np.array_equal(cols["a"], [1.5, -3.0])
    assert np.array_equal(cols["b"], [2.0, 4e-3])


@pytest.mark.parametrize("row, cells", [("1", 1), ("1,2,3", 3)])
def test_read_columns_rejects_row_of_wrong_width(tmp_path, row, cells):
    f = write_prices(tmp_path / "p.csv", ["0,100", row, "2,101"])
    with pytest.raises(ValidationError, match=f"line 3 has {cells} cells, expected 2"):
        read_columns_csv(f)


def test_read_columns_hash_cell_is_not_a_comment(tmp_path):
    f = write_prices(tmp_path / "p.csv", ["0,100", "#1,101"])
    with pytest.raises(ValidationError, match="unparseable 't' cell '#1' at line 3"):
        read_columns_csv(f)


def test_read_columns_cell_only_python_accepts_is_a_validation_error(tmp_path):
    # float() reads "1_000" but the bulk parse does not; the error still names the file
    f = write_prices(tmp_path / "p.csv", ["0,100", "1,1_000"])
    with pytest.raises(ValidationError, match=r"p\.csv: .*1_000"):
        read_columns_csv(f)


def test_read_columns_nan_cell_reads_as_nan(tmp_path):
    f = write_prices(tmp_path / "p.csv", ["0,nan", "1,2.5"])
    cols = read_columns_csv(f)
    assert np.isnan(cols["close"][0]) and cols["close"][1] == 2.5


@pytest.mark.parametrize("text, line", [
    (b"t,clo\xffse\n0,100\n1,101\n", 1),
    (b"t,close\n0,100\n1,10\xff1\n", 3),  # in a parsed cell
    (b"t,close\n0,100\n1\xff,101\n", 3),  # in a cell that is not parsed
    (b"t,close\n" + b"0,100\n" * 5000 + b"1,10\xff1\n", 5002),  # past the header's read
])
def test_read_columns_names_the_line_of_bytes_that_are_not_utf8(tmp_path, text, line):
    f = tmp_path / "p.csv"
    f.write_bytes(text)
    for columns in (None, ["close"]):
        with pytest.raises(ValidationError, match=f"bytes that are not UTF-8 at line {line}$"):
            read_columns_csv(f, columns)


def test_read_columns_header_only_gives_empty_columns(tmp_path):
    f = write_prices(tmp_path / "p.csv", [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = read_columns_csv(f)
    assert list(cols) == ["t", "close"]
    assert all(v.shape == (0,) for v in cols.values())


def test_path_csv_round_trip_is_exact(tmp_path):
    path = simulate_path(default_model(), PathConfig(t_span=2.0, n=300, seed=9))
    cols = read_columns_csv(write_path_csv(tmp_path / "path.csv", path))
    assert np.array_equal(cols["x"], path.x)
    assert np.array_equal(cols["y"], path.y)
    assert np.array_equal(cols["i"], np.arange(len(path.x)))


def test_cli_empirical_reads_only_the_price_column(tmp_path):
    path = simulate_path(default_model(), PathConfig(t_span=5.0, n=240, seed=3))
    start = datetime(2015, 1, 5, 9, 35)
    rows = [
        f"{(start + timedelta(minutes=5 * i)):%Y-%m-%d %H:%M},{float(p)!r}"
        for i, p in enumerate(np.exp(path.y))
    ]
    f = write_prices(tmp_path / "p.csv", rows, header="time,close")
    assert rows[0].startswith("2015-01-05 09:35,")
    curve = tmp_path / "curve.csv"
    assert main(["empirical", "--in", str(f), "--price-col", "close",
                 "--out", str(curve)]) == 0
    assert read_columns_csv(curve)["x"].size == 101


@pytest.mark.parametrize("command, header, options", [
    ("empirical", "close,time", ["--price-col", "close"]),
    ("estimate", "y,t", []),
])
def test_cli_reads_a_header_that_starts_with_a_byte_order_mark(tmp_path, command, header,
                                                               options):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF, before the first column's name
    path = simulate_path(default_model(), PathConfig(t_span=5.0, n=240, seed=3))
    values = np.exp(path.y) if command == "empirical" else path.y
    text = "\n".join([header] + [f"{float(v)!r},{i}" for i, v in enumerate(values)]) + "\n"
    curves = []
    for encoding in ("utf-8", "utf-8-sig"):
        f, out = tmp_path / f"{encoding}.csv", tmp_path / f"curve-{encoding}.csv"
        f.write_text(text, encoding=encoding)
        assert main([command, "--in", str(f), "--out", str(out), *options]) == 0
        curves.append(out.read_bytes())
    assert f.read_bytes().startswith(b"\xef\xbb\xbf" + header.encode())
    assert curves[0] == curves[1]


def test_cli_empirical_manifest_records_the_ingest(tmp_path):
    path = simulate_path(default_model(), PathConfig(t_span=5.0, n=240, seed=3))
    rows = [f"{i},{float(p)!r}" for i, p in enumerate(np.exp(path.y))]
    f = write_prices(tmp_path / "p.csv", rows)
    curve = tmp_path / "curve.csv"
    assert main(["empirical", "--in", str(f), "--price-col", "close", "--delta", "1/96",
                 "--out", str(curve)]) == 0
    manifest = json.loads(Path(f"{curve}.manifest.json").read_text())
    assert manifest["diagnostics"]["ingest"] == {"rows": 242, "delta": 1 / 96}
    # and the undefined grid points of the curve, and of the bands when given
    for bands in ([], ["--bands", "0.05"]):
        assert main(["empirical", "--in", str(f), "--price-col", "close", "--out", str(curve)]
                    + bands) == 0
        record = fit_record(curve)
        assert {k: record[k] for k in ("undefined_count", "undefined_mu", "undefined_m")} == (
            undefined_counts(curve))
        assert (record["undefined_mu"] is None) == (not bands)


def test_path_and_proxy_csv_exact_text(tmp_path):
    sample = SamplePath(delta=0.1, x=np.array([0.5, -1.25, 1e-20, 2.0 / 3.0]),
                        y=np.array([0.0, 0.05, -0.075, 1e300]), seed=1)
    assert write_path_csv(tmp_path / "p.csv", sample).read_text() == (
        "i,t,x,y\n0,0.0,0.5,0.0\n1,0.1,-1.25,0.05\n2,0.2,1e-20,-0.075\n"
        "3,0.30000000000000004,0.6666666666666666,1e+300\n"
    )
    series = ProxySeries(delta=0.1, xt=np.array([1.5, -0.1, 2.0 / 3.0]))
    assert write_proxy_csv(tmp_path / "x.csv", series).read_text() == (
        "i,t,xtilde\n0,0.1,1.5\n1,0.2,-0.1\n2,0.30000000000000004,0.6666666666666666\n"
    )


def test_curve_and_cv_csv_exact_text(tmp_path):
    est = CurveEstimate(grid=np.array([-0.5, 0.25]), mu_hat=np.array([1.0, np.nan]),
                        m_hat=np.array([0.1, 0.125]), h=0.2, n_eff=np.array([10.0, 0.0]),
                        delta=0.1, n_terms=8, method="local_linear", undefined_count=1)
    assert write_curve_csv(tmp_path / "c.csv", est).read_text() == (
        "x,mu_hat,m_hat,n_eff\n-0.5,1.0,0.1,10.0\n0.25,nan,0.125,0.0\n"
    )
    est.bands = ConfidenceBands(alpha=0.05, lo_mu=np.array([0.5, np.nan]),
                                hi_mu=np.array([1.5, np.nan]), lo_m=np.full(2, np.nan),
                                hi_m=np.full(2, np.nan))
    assert write_curve_csv(tmp_path / "cb.csv", est).read_text() == (
        "x,mu_hat,m_hat,n_eff,lo_mu,hi_mu,lo_m,hi_m\n"
        "-0.5,1.0,0.1,10.0,0.5,1.5,nan,nan\n"
        "0.25,nan,0.125,0.0,nan,nan,nan,nan\n"
    )
    choice = BandwidthChoice(h=0.2, method="cross_validation",
                             cv_curve=((0.1, 2.5), (0.2, 1.0 / 3.0)), cv_degenerate=(0, 3))
    assert write_cv_csv(tmp_path / "cv.csv", choice).read_text() == (
        "h,cv,degenerate\n0.1,2.5,0\n0.2,0.3333333333333333,3\n"
    )
    with pytest.raises(ValidationError, match="no cross-validation curve"):
        write_cv_csv(tmp_path / "none.csv", BandwidthChoice(h=0.2, method="fixed"))


def test_write_table_exact_text_of_numpy_values(tmp_path):
    columns = {
        "x": [np.float64(0.1), np.float32(0.5)],
        "lo": np.array([np.nan, 1e-7]),
        "n": [np.int64(7), 0],
        "tag": ["ll", "nw"],
    }
    out = write_table(tmp_path / "r.csv", columns)
    assert out.read_text() == "x,lo,n,tag\n0.1,nan,7,ll\n0.5,1e-07,0,nw\n"


def test_emit_report_deterministic_and_exact(tmp_path):
    payload = {"kind": "test", "value": 0.1 + 0.2, "items": [1.5, float(np.pi)]}
    a = emit_report(payload, tmp_path / "a.json")
    b = emit_report(payload, tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()
    back = json.loads(a.read_text())
    assert back["value"] == 0.1 + 0.2
    assert back["items"][1] == float(np.pi)
    assert back["schema_version"] == 1


def test_curve_csv_headers(tmp_path):
    from lljd.bandwidth import rule_of_thumb
    from lljd.estimators import EstimatorConfig, estimate_curve
    from lljd.inference import attach_bands

    path = simulate_path(default_model(), PathConfig(t_span=5.0, n=400, seed=5))
    pr = build_proxy(path.y, path.delta)
    est = estimate_curve(pr, None, EstimatorConfig(rule_of_thumb(pr, 5.0).h))
    out = write_curve_csv(tmp_path / "c.csv", est)
    assert out.read_text().splitlines()[0] == "x,mu_hat,m_hat,n_eff"
    attach_bands(est, pr, alpha=0.05)
    out = write_curve_csv(tmp_path / "cb.csv", est)
    assert out.read_text().splitlines()[0] == "x,mu_hat,m_hat,n_eff,lo_mu,hi_mu,lo_m,hi_m"
    cols = read_columns_csv(out)
    assert len(cols["x"]) == 101


def test_manifest_records_digests(tmp_path):
    f = write_prices(tmp_path / "in.csv", ["0,1.0"])
    manifest = RunManifest(
        command="estimate",
        params={"h": "auto"},
        input_digests={str(f): sha256_file(f)},
    )
    out = manifest.write(tmp_path / "curve.csv")
    assert out.name == "curve.csv.manifest.json"
    data = json.loads(out.read_text())
    assert data["command"] == "estimate"
    assert data["input_digests"][str(f)] == sha256_file(f)
    assert data["version"]


def test_cli_simulate_writes_documented_header(tmp_path, capsys):
    out = tmp_path / "path.csv"
    code = main(
        ["simulate", "--t", "2", "--n", "100", "--seed", "3", "--jump", "cp", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "i,t,x,y"
    assert len(lines) == 103  # header + n + 2 observations
    assert (tmp_path / "path.csv.manifest.json").exists()


def test_cli_manifests_record_seed_and_input_digest(tmp_path):
    path_csv, curve_csv = tmp_path / "path.csv", tmp_path / "curve.csv"
    assert main(["simulate", "--t", "2", "--n", "100", "--seed", "3", "--out", str(path_csv)]) == 0
    assert main(["estimate", "--in", str(path_csv), "--out", str(curve_csv)]) == 0
    sim = json.loads((tmp_path / "path.csv.manifest.json").read_text())
    est = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert (sim["command"], sim["master_seed"], sim["input_digests"]) == ("simulate", 3, {})
    assert (est["command"], est["master_seed"]) == ("estimate", None)
    assert est["input_digests"] == {str(path_csv): sha256_file(path_csv)}
    assert est["params"]["infile"] == str(path_csv) and est["runtime_s"] >= 0.0


def test_cli_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--t", "2", "--n", "150", "--seed", "11", "--jump", "vg"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_estimate_pipeline(tmp_path):
    path_csv = tmp_path / "path.csv"
    curve_csv = tmp_path / "curve.csv"
    assert main(["simulate", "--t", "5", "--n", "500", "--seed", "2", "--out", str(path_csv)]) == 0
    assert main(["estimate", "--in", str(path_csv), "--out", str(curve_csv),
                 "--bands", "0.05"]) == 0
    cols = read_columns_csv(curve_csv)
    assert set(cols) == {"x", "mu_hat", "m_hat", "n_eff", "lo_mu", "hi_mu", "lo_m", "hi_m"}
    # drift estimate slopes downward for the mean-reverting model
    ok = np.isfinite(cols["mu_hat"])
    slope = np.polyfit(cols["x"][ok], cols["mu_hat"][ok], 1)[0]
    assert slope < 0
    # the manifest records how each kernel pass took its sums: exactly, on
    # a sample this small, and binned with 2^16 terms or more
    exact = {"backend": "exact", "bins": None, "rescored": None}
    assert fit_record(curve_csv) == {"curve": exact, "pilot": exact, **undefined_counts(curve_csv)}
    assert main(["estimate", "--in", str(path_csv), "--out", str(curve_csv)]) == 0
    assert fit_record(curve_csv) == {"curve": exact, "pilot": None, **undefined_counts(curve_csv)}
    assert fit_record(curve_csv)["undefined_mu"] is None
    # grid points far past the data are undefined in the curve and both bands
    assert main(["estimate", "--in", str(path_csv), "--out", str(curve_csv), "--bands", "0.05",
                 "--grid-lo", "-50", "--grid-hi", "50"]) == 0
    counts = undefined_counts(curve_csv)
    assert fit_record(curve_csv) == {"curve": exact, "pilot": exact, **counts}
    assert min(counts.values()) > 0
    rng = np.random.default_rng(3)
    proxy_csv = tmp_path / "proxy.csv"
    write_proxy_csv(proxy_csv, ProxySeries(0.01, np.cumsum(rng.normal(0.0, 0.01, 70_000))))
    assert main(["estimate", "--in", str(proxy_csv), "--out", str(curve_csv),
                 "--bands", "0.05"]) == 0
    record = fit_record(curve_csv)
    for name in ("curve", "pilot"):
        bins, rescored = record[name]["bins"], record[name]["rescored"]
        assert record[name]["backend"] == "binned"
        assert isinstance(bins, int) and bins & (bins - 1) == 0 and bins <= CV_BINS
        assert isinstance(rescored, int) and 0 <= rescored <= 101
    # the pilot bandwidth is twice h: half the bins put as many inside it
    assert record["pilot"]["bins"] * 2 == record["curve"]["bins"]


@pytest.mark.parametrize("h", ["1e155", "1e300"])
def test_cli_estimate_bands_at_a_bandwidth_whose_square_overflows(tmp_path, h):
    path_csv = tmp_path / "path.csv"
    curve_csv = tmp_path / "curve.csv"
    assert main(["simulate", "--t", "2", "--n", "40", "--seed", "1", "--out", str(path_csv)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate", "--in", str(path_csv), "--h", h, "--bands", "0.05",
                     "--out", str(curve_csv)]) == 0
    # h^2 overflows in the bias term of every band centre: no band anywhere
    counts = undefined_counts(curve_csv)
    assert counts["undefined_mu"] == counts["undefined_m"] == 101
    assert {k: fit_record(curve_csv)[k] for k in counts} == counts


def fit_record(out):
    return json.loads(Path(str(out) + ".manifest.json").read_text())["diagnostics"]["fit"]


def undefined_counts(curve_csv):
    """The manifest's undefined grid points as the curve CSV shows them: the
    NaN of mu_hat, and of each band (None without bands)."""
    nan = {name: int(np.isnan(col).sum()) for name, col in read_columns_csv(curve_csv).items()}
    return {"undefined_count": nan["mu_hat"], "undefined_mu": nan.get("lo_mu"),
            "undefined_m": nan.get("lo_m")}


def test_cli_estimate_cv_bandwidth(tmp_path):
    path_csv = tmp_path / "path.csv"
    curve_csv = tmp_path / "curve.csv"
    cv_csv = tmp_path / "cv.csv"
    assert main(["simulate", "--t", "2", "--n", "150", "--seed", "6", "--out", str(path_csv)]) == 0
    assert main(["estimate", "--in", str(path_csv), "--out", str(curve_csv),
                 "--h", "cv", "--cv-out", str(cv_csv)]) == 0
    lines = cv_csv.read_text().splitlines()
    assert lines[0] == "h,cv,degenerate"
    assert len(lines) == 26


@pytest.mark.parametrize("command, option, value, param", [
    ("estimate", "--method", "nw", ("method", "nw")),
    ("estimate", "--kernel", "epanechnikov", ("kernel", "epanechnikov")),
    ("estimate --bands", "--pilot-mult", "3", ("pilot_mult", 3.0)),
    ("mc-study", "--range", "full", ("range_mode", "full")),
    ("simulate", "--substeps", "4", ("substeps", 4)),
    ("simulate", "--burn-in", "50", ("burn_in", 50)),
])
def test_cli_option_is_recorded_and_changes_the_output(tmp_path, command, option, value,
                                                       param):
    path_csv = tmp_path / "path.csv"
    assert main(["simulate", "--t", "5", "--n", "300", "--seed", "8", "--out", str(path_csv)]) == 0
    # --pilot-mult sets the pilot bandwidth of the bands, and NW has none
    base = {
        "estimate": ["estimate", "--in", str(path_csv)],
        "estimate --bands": ["estimate", "--in", str(path_csv), "--bands", "0.05"],
        "mc-study": ["mc-study", "--t", "2", "--n", "200", "--reps", "4", "--seed", "4",
                     "--grid-n", "21"],
        "simulate": ["simulate", "--t", "2", "--n", "100", "--seed", "3", "--jump", "cp"],
    }[command]
    default, given = tmp_path / "default.out", tmp_path / "given.out"
    assert main(base + ["--out", str(default)]) == 0
    assert main(base + [option, value, "--out", str(given)]) == 0
    name, want = param
    params = [json.loads(Path(f"{out}.manifest.json").read_text())["params"]
              for out in (default, given)]
    assert params[1][name] == want != params[0][name]
    assert given.read_bytes() != default.read_bytes()


def test_cli_cv_grid_edge_is_logged_and_recorded(tmp_path, caplog):
    path_csv, curve_csv = tmp_path / "path.csv", tmp_path / "curve.csv"
    estimate = ["estimate", "--in", str(path_csv), "--out", str(curve_csv)]

    def bandwidth_record():
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        return manifest["diagnostics"]["bandwidth"]

    pairs = 25 * 149  # (h, term) pairs: 25 grid points by the 149 terms of a path
    # seed 2: CV picks an interior h; seed 3: the upper edge of the default grid
    for seed, edge in ((2, False), (3, True)):
        assert main(["simulate", "--t", "2", "--n", "150", "--seed", str(seed),
                     "--out", str(path_csv)]) == 0
        caplog.clear()
        assert main(estimate + ["--h", "cv", "--cv-out", str(tmp_path / "cv.csv")]) == 0
        cv = read_columns_csv(tmp_path / "cv.csv")
        record = bandwidth_record()
        assert record["method"] == "cross_validation" and record["h"] in cv["h"]
        assert record["cv_grid_edge"] is edge
        assert record["cv_grid_edge"] == (record["h"] in (cv["h"][0], cv["h"][-1]))
        assert record["cv_degenerate_max"] == int(cv["degenerate"].max())
        assert "cv_backend" not in record and 0 <= record["cv_exact_terms"] < pairs
        # one bin count per grid h, never rising along the ascending grid
        bins = record["cv_bins"]
        assert len(bins) == 25 and all(isinstance(m, int) for m in bins)
        assert bins == sorted(bins, reverse=True) and bins[0] <= CV_BINS
        lo, hi = cv["cv"].min(), cv["cv"].max()
        assert record["cv_flatness"] == pytest.approx((hi - lo) / lo, rel=1e-12)
        logged = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(logged) == int(edge)
    assert "edge of its grid" in logged[0].getMessage()
    # a plain CLI run, with no logging set up, prints the warning on stderr
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "lljd", *estimate, "--h", "cv"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and "edge of its grid" in proc.stderr
    assert main(estimate) == 0
    record = bandwidth_record()
    assert (record["method"], record["cv_grid_edge"], record["cv_degenerate_max"],
            record["cv_exact_terms"], record["cv_bins"],
            record["cv_flatness"]) == ("rule_of_thumb", None, None, None, None, None)
    # as-written indexing takes binned CV too
    assert main(estimate + ["--h", "cv", "--alignment", "as_written"]) == 0
    record = bandwidth_record()
    assert 0 <= record["cv_exact_terms"] < pairs
    assert len(record["cv_bins"]) == 25 and None not in record["cv_bins"]


def test_cli_estimate_accepts_proxy_input(tmp_path):
    path_csv = tmp_path / "path.csv"
    proxy_csv = tmp_path / "proxy.csv"
    curve_csv = tmp_path / "curve.csv"
    main(["simulate", "--t", "5", "--n", "300", "--seed", "8", "--out", str(path_csv)])
    cols = read_columns_csv(path_csv)
    from lljd.io import write_proxy_csv

    pr = build_proxy(cols["y"], cols["t"][1] - cols["t"][0])
    write_proxy_csv(proxy_csv, pr)
    assert main(["estimate", "--in", str(proxy_csv), "--out", str(curve_csv)]) == 0
    assert read_columns_csv(curve_csv)["x"].size == 101


def test_cli_estimate_parses_only_the_columns_it_uses(tmp_path):
    # t and y, or t and xtilde: other columns, such as the index i, may hold text
    path_csv, curve_csv = tmp_path / "path.csv", tmp_path / "curve.csv"
    assert main(["simulate", "--t", "5", "--n", "300", "--seed", "8", "--out", str(path_csv)]) == 0
    assert main(["estimate", "--in", str(path_csv), "--out", str(curve_csv)]) == 0
    want = curve_csv.read_bytes()
    lines = path_csv.read_text().splitlines()
    labelled = [lines[0]] + [f"obs-{k}," + line.split(",", 1)[1] for k, line in enumerate(lines[1:])]
    path_csv.write_text("\n".join(labelled) + "\n")
    assert main(["estimate", "--in", str(path_csv), "--out", str(curve_csv)]) == 0
    assert curve_csv.read_bytes() == want


def stages_of(out):
    return json.loads(Path(str(out) + ".manifest.json").read_text())["diagnostics"]["stages"]


def test_cli_stage_timings_live_only_in_the_manifest(tmp_path):
    # simulate and mc-study: their data artifacts are byte-identical across runs
    for command, keys in (
        (["simulate", "--t", "5", "--n", "300", "--seed", "8"], {"simulate", "write"}),
        (["mc-study", "--reps", "3", "--n", "200", "--grid-n", "21"],
         {"simulate", "fit", "aggregate", "study", "write"}),
    ):
        outs = [tmp_path / f"{command[0]}{k}.out" for k in range(2)]
        for out in outs:
            assert main(command + ["--out", str(out)]) == 0
            stages = stages_of(out)
            assert set(stages) == keys and all(v >= 0.0 for v in stages.values())
            if "study" in stages:  # the study's own stages are laps inside it
                inside = stages["simulate"] + stages["fit"] + stages["aggregate"]
                assert 0.0 < inside <= stages["study"]
        assert outs[0].read_bytes() == outs[1].read_bytes()
    path_csv = tmp_path / "simulate0.out"
    curves = []
    for k in range(2):
        out = tmp_path / f"curve{k}.csv"
        assert main(["estimate", "--in", str(path_csv), "--bands", "0.05", "--h", "cv",
                     "--cv-out", str(tmp_path / "cv.csv"), "--out", str(out)]) == 0
        curves.append(out.read_bytes())
        stages = stages_of(out)
        assert set(stages) == {"ingest", "bandwidth", "fit", "bands", "write"}
        assert all(v >= 0.0 for v in stages.values())
    assert curves[0] == curves[1]
    prices = write_prices(tmp_path / "p.csv", [f"{i},{100 + i % 7}" for i in range(300)])
    out = tmp_path / "emp.csv"
    assert main(["empirical", "--in", str(prices), "--price-col", "close",
                 "--out", str(out)]) == 0
    assert set(stages_of(out)) == {"ingest", "bandwidth", "fit", "write"}


def test_write_table_memory_does_not_grow_with_the_rows(tmp_path):
    # a fresh interpreter, so the high-water mark is this write's own
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import resource, sys, numpy as np\n"
        "from lljd.io import write_path_csv\n"
        "from lljd.simulate import SamplePath\n"
        "rng = np.random.default_rng(0)\n"
        "path = SamplePath(0.001, rng.normal(size=10**6), rng.normal(size=10**6), 0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "write_path_csv(sys.argv[1], path)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    out = tmp_path / "path.csv"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) < 4 * 1024  # KiB
    with open(out) as fh:
        assert sum(1 for _ in fh) == 10**6 + 1


@pytest.mark.parametrize("n", [0, 1, WRITE_BLOCK_ROWS, WRITE_BLOCK_ROWS + 1])
def test_per_block_index_and_time_columns_match_materialised_columns(tmp_path, n):
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=n), rng.normal(size=n)
    delta = 1.0 / 48.0
    i = np.arange(n)
    write_path_csv(tmp_path / "p.csv", SamplePath(delta, x, y, 0))
    write_table(tmp_path / "pm.csv", {"i": i, "t": i * delta, "x": x, "y": y})
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "pm.csv").read_bytes()
    write_proxy_csv(tmp_path / "x.csv", ProxySeries(delta, x))
    write_table(tmp_path / "xm.csv", {"i": i, "t": (i + 1) * delta, "xtilde": x})
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "xm.csv").read_bytes()


def test_emit_report_does_not_hold_the_encoded_document(tmp_path):
    rng = np.random.default_rng(0)
    report = {"configs": [{"rmse": rng.normal(size=1000).tolist()} for _ in range(200)]}
    tracemalloc.start()
    try:
        out = emit_report(report, tmp_path / "r.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the document's text is at least 5 MB; the writer holds a copy of its lists
    assert peak < out.stat().st_size / 2
    assert json.loads(out.read_text())["configs"][199]["rmse"] == report["configs"][199]["rmse"]


@pytest.mark.parametrize("write", [
    lambda path, value: emit_report({"kind": "test", "value": value}, path),
    lambda path, value: RunManifest("estimate", {"h": value}).write(path),
], ids=["report", "manifest"])
def test_json_encoding_error_leaves_no_file(tmp_path, write):
    out = tmp_path / "out.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write(out, object())
    assert list(tmp_path.iterdir()) == []


def test_json_file_that_cannot_be_opened_keeps_its_bytes(tmp_path, monkeypatch, capsys):
    # a report or manifest that exists but cannot be opened for writing (read
    # only, say) is left as it was, and the error reaches the caller
    report, manifest = tmp_path / "m.json", tmp_path / "m.json.manifest.json"
    old = {report: b'{"old": "report"}\n', manifest: b'{"old": "manifest"}\n'}
    for path, data in old.items():
        path.write_bytes(data)
    real_open = Path.open

    def refuse(self, mode="r", *args, **kwargs):
        if self in old and "w" in mode:
            raise PermissionError(13, "Permission denied", str(self))
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refuse)
    with pytest.raises(PermissionError):
        emit_report({"kind": "test"}, report)
    with pytest.raises(PermissionError):
        RunManifest("mc-study", {"reps": 2}).write(report)
    assert main(["mc-study", "--reps", "2", "--n", "100", "--grid-n", "5",
                 "--out", str(report)]) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in old} == old


def test_manifest_is_strict_json(tmp_path):
    manifest = RunManifest("estimate", {"h": 0.1}, diagnostics={"cv_min": float("nan"),
                                                              "spread": [1.0, float("inf")]})
    out = manifest.write(tmp_path / "curve.csv")

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(out.read_text(), parse_constant=reject)
    assert data["diagnostics"] == {"cv_min": None, "spread": [1.0, None]}


def test_write_table_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValidationError, match="differ in length"):
        write_table(tmp_path / "t.csv", {"a": [1.0, 2.0], "b": [1.0]})


def test_cli_mc_study_table_matches_single_config_run(tmp_path):
    # the table's T=10, n=1000 config, simulated in lanes beside the other
    # eight, reports what the same config run alone reports
    table, alone = tmp_path / "table.json", tmp_path / "alone.json"
    common = ["--reps", "3", "--seed", "4", "--grid-n", "21"]
    assert main(["mc-study", "--table", "2", *common, "--out", str(table)]) == 0
    assert main(["mc-study", "--example", "1", "--t", "10", "--n", "1000", *common,
                 "--out", str(alone)]) == 0
    report = json.loads(alone.read_text())
    assert report["kind"] == "mc_study_report"
    cfg = report["configs"][0]
    assert set(cfg["rmse"]) == {"local_linear", "nadaraya_watson"}
    assert "runtime_s" not in cfg
    from_table = json.loads(table.read_text())["configs"][1]
    assert from_table["label"] == "cp rmse T=10 n=1000"
    assert json.dumps({**from_table, "label": None}) == json.dumps({**cfg, "label": None})


def test_cli_mc_study_table_preset(tmp_path):
    out = tmp_path / "t1.json"
    assert main(["mc-study", "--table", "1", "--reps", "4", "--seed", "2",
                 "--grid-n", "11", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["configs"]) == 1
    assert report["configs"][0]["n"] == 1000  # preset pins the sample size


def test_cli_mc_study_csv_prefix_extracts_match_the_report(tmp_path):
    def column_values(values):
        return np.array([np.nan if v is None else v for v in values], dtype=float)

    for reps in (25, 19):
        prefix, out = tmp_path / f"r{reps}", tmp_path / f"r{reps}.json"
        assert main(["mc-study", "--example", "1", "--t", "2", "--n", "200",
                     "--reps", str(reps), "--seed", "4", "--grid-n", "21",
                     "--csv-prefix", str(prefix), "--out", str(out)]) == 0
        cfg = json.loads(out.read_text())["configs"][0]
        for method in cfg["methods"]:
            band_csv = Path(f"{prefix}_band_0_{method}.csv")
            assert band_csv.read_text().splitlines()[0] == "x,lo,hi,mean"
            cols = read_columns_csv(band_csv)
            band = cfg["mc_band"][method]
            for csv_name, key in (("x", "grid"), ("lo", "lo"), ("hi", "hi"),
                                  ("mean", "mean")):
                np.testing.assert_array_equal(cols[csv_name], column_values(band[key]))
            qq_csv = Path(f"{prefix}_qq_0_{method}.csv")
            if reps < 20:
                assert not qq_csv.exists()
                continue
            assert qq_csv.read_text().splitlines()[0] == "theoretical,sample"
            cols = read_columns_csv(qq_csv)
            pairs, _ = qq_data(np.asarray(cfg["standardized"][method]))
            np.testing.assert_array_equal(cols["theoretical"], pairs[:, 0])
            np.testing.assert_array_equal(cols["sample"], pairs[:, 1])


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer wraps these names where the CLI binds them; an
    # unbound one fails its traced runs with an AttributeError
    spans_py = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_py)
    spans = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(spans)
    finally:
        sys.dont_write_bytecode = dont_write
    assert spans.WRAPPED
    for module, attr, _, _ in spans.WRAPPED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_cli_empirical_downward_drift_on_mean_reverting_standin(tmp_path):
    # synthetic stand-in for an observed five-minute price series
    path = simulate_path(default_model(), PathConfig(t_span=50.0, n=2400, seed=12))
    prices = np.exp(path.y)
    f = tmp_path / "prices.csv"
    f.write_text("t,close\n" + "\n".join(f"{i},{float(p)!r}" for i, p in enumerate(prices)) + "\n")
    curve = tmp_path / "emp.csv"
    proxy_out = tmp_path / "proxy.csv"
    assert main(["empirical", "--in", str(f), "--price-col", "close",
                 "--delta", "1/48", "--bands", "0.05",
                 "--proxy-out", str(proxy_out), "--out", str(curve)]) == 0
    cols = read_columns_csv(curve)
    ok = np.isfinite(cols["mu_hat"])
    slope = np.polyfit(cols["x"][ok], cols["mu_hat"][ok], 1)[0]
    assert slope < 0
    assert read_columns_csv(proxy_out)["xtilde"].size == 2400 + 1


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["estimate", "--in", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "input file not found" in capsys.readouterr().err
    assert main(["simulate", "--t", "10", "--n", "100", "--seed", "1", "--jump", "cp",
                 "--size-dist", "cauchy", "--size-scale", "1e9",
                 "--out", str(tmp_path / "boom.csv")]) == 3
    assert "numerical failure" in capsys.readouterr().err
    path_csv = tmp_path / "path.csv"
    assert main(["simulate", "--t", "2", "--n", "150", "--out", str(path_csv)]) == 0
    proxies, times = {}, {}
    for bad in ("nan", "inf"):
        proxies[bad] = tmp_path / f"xtilde_{bad}.csv"
        proxies[bad].write_text(f"t,xtilde\n0.1,0.2\n0.2,{bad}\n0.3,-0.1\n0.4,0.3\n")
        times[bad] = tmp_path / f"t_{bad}.csv"
        times[bad].write_text(f"t,xtilde\n0,0.2\n{bad},0.1\n0.2,-0.1\n0.3,0.3\n")
    prices = write_prices(tmp_path / "p.csv", [f"{i},{100 + i % 7}" for i in range(300)])
    capsys.readouterr()
    commands = {
        "estimate": ["estimate", "--in", str(path_csv)],
        "empirical": ["empirical", "--in", str(prices), "--price-col", "close"],
        "mc-study": ["mc-study", "--reps", "2", "--n", "100"],
    }
    out = tmp_path / "out.csv"
    bad = [cmd + ["--grid-n", n] for cmd in commands.values() for n in ("-3", "0")]
    bad += [commands["mc-study"] + ["--methods", "ll,xx"],
            commands["estimate"] + ["--grid-lo", "-0.1"],
            commands["estimate"] + ["--grid-hi", "0.1"],
            commands["estimate"] + ["--grid-lo", "0.1", "--grid-hi", "-0.1"]]
    # a bad step is named as such, also where the fit would go through, and
    # is rejected before anything divides by it
    huge_step = "1" + "0" * 400 + "/1"  # a fraction too large for a float
    bad_delta = [commands["estimate"] + ["--delta", "inf"],
                 commands["estimate"] + ["--delta", "nan"],
                 commands["empirical"] + ["--delta", "inf"],
                 commands["estimate"] + ["--delta", "inf", "--h", "0.05"],
                 commands["estimate"] + ["--delta", "0"],
                 commands["empirical"] + ["--delta", "0"],
                 commands["empirical"] + ["--delta", huge_step]]
    # a fixed bandwidth is checked where the fit is configured
    bad_h = [commands["estimate"] + ["--h", h] for h in ("-1", "0", "inf", "nan")]
    # a CV dump without CV has nothing to write
    cv_dump = tmp_path / "cv.csv"
    bad_cv_out = [commands["estimate"] + ["--h", h, "--cv-out", str(cv_dump)]
                  for h in ("auto", "0.05")]
    # a band level or pilot multiple is checked before any work: nothing is
    # written, not even the CV or proxy dump
    proxy_dump = tmp_path / "proxy.csv"
    dumps = [commands["estimate"] + ["--h", "cv", "--cv-out", str(cv_dump)],
             commands["empirical"] + ["--proxy-out", str(proxy_dump)]]
    bad_bands = [dumps[0] + ["--bands", "1.5"], dumps[1] + ["--bands", "2"]]
    bad_mult = [cmd + ["--bands", "0.05", "--pilot-mult", mult]
                for cmd in dumps for mult in ("0", "inf")]
    # a pilot bandwidth that overflows is named as not finite
    bad_pilot = commands["estimate"] + ["--h", "1e308", "--bands", "0.05"]
    # a non-finite proxy entry is named before anything is computed from it
    bad_entry = [["estimate", "--in", str(proxies[bad])] for bad in ("nan", "inf")]
    # a non-finite time is named as such, not as a bad step or uneven spacing
    bad_time = [["estimate", "--in", str(times[bad])] for bad in ("nan", "inf")]
    # a non-finite model parameter is an input error, not a state explosion,
    # and the message names the parameter
    simulate = ["simulate", "--t", "2", "--n", "150"]
    bad_model = {"eta": simulate + ["--jump", "vg", "--vg-eta", "nan"],
                 "drift c": simulate + ["--jump", "vg", "--vg-c", "inf"],
                 "location": simulate + ["--jump", "cp", "--size-loc", "nan"],
                 "x0": simulate + ["--x0", "nan"]}
    for argv in (bad + list(bad_model.values()) + bad_delta + bad_h + bad_entry + bad_time
                 + bad_cv_out + bad_bands + bad_mult + [bad_pilot]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv
        assert argv not in bad_delta or (
            "error: cannot parse step" if huge_step in argv else "error: delta must be") in err, err
        assert argv not in bad_h or "error: bandwidth must be positive" in err, err
        assert argv not in bad_entry or err == "error: non-finite proxy entry at index 1\n", err
        assert argv not in bad_time or "non-finite 't' at 0-based data row 1" in err, err
        assert argv not in bad_cv_out or "--cv-out needs --h cv" in err, err
        assert argv not in bad_bands or "error: --bands must be in (0, 1)" in err, err
        assert argv not in bad_mult or "error: --pilot-mult must be positive and finite" in err
        assert argv != bad_pilot or "must be positive and finite, got inf" in err, err
        assert all(name in err for name, cmd in bad_model.items() if cmd == argv), err
        assert not (out.exists() or cv_dump.exists() or proxy_dump.exists()), argv
    # a file that cannot be read or written is an input error, not a crash:
    # a directory as --in, and as --out once the fit has run
    unreadable = [["estimate", "--in", str(tmp_path), "--out", str(out)],
                  ["empirical", "--in", str(tmp_path), "--price-col", "close", "--out", str(out)],
                  commands["estimate"] + ["--out", str(tmp_path)]]
    for argv in unreadable:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err, err
    # bytes that are not UTF-8 are named with their line, in the header and
    # in a data row
    for src, command in ((path_csv, ["estimate"]),
                         (prices, ["empirical", "--price-col", "close"])):
        for line in (1, 3):
            lines = src.read_bytes().split(b"\n")
            lines[line - 1] += b"\xff"
            text = tmp_path / f"not_utf8_{line}_{src.name}"
            text.write_bytes(b"\n".join(lines))
            assert main(command + ["--in", str(text), "--out", str(out)]) == 2, (src, line)
            err = capsys.readouterr().err
            assert err == f"error: {text}: bytes that are not UTF-8 at line {line}\n", err
    assert not out.exists()

    # an output whose directory is missing is named before any work starts
    def started(*args, **kwargs):
        raise AssertionError("work started before the outputs were checked")

    for name in ("simulate_path", "_load_series", "ingest_prices", "run_studies"):
        monkeypatch.setattr(cli, name, started)
    nowhere = tmp_path / "nowhere"
    missing_dir = [cmd + ["--out", str(nowhere / "x.csv")]
                   for cmd in [simulate, *commands.values()]]
    missing_dir += [cmd + [option, str(nowhere / "x.csv"), "--out", str(out)]
                    for cmd, option in ((commands["estimate"] + ["--h", "cv"], "--cv-out"),
                                        (commands["empirical"], "--proxy-out"),
                                        (commands["mc-study"], "--csv-prefix"))]
    for argv in missing_dir:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: --") and f"no directory {str(nowhere)!r}" in err, err
        assert not (out.exists() or nowhere.exists()), argv


def test_entry_runs_the_cli_and_freezes_only_its_own_import(tmp_path, capsys):
    # `python -m lljd` and the console script call lljd.__main__.run, which
    # loads the CLI with the collector off and freezes what it loaded; main
    # itself leaves the caller's collector as it found it
    ok = ["simulate", "--t", "2", "--n", "150", "--out", str(tmp_path / "path.csv")]
    frozen = gc.get_freeze_count()
    assert main(ok) == 0
    assert gc.isenabled() and gc.get_freeze_count() == frozen
    line = capsys.readouterr().out
    assert line.startswith("wrote ")
    cases = {0: ok,
             2: ["estimate", "--in", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "x.csv")],
             3: ["simulate", "--t", "10", "--n", "100", "--seed", "1", "--jump", "cp",
                 "--size-dist", "cauchy", "--size-scale", "1e9",
                 "--out", str(tmp_path / "boom.csv")]}
    messages = {0: "", 2: "error: input file not found", 3: "numerical failure"}
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    entries = [[sys.executable, "-m", "lljd"],
               [sys.executable, "-c", "import sys; from lljd.__main__ import run; sys.exit(run())"]]
    for entry in entries:
        for code, argv in cases.items():
            proc = subprocess.run(entry + argv, env=env, capture_output=True, text=True)
            assert proc.returncode == code, (entry, proc.stderr)
            assert proc.stdout == (line if code == 0 else ""), entry
            assert proc.stderr.startswith(messages[code]), (entry, proc.stderr)
    # run returns to its caller with the collector on and the import frozen
    state = ("import gc; from lljd.__main__ import run; status = run(); "
             "print(status, gc.isenabled(), gc.get_freeze_count() > 0)")
    proc = subprocess.run([sys.executable, "-c", state, *ok], env=env, capture_output=True,
                          text=True)
    assert proc.stdout == line + "0 True True\n", proc.stderr


@pytest.mark.parametrize("rows", [0, 1])
def test_cli_estimate_names_too_few_rows_not_a_missing_time_column(tmp_path, capsys, rows):
    # a t,y file with a header only, or one data row, has its t column
    f = tmp_path / "short.csv"
    f.write_text("t,y\n" + "0.0,1.0\n" * rows)
    assert main(["estimate", "--in", str(f), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {f}: too few data rows ({rows})\n", err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("per_second", [1.0, 1.0 / (365.25 * 86400.0)], ids=["seconds", "years"])
def test_irregular_time_column_is_rejected_in_any_unit(tmp_path, capsys, per_second):
    # 400 rows of 1-second steps, each up to 10% off
    steps = 1.0 + np.random.default_rng(5).uniform(-0.1, 0.1, 399)
    t = np.concatenate([[0.0], np.cumsum(steps)]) * per_second
    y = np.cumsum(np.random.default_rng(6).normal(0.0, 0.01, len(t)))
    f = tmp_path / "irregular.csv"
    write_table(f, {"t": t, "y": y})
    assert main(["estimate", "--in", str(f), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {f}: time column is not uniformly spaced; pass --delta\n", err


def test_day_stamps_rounded_to_nine_decimals_are_uniform(tmp_path):
    k = np.arange(400)
    y = np.cumsum(np.random.default_rng(7).normal(0.0, 0.01, len(k)))
    f = tmp_path / "days.csv"
    f.write_text("t,y\n" + "".join(f"{i / 365:.9f},{v!r}\n" for i, v in zip(k, y.tolist())))
    assert main(["estimate", "--in", str(f), "--out", str(tmp_path / "out.csv")]) == 0
    series = cli._load_series(argparse.Namespace(infile=str(f), delta=None))
    assert series.delta == pytest.approx(1 / 365, rel=1e-9)


@pytest.mark.parametrize("delta", [1 / (365 * 288), 1 / 252, 1 / 48, 0.01, 1.0, 300.0, 86400.0])
def test_written_paths_and_proxies_load_with_their_step(tmp_path, delta):
    n = 3 * WRITE_BLOCK_ROWS + 5
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=n), np.cumsum(rng.normal(size=n))
    files = [write_path_csv(tmp_path / "p.csv", SamplePath(delta, x, y, 0)),
             write_proxy_csv(tmp_path / "x.csv", ProxySeries(delta, x))]
    for f in files:
        series = cli._load_series(argparse.Namespace(infile=str(f), delta=None))
        assert series.delta == pytest.approx(delta, rel=1e-12), f


def test_manifest_records_the_commands_own_peak_rss(tmp_path):
    # a child's ru_maxrss keeps the spawning process's high-water mark across
    # exec, here the test runner's, far above a small command's own peak; the
    # manifest reads the command's own
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "path.csv"
    argv = [sys.executable, "-m", "lljd", "simulate", "--t", "2", "--n", "200",
            "--out", str(out)]
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    assert child.returncode == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert 0 < manifest["diagnostics"]["peak_rss_mb"] <= usage.ru_maxrss / 1024


def test_manifest_reads_the_peak_rss_after_the_input_digest(tmp_path, monkeypatch):
    # the digest loads OpenSSL; a peak read before it would leave that out
    calls = []
    monkeypatch.setattr(cli, "sha256_file", lambda path: calls.append("digest") or "0" * 64)
    monkeypatch.setattr(cli, "_peak_rss_mb", lambda: calls.append("peak") or 1.0)
    args = argparse.Namespace(command="estimate", infile=str(tmp_path / "in.csv"),
                              out=str(tmp_path / "out.csv"))
    cli._write_manifest(args, 0.0)
    assert calls == ["digest", "peak"]


def test_cli_commands_leave_numpy_ma_unloaded(tmp_path):
    # np.quantile and np.percentile import numpy.ma on their first call
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from lljd.cli import main\n"
        "d = sys.argv[1]\n"
        "assert main(['simulate', '--t', '2', '--n', '300', '--out', d + '/p.csv']) == 0\n"
        "assert main(['estimate', '--in', d + '/p.csv', '--bands', '0.05',\n"
        "             '--out', d + '/c.csv']) == 0\n"
        "assert main(['mc-study', '--reps', '3', '--n', '200', '--out', d + '/m.json']) == 0\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True)
    assert done.returncode == 0, done.stderr


def test_cli_import_keeps_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, lljd.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_keeps_numpy_fft_unloaded():
    # only binned cross-validation needs numpy.fft; it imports it on first use
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, lljd.cli; sys.exit('numpy.fft' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("module", ["_hashlib", "statistics", "fractions", "decimal", "logging"])
def test_cli_import_keeps_rarely_called_stdlib_unloaded(module):
    # the --in digest (OpenSSL), normal quantiles, --delta fractions and the
    # CV grid-edge warning import theirs where they are called
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, lljd.cli; sys.exit({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_importing_one_module_loads_only_what_it_needs():
    # the package namespace re-exports nothing, so a module loads its own
    # imports and no others
    src = Path(__file__).resolve().parents[1] / "src"
    others = ["lljd.simulate", "lljd.mcstudy", "lljd.bandwidth", "lljd.inference", "lljd.io"]
    code = f"import sys, lljd.proxy; sys.exit(sorted(set({others!r}) & set(sys.modules)) or None)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_binned_fit_keeps_numpy_fft_unloaded():
    # the binned fit sums bins directly; only binned cross-validation uses FFTs
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, numpy as np\n"
        "from lljd.estimators import EstimatorConfig, estimate_curve\n"
        "from lljd.inference import attach_bands\n"
        "from lljd.proxy import ProxySeries\n"
        "rng = np.random.default_rng(4)\n"
        "xt = ProxySeries(0.01, np.cumsum(rng.normal(0.0, 0.01, 70_000)))\n"
        "est = estimate_curve(xt, None, EstimatorConfig(0.05))\n"
        "attach_bands(est, xt)\n"
        "assert est.sums['backend'] == est.bands.pilot_sums['backend'] == 'binned'\n"
        "sys.exit('numpy.fft' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_report_with_skipped_replicates_is_strict_json(tmp_path):
    model = default_model(jump=CompoundPoisson(2.0, JumpSizeDist("cauchy", 0.0, 1e5)))
    cfg = McConfig(model=model, t_span=10.0, n=50, replicates=30, master_seed=1,
                   methods=("local_linear",))
    payload = {"configs": [run_study(cfg).to_dict()]}
    a = emit_report(payload, tmp_path / "a.json")
    b = emit_report(payload, tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads(a.read_text(), parse_constant=reject)
    per_rep = report["configs"][0]["rmse_per_replicate"]["local_linear"]
    assert per_rep.count(None) == report["configs"][0]["skipped"] == 2


@pytest.mark.parametrize("script", sorted(
    (Path(__file__).resolve().parents[1] / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_help_runs(script):
    # each script imports its part of the package at start-up; --help proves
    # those imports resolve, without running the script's work
    proc = subprocess.run([sys.executable, "-B", str(script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")


def _option_surface(parser):
    # every action of every subcommand, help text aside: option strings, dest,
    # default, type, choices (as a list, in order), required and nargs
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {(tuple(a.option_strings), a.dest, a.default, a.type,
                    None if a.choices is None else tuple(a.choices), a.required, a.nargs)
                   for a in command._actions}
            for name, command in sub.choices.items()}


def test_cli_option_surface_is_pinned():
    help_action = (("-h", "--help"), "help", argparse.SUPPRESS, None, None, False, 0)
    out = (("--out",), "out", None, None, None, True, None)
    kernel = (("--kernel",), "kernel", "gaussian", None, ("gaussian", "epanechnikov"),
              False, None)
    grid_n = (("--grid-n",), "grid_n", 101, int, None, False, None)
    h = (("--h",), "h", "auto", None, None, False, None)
    bands = (("--bands",), "bands", None, float, None, False, None)
    pilot_mult = (("--pilot-mult",), "pilot_mult", 2.0, float, None, False, None)
    t = (("--t",), "t", 10.0, float, None, False, None)
    n = (("--n",), "n", 1000, int, None, False, None)
    seed = (("--seed",), "seed", 1, int, None, False, None)
    infile = (("--in",), "infile", None, None, None, True, None)
    expected = {
        "simulate": {
            help_action, out, t, n, seed,
            (("--jump",), "jump", "none", None, ("none", "cp", "vg"), False, None),
            (("--substeps",), "substeps", 10, int, None, False, None),
            (("--burn-in",), "burn_in", 200, int, None, False, None),
            (("--x0",), "x0", 0.0, float, None, False, None),
            (("--y0",), "y0", 0.0, float, None, False, None),
            (("--lambda",), "lam", 2.0, float, None, False, None),
            (("--size-dist",), "size_dist", "normal", None, ("normal", "cauchy"), False, None),
            (("--size-loc",), "size_loc", 0.0, float, None, False, None),
            (("--size-scale",), "size_scale", 0.036, float, None, False, None),
            (("--vg-c",), "vg_c", -0.2, float, None, False, None),
            (("--vg-eta",), "vg_eta", 0.2, float, None, False, None),
            (("--vg-b",), "vg_b", 0.23, float, None, False, None),
        },
        "estimate": {
            help_action, out, kernel, grid_n, h, bands, pilot_mult, infile,
            (("--method",), "method", "ll", None, ("ll", "nw"), False, None),
            (("--alignment",), "alignment", "aligned", None, ("aligned", "as_written"),
             False, None),
            (("--delta",), "delta", None, None, None, False, None),
            (("--grid-lo",), "grid_lo", None, float, None, False, None),
            (("--grid-hi",), "grid_hi", None, float, None, False, None),
            (("--cv-out",), "cv_out", None, None, None, False, None),
        },
        "mc-study": {
            help_action, out, kernel, grid_n, t, n, seed,
            (("--example",), "example", 1, int, (1, 2), False, None),
            (("--table",), "table", None, int, (1, 2, 3, 4, 5, 6), False, None),
            (("--reps",), "reps", 100, int, None, False, None),
            (("--methods",), "methods", "ll,nw", None, None, False, None),
            (("--range",), "range_mode", "inner", None, ("inner", "full"), False, None),
            (("--csv-prefix",), "csv_prefix", None, None, None, False, None),
        },
        "empirical": {
            help_action, out, kernel, grid_n, h, bands, pilot_mult, infile,
            (("--price-col",), "price_col", None, None, None, True, None),
            (("--delta",), "delta", "1/48", None, None, False, None),
            (("--proxy-out",), "proxy_out", None, None, None, False, None),
        },
    }
    surface = _option_surface(cli._build_parser())
    assert list(surface) == list(expected)
    for name, actions in expected.items():
        assert surface[name] == actions, name


def test_bad_bandwidth_or_step_is_reported_before_the_input_is_read(tmp_path, capsys,
                                                                     monkeypatch):
    path_csv = tmp_path / "path.csv"
    assert main(["simulate", "--t", "2", "--n", "150", "--out", str(path_csv)]) == 0
    prices = write_prices(tmp_path / "p.csv", [f"{i},{100 + i % 7}" for i in range(300)])
    capsys.readouterr()

    def read(*args, **kwargs):
        raise AssertionError("the input was read before --h and --delta were checked")

    monkeypatch.setattr(cli, "read_columns_csv", read)
    monkeypatch.setattr(cli, "ingest_prices", read)
    estimate = ["estimate", "--in", str(path_csv)]
    empirical = ["empirical", "--in", str(prices), "--price-col", "close"]
    not_a_number = "error: --h must be 'auto', 'cv' or a number, got 'abc'\n"
    cases = [(estimate + ["--delta", "1/0"], "error: cannot parse step '1/0'\n"),
             (estimate + ["--h", "abc"], not_a_number),
             (estimate + ["--h", "0"], "error: bandwidth must be positive, got 0.0\n"),
             (empirical + ["--h", "abc"], not_a_number)]
    out = tmp_path / "out.csv"
    for argv, message in cases:
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert capsys.readouterr().err == message, argv
        assert not out.exists()


def test_mc_study_table_refuses_the_options_of_a_single_config(tmp_path, capsys):
    # a preset table sets its own model, span and sample sizes
    table = ["mc-study", "--table", "6", "--reps", "2", "--seed", "7"]
    out = tmp_path / "t6.json"
    cases = [(["--t", "5", "--n", "10", "--example", "2"], "--example, --t, --n"),
             (["--n", "10"], "--n"), (["--t", "10.5"], "--t"), (["--example", "2"], "--example")]
    for options, named in cases:
        assert main(table + options + ["--out", str(out)]) == 2, options
        assert capsys.readouterr().err == (
            f"error: --table runs preset configs and takes no {named}\n"), options
        assert list(tmp_path.iterdir()) == []
    assert main(table + ["--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["configs"]) == 9


def test_nadaraya_watson_bands_are_refused_before_the_input_is_read(tmp_path, capsys,
                                                                     monkeypatch):
    path_csv = tmp_path / "path.csv"
    assert main(["simulate", "--t", "2", "--n", "150", "--out", str(path_csv)]) == 0
    capsys.readouterr()

    def read(*args, **kwargs):
        raise AssertionError("the input was read before the band method was checked")

    monkeypatch.setattr(cli, "read_columns_csv", read)
    out = tmp_path / "out.csv"
    argv = ["estimate", "--in", str(path_csv), "--method", "nw", "--bands", "0.05",
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: confidence bands are defined for the local linear fit\n")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("t,x\n0,1\n1,2\n2,3\n", "need an 'xtilde' or 'y' column"),
    ("y\n1\n2\n3\n", "no time column; pass --delta"),
])
def test_cli_estimate_names_a_missing_series_or_time_column(tmp_path, capsys, text, message):
    f = tmp_path / "in.csv"
    f.write_text(text)
    assert main(["estimate", "--in", str(f), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: {f}: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_peak_rss_falls_back_to_ru_maxrss_without_proc_status(monkeypatch):
    import resource

    opened = []

    def no_proc(path, *args, **kwargs):
        opened.append(path)
        raise FileNotFoundError(path)

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peak = cli._peak_rss_mb()
    assert opened == ["/proc/self/status"]
    assert before <= peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_read_columns_names_an_empty_file_and_a_row_short_of_a_named_column(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    with pytest.raises(ValidationError, match="empty file"):
        read_columns_csv(empty)
    short = tmp_path / "short.csv"
    short.write_text("a,b,c\n1,2,3\n4,5\n7,8,9\n")
    with pytest.raises(ValidationError, match="row at line 3 has no 'c' cell"):
        read_columns_csv(short, ["c"])
