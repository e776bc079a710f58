"""Metamorphic cases of the CLI: how every output of `lljd estimate` must
move when the integrated path is rescaled or has a linear trend added.

Scaling y by c scales the proxy by c: h and the grid scale by c, the drift
and its band by c, the second moment and its band by c^2, and the kernel
mass and the undefined counts stay. Adding a t to y shifts the proxy by a:
the grid shifts by a and nothing else moves. The default grid moves so by
itself; a grid given by --grid-lo and --grid-hi is moved with the data.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from lljd.cli import main
from lljd.io import read_columns_csv, write_table

# column -> the power of the scale c by which it moves, and whether the shift
# a moves it
COLUMNS = {"x": (1, True), "mu_hat": (1, False), "m_hat": (2, False), "n_eff": (0, False),
           "lo_mu": (1, False), "hi_mu": (1, False), "lo_m": (2, False), "hi_m": (2, False)}
COUNTS = ("undefined_count", "undefined_mu", "undefined_m")


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """The t and y columns of a simulated path."""
    out = tmp_path_factory.mktemp("path") / "path.csv"
    assert main(["simulate", "--t", "5", "--n", "500", "--seed", "2", "--out", str(out)]) == 0
    return read_columns_csv(out, ["t", "y"])


def estimate(tmp_path, t, y, h: str, grid=()):
    """The curve CSV's columns, the chosen h and the undefined counts of
    `lljd estimate --h <h> --bands 0.05` on the path (t, y), over the grid
    from grid[0] to grid[1] when given."""
    src, out = tmp_path / "in.csv", tmp_path / "curve.csv"
    write_table(src, {"t": t, "y": y})
    bounds = ["--grid-lo", repr(grid[0]), "--grid-hi", repr(grid[1])] if grid else []
    assert main(["estimate", "--in", str(src), "--h", h, "--bands", "0.05",
                 "--out", str(out), *bounds]) == 0
    diagnostics = json.loads(Path(f"{out}.manifest.json").read_text())["diagnostics"]
    return (read_columns_csv(out), diagnostics["bandwidth"]["h"],
            {name: diagnostics["fit"][name] for name in COUNTS})


def assert_close(got, want, name):
    """Within 1e-9 of the column's largest magnitude, NaN in the same places."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), name
    scale = np.max(np.abs(want[~nan]), initial=0.0)
    assert np.all(np.abs(got[~nan] - want[~nan]) <= 1e-9 * scale), name


@pytest.mark.parametrize("wide", [False, True], ids=["default_grid", "wide_grid"])
@pytest.mark.parametrize("h", ["auto", "cv"])
@pytest.mark.parametrize("scale, shift", [(1e3, 0.0), (1e-3, 0.0), (1.0, 0.8)],
                         ids=["y*1e3", "y*1e-3", "y+0.8t"])
def test_outputs_move_with_the_scale_and_shift_of_the_data(tmp_path, path, h, scale, shift,
                                                          wide):
    t, y = path["t"], path["y"]
    # the wide grid runs past the proxies into undefined points on both sides
    grid = (-6.0, 6.0) if wide else ()
    cols, h_base, counts = estimate(tmp_path, t, y, h, grid)
    got, h_moved, moved_counts = estimate(tmp_path, t, y * scale + shift * t, h,
                                          tuple(g * scale + shift for g in grid))
    assert h_moved == pytest.approx(h_base * scale, rel=1e-9, abs=0.0)
    assert moved_counts == counts and (min(counts.values()) > 0) == wide
    for name, (power, shifts) in COLUMNS.items():
        assert_close(got[name], cols[name] * scale**power + (shift if shifts else 0.0), name)
