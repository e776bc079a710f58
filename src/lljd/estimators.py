"""Local polynomial estimation from proxy series: local linear and
Nadaraya-Watson curve fits and local cubic curvature.

The estimating equations pair each response with a kernel weight one index
back: for proxy entries xt[0..m-1], term t (t = 1..m-2) carries

    kernel point   xt[t-1]
    regressor      xt[t-1]    (or xt[t] under 'as_written' indexing)
    drift response           (xt[t+1] - xt[t]) / delta
    second-moment response   1.5 * (xt[t+1] - xt[t])^2 / delta

'aligned' (kernel point and regressor coincide) is the default: placing the
regressor one step after the kernel point roughly triples the finite-sample
attenuation bias under fast mean reversion, because the response mean is tied
to the earlier index. The offset variant remains selectable for comparison.

The 1.5 factor undoes the variance attenuation of second differences of an
integrated path: averaging the state over adjacent windows keeps only 2/3 of
the instantaneous second moment, so the raw squared-difference statistic
estimates (2/3) M(x).

Every fit here is a local polynomial fit (Fan & Gijbels 1996, ch. 3). At an
evaluation point x, with K_i = K((kernel point_i - x)/h) and
d_i = regressor_i - x, the degree-p fit needs only the weighted power sums

    S_j = sum_i K_i d_i^j         j = 0..2p
    T_j = sum_i K_i d_i^j r_i     j = 0..p, for each response vector r

One routine, `_power_sums`, sums K_i d_i^q times each of the caller's weight
columns up to the column's own top power q, at one bandwidth. A fit's
columns are [1 | responses]: the unit column up to 2p gives the S_j, each
response up to p its T_j. It serves every direct sum: exact and binned fits
and CV's exact leave-out sums (below). The fits it serves:

    estimate_curves     one p=1 pass of the drift, the second moment and the
                        fourth power the bands need; `_closed_form` takes the
                        local linear intercept (S_2 T_0 - S_1 T_1) /
                        (S_0 S_2 - S_1^2) and, from its j = 0 sums, the
                        Nadaraya-Watson mean T_0 / S_0. Its S_0 is the
                        bands' density up to the two trailing proxies
    _local_cubic        p=3, the bands' pilot: S_0..S_6 and T_0..T_3
    _leave_out_sums     CV's p=0/1 drift fit at the regressor points with
                        an exclusion window, one call per bandwidth: at
                        every term where the bins cannot resolve h, else
                        only at its few ill-conditioned leave-out fits

A fit is defined where its design is, by one rule for every p (`_defined`):
kernel mass S_0 >= DEGENERACY_FLOOR n and det R > COND_FLOOR, R the moment
matrix [S_(i+j)] scaled to a unit diagonal, det S / prod_j S_2j, free of the
data's units and of h. At p = 0 only the mass counts; at p = 1 det R is
(S_0 S_2 - S_1^2) / (S_0 S_2), in closed form; the local cubic takes the
determinant of its 4x4 R and solves R z = D^-1 T, D = diag(sqrt(S_2j)).

The estimators read the entries of a `ProxySeries` unchecked: it checked
them when it was built. `term_points` adds a fit's one rule, three entries.
S_0 is the kernel mass n_eff. The exclusion window gives each evaluation
point a range of terms lo <= i < hi to leave out; their kernel weights are
set to zero before anything is summed, so a leave-out fit is exactly the fit
on the remaining terms. The sums accumulate over tiles of at most
TILE_ELEMENTS (evaluation point, term) pairs, 1 MB per temporary. The fits
form their responses per term block from the block's slice of the proxy
(`_Responses`), and binning walks the same blocks, so beside the proxy a fit
with bands holds a few tiles, its bins and the grid's order statistics. Both
kernels are radial, K(u) = g(u^2) / z (`lljd.kernels`). Per term block the
engine orders the columns A by falling top, so those summed at power q are a
leading slice A_q; per tile of regressor and kernel-point distances d and d_k
it takes

    w = g(d_k^2 / h^2)    in place over d_k^2; for the Gaussian a scale and
                          an exp; then each row's window of terms set to 0
    sums at power q       w @ A_q, one BLAS product per power
    w *= d                between powers

and it divides the finished sums by z once per call. A distance whose square
underflows (under 1e-154) counts as zero.

A Gaussian fit of one bandwidth with at least BINNED_MIN_TERMS = 2^16 terms
takes binned direct sums instead (Wand 1994, JCGS 3:433-445); `_fit_sums`
picks the path for every fit. It bins the kernel points linearly as binned CV
does, in the engine's term blocks, onto the fewest bins M, a power of two,
that put CV_H_BINS bins inside h (`_bins`; a sample needing more than CV_BINS
gets exact sums). With dk = kernel point - x and e = regressor - kernel
point, formed per term block, d^j = sum_q C(j, q) dk^q e^(j-q): S_j and T_j
combine (`_combine`) sums of K dk^q over the weight columns of `_columns`,
[1 | responses] where e = 0 (aligned), else e^m and e^m r. One `_power_sums`
call takes the M bin centres c_b as its terms and the binned columns, each to
its top, so each sums K((c_b - x)/h) (c_b - x)^q over the bins, in the tiles
of every other sum. A term with bin weights g and f = 1 - g puts on its bins
the chord of phi = K dk^q, which exceeds phi by D^2 f g phi'' / 2 (D the bin
width). The points are therefore binned a second time, weighted by f g, as
more columns of that call; for the Gaussian, phi'' combines K dk^(q-2),
K dk^q and K dk^(q+2), so those columns go two powers above their tops to give
the excess, and the pass subtracts it. Grid points that fail a fallback test
of binned CV (below) get exact sums, so NaN sits where the exact fit has it.
On the default grid every column of fit and bands is within 2.1e-9 of its
largest magnitude of the exact one, at either alignment (AR(1) proxies of
66k-200k terms, CP and VG paths of 70k-150k; the tests hold 5e-7). Over the
data's whole range it was within 1.3e-7, but for the second-moment band where
the fourth-moment fit nearly vanishes and its square root amplifies the error
(2.8e-6 at one point). The Epanechnikov kernel stays exact: its kink at
|u| = 1 makes its binning error first order (1e-5, 128 bins per h).

Cross-validation (`lljd.bandwidth`) takes, at each h of its ascending grid,
the leave-out sums of every term from `_leave_out_sums`, handed its deletion
rule: at regressor i the terms i + o, o in `deleted`, are left out. The sums
are binned, after KernSmooth (Fan & Marron 1994, JCGS 3:35-56; Wand 1994).
The kernel and regressor points are binned linearly onto the M bins of
`_bins` over one range, the kernel points once per weight column of
`_columns`. For each h the lag kernels kappa_q[m] = K(m D / h) (m D)^q, D
the bin width, are correlated with each column up to its top power by FFT,
which gives its sums at every bin centre (a fit, which needs sums at few
grid points, takes no FFT); linear interpolation carries them to the
regressor points. The deleted terms are then subtracted in the same binned
bilinear form: term k = i + o at regressor i, its kernel point d bins from
the regressor, pairs bins at lags d, d + 1 and d - 1 with weights
g_i g_k + f_i f_k, g_i f_k and f_i g_k, so a leave-out sum is the binned sum
of exactly the terms that remain. The grid ascends, so M never rises along
it; the points are binned once per distinct M (`_Binning`), and the
following h reuse the binned spectra.

Exact sums, with the deletion window, rescore every term whose binned
leave-out fit rests on too little to be trusted to the bins
(`_poorly_binned`, which the binned fits' grid points also pass):

    S_0 <= CV_MIN_MASS * K(0)                       few terms' kernel mass
    S_0 S_2 - S_1^2 <= (CV_MIN_SPREAD D S_0)^2      spread within two bins

the second for the local linear fit. These are sparse-tail terms, where
exact CV itself degenerates or nearly does and binning error in one weight
would move the fit. The mass test also keeps terms just outside a compact
kernel's support, which enter the binned sums with small weights, from
making an exactly collinear leave-out design look well conditioned: without
it, Epanechnikov CV values on the stand-ins below were up to 7e-4 off and 4
of 16 had different degenerate counts. The spread test catches tied values:
terms at one place are spread over two bins, which gives an exactly
collinear design a spread of up to a bin. FFT round-off is absolute, below
1e-15 of the largest sum (4e-16 to 8e-16 measured); tiny sums need no test
of their own, because the mass test keeps every binned S_0 above 4 K(0)
while no S_0 exceeds n K(0).

A bandwidth narrower than CV_BINS_PER_H bins is scored exactly throughout.
Setting CV_BINS_PER_H = math.inf scores every h so: the oracle of the
binned sums, as BINNED_MIN_TERMS = sys.maxsize is the fits'.
`scripts/check_cv_backends.py` compares the two on the 16 five-minute
stand-ins of the `empirical_cv` benchmark (4,799 terms each, the default
grid, where M falls from 2^14 to 2^9 or 2^10). The largest relative
difference of a binned CV value from exact is 4e-7 (Gaussian, local
linear), 7e-7 (Gaussian, Nadaraya-Watson), 8e-6 (Epanechnikov, local
linear) and 4e-6 (Epanechnikov, Nadaraya-Watson); the chosen h and the
degenerate counts are the same on every stand-in, 65-511 of the 120k (h,
term) pairs fall back, and CV takes about 0.1 s against 2-3 s. Both stream
one bandwidth at a time, binned in O(n + CV_BINS) memory.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError
from .kernels import GAUSSIAN, Kernel
from .proxy import ProxySeries

__all__ = ["EstimatorConfig", "CurveEstimate", "LOCAL_LINEAR", "NADARAYA_WATSON", "default_grid",
           "drift_responses", "second_moment_responses", "fourth_moment_responses",
           "estimate_curve", "estimate_curves"]

LOCAL_LINEAR = "local_linear"
NADARAYA_WATSON = "nadaraya_watson"
RANGE_MODES = ("inner", "full")  # the spans of `default_grid`
ALIGNMENTS = ("aligned", "as_written")  # the index alignments of `term_points`

# A grid point is treated as undefined when the kernel mass there falls below
# this fraction of the term count; avoids 0/0 amplification in empty regions.
DEGENERACY_FLOOR = 1e-10

# det R at or below this (module docstring): the design is ill-conditioned.
# It keeps ~5 of 16 digits after the cancellation in S_0 S_2 - S_1^2, and
# keeps local cubic designs of condition number 7e6 (det R 7e-11). A binned
# design passing `_poorly_binned`'s spread test has det R > 4/(M-1)^2 >=
# 1.5e-8 (S_2 <= S_0 span^2, M <= CV_BINS): the floor acts on exact sums.
COND_FLOOR = 1e-11

# Working-memory bound of the kernel sums: a tile holds at most TILE_ELEMENTS
# (evaluation point, term) pairs, 1 MB per float64 temporary. It spans
# TILE_ROWS points by all terms when that fits, and term blocks otherwise.
# Such tiles stay in a core's L2 cache and are reused by the allocator, while
# tiles of many MB are page-faulted afresh by every numpy operation on them.
TILE_ROWS = 16
TILE_ELEMENTS = 1 << 17

# Binned sums, of CV and of large fits: the most bins, and the bins that a
# bandwidth's bin count puts inside one h. Their exact-fallback tests
# (`_poorly_binned`): the least kernel mass in units of K(0), i.e. of terms
# at zero distance, and the least weighted spread of the design, in bins.
CV_BINS = 1 << 14
CV_H_BINS = 128
CV_MIN_MASS = 4.0
CV_MIN_SPREAD = 2.0
# The least bandwidth, in bins, that binned CV scores; at 32 bins the
# binning error of a CV value is below 3e-5 relative (Epanechnikov, the
# stand-ins with 2^10 to 2^14 bins). math.inf scores every h exactly.
CV_BINS_PER_H = 32
# The fewest terms of a fit that takes binned sums.
BINNED_MIN_TERMS = 1 << 16


@dataclass(frozen=True)
class EstimatorConfig:
    bandwidth: float
    kernel: Kernel = GAUSSIAN
    method: str = LOCAL_LINEAR
    index_alignment: str = "aligned"

    def __post_init__(self):
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValidationError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.method not in (LOCAL_LINEAR, NADARAYA_WATSON):
            raise ValidationError(f"unknown method {self.method!r}")
        if self.index_alignment not in ALIGNMENTS:
            raise ValidationError(f"unknown index alignment {self.index_alignment!r}")


@dataclass
class CurveEstimate:
    """Estimated drift and second-moment curves over a grid.

    n_eff[k] is the kernel mass at grid[k]; points where the fit is undefined
    (`_defined`) are NaN and counted in undefined_count. m_hat is deliberately
    not clipped at zero: negative values flag under-smoothed regions. m4_hat
    is the raw fit of the fourth-power responses, the variance plug-in of the
    second-moment band. `sums` records how the pass took its sums (`_fit_sums`).
    """

    grid: np.ndarray
    mu_hat: np.ndarray
    m_hat: np.ndarray
    h: float
    n_eff: np.ndarray
    delta: float
    n_terms: int
    method: str
    undefined_count: int
    kernel: Kernel = GAUSSIAN
    index_alignment: str = "aligned"
    m4_hat: Optional[np.ndarray] = field(default=None, repr=False)
    bands: Optional["object"] = field(default=None, repr=False)
    sums: Optional[dict] = field(default=None, repr=False)


def term_points(xt: ProxySeries, index_alignment: str = "aligned"):
    """Kernel points and regressor points of the estimating terms."""
    arr = xt.xt
    if len(arr) < 3:
        raise ValidationError("proxy series must have length >= 3")
    kpts = arr[:-2]
    ppts = arr[1:-1] if index_alignment == "as_written" else kpts
    return kpts, ppts


def drift_responses(xt: ProxySeries) -> np.ndarray:
    return (xt.xt[2:] - xt.xt[1:-1]) / xt.delta


def second_moment_responses(xt: ProxySeries) -> np.ndarray:
    """Squared-difference responses with the 3/2 attenuation correction: the
    raw statistic (xt[t+1] - xt[t])^2 / delta targets (2/3) M(x)."""
    return 1.5 * ((xt.xt[2:] - xt.xt[1:-1]) ** 2 / xt.delta)


def fourth_moment_responses(xt: ProxySeries) -> np.ndarray:
    d2 = (xt.xt[2:] - xt.xt[1:-1]) ** 2
    return d2 * d2 / xt.delta


class _Responses:
    """The weight columns [1 | responses] of the response columns `funcs`
    (such as `drift_responses`) of the terms of `xt`, computed per block of
    terms from the block's slice of the proxy. The engines read only
    `cols[block]` and `cols.shape`: no [n_terms, R] matrix is built."""

    def __init__(self, xt: ProxySeries, funcs):
        self.xt, self.funcs = xt, funcs
        self.shape = (len(xt.xt) - 2, 1 + len(funcs))

    def __getitem__(self, block: slice) -> np.ndarray:
        part = ProxySeries(self.xt.delta, self.xt.xt[block.start : block.stop + 2])
        return np.insert(np.column_stack([f(part) for f in self.funcs]), 0, 1.0, axis=1)


def default_grid(xt: ProxySeries, n_points: int = 101, range_mode: str = "inner") -> np.ndarray:
    """Evaluation grid over the sample range of the proxies.

    'inner' spans the 2.5%..97.5% sample quantiles (extrapolation into empty
    tails is rarely meaningful); 'full' spans min..max for boundary studies.
    """
    term_points(xt)  # a grid is for a series that can be fitted
    if range_mode not in RANGE_MODES:
        raise ValidationError(f"unknown range mode {range_mode!r}")
    lo, hi = (_quantiles(xt.xt, [0.025, 0.975]) if range_mode == "inner"
              else (xt.xt.min(), xt.xt.max()))
    return np.linspace(lo, hi, n_points)


def _quantiles(a, q):
    """np.quantile(a, q, axis=0), numpy's default linear method, bit for bit,
    for `a` without NaN. np.quantile calls np.unique, whose first call
    imports numpy.ma; this takes the order statistics by np.partition."""
    v = (len(a) - 1) * np.asarray(q, dtype=float)
    lo = np.floor(v)
    gamma = (v - lo).reshape(-1, *[1] * (np.ndim(a) - 1))
    lo = lo.astype(np.intp)
    hi = np.minimum(lo + 1, len(a) - 1)
    part = np.partition(a, sorted({*lo.tolist(), *hi.tolist()}), axis=0)
    below, diff = part[lo], part[hi] - part[lo]
    # numpy's _lerp: from the nearer order statistic
    return np.where(gamma >= 0.5, part[hi] - diff * (1 - gamma), below + diff * gamma)


def _power_sums(kpts, ppts, cols, tops, grid, kernel: Kernel, h: float, window=None):
    """Kernel-weighted power sums of the weight columns `cols` [n_terms, C],
    which the engine reads by term block (`cols[block]`), at the bandwidth h:
    a[g, q, c] = sum_i K_i d_i^q cols[i, c] for q = 0..tops[c], and 0 above
    (see the module docstring). `window` = (lo, hi) leaves terms
    lo[g] <= i < hi[g] out of the sums at grid[g]."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    n, n_grid = len(kpts), len(grid)
    # 1/h^2, or where that overflows the largest float: g(0) at d = 0 still
    h = float(h)  # a NumPy scalar h would warn on that overflow
    scale = min(1.0 / h / h, sys.float_info.max)
    # by falling top, the columns summed at power q are the leading live[q]
    # (Python's sort: np.argsort pages in numpy's SIMD sort code, 0.4 MB of RSS)
    order = sorted(range(len(tops)), key=lambda c: -tops[c])
    live = [sum(top >= q for top in tops) for q in range(max(tops) + 1)]
    acc = np.zeros((n_grid, len(live), len(tops)))
    rows = max(1, min(n_grid, TILE_ROWS))
    step = max(1, min(n, TILE_ELEMENTS // rows))
    # one set of tile buffers per call: dk, w and, where the regressor
    # distances d (used only above power 0) differ from dk, d
    bufs = [np.empty(rows * step) for _ in range(3 if kpts is not ppts and len(live) > 1 else 2)]
    if window is not None:  # row g leaves out the terms lo[g] + reach below hi[g]
        lo, hi = window
        reach = np.arange(np.max(hi - lo, initial=0))
    # far weights underflow to 0, huge d^2 overflow to g(inf) = 0: right limits
    with np.errstate(over="ignore", under="ignore"):
        for c0 in range(0, n, step):
            block = slice(c0, c0 + step)
            m = min(step, n - c0)
            a = cols[block].take(order, axis=1)  # C-ordered; a[:, order] rounds otherwise
            for r0 in range(0, n_grid, rows):
                x = grid[r0 : r0 + rows, None]
                # C-contiguous views, laid out as fresh arrays would be
                dk, w, *own = (b[: len(x) * m].reshape(len(x), m) for b in bufs)
                np.subtract(kpts[None, block], x, out=dk)
                d = np.subtract(ppts[None, block], x, out=own[0]) if own else dk
                np.multiply(dk, dk, out=w)
                kernel.profile(w, scale, w)  # in place over the squared distances
                if window is not None:
                    i = lo[r0 : r0 + rows, None] + reach
                    cut = (i < hi[r0 : r0 + rows, None]) & (c0 <= i) & (i < c0 + w.shape[1])
                    w[np.nonzero(cut)[0], i[cut] - c0] = 0.0
                for q, c in enumerate(live):
                    acc[r0 : r0 + rows, q, :c] += w @ a[:, :c]
                    if q < len(live) - 1:
                        w *= d
    acc /= kernel.norm
    return acc[..., sorted(range(len(order)), key=order.__getitem__)]


def _bins(h: float, span: float):
    """The fewest bins, a power of two up to CV_BINS, that put CV_H_BINS bins
    inside h over a sample of range `span`, and their width."""
    m = CV_BINS
    while m > 2 and (m // 2 - 1) * h >= CV_H_BINS * span:
        m //= 2
    return m, span / (m - 1) or 1.0  # any width bins a constant sample


def _linear_bins(pts, lo: float, width: float, m: int):
    """Linear binning onto m bins of `width` from `lo`: point i puts
    g[i] = 1 - f[i] on bin b[i] and f[i] on bin b[i] + 1. Returns (b, f, g)."""
    f = (pts - lo) / width
    b = np.minimum(f.astype(np.intp), m - 2)
    f -= b
    return b, f, 1.0 - f


def _bin_weights(b, f, g, weights, size: int):
    """Each of `weights` of linearly binned points, summed onto `size` bins."""
    return [np.bincount(b, g * w, size) + np.bincount(b + 1, f * w, size) for w in weights]


def _poorly_binned(s, k0, width: float, degree: int):
    """The rows of binned power sums s [rows, 2 degree + 1] that fail a
    fallback test (module docstring); k0 = K(0)."""
    s0 = s[:, 0]
    poor = s0 <= CV_MIN_MASS * k0
    if degree:
        poor |= s0 * s[:, 2] - s[:, 1] ** 2 <= (CV_MIN_SPREAD * width * s0) ** 2
    return poor


def _tops(degree: int, responses: int):
    """The top powers of the weight columns [1 | responses] of a degree-p
    fit: 2p for the unit column, p for each response."""
    return [2 * degree] + [degree] * responses


def _columns(e, responses, degree: int):
    """The weight columns of `_combine`'s sums, and the top power of each:
    [1 | responses] when e is None; else e^m, m <= 2 degree, up to power
    2 degree - m, then e^m r, m <= degree, up to power degree - m."""
    if e is None:
        return [1.0, *responses.T], _tops(degree, responses.shape[1])
    pows = [1.0, *np.cumprod([e] * (2 * degree), axis=0)]
    cols = pows + [pows[m] * r for m in range(degree + 1) for r in responses.T]
    tops = [2 * degree - m for m in range(2 * degree + 1)]
    return cols, tops + [degree - m for m in range(degree + 1) for _ in responses.T]


def _combine(a, offset: bool, degree: int):
    """S_j and T_j from sums a[i, q, c] of K dk^q times column c of
    `_columns`, whose offsets e are all 0 unless `offset`, by
    d^j = sum_q C(j, q) dk^q e^(j-q) (module docstring)."""
    if not offset:
        return a[..., 0], a[..., : degree + 1, 1:]
    r = a[..., 2 * degree + 1 :].reshape(*a.shape[:-1], degree + 1, -1)
    s, t = ([sum(math.comb(j, q) * x[:, q, j - q] for q in range(j + 1)) for j in range(top)]
            for x, top in ((a, 2 * degree + 1), (r, degree + 1)))
    return np.stack(s, axis=-1), np.stack(t, axis=-2)


def _exact_sums(kpts, ppts, cols, grid, kernel: Kernel, h: float, degree: int,
                window=None):
    """S_0..S_2p and T_0..T_p of the degree-p fit of the weight columns
    `cols` = [1 | responses] from one `_power_sums` call, with its `window`."""
    tops = _tops(degree, cols.shape[1] - 1)
    return _combine(_power_sums(kpts, ppts, cols, tops, grid, kernel, h, window), False, degree)


def _binned_power_sums(kpts, ppts, cols, grid, kernel: Kernel, h: float, degree: int,
                       m: int, width: float):
    """The S_j and T_j of `_fit_sums` at one Gaussian bandwidth, from m bins
    of `width` (see the module docstring)."""
    lo = float(kpts.min())
    offset = ppts is not kpts
    binned = 0.0  # the binned columns of `_columns`, then the same weighted by f g
    step = TILE_ELEMENTS // TILE_ROWS  # the engine's own term block
    for c0 in range(0, len(kpts), step):
        block = slice(c0, c0 + step)
        b, f, g = _linear_bins(kpts[block], lo, width, m)
        e = ppts[block] - kpts[block] if offset else None
        weights, tops = _columns(e, cols[block][:, 1:], degree)
        sums = _bin_weights(b, f, g, weights, m)
        fg = f * g
        f *= fg
        g *= fg
        binned += np.column_stack(sums + _bin_weights(b, f, g, weights, m))
    centres = lo + width * np.arange(m)
    scale = min(1.0 / h / h, sys.float_info.max)
    # the bin centres are the terms; the f g columns go two powers further,
    # for the correction
    a = _power_sums(centres, centres, binned, tops + [top + 2 for top in tops], grid, kernel, h)
    s, s_fg = np.split(a, 2, axis=2)
    # a term's chord exceeds phi = K d^j by D^2 f g phi'' / 2, and here
    # phi'' = K (d^(j+2) / h^4 - (2j + 1) d^j / h^2 + j (j - 1) d^(j-2))
    j = np.arange(s.shape[1] - 2)[:, None]
    err = (s_fg[:, 2:] * scale - (2 * j + 1) * s_fg[:, :-2]) * scale
    err[:, 2:] += j[2:] * (j[2:] - 1) * s_fg[:, :-4]
    return _combine(s[:, :-2] - 0.5 * width * width * err, offset, degree)


def _fit_sums(kpts, ppts, cols, grid, kernel: Kernel, h: float, degree: int):
    """S_0..S_2p and T_0..T_p of the degree-p fit at bandwidth h of the
    weight columns `cols` = [1 | responses], and how they were taken: the
    backend, binned or exact, the bin count and the grid points rescored
    exactly, the last two None when exact."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if kernel is GAUSSIAN and len(kpts) >= BINNED_MIN_TERMS:
        m, width = _bins(h, float(np.ptp(kpts)))
        if h >= CV_H_BINS * width:
            s, t = _binned_power_sums(kpts, ppts, cols, grid, kernel, h, degree, m, width)
            redo = np.flatnonzero(_poorly_binned(s, kernel.eval(0.0), width, degree))
            if redo.size:
                s[redo], t[redo] = _exact_sums(kpts, ppts, cols, grid[redo], kernel, h, degree)
            return s, t, {"backend": "binned", "bins": m, "rescored": int(redo.size)}
    s, t = _exact_sums(kpts, ppts, cols, grid, kernel, h, degree)
    return s, t, {"backend": "exact", "bins": None, "rescored": None}


def _leave_out_sums(xt: ProxySeries, resp, h_grid, cfg: EstimatorConfig, deleted: range):
    """For each h of the ascending `h_grid`, the leave-out sums S_0..S_2p and
    T_0..T_p of CV's drift fit to `resp` (the caller's `drift_responses(xt)`)
    at every regressor point i, without the terms i + o, o in `deleted`, and
    how they were taken: the bin count (None: exact throughout) and the terms
    scored exactly. Yields (s, t, bins, exact terms); s and t are overwritten
    at the next h."""
    kpts, ppts = term_points(xt, cfg.index_alignment)
    degree, n = _degree(cfg.method), len(resp)
    cols = _Responses(xt, (drift_responses,))
    s, t = np.empty((n, 2 * degree + 1)), np.empty((n, degree + 1, 1))
    lo = min(kpts.min(), ppts.min())  # one range for both
    span = float(max(kpts.max(), ppts.max()) - lo)
    terms, binning = np.arange(n), None
    for h in h_grid:
        m, width = _bins(h, span)
        redo = terms
        if h < CV_BINS_PER_H * width:
            m = None
        else:
            if binning is None or binning.m != m:
                binning = None  # free the old binning first: one in memory at a time
                binning = _Binning(kpts, ppts, resp, degree, m, lo, width, deleted)
            redo = np.flatnonzero(binning.sums(h, cfg.kernel, s, t))
        if redo.size:  # leaving out at each term what the deletion rule removes
            s[redo], t[redo] = _exact_sums(kpts, ppts, cols, ppts[redo], cfg.kernel, h, degree,
                                           (redo + deleted.start, redo + deleted.stop))
        yield s, t, m, redo.size


class _Binning:
    """The kernel and regressor points binned linearly onto m bins of `width`
    from `lo` (kbins, pbins: (b, f, g), g = 1 - f on bin b and f on b + 1),
    and what every h scored on them shares: the spectra of the binned
    `_columns`. `deleted` is the deletion rule of `_leave_out_sums`."""

    def __init__(self, kpts, ppts, resp, degree: int, m: int, lo: float, width: float,
                 deleted: range):
        from numpy import fft  # only binned CV needs it; keeps it off CLI start-up

        self.m, self.degree, self.width, self.deleted = m, degree, width, deleted
        self.offset = ppts is not kpts
        self.cols, self.tops = _columns(ppts - kpts if self.offset else None, resp[:, None],
                                        degree)
        # zero-padded to 2m bins, the circular correlation with a lag kernel
        # is the linear one; entry q of a lag kernel holds lag q, entry 2m - q
        # lag -q
        self.size = 2 * m
        self.kbins = b, f, g = _linear_bins(kpts, lo, width, m)
        self.pbins = _linear_bins(ppts, lo, width, m) if self.offset else self.kbins
        self.spectra = [fft.rfft(w) for w in _bin_weights(b, f, g, self.cols, self.size)]
        self.lag = fft.fftfreq(self.size, 1.0 / self.size) * width

    def sums(self, h: float, kernel, s, t):
        """Fill s and t with the binned leave-out sums at h. Returns the mask
        of terms whose leave-out design is poorly conditioned."""
        from numpy import fft

        k0 = kernel.eval(self.lag / h)
        (bk, fk, gk), (b, f, g), n = self.kbins, self.pbins, len(s)
        kaps = [k0 * self.lag**q for q in range(max(self.tops) + 1)]
        live = [[c for c, top in enumerate(self.tops) if top >= q] for q in range(len(kaps))]
        # [term, power, column]: minus the binned share of the deleted terms,
        # then plus the binned sums; -D + B has the bits of B - D
        a = np.zeros((n, len(kaps), len(self.cols)))
        for o in self.deleted:
            # term k = i + o at regressor i, d = bk[k] - b[i] bins away,
            # pairs bins at lags d, d + 1 and d - 1
            i, k = slice(max(-o, 0), n - max(o, 0)), slice(max(o, 0), n - max(-o, 0))
            d = bk[k] - b[i]
            up, down = d + 1, d - 1
            same, to_up, to_down = g[i] * gk[k] + f[i] * fk[k], g[i] * fk[k], f[i] * gk[k]
            for q, kap in enumerate(kaps):
                near = same * kap[d] + to_up * kap[up] + to_down * kap[down]
                for c in live[q]:
                    col = self.cols[c]
                    a[i, q, c] -= near if np.ndim(col) == 0 else near * col[k]
        for q, kap in enumerate(kaps):
            spectrum = np.conj(fft.rfft(kap))
            for c in live[q]:
                full = fft.irfft(self.spectra[c] * spectrum, self.size)
                a[:, q, c] += g * full[b] + f * full[b + 1]
        s[:], t[:] = _combine(a, self.offset, self.degree)
        return _poorly_binned(s, k0[0], self.width, self.degree)


def _degree(*methods) -> int:
    """The least local polynomial degree whose power sums fit all `methods`."""
    return 0 if set(methods) == {NADARAYA_WATSON} else 1


def _unit_diagonal(s):
    """R = D^-1 [S_(i+j)] D^-1 of sums s [G, 2p + 1], and diag D = sqrt(S_2j)."""
    d = np.sqrt(s[:, ::2])
    i = np.arange(d.shape[1])
    return s[:, i[:, None] + i] / d[:, :, None] / d[:, None], d


def _defined(s, n_terms: int):
    """Where the degree-p fit of power sums s [..., 2p + 1] is defined
    (module docstring); NaN sums fail."""
    ok = s[..., 0] >= DEGENERACY_FLOOR * n_terms
    if s.shape[-1] == 3:
        s0s2 = s[..., 0] * s[..., 2]
        ok &= s0s2 - s[..., 1] * s[..., 1] > COND_FLOOR * s0s2
    elif s.shape[-1] > 3:
        with np.errstate(divide="ignore", invalid="ignore"):  # S_2j = 0: R is NaN
            ok[ok] = np.linalg.det(_unit_diagonal(s[ok])[0]) > COND_FLOOR
    return ok


def _closed_form(s, t, method: str, n_terms: int):
    """The local linear or Nadaraya-Watson fit from power sums of a degree
    >= its own (the Nadaraya-Watson S_0, T_0 are the j = 0 sums of a local
    linear pass). Returns (values [..., R, G], n_eff, defined mask); values
    are NaN where the fit is undefined (`_defined`)."""
    s0 = s[..., 0]
    ok = _defined(s[..., : 2 * _degree(method) + 1], n_terms)
    if method == NADARAYA_WATSON:
        num, den = t[..., 0, :], s0
    else:
        s1, s2 = s[..., 1], s[..., 2]
        den = s0 * s2 - s1 * s1
        num = s2[..., None] * t[..., 0, :] - s1[..., None] * t[..., 1, :]
    vals = np.where(ok[..., None], num / np.where(ok, den, 1.0)[..., None], np.nan)
    return vals.swapaxes(-1, -2), s0, ok


def estimate_curve(xt: ProxySeries, grid, cfg: EstimatorConfig) -> CurveEstimate:
    """Drift and second-moment curves over a grid (defaults to the inner
    quantile grid of the sample). Degenerate grid points are NaN and counted,
    not raised."""
    return estimate_curves(xt, grid, cfg, (cfg.method,))[cfg.method]


def estimate_curves(xt: ProxySeries, grid, cfg: EstimatorConfig, methods) -> dict:
    """estimate_curve for each of `methods` (overriding cfg.method), keyed by
    method, from one pass of the kernel sums: the Nadaraya-Watson sums are
    the j = 0 sums of the local linear pass, so every curve has the bits of
    its own estimate_curve. The pass also fits the fourth-power responses,
    which the bands need (m4_hat)."""
    if grid is None:
        grid = default_grid(xt)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    kpts, ppts = term_points(xt, cfg.index_alignment)
    responses = _Responses(xt, (drift_responses, second_moment_responses,
                                fourth_moment_responses))
    s, t, sums = _fit_sums(kpts, ppts, responses, grid, cfg.kernel, cfg.bandwidth,
                           _degree(*methods))
    out = {}
    for method in methods:
        (mu_hat, m_hat, m4_hat), n_eff, ok = _closed_form(s, t, method, len(kpts))
        out[method] = CurveEstimate(
            grid=grid,
            mu_hat=mu_hat,
            m_hat=m_hat,
            m4_hat=m4_hat,
            h=cfg.bandwidth,
            n_eff=n_eff,
            delta=xt.delta,
            n_terms=len(kpts),
            method=method,
            undefined_count=int((~ok).sum()),
            kernel=cfg.kernel,
            index_alignment=cfg.index_alignment,
            sums=sums,
        )
    return out


def _local_cubic(xt, cols, grid, kernel, h, index_alignment):
    """Second derivatives over `grid`, one row per response, of local cubic
    fits of `cols` = [1 | responses] at a pilot bandwidth h (above the curve
    h: derivatives need more smoothing), and how the kernel sums were taken
    (`_fit_sums`). The sums are in data units, as every fit's; the normal
    equations are solved equilibrated, R z = D^-1 T (module docstring), and
    the curvature is 2 z_2 / sqrt(S_4). NaN where `_defined` fails."""
    kpts, ppts = term_points(xt, index_alignment)
    s, t, sums = _fit_sums(kpts, ppts, cols, grid, kernel, h, 3)
    ok = _defined(s, len(kpts))
    r, d = _unit_diagonal(s[ok])
    out = np.full(t.shape[::2], np.nan)
    out[ok] = 2.0 * np.linalg.solve(r, t[ok] / d[..., None])[:, 2] / d[:, 2:3]
    return out.T, sums
