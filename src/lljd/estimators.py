"""Local polynomial estimation from proxy series: local linear and
Nadaraya-Watson curve fits, local cubic curvature and kernel density.

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

One routine, `_power_sums`, computes them for any number of responses and
any number of bandwidths, with a leading bandwidth axis. Its callers read:

    estimate_curve, fit_responses   p=1: the local linear intercept
                                    (S_2 T_0 - S_1 T_1) / (S_0 S_2 - S_1^2);
                                    p=0: the Nadaraya-Watson mean T_0 / S_0
    estimate_curves                 both from one p=1 pass: the NW sums are
                                    its j = 0 sums
    second_derivative_fit           p=3: S_0..S_6 and T_0..T_3 form the 4x4
                                    normal equations, solved in one batch
    density_estimate                p=0: S_0 over every proxy, / (n h)
    bandwidth.cross_validate        backend 'exact': the p=0/1 fit at the
                                    regressor points, with an exclusion
                                    window, for the whole bandwidth grid in
                                    one pass. Backend 'binned' (the
                                    default) takes the sums from FFTs of
                                    binned points and calls this engine
                                    only for its few ill-conditioned
                                    leave-out fits

S_0 is the kernel mass n_eff. The exclusion window gives each evaluation
point a range of terms lo <= i < hi to leave out; their kernel weights are
set to zero before anything is summed, so a leave-out fit is exactly the fit
on the remaining terms. The sums accumulate over tiles of at most
TILE_ELEMENTS (evaluation point, term) pairs: TILE_ROWS points by all terms
when that fits, term blocks otherwise. Each tile computes its distances and
window once and then loops over the bandwidths. A fit therefore needs
working memory of a few 1 MB tiles, however many terms it has; tiles that
small stay in cache and are never page-faulted afresh.

`ll_weights` is the single-point weight form of the local linear fit,

    w[i] = K_i * (S_2 - d_i * S_1),

and the curve estimate is the weighted mean of responses. This closed form
equals the intercept of the kernel-weighted least squares line through the
responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError
from .kernels import GAUSSIAN, Kernel
from .proxy import ProxySeries

__all__ = [
    "EstimatorConfig",
    "CurveEstimate",
    "LOCAL_LINEAR",
    "NADARAYA_WATSON",
    "default_grid",
    "drift_responses",
    "second_moment_responses",
    "ll_weights",
    "fit_responses",
    "estimate_curve",
    "estimate_curves",
    "density_estimate",
    "second_derivative_fit",
]

LOCAL_LINEAR = "local_linear"
NADARAYA_WATSON = "nadaraya_watson"

# A grid point is treated as undefined when the kernel mass there falls below
# this fraction of the term count; avoids 0/0 amplification in empty regions.
DEGENERACY_FLOOR = 1e-10

# A local cubic design whose reciprocal condition number falls below this is
# singular: fewer than four distinct regressors carry weight, and a solve
# would return rounding noise. Its grid point is undefined.
CUBIC_RCOND = 1e-12

# Working-memory bound of the kernel sums: a tile holds at most TILE_ELEMENTS
# (evaluation point, term) pairs, 1 MB per float64 temporary. It spans
# TILE_ROWS points by all terms when that fits, and term blocks otherwise.
# Such tiles stay in a core's L2 cache and are reused by the allocator, while
# tiles of many MB are page-faulted afresh by every numpy operation on them.
TILE_ROWS = 16
TILE_ELEMENTS = 1 << 17


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
        if self.index_alignment not in ("as_written", "aligned"):
            raise ValidationError(f"unknown index alignment {self.index_alignment!r}")


@dataclass
class CurveEstimate:
    """Estimated drift and second-moment curves over a grid.

    n_eff[k] is the kernel mass at grid[k]; points below the degeneracy floor
    are NaN and counted in undefined_count. m_hat is deliberately not clipped
    at zero: negative values flag under-smoothed regions.
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
    bands: Optional["object"] = field(default=None, repr=False)


def _check_series(xt: ProxySeries) -> np.ndarray:
    arr = np.asarray(xt.xt, dtype=float)
    if len(arr) < 3:
        raise ValidationError("proxy series must have length >= 3")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValidationError(f"non-finite proxy entry at index {bad[0]}")
    return arr


def term_points(xt: ProxySeries, index_alignment: str = "aligned"):
    """Kernel points and regressor points of the estimating terms."""
    arr = _check_series(xt)
    kpts = arr[:-2]
    ppts = arr[1:-1] if index_alignment == "as_written" else kpts
    return kpts, ppts


def drift_responses(xt: ProxySeries) -> np.ndarray:
    arr = _check_series(xt)
    return (arr[2:] - arr[1:-1]) / xt.delta


def second_moment_responses(xt: ProxySeries, rescaled: bool = True) -> np.ndarray:
    """Squared-difference responses; `rescaled` applies the 3/2 attenuation
    correction (the estimator proper), otherwise the raw statistic targets
    (2/3) M(x)."""
    arr = _check_series(xt)
    out = (arr[2:] - arr[1:-1]) ** 2 / xt.delta
    return 1.5 * out if rescaled else out


def default_grid(xt: ProxySeries, n_points: int = 101, range_mode: str = "inner") -> np.ndarray:
    """Evaluation grid over the sample range of the proxies.

    'inner' spans the 2.5%..97.5% sample quantiles (extrapolation into empty
    tails is rarely meaningful); 'full' spans min..max for boundary studies.
    """
    arr = _check_series(xt)
    if range_mode == "inner":
        lo, hi = np.quantile(arr, [0.025, 0.975])
    elif range_mode == "full":
        lo, hi = arr.min(), arr.max()
    else:
        raise ValidationError(f"unknown range mode {range_mode!r}")
    return np.linspace(lo, hi, n_points)


def _power_sums(kpts, ppts, responses, grid, kernel: Kernel, h, degree: int,
                window=None):
    """Weighted power sums of the degree-`degree` local polynomial fit (see
    the module docstring) at each bandwidth of the 1-d array `h`:
    s[k, g, j] = S_j at h[k] for j = 0..2*degree and t[k, g, j, r] = T_j of
    column r of `responses` [n_terms, R] for j = 0..degree. `window` =
    (lo, hi) leaves terms lo[g] <= i < hi[g] out of the sums at grid[g]."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    n, n_grid = len(kpts), len(grid)
    s = np.zeros((len(h), n_grid, 2 * degree + 1))
    t = np.zeros((len(h), n_grid, degree + 1, responses.shape[1]))
    rows = max(1, min(n_grid, TILE_ROWS))
    cols = max(1, min(n, TILE_ELEMENTS // rows))
    for r0 in range(0, n_grid, rows):
        x = grid[r0 : r0 + rows, None]
        for c0 in range(0, n, cols):
            d = ppts[None, c0 : c0 + cols] - x
            dk = d if kpts is ppts else kpts[None, c0 : c0 + cols] - x
            u = np.empty_like(dk)
            if window is not None:
                term = np.arange(c0, c0 + d.shape[1])
                zr, zc = np.nonzero((window[0][r0 : r0 + rows, None] <= term)
                                    & (term < window[1][r0 : r0 + rows, None]))
            for k, hk in enumerate(h):
                w = kernel.eval(np.divide(dk, hk, out=u))
                if window is not None:
                    w[zr, zc] = 0.0
                for j in range(2 * degree + 1):
                    s[k, r0 : r0 + rows, j] += w.sum(axis=1)
                    if j <= degree:
                        t[k, r0 : r0 + rows, j] += w @ responses[c0 : c0 + cols]
                    if j < 2 * degree:
                        w *= d
    return s, t


def _closed_form(s, t, method: str, n_terms: int):
    """The local linear or Nadaraya-Watson fit from power sums of a degree
    >= its own (the Nadaraya-Watson S_0, T_0 are the j = 0 sums of a local
    linear pass). Returns (values [..., R, G], n_eff, defined mask); values
    are NaN where the fit is undefined."""
    s0 = s[..., 0]
    ok = s0 >= DEGENERACY_FLOOR * n_terms
    if method == NADARAYA_WATSON:
        num, den = t[..., 0, :], s0
    else:
        s1, s2 = s[..., 1], s[..., 2]
        den = s0 * s2 - s1 * s1
        ok = ok & (den > 0) & np.isfinite(den)
        num = s2[..., None] * t[..., 0, :] - s1[..., None] * t[..., 1, :]
    vals = np.where(ok[..., None], num / np.where(ok, den, 1.0)[..., None], np.nan)
    return vals.swapaxes(-1, -2), s0, ok


def _fit(kpts, ppts, responses, grid, cfg: EstimatorConfig, window=None, h=None):
    """The configured local linear or Nadaraya-Watson fit of each column of
    `responses` [n_terms, R]. Returns (values [R, G], n_eff, defined mask);
    values are NaN where the fit is undefined. A 1-d array `h` of bandwidths
    replaces cfg.bandwidth and adds a leading bandwidth axis to each result."""
    degree = 0 if cfg.method == NADARAYA_WATSON else 1
    s, t = _power_sums(kpts, ppts, responses, grid, cfg.kernel,
                       cfg.bandwidth if h is None else h, degree, window)
    vals, s0, ok = _closed_form(s, t, cfg.method, len(kpts))
    return (vals, s0, ok) if h is not None else (vals[0], s0[0], ok[0])


def fit_responses(xt: ProxySeries, responses, grid, cfg: EstimatorConfig):
    """Fit an arbitrary response vector (one entry per estimating term) over a
    grid. Returns (values, n_eff, undefined_count)."""
    kpts, ppts = term_points(xt, cfg.index_alignment)
    responses = np.asarray(responses, dtype=float)
    if len(responses) != len(kpts):
        raise ValidationError(
            f"expected {len(kpts)} responses (one per term), got {len(responses)}"
        )
    vals, n_eff, ok = _fit(kpts, ppts, responses[:, None], grid, cfg)
    return vals[0], n_eff, int((~ok).sum())


def ll_weights(xt: ProxySeries, x: float, cfg: EstimatorConfig) -> np.ndarray:
    """Local linear weights at a single evaluation point, one per estimating
    term. An (almost) all-zero vector signals an empty neighbourhood; callers
    decide how to treat it."""
    kpts, ppts = term_points(xt, cfg.index_alignment)
    h = cfg.bandwidth
    kv = cfg.kernel.eval((kpts - x) / h)
    d = ppts - x
    s1 = float(kv @ d)
    s2 = float(kv @ (d * d))
    return kv * (s2 - d * s1)


def estimate_curve(xt: ProxySeries, grid, cfg: EstimatorConfig) -> CurveEstimate:
    """Drift and second-moment curves over a grid (defaults to the inner
    quantile grid of the sample). Degenerate grid points are NaN and counted,
    not raised."""
    return estimate_curves(xt, grid, cfg, (cfg.method,))[cfg.method]


def estimate_curves(xt: ProxySeries, grid, cfg: EstimatorConfig, methods) -> dict:
    """estimate_curve for each of `methods` (overriding cfg.method), keyed by
    method, from one pass of the kernel sums: the Nadaraya-Watson sums are
    the j = 0 sums of the local linear pass, so every curve has the bits of
    its own estimate_curve."""
    if grid is None:
        grid = default_grid(xt)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    kpts, ppts = term_points(xt, cfg.index_alignment)
    responses = np.column_stack([drift_responses(xt), second_moment_responses(xt)])
    degree = 0 if set(methods) == {NADARAYA_WATSON} else 1
    s, t = _power_sums(kpts, ppts, responses, grid, cfg.kernel, cfg.bandwidth, degree)
    out = {}
    for method in methods:
        (mu_hat, m_hat), n_eff, ok = _closed_form(s[0], t[0], method, len(kpts))
        out[method] = CurveEstimate(
            grid=grid,
            mu_hat=mu_hat,
            m_hat=m_hat,
            h=cfg.bandwidth,
            n_eff=n_eff,
            delta=xt.delta,
            n_terms=len(kpts),
            method=method,
            undefined_count=int((~ok).sum()),
            kernel=cfg.kernel,
            index_alignment=cfg.index_alignment,
        )
    return out


def density_estimate(xt: ProxySeries, grid, kernel: Kernel, h: float) -> np.ndarray:
    """Kernel density of the proxy sample over a grid."""
    arr = _check_series(xt)
    if not (h > 0 and math.isfinite(h)):
        raise ValidationError(f"bandwidth must be positive, got {h}")
    s, _ = _power_sums(arr, arr, np.empty((len(arr), 0)), grid, kernel, h, 0)
    return s[0, :, 0] / (len(arr) * h)


def second_derivative_fit(
    xt: ProxySeries,
    responses,
    grid,
    kernel: Kernel,
    h: float,
    index_alignment: str = "aligned",
) -> np.ndarray:
    """Second derivative of the response curve via a local cubic fit.

    `responses` is one vector per estimating term, or several stacked as
    rows; the result is then [G] or one row per response. Derivative
    estimation needs more smoothing than the curve itself, so callers
    normally pass a pilot bandwidth larger than their curve h. Grid points
    with an empty neighbourhood or singular design come back NaN.
    """
    kpts, ppts = term_points(xt, index_alignment)
    responses = np.asarray(responses, dtype=float)
    # sums in u = d/h, where the normal equations are well scaled
    u = kpts / h
    s, t = _power_sums(
        u, u if ppts is kpts else ppts / h, np.atleast_2d(responses).T,
        np.asarray(grid, dtype=float) / h, kernel, 1.0, 3,
    )
    s, t = s[0], t[0]
    mat = s[:, np.add.outer(np.arange(4), np.arange(4))]
    sv = np.linalg.svd(mat, compute_uv=False)
    ok = (s[:, 0] >= DEGENERACY_FLOOR * len(kpts)) & (sv[:, -1] > CUBIC_RCOND * sv[:, 0])
    out = np.full(t.shape[::2], np.nan)
    out[ok] = 2.0 * np.linalg.solve(mat[ok], t[ok])[:, 2] / (h * h)
    return out.T if responses.ndim > 1 else out[:, 0]
