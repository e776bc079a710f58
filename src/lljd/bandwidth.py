"""Bandwidth selection: rule of thumb and leave-one-out cross-validation.

Cross-validation (CV) has two backends that score the same leave-out fits.

`exact` runs the kernel-sum engine of `lljd.estimators` once over the whole
grid, with every (regressor point, term) pair evaluated: O(n^2 H) work. It is
the oracle of the binned backend.

`binned`, the default, follows KernSmooth (Fan & Marron 1994, JCGS 3:35-56;
Wand 1994, JCGS 3:433-445). The kernel points are binned linearly onto M
equally spaced bins, once with weight 1 and once weighted by the responses.
For each h the lag kernels kappa_j[m] = K(m D / h) (m D)^j, D the bin width,
are correlated with both by FFT, which gives S_0..S_2 and T_0..T_1 at every
bin centre; linear interpolation carries them to the regressor points. The
deleted terms i-1..i+1 are then subtracted in the same binned bilinear form
(their bin pairs looked up in kappa_j), so a leave-out sum is the binned sum
of exactly the terms that remain. The binning, the bin-count rule below and
the fallback tests are those of `lljd.estimators`, which bins large fits the
same way (without FFTs: a fit needs sums at a few grid points only).

Binning error depends on how many bins one bandwidth spans, so each h gets
its own M: the fewest bins, a power of two, that put CV_H_BINS bins inside
h, and at most CV_BINS. The grid ascends, so M never rises along it; the
points are binned once per distinct M, and the following h reuse the two
binned spectra and the h-free factors of the deleted-term correction (the
bin offsets of neighbouring terms and their bilinear weights).

The exact engine rescores, with its own deletion window, every term whose
binned leave-out fit rests on too little to be trusted to the bins:

    S_0 <= CV_MIN_MASS * K(0)                       few terms' kernel mass
    (S_0 S_2 - S_1^2) * R <= S_0 S_2                nearly collinear
    S_0 S_2 - S_1^2 <= (CV_MIN_SPREAD D S_0)^2      spread within two bins

the last two for the local linear fit, with R = CV_FALLBACK_RATIO. These
are sparse-tail terms, where exact CV itself degenerates or nearly does and
binning error in one weight would move the fit. The mass test also keeps
terms just outside a compact kernel's support, which enter the binned sums
with small weights, from making an exactly collinear leave-out design look
well conditioned: without it, Epanechnikov CV values on the stand-ins below
were up to 7e-4 off and 4 of 16 had different degenerate counts. The spread
test catches tied values: terms at one place are spread over two bins,
which gives an exactly collinear design a spread of up to a bin. A
bandwidth narrower than CV_BINS_PER_H bins is scored by the exact engine
throughout. FFT round-off is absolute, below 1e-15 of the largest sum
(4e-16 to 8e-16 measured); tiny sums need no test of their own, because the
mass test keeps every binned S_0 above 4 K(0) while no S_0 exceeds n K(0).

`scripts/check_cv_backends.py` compares the backends on the 16 five-minute
stand-ins of the `empirical_cv` benchmark (4,799 terms each, the default
grid, where M falls from 2^14 to 2^9 or 2^10). The largest relative
difference of a binned CV value from exact is 4e-7 (Gaussian, local
linear), 7e-7 (Gaussian, Nadaraya-Watson), 8e-6 (Epanechnikov, local
linear) and 4e-6 (Epanechnikov, Nadaraya-Watson); the chosen h and the
degenerate counts are the same on every stand-in, 65-511 of the 120k (h,
term) pairs fall back, and CV takes about 0.1 s against about 3 s. The
binned backend streams one bandwidth at a time in O(n + CV_BINS) memory.
Aligned indexing takes the binned path; 'as_written' indexing uses `exact`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .estimators import (
    CV_BINS,
    EstimatorConfig,
    _bin_count,
    _bin_weights,
    _closed_form,
    _degree,
    _linear_bins,
    _poorly_binned,
    _power_sums,
    drift_responses,
    term_points,
)
from .proxy import ProxySeries

__all__ = ["BandwidthChoice", "rule_of_thumb", "default_cv_grid", "cross_validate"]

# The least bandwidth, in bins, that the binned sums score; at 32 bins the
# binning error of a CV value is below 3e-5 relative (Epanechnikov, the
# stand-ins with 2^10 to 2^14 bins).
CV_BINS_PER_H = 32


@dataclass(frozen=True)
class BandwidthChoice:
    h: float
    method: str  # rule_of_thumb | cross_validation | fixed
    cv_curve: Optional[tuple] = None  # ((h, cv), ...) when cross-validated
    cv_degenerate: Optional[tuple] = None  # per-h count of penalised terms
    cv_backend: Optional[str] = None  # binned | exact
    cv_exact_terms: Optional[int] = None  # (h, term) pairs the exact engine scored
    cv_bins: Optional[tuple] = None  # per-h bin count of binned CV (None: scored exactly)


def rule_of_thumb(xt: ProxySeries, t_span: float | None = None) -> BandwidthChoice:
    """h = 1.06 * S * (n*delta)^(-1/5), S the sample standard deviation.

    The effective span n*delta defaults to the length of the series times its
    step, i.e. the observation window.
    """
    if t_span is None:
        t_span = len(xt.xt) * xt.delta
    if t_span <= 0:
        raise ValidationError(f"observation span must be positive, got {t_span}")
    term_points(xt)  # a series too short to estimate from is named before its spread
    s = float(np.std(xt.xt, ddof=1))
    if s == 0.0 or not math.isfinite(s):
        raise ValidationError("degenerate sample: proxy series has zero variance")
    return BandwidthChoice(h=1.06 * s * t_span ** (-0.2), method="rule_of_thumb")


def default_cv_grid(h_center: float, n_points: int = 25, span: float = 5.0) -> np.ndarray:
    """Log-spaced grid bracketing a pilot bandwidth by a factor of `span`
    either side."""
    if h_center <= 0 or span <= 1:
        raise ValidationError("need a positive pilot bandwidth and span > 1")
    return np.geomspace(h_center / span, h_center * span, n_points)


def cross_validate(
    xt: ProxySeries,
    h_grid,
    cfg: EstimatorConfig | None = None,
    backend: str = "binned",
) -> BandwidthChoice:
    """Leave-one-out cross-validation of the drift fit over a bandwidth grid.

    CV(h) averages the squared prediction errors of the fit evaluated at each
    regressor point with that observation deleted. Deleting observation i
    removes every estimating term it touches: as kernel point, as regressor,
    and as response-difference member, i.e. terms i-1, i, i+1. Terms whose
    deleted fit is degenerate contribute the squared deviation from the global
    response mean instead (a conservative penalty) and are counted.

    `backend` is 'binned' (the default) or 'exact'; the module docstring
    describes both. 'binned' applies to aligned indexing and otherwise runs
    'exact'; the choice records the backend that ran and how many (h, term)
    pairs the exact engine scored (all of them under 'exact', the fallback
    terms under 'binned').

    Returns the grid argmin; exact ties resolve to the smaller bandwidth. A
    bandwidth at which every term degenerates is undefined; if that happens on
    the whole grid, the grid is rejected.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.ndim != 1 or len(h_grid) == 0:
        raise ValidationError("bandwidth grid must be a nonempty 1-d array")
    if np.any(h_grid <= 0) or np.any(np.diff(h_grid) < 0):
        raise ValidationError("bandwidth grid must be positive and sorted ascending")
    if backend not in ("binned", "exact"):
        raise ValidationError(f"unknown CV backend {backend!r}")
    if cfg is None:
        cfg = EstimatorConfig(bandwidth=1.0)
    if cfg.index_alignment != "aligned":
        backend = "exact"

    kpts, ppts = term_points(xt, cfg.index_alignment)
    resp = drift_responses(xt)
    score = _binned_scores if backend == "binned" else _exact_scores
    sse, degen_counts, exact_terms, bins = score(kpts, ppts, resp, h_grid, cfg)
    n = len(resp)
    cv_vals = np.where(degen_counts < n, sse / n, np.nan)

    if np.all(np.isnan(cv_vals)):
        raise ValidationError(
            "bandwidth grid too narrow: cross-validation undefined at every h"
        )
    best = int(np.nanargmin(cv_vals))
    return BandwidthChoice(
        h=float(h_grid[best]),
        method="cross_validation",
        cv_curve=tuple((float(h), float(c)) for h, c in zip(h_grid, cv_vals)),
        cv_degenerate=tuple(int(c) for c in degen_counts),
        cv_backend=backend,
        cv_exact_terms=exact_terms,
        cv_bins=bins,
    )


def _penalised_errors(resp, pred, ok):
    """Leave-out prediction errors; a degenerate fit scores the global mean."""
    return np.where(ok, resp - pred, resp - resp.mean())


def _exact_scores(kpts, ppts, resp, h_grid, cfg):
    """(sum of squared errors [H], degenerate counts [H], exact pairs, bin
    counts) from one pass of the kernel-sum engine over the whole grid; it
    bins nothing, so the bin counts are None."""
    n = len(resp)
    idx = np.arange(n)
    deleted = (idx - 1, idx + 2)  # terms i-1, i, i+1 leave the fit at ppts[i]
    s, t = _power_sums(kpts, ppts, resp[:, None], ppts, cfg.kernel, h_grid,
                       _degree(cfg.method), deleted)
    pred, _, ok = _closed_form(s, t, cfg.method, n)  # pred [H, 1, n], ok [H, n]
    err = _penalised_errors(resp, pred[:, 0], ok)
    return np.array([e @ e for e in err]), (~ok).sum(axis=1), n * len(h_grid), None


class _Binning:
    """The kernel points binned linearly onto m bins of one width: term i puts
    g[i] = 1 - f[i] on bin b[i] and f[i] on b[i] + 1. Holds what every
    bandwidth scored on these bins shares: the spectra of the binned unit and
    response weights, and the h-free factors of the deleted-term correction."""

    def __init__(self, kpts, resp, m: int, span: float):
        from numpy import fft  # only binned CV needs it; keeps it off CLI start-up

        self.m = m
        self.width = span / (m - 1) or 1.0  # any width bins a constant sample
        self.weights = (np.ones_like(resp), resp)
        # zero-padded to 2m bins, the circular correlation with a lag kernel
        # is the linear one; entry q of a lag kernel holds lag q, entry 2m - q
        # lag -q
        self.size = 2 * m
        self.b, self.f, self.g = b, f, g = _linear_bins(kpts, kpts.min(), self.width, m)
        self.spectra = [fft.rfft(w) for w in _bin_weights(b, f, g, self.weights, self.size)]
        self.lag = fft.fftfreq(self.size, 1.0 / self.size) * self.width
        # term i at regressor i pairs its two bins at lags 0 and +-1; term
        # i + 1 at regressor i pairs bins at lags d - 1, d and d + 1 with
        # these weights, and term i at regressor i + 1 the negatives
        self.d = b[1:] - b[:-1]
        self.own = g * g + f * f, g * f
        self.pair = g[:-1] * g[1:] + f[:-1] * f[1:], g[:-1] * f[1:], f[:-1] * g[1:]

    def _near(self, kap):
        """The binned weights of a lag kernel between regressor i and term
        i, term i + 1 (at i < n - 1) and term i - 1 (at i > 0)."""
        d, (mid, up, down) = self.d, self.pair
        return (self.own[0] * kap[0] + self.own[1] * (kap[1] + kap[-1]),
                mid * kap[d] + up * kap[d + 1] + down * kap[d - 1],
                mid * kap[-d] + down * kap[1 - d] + up * kap[-1 - d])

    def _leave_out(self, w: int, spectrum, near):
        """Binned sum w (0: unit weights, 1: responses) correlated with a lag
        kernel at each regressor i, less the share of terms i-1..i+1, whose
        kernel weights `near` holds."""
        from numpy import fft

        full = fft.irfft(self.spectra[w] * spectrum, self.size)
        r = self.weights[w]
        own, ahead, behind = near
        deleted = own * r
        deleted[:-1] += ahead * r[1:]
        deleted[1:] += behind * r[:-1]
        return self.g * full[self.b] + self.f * full[self.b + 1] - deleted

    def sums(self, h: float, kernel, degree: int, s, t):
        """Fill s and t with the binned leave-out sums at h. Returns the mask
        of terms whose leave-out design is poorly conditioned."""
        from numpy import fft

        k0 = kernel.eval(self.lag / h)
        for j in range(2 * degree + 1):
            kap = k0 * self.lag**j
            spectrum = np.conj(fft.rfft(kap))
            near = self._near(kap)
            s[:, j] = self._leave_out(0, spectrum, near)
            if j <= degree:
                t[:, j, 0] = self._leave_out(1, spectrum, near)
        return _poorly_binned(s, k0[0], self.width, degree)


def _binned_scores(kpts, ppts, resp, h_grid, cfg):
    """_exact_scores from binned kernel sums, one bandwidth at a time, with
    the exact fallback of the module docstring; the bin count at each h is
    None where the exact engine scored every term. Aligned indexing: ppts is
    kpts."""
    n = len(resp)
    degree = _degree(cfg.method)
    span = float(np.ptp(kpts))
    sse = np.empty(len(h_grid))
    degen = np.empty(len(h_grid), dtype=np.int64)
    bins = []
    exact_terms = 0
    s, t = np.empty((n, 2 * degree + 1)), np.empty((n, degree + 1, 1))
    binning = None
    m = CV_BINS
    for k, h in enumerate(h_grid):
        m = _bin_count(h, span, m)  # the grid ascends, so the count only falls
        if binning is None or binning.m != m:
            binning = None  # free the old binning first: one in memory at a time
            binning = _Binning(kpts, resp, m, span)
        # every term of a bandwidth the bins cannot resolve is scored exactly
        coarse = h < CV_BINS_PER_H * binning.width
        bins.append(None if coarse else m)
        redo = (np.arange(n) if coarse
                else np.flatnonzero(binning.sums(h, cfg.kernel, degree, s, t)))
        if redo.size:
            exact = _power_sums(kpts, kpts, resp[:, None], kpts[redo], cfg.kernel, h,
                                degree, (redo - 1, redo + 2))
            s[redo], t[redo] = exact[0][0], exact[1][0]
            exact_terms += redo.size
        (pred,), _, ok = _closed_form(s, t, cfg.method, n)
        err = _penalised_errors(resp, pred, ok)
        sse[k], degen[k] = err @ err, n - np.count_nonzero(ok)
    return sse, degen, exact_terms, tuple(bins)
