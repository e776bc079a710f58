"""Bandwidth selection: rule of thumb and leave-one-out cross-validation.

Cross-validation (CV) has two backends that score the same leave-out fits.

`exact` runs the kernel-sum engine of `lljd.estimators` once over the whole
grid, with every (regressor point, term) pair evaluated: O(n^2 H) work. It is
the oracle of the binned backend.

`binned`, the default, follows KernSmooth (Fan & Marron 1994, JCGS 3:35-56;
Wand 1994, JCGS 3:433-445). The kernel points are binned linearly onto
CV_BINS equally spaced bins, once with weight 1 and once weighted by the
responses. For each h the lag kernels kappa_j[m] = K(m D / h) (m D)^j, D the
bin width, are correlated with both by FFT, which gives S_0..S_2 and
T_0..T_1 at every bin centre; linear interpolation carries them to the
regressor points. The deleted terms i-1..i+1 are then subtracted in the same
binned bilinear form (their bin pairs looked up in kappa_j), so a leave-out
sum is the binned sum of exactly the terms that remain.

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
grid). With the Gaussian kernel the binned CV values are within 1e-7
relative of exact, with the Epanechnikov kernel within 5e-6; the chosen h and
the degenerate counts are the same on every stand-in, 65-511 of the 120k
(h, term) pairs fall back, and CV takes about 0.2 s against about 3 s.
The binned backend streams one bandwidth at a time in O(n + CV_BINS)
memory. Aligned indexing takes the binned path; 'as_written' indexing uses
`exact`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .estimators import (
    NADARAYA_WATSON,
    EstimatorConfig,
    _closed_form,
    _fit,
    _power_sums,
    drift_responses,
    term_points,
)
from .proxy import ProxySeries

__all__ = ["BandwidthChoice", "rule_of_thumb", "default_cv_grid", "cross_validate"]

# Bins of the binned CV sums.
CV_BINS = 1 << 14
# The exact-fallback tests of the module docstring: the least leave-out
# kernel mass in units of K(0), i.e. of terms at zero distance; R; and the
# least weighted spread of the leave-out design, in bins.
CV_MIN_MASS = 4.0
CV_FALLBACK_RATIO = 100.0
CV_MIN_SPREAD = 2.0
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


def rule_of_thumb(xt: ProxySeries, t_span: float | None = None) -> BandwidthChoice:
    """h = 1.06 * S * (n*delta)^(-1/5), S the sample standard deviation.

    The effective span n*delta defaults to the length of the series times its
    step, i.e. the observation window.
    """
    if t_span is None:
        t_span = len(xt.xt) * xt.delta
    if t_span <= 0:
        raise ValidationError(f"observation span must be positive, got {t_span}")
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
    sse, degen_counts, exact_terms = score(kpts, ppts, resp, h_grid, cfg)
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
    )


def _penalised_errors(resp, pred, ok):
    """Leave-out prediction errors; a degenerate fit scores the global mean."""
    return np.where(ok, resp - pred, resp - resp.mean())


def _exact_scores(kpts, ppts, resp, h_grid, cfg):
    """(sum of squared errors [H], degenerate counts [H], exact pairs) from
    one pass of the kernel-sum engine over the whole grid."""
    n = len(resp)
    idx = np.arange(n)
    deleted = (idx - 1, idx + 2)  # terms i-1, i, i+1 leave the fit at ppts[i]
    # values [H, 1, n], ok [H, n]
    pred, _, ok = _fit(kpts, ppts, resp[:, None], ppts, cfg, deleted, h_grid)
    err = _penalised_errors(resp, pred[:, 0], ok)
    return np.array([e @ e for e in err]), (~ok).sum(axis=1), n * len(h_grid)


def _binned_scores(kpts, ppts, resp, h_grid, cfg):
    """_exact_scores from binned kernel sums, one bandwidth at a time, with
    the exact fallback of the module docstring. Aligned indexing: ppts is
    kpts."""
    from numpy import fft  # only binned CV needs it; keeps it off CLI start-up

    n, m = len(resp), CV_BINS
    degree = 0 if cfg.method == NADARAYA_WATSON else 1
    # linear binning: term i puts g[i] = 1 - f[i] on bin b[i], f[i] on b[i] + 1
    width = float(np.ptp(kpts)) / (m - 1) or 1.0  # any width bins a constant sample
    f = (kpts - kpts.min()) / width
    b = np.minimum(f.astype(np.intp), m - 2)
    f -= b
    g = 1.0 - f
    # zero-padded to 2m bins, the circular correlation with a lag kernel is
    # the linear one; entry q of a lag kernel holds lag q, entry 2m - q lag -q
    size = 2 * m
    binned = [fft.rfft(np.bincount(b, g * w, size) + np.bincount(b + 1, f * w, size))
              for w in (1.0, resp)]
    lag = fft.fftfreq(size, 1.0 / size) * width

    def at_points(w, spectrum):
        """A binned sum correlated with a lag kernel, at each regressor."""
        full = fft.irfft(binned[w] * spectrum, size)
        return g * full[b] + f * full[b + 1]

    def deleted(kap, r):
        """The binned share of terms i-1..i+1 in a sum at regressor i, each
        term weighted by r (by 1 when r is None). Term i + 1 at regressor i
        pairs bins at lags d - 1, d and d + 1; term i at i + 1 the negatives."""
        d = b[1:] - b[:-1]
        mid, up, down = g[:-1] * g[1:] + f[:-1] * f[1:], g[:-1] * f[1:], f[:-1] * g[1:]
        ahead = mid * kap[d] + up * kap[d + 1] + down * kap[d - 1]
        behind = mid * kap[-d] + down * kap[1 - d] + up * kap[-1 - d]
        out = (g * g + f * f) * kap[0] + g * f * (kap[1] + kap[-1])
        if r is not None:
            out *= r
            ahead *= r[1:]
            behind *= r[:-1]
        out[:-1] += ahead
        out[1:] += behind
        return out

    def binned_sums(h):
        """Fill s and t with the binned leave-out sums at h. Returns the mask
        of terms whose leave-out design is poorly conditioned."""
        k0 = cfg.kernel.eval(lag / h)
        for j in range(2 * degree + 1):
            kap = k0 * lag**j
            spectrum = np.conj(fft.rfft(kap))
            s[:, j] = at_points(0, spectrum) - deleted(kap, None)
            if j <= degree:
                t[:, j, 0] = at_points(1, spectrum) - deleted(kap, resp)
        s0 = s[:, 0]
        poor = s0 <= CV_MIN_MASS * k0[0]
        if degree:
            s0s2 = s0 * s[:, 2]
            det = s0s2 - s[:, 1] ** 2
            poor |= det * CV_FALLBACK_RATIO <= s0s2
            poor |= det <= (CV_MIN_SPREAD * width * s0) ** 2
        return poor

    sse = np.empty(len(h_grid))
    degen = np.empty(len(h_grid), dtype=np.int64)
    exact_terms = 0
    s, t = np.empty((n, 2 * degree + 1)), np.empty((n, degree + 1, 1))
    for k, h in enumerate(h_grid):
        # every term of a bandwidth the bins cannot resolve is scored exactly
        coarse = h < CV_BINS_PER_H * width
        redo = np.arange(n) if coarse else np.flatnonzero(binned_sums(h))
        if redo.size:
            exact = _power_sums(kpts, kpts, resp[:, None], kpts[redo], cfg.kernel, h,
                                degree, (redo - 1, redo + 2))
            s[redo], t[redo] = exact[0][0], exact[1][0]
            exact_terms += redo.size
        (pred,), _, ok = _closed_form(s, t, cfg.method, n)
        err = _penalised_errors(resp, pred, ok)
        sse[k], degen[k] = err @ err, n - np.count_nonzero(ok)
    return sse, degen, exact_terms
