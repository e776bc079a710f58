"""Bandwidth selection: rule of thumb and leave-one-out cross-validation.

Cross-validation (CV) is one loop over the bandwidth grid. At each h it takes
the leave-out power sums of every term from one of two sources, then scores
them once: the closed-form fit, its squared prediction error and the
degenerate-fit penalty. Deleting observation i removes the terms i + o for o
in DELETED; the exact window and the binned correction below both derive
from that one rule.

`exact` takes them at each h from one call of the kernel-sum engine of
`lljd.estimators` over every term, each (regressor point, term) pair
evaluated: O(n^2) work per h. It is the oracle of the binned source, whose
fallback below is the same call over fewer terms.

`binned`, the default, follows KernSmooth (Fan & Marron 1994, JCGS 3:35-56;
Wand 1994, JCGS 3:433-445). The kernel and regressor points are binned
linearly onto M equally spaced bins over one range, the kernel points once
per weight column of `lljd.estimators._columns`. For each h the lag kernels
kappa_q[m] = K(m D / h) (m D)^q, D the bin width, are correlated with each
column up to its top power by FFT, which gives its sums at every bin centre;
linear interpolation carries them to the regressor points. The deleted terms
are then subtracted in the same binned bilinear form: term k = i + o at
regressor i, its kernel point d bins from the regressor, pairs bins at lags
d, d + 1 and d - 1 with weights g_i g_k + f_i f_k, g_i f_k and f_i g_k, so a
leave-out sum is the binned sum of exactly the terms that remain. `_combine`
turns the column sums into S_0..S_2 and T_0..T_1. The binning, the bin-count
rule below and the fallback tests are those of `lljd.estimators`, which bins
large fits the same way (without FFTs: a fit needs sums at few grid points).

Binning error depends on how many bins one bandwidth spans, so each h gets
its own M: the fewest bins, a power of two, that put CV_H_BINS bins inside
h, and at most CV_BINS. The grid ascends, so M never rises along it; the
points are binned once per distinct M, and the following h reuse the two
binned spectra.

The exact engine rescores, with the same deletion rule, every term whose
binned leave-out fit rests on too little to be trusted to the bins:

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
collinear design a spread of up to a bin. A bandwidth narrower than
CV_BINS_PER_H bins is scored by the exact engine throughout. FFT round-off
is absolute, below 1e-15 of the largest sum (4e-16 to 8e-16 measured); tiny
sums need no test of their own, because the mass test keeps every binned S_0
above 4 K(0) while no S_0 exceeds n K(0).

`scripts/check_cv_backends.py` compares the backends on the 16 five-minute
stand-ins of the `empirical_cv` benchmark (4,799 terms each, the default
grid, where M falls from 2^14 to 2^9 or 2^10). The largest relative
difference of a binned CV value from exact is 4e-7 (Gaussian, local
linear), 7e-7 (Gaussian, Nadaraya-Watson), 8e-6 (Epanechnikov, local
linear) and 4e-6 (Epanechnikov, Nadaraya-Watson); the chosen h and the
degenerate counts are the same on every stand-in, 65-511 of the 120k (h,
term) pairs fall back, and CV takes about 0.1 s against 2-3 s. Both
backends stream one bandwidth at a time, binned in O(n + CV_BINS) memory.
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
    _columns,
    _combine,
    _degree,
    _linear_bins,
    _poorly_binned,
    _power_sums,
    _Responses,
    drift_responses,
    term_points,
)
from .proxy import ProxySeries

__all__ = ["BandwidthChoice", "rule_of_thumb", "default_cv_grid", "cross_validate"]

# The least bandwidth, in bins, that the binned sums score; at 32 bins the
# binning error of a CV value is below 3e-5 relative (Epanechnikov, the
# stand-ins with 2^10 to 2^14 bins).
CV_BINS_PER_H = 32

# The deletion rule of CV: deleting observation i removes the terms i + o,
# o in DELETED, that it touches: as kernel point and regressor (o = 0) and
# as a member of a neighbour's response difference (o = -1, 1).
DELETED = range(-1, 2)


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
    if not (0 < t_span < math.inf):
        raise ValidationError(f"observation span must be positive and finite, got {t_span}")
    term_points(xt)  # a series too short to estimate from is named before its spread
    s = float(np.std(xt.xt, ddof=1))
    if s == 0.0 or not math.isfinite(s):
        raise ValidationError("degenerate sample: proxy series has zero variance")
    return BandwidthChoice(h=1.06 * s * t_span ** (-0.2), method="rule_of_thumb")


def default_cv_grid(h_center: float, n_points: int = 25, span: float = 5.0) -> np.ndarray:
    """Log-spaced grid bracketing a pilot bandwidth by a factor of `span`
    either side."""
    if not (0 < h_center < math.inf and 1 < span < math.inf):
        raise ValidationError("need a finite positive pilot bandwidth and a finite span > 1")
    return np.geomspace(h_center / span, h_center * span, n_points)


def cross_validate(
    xt: ProxySeries,
    h_grid,
    cfg: EstimatorConfig | None = None,
    backend: str = "binned",
) -> BandwidthChoice:
    """Leave-one-out cross-validation of the drift fit over a bandwidth grid.

    CV(h) averages the squared prediction errors of the fit evaluated at each
    regressor point with that observation deleted, i.e. without the terms of
    DELETED around it. Terms whose deleted fit is degenerate contribute the
    squared deviation from the global response mean instead (a conservative
    penalty) and are counted.

    `backend` is 'binned' (the default) or 'exact': where the loop over the
    grid takes its leave-out sums (module docstring). The choice records the
    backend and how many (h, term) pairs the exact engine scored (all of them
    under 'exact', the fallback terms under 'binned').

    Returns the grid argmin; exact ties resolve to the smaller bandwidth. A
    bandwidth at which every term degenerates is undefined; if that happens on
    the whole grid, the grid is rejected.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.ndim != 1 or len(h_grid) == 0:
        raise ValidationError("bandwidth grid must be a nonempty 1-d array")
    if not np.all((h_grid > 0) & (h_grid < math.inf)) or np.any(np.diff(h_grid) < 0):
        raise ValidationError("bandwidth grid must be finite, positive and sorted ascending")
    if backend not in ("binned", "exact"):
        raise ValidationError(f"unknown CV backend {backend!r}")
    if cfg is None:
        cfg = EstimatorConfig(bandwidth=1.0)

    kpts, ppts = term_points(xt, cfg.index_alignment)
    resp = drift_responses(xt)
    n, degree = len(resp), _degree(cfg.method)
    terms = np.arange(n)
    # the exact engine's weight columns, [1 | resp] by term block, and their tops
    cols, tops = _Responses(xt, (drift_responses,)), [2 * degree, degree]
    s, t = np.empty((n, 2 * degree + 1)), np.empty((n, degree + 1, 1))
    lo = min(kpts.min(), ppts.min())  # one range for both
    span = float(max(kpts.max(), ppts.max()) - lo)
    binning = None
    cv_vals, degen, bins, exact_terms = [], [], [], 0
    for h in h_grid:
        # the leave-out sums s, t at h; redo: the terms the exact engine scores,
        # all of them under 'exact' and where the bins cannot resolve h
        redo, m = terms, None
        if backend == "binned":
            m = _bin_count(h, span, binning.m if binning else CV_BINS)
            if binning is None or binning.m != m:
                binning = None  # free the old binning first: one in memory at a time
                binning = _Binning(kpts, ppts, resp, degree, m, lo, span)
            if h < CV_BINS_PER_H * binning.width:
                m = None
            else:
                redo = np.flatnonzero(binning.sums(h, cfg.kernel, s, t))
        if redo.size:  # leaving out at each term what the deletion rule removes
            exact = _power_sums(kpts, ppts, cols, tops, ppts[redo], cfg.kernel, h,
                                (redo + DELETED.start, redo + DELETED.stop))
            s[redo], t[redo] = _combine(exact, None, degree)
        (pred,), _, ok = _closed_form(s, t, cfg.method, n)
        err = np.where(ok, resp - pred, resp - resp.mean())
        degen.append(n - np.count_nonzero(ok))
        cv_vals.append(err @ err / n if degen[-1] < n else math.nan)
        bins.append(m)
        exact_terms += redo.size

    if np.all(np.isnan(cv_vals)):
        raise ValidationError(
            "bandwidth grid too narrow: cross-validation undefined at every h"
        )
    best = int(np.nanargmin(cv_vals))
    return BandwidthChoice(
        h=float(h_grid[best]),
        method="cross_validation",
        cv_curve=tuple((float(h), float(c)) for h, c in zip(h_grid, cv_vals)),
        cv_degenerate=tuple(int(c) for c in degen),
        cv_backend=backend,
        cv_exact_terms=exact_terms,
        cv_bins=tuple(bins) if backend == "binned" else None,
    )


class _Binning:
    """The kernel and regressor points binned linearly onto m bins from `lo`
    (kbins, pbins: (b, f, g), g = 1 - f on bin b and f on b + 1), and what
    every h scored on them shares: the spectra of the binned `_columns`."""

    def __init__(self, kpts, ppts, resp, degree: int, m: int, lo: float, span: float):
        from numpy import fft  # only binned CV needs it; keeps it off CLI start-up

        self.m, self.degree = m, degree
        self.width = span / (m - 1) or 1.0  # any width bins a constant sample
        self.e = None if ppts is kpts else ppts - kpts
        self.cols, self.tops = _columns(self.e, resp[:, None], degree)
        # zero-padded to 2m bins, the circular correlation with a lag kernel
        # is the linear one; entry q of a lag kernel holds lag q, entry 2m - q
        # lag -q
        self.size = 2 * m
        self.kbins = b, f, g = _linear_bins(kpts, lo, self.width, m)
        self.pbins = self.kbins if ppts is kpts else _linear_bins(ppts, lo, self.width, m)
        self.spectra = [fft.rfft(w) for w in _bin_weights(b, f, g, self.cols, self.size)]
        self.lag = fft.fftfreq(self.size, 1.0 / self.size) * self.width

    def sums(self, h: float, kernel, s, t):
        """Fill s and t with the binned leave-out sums at h. Returns the mask
        of terms whose leave-out design is poorly conditioned."""
        from numpy import fft

        k0 = kernel.eval(self.lag / h)
        (bk, fk, gk), (b, f, g), n = self.kbins, self.pbins, len(s)
        a = np.empty((n, max(self.tops) + 1, len(self.cols)))  # [term, power, column]
        for q in range(a.shape[1]):
            kap = k0 * self.lag**q
            live = [c for c, top in enumerate(self.tops) if top >= q]
            deleted = np.zeros((len(live), n))  # the binned share of the deleted terms
            for o in DELETED:
                # term k = i + o at regressor i, d = bk[k] - b[i] bins away,
                # pairs bins at lags d, d + 1 and d - 1
                i, k = slice(max(-o, 0), n - max(o, 0)), slice(max(o, 0), n - max(-o, 0))
                d = bk[k] - b[i]
                near = ((g[i] * gk[k] + f[i] * fk[k]) * kap[d] + g[i] * fk[k] * kap[d + 1]
                        + f[i] * gk[k] * kap[d - 1])
                for w, c in enumerate(live):
                    col = self.cols[c]
                    deleted[w, i] += near if np.ndim(col) == 0 else near * col[k]
            spectrum = np.conj(fft.rfft(kap))
            for w, c in enumerate(live):
                full = fft.irfft(self.spectra[c] * spectrum, self.size)
                a[:, q, c] = g * full[b] + f * full[b + 1] - deleted[w]
        s[:], t[:] = _combine(a, self.e, self.degree)
        return _poorly_binned(s, k0[0], self.width, self.degree)
