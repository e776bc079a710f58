"""Bandwidth selection: rule of thumb and leave-one-out cross-validation.

Cross-validation (CV) is one loop over an ascending bandwidth grid. At each
h it takes the leave-out power sums of every term from
`lljd.estimators._leave_out_sums`, binned or exact as that source finds the
bins resolve h, then scores them once: the closed-form fit, its squared
prediction error and the degenerate-fit penalty. Deleting observation i
removes the terms i + o for o in DELETED, the one statement of the deletion
rule; the source's exclusion window and binned correction both derive from
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .estimators import (
    EstimatorConfig,
    _closed_form,
    _leave_out_sums,
    drift_responses,
    term_points,
)
from .proxy import ProxySeries

__all__ = ["BandwidthChoice", "rule_of_thumb", "default_cv_grid", "cross_validate"]

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
    cv_exact_terms: Optional[int] = None  # (h, term) pairs scored by exact sums
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


def cross_validate(xt: ProxySeries, h_grid, cfg: EstimatorConfig) -> BandwidthChoice:
    """Leave-one-out cross-validation of the drift fit over a bandwidth grid.

    CV(h) averages the squared prediction errors of the fit evaluated at each
    regressor point with that observation deleted, i.e. without the terms of
    DELETED around it. Terms whose deleted fit is degenerate contribute the
    squared deviation from the global response mean instead (a conservative
    penalty) and are counted. The choice records, per h, the bin count of
    the leave-out sums (None where they were exact throughout) and how many
    (h, term) pairs took exact sums.

    Returns the grid argmin; exact ties resolve to the smaller bandwidth. A
    bandwidth at which every term degenerates is undefined; if that happens on
    the whole grid, the grid is rejected.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.ndim != 1 or len(h_grid) == 0:
        raise ValidationError("bandwidth grid must be a nonempty 1-d array")
    if not np.all((h_grid > 0) & (h_grid < math.inf)) or np.any(np.diff(h_grid) < 0):
        raise ValidationError("bandwidth grid must be finite, positive and sorted ascending")

    resp = drift_responses(xt)
    n = len(resp)
    cv_vals, degen, bins, exact_terms = [], [], [], 0
    for s, t, m, exact in _leave_out_sums(xt, resp, h_grid, cfg, DELETED):
        (pred,), _, ok = _closed_form(s, t, cfg.method, n)
        err = np.where(ok, resp - pred, resp - resp.mean())
        degen.append(n - np.count_nonzero(ok))
        cv_vals.append(err @ err / n if degen[-1] < n else math.nan)
        bins.append(m)
        exact_terms += exact

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
        cv_exact_terms=exact_terms,
        cv_bins=tuple(bins),
    )
