"""Bandwidth selection: rule of thumb and leave-one-out cross-validation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .estimators import EstimatorConfig, _fit, drift_responses, term_points
from .proxy import ProxySeries

__all__ = ["BandwidthChoice", "rule_of_thumb", "default_cv_grid", "cross_validate"]


@dataclass(frozen=True)
class BandwidthChoice:
    h: float
    method: str  # rule_of_thumb | cross_validation | fixed
    cv_curve: Optional[tuple] = None  # ((h, cv), ...) when cross-validated
    cv_degenerate: Optional[tuple] = None  # per-h count of penalised terms


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
) -> BandwidthChoice:
    """Leave-one-out cross-validation of the drift fit over a bandwidth grid.

    CV(h) averages the squared prediction errors of the fit evaluated at each
    regressor point with that observation deleted. Deleting observation i
    removes every estimating term it touches: as kernel point, as regressor,
    and as response-difference member, i.e. terms i-1, i, i+1. Terms whose
    deleted fit is degenerate contribute the squared deviation from the global
    response mean instead (a conservative penalty) and are counted.

    Returns the grid argmin; exact ties resolve to the smaller bandwidth. A
    bandwidth at which every term degenerates is undefined; if that happens on
    the whole grid, the grid is rejected.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.ndim != 1 or len(h_grid) == 0:
        raise ValidationError("bandwidth grid must be a nonempty 1-d array")
    if np.any(h_grid <= 0) or np.any(np.diff(h_grid) < 0):
        raise ValidationError("bandwidth grid must be positive and sorted ascending")
    if cfg is None:
        cfg = EstimatorConfig(bandwidth=1.0)

    kpts, ppts = term_points(xt, cfg.index_alignment)
    resp = drift_responses(xt)
    n = len(resp)
    resp_mean = float(resp.mean())
    idx = np.arange(n)
    deleted = (idx - 1, idx + 2)  # terms i-1, i, i+1 leave the fit at ppts[i]

    # one engine pass scores the whole grid: values [H, 1, n], ok [H, n]
    pred, _, ok = _fit(kpts, ppts, resp[:, None], ppts, cfg, deleted, h_grid)
    err = np.where(ok, resp - pred[:, 0], resp - resp_mean)
    degen_counts = (~ok).sum(axis=1)
    cv_vals = np.array([e @ e / n if c < n else np.nan for e, c in zip(err, degen_counts)])

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
    )
