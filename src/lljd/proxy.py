"""Observable proxy construction.

The latent state is never observed directly; its integral is. Scaled first
differences of the integrated series recover an approximation of the state,
and that proxy sequence is the actual input of every estimator here.
`ProxySeries` checks the estimators' input contract once, when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["ProxySeries", "build_proxy", "build_log_proxy"]


@dataclass(frozen=True)
class ProxySeries:
    """Proxy state sequence with its observation step.

    xt[i] = (y[i+1] - y[i]) / delta, so xt has one entry fewer than the
    integrated series it came from. A bad delta is reported before a bad entry.
    """

    delta: float
    xt: np.ndarray

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValidationError(f"delta must be positive and finite, got {self.delta}")
        xt = np.asarray(self.xt, dtype=float)
        if xt.ndim != 1:
            raise ValidationError("proxy series must be one-dimensional")
        bad = np.flatnonzero(~np.isfinite(xt))
        if bad.size:
            raise ValidationError(f"non-finite proxy entry at index {bad[0]}")
        object.__setattr__(self, "xt", xt)


def build_proxy(y, delta: float) -> ProxySeries:
    """Scaled first differences of an integrated series.

    Raises ValidationError on non-finite input, reporting the offending index.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or len(y) < 3:
        raise ValidationError("need a one-dimensional series of length >= 3")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValidationError(f"non-finite value in integrated series at index {bad[0]}")
    # a bad delta or an overflow is named by ProxySeries, not warned about here
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xt = np.diff(y)
        xt /= delta
    return ProxySeries(delta=delta, xt=xt)


def build_log_proxy(prices, delta: float) -> ProxySeries:
    """Proxy built from log prices; the proxy then reads as a return rate.

    All prices must be strictly positive; violations are reported with their
    0-based data row, the index into `prices`.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 1 or len(prices) < 3:
        raise ValidationError("need a one-dimensional price series of length >= 3")
    bad = np.flatnonzero(~np.isfinite(prices) | (prices <= 0.0))
    if bad.size:
        raise ValidationError(
            f"non-positive or non-finite price at 0-based data row {bad[0]} "
            f"(value {float(prices[bad[0]])})"
        )
    return build_proxy(np.log(prices), delta)
