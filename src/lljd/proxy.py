"""Observable proxy construction.

The latent state is never observed directly; its integral is. Scaled first
differences of the integrated series recover an approximation of the state,
and that proxy sequence is the actual input of every estimator here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["ProxySeries", "build_proxy", "build_log_proxy"]


@dataclass(frozen=True)
class ProxySeries:
    """Proxy state sequence with its observation step.

    xt[i] = (y[i+1] - y[i]) / delta, so xt has one entry fewer than the
    integrated series it came from.
    """

    delta: float
    xt: np.ndarray
    source: str = "simulated"

    def __post_init__(self):
        if self.delta <= 0:
            raise ValidationError(f"delta must be positive, got {self.delta}")
        if self.xt.ndim != 1:
            raise ValidationError("proxy series must be one-dimensional")

    def __len__(self) -> int:
        return len(self.xt)


def build_proxy(y, delta: float, source: str = "simulated") -> ProxySeries:
    """Scaled first differences of an integrated series.

    Raises ValidationError on non-finite input, reporting the offending index.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or len(y) < 3:
        raise ValidationError("need a one-dimensional series of length >= 3")
    if delta <= 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValidationError(f"non-finite value in integrated series at index {bad[0]}")
    xt = np.diff(y) / delta
    return ProxySeries(delta=delta, xt=xt, source=source)


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
            f"(value {prices[bad[0]]!r})"
        )
    series = build_proxy(np.log(prices), delta, source="empirical_log")
    return series
