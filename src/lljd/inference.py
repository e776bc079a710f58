"""Pointwise normal confidence bands for the estimated curves.

`attach_bands` is the one entry point: it builds the drift and the
second-moment band together, stores them on the estimate and returns them.
With bias_corrected=False both bands are centred on the plain estimates.

The band for the drift at x is centred on the bias-corrected estimate

    mu_hat(x) - (h^2/2) * mu''_hat(x) * B

with B = `Kernel.second_moment`, the integral of u^2 K, and has half-width

    z_{1-alpha/2} * sqrt(V * M_hat(x) / p_hat(x)) / sqrt(n * delta * h),

V = `Kernel.roughness`, the integral of K^2, and p_hat the kernel density
of the proxies. The curvature mu'' comes from a local cubic fit at a pilot
bandwidth (second derivatives need more smoothing than the curve itself).

The bands add one kernel pass to the curve fit: that local cubic pass, for
both curvatures. The rest comes from the curve pass at h. Its kernel mass
n_eff is S_0 over the kernel points xt[0..m-3] (under either alignment), so
the density adds only the kernel weights of the two trailing proxies:
p_hat = (n_eff + K_{m-2} + K_{m-1}) / (m h). The fourth-moment plug-in is
the estimate's m4_hat, a third response column of the same pass. The tests
rebuild both from passes of their own, a kernel density over every proxy
and a fit of the fourth-power responses alone, as the oracles of this route.

The second-moment band replaces M_hat/p_hat by a plug-in for the local fourth
jump moment: second differences of an integrated path attenuate fourth-power
jump mass by the factor 2/5 (a jump lands uniformly inside the double window
and enters with weight s or 1-s, and E[s^4] + E[(1-s)^4] = 2/5), so the
kernel-weighted average of (delta-differences)^4/delta is rescaled by 5/2.
`scripts/calibrate_m_variance.py` re-derives this constant by simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimators import (
    LOCAL_LINEAR,
    CurveEstimate,
    _local_cubic,
    _Responses,
    drift_responses,
    second_moment_responses,
)
from .proxy import ProxySeries

__all__ = [
    "ConfidenceBands",
    "FOURTH_MOMENT_SCALE",
    "attach_bands",
]

# Rescaling from the raw local average of fourth-power differences to the
# fourth jump moment entering the second-moment asymptotic variance.
FOURTH_MOMENT_SCALE = 2.5


@dataclass
class ConfidenceBands:
    """Pointwise bands over the estimate's grid; arrays are NaN where the
    band is undefined: where its centre or half-width is not finite (an
    empty neighbourhood, a singular pilot design, a negative variance
    plug-in).
    `pilot_sums` records how the local cubic pass took its kernel sums (None
    without bias correction)."""

    alpha: float
    lo_mu: np.ndarray
    hi_mu: np.ndarray
    lo_m: np.ndarray
    hi_m: np.ndarray
    bias_corrected: bool = True
    pilot_h: float = float("nan")
    undefined_mu: int = 0
    undefined_m: int = 0
    pilot_sums: dict | None = None


def _normal_critical(alpha: float) -> float:
    """Two-sided standard normal critical value z_{1-alpha/2}."""
    from statistics import NormalDist  # with fractions and decimal, off CLI start-up

    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def attach_bands(
    est: CurveEstimate,
    xt: ProxySeries,
    alpha: float = 0.05,
    pilot_h: float | None = None,
    bias_corrected: bool = True,
) -> ConfidenceBands:
    """Compute both bands, store them on the estimate, and return them. Their
    one kernel pass is the local cubic pass for both curvatures; the density
    and the fourth-moment plug-in come from the estimate's own pass (see the
    module docstring)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    if est.method != LOCAL_LINEAR:
        raise ValidationError("confidence bands are defined for the local linear fit")
    if est.m4_hat is None:
        raise ValidationError("the estimate carries no fourth-moment fit; use estimate_curve")
    if pilot_h is None:
        pilot_h = 2.0 * est.h
    if not (pilot_h > 0 and math.isfinite(pilot_h)):
        raise ValidationError(f"pilot bandwidth must be positive, got {pilot_h}")
    z = _normal_critical(alpha)
    tail = est.kernel.eval((xt.xt[-2:, None] - est.grid) / est.h)
    p_hat = (est.n_eff + tail[0] + tail[1]) / (len(xt.xt) * est.h)
    rate = np.sqrt(est.n_terms * est.delta * est.h)
    curvature, pilot_sums = np.zeros((2, len(est.grid))), None
    if bias_corrected:
        curvature, pilot_sums = _local_cubic(
            xt,
            _Responses(xt, (drift_responses, second_moment_responses)),
            est.grid,
            est.kernel,
            pilot_h,
            est.index_alignment,
        )
    fields = {}
    for name, c2, estimate, spread in (
        ("mu", curvature[0], est.mu_hat, est.m_hat),
        ("m", curvature[1], est.m_hat, FOURTH_MOMENT_SCALE * est.m4_hat),
    ):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            center = estimate - 0.5 * (est.h * est.h) * c2 * est.kernel.second_moment
            half = z * np.sqrt(est.kernel.roughness * spread / p_hat) / rate
        ok = np.isfinite(center) & np.isfinite(half)
        fields[f"lo_{name}"] = np.where(ok, center - half, np.nan)
        fields[f"hi_{name}"] = np.where(ok, center + half, np.nan)
        fields[f"undefined_{name}"] = int((~ok).sum())
    est.bands = ConfidenceBands(
        alpha=alpha, bias_corrected=bias_corrected, pilot_h=pilot_h, pilot_sums=pilot_sums,
        **fields
    )
    return est.bands
