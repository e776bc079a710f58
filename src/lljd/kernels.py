"""Kernel functions and their moments.

The package has a closed set of two kernels, both radial: K(u) = g(u^2) / z
with a profile g and a normalizer z,

    gaussian        g(v) = exp(-v / 2)         z = sqrt(2 pi)
    epanechnikov    g(v) = max(0, 1 - v)       z = 4 / 3

`Kernel.eval` and the kernel-sum engine of `lljd.estimators` both evaluate
the profile, the engine on squared distances scaled by 1/h^2, in place, and
dividing by z once per call. Every estimator weight and every asymptotic
constant in the package is built from the moments K_i^j = integral of
K(u)^i * u^j du, which are closed forms (checked against quadrature in the
tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "Kernel",
    "KernelMoments",
    "GAUSSIAN",
    "EPANECHNIKOV",
    "get_kernel",
    "kernel_moment",
    "moments",
    "variance_constant",
    "bias_constant",
]


def _gaussian_profile(v, scale, out):
    # one scale and one exp; scaling by -0.5 is exact, so Kernel.eval has the
    # bits of exp(-0.5*u*u)/sqrt(2pi)
    return np.exp(np.multiply(v, -0.5 * scale, out=out), out=out)


def _epanechnikov_profile(v, scale, out):
    np.multiply(v, -scale, out=out)
    out += 1.0
    return np.maximum(out, 0.0, out=out)


@dataclass(frozen=True)
class Kernel:
    """A radial density kernel K(u) = g(u^2) / norm.

    `profile(v, scale, out)` writes g(scale * v) into `out` and returns it;
    an infinite scale * v gives g(inf) = 0.
    """

    id: str
    profile: Callable[[np.ndarray, float, np.ndarray], np.ndarray] = field(compare=False)
    norm: float

    def eval(self, u):
        u = np.asarray(u, dtype=float)
        # |u| beyond ~1e154 squares to inf, which the profile takes to g(inf)
        with np.errstate(over="ignore"):
            v = np.asarray(u * u)
        return np.divide(self.profile(v, 1.0, v), self.norm, out=v)


GAUSSIAN = Kernel(id="gaussian", profile=_gaussian_profile, norm=math.sqrt(2.0 * math.pi))
EPANECHNIKOV = Kernel(id="epanechnikov", profile=_epanechnikov_profile, norm=4.0 / 3.0)

_BY_NAME = {"gaussian": GAUSSIAN, "epanechnikov": EPANECHNIKOV}

# Closed-form moments (i, j) -> value for the bundled kernels.
_CLOSED_FORMS = {
    "gaussian": {
        (1, 0): 1.0,
        (1, 1): 0.0,
        (1, 2): 1.0,
        (1, 3): 0.0,
        (2, 0): 1.0 / (2.0 * math.sqrt(math.pi)),
        (2, 1): 0.0,
        (2, 2): 1.0 / (4.0 * math.sqrt(math.pi)),
    },
    "epanechnikov": {
        (1, 0): 1.0,
        (1, 1): 0.0,
        (1, 2): 0.2,
        (1, 3): 0.0,
        (2, 0): 0.6,
        (2, 1): 0.0,
        (2, 2): 3.0 / 35.0,
    },
}


def get_kernel(name: str) -> Kernel:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValidationError(
            f"unknown kernel {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None


@lru_cache(maxsize=None)
def kernel_moment(k: Kernel, i: int, j: int) -> float:
    """Moment K_i^j = integral of K(u)^i * u^j du.

    Supported ranges: j <= 3 for i=1 and j <= 2 for i=2. The moments are
    closed forms of the two bundled kernels; any other kernel has none.
    """
    if i == 1:
        if not 0 <= j <= 3:
            raise ValidationError(f"moment K_1^{j} out of supported range j=0..3")
    elif i == 2:
        if not 0 <= j <= 2:
            raise ValidationError(f"moment K_2^{j} out of supported range j=0..2")
    else:
        raise ValidationError(f"kernel power i={i} unsupported (expected 1 or 2)")
    closed = _CLOSED_FORMS.get(k.id, {}).get((i, j))
    if closed is None:
        raise NumericalError(
            f"moment K_{i}^{j} of kernel {k.id!r} has no closed form; the "
            f"bundled kernels are {sorted(_BY_NAME)}"
        )
    return closed


@dataclass(frozen=True)
class KernelMoments:
    """Moment table of a kernel: k1[j] = K_1^j (j=0..3), k2[j] = K_2^j (j=0..2),
    and the asymptotic variance constant v."""

    k1: tuple[float, float, float, float]
    k2: tuple[float, float, float]
    v: float


def variance_constant(k1, k2=None) -> float:
    """Asymptotic variance constant of the local linear fit.

    V = ((K_1^2)^2 K_2^0 + (K_1^1)^2 K_2^2 - 2 K_1^1 K_1^2 K_2^1)
        / (K_1^2 - (K_1^1)^2)^2

    For symmetric kernels this collapses to K_2^0. Accepts either a
    KernelMoments or the two moment tuples.
    """
    if isinstance(k1, KernelMoments):
        k1, k2 = k1.k1, k1.k2
    if k2 is None:
        raise ValidationError("need the squared-kernel moments k2")
    denom = k1[2] - k1[1] ** 2
    if denom == 0.0 or not math.isfinite(denom):
        raise ValidationError("degenerate kernel design: K_1^2 equals (K_1^1)^2")
    num = k1[2] ** 2 * k2[0] + k1[1] ** 2 * k2[2] - 2.0 * k1[1] * k1[2] * k2[1]
    return num / denom**2


def bias_constant(k1) -> float:
    """Constant multiplying h^2/2 times the second derivative in the local
    linear bias: ((K_1^2)^2 - K_1^3 K_1^1) / (K_1^2 - (K_1^1)^2).

    Equals K_1^2 for symmetric kernels.
    """
    denom = k1[2] - k1[1] ** 2
    if denom == 0.0 or not math.isfinite(denom):
        raise ValidationError("degenerate kernel design: K_1^2 equals (K_1^1)^2")
    return (k1[2] ** 2 - k1[3] * k1[1]) / denom


@lru_cache(maxsize=None)
def moments(k: Kernel) -> KernelMoments:
    """Full moment table of a kernel, with the normalization check
    |K_1^0 - 1| <= 1e-8 enforced."""
    k1 = tuple(kernel_moment(k, 1, j) for j in range(4))
    k2 = tuple(kernel_moment(k, 2, j) for j in range(3))
    if abs(k1[0] - 1.0) > 1e-8:
        raise ValidationError(
            f"kernel {k.id!r} does not integrate to one (K_1^0 = {k1[0]!r})"
        )
    return KernelMoments(k1=k1, k2=k2, v=variance_constant(k1, k2))
