"""Kernel functions and their moments.

Every estimator weight and every asymptotic constant in the package is built
from the moments K_i^j = integral of K(u)^i * u^j du. Closed forms are used
for the bundled kernels and cross-checked against adaptive quadrature; custom
kernels fall back to quadrature on a truncated support.
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

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_QUAD_TOL = 1e-10


def _gaussian_eval(u):
    u = np.asarray(u, dtype=float)
    # |u| beyond ~1e154 squares to inf; exp(-inf) = 0 is the right limit. One
    # temporary; scaling by -0.5 is exact, so the bits equal exp(-0.5*u*u)/sqrt(2pi).
    with np.errstate(over="ignore"):
        v = np.asarray(u * u)
    v *= -0.5
    return np.divide(np.exp(v, out=v), _SQRT_2PI, out=v)


def _epanechnikov_eval(u):
    u = np.asarray(u, dtype=float)
    return 0.75 * np.maximum(0.0, 1.0 - u * u)


@dataclass(frozen=True)
class Kernel:
    """A nonnegative density kernel u -> K(u).

    `support` is the truncation radius used for quadrature; None means it is
    located automatically by scanning outward until K drops below 1e-16.
    """

    id: str
    eval: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    support: float | None = None

    def __hash__(self):
        return hash((self.id, self.eval, self.support))


GAUSSIAN = Kernel(id="gaussian", eval=_gaussian_eval, support=40.0)
EPANECHNIKOV = Kernel(id="epanechnikov", eval=_epanechnikov_eval, support=1.0)

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


def _truncation_radius(k: Kernel) -> float:
    if k.support is not None:
        return k.support
    r = 1.0
    while r <= 1e8:
        if float(k.eval(r)) < 1e-16 and float(k.eval(-r)) < 1e-16:
            return r
        r *= 2.0
    raise NumericalError(
        f"kernel {k.id!r} does not decay below 1e-16 within |u| <= 1e8; "
        "moments are not computable by truncated quadrature"
    )


def _quad_moment(k: Kernel, i: int, j: int) -> float:
    from scipy import integrate  # only custom kernels get here

    r = _truncation_radius(k)
    val, abserr = integrate.quad(
        lambda u: float(k.eval(u)) ** i * u**j, -r, r, epsabs=1e-12, limit=400
    )
    if not math.isfinite(val) or abserr > 1e-8:
        raise NumericalError(
            f"quadrature for moment K_{i}^{j} of kernel {k.id!r} did not "
            f"converge (estimated error {abserr:.2e})"
        )
    return val


@lru_cache(maxsize=None)
def kernel_moment(k: Kernel, i: int, j: int) -> float:
    """Moment K_i^j = integral of K(u)^i * u^j du.

    Supported ranges: j <= 3 for i=1 and j <= 2 for i=2. Closed forms are
    returned for the bundled kernels; anything else goes through adaptive
    quadrature with absolute tolerance 1e-10.
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
    if closed is not None:
        return closed
    return _quad_moment(k, i, j)


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
