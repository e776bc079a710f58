"""The two kernels and their local linear constants.

The package has a closed set of two kernels, both radial: K(u) = g(u^2) / z
with a profile g and a normalizer z,

    gaussian        g(v) = exp(-v / 2)         z = sqrt(2 pi)
    epanechnikov    g(v) = max(0, 1 - v)       z = 4 / 3

`Kernel.eval` and the kernel-sum engine of `lljd.estimators` both evaluate
the profile, the engine on squared distances scaled by 1/h^2, in place, and
dividing by z once per call.

Each kernel carries the two integrals the confidence bands need, as closed
forms (checked against quadrature in the tests):

                                                    gaussian          epanechnikov
    second_moment   B = integral of u^2 K(u) du     1                 1/5
    roughness       V = integral of K(u)^2 du       1/(2 sqrt(pi))    3/5

Both kernels are symmetric, so the odd moments of K and of K^2 vanish
(integrals of u K, u^3 K and u K^2), and the general local linear bias and
variance constants (Fan & Gijbels 1996, ch. 3) reduce to B and V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError

__all__ = [
    "Kernel",
    "GAUSSIAN",
    "EPANECHNIKOV",
    "get_kernel",
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
    """A radial density kernel K(u) = g(u^2) / norm, with its bias constant
    `second_moment` (integral of u^2 K) and variance constant `roughness`
    (integral of K^2).

    `profile(v, scale, out)` writes g(scale * v) into `out` and returns it;
    an infinite scale * v gives g(inf) = 0.
    """

    id: str
    profile: Callable[[np.ndarray, float, np.ndarray], np.ndarray] = field(compare=False)
    norm: float
    second_moment: float
    roughness: float

    def eval(self, u):
        u = np.asarray(u, dtype=float)
        # |u| beyond ~1e154 squares to inf, which the profile takes to g(inf)
        with np.errstate(over="ignore"):
            v = np.asarray(u * u)
        return np.divide(self.profile(v, 1.0, v), self.norm, out=v)


GAUSSIAN = Kernel(id="gaussian", profile=_gaussian_profile, norm=math.sqrt(2.0 * math.pi),
                  second_moment=1.0, roughness=1.0 / (2.0 * math.sqrt(math.pi)))
EPANECHNIKOV = Kernel(id="epanechnikov", profile=_epanechnikov_profile, norm=4.0 / 3.0,
                      second_moment=0.2, roughness=0.6)

_BY_NAME = {"gaussian": GAUSSIAN, "epanechnikov": EPANECHNIKOV}
KERNEL_NAMES = tuple(_BY_NAME)


def get_kernel(name: str) -> Kernel:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValidationError(
            f"unknown kernel {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None
