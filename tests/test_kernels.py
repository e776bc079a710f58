import math

import numpy as np
import pytest
from scipy import integrate

from lljd.errors import ValidationError
from lljd.kernels import EPANECHNIKOV, GAUSSIAN, get_kernel


# quadrature ranges: the Gaussian underflows to zero before 40, the
# Epanechnikov kernel is zero beyond 1
RADIUS = {"gaussian": 40.0, "epanechnikov": 1.0}


def quad_moment(kernel, i, j, radius):
    val, _ = integrate.quad(
        lambda u: float(kernel.eval(u)) ** i * u**j, -radius, radius, epsabs=1e-13
    )
    return val


def test_gaussian_matches_standard_normal_density_pointwise():
    u = np.linspace(-8, 8, 201)
    expected = np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(GAUSSIAN.eval(u) - expected)) < 1e-12
    # the in-place evaluation gives the bits of the direct formula, also where
    # the weight underflows to subnormal or zero and where u * u overflows
    u = np.concatenate([np.random.default_rng(3).normal(0.0, 15.0, 10_000),
                        [0.0, 1e-160, 37.7, 38.5, 1e155, -np.inf]])
    with np.errstate(over="ignore"):
        expected = np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
    assert np.array_equal(GAUSSIAN.eval(u), expected)
    assert float(GAUSSIAN.eval(0.0)) == 1.0 / math.sqrt(2 * math.pi)


def test_epanechnikov_matches_its_formula_pointwise():
    u = np.concatenate([np.linspace(-1.5, 1.5, 3001), [0.0, 1.0, -1.0, 1e155, -np.inf]])
    with np.errstate(over="ignore"):
        expected = 0.75 * np.maximum(0.0, 1.0 - u * u)
    got = EPANECHNIKOV.eval(u)
    assert np.all(np.abs(got - expected) <= np.spacing(expected))
    assert float(EPANECHNIKOV.eval(0.0)) == 0.75


def test_gaussian_density_moments():
    # exact values: with B = 1 the Gaussian bias term carries no rounding
    assert GAUSSIAN.second_moment == 1.0
    assert GAUSSIAN.roughness == 1.0 / (2.0 * math.sqrt(math.pi))


def test_gaussian_squared_moment_against_quadrature_oracle():
    # oracle: adaptive quadrature of the squared density
    oracle = quad_moment(GAUSSIAN, 2, 0, 40.0)
    assert abs(oracle - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-12
    assert abs(GAUSSIAN.roughness - oracle) < 1e-10
    assert abs(GAUSSIAN.roughness - 0.2820948) < 1e-6


# integral of K^i u^j -> its value: unit mass, the two fields, and the odd
# moments whose vanishing reduces the general local linear constants to them
INTEGRALS = {
    (1, 0): lambda k: 1.0,
    (1, 1): lambda k: 0.0,
    (1, 2): lambda k: k.second_moment,
    (1, 3): lambda k: 0.0,
    (2, 0): lambda k: k.roughness,
    (2, 1): lambda k: 0.0,
}


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV], ids=lambda k: k.id)
@pytest.mark.parametrize("i,j", list(INTEGRALS))
def test_closed_forms_agree_with_quadrature(kernel, i, j):
    radius = RADIUS[kernel.id]
    assert abs(INTEGRALS[i, j](kernel) - quad_moment(kernel, i, j, radius)) < 1e-10


def general_constants(kernel):
    """The local linear bias and variance constants of a kernel that need not
    be symmetric (Fan & Gijbels 1996, ch. 3), from quadrature moments
    k1[j] = integral of K u^j and k2[j] = integral of K^2 u^j."""
    radius = RADIUS[kernel.id]
    k1 = [quad_moment(kernel, 1, j, radius) for j in range(4)]
    k2 = [quad_moment(kernel, 2, j, radius) for j in range(3)]
    denom = k1[2] - k1[1] ** 2
    b = (k1[2] ** 2 - k1[3] * k1[1]) / denom
    v = (k1[2] ** 2 * k2[0] + k1[1] ** 2 * k2[2] - 2.0 * k1[1] * k1[2] * k2[1]) / denom**2
    return b, v


def test_variance_constant_symmetric_collapse():
    for kernel in (GAUSSIAN, EPANECHNIKOV):
        assert abs(general_constants(kernel)[1] - kernel.roughness) < 1e-12
    assert GAUSSIAN.roughness == pytest.approx(0.2820948, abs=1e-6)
    assert EPANECHNIKOV.roughness == 0.6


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV], ids=lambda k: k.id)
def test_symmetric_bias_constant_collapses_to_second_moment(kernel):
    assert abs(general_constants(kernel)[0] - kernel.second_moment) < 1e-12


def test_get_kernel_by_name():
    assert get_kernel("gaussian") is GAUSSIAN
    assert get_kernel("epanechnikov") is EPANECHNIKOV
    with pytest.raises(ValidationError):
        get_kernel("box")

