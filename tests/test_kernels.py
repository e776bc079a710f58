import math

import numpy as np
import pytest
from scipy import integrate

from lljd.errors import NumericalError, ValidationError
from lljd.kernels import (
    EPANECHNIKOV,
    GAUSSIAN,
    Kernel,
    bias_constant,
    get_kernel,
    kernel_moment,
    moments,
    variance_constant,
)


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
    assert kernel_moment(GAUSSIAN, 1, 0) == 1.0
    assert kernel_moment(GAUSSIAN, 1, 1) == 0.0
    assert kernel_moment(GAUSSIAN, 1, 2) == 1.0
    assert kernel_moment(GAUSSIAN, 1, 3) == 0.0


def test_gaussian_squared_moment_against_quadrature_oracle():
    # oracle: adaptive quadrature of the squared density
    oracle = quad_moment(GAUSSIAN, 2, 0, 40.0)
    assert abs(oracle - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-12
    assert abs(kernel_moment(GAUSSIAN, 2, 0) - oracle) < 1e-10
    assert abs(kernel_moment(GAUSSIAN, 2, 0) - 0.2820948) < 1e-6


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV], ids=lambda k: k.id)
@pytest.mark.parametrize("i,j", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2)])
def test_closed_forms_agree_with_quadrature(kernel, i, j):
    radius = RADIUS[kernel.id]
    assert abs(kernel_moment(kernel, i, j) - quad_moment(kernel, i, j, radius)) < 1e-10


def test_variance_constant_symmetric_collapse():
    m = moments(GAUSSIAN)
    assert m.v == pytest.approx(m.k2[0], abs=1e-12)
    assert m.v == pytest.approx(0.2820948, abs=1e-6)
    m = moments(EPANECHNIKOV)
    assert m.v == pytest.approx(0.6, abs=1e-12)


def test_variance_constant_direct_substitution():
    # k1[1]=0, k1[2]=1 leaves V equal to the squared-kernel mass
    assert variance_constant((1.0, 0.0, 1.0, 0.0), (0.37, 0.0, 0.5)) == pytest.approx(0.37)


def test_variance_constant_asymmetric_hand_value():
    # (1^2*1 + 0.5^2*0.8 - 2*0.5*1*0.2) / (1 - 0.25)^2 = 1.0 / 0.5625
    k1 = (1.0, 0.5, 1.0, 0.0)
    k2 = (1.0, 0.2, 0.8)
    direct = (k1[2] ** 2 * k2[0] + k1[1] ** 2 * k2[2] - 2 * k1[1] * k1[2] * k2[1]) / (
        (k1[2] - k1[1] ** 2) ** 2
    )
    assert variance_constant(k1, k2) == pytest.approx(direct, rel=1e-12)
    assert variance_constant(k1, k2) == pytest.approx(16.0 / 9.0, rel=1e-12)


def test_variance_constant_degenerate_design_rejected():
    with pytest.raises(ValidationError, match="degenerate kernel design"):
        variance_constant((1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0))


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV], ids=lambda k: k.id)
def test_symmetric_bias_constant_collapses_to_second_moment(kernel):
    m = moments(kernel)
    assert abs(bias_constant(m.k1) - m.k1[2]) < 1e-12


def test_non_decaying_kernel_reports_moment():
    # K(u) = 1 / (1 + |u|) is not even integrable: it has no moments
    fat = Kernel(id="fat", profile=lambda v, scale, out: 1.0 / (1.0 + np.sqrt(scale * v)),
                 norm=1.0)
    with pytest.raises(NumericalError, match="moment"):
        kernel_moment(fat, 1, 0)


def test_get_kernel_by_name():
    assert get_kernel("gaussian") is GAUSSIAN
    assert get_kernel("epanechnikov") is EPANECHNIKOV
    with pytest.raises(ValidationError):
        get_kernel("box")


def test_moment_range_validation():
    with pytest.raises(ValidationError):
        kernel_moment(GAUSSIAN, 1, 4)
    with pytest.raises(ValidationError):
        kernel_moment(GAUSSIAN, 2, 3)
    with pytest.raises(ValidationError):
        kernel_moment(GAUSSIAN, 3, 0)
