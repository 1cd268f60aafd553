"""Gamma/Beta evaluation, sphere measures, and cosh-power integrals through Beta."""

import math

import mpmath
import numpy as np
import pytest

from radial4 import (
    PoleError,
    ValidationError,
    beta_fn,
    gamma_fn,
    omega_n,
)


class TestGamma:
    @pytest.mark.parametrize(
        "x,value",
        [
            (0.5, math.sqrt(math.pi)),
            (1.0, 1.0),
            (2.0, 1.0),
            (6.0, 120.0),
            (-0.5, -2.0 * math.sqrt(math.pi)),
            (-1.5, 4.0 * math.sqrt(math.pi) / 3.0),
        ],
    )
    def test_known_values(self, x, value):
        assert gamma_fn(x) == pytest.approx(value, rel=1e-13)

    def test_recurrence(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = float(rng.uniform(0.1, 15.0))
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)

    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_nonfinite_rejected(self, x):
        with pytest.raises(ValidationError):
            gamma_fn(x)

    @pytest.mark.parametrize("x", [172.0, 1e-320, -1e-320])
    def test_overflow_is_validation_error(self, x):
        # Gamma(x) past the largest float: math.gamma's OverflowError, mapped
        with pytest.raises(ValidationError, match="overflows"):
            gamma_fn(x)


class TestBeta:
    def test_half_integer_value(self):
        # the value that closes the best-constant formula at p = 5
        assert beta_fn(1.0, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, b = rng.uniform(0.1, 8.0, size=2)
            assert beta_fn(float(a), float(b)) == pytest.approx(
                beta_fn(float(b), float(a)), rel=1e-12
            )

    def test_integer_identity(self):
        # B(m, n) = (m-1)!(n-1)!/(m+n-1)!
        assert beta_fn(3.0, 4.0) == pytest.approx(
            math.factorial(2) * math.factorial(3) / math.factorial(6), rel=1e-13
        )

    def test_pole_arguments(self):
        with pytest.raises(PoleError):
            beta_fn(0.0, 1.0)
        with pytest.raises(PoleError):
            beta_fn(1.0, -2.0)


class TestSphereMeasure:
    @pytest.mark.parametrize(
        "n,value",
        [
            (5, 8.0 * math.pi ** 2 / 3.0),
            (6, math.pi ** 3),
            (8, math.pi ** 4 / 3.0),
            (2, 2.0 * math.pi),
        ],
    )
    def test_known_surfaces(self, n, value):
        assert omega_n(n) == pytest.approx(value, rel=1e-13)

    def test_invalid_dimension(self):
        with pytest.raises(ValidationError):
            omega_n(0)
        with pytest.raises(ValidationError):
            omega_n(2.5)


def worst_relative_error(fn, exact, samples):
    """Largest |fn / exact - 1| over the argument tuples in samples, at 40 digits."""
    with mpmath.workdps(40):
        return max(float(abs(fn(*args) / exact(*args) - 1)) for args in samples)


class TestMpmathOracle:
    """gamma_fn, beta_fn and omega_n against mpmath at 40 digits.  The worst
    errors on these samples are 5.7e-16, 7.8e-16, 4.2e-15 and 1.4e-14."""

    def test_gamma_on_positive_axis(self):
        xs = np.random.default_rng(7).uniform(0.0, 40.0, (400, 1)).tolist()
        assert worst_relative_error(gamma_fn, mpmath.gamma, xs) <= 1e-14

    def test_gamma_on_negative_axis(self):
        # at least 1e-3 away from every pole
        xs = np.random.default_rng(11).uniform(-20.0, 0.0, (400, 1)).tolist()
        xs = [x for x in xs if abs(x[0] - round(x[0])) >= 1e-3]
        assert len(xs) >= 390
        assert worst_relative_error(gamma_fn, mpmath.gamma, xs) <= 1e-14

    def test_sphere_measure(self):
        def exact(n):
            return 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)

        assert worst_relative_error(omega_n, exact, [(n,) for n in range(1, 200)]) <= 1e-14

    def test_beta(self):
        # Gamma(a + b) is evaluated at the rounded sum a + b, whose error of
        # half an ulp grows by (a + b) psi(a + b), about 220 at a + b = 55
        pairs = np.random.default_rng(13).uniform(0.05, 30.0, (400, 2)).tolist()
        assert worst_relative_error(beta_fn, mpmath.beta, pairs) <= 2e-14


def cosh_power_quadrature(g, nu):
    """Integral of cosh(nu t)^g over [0, inf) by composite Gauss-Legendre."""
    # truncate where the integrand is below 1e-18 of its peak
    t_max = (42.0 / (-g) + math.log(2.0)) / nu
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, t_max, int(math.ceil(t_max / min(0.5, t_max / 8.0))) + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    # log cosh is exact for large arguments: |x| + log1p(e^{-2|x|}) - log 2
    ax = np.abs(nu * nodes)
    log_cosh = ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)
    return float(np.dot((half[:, None] * w).ravel(), np.exp(g * log_cosh)))


class TestCoshPowerIntegral:
    """int_0^inf cosh(nu t)^g dt = B(-g/2, 1/2) / (2 nu) for g < 0, the
    Beta-function form behind the closed-form best constant."""

    def test_tanh_antiderivative_oracle(self):
        # integral of sech^2(nu t) over [0, inf) is exactly 1/nu
        for nu in (0.5, 1.0, 3.0):
            assert 0.5 * beta_fn(1.0, 0.5) / nu == pytest.approx(1.0 / nu, rel=1e-14)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = float(rng.uniform(-6.0, -0.3))
            nu = float(rng.uniform(0.2, 3.0))
            cf = 0.5 * beta_fn(-0.5 * g, 0.5) / nu
            assert cosh_power_quadrature(g, nu) == pytest.approx(cf, rel=1e-12)
