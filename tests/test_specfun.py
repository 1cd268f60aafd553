"""Gamma/Beta evaluation, sphere measures, and cosh-power integrals."""

import math

import numpy as np
import pytest

from radial4 import (
    PoleError,
    ValidationError,
    beta_fn,
    cosh_power_integral,
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

    def test_matches_reference_on_positive_axis(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            x = float(rng.uniform(0.05, 30.0))
            assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-13)

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


class TestCoshPowerIntegral:
    def test_tanh_antiderivative_oracle(self):
        # integral of sech^2(nu t) over [0, inf) is exactly 1/nu
        for nu in (0.5, 1.0, 3.0):
            assert cosh_power_integral(-2.0, nu) == pytest.approx(1.0 / nu, rel=1e-14)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = float(rng.uniform(-6.0, -0.3))
            nu = float(rng.uniform(0.2, 3.0))
            cf = cosh_power_integral(g, nu, method="closed_form")
            q = cosh_power_integral(g, nu, method="quadrature")
            assert q == pytest.approx(cf, rel=1e-12)

    @pytest.mark.parametrize("g,nu", [(0.0, 1.0), (1.0, 1.0), (-2.0, 0.0), (-2.0, -1.0)])
    def test_domain_validation(self, g, nu):
        with pytest.raises(ValidationError):
            cosh_power_integral(g, nu)

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            cosh_power_integral(-2.0, 1.0, method="midpoint")
