"""Discretized Rayleigh quotient, its minimizer, and closed-form constants."""

import math

import numpy as np
import pytest

from radial4 import (
    ConstantSource,
    ConvergenceError,
    DomainError,
    ProblemParams,
    RegimeError,
    ValidationError,
    best_constant_numerical,
    build_cosh_solution,
    cosh_profile_derivatives,
    minimize_rayleigh,
    phi_closed_form,
    rayleigh_quotient,
)
from radial4 import variational
from radial4.variational import (
    _band_cholesky,
    _band_cholesky_solve,
    _quadratic_form_bands,
)

B0 = ProblemParams(n=6, alpha=0.0, p=5.0)
SHIFTED = ProblemParams(n=6, alpha=0.0, p=5.0, lam=80.0 / 9.0)
CONJUGATE = ProblemParams(n=6, alpha=-4.0, p=5.0, beta=12.0)
# (K2, K0) = (10, 16) sits on the solvability relation at p = 3
CUBIC = ProblemParams(n=6, alpha=0.0, p=3.0, mu=7.0)

PHI_B0 = 24.0 * (16.0 / 15.0) ** (2.0 / 3.0)


class TestRayleighQuotient:
    @staticmethod
    def profile(params, L=30.0, h=0.01):
        """The cosh profile at the nodes of [-L, L] spaced h apart."""
        sol = build_cosh_solution(params)
        ts = np.linspace(-L, L, 2 * int(round(L / h)) + 1)
        return cosh_profile_derivatives(sol, ts)[0]

    def test_exact_profile_attains_constant(self):
        q = rayleigh_quotient(self.profile(B0), 0.01, 10.0, 9.0, 5.0)
        assert q == pytest.approx(PHI_B0, rel=1e-4)

    def test_scale_invariance(self):
        v = self.profile(B0, L=20.0, h=0.02)
        q0 = rayleigh_quotient(v, 0.02, 10.0, 9.0, 5.0)
        rng = np.random.default_rng(37)
        for _ in range(10):
            c = float(rng.uniform(0.1, 50.0))
            q = rayleigh_quotient(c * v, 0.02, 10.0, 9.0, 5.0)
            assert q == pytest.approx(q0, rel=1e-12)

    def test_minimizer_is_lower_than_perturbations(self):
        v = self.profile(B0, L=20.0, h=0.02)
        q0 = rayleigh_quotient(v, 0.02, 10.0, 9.0, 5.0)
        rng = np.random.default_rng(53)
        bump = np.exp(-np.linspace(-20.0, 20.0, len(v)) ** 2)
        for _ in range(10):
            eps = float(rng.uniform(0.01, 0.2))
            q = rayleigh_quotient(v + eps * bump, 0.02, 10.0, 9.0, 5.0)
            assert q > q0 - 1e-10

    def test_zero_function_rejected(self):
        with pytest.raises(DomainError):
            rayleigh_quotient(np.zeros(21), 0.5, 10.0, 9.0, 5.0)

    def test_needs_five_nodes(self):
        rayleigh_quotient(np.ones(5), 0.5, 10.0, 9.0, 5.0)  # five nodes is the minimum
        with pytest.raises(ValidationError):
            rayleigh_quotient(np.ones(3), 0.5, 10.0, 9.0, 5.0)

    def test_nonfinite_values_rejected(self):
        vals = np.ones(41)
        vals[3] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            rayleigh_quotient(vals, 0.5, 10.0, 9.0, 5.0)


class TestMinimize:
    def test_base_instance_converges_to_constant(self):
        res = minimize_rayleigh(B0, L=40.0, h=0.01)
        assert res.value == pytest.approx(PHI_B0, rel=1e-4)
        assert len(res.values) == 8001
        assert res.values[4000] > 0.0

    def test_result_fields(self):
        res = minimize_rayleigh(B0, L=40.0, h=0.01)
        assert res.iterations >= 1
        assert res.value == pytest.approx(PHI_B0, rel=1e-4)

    def test_second_order_accuracy(self):
        err1 = abs(minimize_rayleigh(B0, L=40.0, h=0.02).value - PHI_B0)
        err2 = abs(minimize_rayleigh(B0, L=40.0, h=0.01).value - PHI_B0)
        assert err1 / err2 > 3.0

    def test_cubic_exponent_instance(self):
        phi = phi_closed_form(CUBIC).phi
        res = minimize_rayleigh(CUBIC, L=30.0, h=0.01)
        assert res.value == pytest.approx(phi, rel=1e-4)
        assert res.iterations > 1

    def test_profile_is_even_and_positive(self):
        v = minimize_rayleigh(B0, L=30.0, h=0.02).values
        assert np.all(v >= 0.0)
        assert np.max(np.abs(v - v[::-1])) < 1e-8 * np.max(v)

    @pytest.mark.parametrize("h, iterations, value", [
        (0.02, 4, 25.05374197173979),
        (0.01, 3, 25.0548002337041),
    ])
    def test_pinned_iterations_and_value(self, h, iterations, value):
        res = minimize_rayleigh(B0, L=40.0, h=h)
        assert res.iterations == iterations
        assert res.value == pytest.approx(value, rel=1e-12)

    def test_stalled_line_search_is_convergence_error(self, monkeypatch):
        # a quotient that rises on every call leaves no acceptable step
        calls = []

        def rising(values, h, K2, K0, p):
            calls.append(values)
            return float(len(calls))

        monkeypatch.setattr(variational, "rayleigh_quotient", rising)
        with pytest.raises(ConvergenceError, match="stalled at iteration 1"):
            minimize_rayleigh(B0, L=20.0, h=0.05)

    def test_requires_coercive_coefficients(self):
        with pytest.raises(RegimeError):
            minimize_rayleigh(ProblemParams(n=6, alpha=0.0, p=5.0, lam=11.0), L=20.0, h=0.05)

    @pytest.mark.parametrize("L, h", [
        (20.0, 0.0), (20.0, math.nan), (math.inf, 0.05), (-20.0, 0.05), (1e9, 0.01),
    ])
    def test_bad_grid_rejected_before_allocation(self, L, h):
        # (1e9, 0.01) would need 2e11 nodes; the cap refuses it up front
        with pytest.raises(ValidationError, match="grid"):
            minimize_rayleigh(B0, L=L, h=h)

    def test_noninteger_ratio_rejected(self):
        with pytest.raises(ValidationError, match="L/h must be integral"):
            minimize_rayleigh(B0, L=10.0, h=0.3)


class TestBandCholesky:
    @staticmethod
    def dense_operator(n, h, K2, K0):
        d2 = np.zeros((n - 2, n))
        d1 = np.zeros((n - 2, n))
        for i in range(n - 2):
            d2[i, i:i + 3] = np.array([1.0, -2.0, 1.0]) / (h * h)
            d1[i, i], d1[i, i + 2] = -1.0 / (2.0 * h), 1.0 / (2.0 * h)
        return h * (d2.T @ d2 + K2 * (d1.T @ d1)) + K0 * h * np.eye(n)

    @pytest.mark.parametrize("n, h, K2, K0", [
        (21, 0.5, 10.0, 9.0),
        (41, 0.25, 10.0 - 80.0 / 9.0, 9.0),
        (31, 0.1, 0.3, 2.5),
    ])
    def test_matches_dense_solve(self, n, h, K2, K0):
        a = self.dense_operator(n, h, K2, K0)
        bands = _quadratic_form_bands(n, h, K2, K0)
        for k, band in enumerate(bands):
            np.testing.assert_allclose(band, np.diagonal(a, k), rtol=1e-14, atol=0.0)
        rhs = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        x = _band_cholesky_solve(_band_cholesky(*(b.tolist() for b in bands)), rhs.tolist())
        ref = np.linalg.solve(a, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(DomainError):
            _band_cholesky([1.0, 1.0, 1.0], [2.0, 0.0], [0.0])


class TestClosedFormConstant:
    def test_base_value(self):
        res = phi_closed_form(B0)
        assert res.phi == pytest.approx(PHI_B0, rel=1e-12)
        assert res.S_rad == pytest.approx(math.pi ** 2 * PHI_B0, rel=1e-12)
        assert res.source is ConstantSource.CLOSED_FORM

    def test_shifted_value(self):
        assert phi_closed_form(SHIFTED).phi == pytest.approx(0.6434175091187917, rel=1e-12)

    def test_conjugate_matches_base(self):
        # same reduced coefficients, same 1-D constant
        assert phi_closed_form(CONJUGATE).phi == pytest.approx(phi_closed_form(B0).phi, rel=1e-12)

    def test_cubic_value(self):
        assert phi_closed_form(CUBIC).phi == pytest.approx(34.11298479060644, rel=1e-12)

    def test_to_dict(self):
        d = phi_closed_form(B0).to_dict()
        assert set(d) == {"phi", "S_rad", "source"}
        assert d["source"] == "ClosedForm"


class TestNumericalConstant:
    def test_matches_closed_form(self):
        result, minimized = best_constant_numerical(B0, L=40.0, h=0.01)
        assert result.source is ConstantSource.NUMERICAL
        assert result.phi == pytest.approx(PHI_B0, rel=1e-3)
        assert result.S_rad == pytest.approx(math.pi ** 2 * PHI_B0, rel=1e-3)
        assert minimized.value == result.phi
