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
    derive_coefficients,
    find_periodic,
    minimize_rayleigh,
    phi_closed_form,
    rayleigh_quotient,
)
from radial4 import variational
from radial4.variational import _operator_symbol

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
        return np.array([cosh_profile_derivatives(sol, t)[0] for t in ts])

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


class TestPeriodicOperator:
    @staticmethod
    def dense_operator(n, h, K2, K0):
        eye = np.eye(n)
        ahead, behind = np.roll(eye, -1, axis=0), np.roll(eye, 1, axis=0)
        d1 = (ahead - behind) / (2.0 * h)
        d2 = (ahead - 2.0 * eye + behind) / (h * h)
        return h * (d2.T @ d2 + K2 * (d1.T @ d1) + K0 * eye)

    @pytest.mark.parametrize("n, h, K2, K0, p", [
        (21, 0.5, 10.0, 9.0, 5.0),
        (41, 0.25, 10.0 - 80.0 / 9.0, 9.0, 5.0),
        (31, 0.2, 0.3, 2.5, 3.0),
    ])
    def test_fft_solve_and_quotient_match_dense_operator(self, n, h, K2, K0, p):
        a = self.dense_operator(n, h, K2, K0)
        rng = np.random.default_rng(n)
        rhs = rng.uniform(-1.0, 1.0, n)
        x = np.fft.irfft(np.fft.rfft(rhs) / _operator_symbol(n, h, K2, K0), n)
        ref = np.linalg.solve(a, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        v = rng.uniform(-1.0, 1.0, n)
        expected = (v @ a @ v) / (h * np.sum(np.abs(v) ** (p + 1.0))) ** (2.0 / (p + 1.0))
        assert rayleigh_quotient(v, h, K2, K0, p) == pytest.approx(expected, rel=1e-13)


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

    @pytest.mark.parametrize("params", [
        ProblemParams(n=7, alpha=1.0, p=2.0, lam=2.0, mu=1.0),
        ProblemParams(n=8, alpha=-1.0, p=4.0, lam=0.0, mu=2.0),
    ], ids=["n7-p2", "n8-p4"])
    def test_richardson_value_meets_nehari_oracle(self, params):
        # No closed form exists here.  The decaying solution v satisfies
        # int (v''^2 + K2 v'^2 + K0 v^2) = int v^{p+1} (Nehari), so
        # phi = (int v^{p+1})^{(p-1)/(p+1)}; the orbit with minimum 1e-6 l
        # stands in for v, integrated by the trapezoid rule over one period.
        p = params.p
        orbit = find_periodic(1e-6 * derive_coefficients(params).l, params)
        ts = np.linspace(0.0, orbit.period, 8 * orbit.modes + 1)
        v = orbit.sample(ts)[:, 0]
        nehari = np.trapezoid(v ** (p + 1.0), ts) ** ((p - 1.0) / (p + 1.0))
        coarse = minimize_rayleigh(params, L=40.0, h=0.02).value
        fine = minimize_rayleigh(params, L=40.0, h=0.01).value
        assert (4.0 * fine - coarse) / 3.0 == pytest.approx(nehari, rel=1e-6)
