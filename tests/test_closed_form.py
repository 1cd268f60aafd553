"""Explicit cosh-power profiles and the Emden-Fowler change of variables."""

import math

import numpy as np
import pytest

from radial4 import (
    CoshSolution,
    DomainError,
    EmdenFowlerMap,
    NoExplicitSolutionError,
    ProblemParams,
    SolutionCase,
    ValidationError,
    build_cosh_solution,
    cosh_profile_derivatives,
    curve_rows,
    eval_u,
    eval_v,
    ode_residual,
    radial_curve_rows,
)

BASE = ProblemParams(n=6, alpha=0.0, p=5.0)
SHIFTED = ProblemParams(n=6, alpha=0.0, p=5.0, lam=80.0 / 9.0)
CONJUGATE = ProblemParams(n=6, alpha=-4.0, p=5.0, beta=12.0)


class TestBuild:
    def test_base_profile(self):
        sol = build_cosh_solution(BASE)
        assert sol.m == pytest.approx(-1.0, abs=1e-15)
        assert sol.nu == pytest.approx(1.0, rel=1e-15)
        assert sol.C == pytest.approx(24.0 ** 0.25, rel=1e-15)
        assert sol.case_tag is SolutionCase.CASE1
        assert sol.gamma_decay == pytest.approx(0.0, abs=1e-14)

    def test_shifted_profile(self):
        sol = build_cosh_solution(SHIFTED)
        assert sol.nu == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert sol.C == pytest.approx((24.0 / 81.0) ** 0.25, rel=1e-14)
        assert sol.case_tag is SolutionCase.CASE1
        assert sol.gamma_decay == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_conjugate_profile(self):
        sol = build_cosh_solution(CONJUGATE)
        assert sol.case_tag is SolutionCase.CASE2
        assert sol.gamma_decay == pytest.approx(2.0, rel=1e-14)
        assert sol.C == pytest.approx(24.0 ** 0.25, rel=1e-15)

    def test_amplitude_closes_lin_type_constant(self):
        # 2C at (n=6, alpha=0) equals ((n-4)(n-2)n(n+2))^{(n-4)/8}
        sol = build_cosh_solution(BASE)
        assert 2.0 * sol.C == pytest.approx(384.0 ** 0.25, rel=1e-12)

    def test_off_relation_rejected(self):
        with pytest.raises(NoExplicitSolutionError):
            build_cosh_solution(ProblemParams(n=6, alpha=0.0, p=4.9))

    def test_nonpositive_k2_rejected(self):
        with pytest.raises(ValidationError):
            build_cosh_solution(ProblemParams(n=6, alpha=0.0, p=5.0, lam=11.0))


class TestDerivatives:
    @pytest.mark.parametrize("params", [BASE, SHIFTED, CONJUGATE], ids=["base", "shifted", "conjugate"])
    def test_residual_vanishes(self, params):
        sol = build_cosh_solution(params)
        ts = np.linspace(-12.0, 12.0, 4001)
        v0, _, v2, _, v4 = cosh_profile_derivatives(sol, ts)
        res = np.abs(v4 - sol.K2 * v2 + sol.K0 * v0 - v0 ** sol.p)
        assert np.max(res / np.maximum(1.0, v0 ** sol.p)) < 1e-12

    def test_derivatives_match_finite_differences(self):
        sol = build_cosh_solution(BASE)
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(25):
            t = float(rng.uniform(-3.0, 3.0))
            for order in (1, 2, 3):
                lo = eval_v(sol, t - h, order=order - 1)
                hi = eval_v(sol, t + h, order=order - 1)
                fd = (hi - lo) / (2.0 * h)
                assert fd == pytest.approx(float(eval_v(sol, t, order=order)), rel=1e-7, abs=1e-7)

    def test_large_argument_underflows_cleanly(self):
        sol = build_cosh_solution(BASE)
        vals = cosh_profile_derivatives(sol, np.array([-800.0, 800.0]))
        for arr in vals:
            assert np.all(np.isfinite(arr))
        assert np.all(vals[0] >= 0.0)

    def test_eval_v_order_validation(self):
        sol = build_cosh_solution(BASE)
        with pytest.raises(ValidationError):
            eval_v(sol, 0.0, order=5)

    def test_even_symmetry(self):
        sol = build_cosh_solution(SHIFTED)
        ts = np.linspace(0.1, 8.0, 50)
        assert np.allclose(eval_v(sol, ts), eval_v(sol, -ts), rtol=1e-15)
        assert np.allclose(eval_v(sol, ts, 1), -eval_v(sol, -ts, 1), rtol=1e-14)


class TestRadialProfile:
    def test_matches_transform_of_reduced_profile(self):
        sol = build_cosh_solution(SHIFTED)
        efmap = EmdenFowlerMap(n=6, alpha=0.0)
        r = np.logspace(-3, 3, 200)
        v_at = eval_v(sol, -np.log(r))
        expected = r ** (-efmap.exponent) * v_at
        assert np.allclose(eval_u(sol, efmap, r), expected, rtol=1e-12)

    def test_bounded_at_origin_for_base_instance(self):
        sol = build_cosh_solution(BASE)
        efmap = EmdenFowlerMap(n=6, alpha=0.0)
        u0 = float(eval_u(sol, efmap, np.array([1e-8]))[0])
        assert math.isfinite(u0)
        assert u0 == pytest.approx(384.0 ** 0.25, rel=1e-10)

    def test_singular_at_origin_for_conjugate_instance(self):
        sol = build_cosh_solution(CONJUGATE)
        efmap = EmdenFowlerMap(n=6, alpha=-4.0)
        u = eval_u(sol, efmap, np.array([1e-4, 1e-5]))
        # gamma_decay = 2: one decade in r is four orders of magnitude in u
        assert u[1] / u[0] == pytest.approx(100.0, rel=1e-4)

    def test_extreme_radii_stay_finite(self):
        sol = build_cosh_solution(BASE)
        efmap = EmdenFowlerMap(n=6, alpha=0.0)
        u = eval_u(sol, efmap, np.array([1e-150, 1e150]))
        assert np.all(np.isfinite(u))

    def test_rejects_nonpositive_radius(self):
        sol = build_cosh_solution(BASE)
        efmap = EmdenFowlerMap(n=6, alpha=0.0)
        with pytest.raises(DomainError):
            eval_u(sol, efmap, np.array([0.0, 1.0]))


class TestEmdenFowlerMap:
    def test_exponent(self):
        assert EmdenFowlerMap(n=6, alpha=0.0).exponent == 1.0
        assert EmdenFowlerMap(n=8, alpha=-1.0).exponent == 2.5

    def test_roundtrip_identity(self):
        efmap = EmdenFowlerMap(n=7, alpha=0.5)
        u = lambda r: np.exp(-((np.log(r)) ** 2))
        rng = np.random.default_rng(17)
        r = rng.uniform(0.05, 20.0, size=100)
        assert np.allclose(efmap.inverse(efmap.forward(u))(r), u(r), rtol=1e-13)

    def test_inverse_rejects_nonpositive_radius(self):
        efmap = EmdenFowlerMap(n=6, alpha=0.0)
        u = efmap.inverse(lambda t: np.asarray(t) * 0.0 + 1.0)
        with pytest.raises(DomainError):
            u(np.array([-1.0]))


class TestResidualAndRows:
    def test_ode_residual_requires_nonnegative_v(self):
        with pytest.raises(DomainError):
            ode_residual(
                lambda t: [np.asarray(t) * 0.0 - 1.0] * 5,
                np.array([0.0]),
                10.0,
                9.0,
                5.0,
            )

    def test_curve_rows_shape(self):
        sol = build_cosh_solution(BASE)
        header, rows = curve_rows(sol, -2.0, 2.0, num=41)
        assert header == ("t", "v", "dv", "d2v", "d3v", "residual")
        assert len(rows) == 41
        ts = [row[0] for row in rows]
        assert ts[0] == -2.0 and ts[-1] == 2.0

    def test_radial_curve_rows_span(self):
        sol = build_cosh_solution(BASE)
        efmap = EmdenFowlerMap(n=6, alpha=0.0)
        (header, rows) = radial_curve_rows(sol, efmap, 1e-6, 1e6, num=101)
        assert header == ("r", "u")
        assert rows[0][0] == pytest.approx(1e-6, rel=1e-12)
        assert rows[-1][0] == pytest.approx(1e6, rel=1e-12)
        assert all(np.isfinite(row[1]) for row in rows)
