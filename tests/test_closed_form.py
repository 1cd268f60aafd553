"""Explicit cosh-power profiles and their radial pull-back."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radial4 import (
    CoshSolution,
    DomainError,
    NoExplicitSolutionError,
    ProblemParams,
    SolutionCase,
    ValidationError,
    build_cosh_solution,
    cosh_profile_derivatives,
    curve_rows,
    eval_u,
    explicit_lambda_branches,
    radial_curve_rows,
)
from radial4.params import k0_value, k2_value

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
            lo = cosh_profile_derivatives(sol, t - h)
            hi = cosh_profile_derivatives(sol, t + h)
            exact = cosh_profile_derivatives(sol, t)
            for order in (1, 2, 3, 4):
                fd = (hi[order - 1] - lo[order - 1]) / (2.0 * h)
                assert fd == pytest.approx(float(exact[order]), rel=1e-7, abs=1e-7)

    def test_large_argument_underflows_cleanly(self):
        sol = build_cosh_solution(BASE)
        vals = cosh_profile_derivatives(sol, np.array([-800.0, 800.0]))
        for arr in vals:
            assert np.all(np.isfinite(arr))
        assert np.all(vals[0] >= 0.0)

    def test_even_symmetry(self):
        sol = build_cosh_solution(SHIFTED)
        ts = np.linspace(0.1, 8.0, 50)
        v, dv = cosh_profile_derivatives(sol, ts)[:2]
        v_neg, dv_neg = cosh_profile_derivatives(sol, -ts)[:2]
        assert np.allclose(v, v_neg, rtol=1e-15)
        assert np.allclose(dv, -dv_neg, rtol=1e-14)


class TestRadialProfile:
    def test_matches_transform_of_reduced_profile(self):
        # u(r) = r^{-q} v(-log r) with q = (n-4-alpha)/2
        sol = build_cosh_solution(SHIFTED)
        q = (6 - 4 - 0.0) / 2.0
        r = np.logspace(-3, 3, 200)
        v_at = cosh_profile_derivatives(sol, -np.log(r))[0]
        assert np.allclose(eval_u(sol, r), r ** (-q) * v_at, rtol=1e-12)

    def test_bounded_at_origin_for_base_instance(self):
        sol = build_cosh_solution(BASE)
        u0 = float(eval_u(sol, np.array([1e-8]))[0])
        assert math.isfinite(u0)
        assert u0 == pytest.approx(384.0 ** 0.25, rel=1e-10)

    def test_singular_at_origin_for_conjugate_instance(self):
        sol = build_cosh_solution(CONJUGATE)
        u = eval_u(sol, np.array([1e-4, 1e-5]))
        # gamma_decay = 2: one decade in r is four orders of magnitude in u
        assert u[1] / u[0] == pytest.approx(100.0, rel=1e-4)

    def test_extreme_radii_stay_finite(self):
        sol = build_cosh_solution(BASE)
        u = eval_u(sol, np.array([1e-150, 1e150]))
        assert np.all(np.isfinite(u))

    def test_rejects_nonpositive_radius(self):
        sol = build_cosh_solution(BASE)
        with pytest.raises(DomainError):
            eval_u(sol, np.array([0.0, 1.0]))


class TestEmdenFowlerMap:
    """The pull-back u(r) = r^{-(n-4-alpha)/2} v(-log r) of the cosh profile."""

    def test_exponent(self):
        r = np.logspace(-2, 2, 9)
        for n, alpha, p, q in ((6, 0.0, 5.0, 1.0), (8, -1.0, 1.8, 2.5)):
            sol = build_cosh_solution(ProblemParams(n=n, alpha=alpha, p=p))
            v_at = cosh_profile_derivatives(sol, -np.log(r))[0]
            assert np.allclose(eval_u(sol, r) / v_at, r ** -q, rtol=1e-12)

    def test_inverse_rejects_nonpositive_radius(self):
        sol = build_cosh_solution(BASE)
        with pytest.raises(DomainError):
            eval_u(sol, np.array([-1.0]))


class TestResidualAndRows:
    def test_curve_rows_shape(self):
        sol = build_cosh_solution(BASE)
        header, rows = curve_rows(sol, -2.0, 2.0, num=41)
        assert header == ("t", "v", "dv", "d2v", "d3v", "residual")
        assert len(rows) == 41
        ts = [row[0] for row in rows]
        assert ts[0] == -2.0 and ts[-1] == 2.0

    def test_radial_curve_rows_span(self):
        sol = build_cosh_solution(BASE)
        (header, rows) = radial_curve_rows(sol, 1e-6, 1e6, num=101)
        assert header == ("r", "u")
        assert rows[0][0] == pytest.approx(1e-6, rel=1e-12)
        assert rows[-1][0] == pytest.approx(1e6, rel=1e-12)
        assert all(np.isfinite(row[1]) for row in rows)


def _family_alpha(case, n, p):
    """alpha that puts (n, alpha, p) in the family: the balance relation
    (n+alpha)/2 + (n+beta)/(p+1) = n-2 with beta = alpha (CASE1), or with
    (n+alpha)(n+beta) = (n-4-alpha)^2 (CASE2), solved for alpha."""
    if case is SolutionCase.CASE1:
        return ((p + 1.0) * (n - 4.0) - 2.0 * n) / (p + 3.0)
    return (2.0 * (n - 4.0) - (p + 1.0) * n) / (p + 3.0)


@st.composite
def explicit_families(draw):
    case = draw(st.sampled_from([SolutionCase.CASE1, SolutionCase.CASE2]))
    n = draw(st.integers(5, 10))
    p = draw(st.floats(1.2, 20.0))
    mu = draw(st.floats(-1.0, 100.0))
    return case, n, _family_alpha(case, n, p), p, mu


@settings(derandomize=True, max_examples=200, deadline=None)
@given(explicit_families())
def test_lambda_branches_build_cosh_solutions(family):
    # each branch is a root in lambda of 4 (p+1)^2 K2^2 = ((p+1)^2+4)^2 K0,
    # and the profile also needs K2 > 0, as nu^2 = K2 / (m^2 + (m-2)^2).
    # K2 = A - lambda and K0 = B - q^2 lambda + mu, q = (n-4-alpha)/2, both
    # fall as lambda grows, so a root with K2 <= 0 exists exactly when K0 > 0
    # where K2 = 0, that is when mu > mu* = q^2 A - B: then only the minus
    # branch is returned, else both, and each builds the profile (of the
    # requested family, solving the equation)
    case, n, alpha, p, mu = family
    try:
        branches = explicit_lambda_branches(case, n, alpha, mu)
    except DomainError:
        assume(False)
    q = 0.5 * (n - 4.0 - alpha)
    mu_star = q * q * k2_value(n, alpha, 0.0) - k0_value(n, alpha, 0.0, 0.0)
    assume(abs(mu - mu_star) > 1e-6 * max(1.0, abs(mu_star)))
    assert len(branches) == (2 if mu < mu_star else 1)
    assert list(branches) == sorted(branches, reverse=True)
    for lam in branches:
        params = ProblemParams(n=n, alpha=alpha, p=p, lam=lam, mu=mu)
        assert k2_value(n, alpha, lam) > 0.0
        sol = build_cosh_solution(params)
        assert sol.case_tag is case
        v0, _, v2, _, v4 = cosh_profile_derivatives(sol, np.linspace(-4.0, 4.0, 17) / sol.nu)
        terms = np.abs([v4, sol.K2 * v2, sol.K0 * v0, v0 ** p])
        assert np.max(np.abs(v4 - sol.K2 * v2 + sol.K0 * v0 - v0 ** p) / terms.max(axis=0)) <= 1e-9
