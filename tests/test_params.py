"""Parameter validation, derived coefficients, and regime conditions."""

import math

import numpy as np
import pytest

from radial4 import (
    DomainError,
    ProblemParams,
    SolutionCase,
    ValidationError,
    beta_from_hyperbola,
    check_conditions,
    derive_coefficients,
    explicit_lambda_branches,
    k0_value,
    k2_value,
)
from radial4.cli import _sorted_eigenvalues

B0 = dict(n=6, alpha=0.0, p=5.0, lam=0.0, mu=0.0)


def unified_plus_branch(n, alpha, mu):
    """Parameter-only form of the CASE1 plus branch: an oracle written apart from the code."""
    a, b, q = n - 2.0, alpha + 2.0, n - 4.0 - alpha
    root = math.sqrt(a * a * b * b * q * q + 4.0 * (n + alpha) ** 2 * mu)
    return (a * a + b * b) * (a * b * q + root) / ((n + alpha) ** 2 * q)


def c1_region_sample(rng):
    """Random parameters inside the coercive product-form region."""
    n = int(rng.integers(5, 10))
    alpha = float(rng.uniform(-n + 0.2, n - 4.2))
    mu = float(rng.uniform(0.0, 3.0))
    ab = (n - 2.0) * (alpha + 2.0)
    lam = ab - 2.0 * math.sqrt(mu) - float(rng.uniform(0.0, 5.0))
    p = float(rng.uniform(1.5, 6.0))
    return ProblemParams(n=n, alpha=alpha, p=p, lam=lam, mu=mu)


class TestBalanceRelation:
    @pytest.mark.parametrize(
        "n,alpha,p,beta",
        [
            (6, 0.0, 5.0, 0.0),
            (6, -4.0, 5.0, 12.0),
            (6, 0.0, 3.0, -2.0),
            (8, 1.0, 2.0, -3.5),
        ],
    )
    def test_known_values(self, n, alpha, p, beta):
        assert beta_from_hyperbola(n, alpha, p) == pytest.approx(beta, abs=1e-12)

    def test_residual_vanishes_for_computed_beta(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = c1_region_sample(rng)
            n, alpha, beta, p = params.n, params.alpha, params.beta, params.p
            assert abs((n + alpha) / 2.0 + (n + beta) / (p + 1.0) - (n - 2.0)) < 1e-12

    def test_explicit_beta_must_match(self):
        with pytest.raises(ValidationError):
            ProblemParams(n=6, alpha=0.0, p=5.0, beta=0.5)
        # a consistent beta is accepted verbatim
        params = ProblemParams(n=6, alpha=-4.0, p=5.0, beta=12.0)
        assert params.beta == 12.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=4, alpha=-1.0, p=5.0),
            dict(n=5.5, alpha=0.0, p=5.0),
            dict(n=6, alpha=2.0, p=5.0),
            dict(n=6, alpha=-6.0, p=5.0),
            dict(n=6, alpha=0.0, p=1.0),
            dict(n=6, alpha=0.0, p=0.5),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValidationError):
            ProblemParams(**kwargs)

    @pytest.mark.parametrize("name", ["n", "alpha", "p", "lam", "mu", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        kwargs = dict(n=6, alpha=0.0, p=5.0)
        kwargs[name] = value
        with pytest.raises(ValidationError, match="must be finite"):
            ProblemParams(**kwargs)

    def test_rejects_n_too_large_for_a_float(self):
        # math.isfinite(10**400) raises OverflowError
        with pytest.raises(ValidationError, match="does not convert to a float"):
            ProblemParams(n=10 ** 400, alpha=0.0, p=5.0)

    def test_rejects_non_finite_computed_beta(self):
        # beta = (p+1)((n-2) - (n+alpha)/2) - n = 48 (p+1) - 100 overflows
        with pytest.raises(ValidationError, match="beta=inf"):
            ProblemParams(n=100, alpha=0.0, p=1e308)
        assert ProblemParams(n=100, alpha=0.0, p=1e306).beta == 48.0 * 1e306

    def test_dict_roundtrip_uses_lambda_key(self):
        params = ProblemParams(n=6, alpha=0.5, p=4.0, lam=2.5, mu=-1.0)
        d = params.to_dict()
        assert d["lambda"] == 2.5
        assert ProblemParams(n=d["n"], alpha=d["alpha"], p=d["p"], lam=d["lambda"], mu=d["mu"],
                             beta=d["beta"]) == params

    def test_frozen(self):
        params = ProblemParams(**B0)
        with pytest.raises(AttributeError):
            params.alpha = 1.0


class TestDerivedCoefficients:
    def test_base_instance(self):
        coeff = derive_coefficients(ProblemParams(**B0))
        assert coeff.K2 == pytest.approx(10.0, abs=1e-14)
        assert coeff.K0 == pytest.approx(9.0, abs=1e-14)
        assert coeff.l == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert coeff.eigenvalues == pytest.approx((3.0, 1.0, -3.0, -1.0), abs=1e-13)
        assert coeff.eigenvalues_real

    def test_gradient_shift_instance(self):
        params = ProblemParams(n=6, alpha=0.0, p=5.0, lam=80.0 / 9.0)
        coeff = derive_coefficients(params)
        assert coeff.K2 == pytest.approx(10.0 / 9.0, rel=1e-14)
        assert coeff.K0 == pytest.approx(1.0 / 9.0, rel=1e-14)
        assert coeff.eigenvalues == pytest.approx(
            (1.0, 1.0 / 3.0, -1.0, -1.0 / 3.0), rel=1e-13
        )

    def test_conjugate_weight_instance_matches_base(self):
        coeff = derive_coefficients(ProblemParams(n=6, alpha=-4.0, p=5.0, beta=12.0))
        assert coeff.K2 == pytest.approx(10.0, abs=1e-14)
        assert coeff.K0 == pytest.approx(9.0, abs=1e-14)

    def test_k_values_match_direct_formulas(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            params = c1_region_sample(rng)
            n, a, lam, mu = params.n, params.alpha, params.lam, params.mu
            K2 = ((n - 2.0) ** 2 + (a + 2.0) ** 2) / 2.0 - lam
            q = (n - 4.0 - a) / 2.0
            K0 = q * q * (n + a) ** 2 / 4.0 - lam * q * q + mu
            assert k2_value(n, a, lam) == pytest.approx(K2, rel=1e-14)
            assert k0_value(n, a, lam, mu) == pytest.approx(K0, rel=1e-14)

    def test_eigenvalue_pairing_and_product(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            coeff = derive_coefficients(c1_region_sample(rng))
            lam1, lam2, lam3, lam4 = coeff.eigenvalues
            assert lam3 == -lam1 and lam4 == -lam2
            if coeff.eigenvalues_real:
                assert lam1 >= lam2 >= 0.0
                assert coeff.K0 == pytest.approx(lam1 ** 2 * lam2 ** 2, rel=1e-10, abs=1e-10)

    def test_factorization_residual_small(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            coeff = derive_coefficients(c1_region_sample(rng))
            for e in coeff.eigenvalues:
                assert abs(e ** 4 - coeff.K2 * e ** 2 + coeff.K0) <= 1e-10

    def test_complex_regime(self):
        # disc = (lam - (n-2)(alpha+2))^2 - 4 mu < 0 forces a complex quartet
        coeff = derive_coefficients(ProblemParams(n=6, alpha=0.0, p=5.0, lam=8.0, mu=1.0))
        assert not coeff.eigenvalues_real
        assert isinstance(coeff.lam1, complex)
        for e in coeff.eigenvalues:
            assert abs(e ** 4 - coeff.K2 * e ** 2 + coeff.K0) <= 1e-10

    def test_to_dict_encodes_complex_eigenvalues(self):
        # the JSON form of a complex quartet is one {"re", "im"} object per eigenvalue
        coeff = derive_coefficients(ProblemParams(n=6, alpha=0.0, p=5.0, lam=8.0, mu=1.0))
        enc = _sorted_eigenvalues(coeff)
        assert all(set(e) == {"re", "im"} for e in enc)
        key = lambda z: (z.real, z.imag)
        decoded = sorted((complex(e["re"], e["im"]) for e in enc), key=key)
        expected = sorted((complex(e) for e in coeff.eigenvalues), key=key)
        assert decoded == pytest.approx(expected, rel=1e-15)

    def test_negative_k0_has_no_equilibrium(self):
        coeff = derive_coefficients(ProblemParams(n=6, alpha=0.0, p=5.0, lam=11.0))
        assert coeff.K0 < 0.0
        assert coeff.l is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=1.0000000000001),  # l = K0^(1/(p-1)) overflows
            dict(p=5.0, lam=1e308),  # the discriminant overflows
            dict(p=5.0, lam=-1e308),
            dict(p=5.0, mu=-1e308),  # the discriminant is +inf
            dict(p=5.0, lam=1e308, mu=1e308),
        ],
    )
    def test_overflowing_coefficients_are_validation_errors(self, kwargs):
        with pytest.raises(ValidationError):
            derive_coefficients(ProblemParams(n=6, alpha=0.0, **kwargs))


class TestConditionReport:
    def test_double_root_boundary_agrees_with_eigenvalues(self):
        # On lam = (n-2)(alpha+2) +- 2 sqrt(mu) the roots are double; rounding
        # must not read the discriminant with one sign here and the other there.
        rng = np.random.default_rng(26)
        checked = 0
        while checked < 2000:
            n = int(rng.integers(5, 11))
            alpha = float(rng.uniform(-n, n - 4.0))
            mu = float(rng.uniform(0.0, 5.0))
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            lam = (n - 2.0) * (alpha + 2.0) + sign * 2.0 * math.sqrt(mu)
            params = ProblemParams(n=n, alpha=alpha, p=float(rng.uniform(1.2, 8.0)),
                                   lam=lam, mu=mu)
            coeff = derive_coefficients(params)
            if coeff.K2 <= 0.0:
                continue
            assert coeff.eigenvalues_real == check_conditions(params).uniqueness_ok, params
            checked += 1

    def test_base_instance_flags(self):
        rep = check_conditions(ProblemParams(**B0))
        assert rep.c1 and not rep.c2 and rep.c3
        assert rep.norm_ok and rep.uniqueness_ok
        assert not rep.periodicity_regime and not rep.singular_regime

    def test_periodicity_needs_positive_mu(self):
        rep = check_conditions(ProblemParams(n=6, alpha=0.0, p=5.0, lam=0.0, mu=1.0))
        assert rep.periodicity_regime
        assert rep.c1

    def test_second_condition_boundary(self):
        # at (n=6, alpha=0, mu=1) the c2 window collapses to lam = 10
        rep = check_conditions(ProblemParams(n=6, alpha=0.0, p=5.0, lam=10.0, mu=1.0))
        assert rep.c2
        rep = check_conditions(ProblemParams(n=6, alpha=0.0, p=5.0, lam=10.1, mu=1.0))
        assert not rep.c2

    def test_singular_regime_flag(self):
        rep = check_conditions(ProblemParams(n=6, alpha=-4.0, p=5.0, lam=1.0, mu=0.0))
        assert rep.singular_regime

    def test_uniqueness_discriminant_sign(self):
        rep = check_conditions(ProblemParams(n=6, alpha=0.0, p=5.0, lam=8.0, mu=1.0))
        assert not rep.uniqueness_ok

    @pytest.mark.parametrize("lam", [1e308, -1e308])
    def test_overflowing_discriminant_is_a_validation_error(self, lam):
        # (lam - (n-2)(alpha+2))^2 overflows, as in derive_coefficients
        with pytest.raises(ValidationError):
            check_conditions(ProblemParams(n=6, alpha=0.0, p=5.0, lam=lam))

    def test_to_dict_fields(self):
        d = check_conditions(ProblemParams(**B0)).to_dict()
        assert set(d) == {
            "c1", "c2", "c3", "norm_ok", "uniqueness_ok",
            "periodicity_regime", "singular_regime",
        }


class TestExplicitLambdaBranches:
    def test_equal_weight_branches(self):
        plus, minus = explicit_lambda_branches(SolutionCase.CASE1, 6, 0.0, 0.0)
        assert plus == pytest.approx(80.0 / 9.0, rel=1e-12)
        assert minus == pytest.approx(0.0, abs=1e-12)
        # above this family's mu* = 1, lam_plus has K2 < 0 and is left out
        (minus,) = explicit_lambda_branches(SolutionCase.CASE1, 6, 0.0, 1.1)
        assert k2_value(6, 0.0, minus) > 0.0

    def test_conjugate_weight_branches(self):
        # K2 = 10 - lam and K0 = 9(1 - lam), so the solvability quadratic
        # is lam(lam + 80) = 0
        plus, minus = explicit_lambda_branches(SolutionCase.CASE2, 6, -4.0, 0.0)
        assert plus == pytest.approx(0.0, abs=1e-12)
        assert minus == pytest.approx(-80.0, rel=1e-12)

    def test_unified_form_matches_plus_branch(self):
        # the plus branch is returned exactly when the oracle's root has K2 > 0
        rng = np.random.default_rng(5)
        returned = 0
        for _ in range(30):
            n = int(rng.integers(5, 10))
            alpha = float(rng.uniform(-1.9, n - 4.1))
            mu = float(rng.uniform(0.0, 2.0))
            branches = explicit_lambda_branches(SolutionCase.CASE1, n, alpha, mu)
            plus = unified_plus_branch(n, alpha, mu)
            if len(branches) == 2:
                assert plus == pytest.approx(branches[0], rel=1e-10)
                returned += 1
            else:
                assert k2_value(n, alpha, plus) <= 0.0
                assert branches[0] < plus
        assert 0 < returned < 30

    def test_case_family_requires_matching_alpha(self):
        with pytest.raises(ValidationError):
            explicit_lambda_branches(SolutionCase.CASE1, 6, -3.0, 0.0)
        with pytest.raises(ValidationError):
            explicit_lambda_branches(SolutionCase.CASE2, 6, 0.0, 0.0)

    def test_negative_radicand_raises(self):
        with pytest.raises(DomainError):
            explicit_lambda_branches(SolutionCase.CASE1, 6, 0.0, -1e6)
