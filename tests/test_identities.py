"""Weighted-integral identities, the Hardy inequality, and the suite runner."""

import dataclasses
import functools
import hashlib
import json
import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from radial4 import (
    DomainError,
    IdentityId,
    QuadratureGrid,
    Radial4Error,
    TEST_FUNCTIONS,
    TailError,
    record_deviation,
    run_identity_suite,
    t_operator,
    verify_identity,
    weighted_integral,
    weighted_power_integral,
)
from radial4 import identities

GRID = QuadratureGrid.build()
GAUSSIAN = TEST_FUNCTIONS["gaussian"]

EQUALITY_IDS = [i for i in IdentityId if i is not IdentityId.HARDY31]


def u_of(f, grid=GRID):
    """u at the radii of grid."""
    return f(grid.radii)[0]


def du_of(f):
    """u' at the radii of GRID."""
    return f(GRID.radii)[1]


class TestQuadratureGrid:
    def test_weight_sum(self):
        assert float(np.sum(GRID.weights)) == pytest.approx(80.0, rel=1e-13)

    def test_refinement_leaves_integrals_fixed(self, monkeypatch):
        monkeypatch.setattr(identities, "_POINTS_PER_PANEL", 32)
        fine = QuadratureGrid.build(T=45.0)
        a = weighted_integral(u_of(GAUSSIAN), 0.0, 6, GRID)
        b = weighted_integral(u_of(GAUSSIAN, fine), 0.0, 6, fine)
        assert abs(a - b) / abs(a) < 1e-10

    def test_radii_are_descending_in_t(self):
        r = GRID.radii
        assert np.all(r > 0.0)
        assert np.all(np.diff(GRID.nodes) > 0.0)
        assert np.all(np.diff(r) < 0.0)


class TestWeightedIntegral:
    def test_gaussian_volume(self):
        assert weighted_integral(u_of(GAUSSIAN), 0.0, 6, GRID) == pytest.approx(
            math.pi ** 3 / 8.0, rel=1e-12
        )

    def test_gaussian_gradient_norm(self):
        assert weighted_integral(du_of(GAUSSIAN), 2.0, 6, GRID) == pytest.approx(
            math.pi ** 3 / 2.0, rel=1e-12
        )

    def test_gaussian_inverse_fourth_weight(self):
        assert weighted_integral(u_of(GAUSSIAN), 4.0, 6, GRID) == pytest.approx(
            math.pi ** 3 / 4.0, rel=1e-12
        )

    def test_power_variant_matches_square(self):
        a = weighted_power_integral(u_of(GAUSSIAN), 2.0, 1.0, 6, GRID)
        b = weighted_integral(u_of(GAUSSIAN), 1.0, 6, GRID)
        assert a == b

    def test_origin_divergence_raises(self):
        with pytest.raises(TailError) as info:
            weighted_integral(u_of(GAUSSIAN), 6.5, 6, GRID)
        assert info.value.end == "r_zero"

    def test_infinity_divergence_raises(self):
        slow = TEST_FUNCTIONS["sech_log"]
        with pytest.raises(TailError) as info:
            weighted_integral(u_of(slow), 2.0, 6, GRID)
        assert info.value.end == "r_inf"

    def test_zero_field(self):
        assert weighted_integral(np.zeros_like(GRID.radii), 0.0, 6, GRID) == 0.0


# The test functions' profiles, written apart from the code; sympy takes
# their derivatives, so no hand-written derivative enters the reference.
_R = sp.Symbol("r", positive=True)
PROFILES = {
    "gaussian": sp.exp(-_R ** 2),
    "gaussian_r2": _R ** 2 * sp.exp(-_R ** 2),
    "log_gaussian": sp.exp(-sp.log(_R) ** 2),
    "sech_log": sp.sech(sp.log(_R)),
}


def suite_integrals():
    """(n, field, power, weight) of each weighted_power_integral that the
    identity suite takes of u, u' or the Laplacian of u itself."""
    cases = set()
    for n in identities._N_VALUES:
        for alpha in identities._ALPHAS:
            if -n < alpha < n - 4:
                crit = 2.0 * n / (n - 4.0)
                cases |= {(n, "u", 2.0, alpha + 2.0), (n, "u", 2.0, alpha + 4.0),
                          (n, "u", crit, n * alpha / (n - 4.0)), (n, "du", 2.0, alpha),
                          (n, "du", 2.0, alpha + 2.0), (n, "lap", 2.0, alpha)}
    return sorted(cases)


@functools.lru_cache(maxsize=None)
def log_abs_field(fname, field, n):
    """t -> log |f(e^-t)| in mpmath, memoized: mpmath.quad samples the same
    nodes for every weight."""
    u = PROFILES[fname]
    du = sp.diff(u, _R)
    expr = {"u": u, "du": du, "lap": sp.diff(u, _R, 2) + (n - 1) / _R * du}[field]
    f = sp.lambdify(_R, expr, modules="mpmath")
    return functools.lru_cache(maxsize=None)(lambda t: mpmath.log(abs(f(mpmath.exp(-t)))))


@functools.lru_cache(maxsize=None)
def t_integral(fname, field, lap_n, power, shift):
    """integral over t of |f(e^-t)|^power e^(shift t), by mpmath's tanh-sinh
    rule at 30 digits.  Every integrand that passes the code's tail test
    decays at least like e^-|t|, so the truncation at |t| = 60 is below
    1e-26 of the peak."""
    log_f = log_abs_field(fname, field, lap_n)
    power, shift = mpmath.mpf(power), mpmath.mpf(shift)
    return mpmath.quad(lambda t: mpmath.exp(power * log_f(t) + shift * t), [-60, 0, 60])


def mpmath_power_integral(fname, field, n, power, weight):
    """omega_n * integral over r > 0 of |f|^power r^(n-1-weight) dr."""
    with mpmath.workdps(30):
        integral = t_integral(fname, field, n if field == "lap" else 0, power, weight - n)
        omega = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        return float(omega * integral)


# integrals the suite takes on the T = 40 grid, per function; the rest fail
# its tail test, and the suite records them as skipped
ORACLE_CHECKED = {"gaussian": 56, "gaussian_r2": 56, "log_gaussian": 56, "sech_log": 8}


@pytest.mark.parametrize("fname", sorted(PROFILES))
def test_weighted_power_integral_matches_mpmath(fname):
    # the suite's worst identity deviation compares the code with itself;
    # here each integral it takes of u, u' and the Laplacian meets an
    # independent quadrature of the sympy profile
    u, du, d2u = TEST_FUNCTIONS[fname](GRID.radii)
    checked = 0
    for n, field, power, weight in suite_integrals():
        values = {"u": u, "du": du, "lap": identities._laplacian(GRID.radii, du, d2u, n)}[field]
        try:
            got = weighted_power_integral(values, power, weight, n, GRID)
        except TailError:
            continue
        want = mpmath_power_integral(fname, field, n, power, weight)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (n, field, power, weight)
        checked += 1
    assert checked == ORACLE_CHECKED[fname]


class TestTOperator:
    def test_top_index_reduces_to_derivative(self):
        r = np.linspace(0.2, 4.0, 9)
        u, du, _ = GAUSSIAN(r)
        assert np.allclose(t_operator(4.0, u, du, r, 6), du)

    def test_annihilates_kernel_power(self):
        r = np.linspace(0.2, 4.0, 9)
        assert np.max(np.abs(t_operator(0.0, r ** -2.0, -2.0 * r ** -3.0, r, 6))) < 1e-13

    def test_exponential_spot_value(self):
        r = np.array([1.0])
        assert float(t_operator(2.0, np.exp(-r), -np.exp(-r), r, 6)[0]) == pytest.approx(0.0, abs=1e-15)

    def test_requires_positive_radius(self):
        with pytest.raises(DomainError):
            t_operator(0.0, np.ones(1), np.zeros(1), np.array([0.0]), 6)


class TestVerifyIdentity:
    @pytest.mark.parametrize("identity", EQUALITY_IDS, ids=lambda i: i.value)
    @pytest.mark.parametrize("fname", ["gaussian", "gaussian_r2", "log_gaussian"])
    def test_equalities_hold_at_base_point(self, identity, fname):
        rep = verify_identity(identity, TEST_FUNCTIONS[fname], 6, 0.0, 0.0, 0.0, GRID)
        assert rep.rel_err < 1e-10

    @pytest.mark.parametrize("identity", EQUALITY_IDS, ids=lambda i: i.value)
    def test_equalities_hold_off_center(self, identity):
        rep = verify_identity(identity, TEST_FUNCTIONS["gaussian_r2"], 8, 1.0, 0.0, 0.0, GRID)
        assert rep.rel_err < 1e-10

    def test_hardy_spot_ratio(self):
        rep = verify_identity(IdentityId.HARDY31, GAUSSIAN, 6, 0.0, 0.0, 0.0, GRID)
        assert rep.ratio == pytest.approx(2.0, abs=1e-8)
        assert rep.constant == pytest.approx(1.0, abs=1e-14)
        assert rep.lhs >= rep.rhs

    def test_hardy_reports_carry_ratio_fields(self):
        rep = verify_identity(IdentityId.HARDY31, TEST_FUNCTIONS["log_gaussian"], 8, -1.0, 0.0, 0.0, GRID)
        d = rep.to_dict()
        assert {"ratio", "constant"} <= set(d)
        assert d["ratio"] >= d["constant"] - 1e-9

    def test_equality_reports_omit_ratio_fields(self):
        rep = verify_identity(IdentityId.RELLICH22, GAUSSIAN, 6, 0.0, 0.0, 0.0, GRID)
        d = rep.to_dict()
        assert "ratio" not in d and "constant" not in d

    def test_scaling_substitution_across_stretches(self):
        # tau = 1 - alpha/(n-4) covers a 2x stretch and strong compressions;
        # all stay verified on the default grid
        for n, alpha in ((5, -3.0), (6, 1.0), (8, -7.5)):
            rep = verify_identity(IdentityId.TAU_SCALING, GAUSSIAN, n, alpha, 0.0, 0.0, GRID)
            assert rep.rel_err < 1e-6


class TestRecordDeviation:
    def test_equality_record_passthrough(self):
        rec = {"identity": "Rellich22", "rel_err": 3e-9}
        assert record_deviation(rec) == 3e-9

    def test_hardy_slack_counts_as_zero(self):
        rec = {"identity": "Hardy31", "lhs": 2.0, "rhs": 1.0, "rel_err": 0.5}
        assert record_deviation(rec) == 0.0

    def test_hardy_violation_is_positive(self):
        rec = {"identity": "Hardy31", "lhs": 1.0, "rhs": 2.0, "rel_err": 0.5}
        assert record_deviation(rec) == pytest.approx(0.5)


@pytest.fixture(scope="module")
def records():
    return run_identity_suite()


class TestSuiteRunner:

    def test_grid_size(self, records):
        # 7 identities x 4 functions x 3 dimensions x 4 alphas
        assert len(records) == 336

    def test_every_ok_record_within_tolerance(self, records):
        for rec in records:
            if rec["status"] == "ok":
                assert record_deviation(rec) <= 1e-6, rec

    def test_fast_decay_functions_fully_verified(self, records):
        # every combination that is in the admissible alpha range converges
        # for the three rapidly decaying test functions
        for rec in records:
            if rec["function"] == "sech_log":
                continue
            if rec["n"] == 5 and rec["alpha"] == 1.0:
                assert rec["status"] == "skipped"
                assert "outside" in rec["reason"]
            else:
                assert rec["status"] == "ok", rec

    def test_slow_decay_skips_name_a_reason(self, records):
        skipped = [r for r in records if r["status"] == "skipped"]
        assert skipped, "expected divergent combinations to be skipped"
        for rec in skipped:
            assert rec["reason"]

    def test_hardy_ratio_bound_across_suite(self, records):
        hardy = [r for r in records if r["identity"] == "Hardy31" and r["status"] == "ok"]
        assert hardy
        for rec in hardy:
            assert rec["ratio"] >= rec["constant"] - 1e-9

    def test_records_pinned(self, records):
        # every record, bit for bit, as the suite produced it when each
        # integral evaluated its test function afresh; a skipped record
        # names the tail of the T = 40 grid
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "c7eaf828882ffaa6e13b3633247e0994b984156a5ae3ae7e33e99b261d8204f2"

    def test_each_function_evaluated_once_per_grid(self, monkeypatch):
        calls = []

        def counted(f):
            def evaluator(r):
                calls.append(f.name)
                return f.evaluator(r)
            return dataclasses.replace(f, evaluator=evaluator)

        for name, f in list(TEST_FUNCTIONS.items()):
            monkeypatch.setitem(TEST_FUNCTIONS, name, counted(f))
        run_identity_suite()
        # 4 functions x (the grid + the stretched radii of the 11 admissible
        # TauScaling (n, alpha) pairs) = 48; one evaluation per integral
        # made 1,104
        assert len(calls) <= 48
