"""Weighted-integral identities, the Hardy inequality, and the suite runner."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from radial4 import (
    DomainError,
    IdentityId,
    QuadratureGrid,
    RadialTestFunction,
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

GRID = QuadratureGrid.build()
GAUSSIAN = TEST_FUNCTIONS["gaussian"]

EQUALITY_IDS = [i for i in IdentityId if i is not IdentityId.HARDY31]


def u_of(f):
    return lambda r: f(r)[0]


def du_of(f):
    return lambda r: f(r)[1]


class TestQuadratureGrid:
    def test_weight_sum(self):
        assert float(np.sum(GRID.weights)) == pytest.approx(80.0, rel=1e-13)

    def test_refinement_leaves_integrals_fixed(self):
        fine = QuadratureGrid.build(T=45.0, points_per_panel=32)
        a = weighted_integral(u_of(GAUSSIAN), 0.0, 6, GRID)
        b = weighted_integral(u_of(GAUSSIAN), 0.0, 6, fine)
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
        zero = lambda r: np.zeros_like(r)
        assert weighted_integral(zero, 0.0, 6, GRID) == 0.0


class TestTOperator:
    def test_top_index_reduces_to_derivative(self):
        r = np.linspace(0.2, 4.0, 9)
        assert np.allclose(t_operator(4.0, GAUSSIAN, r, 6), GAUSSIAN(r)[1])

    def test_annihilates_kernel_power(self):
        ker = RadialTestFunction(
            "kernel", lambda r: (r ** -2.0, -2.0 * r ** -3.0, 6.0 * r ** -4.0),
            (1e-8, 1e8), "smooth",
        )
        r = np.linspace(0.2, 4.0, 9)
        assert np.max(np.abs(t_operator(0.0, ker, r, 6))) < 1e-13

    def test_exponential_spot_value(self):
        expdec = RadialTestFunction(
            "expdec", lambda r: (np.exp(-r), -np.exp(-r), np.exp(-r)),
            (1e-8, 60.0), "smooth",
        )
        assert float(t_operator(2.0, expdec, np.array([1.0]), 6)[0]) == pytest.approx(0.0, abs=1e-15)

    def test_requires_positive_radius(self):
        with pytest.raises(DomainError):
            t_operator(0.0, GAUSSIAN, np.array([0.0]), 6)


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
        # integral evaluated its test function afresh
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "988d14cf4d5a8ab4271fbdfb23a026b7899c1749cc03959cca539e5000b1f0d6"

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
        # at most 4 functions x (2 grids + the stretched radii of the 11
        # admissible TauScaling (n, alpha) pairs on each grid) = 96; one
        # evaluation per integral made 1,104
        assert len(calls) <= 100
