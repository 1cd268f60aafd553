"""Periodic and decaying orbit solvers plus singularity classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial4 import (
    ConvergenceError,
    ProblemParams,
    ReducedProblem,
    RegimeError,
    ValidationError,
    Verdict,
    build_cosh_solution,
    classify_singularity,
    derive_coefficients,
    find_homoclinic,
    find_periodic,
    linearized_frequency,
    phi_closed_form,
    potential,
)
from radial4 import orbits
from radial4.dynamics import OdeState, integrate

B0 = ProblemParams(n=6, alpha=0.0, p=5.0)
SHIFTED = ProblemParams(n=6, alpha=0.0, p=5.0, lam=80.0 / 9.0)
EQUILIBRIUM = 3.0 ** 0.5
SMALL_ORBIT_PERIOD = 3.7480675995976296  # 2 pi / linearized frequency at B0


@pytest.fixture(scope="module")
def orbit_b0():
    return find_periodic(1.0, B0)


@pytest.fixture(scope="module")
def homoclinic_b0():
    return find_homoclinic(B0)


class TestPotentialAndFrequency:
    def test_potential_at_equilibrium(self):
        assert potential(EQUILIBRIUM, 9.0, 5.0) == pytest.approx(-9.0, rel=1e-14)

    def test_potential_zero_crossing(self):
        s_star = (0.5 * 6.0 * 9.0) ** 0.25
        assert potential(s_star, 9.0, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_frequency_value(self):
        om = linearized_frequency(10.0, 9.0, 5.0)
        assert om == pytest.approx(math.sqrt((math.sqrt(244.0) - 10.0) / 2.0), rel=1e-14)
        assert 2.0 * math.pi / om == pytest.approx(SMALL_ORBIT_PERIOD, rel=1e-13)


class TestFindPeriodic:
    def test_reference_orbit(self, orbit_b0):
        assert orbit_b0.a == 1.0
        assert orbit_b0.b == pytest.approx(0.7836654928917256, rel=1e-9)
        assert orbit_b0.period == pytest.approx(4.4371357547621058, rel=1e-9)
        assert orbit_b0.max_value == pytest.approx(2.1120094268555403, rel=1e-8)
        assert orbit_b0.residual_sup < 1e-8
        assert orbit_b0.energy_drift < 1e-8
        assert orbit_b0.in_proven_regime

    def test_trajectory_closes(self, orbit_b0):
        # the series is periodic by construction and starts at (a, 0, b, 0)
        y_start = orbit_b0.sample(0.0)
        assert np.max(np.abs(y_start - (orbit_b0.a, 0.0, orbit_b0.b, 0.0))) < 1e-12
        assert np.max(np.abs(orbit_b0.sample(orbit_b0.period) - y_start)) < 1e-12
        # a DP run from that anchor closes the loop as well; hyperbolicity
        # amplifies integration noise by ~1e7 over one loop, which caps how
        # tightly its endpoint can return to the start
        loop = integrate(OdeState(0.0, tuple(y_start)), orbit_b0.period, 1e-11, orbit_b0.problem)
        assert np.max(np.abs(loop.ys[-1] - y_start)) < 5e-5

    def test_orbit_symmetric_about_half_period(self, orbit_b0):
        tq = np.linspace(0.0, orbit_b0.period / 2.0, 40)
        fwd = orbit_b0.sample(tq)
        bwd = orbit_b0.sample(orbit_b0.period - tq)
        assert np.max(np.abs(fwd[:, 0] - bwd[:, 0])) < 1e-12
        # the odd derivatives change sign under the reflection
        assert np.max(np.abs(fwd * (1.0, -1.0, 1.0, -1.0) - bwd)) < 1e-11

    def test_rows_cover_one_period(self, orbit_b0):
        header, rows = orbit_b0.rows()
        assert header == ("t", "v", "dv", "d2v", "d3v", "E")
        assert len(rows) == 8 * orbit_b0.modes + 1
        assert rows[0][0] == 0.0 and rows[-1][0] == orbit_b0.period
        assert max(abs(row[-1] - orbit_b0.energy) for row in rows) == orbit_b0.energy_drift

    @pytest.mark.parametrize("a", [1.0, 1e-6 * EQUILIBRIUM])
    def test_rows_match_the_direct_sum(self, a):
        # the inverse FFT of each column against sum_k c_k (cos, sin)(k omega t)
        orbit = find_periodic(a, B0)
        rows = np.array(orbit.rows()[1])
        direct = orbit.sample(rows[:, 0])
        err = np.max(np.abs(rows[:, 1:5] - direct), axis=0) / np.max(np.abs(direct), axis=0)
        assert np.max(err) <= 2e-14

    @pytest.mark.parametrize("a", [1.0, 1e-3 * EQUILIBRIUM])
    def test_array_energy_matches_per_state_energy(self, a):
        # one (4, M) evaluation gives, bit for bit, what M state evaluations give
        orbit = find_periodic(a, B0)
        states = orbit.sample(np.linspace(0.0, orbit.period, 8 * orbit.modes + 1))
        energies = orbit.problem.energy(states.T)
        assert all(energies[i] == orbit.problem.energy(y) for i, y in enumerate(states))
        assert all(energies[i] == orbit.problem.energy(tuple(y.tolist()))
                   for i, y in enumerate(states))

    def test_small_amplitude_limit(self):
        orbit = find_periodic(EQUILIBRIUM - 1e-3, B0)
        assert orbit.period == pytest.approx(SMALL_ORBIT_PERIOD, abs=1e-2)

    @pytest.mark.parametrize("fraction", [1e-4, 1e-3, 1e-2, 0.05])
    def test_orbits_near_the_homoclinic_loop(self, fraction):
        # shooting on b failed for every a <= 0.05 l: its matching value
        # v'''(t*) amplifies round-off by about e^{3 t*}
        orbit = find_periodic(fraction * derive_coefficients(B0).l, B0)
        assert orbit.residual_sup < 1e-8
        assert orbit.energy_drift < 1e-8
        assert EQUILIBRIUM < orbit.max_value < (0.5 * 6.0 * 9.0) ** 0.25

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6])
    def test_orbits_as_alpha_approaches_n_minus_4(self, gap):
        # K0 -> 0, so l and omega -> 0 and the period grows without bound;
        # in tau = omega t the orbit stays smooth (l = 5e-24 at the last gap)
        params = ProblemParams(n=5, alpha=1.0 - gap, p=1.5)
        l = derive_coefficients(params).l
        orbit = find_periodic(0.5 * l, params)
        assert orbit.residual_sup < 1e-8
        assert l < orbit.max_value

    def test_max_value_between_equilibrium_and_barrier(self, orbit_b0):
        s_star = (0.5 * 6.0 * 9.0) ** 0.25
        assert EQUILIBRIUM < orbit_b0.max_value < s_star

    @pytest.mark.parametrize("a", [0.0, -0.5, 2.5])
    def test_minimum_outside_well_rejected(self, a):
        with pytest.raises(ValidationError):
            find_periodic(a, B0)

    def test_tol_validation(self):
        with pytest.raises(ValidationError):
            find_periodic(1.0, B0, tol=1e-3)

    def test_requires_positive_k0(self):
        with pytest.raises(RegimeError):
            find_periodic(0.1, ProblemParams(n=6, alpha=0.0, p=5.0, lam=11.0))

    def test_residual_tolerance_out_of_reach(self):
        # the collocation residual stops near 1e-16, so tol = 1e-20 fails
        with pytest.raises(ConvergenceError):
            find_periodic(1.0, B0, tol=1e-20)

    @pytest.mark.parametrize("fault", ["singular", "non-finite"])
    def test_newton_faults_are_convergence_errors(self, monkeypatch, fault):
        def solve(jac, rhs):
            if fault == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(rhs, np.nan)

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(ConvergenceError):
            find_periodic(1.0, B0)

    def test_to_dict_keys(self, orbit_b0):
        d = orbit_b0.to_dict()
        assert set(d) >= {
            "a", "b", "period", "max_value", "energy",
            "residual_sup", "in_proven_regime", "energy_drift",
        }


def _dp_half_period_error(orbit, segments=1):
    """Largest mismatch between DP runs over [0, period/2] and the series.

    The first run starts from the anchor (a, 0, b, 0); a run ends on the
    series state at the end of its segment, which at period/2 is
    (max_value, 0, v'', 0).  Each later run restarts from the series, so a
    segment amplifies round-off only by its own e^{lambda dt}.  Time is
    tau = omega t and v is scaled by omega^{-4/(p-1)}: the equation keeps
    its form with K2/omega^2 and K0/omega^4, and the DP tolerance means the
    same on every instance.  Mismatches are relative to each component's
    sup over the half period.
    """
    problem, omega = orbit.problem, orbit.omega
    scale = omega ** (-4.0 / (problem.p - 1.0)) * omega ** -np.arange(4.0)
    scaled = ReducedProblem(problem.K2 / omega ** 2, problem.K0 / omega ** 4, problem.p)
    taus = np.linspace(0.0, math.pi, segments + 1)
    ends = orbit.sample(taus / omega)
    ends[0] = (orbit.a, 0.0, orbit.b, 0.0)
    ends[-1] = (orbit.max_value, 0.0, ends[-1][2], 0.0)
    ends = ends * scale
    sup = np.max(np.abs(orbit.sample(np.linspace(0.0, orbit.period / 2.0, 257)) * scale), axis=0)
    worst = 0.0
    for j in range(segments):
        y = integrate(OdeState(taus[j], tuple(ends[j])), taus[j + 1], 1e-12, scaled).ys[-1]
        worst = max(worst, float(np.max(np.abs(y - ends[j + 1]) / sup)))
    return worst


K2_NEGATIVE = ProblemParams(n=6, alpha=0.0, p=5.0, lam=12.0, mu=5.0)  # K2 = -2, K0 = 2


class TestPeriodicOracles:
    """find_periodic against checks that share none of its code."""

    @pytest.mark.parametrize(
        "params, a",
        [pytest.param(B0, f * EQUILIBRIUM, id=f"b0-{f}") for f in (0.3, 0.5, 0.58, 0.8)]
        + [
            pytest.param(B0, EQUILIBRIUM - 1e-3, id="b0-near-l"),
            pytest.param(SHIFTED, 0.4, id="shifted"),
            pytest.param(K2_NEGATIVE, 0.8 * 2.0 ** 0.25, id="k2-negative"),
        ],
    )
    def test_dp_half_period(self, params, a):
        # one DP run from the anchor: v' and v''' vanish at period/2, where
        # v meets max_value
        assert _dp_half_period_error(find_periodic(a, params)) <= 1e-8

    @pytest.mark.parametrize("params", [B0, SHIFTED], ids=["b0", "shifted"])
    def test_homoclinic_limit(self, params):
        # the orbits approach the homoclinic loop as a -> 0, with
        # max_value - peak ~ c a^2 (-2.497e-7 and -2.497e-9 on B0)
        l = derive_coefficients(params).l
        peak = find_homoclinic(params).peak
        gaps = [find_periodic(f * l, params).max_value - peak for f in (1e-3, 1e-4)]
        assert gaps[0] < 0.0 and gaps[1] < 0.0
        assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=1e-2)

    def test_small_amplitude_period_coefficient(self):
        # T/T0 - 1 = c(eps) eps^2 with eps = 1 - a/l and c(eps) = c0 - 2.9 eps
        # + ...; each pair of eps removes the linear term
        l = derive_coefficients(B0).l
        t0 = 2.0 * math.pi / linearized_frequency(10.0, 9.0, 5.0)

        def c(eps):
            return (find_periodic((1.0 - eps) * l, B0).period / t0 - 1.0) / eps ** 2

        c3, c4, c5 = c(1e-3), c(1e-4), c(1e-5)
        limit_34 = (1e-3 * c4 - 1e-4 * c3) / (1e-3 - 1e-4)
        limit_45 = (1e-4 * c5 - 1e-5 * c4) / (1e-4 - 1e-5)
        assert abs(limit_34 - limit_45) <= 1e-3


@st.composite
def periodicity_instances(draw):
    """lambda = mu = 0 and alpha in (-2, n-4): the paper's periodicity regime."""
    n = draw(st.integers(5, 8))
    alpha = draw(st.floats(-2.0, n - 4.0, exclude_min=True, exclude_max=True))
    p = draw(st.floats(1.5, 6.0, exclude_min=True, exclude_max=True))
    fraction = draw(st.floats(0.01, 0.95, exclude_min=True, exclude_max=True))
    return ProblemParams(n=n, alpha=alpha, p=p), fraction


def _dp_segments(orbit):
    """DP runs over the half period that keep each e^{lambda dt} below e^4.

    A single run from the anchor amplifies round-off by e^{lambda period/2},
    past 1e8 on many instances; lambda bounds the growth rates along the
    orbit.
    """
    K2, K0, p = orbit.problem.K2, orbit.problem.K0, orbit.problem.p
    lam = math.sqrt(abs(K2) + math.sqrt(K0 + p * orbit.max_value ** (p - 1.0)))
    return math.ceil(lam * orbit.period / 8.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(periodicity_instances())
def test_periodic_orbits_across_the_regime(instance):
    params, fraction = instance
    orbit = find_periodic(fraction * derive_coefficients(params).l, params)
    assert orbit.residual_sup <= 1e-8
    # the DP work grows like lambda * period, which has no bound as
    # alpha -> n-4; none of the examples reaches the cap
    segments = _dp_segments(orbit)
    if segments <= 64:
        assert _dp_half_period_error(orbit, segments) <= 1e-8


@pytest.mark.parametrize(
    "params, fraction",
    [
        (ProblemParams(n=10, alpha=5.631633655833825, p=9.264386279047944), 0.006987657359575838),
        (ProblemParams(n=5, alpha=0.23909451337102539, p=11.386618985728816), 0.0008355571996189617),
    ],
    ids=["n10-p9.3", "n5-p11.4"],
)
def test_failed_continuation_steps_are_halved(params, fraction):
    # the jump from 1 - v(0)/l = 0.512 to the target fails at N = 64 or 128
    # and succeeds once halved
    orbit = find_periodic(fraction * derive_coefficients(params).l, params)
    assert orbit.continuation_steps == 12
    assert _dp_half_period_error(orbit, _dp_segments(orbit)) <= 1e-8


CONJUGATE = ProblemParams(n=6, alpha=-4.0, p=5.0)
N7_P2 = ProblemParams(n=7, alpha=1.0, p=2.0, lam=2.0, mu=1.0)  # no closed form
N8_P4 = ProblemParams(n=8, alpha=-1.0, p=4.0, mu=2.0)  # no closed form


class TestHomoclinicOracles:
    """find_homoclinic against checks that share none of its code."""

    @pytest.mark.parametrize("params", [B0, SHIFTED, N7_P2], ids=["b0", "shifted", "n7-p2"])
    def test_samples_follow_the_flow(self, params):
        # 16 spread rows, each carried into the next by a 1e-12 DP run
        prof = find_homoclinic(params)
        ts, ys = prof.samples.ts, prof.samples.ys
        worst = 0.0
        for i in np.unique(np.linspace(0, len(ts) - 2, 16).astype(int)):
            run = integrate(OdeState(ts[i], ys[i]), ts[i + 1], 1e-12, prof.samples.problem)
            worst = max(worst, float(np.max(np.abs(run.ys[-1] - ys[i + 1]))))
        assert worst <= 1e-10 * prof.peak

    @pytest.mark.parametrize("params", [N7_P2, N8_P4], ids=["n7-p2", "n8-p4"])
    def test_decay_rate_meets_lambda2(self, params):
        # the two rates e^{-lambda1 t} and e^{-lambda2 t} are both alive in
        # the fit window; a one-rate log-slope missed lambda2 by 2.5e-2 and
        # 1.2e-2 here
        prof = find_homoclinic(params)
        assert abs(prof.decay_rate - derive_coefficients(params).lam2) <= 1e-3

    @pytest.mark.parametrize("params", [B0, SHIFTED, CONJUGATE], ids=["b0", "shifted", "conjugate"])
    def test_peak_meets_closed_form(self, params):
        assert abs(find_homoclinic(params).peak - build_cosh_solution(params).C) <= 1e-10

    @pytest.mark.parametrize("params", [B0, SHIFTED, CONJUGATE], ids=["b0", "shifted", "conjugate"])
    def test_nehari_value_meets_closed_form_constant(self, params):
        # v'''' - K2 v'' + K0 v = v^p times v, integrated over the line:
        # int (v''^2 + K2 v'^2 + K0 v^2) = int v^{p+1}, so the quotient at
        # the profile is (int v^{p+1})^{(p-1)/(p+1)}; the trapezoid rule over
        # one period of the orbit that find_homoclinic reads
        p = params.p
        orbit = find_periodic(orbits._HOMOCLINIC_MIN * derive_coefficients(params).l, params)
        v = np.array(orbit.rows()[1])[:-1, 1]
        nehari = (orbit.period / len(v) * np.sum(v ** (p + 1.0))) ** ((p - 1.0) / (p + 1.0))
        assert nehari == pytest.approx(phi_closed_form(params).phi, rel=1e-10)


class TestFindHomoclinic:
    def test_base_profile(self, homoclinic_b0):
        assert homoclinic_b0.peak == pytest.approx(24.0 ** 0.25, abs=1e-6)
        assert homoclinic_b0.decay_rate == pytest.approx(1.0, abs=1e-3)

    def test_base_profile_samples(self, homoclinic_b0):
        vs = homoclinic_b0.samples.ys[:, 0]
        assert np.all(np.diff(vs) < 0.0)
        assert np.max(np.abs(homoclinic_b0.samples.energies)) < 1e-8
        assert homoclinic_b0.samples.stop_reason == "truncated"

    def test_shifted_profile(self):
        prof = find_homoclinic(SHIFTED)
        assert prof.peak == pytest.approx((24.0 / 81.0) ** 0.25, abs=1e-6)
        assert prof.decay_rate == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_requires_positive_coefficients(self):
        with pytest.raises(RegimeError):
            find_homoclinic(ProblemParams(n=6, alpha=0.0, p=5.0, lam=11.0))

    def test_requires_real_saddle_rates(self):
        # K2 = 2, K0 = 2 has negative discriminant
        with pytest.raises(RegimeError):
            find_homoclinic(ProblemParams(n=6, alpha=0.0, p=5.0, lam=8.0, mu=1.0))

    def test_to_dict_keys(self, homoclinic_b0):
        assert set(homoclinic_b0.to_dict()) == {"peak", "decay_rate"}


class TestClassifySingularity:
    def test_nonremovable(self):
        verdict = classify_singularity(ProblemParams(n=6, alpha=-4.0, p=5.0))
        assert verdict.verdict is Verdict.NON_REMOVABLE
        assert verdict.rate_gap == pytest.approx(2.0, abs=1e-12)

    def test_boundary(self):
        verdict = classify_singularity(B0)
        assert verdict.verdict is Verdict.BOUNDARY
        assert abs(verdict.rate_gap) <= 1e-12

    def test_removable(self):
        verdict = classify_singularity(ProblemParams(n=6, alpha=0.0, p=5.0, mu=5.0))
        assert verdict.verdict is Verdict.REMOVABLE
        assert verdict.rate_gap < 0.0

    def test_zero_mu_is_always_boundary(self):
        # mu = 0 makes e^{-(n-4-alpha)t/2} an exact mode of the linearization
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(5, 10))
            alpha = float(rng.uniform(-n + 0.3, n - 4.3))
            ab = (n - 2.0) * (alpha + 2.0)
            lam = ab - float(rng.uniform(0.1, 4.0))
            v = classify_singularity(ProblemParams(n=n, alpha=alpha, p=3.0, lam=lam, mu=0.0))
            assert v.verdict is Verdict.BOUNDARY

    def test_complex_rates_rejected(self):
        with pytest.raises(RegimeError):
            classify_singularity(ProblemParams(n=6, alpha=0.0, p=5.0, lam=8.0, mu=1.0))

    def test_to_dict(self):
        d = classify_singularity(B0).to_dict()
        assert d["verdict"] == "Boundary"
        assert "rate_gap" in d
