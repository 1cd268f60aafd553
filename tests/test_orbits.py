"""Periodic and decaying orbit solvers plus singularity classification."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial4 import (
    ConvergenceError,
    DomainError,
    ProblemParams,
    ReducedProblem,
    RegimeError,
    ValidationError,
    Verdict,
    build_cosh_solution,
    classify_singularity,
    derive_coefficients,
    energy,
    find_homoclinic,
    find_periodic,
    linearized_frequency,
    phi_closed_form,
)
from radial4 import orbits
from radial4.dynamics import OdeState, integrate
from radial4.params import k0_value, k2_value

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


def potential(s, K0, p, K2=10.0):
    """G(s) = s^{p+1}/(p+1) - (K0/2) s^2: the energy of the rest state at s,
    which find_homoclinic reads at the peak."""
    return energy((s, 0.0, 0.0, 0.0), K2, K0, p)


class TestPotentialAndFrequency:
    def test_potential_at_equilibrium(self):
        # a rest state has no K2 term
        for K2 in (10.0, -3.0):
            assert potential(EQUILIBRIUM, 9.0, 5.0, K2) == pytest.approx(-9.0, rel=1e-14)

    def test_potential_zero_crossing(self):
        s_star = (0.5 * 6.0 * 9.0) ** 0.25
        assert potential(s_star, 9.0, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_potential_rejects_negative_s(self):
        with pytest.raises(DomainError, match="energy evaluated at v=-1e-300 < 0"):
            potential(-1e-300, 9.0, 5.0)

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

    @pytest.mark.parametrize("a", [1.0, 0.3 * EQUILIBRIUM, 1e-6 * EQUILIBRIUM],
                             ids=["1.0", "0.3l", "1e-6l"])
    def test_work_does_not_depend_on_tol(self, a):
        # tol accepts or rejects a solve once it has stopped; it must not
        # stop one sooner or later, from 1e-4 down to 1e-14, near the
        # rounding floor of the collocation residual
        work = {(orbit.newton_iterations, orbit.continuation_steps, orbit.modes)
                for orbit in (find_periodic(a, B0, tol=tol) for tol in (1e-4, 1e-8, 1e-12, 1e-14))}
        assert len(work) == 1

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

    @pytest.mark.parametrize("params", [B0, SHIFTED], ids=["b0", "shifted"])
    def test_near_homoclinic_period_law(self, params):
        # near the loop T(a) = (2/lambda2) ln(1/a) + const + O(a^2), as
        # lambda1 = 3 lambda2 here, and v''(0) = b -> lambda2^2 a.  Met to
        # 3.1e-8 and 7.0e-8 in T, 1.9e-8 in b; N = 128 and 256 modes
        coeff = derive_coefficients(params)
        near, nearer = (find_periodic(f * coeff.l, params) for f in (1e-6, 1e-8))
        assert nearer.modes == 256
        law = 2.0 / coeff.lam2 * math.log(100.0)
        assert abs(nearer.period - near.period - law) <= 1e-6
        for orbit in (near, nearer):
            assert abs(orbit.b / (coeff.lam2 ** 2 * orbit.a) - 1.0) <= 1e-6


@pytest.mark.parametrize("params", [B0, SHIFTED], ids=["b0", "shifted"])
@pytest.mark.parametrize("fraction", [1e-8, 1e-10])
def test_newton_stops_at_the_rounding_floor(monkeypatch, params, fraction):
    # below about 1e-8 l the correction of the final solve stalls at
    # rounding above _STEP_TOL once the residual is near 1e-15; such solves
    # once ran all _MAX_NEWTON iterations (two at 1e-8 l on B0, three at
    # 1e-10 l) before Newton stopped on a correction that no longer shrinks.
    # The stop is a convergence, and no solve on the way fails: each one
    # before the final solve is an intermediate continuation point or a
    # move to 2 N, and ends at a relative residual of at most 1e-2
    collocate, solves = orbits._collocate, []

    def recording(*args):
        out = collocate(*args)
        solves.append(out[2:])
        return out

    monkeypatch.setattr(orbits, "_collocate", recording)
    orbit = find_periodic(fraction * derive_coefficients(params).l, params)
    *before, (its, residual) = solves
    assert its < orbits._MAX_NEWTON and residual == orbit.residual_sup <= 1e-8
    assert all(its < orbits._MAX_NEWTON and residual <= orbits._COARSE_TOL
               for its, residual in before)
    assert orbit.modes == 256


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


N10_P9 = ProblemParams(n=10, alpha=5.631633655833825, p=9.264386279047944)
N5_P11 = ProblemParams(n=5, alpha=0.23909451337102539, p=11.386618985728816)
N8_P4 = ProblemParams(n=8, alpha=-1.0, p=4.0, mu=2.0)  # no closed form
N5_P18 = ProblemParams(n=5, alpha=-1.222606835532197, p=18.129027101951845,
                       lam=1.0403842713102769)  # seed 21 #149 of _random_draws
N10_P23 = ProblemParams(n=10, alpha=-1.7772115266912536,
                        p=23.05904389601033)  # seed 28 #247 of _random_draws


# seed 21 #202, seed 25 #95 and seed 28 #40 of _random_draws below; all
# have complex rates, so no Lin seed
N6_P49 = ProblemParams(n=6, alpha=-1.4044341184486604, p=48.90248196605966,
                       lam=0.0, mu=2.527459839525436)
N6_P10 = ProblemParams(n=6, alpha=-1.8736781456150626, p=10.018392369937835,
                       lam=1.221147863372864, mu=0.4829161058849918)
N10_P4 = ProblemParams(n=10, alpha=-1.6987412646829343, p=4.48004342983336,
                       lam=0.8719229905971526, mu=2.3503539007998477)


@pytest.mark.parametrize(
    "params, fraction, steps",
    [(N6_P49, 4.3807119715585434e-06, 4), (N6_P10, 1.020406677319262e-05, 3),
     (N10_P4, 1.1284289327162462e-06, 4)],
    ids=["n6-p48.9", "n6-p10.0", "n10-p4.5"],
)
def test_failed_continuation_steps_are_halved(monkeypatch, params, fraction, steps):
    # the jump from 1 - v(0)/l = 1/2 to the target misses tol from the last
    # orbit, on a correction that grows twice; it succeeds once halved in
    # log a, a step that moves a as far as the failed one would have.
    # n6-p48.9 also halves its first step twice, to 1/4 and 1/8, and climbs
    # back to 1/2.  With no halving allowed, the first miss ends the solve.
    # Halved in 1 - a/l instead, n10-p4.5 ended at a = 6.3e-4 l, 560 times
    # its target, after six halvings
    a = fraction * derive_coefficients(params).l
    orbit = find_periodic(a, params)
    assert orbit.continuation_steps == steps
    assert _dp_half_period_error(orbit, _dp_segments(orbit)) <= 1e-8
    monkeypatch.setattr(orbits, "_MAX_RETRIES", 0)
    with pytest.raises(ConvergenceError, match="did not reach tol"):
        find_periodic(a, params)


ALIAS = ProblemParams(n=7, alpha=2.070850096417338, p=9.968139854866239,
                      lam=1.9317413557530543, mu=2.4712632989035095)
TRIPLED = ProblemParams(n=7, alpha=1.4972, p=9.3859, lam=2.4441)


def _inject_alias(monkeypatch, target, fold, times):
    """Make the first `times` Newton solves aimed at sum d_k = w0 = target
    that end at their own N (not on a move to 2 N) return the fold-fold
    alias of the orbit they reached, d_{fold k} = d_k at omega / fold, with
    the same residual.  One call covers a step from the Lindstedt-Poincare
    orbit or the last orbit, two cover Lin's seed and its fallback to the
    last orbit, so the step must be halved.  Returns the list of aliases
    returned and the list of (w0, N) of every call."""
    collocate, aliases, calls = orbits._collocate, [], []

    def aliasing(d, omega, w0, l, *args):
        trial, trial_omega, its, residual = collocate(d, omega, w0, l, *args)
        calls.append((w0, len(d)))
        if w0 != target or len(trial) > len(d) or len(aliases) == times:
            return trial, trial_omega, its, residual
        alias = np.zeros_like(trial)
        alias[::fold] = trial[:len(alias[::fold])]
        aliases.append((alias, trial_omega / fold))
        return alias, trial_omega / fold, its, residual

    monkeypatch.setattr(orbits, "_collocate", aliasing)
    return aliases, calls


def test_half_period_alias_is_rejected(monkeypatch):
    # the orbit of twice the period meets tol with v(period/2) = v(0) < l.
    # From the linearized and last-orbit starts alone, Newton once reached it
    # on a continuation step to 0.96 and, followed to the target, it gave
    # period 74.6468.  Injected on the first step, to 1 - v(0)/l = 1/2, which
    # the solve otherwise takes without a halving, it is rejected: the step
    # is halved to 1/4, the solve climbs back to 1/2 from there and then
    # jumps to the target; with no halving allowed the solve ends at 1/2
    l = derive_coefficients(ALIAS).l
    a = 4.8606241398472726e-05 * l
    aliases, calls = _inject_alias(monkeypatch, -orbits._NEAR_LOOP * l, 2, times=1)
    orbit = find_periodic(a, ALIAS)
    (alias, _), = aliases
    assert alias[::2].sum() - alias[1::2].sum() < 0.0
    assert [w0 for w0, _ in calls[:3]] == [-0.5 * l, -0.25 * l, -0.5 * l]
    assert orbit.continuation_steps == 3
    assert orbit.period == pytest.approx(37.3234077252, rel=1e-9)
    assert orbit.max_value > l
    aliases.clear()
    monkeypatch.setattr(orbits, "_MAX_RETRIES", 0)
    with pytest.raises(ConvergenceError, match="half-period alias"):
        find_periodic(a, ALIAS)


def test_period_tripled_alias_is_rejected(monkeypatch):
    # the orbit of three times the period (58.06 against 19.35 here) peaks
    # above l at its half period, as the orbit does, so only its vanishing
    # fundamental mode d_1 tells it apart.  Injected on the jump from
    # 1 - v(0)/l = 1/2 to the target, which starts from Lin's seed at N = 32
    # and goes on at N = 64 once truncation dominates, it is rejected there;
    # the fallback to the last orbit fails, and the jump is halved in log a.
    # Injected on the first step, where nothing falls back, it ends the
    # solve when no halving is allowed
    coeff = derive_coefficients(TRIPLED)
    l = coeff.l
    a = 0.0023 * l
    assert coeff.K2 > 0.0 and coeff.discriminant >= 0.0  # so the jump starts from Lin's seed
    plain = find_periodic(a, TRIPLED)
    assert plain.period == pytest.approx(19.3534799, rel=1e-7)
    assert plain.continuation_steps == 2
    aliases, calls = _inject_alias(monkeypatch, a - l, 3, times=1)
    orbit = find_periodic(a, TRIPLED)
    (first, omega), = aliases
    assert first[::2].sum() - first[1::2].sum() > 0.0 and first[1] == 0.0
    assert 2.0 * math.pi / omega == pytest.approx(58.06, rel=1e-3)
    assert calls[1:4] == [(a - l, orbits._MODES)] + [(a - l, 2 * orbits._MODES)] * 2
    assert orbit.continuation_steps == 3
    # the halved jump ends at the geometric mean of a and l / 2
    halved = 1.0 - math.sqrt((1.0 - orbits._NEAR_LOOP) * (1.0 - (1.0 - a / l)))
    assert {w0 for w0, _ in calls if a - l < w0 < -orbits._NEAR_LOOP * l} == {-halved * l}
    for name in ("period", "b", "max_value"):
        assert getattr(orbit, name) == pytest.approx(getattr(plain, name), rel=1e-9)
    assert orbit.coefficients[1] < 0.0
    monkeypatch.undo()
    monkeypatch.setattr(orbits, "_MAX_RETRIES", 0)
    _inject_alias(monkeypatch, -orbits._NEAR_LOOP * l, 3, times=1)
    with pytest.raises(ConvergenceError, match="k-fold alias"):
        find_periodic(a, TRIPLED)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.integers(5, 10).flatmap(lambda n: st.tuples(
        st.just(n),
        st.floats(-2.0, n - 4.0, exclude_min=True, exclude_max=True),
        st.floats(1.2, 20.0, exclude_min=True, exclude_max=True),
        st.floats(-4.0, math.log10(0.99), exclude_min=True, exclude_max=True),
    ))
)
def test_every_orbit_peaks_above_the_equilibrium(instance):
    # int v (K0 - v^{p-1}) = 0 over a period, so an orbit with minimum
    # a < l has its maximum above l
    n, alpha, p, log_fraction = instance
    params = ProblemParams(n=n, alpha=alpha, p=p)
    l = derive_coefficients(params).l
    assert find_periodic(10.0 ** log_fraction * l, params).max_value > l


def _random_draws(seed, count=250):
    """Instances over the whole admissible region: n in 5..10, alpha in
    (-2, n-4), p log-uniform in (1.2, 60), a/l log-uniform in (1e-6, 0.99),
    lambda and mu each 0 or U(0, 3) with even odds."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 10)
        alpha = rng.uniform(-2.0, n - 4.0)
        p = math.exp(rng.uniform(math.log(1.2), math.log(60.0)))
        fraction = math.exp(rng.uniform(math.log(1e-6), math.log(0.99)))
        lam = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 3.0)
        mu = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 3.0)
        yield ProblemParams(n=n, alpha=alpha, p=p, lam=lam, mu=mu), fraction


@pytest.fixture(scope="module")
def random_draw_solves():
    """find_periodic on the 2,000 draws of seeds 21 to 28: per draw, the
    orbit, the ConvergenceError or None (K0 <= 0), and the (N, iterations,
    residual) of each of its Newton solves."""
    collocate, results = orbits._collocate, []

    def recording(d, *args):
        out = collocate(d, *args)
        calls.append((len(d), out[2], out[3]))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits, "_collocate", recording)
        for seed in range(21, 29):
            for params, fraction in _random_draws(seed):
                coeff, calls = derive_coefficients(params), []
                if coeff.K0 <= 0.0:
                    results.append((params, None, calls))
                    continue
                try:
                    outcome = find_periodic(fraction * coeff.l, params)
                except ConvergenceError as exc:
                    outcome = exc
                results.append((params, outcome, calls))
    return results


def test_random_draws_give_an_orbit_or_the_mode_cap(random_draw_solves):
    # every draw gives an orbit that peaks above l, has a negative
    # fundamental mode and meets tol, or needs more than the 512 modes of
    # the cap (27 draws); one draw has K0 < 0 and no equilibrium.  Halved in
    # 1 - a/l rather than in log a, four draws near the loop with complex
    # rates missed tol (seed 23 #88, 25 #41, 26 #210 and 28 #40)
    outcomes = Counter()
    for params, orbit, _ in random_draw_solves:
        if orbit is None:
            outcomes["no equilibrium"] += 1
            continue
        if isinstance(orbit, ConvergenceError):
            assert str(orbit).startswith("Fourier tail still above 1e-15")
            assert str(orbit).endswith("with N=512")
            outcomes["mode cap"] += 1
            continue
        assert orbit.max_value > derive_coefficients(params).l
        assert orbit.coefficients[1] < 0.0
        assert orbit.residual_sup <= 1e-8
        outcomes["orbit"] += 1
    assert outcomes == {"orbit": 1972, "mode cap": 27, "no equilibrium": 1}


def test_random_draw_newton_work(random_draw_solves):
    # the Newton iterations of the 1,972 orbits: 27,658 on one BLAS thread
    # and 27,657 on two
    orbits_found = [orbit for _, orbit, _ in random_draw_solves
                    if isinstance(orbit, orbits.PeriodicOrbit)]
    assert len(orbits_found) == 1972
    assert sum(orbit.newton_iterations for orbit in orbits_found) <= 27658


def test_random_draw_orbit_modes(random_draw_solves):
    # the N of the 1,972 orbits: a solve that moves to 2 N before it
    # converges lands on the N that the tail test picks for the converged
    # orbit, as when every solve ran to _STEP_TOL
    modes = Counter(orbit.modes for _, orbit, _ in random_draw_solves
                    if isinstance(orbit, orbits.PeriodicOrbit))
    assert modes == {32: 333, 64: 549, 128: 532, 256: 409, 512: 149}


def test_no_random_draw_solve_runs_out_of_newton_iterations(random_draw_solves):
    # a solve that wanders without a correction that grows twice runs all
    # _MAX_NEWTON iterations: seed 28 #247's jump from Lin's seed did while
    # only two growths in a row stopped a solve.  The record holds every
    # solve: each draw with an equilibrium has at least one, and the
    # iterations recorded for each orbit sum to its newton_iterations
    unrecorded = [i for i, (_, outcome, calls) in enumerate(random_draw_solves)
                  if bool(calls) != (outcome is not None)]
    mismatched = [i for i, (_, outcome, calls) in enumerate(random_draw_solves)
                  if isinstance(outcome, orbits.PeriodicOrbit)
                  and sum(its for _, its, _ in calls) != outcome.newton_iterations]
    assert unrecorded == [] and mismatched == []
    solves = [call for _, _, calls in random_draw_solves for call in calls]
    assert max(its for _, its, _ in solves) < orbits._MAX_NEWTON


def _fail_first_solve_at_each_doubling(monkeypatch):
    """Make the first Newton solve at each doubled N, the one from the padded
    trial or iterate, report an infinite residual, so that every doubling
    falls back to the padded last orbit.  Returns the set of N reached."""
    collocate, seen = orbits._collocate, {orbits._MODES}

    def first_fails(d, omega, *args):
        if len(d) in seen:
            return collocate(d, omega, *args)
        seen.add(len(d))
        return d, omega, 0, math.inf

    monkeypatch.setattr(orbits, "_collocate", first_fails)
    return seen


@pytest.mark.parametrize(
    "params, fraction",
    [(B0, 1e-3), (N8_P4, 1e-3), (N10_P9, 0.006987657359575838), (N5_P11, 0.0008355571996189617)],
    ids=["b0", "n8-p4", "n10-p9.3", "n5-p11.4"],
)
def test_doubling_restart_meets_fallback(monkeypatch, params, fraction):
    # the restart from the padded trial or iterate and the fallback to the
    # padded last orbit reach the same orbit.  At 1e-6 l, b differs between
    # them by up to rel 4e-9: v(0) = a enters as sum d_k = a - l, to about
    # 1e-16 l
    a = fraction * derive_coefficients(params).l
    restarted = find_periodic(a, params)
    seen = _fail_first_solve_at_each_doubling(monkeypatch)
    fallback = find_periodic(a, params)
    assert restarted.modes == fallback.modes == max(seen) > orbits._MODES
    for name in ("b", "period", "max_value"):
        assert getattr(restarted, name) == pytest.approx(getattr(fallback, name), rel=1e-12)


def test_doubling_fallback_is_not_a_halving(monkeypatch):
    # B0 at 1e-6 l takes no halving (2 steps: 1 - v(0)/l = 1/2 and the
    # target); with none allowed, its two fallbacks (N = 64 and 128) still
    # reach the orbit
    monkeypatch.setattr(orbits, "_MAX_RETRIES", 0)
    seen = _fail_first_solve_at_each_doubling(monkeypatch)
    orbit = find_periodic(1e-6 * EQUILIBRIUM, B0)
    assert seen == {32, 64, 128} and orbit.continuation_steps == 2
    assert _dp_half_period_error(orbit, _dp_segments(orbit)) <= 1e-8


CONJUGATE = ProblemParams(n=6, alpha=-4.0, p=5.0)
N7_P2 = ProblemParams(n=7, alpha=1.0, p=2.0, lam=2.0, mu=1.0)  # no closed form


@pytest.mark.parametrize("params", [B0, N7_P2], ids=["b0", "n7-p2"])
def test_first_start_is_second_order(params):
    # the Lindstedt-Poincare start misses the orbit's coefficients by
    # O(eps^3) and its frequency by O(eps^2), so halving 1 - a/l = eps cuts
    # the first miss about 8 times (7.9 on b0, 8.3 on n7-p2) and the second
    # about 4 times; the linearized orbit d_1 = -eps l misses both by O(eps^2)
    coeff = derive_coefficients(params)
    misses = []
    for eps in (0.01, 0.005):
        orbit = find_periodic((1.0 - eps) * coeff.l, params)
        start, omega = orbits._small_orbit(orbit.modes, eps, coeff.l, coeff.K2, coeff.K0, params.p)
        start[0] += coeff.l
        misses.append((np.abs(orbit.coefficients - start).max(), abs(orbit.omega - omega)))
    (d_far, omega_far), (d_near, omega_near) = misses
    assert 7.0 < d_far / d_near < 9.5
    assert 3.5 < omega_far / omega_near < 4.5


@pytest.mark.parametrize(
    "n, growth, modes",
    [(32, 1.5, 32), (32, 3.9, 32), (32, 4.1, 64), (32, 15.9, 64), (32, 16.1, 128),
     (32, 63.0, 128), (32, 64.5, 256), (128, 3.9, 128), (128, 4.1, 256), (256, 4.1, 512),
     (256, 16.1, 512), (512, 64.5, 512)],
)
def test_lin_seed_doubles_n_per_fourfold_period_growth(n, growth, modes):
    # the jump from B0's orbit at 1 - a/l = 1/2 to 1e-6 l, with lam2 chosen
    # so that Lin's law grows the period by the given factor; the orbit is
    # zero-padded to n modes, and the seed never passes _MAX_MODES
    coeff = derive_coefficients(B0)
    orbit = find_periodic(0.5 * coeff.l, B0)
    d = np.zeros(n)
    d[:orbit.modes] = orbit.coefficients
    d[0] -= coeff.l
    lam2 = 2.0 * math.log(0.5 / 1e-6) / ((growth - 1.0) * orbit.period)
    seed, omega = orbits._lin_seed(d, orbit.omega, 0.5, 1.0 - 1e-6, coeff.l, lam2)
    assert len(seed) == modes
    assert 2.0 * math.pi / omega == pytest.approx(growth * orbit.period, rel=1e-9)


def _ladder_orbit(monkeypatch, a, params):
    """find_periodic on a two-rung ladder: its first step goes to 1 - a/l =
    0.12, the next from that orbit to the target."""
    with monkeypatch.context() as patch:
        patch.setattr(orbits, "_NEAR_LOOP", 0.12)
        return find_periodic(a, params)


def _assert_same_orbit(got, want):
    for name in ("b", "period", "max_value"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)


@pytest.mark.parametrize("params", [B0, SHIFTED, N7_P2], ids=["b0", "shifted", "n7-p2"])
@pytest.mark.parametrize("eps", [0.13, 0.25, 0.4, 0.5])
def test_one_step_orbit_meets_the_ladder(monkeypatch, params, eps):
    # up to 1 - a/l = 1/2 one Newton solve from the Lindstedt-Poincare orbit
    # reaches an orbit that passes the DP half-period oracle, and the one
    # that a continuation through 0.12 reaches in two steps
    a = (1.0 - eps) * derive_coefficients(params).l
    one_step, ladder = find_periodic(a, params), _ladder_orbit(monkeypatch, a, params)
    assert one_step.continuation_steps == 1 < ladder.continuation_steps
    assert _dp_half_period_error(one_step, _dp_segments(one_step)) <= 1e-8
    _assert_same_orbit(one_step, ladder)


def test_one_step_orbits_of_the_random_draws_meet_the_ladder(monkeypatch, random_draw_solves):
    # every orbit of the 2,000 draws with 1 - a/l in (0.12, 1/2], against
    # the DP half-period oracle and the two-rung ladder through 0.12; on 16
    # of the 89, all with p > 22, the one-step solve fails and is halved once
    steps = Counter()
    for params, orbit, _ in random_draw_solves:
        if not isinstance(orbit, orbits.PeriodicOrbit):
            continue
        l = derive_coefficients(params).l
        if not 0.12 < 1.0 - orbit.a / l <= orbits._NEAR_LOOP:
            continue
        steps[orbit.continuation_steps] += 1
        assert _dp_half_period_error(orbit, _dp_segments(orbit)) <= 1e-8
        _assert_same_orbit(orbit, _ladder_orbit(monkeypatch, orbit.a, params))
    assert steps == {1: 73, 2: 16}


def test_failed_one_step_solve_is_halved(monkeypatch):
    # the half-period alias injected into the one-step solve is rejected, the
    # step is halved in 1 - a/l and the orbit is reached from there; with no
    # halving allowed, the solve ends
    l = derive_coefficients(B0).l
    plain = find_periodic(1.0, B0)
    aliases, calls = _inject_alias(monkeypatch, 1.0 - l, 2, times=1)
    orbit = find_periodic(1.0, B0)
    assert len(aliases) == 1
    assert [w0 for w0, _ in calls[:2]] == [1.0 - l, -(0.5 * (1.0 - 1.0 / l)) * l]
    assert orbit.continuation_steps == 2
    _assert_same_orbit(orbit, plain)
    aliases.clear()
    monkeypatch.setattr(orbits, "_MAX_RETRIES", 0)
    with pytest.raises(ConvergenceError, match="half-period alias"):
        find_periodic(1.0, B0)


def _nehari_value(params):
    """(int v^{p+1})^{(p-1)/(p+1)} by the trapezoid rule over one period of
    the orbit that find_homoclinic reads.

    v'''' - K2 v'' + K0 v = v^p times v, integrated over the line, gives
    int (v''^2 + K2 v'^2 + K0 v^2) = int v^{p+1}, so this is the quotient
    at the profile.
    """
    p = params.p
    orbit = find_periodic(orbits._HOMOCLINIC_MIN * derive_coefficients(params).l, params)
    v = np.array(orbit.rows()[1])[:-1, 1]
    return (orbit.period / len(v) * np.sum(v ** (p + 1.0))) ** ((p - 1.0) / (p + 1.0))


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
        assert _nehari_value(params) == pytest.approx(phi_closed_form(params).phi, rel=1e-10)


@st.composite
def cosh_instances(draw):
    """Instances with a cosh profile, K2 > 0, K0 > 0 and real rates.

    K2 is drawn and mu is set by the solvability relation
    4 (p+1)^2 K2^2 = ((p+1)^2 + 4)^2 K0, so that K0 > 0 and
    K2^2 - 4 K0 = K2^2 ((p+1)^2 - 4)^2 / ((p+1)^2 + 4)^2 >= 0.
    """
    n = draw(st.integers(5, 8))
    alpha = draw(st.floats(-n, n - 4.0, exclude_min=True, exclude_max=True))
    p = draw(st.floats(1.5, 6.0, exclude_min=True, exclude_max=True))
    lam = k2_value(n, alpha, 0.0) - 10.0 ** draw(st.floats(-1.0, 2.0))
    square = (p + 1.0) ** 2
    K0 = 4.0 * square * k2_value(n, alpha, lam) ** 2 / (square + 4.0) ** 2
    return ProblemParams(n=n, alpha=alpha, p=p, lam=lam, mu=K0 - k0_value(n, alpha, lam, 0.0))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cosh_instances())
def test_closed_form_constant_meets_nehari_value(params):
    # an oracle for phi_closed_form that shares none of its Gamma function
    # or cosh algebra; the rates are real, so the decaying solution is the
    # quotient's minimizer
    coeff = derive_coefficients(params)
    assert coeff.K2 > 0.0 and coeff.K0 > 0.0 and coeff.discriminant >= 0.0
    assert _nehari_value(params) == pytest.approx(phi_closed_form(params).phi, rel=1e-10)


# a cosh instance past the property's p < 6, on which the Newton solve at
# N = 256, started from the padded trial, crossed omega = 0 and came back
# with a negative period; the collocation sees only omega^2
N6_P9 = ProblemParams(n=6, alpha=1.0135694091284568, p=9.698076468771882,
                      lam=-8.301813009274522, mu=9.163681739004128)


def test_newton_path_through_zero_frequency():
    orbit = find_periodic(orbits._HOMOCLINIC_MIN * derive_coefficients(N6_P9).l, N6_P9)
    assert orbit.omega > 0.0 and orbit.period > 0.0
    assert _nehari_value(N6_P9) == pytest.approx(phi_closed_form(N6_P9).phi, rel=1e-10)


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


def _plain_collocate(d, omega, w0, l, K2, K0, p, tol, coarse):
    """orbits._collocate with every array built afresh by an expression."""
    n = len(d)
    k = np.arange(n, dtype=float)
    k2, k4 = k * k, k ** 4
    cos = np.cos(np.outer(np.pi * (np.arange(n) + 0.5) / n, k))
    between_cos = np.cos(np.outer(np.pi * np.arange(n + 1) / n, k))
    jac = np.zeros((n + 1, n + 1))
    jac[n, :n] = 1.0
    rhs = np.empty(n + 1)
    converged = rough = grew = False
    last = theta = math.nan

    def relative_residual():
        return float(np.max(np.abs(rhs[:n])) / (K0 * l * np.max((1.0 + x) ** p)))

    def truncation_dominates():
        w = between_cos @ d / l
        between = np.max(np.abs(between_cos @ (symbol * d)
                                - K0 * l * np.expm1(p * np.log1p(np.maximum(w, -1.0)))))
        return (between > orbits._TRUNCATION_RATIO * np.max(np.abs(rhs[:n]))
                and between > orbits._TRUNCATION_FLOOR * K0 * l * np.max((1.0 + x) ** p))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iteration in range(orbits._MAX_NEWTON + 1):
            symbol = omega ** 4 * k4 + K2 * omega ** 2 * k2 + K0
            x = np.maximum(cos @ d / l, -1.0)
            rhs[:n] = cos @ (symbol * d) - K0 * l * np.expm1(p * np.log1p(x))
            if converged or iteration == orbits._MAX_NEWTON:
                break
            if rough and relative_residual() <= orbits._COARSE_TOL:
                return d, abs(omega), iteration, relative_residual()
            tail = np.max(np.abs(d[-4:])) > orbits._TAIL_TOL * np.max(np.abs(d))
            if theta < 0.5 and 2 * n <= orbits._MAX_MODES and tail and truncation_dominates():
                return np.concatenate([d, np.zeros(n)]), abs(omega), iteration, relative_residual()
            rhs[n] = d.sum() - w0
            jac[:n, :n] = cos * symbol - (p * K0 * (1.0 + x) ** (p - 1.0))[:, None] * cos
            jac[:n, n] = cos @ ((4.0 * omega ** 3 * k4 + 2.0 * K2 * omega * k2) * d)
            step = np.linalg.solve(jac, -rhs)
            delta = max(np.max(np.abs(step[:n])) / np.max(np.abs(d)), abs(step[n] / omega))
            theta, last = delta / last, delta
            if theta >= 1.0 and relative_residual() <= tol:
                return d, abs(omega), iteration + 1, relative_residual()
            if theta > 1.0 and grew:
                return d, omega, iteration + 1, math.inf
            grew = grew or theta > 1.0
            d = d + step[:n]
            omega += step[n]
            tol_step = orbits._STEP_TOL
            converged = delta <= tol_step or theta < 0.5 and theta * delta <= tol_step
            rough = coarse and theta * delta <= orbits._COARSE_TOL
        residual = relative_residual()
    return d, abs(omega), iteration, residual


class TestReusedArrays:
    """The per-N matrices, the Newton buffers and the orbit's grid are kept
    or reused between calls; none of them may carry state from one to the next."""

    def test_cached_basis_is_read_only(self):
        for array in (*orbits._basis(orbits._MODES), orbits._between_nodes(orbits._MODES)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("n", [32, 256])
    def test_between_nodes_sums_the_series_midway(self, n):
        # sum_k d_k cos(pi j k / N), j = 0..N, is the real part of the
        # length-2N FFT of d, zero-padded
        d = np.random.default_rng(n).standard_normal(n) / (1.0 + np.arange(n)) ** 2
        got = orbits._between_nodes(n) @ d
        assert np.max(np.abs(got - np.fft.rfft(d, 2 * n).real)) <= 1e-14 * np.max(np.abs(d))

    def test_orbit_grid_is_read_only(self, orbit_b0):
        for array in orbit_b0._grid + (orbit_b0._grid_energies,):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_homoclinic_leaves_its_orbit_grid(self, monkeypatch):
        # find_homoclinic writes the peak state into its copy of the grid
        periodic, kept = orbits.find_periodic, []

        def keeping(*args):
            orbit = periodic(*args)
            kept.append((orbit, [array.copy() for array in orbit._grid]))
            return orbit

        monkeypatch.setattr(orbits, "find_periodic", keeping)
        find_homoclinic(B0)
        (orbit, before), = kept
        assert all(a.tobytes() == b.tobytes() for a, b in zip(orbit._grid, before))

    def test_collocate_repeats_bit_for_bit(self):
        # the same start twice, with a solve at another N in between, gives
        # the same bits; the start itself is left unchanged
        coeff = derive_coefficients(B0)
        K2, K0, p, l = coeff.K2, coeff.K0, B0.p, coeff.l
        eps = 0.12
        d, omega = orbits._small_orbit(orbits._MODES, eps, l, K2, K0, p)
        kept = d.copy()
        first = orbits._collocate(d, omega, -eps * l, l, K2, K0, p, 1e-8, False)
        other = orbits._small_orbit(2 * orbits._MODES, eps, l, K2, K0, p)
        orbits._collocate(*other, -eps * l, l, K2, K0, p, 1e-8, False)
        second = orbits._collocate(d, omega, -eps * l, l, K2, K0, p, 1e-8, False)
        assert d.tobytes() == kept.tobytes()
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1:] == second[1:] and first[3] <= 1e-8

    @pytest.mark.parametrize(
        "params, eps, n",
        [(B0, 0.12, 32), (B0, 0.5, 64), (ProblemParams(n=7, alpha=1.0, p=3.0), 0.2, 32),
         (ProblemParams(n=5, alpha=0.5, p=2.0, mu=1.0), 0.3, 64)],
        ids=["b0", "b0-n64", "p3", "p2"],
    )
    def test_collocate_matches_plain_expressions(self, params, eps, n):
        # every iterate of the buffered Newton solve from the first step's
        # start, bit for bit, against the same solve written as whole-array
        # expressions (p = 2 and 3 take numpy's fast paths for ** 1.0 and
        # ** 2.0), as the final step and as an intermediate one
        coeff = derive_coefficients(params)
        K2, K0, p, l = coeff.K2, coeff.K0, params.p, coeff.l
        start = orbits._small_orbit(n, eps, l, K2, K0, p)
        for coarse in (False, True):
            args = (*start, -eps * l, l, K2, K0, p, 1e-8, coarse)
            got, want = orbits._collocate(*args), _plain_collocate(*args)
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]


    @pytest.mark.parametrize(
        "params, fraction, failed, moves",
        [(B0, 1e-8, [], 1), (B0, 1e-6, [], 1), (N5_P18, 0.04869516498675949, [4], 1),
         (N10_P23, 1.6537038551435733e-05, [4, 6], 1)],
        ids=["b0-floor", "b0-moves-to-2n", "n5-p18.1-growing", "n10-p23.1-growing-apart"],
    )
    def test_collocate_calls_of_a_solve_match_plain_expressions(self, monkeypatch, params,
                                                                fraction, failed, moves):
        # every Newton solve of one find_periodic, replayed through the plain
        # loop from the starts the continuation gave it: on B0 at 1e-8 l the
        # N = 256 solve stops at the rounding floor, every intermediate solve
        # ends early and the final jump's N = 64 solve moves on to 2 N; at
        # 1e-6 l the jump's solve from Lin's seed at N = 64 moves on to 2 N
        # once truncation dominates; on n5-p18.1 the first step, to
        # 1 - v(0)/l = 1/2, fails on a correction that grows twice in a row;
        # and on n10-p23.1 the first step fails so too, and the jump from
        # 1/2, from Lin's seed, fails at its sixth correction, the second that
        # grows (the third grew, and the two between shrank).  failed lists
        # the iterations of the failed solves, moves counts the solves that
        # return at 2 N
        collocate, calls = orbits._collocate, []

        def recording(*args):
            out = collocate(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(orbits, "_collocate", recording)
        find_periodic(fraction * derive_coefficients(params).l, params)
        assert [its for _, (_, _, its, residual) in calls if math.isinf(residual)] == failed
        assert sum(len(out[0]) == 2 * len(args[0]) for args, out in calls) == moves
        for args, (d, *rest) in calls:
            want = _plain_collocate(*args)
            assert d.tobytes() == want[0].tobytes() and tuple(rest) == want[1:]


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
