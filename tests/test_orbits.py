"""Periodic and decaying orbit solvers plus singularity classification."""

import math

import numpy as np
import pytest

from radial4 import (
    BlowUpError,
    Event,
    OdeState,
    ProblemParams,
    ReducedProblem,
    RegimeError,
    TrajectoryDomainError,
    ValidationError,
    Verdict,
    classify_singularity,
    find_homoclinic,
    find_periodic,
    integrate,
    linearized_frequency,
    potential,
)
from radial4 import orbits

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
        # hyperbolicity amplifies integration noise by ~1e7 over one loop,
        # which caps how tightly the endpoint can return to the start
        y_start = orbit_b0.trajectory.ys[0]
        y_end = orbit_b0.trajectory.sample(orbit_b0.period)
        assert np.max(np.abs(y_end - y_start)) < 5e-5

    def test_orbit_symmetric_about_half_period(self, orbit_b0):
        tq = np.linspace(0.0, orbit_b0.period / 2.0, 40)
        fwd = orbit_b0.trajectory.sample(tq)[:, 0]
        bwd = orbit_b0.trajectory.sample(orbit_b0.period - tq)[:, 0]
        assert np.max(np.abs(fwd - bwd)) < 1e-5

    def test_hint_reproduces_orbit(self):
        orbit = find_periodic(1.0, B0, b_hint=0.78)
        assert orbit.b == pytest.approx(0.7836654928917256, rel=1e-9)

    def test_small_amplitude_limit(self):
        orbit = find_periodic(EQUILIBRIUM - 1e-3, B0)
        assert orbit.period == pytest.approx(SMALL_ORBIT_PERIOD, abs=1e-2)

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

    def test_to_dict_keys(self, orbit_b0):
        d = orbit_b0.to_dict()
        assert set(d) >= {
            "a", "b", "period", "max_value", "energy",
            "residual_sup", "in_proven_regime", "energy_drift",
        }


def _record_integrate(monkeypatch):
    """Wrap orbits.integrate; returns the list of (args, kwargs, trajectory, exception)."""
    calls = []

    def recording(*args, **kwargs):
        try:
            traj = integrate(*args, **kwargs)
        except (BlowUpError, TrajectoryDomainError) as exc:
            calls.append((args, kwargs, exc.trajectory, exc))
            raise
        calls.append((args, kwargs, traj, None))
        return traj

    monkeypatch.setattr(orbits, "integrate", recording)
    return calls


class TestEscapeCone:
    """Half-period shots stop once they enter the forward-invariant escape cone."""

    @pytest.mark.parametrize("a", [1.0, EQUILIBRIUM - 1e-3])
    def test_stopped_shots_escape_without_the_cone(self, monkeypatch, a):
        calls = _record_integrate(monkeypatch)
        find_periodic(a, B0)
        stopped = [c for c in calls if c[2] is not None and c[2].stop_reason[0] == "escape"]
        assert stopped
        steps_stopped = steps_full = 0
        for args, kwargs, traj, _ in stopped:
            assert traj.event_name is None
            full = {k: v for k, v in kwargs.items() if k != "escaped"}
            try:
                rerun = integrate(*args, **full)
            except BlowUpError as exc:
                rerun = exc.trajectory
            else:
                assert rerun.stop_reason == ("t_end",) and rerun.event_name is None
            steps_stopped += traj.n_accepted
            steps_full += rerun.n_accepted
        # 1449 of 10323 steps at a = 1.0, 447 of 17296 near l
        assert steps_stopped < 0.15 * steps_full

    def test_escape_shots_take_a_small_share_of_steps(self, monkeypatch):
        calls = _record_integrate(monkeypatch)
        find_periodic(EQUILIBRIUM - 1e-3, B0)
        # a shot is a run with events; it escapes when it ends without a turning point
        escape_steps = sum(
            traj.n_accepted for _, kwargs, traj, exc in calls
            if kwargs.get("events") and (exc is not None or traj.event_name is None)
        )
        total = sum(traj.n_accepted for _, _, traj, _ in calls if traj is not None)
        # run to blow-up or t_max, the escape shots took 94% of the steps;
        # stopped at the cone they take 447 of 3202
        assert escape_steps < 0.2 * total

    def test_each_cone_condition_is_needed(self):
        # from inside the cone the shot escapes; breaking v >= l, v'' >= 0 or
        # v''' >= 0 alone lets it turn back
        problem = ReducedProblem(10.0, 9.0, 5.0)
        cone = orbits._escape_cone(problem)
        turn = Event("turning_point", lambda t, y: y[1], direction=-1)
        inside = (1.01 * EQUILIBRIUM, 0.1, 0.0, 0.0)
        assert cone(inside)
        with pytest.raises(BlowUpError):
            integrate(OdeState(0.0, inside), 20.0, 1e-12, problem, events=(turn,))
        for y in [
            (0.9 * EQUILIBRIUM, 0.1, 0.0, 0.0),
            (1.01 * EQUILIBRIUM, 0.1, -1.0, 0.0),
            (1.01 * EQUILIBRIUM, 0.1, 0.1, -5.0),
        ]:
            assert not cone(y)
            traj = integrate(OdeState(0.0, y), 20.0, 1e-12, problem, events=(turn,))
            assert traj.event_name == "turning_point"
        # v = l itself stays out, so the rounding in l cannot admit v < l
        assert not cone((EQUILIBRIUM, 0.1, 0.0, 0.0))

    def test_no_cone_when_k2_negative(self, monkeypatch):
        params = ProblemParams(n=6, alpha=0.0, p=5.0, lam=12.0, mu=5.0)  # K2 = -2, K0 = 2
        calls = _record_integrate(monkeypatch)
        find_periodic(0.8 * 2.0 ** 0.25, params)
        shots = [kwargs for _, kwargs, _, _ in calls if kwargs.get("events")]
        assert shots and all(kwargs["escaped"] is None for kwargs in shots)


def _homoclinic_fate(problem, y):
    """'turn' or 'cross' for a run from y with the classification shot's events."""
    ev_min = Event("local_min", lambda t, y: y[1], direction=+1)
    ev_floor = Event("v_floor", lambda t, y: y[0] - 1e-10, direction=-1)
    try:
        traj = integrate(OdeState(0.0, y), 20.0, 1e-12, problem, events=(ev_min, ev_floor))
    except BlowUpError:
        return "turn"
    except TrajectoryDomainError:
        return "cross"
    return "cross" if traj.event_name == "v_floor" else "turn"


class TestDiveCone:
    """Homoclinic classification shots stop once they enter the forward-invariant dive cone."""

    @pytest.mark.parametrize(
        "params", [B0, SHIFTED, ProblemParams(n=7, alpha=1.0, p=2.0, lam=2.0, mu=1.0)]
    )
    def test_stopped_shots_cross_without_the_cone(self, monkeypatch, params):
        calls = _record_integrate(monkeypatch)
        find_homoclinic(params)
        stopped = [c for c in calls if c[2] is not None and c[2].stop_reason[0] == "escape"]
        assert stopped
        for args, kwargs, traj, _ in stopped:
            assert traj.event_name is None
            full = {k: v for k, v in kwargs.items() if k != "escaped"}
            try:
                rerun = integrate(*args, **full)
            except TrajectoryDomainError:
                continue
            assert rerun.event_name == "v_floor"

    def test_each_cone_condition_is_needed(self):
        # from inside the cone the shot crosses; breaking any one condition
        # alone lets it turn back up (or blow up, which also reads 'turn')
        problem = ReducedProblem(10.0, 9.0, 5.0)
        cone = orbits._dive_cone(problem)
        for inside in [(0.3 * EQUILIBRIUM, -0.01, 0.0, 0.0), (0.9 * EQUILIBRIUM, -0.01, 0.0, 0.0)]:
            assert cone(inside)
            assert _homoclinic_fate(problem, inside) == "cross"
        for y in [
            (1.01 * EQUILIBRIUM, -0.01, 0.0, 0.0),
            (0.9 * EQUILIBRIUM, 1.0, 0.0, 0.0),
            (0.3 * EQUILIBRIUM, -0.01, 0.1, 0.0),
            (0.3 * EQUILIBRIUM, -0.01, 0.0, 1.0),
        ]:
            assert not cone(y)
            assert _homoclinic_fate(problem, y) == "turn"
        # v = l itself stays out, so the rounding in l cannot admit v > l
        assert not cone((EQUILIBRIUM, -0.01, 0.0, 0.0))

    def test_work_count(self, monkeypatch):
        calls = _record_integrate(monkeypatch)
        find_homoclinic(B0)
        # 65 shots and 26317 accepted steps (1783 rejected) before the cone
        # and the lazy scan; 45 and 20273 (0 rejected) with them
        assert len(calls) <= 45
        assert sum(traj.n_accepted for _, _, traj, _ in calls) <= 21000
        # the kept shot at the peak runs to its end
        assert calls[-1][1].get("escaped") is None


class TestFindHomoclinic:
    def test_base_profile(self, homoclinic_b0):
        assert homoclinic_b0.peak == pytest.approx(24.0 ** 0.25, abs=1e-6)
        assert homoclinic_b0.decay_rate == pytest.approx(1.0, abs=1e-3)

    def test_base_profile_samples(self, homoclinic_b0):
        vs = homoclinic_b0.samples.ys[:, 0]
        assert np.all(np.diff(vs) < 0.0)
        assert np.max(np.abs(homoclinic_b0.samples.energies)) < 1e-8
        assert homoclinic_b0.samples.stop_reason[0] == "truncated"

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
