"""Adaptive integration of the reduced fourth-order system."""

import os
import subprocess
import sys

import numpy as np
import pytest

import radial4
from radial4 import (
    ConvergenceError,
    DomainError,
    ProblemParams,
    ReducedProblem,
    ValidationError,
    build_cosh_solution,
    cosh_profile_derivatives,
    derive_coefficients,
    energy,
    find_periodic,
)
from radial4.dynamics import Event, OdeState, _dp5_step, _field, _rms, integrate, rhs

B0 = ReducedProblem(10.0, 9.0, 5.0)
EQUILIBRIUM = 3.0 ** 0.5  # K0^{1/(p-1)} for (K0, p) = (9, 5)


def homoclinic_state(t):
    """Exact state vector of the explicit decaying profile at time t."""
    sol = build_cosh_solution(ProblemParams(n=6, alpha=0.0, p=5.0))
    return np.array(cosh_profile_derivatives(sol, t)[:4], dtype=float)


class TestRhsAndEnergy:
    def test_equilibrium_is_stationary(self):
        out = rhs((EQUILIBRIUM, 0.0, 0.0, 0.0), 10.0, 9.0, 5.0)
        assert np.allclose(out, 0.0, atol=1e-13)

    def test_state_and_vector_inputs_agree(self):
        state = OdeState(0.0, (1.0, 0.2, -0.3, 0.4))
        assert np.allclose(rhs(state, 10.0, 9.0, 5.0), rhs(state.y, 10.0, 9.0, 5.0))
        assert energy(state, 10.0, 9.0, 5.0) == energy(state.y, 10.0, 9.0, 5.0)

    def test_negative_v_rejected(self):
        with pytest.raises(DomainError):
            rhs((-0.1, 0.0, 0.0, 0.0), 10.0, 9.0, 5.0)
        with pytest.raises(DomainError):
            energy((-0.1, 0.0, 0.0, 0.0), 10.0, 9.0, 5.0)

    def test_equilibrium_energy_value(self):
        # l^6/6 - (9/2) l^2 at l = sqrt(3) is 27/6 - 27/2 = -9
        assert energy((EQUILIBRIUM, 0.0, 0.0, 0.0), 10.0, 9.0, 5.0) == pytest.approx(
            -9.0, rel=1e-14
        )

    def test_problem_carrier_validation(self):
        with pytest.raises(ValidationError):
            ReducedProblem(10.0, 9.0, 1.0)


class TestStateValidation:
    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            OdeState(0.0, (1.0, 2.0, 3.0))

    def test_integrate_rejects_bad_tol(self):
        y0 = OdeState(0.0, (1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValidationError):
            integrate(y0, 1.0, 1e-3, B0)
        with pytest.raises(ValidationError):
            integrate(y0, 1.0, 1e-14, B0)

    def test_integrate_rejects_backward_span(self):
        y0 = OdeState(1.0, (1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValidationError):
            integrate(y0, 1.0, 1e-9, B0)

    def test_integrate_rejects_negative_initial_v(self):
        with pytest.raises(DomainError):
            integrate(OdeState(0.0, (-1.0, 0.0, 0.0, 0.0)), 1.0, 1e-9, B0)


class TestAccuracy:
    def test_tracks_decaying_profile(self):
        # the saddle at the origin amplifies local error like e^{3t}, so the
        # achievable window shrinks with tol; at 1e-12 the first four units
        # stay at 1e-7 and the glide persists past t = 7 before v reaches 0
        y0 = OdeState(0.0, homoclinic_state(0.0))
        traj = integrate(y0, 10.0, 1e-12, B0)
        assert traj.ts[-1] > 7.0
        sol = build_cosh_solution(ProblemParams(n=6, alpha=0.0, p=5.0))
        for window, bound in ((4.0, 1e-7), (6.0, 2e-5)):
            mask = traj.ts <= window
            err = np.abs(traj.ys[mask, 0] - [cosh_profile_derivatives(sol, t)[0] for t in traj.ts[mask]])
            assert np.max(err) < bound

    def test_equilibrium_stays_put(self):
        # the rest point is a saddle, so rounding in the right-hand side
        # seeds e^{3t} growth; five time units keeps that below 1e-9
        y0 = OdeState(0.0, (EQUILIBRIUM, 0.0, 0.0, 0.0))
        traj = integrate(y0, 5.0, 1e-10, B0)
        assert traj.stop_reason == "t_end"
        assert np.max(np.abs(traj.ys[:, 0] - EQUILIBRIUM)) < 1e-9

    def test_energy_drift_small_on_bounded_orbit(self):
        # the orbit is hyperbolic, so rounding noise ejects the trajectory
        # a little after t=8; seven units stays safely on the loop
        y0 = OdeState(0.0, (1.0, 0.0, 0.7836654928917256, 0.0))
        traj = integrate(y0, 7.0, 1e-10, B0)
        es = traj.energies
        assert np.max(np.abs(es - es[0])) < 1e-8

    def test_step_stats_accumulate(self):
        y0 = OdeState(0.0, (1.0, 0.0, 0.7836654928917256, 0.0))
        traj = integrate(y0, 8.0, 1e-10, B0)
        assert traj.n_accepted == len(traj.ts) - 1
        assert traj.n_rejected >= 0


class TestFailureModes:
    def test_blow_up_carries_partial_trajectory(self):
        # G(3) > 0 puts the start above the zero-energy barrier
        traj = integrate(OdeState(0.0, (3.0, 0.0, 0.0, 0.0)), 20.0, 1e-9, B0)
        assert traj.stop_reason == "blowup"
        assert traj.ts[-1] > 0.0
        assert float(np.max(np.abs(traj.ys[-1]))) > 1e12

    def test_domain_crossing_carries_partial_trajectory(self):
        # steep downhill start dives into v = 0
        traj = integrate(OdeState(0.0, (0.5, -2.0, 0.0, 0.0)), 20.0, 1e-9, B0)
        assert traj.stop_reason == "domain"
        assert traj.event_name is None
        assert traj.ys[-1, 0] >= 0.0

    def test_initial_overflow_is_blow_up(self):
        # 30**300 overflows a float before the first step
        traj = integrate(OdeState(0.0, (30.0, 0.0, 0.0, 0.0)), 1.0, 1e-10,
                         ReducedProblem(10.0, 9.0, 300.0))
        assert traj.stop_reason == "blowup"
        assert traj.ts.tolist() == [0.0]
        assert traj.ys.tolist() == [[30.0, 0.0, 0.0, 0.0]]
        assert (traj.n_accepted, traj.n_rejected) == (0, 0)

    def test_initial_step_underflow_is_convergence_error(self):
        # 1000**50 is finite, but its size in tol units is not, so the
        # first-step estimate rounds to zero
        with pytest.raises(ConvergenceError, match="initial step size underflowed"):
            integrate(OdeState(0.0, (1000.0, 0.0, 0.0, 0.0)), 1.0, 1e-10,
                      ReducedProblem(0.0, 0.0, 50.0))

    def test_max_steps_guard(self):
        y0 = OdeState(0.0, (1.0, 0.0, 0.7836654928917256, 0.0))
        with pytest.raises(ConvergenceError):
            integrate(y0, 1000.0, 1e-12, B0, max_steps=10)


class TestEvents:
    def test_falling_derivative_event_at_peak(self):
        y0 = OdeState(-3.0, homoclinic_state(-3.0))
        ev = Event("crest", lambda t, y: y[1], direction=-1)
        traj = integrate(y0, 3.0, 1e-11, B0, events=(ev,))
        assert traj.stop_reason == "event"
        assert traj.event_name == "crest"
        # the refined event state is appended as the final node
        assert traj.ts[-1] == pytest.approx(0.0, abs=1e-8)
        assert abs(traj.ys[-1, 1]) < 1e-9

    def test_direction_filter_ignores_opposite_crossing(self):
        y0 = OdeState(-3.0, homoclinic_state(-3.0))
        ev = Event("valley", lambda t, y: y[1], direction=+1)
        traj = integrate(y0, 3.0, 1e-11, B0, events=(ev,))
        assert traj.stop_reason == "t_end"

    def test_event_starting_at_zero_is_armed_not_fired(self):
        # v'(0) = 0 at the crest; a falling event must not trigger at start
        y0 = OdeState(0.0, homoclinic_state(0.0))
        ev = Event("crest", lambda t, y: y[1], direction=-1)
        traj = integrate(y0, 2.0, 1e-11, B0, events=(ev,))
        assert traj.stop_reason == "t_end"

    def test_bidirectional_event(self):
        y0 = OdeState(0.0, (1.0, 0.0, 0.7836654928917256, 0.0))
        ev = Event("level", lambda t, y: y[0] - 1.5, direction=0)
        traj = integrate(y0, 8.0, 1e-10, B0, events=(ev,))
        assert traj.event_name == "level"
        assert traj.ys[-1, 0] == pytest.approx(1.5, abs=1e-9)


class TestNodesAndRows:
    def test_nodes_match_profile(self):
        # nodes inside [-3, 1] keep saddle error growth below the bound;
        # past t=2 it dominates at any tolerance
        y0 = OdeState(-3.0, homoclinic_state(-3.0))
        traj = integrate(y0, 3.0, 1e-12, B0)
        sol = build_cosh_solution(ProblemParams(n=6, alpha=0.0, p=5.0))
        mask = traj.ts <= 1.0
        err = np.abs(traj.ys[mask, 0] - [cosh_profile_derivatives(sol, t)[0] for t in traj.ts[mask]])
        assert np.max(err) < 2e-8

    def test_rows_header(self):
        y0 = OdeState(0.0, (EQUILIBRIUM, 0.0, 0.0, 0.0))
        traj = integrate(y0, 1.0, 1e-9, B0)
        header, rows = traj.rows()
        assert header == ("t", "v", "dv", "d2v", "d3v", "E")
        assert len(rows) == len(traj.ts)
        assert rows[0][5] == pytest.approx(-9.0, rel=1e-12)


def _final_state(traj):
    return repr(tuple(float(c) for c in traj.ys[-1]))


def _fresh(code: str):
    """Words that code prints in a fresh interpreter on one BLAS thread: a
    Newton solve at N = 128 moves in its last digits, and in its iteration
    count, with the thread count of the LU solve."""
    src = os.path.dirname(os.path.dirname(radial4.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _fresh_homoclinic(lam: str):
    """repr of peak and decay_rate, and the sample count, of find_homoclinic
    on (6, 0, 5, lam, 0), in a fresh interpreter."""
    return _fresh(
        "from radial4 import ProblemParams, find_homoclinic\n"
        f"prof = find_homoclinic(ProblemParams(n=6, alpha=0.0, p=5.0, {lam}))\n"
        "print(repr(prof.peak), repr(prof.decay_rate), len(prof.samples.ts))\n"
    )


def _fresh_near_homoclinic(lam: str, fraction: str = "1e-6"):
    """Newton iterations, and repr of b, period and max_value, of
    find_periodic(fraction l) on (6, 0, 5, lam, 0), in a fresh
    interpreter."""
    return _fresh(
        "from radial4 import ProblemParams, derive_coefficients, find_periodic\n"
        f"params = ProblemParams(n=6, alpha=0.0, p=5.0, {lam})\n"
        f"orbit = find_periodic({fraction} * derive_coefficients(params).l, params)\n"
        "print(orbit.newton_iterations, repr(orbit.b), repr(orbit.period), "
        "repr(orbit.max_value))\n"
    )


class TestPinnedArithmetic:
    """Exact step counts and digits, so a kernel rewrite must keep every rounding."""

    def test_event_run(self):
        y0 = OdeState(0.0, (1.0, 0.0, 0.7836654928917256, 0.0))
        ev = Event("crest", lambda t, y: y[1], direction=-1)
        traj = integrate(y0, 3.0, 1e-10, B0, events=(ev,))
        assert (traj.n_accepted, traj.n_rejected) == (120, 0)
        assert traj.stop_reason == "event"
        assert repr(float(traj.ts[-1])) == "2.2185678741936554"
        assert _final_state(traj) == (
            "(2.112009425473248, -1.5958935561943832e-13, "
            "-1.5839589923103228, -1.0238354233860214e-07)"
        )

    def test_domain_crossing_run(self):
        # the dive into v = 0 rejects most of its steps on negative-v stages
        traj = integrate(OdeState(0.0, (0.5, -2.0, 0.0, 0.0)), 20.0, 1e-9, B0)
        assert traj.stop_reason == "domain"
        assert (traj.n_accepted, traj.n_rejected) == (34, 91)
        assert repr(float(traj.ts[-1])) == "0.24970292650469178"
        assert _final_state(traj) == (
            "(5.691384092809336e-15, -2.009037295341816, "
            "-0.09923397216574671, -0.6512939293764524)"
        )

    def test_blow_up_run(self):
        traj = integrate(OdeState(0.0, (3.0, 0.0, 0.0, 0.0)), 20.0, 1e-9, B0)
        assert traj.stop_reason == "blowup"
        assert (traj.n_accepted, traj.n_rejected) == (354, 0)
        assert repr(float(traj.ts[-1])) == "1.05963062661038"
        assert _final_state(traj) == (
            "(1172.7095832075954, 621339.2017177903, "
            "658409948.0611593, 1046539871385.1346)"
        )

    def test_overflowing_stage_run(self):
        # on the way up a stage's v**p overflows; that step is retried at a
        # quarter of its size, as for a non-finite error estimate
        traj = integrate(
            OdeState(0.0, (0.5, 0.0, 1e4, 0.0)), 50.0, 1e-6, ReducedProblem(10.0, 9.0, 100.0)
        )
        assert traj.stop_reason == "blowup"
        assert (traj.n_accepted, traj.n_rejected) == (62, 17)
        assert repr(float(traj.ts[-1])) == "0.013423670744757645"

    def test_extrema_times(self):
        # step counts of a run over one and a half periods, from a trough
        y0 = OdeState(0.0, (1.0, 0.0, 0.7836654928917256, 0.0))
        traj = integrate(y0, 7.0, 1e-11, B0)
        assert (traj.n_accepted, traj.n_rejected) == (598, 0)

    def test_periodic_orbit_digits(self):
        orbit = find_periodic(1.0, ProblemParams(n=6, alpha=0.0, p=5.0))
        assert repr(orbit.b) == "0.783665492891521"
        assert repr(orbit.period) == "4.437135754761857"
        assert repr(orbit.energy_drift) == "1.7763568394002505e-14"
        assert repr(orbit.max_value) == "2.112009426855794"

    def test_periodic_orbit_digits_near_equilibrium(self):
        # a single Newton solve from the second-order Lindstedt-Poincare orbit
        params = ProblemParams(n=6, alpha=0.0, p=5.0)
        orbit = find_periodic(derive_coefficients(params).l - 1e-3, params)
        assert repr(orbit.b) == "0.002807142454377177"
        assert repr(orbit.period) == "3.7480695543341698"
        assert repr(orbit.max_value) == "1.7330496218589106"

    def test_periodic_orbit_digits_shifted(self):
        orbit = find_periodic(0.4, ProblemParams(n=6, alpha=0.0, p=5.0, lam=80.0 / 9.0))
        assert repr(orbit.b) == "0.028532183658842015"
        assert repr(orbit.period) == "12.394698030470373"
        assert repr(orbit.max_value) == "0.6844071248038927"

    def test_near_homoclinic_newton_iterations(self):
        # the first continuation step, to 1 - v(0)/l = 1/2, from the
        # second-order Lindstedt-Poincare orbit, ends after 2 iterations at a
        # residual of 6.5e-3; the jump from 1/2 to 1 - 1e-6 grows the period
        # 6.6-fold, so Lin's seed has 2 N = 64 modes, and the solve moves on
        # to N = 128 from its padded iterate once truncation dominates
        counts = [_fresh_near_homoclinic(lam)[0] for lam in ("lam=0.0", "lam=80.0 / 9.0")]
        assert counts == ["7", "7"]

    def test_nearer_homoclinic_newton_iterations(self):
        # B0 at 1e-10 l: the first step to 1/2 (2 iterations at N = 32), then
        # one jump to the target from Lin's seed at N = 64 (5), which moves
        # on to N = 128 as truncation dominates (9) and to N = 256 on the
        # tail test (3).  Through an intermediate orbit at 5e-7 l it took 24
        assert _fresh_near_homoclinic("lam=0.0", "1e-10")[0] == "19"

    def test_homoclinic_newton_iterations_per_mode_count(self):
        # find_homoclinic(B0), one Newton solve per N: the first step at
        # N = 32 (2 iterations) and the jump to 1 - 1e-6 from Lin's seed at
        # N = 64 (3), which moves on from its padded iterate to N = 128 (2)
        assert _fresh(
            "from radial4 import ProblemParams, find_homoclinic, orbits\n"
            "collocate, solves = orbits._collocate, []\n"
            "def counting(d, *args):\n"
            "    out = collocate(d, *args)\n"
            "    solves.append(f'{len(d)}:{out[2]}')\n"
            "    return out\n"
            "orbits._collocate = counting\n"
            "find_homoclinic(ProblemParams(n=6, alpha=0.0, p=5.0))\n"
            "print(*solves)\n"
        ) == ["32:2", "64:3", "128:2"]

    def test_twice_growing_stop_newton_iterations(self):
        # seed 21 #202 of the draws in test_orbits.py, with complex rates, so
        # no Lin seed: the first step fails twice on a correction that grows
        # twice and is halved to 1 - v(0)/l = 1/8, from where the solve climbs
        # back to 1/2; the jump from there to the target fails from the last
        # orbit and converges once halved in log a.  Every intermediate step
        # stays at N = 32, as only the final step takes the 1e-15 tail test,
        # and the final solve moves on to N = 256 as truncation dominates
        counts = _fresh(
            "from radial4 import ProblemParams, derive_coefficients, find_periodic\n"
            "params = ProblemParams(n=6, alpha=-1.4044341184486604, p=48.90248196605966,\n"
            "                       lam=0.0, mu=2.527459839525436)\n"
            "orbit = find_periodic(4.3807119715585434e-06 * derive_coefficients(params).l, params)\n"
            "print(orbit.newton_iterations, orbit.continuation_steps, orbit.modes)\n"
        )
        assert counts == ["44", "4", "256"]

    def test_homoclinic_profile_digits(self):
        assert _fresh_homoclinic("lam=0.0") == ["2.213363839400394", "0.9999999072311921", "33"]

    def test_homoclinic_profile_digits_shifted(self):
        assert _fresh_homoclinic("lam=80.0 / 9.0") == [
            "0.7377879464667971", "0.3333333024105391", "33"]


# Dormand-Prince 5(4) tableau rows and error weights, in the loop form the
# scalar kernel unrolls.
_DP_A = (
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_E = (
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
    -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)


def _reference_step(y, f, h, K2, K0, p):
    """DP5 step on numpy arrays, summing each stage in tableau order."""

    def field(z):
        if z[0] < 0.0:
            raise DomainError("negative v")
        return np.array([z[1], z[2], z[3], z[0] ** p + K2 * z[2] - K0 * z[0]])

    y = np.array(y)
    k = [np.array(f)]
    for row in _DP_A:
        acc = row[0] * k[0]
        for a, kj in zip(row[1:], k[1:]):
            if a != 0.0:
                acc = acc + a * kj
        k.append(field(y + h * acc))
    err = _DP_E[0] * k[0]
    for e, kj in zip(_DP_E[1:], k[1:]):
        if e != 0.0:
            err = err + e * kj
    return y + h * acc, k[6], h * err


class TestScalarKernel:
    """The unrolled kernel reproduces the array form bit for bit."""

    @pytest.mark.parametrize("K2, K0, p", [(10.0, 9.0, 5.0), (-1.5, 2.0, 2.7)])
    def test_matches_array_reference(self, K2, K0, p):
        rng = np.random.default_rng(7)
        for _ in range(200):
            y = (rng.uniform(0.5, 2.0), *rng.normal(0.0, 1.0, size=3))
            f = _field(y, K2, K0, p)
            h = 10.0 ** rng.uniform(-4.0, -1.0)
            got = _dp5_step(y, f, h, K2, K0, p)
            want = _reference_step(y, f, h, K2, K0, p)
            for got_part, want_part in zip(got, want):
                assert list(got_part) == want_part.tolist()

    def test_negative_stage_raises(self):
        with pytest.raises(DomainError):
            _dp5_step((1e-3, -1.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), 0.5, 10.0, 9.0, 5.0)

    def test_rms_matches_numpy_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            q = rng.normal(0.0, 1.0, size=4) * 10.0 ** rng.uniform(-20.0, 20.0, size=4)
            assert _rms(*q.tolist()) == float(np.sqrt(np.mean(q ** 2)))
