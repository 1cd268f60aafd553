"""Orbit solvers for the reduced equation: periodic, homoclinic, decay rates.

Periodic orbits with a prescribed minimum a are even about t = 0 and about
the half period, so they are computed as a cosine series in tau = omega t
whose coefficients and frequency solve a collocation system by Newton's
method (Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., 2001;
Viswanath, SIAM Rev. 43 (2001) 478), continued from the small orbits about
the equilibrium l.  A global method has none of the e^{lambda t} growth of
round-off that limits shooting on these hyperbolic loops.

The homoclinic (even, positive, decaying) profile lives on the zero level
of the conserved energy, which pins v''(0) given the peak value, leaving a
one-parameter shooting problem resolved by a dichotomy bisection.  Its
shots are read only as 'turn' or 'cross', and since K2 > 0 there, one that
enters the forward-invariant dive cone {v < l, v' < 0, v'' <= 0, v''' <= 0}
is stopped there as a crossing.  The scan classifies its grid in order and
stops at the first sign change.  A shot only has to tell a turn from a
cross, so the scan and bisection run each shot at a DP tolerance that
tracks the bracket width (1e-2 width / v0, clipped to [1e-12, 1e-6]); the
ends of the final bracket are then confirmed by 1e-12 shots, and a search
with any verdict those overturn is redone at 1e-12 throughout.

Singularity classification compares the slowest linear decay rate of the
reduced equation against the Emden-Fowler weight exponent (n-4-alpha)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dynamics import (
    Event,
    OdeState,
    ReducedProblem,
    Trajectory,
    integrate,
)
from .errors import ConvergenceError, DomainError, RegimeError, ValidationError
from .params import ProblemParams, check_conditions, derive_coefficients

_SHOOT_TOL = 1e-12  # DP tolerance of every shot whose verdict find_homoclinic keeps
_MAX_SHOOT_TOL = 1e-6  # coarsest classification shot
_TOL_PER_WIDTH = 1e-2  # classification tolerance per relative bracket width
_MODES, _MAX_MODES = 32, 512  # first and largest Fourier truncation N
_TAIL_TOL = 1e-15  # last four coefficients over the largest, to accept N
_STEP_TOL = 1e-11  # relative Newton correction taken as converged
_MAX_NEWTON = 40
_MAX_RETRIES = 6  # halved continuation steps, in all, before giving up


def potential(s: float, K0: float, p: float) -> float:
    """G(s) = s^{p+1}/(p+1) - (K0/2) s^2, the on-axis part of the energy."""
    if s < 0.0:
        raise DomainError(f"potential evaluated at s={s} < 0")
    return s ** (p + 1.0) / (p + 1.0) - 0.5 * K0 * s * s


def linearized_frequency(K2: float, K0: float, p: float) -> float:
    """Angular frequency of small oscillations about the equilibrium l.

    Perturbations w about v = l obey w'''' - K2 w'' - (p-1) K0 w = 0, whose
    purely imaginary root pair gives omega^2 = (sqrt(K2^2+4(p-1)K0)-K2)/2.
    """
    if K0 <= 0.0:
        raise RegimeError(f"no positive equilibrium for K0={K0} <= 0")
    disc = math.sqrt(K2 * K2 + 4.0 * (p - 1.0) * K0)
    return math.sqrt(0.5 * (disc - K2))


@dataclass(frozen=True)
class PeriodicOrbit:
    """Even periodic orbit of the reduced equation with minimum a at t=0.

    The orbit is the cosine series v(t) = sum_k coefficients[k] cos(k omega t),
    which sample and rows evaluate.  newton_iterations, continuation_steps
    and modes count the work of the solve; to_dict leaves them out.
    """

    a: float
    b: float
    period: float
    max_value: float
    energy: float
    residual_sup: float
    in_proven_regime: bool
    energy_drift: float
    omega: float
    coefficients: np.ndarray = field(repr=False, compare=False)
    problem: ReducedProblem = field(repr=False, compare=False)
    newton_iterations: int = field(compare=False)
    continuation_steps: int = field(compare=False)

    @property
    def modes(self) -> int:
        return len(self.coefficients)

    def sample(self, t) -> np.ndarray:
        """States (v, v', v'', v''') of the series at time(s) t."""
        w = self.omega * np.arange(self.modes)
        phase = np.multiply.outer(np.asarray(t, dtype=float), w)
        cos, sin, c = np.cos(phase), np.sin(phase), self.coefficients
        states = [cos @ c, sin @ (-w * c), cos @ (-w ** 2 * c), sin @ (w ** 3 * c)]
        return np.stack(states, axis=-1) + 0.0  # + 0.0 turns -0.0 into 0.0

    def _grid(self):
        """Times, states and energies at 8 N + 1 uniform times over one period."""
        ts = np.linspace(0.0, self.period, 8 * self.modes + 1)
        states = self.sample(ts)
        return ts, states, self.problem.energy(states.T)

    def rows(self):
        """(t, v, dv, d2v, d3v, E) rows at 8 N + 1 uniform times over one period."""
        rows = np.column_stack(self._grid()).tolist()
        return ("t", "v", "dv", "d2v", "d3v", "E"), rows

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "period": self.period,
            "max_value": self.max_value,
            "energy": self.energy,
            "residual_sup": self.residual_sup,
            "in_proven_regime": self.in_proven_regime,
            "energy_drift": self.energy_drift,
        }


@dataclass(frozen=True)
class HomoclinicProfile:
    """Even, positive, decaying solution on the zero-energy level."""

    peak: float
    decay_rate: float
    samples: Trajectory = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"peak": self.peak, "decay_rate": self.decay_rate}


class Verdict(Enum):
    REMOVABLE = "Removable"
    NON_REMOVABLE = "NonRemovable"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class SingularityVerdict:
    """Removability of the origin singularity from linear decay rates."""

    verdict: Verdict
    rate_gap: float

    def to_dict(self) -> dict:
        return {"verdict": self.verdict.value, "rate_gap": self.rate_gap}


def _collocate(d: np.ndarray, omega: float, w0: float, l: float, K2: float, K0: float, p: float):
    """Newton's method for the collocation system at N = len(d) modes.

    The unknowns are omega and the coefficients d of w = v - l.  Since
    K0 l = l^p, the equation reads L[w] = K0 l expm1(p log1p(w/l)), whose
    round-off is relative to w rather than to l; otherwise a small orbit's
    period would carry an error of order 1e-16 / (1 - a/l).  Returns (d,
    omega, iterations, residual).  The iteration stops once a correction is
    at round-off level, or after _MAX_NEWTON steps; residual is the sup of
    the collocation residual over the sup of v^p at the nodes, and inf when
    the Jacobian is singular or a correction is not finite.
    """
    n = len(d)
    k = np.arange(n, dtype=float)
    k2, k4 = k * k, k ** 4
    cos = np.cos(np.outer(np.pi * (np.arange(n) + 0.5) / n, k))
    jac = np.zeros((n + 1, n + 1))
    jac[n, :n] = 1.0
    rhs = np.empty(n + 1)
    converged = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iteration in range(_MAX_NEWTON + 1):
            symbol = omega ** 4 * k4 + K2 * omega ** 2 * k2 + K0
            x = np.maximum(cos @ d / l, -1.0)
            rhs[:n] = cos @ (symbol * d) - K0 * l * np.expm1(p * np.log1p(x))
            if converged or iteration == _MAX_NEWTON:
                break
            rhs[n] = d.sum() - w0
            jac[:n, :n] = cos * symbol - (p * K0 * (1.0 + x) ** (p - 1.0))[:, None] * cos
            jac[:n, n] = cos @ ((4.0 * omega ** 3 * k4 + 2.0 * K2 * omega * k2) * d)
            try:
                step = np.linalg.solve(jac, -rhs)
            except np.linalg.LinAlgError:
                return d, omega, iteration + 1, math.inf
            if not np.all(np.isfinite(step)):
                return d, omega, iteration + 1, math.inf
            d = d + step[:n]
            omega += step[n]
            converged = (np.max(np.abs(step[:n])) <= _STEP_TOL * np.max(np.abs(d))
                         and abs(step[n]) <= _STEP_TOL * omega)
        residual = float(np.max(np.abs(rhs[:n])) / (K0 * l * np.max((1.0 + x) ** p)))
    return d, omega, iteration, residual


def find_periodic(a: float, params: ProblemParams, tol: float = 1e-8) -> PeriodicOrbit:
    """Periodic orbit whose minimum value is a, by Fourier collocation.

    The orbit is even about its minimum at t = 0 and about the half period,
    so v(t) = sum_{k<N} c_k cos(k tau) with tau = omega t.  The N equations
    omega^4 v'''' - K2 omega^2 v'' + K0 v - max(v, 0)^p = 0 (derivatives in
    tau) at tau_j = pi (j + 1/2) / N and sum_k c_k = v(0) = a determine
    (c, omega); Newton's method solves them with the analytic Jacobian,
    written for w = v - l (see _collocate).  The minimum a is reached by
    continuation in eps = 1 - a/l, doubling eps from min(1e-3, 1 - a/l)
    and starting from the linearized orbit c_0 = l, c_1 = -eps l, omega =
    linearized_frequency.  A step on which Newton fails (a singular
    Jacobian, a non-finite correction, a relative residual above tol) is
    halved and tried again.  N starts at 32 and doubles, from the last
    orbit, until the last four coefficients of w are below 1e-15 of its
    largest.  period = 2 pi / omega, b = v''(0) and max_value = v(pi/omega)
    are read off the coefficients.  Raises ConvergenceError after the
    sixth halving or when N would pass 512, ValidationError for a outside
    (0, l) or tol outside (0, 1e-4], RegimeError when no positive
    equilibrium exists.
    """
    coeff = derive_coefficients(params)
    problem = ReducedProblem(coeff.K2, coeff.K0, params.p)
    if coeff.K0 <= 0.0:
        raise RegimeError(
            f"periodic orbits require a positive equilibrium (K0={coeff.K0} <= 0)"
        )
    l = coeff.l
    if not (0.0 < a < l):
        raise ValidationError(f"minimum value a={a} must lie strictly inside (0, {l})")
    if not (0.0 < tol <= 1e-4):
        raise ValidationError(f"Newton residual tolerance {tol} out of range (0, 1e-4]")

    report = check_conditions(params)
    in_regime = report.periodicity_regime or report.uniqueness_ok

    K2, K0, p = problem.K2, problem.K0, problem.p
    eps_target = 1.0 - a / l
    eps = min(1e-3, eps_target)
    d = np.zeros(_MODES)
    d[1] = -eps * l
    omega = linearized_frequency(K2, K0, p)
    done = 0.0  # eps of the last orbit solved; 0 is the equilibrium
    iterations = steps = retries = 0
    while True:
        w0 = a - l if eps >= eps_target else -eps * l
        trial, trial_omega, its, residual = _collocate(d, omega, w0, l, K2, K0, p)
        iterations += its
        where = f"at 1 - v(0)/l = {eps:.6g} with N={len(d)}"
        if not residual <= tol:
            # halve the continuation step
            retries += 1
            if retries > _MAX_RETRIES:
                raise ConvergenceError(
                    f"collocation residual {residual:.3e} did not reach tol={tol:.3e} {where}"
                )
            eps = 0.5 * (done + eps)
            continue
        if np.max(np.abs(trial[-4:])) > _TAIL_TOL * np.max(np.abs(trial)):
            # solve again with twice the modes, from the last orbit
            if 2 * len(d) > _MAX_MODES:
                raise ConvergenceError(f"Fourier tail still above 1e-15 {where}")
            d = np.concatenate([d, np.zeros_like(d)])
            continue
        d, omega, done = trial, trial_omega, eps
        steps += 1
        if eps >= eps_target:
            break
        eps = min(eps_target, 2.0 * eps)

    k = np.arange(len(d), dtype=float)
    b = float(-omega * omega * np.sum(k * k * d))
    energy0 = float(problem.energy((a, 0.0, b, 0.0)))
    c = d.copy()
    c[0] += l
    orbit = PeriodicOrbit(
        a=float(a),
        b=b,
        period=float(2.0 * math.pi / omega),
        max_value=float(l + np.sum(np.where(k % 2 == 0, d, -d))),
        energy=energy0,
        residual_sup=residual,
        in_proven_regime=bool(in_regime),
        energy_drift=0.0,
        omega=float(omega),
        coefficients=c,
        problem=problem,
        newton_iterations=iterations,
        continuation_steps=steps,
    )
    drift = np.max(np.abs(orbit._grid()[2] - energy0))
    return replace(orbit, energy_drift=float(drift))


def _dive_cone(problem: ReducedProblem):
    """Test for the dive cone {v < l, v' < 0, v'' <= 0, v''' <= 0}.

    The cone is forward invariant for K2 > 0 (see find_homoclinic).  v is
    compared with l (1 - 1e-12) rather than l, so that the rounding in
    l = K0^{1/(p-1)} cannot admit a state with v >= l.
    """
    v_max = problem.K0 ** (1.0 / (problem.p - 1.0)) * (1.0 - 1e-12)
    return lambda y: y[0] < v_max and y[1] < 0.0 and y[2] <= 0.0 and y[3] <= 0.0


def _classify_homoclinic_shot(
    problem: ReducedProblem, v0: float, t_max: float, floor: float, tol: float, dive=None
):
    """One zero-energy shot from the peak at DP tolerance tol; returns
    ('turn'|'cross', trajectory).

    A shot whose peak exceeds the homoclinic value turns back up at a
    positive local minimum ('turn'); a shot below it tracks the profile for
    a while and then dives through v = 0 ('cross').  The profile itself is
    the boundary between the two behaviors.  A shot that reaches v = 0, the
    floor, or the dive predicate (integrate's escaped hook) is a crossing;
    one that blows up, reaches a local minimum or runs to t_max turns.
    """
    g0 = potential(v0, problem.K0, problem.p)
    if g0 > 0.0:
        return "turn", None
    b0 = -math.sqrt(-2.0 * g0)
    ev_min = Event("local_min", lambda t, y: y[1], direction=+1)
    ev_floor = Event("v_floor", lambda t, y: y[0] - floor, direction=-1)
    traj = integrate(
        OdeState(0.0, (v0, 0.0, b0, 0.0)),
        t_max,
        tol,
        problem,
        events=(ev_min, ev_floor),
        max_step=0.25,
        escaped=dive,
    )
    crossed = traj.stop_reason in ("domain", "escape") or traj.event_name == "v_floor"
    return ("cross" if crossed else "turn"), traj


def _coarse_tol(width: float, v0: float) -> float:
    """DP tolerance of a classification shot at v0 inside a bracket of this width."""
    return min(_MAX_SHOOT_TOL, max(_SHOOT_TOL, _TOL_PER_WIDTH * width / v0))


def _bracket_transition(classify, l: float, s_star: float, shot_tol):
    """Scan and bisect (l, s*) for the turn -> cross transition of classify.

    The scan classifies 24 points down from s* - m to l + m in order, for
    m = 1e-6 (s* - l), then 1e-2 and 1e-4 times that, and stops at its
    first turn -> cross pair; bisection then halves that bracket until its
    width is at most 1e-14 max(1, v).  Each point is classified at
    shot_tol(width, v0), width being the grid spacing in the scan and the
    bracket width in the bisection.  Returns ((v_lo, tol_lo), (v_hi,
    tol_hi)), the crossing and turning ends with the tolerance of their last
    verdicts, or None when no scan finds the transition.
    """
    margin = 1e-6 * (s_star - l)
    bracket = None
    for shrink in range(3):
        m = margin * 10.0 ** (-2 * shrink)
        grid = [float(v) for v in np.linspace(s_star - m, l + m, 24)]
        spacing = grid[0] - grid[1]
        tol_prev = shot_tol(spacing, grid[0])
        kind_prev = classify(grid[0], tol_prev)
        for v_prev, v in zip(grid, grid[1:]):
            tol = shot_tol(spacing, v)
            kind = classify(v, tol)
            if kind_prev == "turn" and kind == "cross":
                bracket = [v, tol, v_prev, tol_prev]
                break
            kind_prev, tol_prev = kind, tol
        if bracket is not None:
            break
    if bracket is None:
        return None

    v_lo, tol_lo, v_hi, tol_hi = bracket  # crossing side below, turning side above
    for _ in range(70):
        width = v_hi - v_lo
        if width <= 1e-14 * max(1.0, v_hi):
            break
        mid = 0.5 * (v_lo + v_hi)
        tol = shot_tol(width, mid)
        if classify(mid, tol) == "cross":
            v_lo, tol_lo = mid, tol
        else:
            v_hi, tol_hi = mid, tol
    return (v_lo, tol_lo), (v_hi, tol_hi)


def find_homoclinic(params: ProblemParams) -> HomoclinicProfile:
    """Even decaying profile on the zero-energy level, by dichotomy shooting.

    The peak v(0) is searched in (l, s*) where s* is the positive zero of
    the potential G; v''(0) is fixed by E = 0.  Shots above the profile
    turn back up at a positive local minimum, shots below it cross zero;
    the profile sits on the boundary between the two behaviors.  A
    classification shot stops as a crossing once it enters the dive cone
    D = {v < l, v' < 0, v'' <= 0, v''' <= 0}: there K2 > 0 and 0 <= v < l
    give v'''' = K2 v'' + v (v^{p-1} - K0) <= 0, so v''', v'', v' and v
    never increase, v' <= v'(t_e) < 0 never returns to 0 (no local minimum)
    and v reaches 0 by t_e + v(t_e)/|v'(t_e)|, as the full shot would.  The
    scan stops at its first turn -> cross pair, the only one it reads, and
    the final shot at the peak runs without the cone.

    A point v0 in a bracket of width w is classified at DP tolerance
    min(1e-6, max(_SHOOT_TOL, 1e-2 w / v0)) (_coarse_tol): the step count
    grows like tol^(-1/5), and a shot whose peak lies far from the root
    tells a turn from a cross at a loose tolerance, so only the last dozen
    or so bisection shots, with w / v0 below 1e-10, run at _SHOOT_TOL =
    1e-12.  Certification: each end of the final bracket whose last verdict
    came from a coarser shot is shot again at _SHOOT_TOL, and if either
    verdict changes, the scan and bisection are redone with every shot at
    _SHOOT_TOL, as is a coarse search that finds no transition.  So both
    ends of the bracket that yields the peak carry 1e-12 verdicts.  Where
    the 1e-12 verdicts change once near the root, a wrong coarse verdict
    leaves that change outside the bracket; every later verdict then moves
    the other end towards the wrong one, which stays an end of the final
    bracket, and its re-shot sends the search to the fallback.

    The returned samples are truncated a safety margin before the shot
    departs along the unstable direction, and the decay rate is a
    least-squares log-slope over the trailing fifth.
    """
    coeff = derive_coefficients(params)
    K2, K0, p = coeff.K2, coeff.K0, params.p
    if K2 <= 0.0 or K0 <= 0.0:
        raise RegimeError(f"homoclinic profile requires K2 > 0 and K0 > 0, got K2={K2}, K0={K0}")
    if coeff.discriminant < 0.0:
        raise RegimeError(
            f"uniqueness regime requires K2^2 - 4 K0 >= 0, got {coeff.discriminant}"
        )
    problem = ReducedProblem(K2, K0, p)
    lam1 = math.sqrt(0.5 * (K2 + math.sqrt(coeff.discriminant)))
    lam2 = math.sqrt(0.5 * (K2 - math.sqrt(coeff.discriminant)))
    l = K0 ** (1.0 / (p - 1.0))
    s_star = (0.5 * (p + 1.0) * K0) ** (1.0 / (p - 1.0))
    t_max = 80.0 / lam2

    floor_frac = 1e-10
    dive = _dive_cone(problem)

    def classify(v0: float, tol: float) -> str:
        kind, _ = _classify_homoclinic_shot(problem, v0, t_max, floor_frac * v0, tol, dive)
        return kind

    found = _bracket_transition(classify, l, s_star, _coarse_tol)
    if found is not None:
        (v_lo, tol_lo), (v_hi, tol_hi) = found
        if (tol_lo > _SHOOT_TOL and classify(v_lo, _SHOOT_TOL) != "cross") or (
            tol_hi > _SHOOT_TOL and classify(v_hi, _SHOOT_TOL) != "turn"
        ):
            found = None
    if found is None:
        found = _bracket_transition(classify, l, s_star, lambda width, v0: _SHOOT_TOL)
    if found is None:
        raise ConvergenceError(
            f"dichotomy scan found no turn/cross transition on ({l}, {s_star})"
        )

    (v_lo, _), (v_hi, _) = found
    peak = 0.5 * (v_lo + v_hi)
    kind, traj = _classify_homoclinic_shot(problem, peak, t_max, floor_frac * peak, _SHOOT_TOL)
    if traj is None or len(traj.ts) < 8:
        raise ConvergenceError("homoclinic shot produced no usable trajectory")

    # Truncate before the unstable direction takes over.
    delta = 8.0 / (lam1 + lam2)
    t_stop = float(traj.ts[-1])
    t_keep = t_stop - delta
    if t_keep <= 0.0:
        raise ConvergenceError(
            f"homoclinic trajectory too short to truncate (t_stop={t_stop}, margin={delta})"
        )
    keep = traj.ts <= t_keep
    if int(np.sum(keep)) < 8:
        raise ConvergenceError("too few homoclinic samples after truncation")
    kept = Trajectory(
        problem=problem,
        ts=traj.ts[keep].copy(),
        ys=traj.ys[keep].copy(),
        n_accepted=traj.n_accepted,
        n_rejected=traj.n_rejected,
        stop_reason="truncated",
    )

    span = kept.ts[-1] - kept.ts[0]
    tail = kept.ts >= kept.ts[-1] - 0.2 * span
    tv = kept.ts[tail]
    vv = kept.ys[tail, 0]
    ok = vv > 1e-12
    tv, vv = tv[ok], vv[ok]
    if len(tv) < 4:
        raise ConvergenceError("too few tail samples for the decay fit")
    slope = float(np.polyfit(tv, np.log(vv), 1)[0])
    decay_rate = -slope

    return HomoclinicProfile(peak=float(peak), decay_rate=float(decay_rate), samples=kept)


def classify_singularity(params: ProblemParams) -> SingularityVerdict:
    """Removability of the origin singularity from the slowest decay rate.

    The reduced solution decays like e^{lam4 t}; back in radial variables
    u ~ r^{lam4 + (n-4-alpha)/2} near r = 0, so the gap
    rate_gap = (n-4-alpha)/2 - (-lam4) decides: positive means u blows up
    at the origin (NonRemovable), within 1e-12 of zero is the borderline
    (Boundary), negative means u extends continuously (Removable).
    """
    coeff = derive_coefficients(params)
    eigs = coeff.eigenvalues
    if any(isinstance(e, complex) for e in eigs):
        raise RegimeError(
            "decay-rate classification requires real characteristic roots; "
            f"got {eigs} for K2={coeff.K2}, K0={coeff.K0}"
        )
    lam4 = float(eigs[3])
    half_rate = 0.5 * (params.n - 4.0 - params.alpha)
    rate_gap = half_rate - (-lam4)
    if abs(rate_gap) <= 1e-12:
        verdict = Verdict.BOUNDARY
    elif rate_gap > 0.0:
        verdict = Verdict.NON_REMOVABLE
    else:
        verdict = Verdict.REMOVABLE
    return SingularityVerdict(verdict=verdict, rate_gap=float(rate_gap))
