"""Orbit solvers for the reduced equation: periodic, homoclinic, decay rates.

Periodic orbits with a prescribed minimum a use the even-symmetry structure
of the equation: at an extremum both odd derivatives vanish, so the orbit
is determined by the single unknown b = v''(0) and the matching condition
is v''' = 0 at the next extremum.  The scan and the bisection read only
the sign of each shot, and a shot that cannot reach a turning point is an
upward escape; when K2 >= 0, one that enters the forward-invariant cone
{v >= l, v' > 0, v'' >= 0, v''' >= 0} is stopped there instead of being
integrated on to blow-up or the time limit.  The homoclinic (even, positive,
decaying) profile lives on the zero level of the conserved energy, which
pins v''(0) given the peak value, leaving a one-parameter shooting problem
resolved by a dichotomy bisection.  Its shots are read only as 'turn' or
'cross', and since K2 > 0 there, one that enters the forward-invariant dive
cone {v < l, v' < 0, v'' <= 0, v''' <= 0} is stopped there as a crossing.
Both scans classify their grid in order and stop at the first sign change.
Singularity classification compares
the slowest linear decay rate of the reduced equation against the
Emden-Fowler weight exponent (n-4-alpha)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .dynamics import (
    Event,
    OdeState,
    ReducedProblem,
    Trajectory,
    integrate,
)
from .errors import (
    BlowUpError,
    BracketError,
    ConvergenceError,
    DomainError,
    RegimeError,
    TrajectoryDomainError,
    ValidationError,
)
from .params import ProblemParams, check_conditions, derive_coefficients

_SHOOT_TOL = 1e-12


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
    """Even periodic orbit of the reduced equation with minimum a at t=0."""

    a: float
    b: float
    period: float
    max_value: float
    energy: float
    residual_sup: float
    in_proven_regime: bool
    energy_drift: float
    trajectory: Trajectory = field(repr=False, compare=False)

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


class _ShotOutcome:
    """Result of one half-period shot: matching value or escape class."""

    __slots__ = ("kind", "value", "t_star", "y_star")

    def __init__(self, kind, value=math.nan, t_star=math.nan, y_star=None):
        self.kind = kind  # "matched" | "escape_up" | "escape_down"
        self.value = value
        self.t_star = t_star
        self.y_star = y_star

    @property
    def sign(self) -> float:
        if self.kind == "matched":
            return math.copysign(1.0, self.value) if self.value != 0.0 else 0.0
        return 1.0 if self.kind == "escape_up" else -1.0


def _escape_cone(problem: ReducedProblem):
    """Test for the escape cone {v >= l, v' > 0, v'' >= 0, v''' >= 0}; None if K2 < 0.

    The cone is forward invariant only for K2 >= 0 (see find_periodic).  v
    is compared with l (1 + 1e-12) rather than l, so that the rounding in
    l = K0^{1/(p-1)} cannot admit a state that lies outside the true cone.
    """
    if problem.K2 < 0.0:
        return None
    v_min = problem.K0 ** (1.0 / (problem.p - 1.0)) * (1.0 + 1e-12)
    return lambda y: y[0] >= v_min and y[1] > 0.0 and y[2] >= 0.0 and y[3] >= 0.0


def _shoot_half_period(problem: ReducedProblem, a: float, b: float, t_max: float) -> _ShotOutcome:
    """Integrate from the minimum (a,0,b,0) to the first falling v'=0.

    A shot that enters the escape cone stops there: it can no longer turn,
    so it is an upward escape, as its full run to blow-up or t_max would be.
    """
    ev = Event("turning_point", lambda t, y: y[1], direction=-1)
    omega = linearized_frequency(problem.K2, problem.K0, problem.p)
    # Keep the first node well before a sharp turning point for large b.
    max_step = min(0.05 * math.pi / omega, 0.1 * math.sqrt(max(a, 1e-3) / max(b, 1.0)))
    try:
        traj = integrate(
            OdeState(0.0, (a, 0.0, b, 0.0)),
            t_max,
            _SHOOT_TOL,
            problem,
            events=(ev,),
            max_step=max_step,
            escaped=_escape_cone(problem),
        )
    except BlowUpError:
        return _ShotOutcome("escape_up")
    except TrajectoryDomainError:
        return _ShotOutcome("escape_down")
    if traj.event_name is None:
        return _ShotOutcome("escape_up")
    y_star = traj.ys[-1]
    return _ShotOutcome("matched", float(y_star[3]), float(traj.ts[-1]), y_star)


def find_periodic(
    a: float,
    params: ProblemParams,
    tol: float = 1e-8,
    b_hint: Optional[float] = None,
) -> PeriodicOrbit:
    """Periodic orbit whose minimum value is a, by shooting on b = v''(0).

    The scan interval for b starts at [1e-6, b_cap] with b_cap set by the
    zero-energy cap (1/2) b_cap^2 = -G(a) and doubles on bracket failure up
    to 8 times.  The matching function F(b) = v'''(t*) at the first falling
    root of v' is driven below tol by bisection plus a secant polish.
    A shot with no such root escapes upward (blow-up, or no turn by t_max)
    or downward (v reaches 0).  For K2 >= 0 an upward escape is known as
    soon as the shot enters the cone {v >= l, v' > 0, v'' >= 0, v''' >= 0}:
    there v'''' = K2 v'' + v (v^{p-1} - K0) >= 0, so v''', v'', v' and v
    never decrease and v' never returns to 0.  The shot stops there, and
    since only its sign is read, the result is the same as integrating it
    to the end.  Raises BracketError when F never changes sign,
    ConvergenceError when the residual tolerance cannot be met,
    ValidationError for a outside (0, l), RegimeError when no positive
    equilibrium exists.
    """
    problem = ReducedProblem.from_params(params)
    coeff = derive_coefficients(params)
    if coeff.K0 <= 0.0:
        raise RegimeError(
            f"periodic orbits require a positive equilibrium (K0={coeff.K0} <= 0)"
        )
    l = coeff.l
    if not (0.0 < a < l):
        raise ValidationError(f"minimum value a={a} must lie strictly inside (0, {l})")
    if not (0.0 < tol <= 1e-4):
        raise ValidationError(f"matching tolerance {tol} out of range (0, 1e-4]")

    report = check_conditions(params)
    in_regime = report.periodicity_regime or report.uniqueness_ok

    omega = linearized_frequency(problem.K2, problem.K0, problem.p)
    t_max = 200.0 / omega
    g_a = potential(a, problem.K0, problem.p)
    b_cap = math.sqrt(max(-2.0 * g_a, 1e-12))

    def shoot(b: float) -> _ShotOutcome:
        return _shoot_half_period(problem, a, b, t_max)

    bracket = None
    shots = {}

    def classify(b: float) -> _ShotOutcome:
        if b not in shots:
            shots[b] = shoot(b)
        return shots[b]

    candidates: List[Tuple[float, float]] = []
    if b_hint is not None and b_hint > 0.0:
        candidates.append((max(b_hint / 2.0, 1e-9), b_hint * 2.0))
    lo0 = 1e-6
    hi0 = max(b_cap, 10.0 * lo0)
    for expansion in range(9):
        candidates.append((lo0, hi0 * 2.0 ** expansion))

    for lo, hi in candidates:
        grid = [float(b) for b in np.linspace(lo, hi, 17)]
        s_prev = classify(grid[0]).sign
        for b_prev, b in zip(grid, grid[1:]):
            if s_prev == 0.0:
                bracket = (b_prev, b_prev)
                break
            s = classify(b).sign
            if s != 0.0 and s != s_prev:
                bracket = (b_prev, b)
                break
            s_prev = s
        if bracket is not None:
            break
    if bracket is None:
        raise BracketError(
            f"matching function has no sign change for b in [1e-06, {hi0 * 2.0 ** 8:g}] at a={a}"
        )

    b_lo, b_hi = bracket
    s_lo = classify(b_lo).sign
    for _ in range(90):
        if b_hi - b_lo <= 1e-15 * max(1.0, b_hi):
            break
        mid = 0.5 * (b_lo + b_hi)
        s_mid = classify(mid).sign
        if s_mid == 0.0:
            b_lo = b_hi = mid
            break
        if s_mid == s_lo:
            b_lo = mid
        else:
            b_hi = mid

    best_b = 0.5 * (b_lo + b_hi)
    best = classify(best_b) if best_b in shots else shoot(best_b)
    if best.kind != "matched":
        for cand in (b_lo, b_hi):
            out = classify(cand)
            if out.kind == "matched":
                best_b, best = cand, out
                break
    if best.kind != "matched":
        raise ConvergenceError(f"shooting failed to produce a turning point near b={best_b}")

    # Secant polish on the matched residual.
    prev_b, prev_f = None, None
    cur_b, cur_f = best_b, best.value
    for _ in range(8):
        if abs(cur_f) < tol * 1e-2:
            break
        if prev_b is not None and cur_f != prev_f:
            step = cur_f * (cur_b - prev_b) / (cur_f - prev_f)
            nxt = cur_b - step
        else:
            nxt = cur_b * (1.0 + 1e-9) + 1e-12
        if not (0.0 < nxt):
            break
        out = shoot(nxt)
        if out.kind != "matched":
            break
        prev_b, prev_f = cur_b, cur_f
        cur_b, cur_f = nxt, out.value
        if abs(cur_f) < abs(best.value):
            best_b, best = nxt, out

    residual = abs(best.value)
    if residual >= tol:
        raise ConvergenceError(
            f"matching residual |v'''(t*)|={residual:.3e} did not reach tol={tol:.3e} at a={a}"
        )

    t_half = best.t_star
    period = 2.0 * t_half
    max_value = float(best.y_star[0])
    y0 = OdeState(0.0, (a, 0.0, best_b, 0.0))
    energy0 = problem.energy(y0.y)
    traj = integrate(y0, period, 1e-11, problem)
    drift = float(np.max(np.abs(traj.energies - energy0)))

    return PeriodicOrbit(
        a=float(a),
        b=float(best_b),
        period=float(period),
        max_value=max_value,
        energy=float(energy0),
        residual_sup=float(residual),
        in_proven_regime=bool(in_regime),
        energy_drift=drift,
        trajectory=traj,
    )


def _dive_cone(problem: ReducedProblem):
    """Test for the dive cone {v < l, v' < 0, v'' <= 0, v''' <= 0}.

    The cone is forward invariant for K2 > 0 (see find_homoclinic).  v is
    compared with l (1 - 1e-12) rather than l, so that the rounding in
    l = K0^{1/(p-1)} cannot admit a state with v >= l.
    """
    v_max = problem.K0 ** (1.0 / (problem.p - 1.0)) * (1.0 - 1e-12)
    return lambda y: y[0] < v_max and y[1] < 0.0 and y[2] <= 0.0 and y[3] <= 0.0


def _classify_homoclinic_shot(
    problem: ReducedProblem, v0: float, t_max: float, floor: float, dive=None
):
    """One zero-energy shot from the peak; returns ('turn'|'cross', trajectory).

    A shot whose peak exceeds the homoclinic value turns back up at a
    positive local minimum ('turn'); a shot below it tracks the profile for
    a while and then dives through v = 0 ('cross').  The profile itself is
    the boundary between the two behaviors.  A shot stopped by the dive
    predicate (integrate's escaped hook) is a crossing.
    """
    g0 = potential(v0, problem.K0, problem.p)
    if g0 > 0.0:
        return "turn", None
    b0 = -math.sqrt(-2.0 * g0)
    ev_min = Event("local_min", lambda t, y: y[1], direction=+1)
    ev_floor = Event("v_floor", lambda t, y: y[0] - floor, direction=-1)
    try:
        traj = integrate(
            OdeState(0.0, (v0, 0.0, b0, 0.0)),
            t_max,
            _SHOOT_TOL,
            problem,
            events=(ev_min, ev_floor),
            max_step=0.25,
            escaped=dive,
        )
    except BlowUpError as exc:
        return "turn", exc.trajectory
    except TrajectoryDomainError as exc:
        return "cross", exc.trajectory
    if traj.event_name == "local_min":
        return "turn", traj
    if traj.event_name == "v_floor" or traj.stop_reason[0] == "escape":
        return "cross", traj
    return "turn", traj


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
    the final shot at the peak runs without the cone.  The returned samples
    are truncated a safety margin before the shot departs along the
    unstable direction, and the decay rate is a least-squares log-slope
    over the trailing fifth.
    """
    coeff = derive_coefficients(params)
    K2, K0, p = coeff.K2, coeff.K0, params.p
    if K2 <= 0.0 or K0 <= 0.0:
        raise RegimeError(f"homoclinic profile requires K2 > 0 and K0 > 0, got K2={K2}, K0={K0}")
    if K2 * K2 - 4.0 * K0 < 0.0:
        raise RegimeError(
            f"uniqueness regime requires K2^2 - 4 K0 >= 0, got {K2 * K2 - 4.0 * K0}"
        )
    problem = ReducedProblem(K2, K0, p)
    lam1 = math.sqrt(0.5 * (K2 + math.sqrt(K2 * K2 - 4.0 * K0)))
    lam2 = math.sqrt(0.5 * (K2 - math.sqrt(K2 * K2 - 4.0 * K0)))
    l = K0 ** (1.0 / (p - 1.0))
    s_star = (0.5 * (p + 1.0) * K0) ** (1.0 / (p - 1.0))
    t_max = 80.0 / lam2

    margin = 1e-6 * (s_star - l)
    floor_frac = 1e-10

    dive = _dive_cone(problem)

    def classify(v0: float) -> str:
        kind, _ = _classify_homoclinic_shot(problem, v0, t_max, floor_frac * v0, dive)
        return kind

    bracket = None
    for shrink in range(3):
        m = margin * 10.0 ** (-2 * shrink)
        grid = [float(v) for v in np.linspace(s_star - m, l + m, 24)]
        kind_prev = classify(grid[0])
        for v_prev, v in zip(grid, grid[1:]):
            kind = classify(v)
            if kind_prev == "turn" and kind == "cross":
                bracket = (v, v_prev)
                break
            kind_prev = kind
        if bracket is not None:
            break
    if bracket is None:
        raise ConvergenceError(
            f"dichotomy scan found no turn/cross transition on ({l}, {s_star})"
        )

    v_lo, v_hi = bracket  # crossing side below, turning side above
    for _ in range(70):
        if v_hi - v_lo <= 1e-14 * max(1.0, v_hi):
            break
        mid = 0.5 * (v_lo + v_hi)
        if classify(mid) == "cross":
            v_lo = mid
        else:
            v_hi = mid

    peak = 0.5 * (v_lo + v_hi)
    kind, traj = _classify_homoclinic_shot(problem, peak, t_max, floor_frac * peak)
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
        fs=traj.fs[keep].copy(),
        n_accepted=traj.n_accepted,
        n_rejected=traj.n_rejected,
        stop_reason=("truncated", t_keep),
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
