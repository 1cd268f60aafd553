"""Reduced-equation dynamics: first-order system, adaptive integration, events.

The fourth-order equation v'''' - K2 v'' + K0 v = v^p is integrated as the
first-order system y = (v, v', v'', v''').  The integrator is an embedded
Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett & Wanner,
Solving ODEs I, II.4) with PI step-size control and terminal events
refined by bisection with single-step re-integration from the bracketing
node, so event states carry the full integration accuracy.

Every step -- in the integration loop and in event refinement -- goes
through one scalar kernel, ``_dp5_step``: its seven
stages are unrolled on four Python floats with the right-hand side
inlined, because numpy's per-call overhead on 4-element arrays costs more
than the arithmetic.  Accepted nodes collect in plain lists and become the
``Trajectory`` arrays once, when the run ends.

The flow conserves the first integral

    E(y) = -v' v''' + (v'')^2/2 + K2 (v')^2/2 - K0 v^2/2 + v^{p+1}/(p+1),

which every trajectory monitors at its nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

_BLOWUP_BOUND = 1e12
_MIN_TOL, _MAX_TOL = 1e-13, 1e-6

State = Tuple[float, float, float, float]

# Dormand-Prince 5(4) tableau (FSAL): stage i is evaluated at
# y + h * sum_j _Aij k_j, and the seventh stage sits at the new solution.
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0,
)
_A71, _A73, _A74, _A75, _A76 = (
    35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0,
)
# Error weights: 5th-order solution minus 4th-order embedded estimate.
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)


@dataclass(frozen=True)
class OdeState:
    """Phase point (t, (v, v', v'', v''')) of the reduced system."""

    t: float
    y: State

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        y = tuple(float(c) for c in self.y)
        if len(y) != 4:
            raise ValidationError(f"state vector must have 4 components, got {len(y)}")
        object.__setattr__(self, "y", y)


class ReducedProblem:
    """Coefficient carrier (K2, K0, p) for the reduced equation."""

    def __init__(self, K2: float, K0: float, p: float):
        if not p > 1.0:
            raise ValidationError(f"exponent p must exceed 1, got p={p}")
        self.K2 = float(K2)
        self.K0 = float(K0)
        self.p = float(p)

    def energy(self, y) -> float:
        return energy(y, self.K2, self.K0, self.p)

    def __repr__(self):
        return f"ReducedProblem(K2={self.K2}, K0={self.K0}, p={self.p})"


def _domain_error(v: float) -> DomainError:
    return DomainError(f"rhs evaluated at v={v} < 0; nonlinearity undefined")


def _field(y, K2: float, K0: float, p: float) -> State:
    """Right-hand side as a 4-tuple of floats; requires v >= 0."""
    v = y[0]
    if v < 0.0:
        raise _domain_error(v)
    return (y[1], y[2], y[3], v ** p + K2 * y[2] - K0 * v)


# Not called in the package: a target of perfbench/tracer.py, which counts its calls.
def rhs(y, K2: float, K0: float, p: float) -> np.ndarray:
    """Right-hand side of the first-order system; requires v >= 0."""
    if isinstance(y, OdeState):
        y = y.y
    return np.array(_field(y, K2, K0, p), dtype=float)


def energy(y, K2: float, K0: float, p: float) -> float:
    """Conserved first integral; requires v >= 0.

    y may also be a (4, M) array of M states, for an array of M energies,
    each equal bit for bit to the energy of its state alone.
    """
    if isinstance(y, OdeState):
        y = y.y
    v = y[0]
    power = pow
    if isinstance(v, np.ndarray):
        if np.min(v) < 0.0:
            raise DomainError(f"energy evaluated at v={np.min(v)} < 0")
        # numpy's array power does not round as the libm pow behind a scalar
        # ** does (x ** 2 is x * x, and v ** 6.0 runs a SIMD loop on AVX-512),
        # so each node takes the scalar ** and gets the digits it gets alone.
        def power(x, e):
            return np.array([c ** e for c in x.tolist()])
    elif v < 0.0:  # a scalar state, compared directly: np.min on it costs microseconds
        raise DomainError(f"energy evaluated at v={v} < 0")
    return (
        -y[1] * y[3]
        + 0.5 * power(y[2], 2)
        + 0.5 * K2 * power(y[1], 2)
        - 0.5 * K0 * v * v
        + power(v, p + 1.0) / (p + 1.0)
    )


@dataclass(frozen=True)
class Event:
    """Terminal event: integration stops at the first root of fn.

    fn(t, y) receives the state y as a 4-tuple of floats (v, v', v'', v'''),
    so it may index y but not apply array operations to it.  direction +1
    triggers on rising crossings (g goes from < 0 to >= 0), -1 on falling
    crossings, 0 on both.  A g that starts at exactly zero does not trigger
    until it has left zero first.
    """

    name: str
    fn: Callable[[float, State], float]
    direction: int = 0


@dataclass
class Trajectory:
    """Accepted integration nodes, step counts and how the run stopped.

    stop_reason names the ending (see integrate), and the run stops at ts[-1].
    """

    problem: ReducedProblem
    ts: np.ndarray
    ys: np.ndarray
    n_accepted: int
    n_rejected: int
    stop_reason: str
    event_name: Optional[str] = None

    @property
    def energies(self) -> np.ndarray:
        return energy(self.ys.T, self.problem.K2, self.problem.K0, self.problem.p)

    def rows(self):
        """(t, v, dv, d2v, d3v, E) rows for CSV output."""
        rows = np.column_stack((self.ts, self.ys, self.energies)).tolist()
        return ("t", "v", "dv", "d2v", "d3v", "E"), rows


def _dp5_step(y: State, f: State, h: float, K2: float, K0: float, p: float):
    """One Dormand-Prince 5(4) step of size h from y, where f is the RHS at y.

    Returns (y_new, f_new, err) as 4-tuples: the 5th-order solution, the
    RHS there (the FSAL seventh stage) and the embedded error estimate.  A
    stage with v < 0 raises DomainError; a stage whose v**p overflows
    raises OverflowError.  Every sum associates left to right in tableau
    order, as a loop over the tableau would, so results are reproducible
    bit for bit; unrolling must keep that order.  The stage derivative
    k = (z1, z2, z3, z0**p + K2 z2 - K0 z0) of a stage state z shares its
    first three entries with z, so only z0 is kept apart.
    """
    y0, y1, y2, y3 = y
    k10, k11, k12, k13 = f

    v = y0 + h * (_A21 * k10)
    k20 = y1 + h * (_A21 * k11)
    k21 = y2 + h * (_A21 * k12)
    k22 = y3 + h * (_A21 * k13)
    if v < 0.0:
        raise _domain_error(v)
    k23 = v ** p + K2 * k21 - K0 * v

    v = y0 + h * (_A31 * k10 + _A32 * k20)
    k30 = y1 + h * (_A31 * k11 + _A32 * k21)
    k31 = y2 + h * (_A31 * k12 + _A32 * k22)
    k32 = y3 + h * (_A31 * k13 + _A32 * k23)
    if v < 0.0:
        raise _domain_error(v)
    k33 = v ** p + K2 * k31 - K0 * v

    v = y0 + h * (_A41 * k10 + _A42 * k20 + _A43 * k30)
    k40 = y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31)
    k41 = y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32)
    k42 = y3 + h * (_A41 * k13 + _A42 * k23 + _A43 * k33)
    if v < 0.0:
        raise _domain_error(v)
    k43 = v ** p + K2 * k41 - K0 * v

    v = y0 + h * (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40)
    k50 = y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41)
    k51 = y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42)
    k52 = y3 + h * (_A51 * k13 + _A52 * k23 + _A53 * k33 + _A54 * k43)
    if v < 0.0:
        raise _domain_error(v)
    k53 = v ** p + K2 * k51 - K0 * v

    v = y0 + h * (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50)
    k60 = y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
    k61 = y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52)
    k62 = y3 + h * (_A61 * k13 + _A62 * k23 + _A63 * k33 + _A64 * k43 + _A65 * k53)
    if v < 0.0:
        raise _domain_error(v)
    k63 = v ** p + K2 * k61 - K0 * v

    v = y0 + h * (_A71 * k10 + _A73 * k30 + _A74 * k40 + _A75 * k50 + _A76 * k60)
    k70 = y1 + h * (_A71 * k11 + _A73 * k31 + _A74 * k41 + _A75 * k51 + _A76 * k61)
    k71 = y2 + h * (_A71 * k12 + _A73 * k32 + _A74 * k42 + _A75 * k52 + _A76 * k62)
    k72 = y3 + h * (_A71 * k13 + _A73 * k33 + _A74 * k43 + _A75 * k53 + _A76 * k63)
    if v < 0.0:
        raise _domain_error(v)
    k73 = v ** p + K2 * k71 - K0 * v

    err = (
        h * (_E1 * k10 + _E3 * k30 + _E4 * k40 + _E5 * k50 + _E6 * k60 + _E7 * k70),
        h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71),
        h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72),
        h * (_E1 * k13 + _E3 * k33 + _E4 * k43 + _E5 * k53 + _E6 * k63 + _E7 * k73),
    )
    return (v, k70, k71, k72), (k70, k71, k72, k73), err


def _rms(q0: float, q1: float, q2: float, q3: float) -> float:
    """Root mean square of four scaled components, summed in order."""
    return math.sqrt((q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) / 4.0)


def _initial_step(y: State, f: State, tol: float, span: float, K2: float, K0: float, p: float):
    """Starting step size from the scaled size of y, f and a one-Euler-step probe of f'."""
    s0, s1, s2, s3 = (tol + tol * abs(c) for c in y)
    d0 = _rms(y[0] / s0, y[1] / s1, y[2] / s2, y[3] / s3)
    d1 = _rms(f[0] / s0, f[1] / s1, f[2] / s2, f[3] / s3)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not h0 > 0.0:
        raise ConvergenceError(f"initial step size underflowed to h={h0}: y' is too large at y0")
    try:
        f1 = _field(tuple(yc + h0 * fc for yc, fc in zip(y, f)), K2, K0, p)
        d2 = _rms(
            (f1[0] - f[0]) / s0, (f1[1] - f[1]) / s1, (f1[2] - f[2]) / s2, (f1[3] - f[3]) / s3
        ) / h0
    except DomainError:
        d2 = d1
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, span)


# Not called in the package: the tests' ODE oracle, and a target of perfbench/tracer.py.
def integrate(
    y0: OdeState,
    t_end: float,
    tol: float,
    problem: ReducedProblem,
    events: Sequence[Event] = (),
    max_step: float = math.inf,
    max_steps: int = 1_000_000,
) -> Trajectory:
    """Integrate forward from y0.t to t_end with local error per step <= tol.

    Every way the run can end is a returned Trajectory, told apart by its
    stop_reason: "t_end"; "event", at the first triggered terminal event,
    whose name is event_name; "blowup", once the state norm passes 1e12, or
    at y0 itself when v**p overflows there (a one-node run); "domain", when
    the solution runs into v = 0 so that the nonlinearity cannot be
    evaluated.  Raises ConvergenceError when the step size underflows away
    from the v = 0 boundary or the run takes more than max_steps steps.  A
    step with a stage below v = 0 is retried at half the size; one whose
    error estimate is not finite (or whose v**p overflows) at a quarter.
    """
    if not (_MIN_TOL <= tol <= _MAX_TOL):
        raise ValidationError(f"tol must lie in [{_MIN_TOL}, {_MAX_TOL}], got {tol}")
    t0 = float(y0.t)
    t_end = float(t_end)
    if not t_end > t0:
        raise ValidationError(f"t_end={t_end} must exceed the initial time {t0}")

    K2, K0, p = problem.K2, problem.K0, problem.p
    y = y0.y
    if y[0] < 0.0:
        raise DomainError(f"initial state has v={y[0]} < 0")
    t = t0
    ts: List[float] = [t]
    ys: List[State] = [y]
    n_acc = 0
    n_rej = 0

    def build(stop_reason: str, ev_name: Optional[str] = None) -> Trajectory:
        return Trajectory(
            problem=problem,
            ts=np.array(ts),
            ys=np.array(ys),
            n_accepted=n_acc,
            n_rejected=n_rej,
            stop_reason=stop_reason,
            event_name=ev_name,
        )

    try:
        f = _field(y, K2, K0, p)
    except OverflowError:
        return build("blowup")
    v_floor = 1e-9 * max(1.0, abs(y[0]), abs(y[1]), abs(y[2]), abs(y[3]))
    ev_prev = [e.fn(t, y) for e in events]

    h = min(_initial_step(y, f, tol, t_end - t0, K2, K0, p), max_step)
    a0, a1, a2, a3 = abs(y[0]), abs(y[1]), abs(y[2]), abs(y[3])  # |y|, kept with y
    err_prev = 1.0
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            raise ConvergenceError(
                f"integration exceeded {max_steps} steps before reaching t_end={t_end}"
            )
        steps += 1
        h = min(h, t_end - t, max_step)
        h_floor = 1e-14 * max(1.0, abs(t))
        if h < h_floor:
            if y[0] <= v_floor:
                return build("domain")
            raise ConvergenceError(f"step size underflowed at t={t} (h={h})")

        try:
            y_new, f_new, (e0, e1, e2, e3) = _dp5_step(y, f, h, K2, K0, p)
        except DomainError:
            n_rej += 1
            h *= 0.5
            continue
        except OverflowError:
            n_rej += 1
            h *= 0.25
            continue

        # _rms inlined; "b if b > a else a" is max(a, b), NaN included.
        n0, n1, n2, n3 = y_new
        b0, b1, b2, b3 = abs(n0), abs(n1), abs(n2), abs(n3)
        q0 = e0 / (tol + tol * (b0 if b0 > a0 else a0))
        q1 = e1 / (tol + tol * (b1 if b1 > a1 else a1))
        q2 = e2 / (tol + tol * (b2 if b2 > a2 else a2))
        q3 = e3 / (tol + tol * (b3 if b3 > a3 else a3))
        err = math.sqrt((q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) / 4.0)
        if not math.isfinite(err):
            n_rej += 1
            h *= 0.25
            continue
        if err > 1.0:
            n_rej += 1
            h *= max(0.1, 0.9 * err ** -0.2)
            continue

        # Accepted.
        n_acc += 1
        t_new = t + h

        triggered = None
        for i, e in enumerate(events):
            g_new = e.fn(t_new, y_new)
            g_old = ev_prev[i]
            rising = g_old < 0.0 and g_new >= 0.0
            falling = g_old > 0.0 and g_new <= 0.0
            hit = (e.direction > 0 and rising) or (e.direction < 0 and falling) or (
                e.direction == 0 and (rising or falling)
            )
            if hit and triggered is None:
                triggered = (e, g_old)
            ev_prev[i] = g_new

        if triggered is not None:
            e, g_old = triggered
            t_ev, y_ev = _refine_event(t, y, f, h, e, g_old, problem)
            ts.append(t_ev)
            ys.append(y_ev)
            return build("event", e.name)

        t, y, f = t_new, y_new, f_new
        a0, a1, a2, a3 = b0, b1, b2, b3
        ts.append(t)
        ys.append(y)

        if max(b0, b1, b2, b3) > _BLOWUP_BOUND:
            return build("blowup")

        fac = 0.9 * err ** -0.2 * err_prev ** 0.04 if err > 1e-12 else 5.0
        h *= min(5.0, max(0.2, fac))
        err_prev = max(err, 1e-12)

    return build("t_end")


def _refine_event(t_node, y_node, f_node, h, event: Event, g_old: float, problem: ReducedProblem):
    """Locate an event root inside one accepted step by substep bisection.

    Each probe re-integrates a single Dormand-Prince step of size delta
    from the bracketing node, so the refined state has one-step accuracy.
    Returns (t, y) at the root, with v clipped to >= 0.
    """
    K2, K0, p = problem.K2, problem.K0, problem.p
    lo, hi = 0.0, h
    y_hi = None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13 * max(1.0, abs(t_node) + h):
            break
        try:
            y_mid = _dp5_step(y_node, f_node, mid, K2, K0, p)[0]
            g_mid = event.fn(t_node + mid, y_mid)
        except DomainError:
            # Stage poked past v=0: the crossing is earlier.
            hi = mid
            continue
        if (g_old > 0.0 and g_mid <= 0.0) or (g_old < 0.0 and g_mid >= 0.0):
            hi = mid
            y_hi = y_mid
        else:
            lo = mid
    delta = hi
    if y_hi is None:
        y_hi = _dp5_step(y_node, f_node, delta, K2, K0, p)[0]
    return t_node + delta, (max(y_hi[0], 0.0), y_hi[1], y_hi[2], y_hi[3])

