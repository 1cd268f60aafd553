"""Orbit solvers for the reduced equation: periodic, homoclinic, decay rates.

Periodic orbits with a prescribed minimum a are even about t = 0 and about
the half period, so they are computed as a cosine series in tau = omega t
whose coefficients and frequency solve a collocation system by Newton's
method (Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., 2001;
Viswanath, SIAM Rev. 43 (2001) 478), continued from the small orbits about
the equilibrium l.  A global method has none of the e^{lambda t} growth of
round-off that limits shooting on these hyperbolic loops.  Each Newton solve
stops on Deuflhard's contraction monitor (Newton Methods for Nonlinear
Problems, 2004, ch. 2): converged once the next correction is estimated
below round-off, or once the correction stops shrinking at a residual
already within tol; failed once it has grown twice.  Only the last solve
sets the digits, so two early exits stop the others at the accuracy their
result feeds: an intermediate continuation point ends at 1e-2 (a corrector
need not converge there; Allgower and Georg, Numerical Continuation Methods,
1990), and a solve whose residual between the nodes shows that truncation
dominates goes on at twice the modes (nested iteration, as in Boyd).  The
first continuation step starts from the second-order Lindstedt-Poincare
orbit (Nayfeh, Perturbation Methods, 1973, 4.1), which is close enough that
one step reaches every target with 1 - a/l <= 1/2.  Nearer the homoclinic
loop an orbit follows ln a (X.-B. Lin, Proc. Roy. Soc. Edinburgh 116A
(1990) 401), so from 1/2 the continuation jumps straight to the target, from
Lin's seed when the rates are real.  A failed step, whatever its start, is
only ever halved, the jump in log a (Allgower and Georg).  The seed doubles
the modes once for every fourfold growth of the period it predicts, so that
the jump's first solve does not converge toward a truncated orbit, and only
the final step is held to the tail test that doubles N.

The homoclinic (even, positive, decaying) profile is the limit of that
family as the minimum a -> 0 (the periods grow like (2/lambda2) ln(1/a)).
find_homoclinic solves the orbit at a = 1e-6 l once and reads the peak,
the decay rate (an order-2 Prony fit, de Prony 1795) and the samples off
its uniform grid, which one inverse FFT per state column evaluates.

Singularity classification compares the slowest linear decay rate of the
reduced equation against the Emden-Fowler weight exponent (n-4-alpha)/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dynamics import ReducedProblem, Trajectory, energy
from .errors import ConvergenceError, RegimeError, ValidationError
from .params import ProblemParams, check_conditions, derive_coefficients

_HOMOCLINIC_MIN = 1e-6  # minimum over l of the orbit that find_homoclinic reads
_ROW_SPACING = 0.25  # homoclinic sample spacing, times lambda2
_MODES, _MAX_MODES = 32, 512  # first and largest Fourier truncation N
_TAIL_TOL = 1e-15  # last four coefficients over the largest, to accept N
_STEP_TOL = 1e-11  # relative Newton correction taken as converged
# estimated next correction and relative residual that end an intermediate
# continuation step
_COARSE_TOL = 1e-2
# residual between the nodes above which, and above 10 times the residual at
# them, a solve goes on at 2 N
_TRUNCATION_FLOOR, _TRUNCATION_RATIO = 1e-6, 10.0
_MAX_NEWTON = 40
_MAX_RETRIES = 6  # halved continuation steps, in all, before giving up
# 1 - a/l of the first continuation step, from which the next step jumps to
# the target
_NEAR_LOOP = 0.5
_MODE1_MIN = 1e-2  # -d_1 / max |d| below this marks a k-fold alias (orbits keep it above 0.17)


def linearized_frequency(K2: float, K0: float, p: float) -> float:
    """Angular frequency of small oscillations about the equilibrium l.

    Perturbations w about v = l obey w'''' - K2 w'' - (p-1) K0 w = 0, whose
    purely imaginary root pair gives omega^2 = (sqrt(K2^2+4(p-1)K0)-K2)/2.
    Raises ValidationError when 4 (p-1) K0 is lost against K2^2, so omega is 0.
    """
    if K0 <= 0.0:
        raise RegimeError(f"no positive equilibrium for K0={K0} <= 0")
    disc = math.sqrt(K2 * K2 + 4.0 * (p - 1.0) * K0)
    omega = math.sqrt(0.5 * (disc - K2))
    if not omega > 0.0:
        raise ValidationError(f"linearized frequency rounds to 0 at K2={K2}, K0={K0}, p={p}")
    return omega


@dataclass(frozen=True)
class PeriodicOrbit:
    """Even periodic orbit of the reduced equation with minimum a at t=0.

    The orbit is the cosine series v(t) = sum_k coefficients[k] cos(k omega t),
    which sample sums directly at any times and rows evaluates on a uniform
    grid by inverse FFT.  That grid is computed once per orbit, when first
    read, and its energies once, when energy_drift or rows first reads
    them; both are kept read-only.  newton_iterations, continuation_steps
    and modes count the work of the solve; to_dict leaves them out.
    """

    a: float
    b: float
    period: float
    max_value: float
    energy: float
    residual_sup: float
    in_proven_regime: bool
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

    @functools.cached_property
    def _grid(self):
        """Times and states at 8 N + 1 uniform times over one period.

        At t_j = j T / (8 N) the m-th derivative is the real part of
        sum_k c_k (i k omega)^m e^{2 pi i k j / (8 N)}, one inverse real FFT
        of the zero-padded coefficients per column, in O(N log N) time and
        O(N) memory; the last time closes the period with the first state.
        """
        m = 8 * self.modes
        ik = 1j * self.omega * np.arange(self.modes)
        spectrum = np.zeros(m // 2 + 1, dtype=complex)
        scaled = 0.5 * m * self.coefficients  # irfft divides by m and counts k > 0 twice
        scaled[0] *= 2.0
        states = np.empty((m + 1, 4))
        for order in range(4):
            spectrum[:self.modes] = scaled * ik ** order
            states[:m, order] = np.fft.irfft(spectrum, m)
        states[m] = states[0]
        states += 0.0  # turns -0.0 into 0.0
        ts = np.linspace(0.0, self.period, m + 1)
        ts.flags.writeable = states.flags.writeable = False
        return ts, states

    @functools.cached_property
    def _grid_energies(self) -> np.ndarray:
        energies = self.problem.energy(self._grid[1].T)
        energies.flags.writeable = False
        return energies

    @property
    def energy_drift(self) -> float:
        """Largest |E - energy| over the grid: how well the series conserves E."""
        return float(np.max(np.abs(self._grid_energies - self.energy)))

    def rows(self):
        """(t, v, dv, d2v, d3v, E) rows at 8 N + 1 uniform times over one period."""
        rows = np.column_stack((*self._grid, self._grid_energies)).tolist()
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
    """Even, positive, decaying solution on the zero-energy level.

    samples holds the profile at uniform times from t = 0 at the peak while
    v >= 1e3 a (see find_homoclinic), with rows() for CSV output.
    """

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


@functools.lru_cache(maxsize=None)
def _basis(n: int):
    """k^2, k^4 and the collocation matrix cos(k tau_j) at N = n modes, read-only.

    N only doubles from _MODES to _MAX_MODES, so at most five sets are kept,
    2.8 MB in all, most of it the 512 x 512 matrix.
    """
    k = np.arange(n, dtype=float)
    k2, k4 = k * k, k ** 4
    cos = np.cos(np.outer(np.pi * (np.arange(n) + 0.5) / n, k))
    for array in (k2, k4, cos):
        array.flags.writeable = False
    return k2, k4, cos


def _tail_above_tol(d: np.ndarray) -> bool:
    """Whether the last four coefficients of d exceed _TAIL_TOL of its
    largest, so that N modes do not resolve the series."""
    return max(map(abs, d[-4:].tolist())) > _TAIL_TOL * np.abs(d).max()


@functools.lru_cache(maxsize=None)
def _between_nodes(n: int) -> np.ndarray:
    """cos(k tau) at tau = pi j / N, j = 0..N, midway between the N
    collocation nodes and at both ends, read-only.

    Only a solve that may still double N reads it, so N <= _MAX_MODES / 2
    and the sets kept take 0.7 MB in all.
    """
    cos = np.cos(np.outer(np.pi * np.arange(n + 1) / n, np.arange(n)))
    cos.flags.writeable = False
    return cos


def _collocate(d: np.ndarray, omega: float, w0: float, l: float, K2: float, K0: float, p: float,
               tol: float, coarse: bool):
    """Newton's method for the collocation system at N = len(d) modes.

    The unknowns are omega and the coefficients d of w = v - l.  Since
    K0 l = l^p, the equation reads L[w] = K0 l expm1(p log1p(w/l)), whose
    round-off is relative to w rather than to l; otherwise a small orbit's
    period would carry an error of order 1e-16 / (1 - a/l).  Returns (d,
    omega, iterations, residual): iterations counts the linear solves, and
    residual is the sup of the collocation residual over the sup of v^p at
    the nodes.  omega enters only as omega^2, so a Newton path that crosses
    0 returns |omega|.

    The stop follows the contraction theta = |D_k| / |D_{k-1}| of the
    relative corrections D (the larger of max |dd| / max |d| and |domega| /
    |omega|), Deuflhard's affine-invariant monitor (Newton Methods for
    Nonlinear Problems, 2004, ch. 2).  The solve has converged once |D_k|
    <= _STEP_TOL, or once theta < 1/2 and theta |D_k| <= _STEP_TOL, the next
    correction's estimate; then the residual is evaluated at the corrected
    iterate.  It has also converged when the correction stops shrinking
    (theta >= 1) at an iterate whose residual is already at most tol: that
    correction is rounding, and the iterate is returned without it.  It has
    failed (residual inf) when the correction grows for the second time,
    in a row or not (a solve whose theta swings about 1 wanders), when the
    Jacobian is singular or a correction is not finite, and it ends after
    _MAX_NEWTON steps.

    Two exits stop a solve sooner; a solve that meets neither stops as
    above.  With coarse set (an intermediate continuation step), it returns
    the corrected iterate as soon as theta |D_k| <= _COARSE_TOL = 1e-2 and
    that iterate's residual is at most 1e-2.  And at an iterate reached by a
    contracting correction (theta < 1/2) whose last four coefficients exceed
    _TAIL_TOL of its largest, with 2 N <= _MAX_MODES, the residual is summed
    at tau = pi j / N, j = 0..N, midway between the nodes and at both ends
    (_between_nodes).  When that is above 1e-6 of the sup of v^p at the
    nodes and 10 times the residual there, truncation dominates: the solve
    returns the iterate zero-padded to 2 N modes, with its residual at the
    nodes, for the caller to solve on at 2 N.

    The iterations write into one Jacobian and a few buffers allocated per
    call, in the operation order of the expressions in the comments, so
    every rounding is theirs; the caller's d is left as it was.
    """
    n = len(d)
    k2, k4, cos = _basis(n)
    jac = np.zeros((n + 1, n + 1))
    jac[n, :n] = 1.0
    block, rhs = jac[:n, :n], np.empty(n + 1)
    res = rhs[:n]
    symbol, x, node, mode = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    scaled = np.empty((n, n))
    d = d.copy()
    converged = rough = grew = False
    # |D_{k-1}| and theta are nan on the first step, which passes no theta test
    last = theta = math.nan

    def relative_residual():
        return float(np.abs(res).max() / (K0 * l * ((1.0 + x) ** p).max()))

    def truncation_dominates():
        # w and L[w] summed midway between the nodes; mode holds symbol * d
        between_cos = _between_nodes(n)
        w = np.maximum(between_cos @ d / l, -1.0)
        between = np.abs(between_cos @ mode - K0 * l * np.expm1(p * np.log1p(w))).max()
        return (between > _TRUNCATION_RATIO * np.abs(res).max()
                and between > _TRUNCATION_FLOOR * K0 * l * ((1.0 + x) ** p).max())

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iteration in range(_MAX_NEWTON + 1):
            # symbol = omega ** 4 * k4 + K2 * omega ** 2 * k2 + K0
            np.multiply(omega ** 4, k4, out=symbol)
            symbol += np.multiply(K2 * omega ** 2, k2, out=mode)
            symbol += K0
            # x = np.maximum(cos @ d / l, -1.0)
            np.matmul(cos, d, out=x)
            x /= l
            np.maximum(x, -1.0, out=x)
            # res = cos @ (symbol * d) - K0 * l * np.expm1(p * np.log1p(x))
            np.log1p(x, out=node)
            node *= p
            np.expm1(node, out=node)
            node *= K0 * l
            np.matmul(cos, np.multiply(symbol, d, out=mode), out=res)
            res -= node
            if converged or iteration == _MAX_NEWTON:
                break
            if rough:
                residual = relative_residual()
                if residual <= _COARSE_TOL:
                    return d, abs(omega), iteration, residual
            if (theta < 0.5 and 2 * n <= _MAX_MODES and _tail_above_tol(d)
                    and truncation_dominates()):
                return np.concatenate([d, np.zeros(n)]), abs(omega), iteration, relative_residual()
            rhs[n] = d.sum() - w0
            # block = cos * symbol - (p * K0 * (1.0 + x) ** (p - 1.0))[:, None] * cos
            np.multiply(cos, symbol, out=block)
            np.add(1.0, x, out=node)
            node **= p - 1.0
            node *= p * K0
            block -= np.multiply(node[:, None], cos, out=scaled)
            # jac[:n, n] = cos @ ((4.0 * omega ** 3 * k4 + 2.0 * K2 * omega * k2) * d)
            np.multiply(4.0 * omega ** 3, k4, out=mode)
            mode += np.multiply(2.0 * K2 * omega, k2, out=node)
            mode *= d
            jac[:n, n] = np.matmul(cos, mode, out=node)
            try:
                step = np.linalg.solve(jac, -rhs)
            except np.linalg.LinAlgError:
                return d, omega, iteration + 1, math.inf
            if not np.isfinite(step).all():
                return d, omega, iteration + 1, math.inf
            # delta = max(max |step_d| / max |d|, |step_omega / omega|)
            delta = max(np.abs(step[:n], out=mode).max() / np.abs(d, out=node).max(),
                        abs(step[n] / omega))
            theta, last = delta / last, delta
            if theta >= 1.0:
                residual = relative_residual()
                if residual <= tol:  # the correction is rounding
                    return d, abs(omega), iteration + 1, residual
                if grew and theta > 1.0:
                    return d, omega, iteration + 1, math.inf
            grew = grew or theta > 1.0
            d += step[:n]
            omega += step[n]
            converged = delta <= _STEP_TOL or theta < 0.5 and theta * delta <= _STEP_TOL
            rough = coarse and theta * delta <= _COARSE_TOL
        residual = relative_residual()
    return d, abs(omega), iteration, residual


def _small_orbit(n: int, eps: float, l: float, K2: float, K0: float, p: float):
    """Second-order Lindstedt-Poincare orbit at 1 - a/l = eps, as the start
    (d, omega) of the first continuation step with N = n modes.

    With w = v - l the equation reads L[w] = c w^2 + O(w^3), where c =
    p (p-1) l^{p-2} / 2 and L takes cos(k tau) to S(k) cos(k tau), S(k) =
    omega^4 k^4 + K2 omega^2 k^2 + (1-p) K0; S(1) = 0 at the linearized
    frequency.  w = A cos(tau) + A^2 (s0 + s2 cos(2 tau)) solves it to
    O(A^2) with s0 = c / (2 S(0)) and s2 = c / (2 S(2)), and the frequency
    moves only at O(A^2) (A. H. Nayfeh, Perturbation Methods, 1973, 4.1).
    v(0) = a makes A + q A^2 = -eps l with q = s0 + s2; as S(0) = (1-p) K0
    < 0 and S(2) = 3 omega^2 (5 omega^2 + K2) > -S(0) = omega^2 (omega^2 +
    K2) > 0, q < 0, so the root near -eps l exists for every eps and is
    taken in the form that has no cancellation.
    """
    omega = linearized_frequency(K2, K0, p)
    w2 = omega * omega
    c = 0.5 * p * (p - 1.0) * K0 / l  # l^{p-2} = K0 / l
    s0 = c / (2.0 * (1.0 - p) * K0)
    s2 = c / (6.0 * w2 * (5.0 * w2 + K2))
    q = s0 + s2
    amplitude = -2.0 * eps * l / (1.0 + math.sqrt(1.0 - 4.0 * q * eps * l))
    d = np.zeros(n)
    d[:3] = s0 * amplitude ** 2, amplitude, s2 * amplitude ** 2
    return d, omega


def _lin_seed(d: np.ndarray, omega: float, done: float, eps: float, l: float, lam2: float):
    """Start for the continuation step from the orbit (d, omega) at 1 - a/l =
    done to the orbit at 1 - a/l = eps, near the homoclinic loop.

    There an orbit is a chain of humps joined along the slow decay
    e^{-lam2 |s|} (X.-B. Lin, Proc. Roy. Soc. Edinburgh 116A (1990) 401), so
    the period grows by (2/lam2) ln(a_old/a_new), a = l (1 - eps).  v at the
    nodes is the old hump about the new half period T/2, continued by
    a_old e^{-lam2 (|s| - T_old/2)} beyond it, where s = t - T/2.  The
    columns of the collocation matrix are orthogonal (the sum over the nodes
    of cos(i tau) cos(k tau) is N/2 for i = k > 0, N for i = k = 0, else 0),
    so one product with its transpose projects v - l onto the cosines.

    The seed has N 2^floor(log_4(T_new / T_old)) modes, capped at
    _MAX_MODES, for N = len(d): one doubling for every fourfold growth of
    the period, so N grows about as the square root of the period.  At N
    modes a jump that grows the period more than fourfold first converges
    toward a truncated orbit, which the solve at 2 N then has to undo; a
    seed at 2 N on every jump, or at N 2^round(log_4(T_new / T_old)), ends
    some orbits at more modes than their tail needs.
    """
    n = len(d)
    a_old, a_new = l * (1.0 - done), l * (1.0 - eps)
    period = 2.0 * math.pi / omega
    new_period = period + 2.0 / lam2 * math.log(a_old / a_new)
    new_omega = 2.0 * math.pi / new_period
    m = min(n << int(math.log2(new_period / period)) // 2, _MAX_MODES)
    k = np.arange(n)
    _, _, cos = _basis(m)
    s = (math.pi - math.pi / m * (np.arange(m) + 0.5)) / new_omega  # |s| at the nodes
    hump = s <= 0.5 * period
    w = a_old * np.exp(-lam2 * (s - 0.5 * period)) - l
    # on the hump v(T_old/2 + s) - l = sum_k (-1)^k d_k cos(k omega s)
    w[hump] = np.cos(np.multiply.outer(omega * s[hump], k)) @ np.where(k % 2 == 0, d, -d)
    seed = 2.0 / m * (cos.T @ w)
    seed[0] *= 0.5
    return seed, new_omega


def find_periodic(a: float, params: ProblemParams, tol: float = 1e-8) -> PeriodicOrbit:
    """Periodic orbit whose minimum value is a, by Fourier collocation.

    The orbit is even about its minimum at t = 0 and about the half period,
    so v(t) = sum_{k<N} c_k cos(k tau) with tau = omega t.  The N equations
    omega^4 v'''' - K2 omega^2 v'' + K0 v - max(v, 0)^p = 0 (derivatives in
    tau) at tau_j = pi (j + 1/2) / N and sum_k c_k = v(0) = a determine (c,
    omega); Newton's method solves them with the analytic Jacobian, written
    for w = v - l, and stops on a contraction monitor (see _collocate).  The
    minimum a is reached by continuation in eps = 1 - a/l.  The first step
    goes to min(eps, 1/2) from the second-order Lindstedt-Poincare orbit
    (_small_orbit), whose coefficients are off by O(eps^3 l) and its
    frequency by O(eps^2).  Every later step goes straight to the target,
    from the last orbit or, when it cuts a more than tenfold from eps >= 1/2
    with real rates, from Lin's seed (_lin_seed), which has N
    2^floor(log_4(T_new / T_old)) modes, at most 512: one doubling of N for
    every fourfold growth of the period.  Only the final step is held to
    tol: a step short of the target ends as soon as Newton's next correction
    is estimated below 1e-2 and its relative residual is at most 1e-2
    (_collocate), and is accepted at a residual of 1e-2.  A step on which
    Newton fails, from any start (a singular Jacobian, a non-finite or
    twice-grown correction, a relative residual above the step's tolerance,
    or an alias), is halved and tried again at the N already reached: the
    first step in eps, a later one in log a, to the geometric mean of the
    two minima.  A halved first step climbs back to 1/2 before the jump.
    Two tests reject aliases.  v(pi/omega) <= l marks the half-period alias,
    an orbit of twice the period with v(pi/omega) = a: integrating the
    equation over a period gives int v (K0 - v^{p-1}) = 0, so an orbit with
    minimum a < l has its maximum above l.  d_1 >= -0.01 max |d| marks a
    k-fold alias, whose modes are k, 2k, ... only, so that d_1 = 0; the
    period-tripled alias passes the first test.  N starts at 32, and the
    final step doubles it until the last four coefficients of w are below
    1e-15 of its largest (an intermediate step, accepted at 1e-2, is not
    held to that tail); the solve at 2 N starts from the zero-padded trial
    that failed that test.  A solve in which truncation dominates
    (_collocate) doubles N before it converges, and the step goes on from
    its padded iterate in the same way.  period = 2 pi / omega, b = v''(0)
    and max_value = v(pi/omega) are read off the coefficients.  Raises
    ConvergenceError after the sixth halving or when N would pass 512,
    ValidationError for tol outside (0, 1e-4] or a outside (0, l) or so
    small that 1 - a/l rounds to 1, RegimeError when K0 <= 0.
    """
    coeff = derive_coefficients(params)
    problem = ReducedProblem(coeff.K2, coeff.K0, params.p)
    if coeff.K0 <= 0.0:
        raise RegimeError(
            f"periodic orbits require a positive equilibrium (K0={coeff.K0} <= 0)"
        )
    l = coeff.l
    if not (0.0 < a < l and 1.0 - a / l < 1.0):  # continuation in 1 - a/l must keep a > 0
        raise ValidationError(f"minimum value a={a} must lie inside (0, {l}) with 1 - a/l < 1")
    if not (0.0 < tol <= 1e-4):
        raise ValidationError(f"Newton residual tolerance {tol} out of range (0, 1e-4]")

    report = check_conditions(params)
    in_regime = report.periodicity_regime or report.uniqueness_ok

    K2, K0, p = problem.K2, problem.K0, problem.p
    lam2 = float(coeff.lam2) if K2 > 0.0 and coeff.discriminant >= 0.0 else None
    eps_target = 1.0 - a / l
    eps = min(eps_target, _NEAR_LOOP)
    d, omega, done = np.zeros(_MODES), linearized_frequency(K2, K0, p), 0.0  # the equilibrium
    start = None
    iterations = steps = retries = 0
    while True:
        final = eps >= eps_target
        w0 = a - l if final else -eps * l
        if start is None:
            if done == 0.0:
                start = _small_orbit(len(d), eps, l, K2, K0, p)
            elif lam2 is not None and done >= _NEAR_LOOP and 1.0 - done > 10.0 * (1.0 - eps):
                start = _lin_seed(d, omega, done, eps, l, lam2)
                # pad d to the seed's N: a solve has moved on to 2 N when it
                # returns more modes than d, and should this one fail, the
                # halved step starts from d at the N already reached
                d = np.concatenate([d, np.zeros(len(start[0]) - len(d))])
            else:
                start = d, omega
        trial, trial_omega, its, residual = _collocate(*start, w0, l, K2, K0, p, tol, not final)
        iterations += its
        if len(trial) > len(d):
            # truncation dominated the solve: go on at 2 N from its padded iterate
            d = np.concatenate([d, np.zeros_like(d)])
            start = trial, trial_omega
            continue
        where = f"at 1 - v(0)/l = {eps:.6g} with N={len(d)}"
        accept = tol if final else _COARSE_TOL
        half = not trial[::2].sum() - trial[1::2].sum() > 0.0  # v(pi/omega) <= l
        folded = not trial[1] < -_MODE1_MIN * np.abs(trial).max()  # d_1 ~ 0
        if not residual <= accept or half or folded:
            # halve the continuation step: in eps on the first, in log a after it
            retries += 1
            if retries > _MAX_RETRIES:
                if not residual <= accept:
                    reason = f"collocation residual {residual:.3e} did not reach tol={accept:.3e}"
                elif half:
                    reason = "collocation met only the half-period alias"
                else:
                    reason = f"collocation met only a k-fold alias, d_1 = {trial[1]:.3e},"
                raise ConvergenceError(f"{reason} {where}")
            if done == 0.0:
                eps *= 0.5
            else:
                eps = 1.0 - math.sqrt((1.0 - done) * (1.0 - eps))
            start = None
            continue
        if final and _tail_above_tol(trial):
            # solve again with twice the modes, from the padded trial
            if 2 * len(d) > _MAX_MODES:
                raise ConvergenceError(f"Fourier tail still above 1e-15 {where}")
            d = np.concatenate([d, np.zeros_like(d)])
            start = np.concatenate([trial, np.zeros_like(trial)]), trial_omega
            continue
        d, omega, done = trial, trial_omega, eps
        steps += 1
        if final:
            break
        eps = min(eps_target, _NEAR_LOOP) if done < _NEAR_LOOP else eps_target
        start = None

    k = np.arange(len(d), dtype=float)
    b = float(-omega * omega * np.sum(k * k * d))
    c = d.copy()
    c[0] += l
    return PeriodicOrbit(
        a=float(a),
        b=b,
        period=float(2.0 * math.pi / omega),
        max_value=float(l + np.sum(np.where(k % 2 == 0, d, -d))),
        energy=float(problem.energy((a, 0.0, b, 0.0))),
        residual_sup=residual,
        in_proven_regime=bool(in_regime),
        omega=float(omega),
        coefficients=c,
        problem=problem,
        newton_iterations=iterations,
        continuation_steps=steps,
    )


def _prony_decay_rate(x: np.ndarray, h: float) -> float:
    """Smaller decay rate of an order-2 Prony fit to samples x at spacing h.

    The least-squares linear prediction x[j+2] = c1 x[j+1] + c0 x[j] has
    the characteristic roots z = e^{-rate h} of z^2 = c1 z + c0; the larger
    root gives the smaller rate.  A discriminant c1^2 + 4 c0 <= 0 is read as
    a double root, which equal rates (K2^2 = 4 K0) produce up to rounding.
    Raises ConvergenceError when that root is not in (0, 1).
    """
    (c1, c0), *_ = np.linalg.lstsq(np.column_stack((x[1:-1], x[:-2])), x[2:], rcond=None)
    z = 0.5 * (c1 + math.sqrt(max(c1 * c1 + 4.0 * c0, 0.0)))
    if not 0.0 < z < 1.0:
        raise ConvergenceError(f"decay fit gave the root {z!r}, outside (0, 1)")
    return -math.log(z) / h


def find_homoclinic(params: ProblemParams) -> HomoclinicProfile:
    """Even decaying profile on the zero-energy level, as the a -> 0 limit
    of the periodic family.

    The periodic orbit with minimum a = 1e-6 l (find_periodic) follows the
    homoclinic loop: its maximum at T/2 differs from the profile's peak by
    O(a^2), and away from its minimum it differs from the profile by O(a).
    Everything is read off the orbit's uniform grid of 8 N + 1 times
    (PeriodicOrbit._grid, computed once) on the half period s = t - T/2 >= 0,
    from a copy, so that the orbit keeps its grid.  The one energy computed
    here is G = energy((peak, 0, 0, 0)), of the rest state at the peak;
    samples.rows() computes the E column when CSV output asks for it:

    - peak = max_value; the first sample is the peak state (peak, 0,
      -sqrt(-2 G), 0) on the zero-energy level, so the odd derivatives are
      exactly 0 there;
    - decay_rate is the smaller rate of an order-2 Prony fit
      (_prony_decay_rate) to v on the window 1e3 a < v < 1e-2 peak, where
      the e^{-lambda2 s} mode leads and the e^{-lambda1 s} mode is still
      resolved; a one-rate log-slope there is biased by the second mode;
    - the samples are the grid rows from the peak while v >= 1e3 a, every
      k-th one for a spacing near 0.25 / lambda2.

    Raises RegimeError unless K2 > 0, K0 > 0 and K2^2 - 4 K0 >= 0, and
    ConvergenceError when find_periodic or the fit fails.
    """
    coeff = derive_coefficients(params)
    K2, K0 = coeff.K2, coeff.K0
    if K2 <= 0.0 or K0 <= 0.0:
        raise RegimeError(f"homoclinic profile requires K2 > 0 and K0 > 0, got K2={K2}, K0={K0}")
    if coeff.discriminant < 0.0:
        raise RegimeError(
            f"uniqueness regime requires K2^2 - 4 K0 >= 0, got {coeff.discriminant}"
        )
    orbit = find_periodic(_HOMOCLINIC_MIN * coeff.l, params)
    ts, states = orbit._grid
    half = len(ts) // 2  # t = T/2, as 8 N is even
    s, states = ts[half:] - ts[half], states[half:].copy()  # the orbit keeps its grid
    v, h = states[:, 0], float(s[1])
    peak, floor = orbit.max_value, 1e3 * orbit.a
    g = energy((peak, 0.0, 0.0, 0.0), K2, K0, params.p)
    if not g < 0.0:
        raise ConvergenceError(f"peak {peak!r} is not below the zero of the potential")
    states[0] = (peak, 0.0, -math.sqrt(-2.0 * g), 0.0)

    window = v[(v > floor) & (v < 1e-2 * peak)]
    if len(window) < 8:
        raise ConvergenceError(f"{len(window)} grid points in the decay-fit window")
    decay_rate = _prony_decay_rate(window, h)

    stride = max(1, round(_ROW_SPACING / (float(coeff.lam2) * h)))
    keep = np.arange(0, int(np.sum(v >= floor)), stride)
    samples = Trajectory(problem=orbit.problem, ts=s[keep], ys=states[keep])
    return HomoclinicProfile(peak=peak, decay_rate=decay_rate, samples=samples)


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
