"""Orbit solvers for the reduced equation: periodic, homoclinic, decay rates.

Periodic orbits with a prescribed minimum a are even about t = 0 and about
the half period, so they are computed as a cosine series in tau = omega t
whose coefficients and frequency solve a collocation system by Newton's
method (Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., 2001;
Viswanath, SIAM Rev. 43 (2001) 478), continued from the small orbits about
the equilibrium l.  A global method has none of the e^{lambda t} growth of
round-off that limits shooting on these hyperbolic loops.

The homoclinic (even, positive, decaying) profile is the limit of that
family as the minimum a -> 0 (the periods grow like (2/lambda2) ln(1/a)).
find_homoclinic solves the orbit at a = 1e-6 l once and reads the peak,
the decay rate (an order-2 Prony fit, de Prony 1795) and the samples off
its uniform grid, which one inverse FFT per state column evaluates.

Singularity classification compares the slowest linear decay rate of the
reduced equation against the Emden-Fowler weight exponent (n-4-alpha)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dynamics import ReducedProblem, Trajectory
from .errors import ConvergenceError, DomainError, RegimeError, ValidationError
from .params import ProblemParams, check_conditions, derive_coefficients

_HOMOCLINIC_MIN = 1e-6  # minimum over l of the orbit that find_homoclinic reads
_ROW_SPACING = 0.25  # homoclinic sample spacing, times lambda2
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
    which sample sums directly at any times and rows evaluates on a uniform
    grid by inverse FFT.  newton_iterations, continuation_steps
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
        """Times, states and energies at 8 N + 1 uniform times over one period.

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
    (PeriodicOrbit._grid) on the half period s = t - T/2 >= 0:

    - peak = max_value; the first sample is the peak state (peak, 0,
      -sqrt(-2 G(peak)), 0) on the zero-energy level, so the odd
      derivatives are exactly 0 there;
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
    ts, states, _ = orbit._grid()
    half = len(ts) // 2  # t = T/2, as 8 N is even
    s, states = ts[half:] - ts[half], states[half:]
    v, h = states[:, 0], float(s[1])
    peak, floor = orbit.max_value, 1e3 * orbit.a
    g = potential(peak, K0, params.p)
    if not g < 0.0:
        raise ConvergenceError(f"peak {peak!r} is not below the zero of the potential")
    states[0] = (peak, 0.0, -math.sqrt(-2.0 * g), 0.0)

    window = v[(v > floor) & (v < 1e-2 * peak)]
    if len(window) < 8:
        raise ConvergenceError(f"{len(window)} grid points in the decay-fit window")
    decay_rate = _prony_decay_rate(window, h)

    stride = max(1, round(_ROW_SPACING / (float(coeff.lam2) * h)))
    keep = np.arange(0, int(np.sum(v >= floor)), stride)
    samples = Trajectory(problem=orbit.problem, ts=s[keep], ys=states[keep],
                         n_accepted=0, n_rejected=0, stop_reason="truncated")
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
