"""Closed-form cosh-power profiles and their radial pull-back.

The reduced equation v'''' - K2 v'' + K0 v = v^p admits the explicit family

    v(t) = C (cosh(nu t))^m,   m = -4/(p-1),

whenever the coefficients satisfy the solvability relation
K2^2 / K0 = ((p+1)^2 + 4)^2 / (4 (p+1)^2).  Pulled back through
u(r) = r^{-(n-4-alpha)/2} v(-log r) this yields the two-parameter radial
profile u(r) = (C / 2^m) r^{-gamma} (1 + r^{2 nu})^m.

CoshSolution is a tuple record, and the profile functions take one point
and use math: sampling a profile for CSV output loads no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from .errors import DomainError, NoExplicitSolutionError, ValidationError
from .params import (
    ProblemParams, SolutionCase, _linspace, _overflow_error, derive_coefficients,
)

_RELATION_TOL = 1e-9
_CASE_TOL = 1e-9
_LOG2 = math.log(2.0)


class CoshSolution(NamedTuple):
    """Explicit profile v(t) = C (cosh(nu t))^m of the reduced equation.

    gamma_decay is the leading power of the radial profile at r -> 0:
    u(r) ~ r^{-gamma_decay}; its sign separates bounded from singular
    profiles at the origin.
    """

    m: float
    nu: float
    C: float
    case_tag: SolutionCase
    gamma_decay: float
    p: float
    K2: float
    K0: float


def build_cosh_solution(params: ProblemParams) -> CoshSolution:
    """Construct the explicit cosh profile for the given parameters.

    Raises NoExplicitSolutionError when (K2, K0) fail the solvability
    relation, ValidationError when K2 <= 0 or a side of the relation or the
    amplitude overflows, DomainError when the amplitude power is nonpositive.
    """
    coeff = derive_coefficients(params)
    K2, K0, p = coeff.K2, coeff.K0, params.p
    if not (K2 > 0.0):
        raise ValidationError(f"cosh profile requires K2 > 0, got K2={K2}")
    P = p + 1.0
    try:
        lhs = K2 * K2 * 4.0 * P * P
        rhs = K0 * (P * P + 4.0) ** 2
        if not math.isfinite(lhs - rhs):  # an infinite side passes any tolerance
            raise _overflow_error(params)
        if abs(lhs - rhs) > _RELATION_TOL * max(abs(lhs), abs(rhs), 1.0):
            raise NoExplicitSolutionError(
                "coefficients fail the solvability relation "
                f"4 (p+1)^2 K2^2 = ((p+1)^2+4)^2 K0: lhs={lhs}, rhs={rhs}"
            )
        m = -4.0 / (p - 1.0)
        nu = math.sqrt(K2 / (m * m + (m - 2.0) ** 2))
        amp_power = m * (m - 1.0) * (m - 2.0) * (m - 3.0) * nu ** 4
        if not (amp_power > 0.0):
            raise DomainError(
                f"amplitude power m(m-1)(m-2)(m-3) nu^4 = {amp_power} is not positive"
            )
        C = amp_power ** (1.0 / (p - 1.0))
    except OverflowError:
        raise _overflow_error(params) from None
    case_tag = _classify_case(params, m)
    gamma_decay = (params.n - 4.0 - params.alpha) / 2.0 + nu * m
    return CoshSolution(
        m=m, nu=nu, C=C, case_tag=case_tag, gamma_decay=gamma_decay, p=p, K2=K2, K0=K0
    )


def _classify_case(params: ProblemParams, m: float) -> SolutionCase:
    n, alpha, beta = params.n, params.alpha, params.beta
    if alpha > -2.0 and abs(alpha - beta) <= _CASE_TOL * max(1.0, abs(alpha)):
        m1 = -(n - 4.0 - alpha) / (2.0 + alpha)
        if abs(m - m1) <= _CASE_TOL * max(1.0, abs(m1)):
            return SolutionCase.CASE1
    if alpha < -2.0:
        lhs = (n + alpha) * (n + beta)
        rhs = (n - 4.0 - alpha) ** 2
        if abs(lhs - rhs) <= _CASE_TOL * max(1.0, abs(rhs)):
            m2 = (n + alpha) / (2.0 + alpha)
            if abs(m - m2) <= _CASE_TOL * max(1.0, abs(m2)):
                return SolutionCase.CASE2
    return SolutionCase.GENERIC


def cosh_profile_derivatives(sol: CoshSolution, t: float) -> Tuple[float, ...]:
    """(v, v', v'', v''', v'''') of the cosh profile at t, overflow-safe.

    Powers of cosh are taken through log-cosh so large |t| underflows to
    zero instead of overflowing; odd derivatives carry tanh factors.
    """
    m, nu, C = sol.m, sol.nu, sol.C
    ax = abs(nu * t)
    log_cosh = ax + math.log1p(math.exp(-2.0 * ax)) - _LOG2
    th = math.tanh(nu * t)
    P0 = math.exp(m * log_cosh)
    P2 = math.exp((m - 2.0) * log_cosh)
    P4 = math.exp((m - 4.0) * log_cosh)
    v0 = C * P0
    v1 = C * m * nu * th * P0
    v2 = C * nu ** 2 * (m * m * P0 - m * (m - 1.0) * P2)
    v3 = C * nu ** 3 * m * th * (m * m * P0 - (m - 1.0) * (m - 2.0) * P2)
    v4 = C * nu ** 4 * (
        m ** 4 * P0
        - m * (m - 1.0) * (m * m + (m - 2.0) ** 2) * P2
        + m * (m - 1.0) * (m - 2.0) * (m - 3.0) * P4
    )
    return v0, v1, v2, v3, v4


def eval_u(sol: CoshSolution, r: float) -> float:
    """Radial profile u(r) = (C/2^m) r^{-gamma} (1 + r^{2 nu})^m at r > 0.

    Evaluated in log space so extreme radii neither overflow nor lose the
    power-law tails; a value past the float range is inf.
    """
    if r <= 0.0:
        raise DomainError("radial profile is defined for r > 0 only")
    m, nu = sol.m, sol.nu
    log_r = math.log(r)
    # log(1 + r^{2 nu}) computed from the side that keeps exp() below 1
    x = 2.0 * nu * log_r
    log_one_plus = x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))
    log_u = math.log(sol.C) - m * _LOG2 - sol.gamma_decay * log_r + m * log_one_plus
    try:
        return math.exp(log_u)
    except OverflowError:
        return math.inf


def curve_rows(sol: CoshSolution, t_lo: float = -12.0, t_hi: float = 12.0, num: int = 2001):
    """Sampled profile rows (t, v, dv, d2v, d3v, residual) for CSV output."""
    K2, K0, p = sol.K2, sol.K0, sol.p
    rows = []
    try:
        for t in _linspace(t_lo, t_hi, num):
            v0, v1, v2, v3, v4 = cosh_profile_derivatives(sol, t)
            rows.append((t, v0, v1, v2, v3, v4 - K2 * v2 + K0 * v0 - v0 ** p))
    except OverflowError:
        raise ValidationError(f"the profile's v^p overflows a float (C={sol.C}, p={p})") from None
    return ("t", "v", "dv", "d2v", "d3v", "residual"), rows


def radial_curve_rows(sol: CoshSolution, r_lo: float = 1e-6, r_hi: float = 1e6, num: int = 2001):
    """Sampled radial rows (r, u) on a log-spaced grid for CSV output."""
    rs = [10.0 ** e for e in _linspace(math.log10(r_lo), math.log10(r_hi), num)]
    return ("r", "u"), [(r, eval_u(sol, r)) for r in rs]
