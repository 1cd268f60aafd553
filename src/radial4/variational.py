"""Rayleigh quotient of the reduced equation and best-constant assembly.

The quotient Q(v) = (int |v''|^2 + K2 |v'|^2 + K0 v^2) / (int |v|^{p+1})^{2/(p+1)}
over H^2(R) is discretized on one uniform periodic grid with second-order
central differences and the rectangle rule, and minimized by a
preconditioned fixed-point iteration.  On that grid the quadratic-form
operator is circulant, so its one linear solve per step is a division by
the operator's eigenvalues between two real FFTs (P. J. Davis, Circulant
Matrices, 1979).  The infimum phi also has a closed form whenever the
explicit cosh-profile solution exists, and the radial best constant is
S_rad = omega_n^{(p-1)/(p+1)} * phi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from .closed_form import build_cosh_solution
from .errors import (
    ConvergenceError,
    DomainError,
    Radial4Error,
    RegimeError,
    ValidationError,
)
from .params import ProblemParams, SolutionCase, derive_coefficients
from .specfun import beta_fn, omega_n


class ConstantSource(Enum):
    CLOSED_FORM = "ClosedForm"
    NUMERICAL = "Numerical"


@dataclass(frozen=True)
class BestConstantResult:
    """1-D infimum phi and the radial constant it induces in n dimensions."""

    phi: float
    S_rad: float
    source: ConstantSource

    def to_dict(self) -> dict:
        return {"phi": self.phi, "S_rad": self.S_rad, "source": self.source.value}


def rayleigh_quotient(values: np.ndarray, h: float, K2: float, K0: float, p: float) -> float:
    """Discrete quotient of the values of v at uniform nodes h apart, the
    last node wrapping round to the first.

    Raises ValidationError for fewer than 5 nodes or a value that is not
    finite, and DomainError when the denominator vanishes.
    """
    import numpy as np
    v = np.asarray(values, dtype=float)
    if len(v) < 5:
        raise ValidationError("quotient needs at least 5 grid nodes")
    if not np.all(np.isfinite(v)):
        raise ValidationError("grid values must be finite")
    ahead, behind = np.roll(v, -1), np.roll(v, 1)
    d1 = (ahead - behind) / (2.0 * h)
    d2 = (ahead - 2.0 * v + behind) / (h * h)
    num = h * float(np.sum(d2 * d2 + K2 * d1 * d1 + K0 * v * v))
    den = h * float(np.sum(np.abs(v) ** (p + 1.0)))
    if den <= 0.0:
        raise DomainError("quotient denominator vanished: values are identically zero")
    return num * math.exp(-2.0 / (p + 1.0) * math.log(den))


def _operator_symbol(n: int, h: float, K2: float, K0: float) -> np.ndarray:
    """Eigenvalues, in rfft order, of the circulant operator
    A = h (D2^T D2 + K2 D1^T D1 + K0 I) whose form rayleigh_quotient evaluates."""
    import numpy as np
    theta = 2.0 * math.pi * np.arange(n // 2 + 1) / n
    return h * ((2.0 - 2.0 * np.cos(theta)) ** 2 / h ** 4
                + K2 * np.sin(theta) ** 2 / (h * h) + K0)


# Largest grid minimize_rayleigh accepts; each of its float arrays then
# takes 8 MB.
_MAX_NODES = 1_000_001


@dataclass(frozen=True)
class MinimizeResult:
    """Minimized quotient value and the iterations it took."""

    value: float
    iterations: int


def minimize_rayleigh(params: ProblemParams, L: float, h: float,
                      max_iter: int = 400) -> MinimizeResult:
    """Minimize the discrete quotient by preconditioned fixed-point descent.

    The nodes of [-L, L] spaced h apart form one periodic grid.  Starts from
    the sech(t)^{4/(p-1)} profile, repeatedly solves A w = h |v|^{p-1} v with
    A the quadratic-form operator (circulant, positive definite for
    K2, K0 > 0, so one FFT pair solves it), renormalizes in L^{p+1}, and
    damps the update whenever the quotient would increase: a normalized
    Petviashvili-type iteration (Pelinovsky & Stepanyants, SIAM J. Numer.
    Anal. 42 (2004) 1110).  Stops when the relative quotient change drops
    below 1e-10; raises ConvergenceError when even the most damped step
    (1e-4) raises the quotient, or after max_iter iterations.  Warns when
    the minimizer has not decayed below 1e-8 at the grid ends.  Raises
    ValidationError, before allocating, for L or h that is not finite and
    positive and for grids of more than _MAX_NODES nodes.
    """
    coeff = derive_coefficients(params)
    K2, K0, p = coeff.K2, coeff.K0, params.p
    if K2 <= 0.0 or K0 <= 0.0:
        raise RegimeError(
            f"quotient minimization requires K2 > 0 and K0 > 0, got K2={K2}, K0={K0}"
        )

    if not (0.0 < L < math.inf and 0.0 < h < math.inf):
        raise ValidationError(f"grid needs finite L > 0 and h > 0, got L={L}, h={h}")
    if 2.0 * L / h + 1.0 > _MAX_NODES:
        raise ValidationError(f"grid with L/h = {L / h} exceeds the cap of {_MAX_NODES} nodes")
    n_half = int(round(L / h))
    if abs(L / h - n_half) > 1e-9 * max(1.0, L / h):
        raise ValidationError(f"L/h must be integral, got {L / h}")
    n_nodes = 2 * n_half + 1
    import numpy as np
    ts = np.linspace(-L, L, n_nodes)

    with np.errstate(over="ignore", under="ignore"):
        sech = 1.0 / np.cosh(ts)
    v = sech ** (4.0 / (p - 1.0))

    symbol = _operator_symbol(n_nodes, h, K2, K0)

    def lp_normalize(u: np.ndarray) -> np.ndarray:
        den = h * float(np.sum(np.abs(u) ** (p + 1.0)))
        if den <= 0.0:
            raise DomainError("iterate collapsed to zero during minimization")
        return u * math.exp(-math.log(den) / (p + 1.0))

    def quotient(u: np.ndarray) -> float:
        return rayleigh_quotient(u, h, K2, K0, p)

    v = lp_normalize(v)
    q = quotient(v)
    for iterations in range(1, max_iter + 1):
        rhs = h * np.abs(v) ** (p - 1.0) * v
        u = np.fft.irfft(np.fft.rfft(rhs) / symbol, n_nodes)
        u = lp_normalize(np.abs(u))
        accepted = False
        sigma = 1.0
        while sigma >= 1e-4:
            cand = lp_normalize(v + sigma * (u - v))
            qc = quotient(cand)
            if qc <= q:
                accepted = True
                break
            sigma *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"quotient minimization stalled at iteration {iterations}: the line search "
                f"found no step that does not raise the quotient {q!r}"
            )
        rel = abs(q - qc) / max(abs(q), 1e-300)
        v, q = cand, qc
        if rel < 1e-10:
            break
    else:
        raise ConvergenceError(
            f"quotient minimization did not converge within {max_iter} iterations"
        )

    edge = max(abs(float(v[0])), abs(float(v[-1])))
    if edge > 1e-8:
        warnings.warn(
            f"minimizer has boundary contamination |v(+-L)|={edge:.3e} > 1e-8; "
            "increase L",
            RuntimeWarning,
            stacklevel=2,
        )
    return MinimizeResult(value=float(q), iterations=iterations)


def _phi_from_exponents(nu: float, m: float, exp_nu: float, exp_bracket: float) -> float:
    quartic = m * (m - 1.0) * (m - 2.0) * (m - 3.0)
    bracket = 4.0 * m * (m - 1.0) / ((2.0 * m - 1.0) * (2.0 * m - 3.0)) * beta_fn(-m, 0.5)
    if bracket <= 0.0 or quartic <= 0.0:
        raise DomainError(
            f"best-constant formula needs positive factors, got quartic={quartic}, "
            f"bracket={bracket}"
        )
    return nu ** exp_nu * quartic * bracket ** exp_bracket


def phi_closed_form(params: ProblemParams) -> BestConstantResult:
    """Closed-form 1-D infimum via the explicit cosh profile.

    phi = nu^{3+2/(p+1)} m(m-1)(m-2)(m-3) [4m(m-1)/((2m-1)(2m-3)) B(-m,1/2)]^{(p-1)/(p+1)}
    and S_rad = omega_n^{(p-1)/(p+1)} phi.  For the two structured parameter
    families the same value is recomputed through the case-specific exponent
    forms and must agree to 1e-10 relative, as an internal consistency check.
    """
    sol = build_cosh_solution(params)
    p = params.p
    phi = _phi_from_exponents(sol.nu, sol.m, 3.0 + 2.0 / (p + 1.0), (p - 1.0) / (p + 1.0))

    n, alpha = params.n, params.alpha
    if sol.case_tag == SolutionCase.CASE1:
        cross = _phi_from_exponents(
            sol.nu, sol.m,
            2.0 * (2.0 * n + alpha - 2.0) / (n + alpha),
            2.0 * (2.0 + alpha) / (n + alpha),
        )
    elif sol.case_tag == SolutionCase.CASE2:
        cross = _phi_from_exponents(
            sol.nu, sol.m,
            2.0 * (2.0 * n - alpha - 6.0) / (n - 4.0 - alpha),
            -2.0 * (2.0 + alpha) / (n - 4.0 - alpha),
        )
    else:
        cross = phi
    if abs(cross - phi) > 1e-10 * max(abs(phi), abs(cross)):
        raise Radial4Error(
            f"case-specific exponent form disagrees with the generic one: {cross} vs {phi}"
        )

    s_rad = omega_n(params.n) ** ((p - 1.0) / (p + 1.0)) * phi
    return BestConstantResult(phi=float(phi), S_rad=float(s_rad),
                              source=ConstantSource.CLOSED_FORM)


def best_constant_numerical(params: ProblemParams, L: float = 40.0,
                            h: float = 0.01) -> Tuple[BestConstantResult, MinimizeResult]:
    """Numerical counterpart of phi_closed_form via quotient minimization."""
    res = minimize_rayleigh(params, L, h)
    p = params.p
    s_rad = omega_n(params.n) ** ((p - 1.0) / (p + 1.0)) * res.value
    return (
        BestConstantResult(phi=res.value, S_rad=float(s_rad),
                           source=ConstantSource.NUMERICAL),
        res,
    )
