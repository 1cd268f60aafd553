"""Problem parameters, derived ODE coefficients, and parameter-regime tests.

The radial problem couples a weighted bilaplacian, a weighted gradient term
scaled by ``lambda`` and a weighted zero-order term scaled by ``mu``.  The
exponents (n, alpha, beta, p) are tied by the balance relation

    (n + alpha)/2 + (n + beta)/(p + 1) = n - 2,

and the substitution v(t) = r^{(n-4-alpha)/2} u(r), t = -log r turns the
radial equation into the autonomous fourth-order ODE

    v'''' - K2 v'' + K0 v = v^p.

Everything downstream (closed forms, orbits, best constants) runs on the
pair (K2, K0) computed here.

The records here are immutable ``NamedTuple``s, not dataclasses: the
``dataclasses`` module imports ``inspect`` and ``ast``, which would cost a
scalar command more than its arithmetic.  ``ProblemParams`` validates on
every construction path.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .errors import DomainError, ValidationError

_HYPERBOLA_TOL = 1e-12


class SolutionCase(Enum):
    """Which exponent family an explicit profile belongs to.

    CASE1: equal weights (alpha = beta > -2).
    CASE2: conjugate weights, (n+alpha)(n+beta) = (n-4-alpha)^2 with alpha < -2.
    GENERIC: coefficients admit the cosh profile but match neither family.
    """

    CASE1 = "Case1"
    CASE2 = "Case2"
    GENERIC = "Generic"


def beta_from_hyperbola(n: int, alpha: float, p: float) -> float:
    """Solve the balance relation for beta given (n, alpha, p)."""
    _check_base(n, alpha, p)
    return (p + 1.0) * ((n - 2.0) - (n + alpha) / 2.0) - n


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {name}={value}")


def _check_base(n: int, alpha: float, p: float) -> None:
    try:
        float(n)
    except (OverflowError, TypeError, ValueError):
        # n is not printed: str() of an int past 4300 digits raises too
        raise ValidationError("dimension n does not convert to a float") from None
    _check_finite(n=n, alpha=alpha, p=p)
    if int(n) != n or n < 5:
        raise ValidationError(f"dimension must be an integer >= 5, got n={n}")
    if not (-float(n) < alpha < n - 4.0):
        raise ValidationError(
            f"alpha must lie in (-n, n-4) = ({-n}, {n - 4}), got alpha={alpha}"
        )
    if not (p > 1.0):
        raise ValidationError(f"exponent p must exceed 1, got p={p}")


class ProblemParams(namedtuple("ProblemParams", "n alpha p lam mu beta")):
    """Validated parameter bundle (n, alpha, beta, p, lambda, mu).

    ``beta`` may be omitted; it is then recomputed from the balance
    relation.  When supplied it must satisfy the relation to 1e-12.
    ``lam`` is the gradient-term coefficient (serialized as "lambda").
    A tuple record: every way to build one (the constructor, ``_make`` and
    ``_replace``) validates and normalizes.
    """

    __slots__ = ()

    def __new__(cls, n: int, alpha: float, p: float, lam: float = 0.0, mu: float = 0.0,
                beta: Optional[float] = None) -> "ProblemParams":
        _check_base(n, alpha, p)
        _check_finite(lam=lam, mu=mu)
        if beta is not None:
            _check_finite(beta=beta)
        n, alpha, p = int(n), float(alpha), float(p)
        computed = beta_from_hyperbola(n, alpha, p)
        if not math.isfinite(computed):
            raise ValidationError(
                f"the balance relation gives a non-finite beta={computed} "
                f"for n={n}, alpha={alpha}, p={p}"
            )
        if beta is None:
            beta = computed
        else:
            beta = float(beta)
            if abs(beta - computed) > _HYPERBOLA_TOL * max(1.0, abs(computed)):
                raise ValidationError(
                    "beta violates the exponent balance relation: "
                    f"got {beta}, relation requires {computed}"
                )
        return super().__new__(cls, n, alpha, p, float(lam), float(mu), beta)

    @classmethod
    def _make(cls, iterable) -> "ProblemParams":
        # the base's _make, and _replace through it, would skip __new__
        return cls(*iterable)

    def to_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "beta": self.beta,
            "p": self.p,
            "lambda": self.lam,
            "mu": self.mu,
        }


Eigenvalue = Union[float, complex]


class DerivedCoefficients(NamedTuple):
    """Reduced-ODE coefficients and the linearization eigenvalues at v = 0.

    K2, K0 are the coefficients of v'''' - K2 v'' + K0 v = v^p.  ``l`` is the
    positive constant equilibrium K0^{1/(p-1)} (None when K0 < 0).
    ``discriminant`` is K2^2 - 4 K0 (see _discriminant).  The four
    eigenvalues solve r^4 - K2 r^2 + K0 = 0; with all four real they are
    ordered lam1 > lam2 > 0 > lam4 > lam3 and satisfy lam3 = -lam1,
    lam4 = -lam2 and K0 = lam1^2 lam2^2.
    """

    K2: float
    K0: float
    discriminant: float
    l: Optional[float]
    lam1: Eigenvalue
    lam2: Eigenvalue
    lam3: Eigenvalue
    lam4: Eigenvalue

    @property
    def eigenvalues(self) -> Tuple[Eigenvalue, Eigenvalue, Eigenvalue, Eigenvalue]:
        return (self.lam1, self.lam2, self.lam3, self.lam4)

    @property
    def eigenvalues_real(self) -> bool:
        return all(not isinstance(e, complex) for e in self.eigenvalues)


def k2_value(n: int, alpha: float, lam: float) -> float:
    return ((n - 2.0) ** 2 + (alpha + 2.0) ** 2) / 2.0 - lam


def k0_value(n: int, alpha: float, lam: float, mu: float) -> float:
    q = (n - 4.0 - alpha) / 2.0
    return q * q * (n + alpha) ** 2 / 4.0 - lam * q * q + mu


def _discriminant(n: int, alpha: float, lam: float, mu: float) -> float:
    """K2^2 - 4 K0, which collapses to x^2 - 4 mu with x = lam - (n-2)(alpha+2).

    It reads 0 where it lies within the rounding of its terms, so that the
    double roots on lam = (n-2)(alpha+2) +- 2 sqrt(mu) come out real.  An
    infinite value is returned as it is.  Raises OverflowError when x^2
    overflows.
    """
    ab = (n - 2.0) * (alpha + 2.0)
    x = lam - ab
    x2 = x ** 2
    disc = x2 - 4.0 * mu
    scale = abs(x) * (abs(lam) + abs(ab)) + x2 + 4.0 * abs(mu)
    return 0.0 if abs(disc) <= 4.0 * sys.float_info.epsilon * scale < math.inf else disc


def _overflow_error(params: ProblemParams) -> ValidationError:
    return ValidationError(
        f"coefficients overflow at n={params.n}, alpha={params.alpha}, p={params.p}, "
        f"lambda={params.lam}, mu={params.mu}"
    )


def derive_coefficients(params: ProblemParams) -> DerivedCoefficients:
    """Compute (K2, K0), the equilibrium l, and the linearization eigenvalues.

    Raises ValidationError when K2, K0, l or the discriminant overflows.
    """
    n, alpha, lam, mu = params.n, params.alpha, params.lam, params.mu
    try:
        K2 = k2_value(n, alpha, lam)
        K0 = k0_value(n, alpha, lam, mu)
        if K0 > 0.0:
            l: Optional[float] = K0 ** (1.0 / (params.p - 1.0))
        elif K0 == 0.0:
            l = 0.0
        else:
            l = None
        disc = _discriminant(n, alpha, lam, mu)
    except OverflowError:
        raise _overflow_error(params) from None
    _check_finite(K2=K2, K0=K0, discriminant=disc)
    sq = cmath.sqrt(complex(disc))
    w_plus = (complex(K2) + sq) / 2.0
    w_minus = (complex(K2) - sq) / 2.0
    lam1 = _principal_sqrt(w_plus)
    lam2 = _principal_sqrt(w_minus)
    return DerivedCoefficients(K2=K2, K0=K0, discriminant=disc, l=l,
                               lam1=lam1, lam2=lam2, lam3=-lam1, lam4=-lam2)


def _principal_sqrt(z: complex) -> Eigenvalue:
    r = cmath.sqrt(z)
    if abs(r.imag) <= 1e-14 * max(1.0, abs(r.real)):
        return abs(r.real) if r.real != 0.0 else 0.0
    return r


class ConditionReport(NamedTuple):
    """Boolean parameter-regime report.

    c1, c2, c3 are the three sufficient conditions under which the quadratic
    form is coercive and the uniqueness theory applies; norm_ok states the
    two-branch admissibility of the energy norm itself; uniqueness_ok is the
    discriminant sign K2^2 - 4 K0 >= 0; periodicity_regime and
    singular_regime gate where periodic orbits provably exist and where the
    origin singularity is non-removable.
    """

    c1: bool
    c2: bool
    c3: bool
    norm_ok: bool
    uniqueness_ok: bool
    periodicity_regime: bool
    singular_regime: bool

    def to_dict(self) -> Dict[str, bool]:
        return {
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "norm_ok": self.norm_ok,
            "uniqueness_ok": self.uniqueness_ok,
            "periodicity_regime": self.periodicity_regime,
            "singular_regime": self.singular_regime,
        }


def check_conditions(params: ProblemParams) -> ConditionReport:
    """Regime flags of params; raises ValidationError when a term overflows."""
    try:
        return _conditions(params)
    except OverflowError:
        raise _overflow_error(params) from None


def _conditions(params: ProblemParams) -> ConditionReport:
    n, alpha, lam, mu = params.n, params.alpha, params.lam, params.mu
    q = (n - 4.0 - alpha) / 2.0  # half of n-4-alpha, appears squared below
    ab = (n - 2.0) * (alpha + 2.0)
    quarter_sum = (n + alpha) ** 2 / 4.0

    c1 = mu >= 0.0 and lam <= ab - 2.0 * math.sqrt(max(mu, 0.0))
    c2 = (
        0.0 <= mu <= q ** 4
        and ab + 2.0 * math.sqrt(max(mu, 0.0)) <= lam <= mu / (q * q) + quarter_sum
    )
    c3 = mu <= 0.0 and lam <= mu / (q * q) + quarter_sum

    norm_ok = (lam <= mu / (q * q) + quarter_sum and mu <= q ** 4) or (
        lam <= q * q + quarter_sum and mu > q ** 4
    )
    uniqueness_ok = _discriminant(n, alpha, lam, mu) >= 0.0
    periodicity_regime = (
        -2.0 < alpha < n - 4.0
        and mu > 0.0
        and lam <= ab - 2.0 * math.sqrt(max(mu, 0.0))
    )
    singular_regime = (
        -float(n) < alpha <= -2.0
        and mu >= 0.0
        and lam > ab + 2.0 * math.sqrt(max(mu, 0.0))
    )
    return ConditionReport(
        c1=c1,
        c2=c2,
        c3=c3,
        norm_ok=norm_ok,
        uniqueness_ok=uniqueness_ok,
        periodicity_regime=periodicity_regime,
        singular_regime=singular_regime,
    )


def _case_exponent(case: SolutionCase, n: int, alpha: float) -> float:
    """p for the requested explicit family at given (n, alpha)."""
    if case is SolutionCase.CASE1:
        if not (alpha > -2.0):
            raise ValidationError(
                f"equal-weight family requires alpha > -2, got alpha={alpha}"
            )
        return 2.0 * (n + alpha) / (n - 4.0 - alpha) - 1.0
    if case is SolutionCase.CASE2:
        if not (alpha < -2.0):
            raise ValidationError(
                f"conjugate-weight family requires alpha < -2, got alpha={alpha}"
            )
        return 2.0 * (n - 4.0 - alpha) / (n + alpha) - 1.0
    raise ValidationError("explicit branches exist only for CASE1 or CASE2")


def explicit_lambda_branches(
    case: SolutionCase, n: int, alpha: float, mu: float
) -> Tuple[float, ...]:
    """The lambda values at which the family has a cosh profile.

    These are the roots lam_plus >= lam_minus of the quadratic obtained by
    eliminating the profile parameters, 4 (p+1)^2 K2^2 = ((p+1)^2+4)^2 K0
    in lambda, that also give K2 > 0, which the profile needs; largest
    first.  lam_minus always has K2 > 0.  lam_plus has it while mu is below
    mu* = q^2 K2(lambda=0) - K0(lambda=0, mu=0), q = (n-4-alpha)/2, so the
    result is (lam_plus, lam_minus) below mu* and (lam_minus,) above it.
    Raises DomainError when the radicand is negative (mu too negative for
    the requested family), and ValidationError when it overflows or is nan.
    """
    _check_base(n, alpha, 2.0)  # validates n and alpha range; p checked via case
    p = _case_exponent(case, n, alpha)
    P = p + 1.0
    scale = (n - 2.0) ** 2
    if case is SolutionCase.CASE1:
        A = P ** 4 - 16.0
        radicand = A * A + P * P * (p + 3.0) ** 4 * (P * P + 4.0) ** 2 * mu / scale ** 2
        denom = 2.0 * P * P * (p + 3.0) ** 2
    else:
        A = P * P * (16.0 - P ** 4)
        radicand = (
            P ** 4 * (P ** 4 - 16.0) ** 2
            + 16.0 * P * P * (p + 3.0) ** 4 * (P * P + 4.0) ** 2 * mu / scale ** 2
        )
        denom = 8.0 * P * P * (p + 3.0) ** 2
    if radicand < 0.0:
        raise DomainError(f"branch radicand is negative ({radicand}); no real lambda for mu={mu}")
    if not math.isfinite(radicand):
        raise ValidationError(f"branch radicand is not finite ({radicand}) for p={p}, mu={mu}")
    root = math.sqrt(radicand)
    roots = (scale * (A + root) / denom, scale * (A - root) / denom)
    return tuple(lam for lam in roots if k2_value(n, alpha, lam) > 0.0)


def _linspace(start: float, stop: float, num: int) -> List[float]:
    """np.linspace(start, stop, num) on Python floats, equal bit for bit."""
    delta = stop - start
    if num == 1:
        return [0.0 * delta + start]
    div = num - 1
    step = delta / div
    if step == 0.0:  # numpy's branch for a step that underflows to zero
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values
