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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple, Union

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
    _check_finite(n=n, alpha=alpha, p=p)
    if int(n) != n or n < 5:
        raise ValidationError(f"dimension must be an integer >= 5, got n={n}")
    if not (-float(n) < alpha < n - 4.0):
        raise ValidationError(
            f"alpha must lie in (-n, n-4) = ({-n}, {n - 4}), got alpha={alpha}"
        )
    if not (p > 1.0):
        raise ValidationError(f"exponent p must exceed 1, got p={p}")


@dataclass(frozen=True)
class ProblemParams:
    """Validated parameter bundle (n, alpha, beta, p, lambda, mu).

    ``beta`` may be omitted; it is then recomputed from the balance
    relation.  When supplied it must satisfy the relation to 1e-12.
    ``lam`` is the gradient-term coefficient (serialized as "lambda").
    """

    n: int
    alpha: float
    p: float
    lam: float = 0.0
    mu: float = 0.0
    beta: Optional[float] = None

    def __post_init__(self):
        _check_base(self.n, self.alpha, self.p)
        _check_finite(lam=self.lam, mu=self.mu)
        if self.beta is not None:
            _check_finite(beta=self.beta)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "mu", float(self.mu))
        computed = beta_from_hyperbola(self.n, self.alpha, self.p)
        if self.beta is None:
            object.__setattr__(self, "beta", computed)
        else:
            object.__setattr__(self, "beta", float(self.beta))
            if abs(self.beta - computed) > _HYPERBOLA_TOL * max(1.0, abs(computed)):
                raise ValidationError(
                    "beta violates the exponent balance relation: "
                    f"got {self.beta}, relation requires {computed}"
                )

    @property
    def hyperbola_residual(self) -> float:
        return (self.n + self.alpha) / 2.0 + (self.n + self.beta) / (self.p + 1.0) - (
            self.n - 2.0
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "beta": self.beta,
            "p": self.p,
            "lambda": self.lam,
            "mu": self.mu,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, float]) -> "ProblemParams":
        return cls(
            n=d["n"],
            alpha=d["alpha"],
            p=d["p"],
            lam=d.get("lambda", 0.0),
            mu=d.get("mu", 0.0),
            beta=d.get("beta"),
        )


Eigenvalue = Union[float, complex]


@dataclass(frozen=True)
class DerivedCoefficients:
    """Reduced-ODE coefficients and the linearization eigenvalues at v = 0.

    K2, K0 are the coefficients of v'''' - K2 v'' + K0 v = v^p.  ``l`` is the
    positive constant equilibrium K0^{1/(p-1)} (None when K0 < 0).  The four
    eigenvalues solve r^4 - K2 r^2 + K0 = 0; with all four real they are
    ordered lam1 > lam2 > 0 > lam4 > lam3 and satisfy lam3 = -lam1,
    lam4 = -lam2 and K0 = lam1^2 lam2^2.
    """

    K2: float
    K0: float
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

    def to_dict(self) -> Dict[str, object]:
        def enc(e: Eigenvalue):
            if isinstance(e, complex):
                return {"re": e.real, "im": e.imag}
            return e

        return {
            "K2": self.K2,
            "K0": self.K0,
            "l": self.l,
            "lam1": enc(self.lam1),
            "lam2": enc(self.lam2),
            "lam3": enc(self.lam3),
            "lam4": enc(self.lam4),
        }


def k2_value(n: int, alpha: float, lam: float) -> float:
    return ((n - 2.0) ** 2 + (alpha + 2.0) ** 2) / 2.0 - lam


def k0_value(n: int, alpha: float, lam: float, mu: float) -> float:
    q = (n - 4.0 - alpha) / 2.0
    return q * q * (n + alpha) ** 2 / 4.0 - lam * q * q + mu


def derive_coefficients(params: ProblemParams) -> DerivedCoefficients:
    """Compute (K2, K0), the equilibrium l, and the linearization eigenvalues."""
    n, alpha, lam, mu = params.n, params.alpha, params.lam, params.mu
    K2 = k2_value(n, alpha, lam)
    K0 = k0_value(n, alpha, lam, mu)
    if K0 > 0.0:
        l: Optional[float] = K0 ** (1.0 / (params.p - 1.0))
    elif K0 == 0.0:
        l = 0.0
    else:
        l = None

    # The discriminant K2^2 - 4 K0 collapses to (lam - (n-2)(alpha+2))^2 - 4 mu.
    disc = (lam - (n - 2.0) * (alpha + 2.0)) ** 2 - 4.0 * mu
    sq = cmath.sqrt(complex(disc))
    w_plus = (complex(K2) + sq) / 2.0
    w_minus = (complex(K2) - sq) / 2.0
    lam1 = _principal_sqrt(w_plus)
    lam2 = _principal_sqrt(w_minus)
    lam3 = _negate(lam1)
    lam4 = _negate(lam2)
    return DerivedCoefficients(K2=K2, K0=K0, l=l, lam1=lam1, lam2=lam2, lam3=lam3, lam4=lam4)


def _principal_sqrt(z: complex) -> Eigenvalue:
    r = cmath.sqrt(z)
    if abs(r.imag) <= 1e-14 * max(1.0, abs(r.real)):
        return abs(r.real) if r.real != 0.0 else 0.0
    return r


def _negate(e: Eigenvalue) -> Eigenvalue:
    return -e


@dataclass(frozen=True)
class ConditionReport:
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
    uniqueness_ok = k2_value(n, alpha, lam) ** 2 - 4.0 * k0_value(n, alpha, lam, mu) >= 0.0
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
) -> Tuple[float, float]:
    """Both lambda values for which the explicit cosh profile exists.

    Returns (lam_plus, lam_minus), the two roots of the quadratic obtained
    by eliminating the profile parameters.  Raises DomainError when the
    radicand is negative (mu too negative for the requested family).
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
        raise DomainError(
            f"branch radicand is negative ({radicand}); no real lambda for mu={mu}"
        )
    root = math.sqrt(radicand)
    return (scale * (A + root) / denom, scale * (A - root) / denom)
