"""Special functions: Gamma, Beta, sphere measure, cosh-power integrals."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PoleError, ValidationError

# Lanczos approximation, g = 7, 9 coefficients.  Relative error on the
# positive real axis is a few ulp, comfortably below the 1e-13 budget.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x, Lanczos series with reflection for x < 0.5."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValidationError(f"gamma_fn requires a finite argument, got {x}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma_fn pole at nonpositive integer x={x}")
    if x < 0.5:
        # Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def beta_fn(a: float, b: float) -> float:
    """Euler Beta via the Gamma quotient Gamma(a)Gamma(b)/Gamma(a+b)."""
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        raise PoleError(f"beta_fn pole at a={a}, b={b}")
    if _is_nonpositive_integer(a + b):
        # Gamma(a+b) pole makes the quotient vanish in the limit.
        return 0.0
    return gamma_fn(a) * gamma_fn(b) / gamma_fn(a + b)


@dataclass(frozen=True)
class SphereMeasure:
    """Surface measure of the unit sphere in R^n."""

    n: int
    omega_n: float


def omega_n(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    if int(n) != n or n < 1:
        raise ValidationError(f"omega_n requires a positive integer dimension, got {n}")
    n = int(n)
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)


def sphere_measure(n: int) -> SphereMeasure:
    return SphereMeasure(n=int(n), omega_n=omega_n(n))


def _gl_panels(t_lo: float, t_hi: float, n_points: int, panel_width: float):
    """Composite Gauss-Legendre nodes/weights on [t_lo, t_hi]."""
    import numpy as np
    x, w = np.polynomial.legendre.leggauss(n_points)
    n_panels = max(1, int(math.ceil((t_hi - t_lo) / panel_width)))
    edges = np.linspace(t_lo, t_hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def cosh_power_integral(gamma_exp: float, nu: float, method: str = "closed_form") -> float:
    """Integral of (cosh(nu t))^gamma_exp over t in [0, inf).

    Converges only for gamma_exp < 0 and nu > 0; the closed form is
    (1/nu) * (1/2) * Beta(-gamma_exp/2, 1/2).  The quadrature route exists
    as an independent cross-check of the Beta-function algebra.
    """
    g = float(gamma_exp)
    nu = float(nu)
    if not (g < 0.0):
        raise ValidationError(f"cosh_power_integral requires gamma_exp < 0, got {g}")
    if not (nu > 0.0):
        raise ValidationError(f"cosh_power_integral requires nu > 0, got {nu}")
    if method == "closed_form":
        return 0.5 * beta_fn(-0.5 * g, 0.5) / nu
    if method == "quadrature":
        import numpy as np
        # Truncate where the integrand is below 1e-18 relative to its peak.
        t_max = (42.0 / (-g) + math.log(2.0)) / nu
        nodes, weights = _gl_panels(0.0, t_max, 16, min(0.5, t_max / 8.0))
        # log cosh is exact for large arguments: |x| + log1p(e^{-2|x|}) - log 2
        ax = np.abs(nu * nodes)
        log_cosh = ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)
        vals = np.exp(g * log_cosh)
        return float(np.dot(weights, vals))
    raise ValidationError(f"unknown method {method!r} for cosh_power_integral")
