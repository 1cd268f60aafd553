"""Special functions: Gamma, Beta and the sphere measure."""

from __future__ import annotations

import math

from .errors import PoleError, ValidationError


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x, by math.gamma."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValidationError(f"gamma_fn requires a finite argument, got {x}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma_fn pole at nonpositive integer x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise ValidationError(f"gamma_fn({x}) overflows a float") from None


def beta_fn(a: float, b: float) -> float:
    """Euler Beta via the Gamma quotient Gamma(a)Gamma(b)/Gamma(a+b)."""
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        raise PoleError(f"beta_fn pole at a={a}, b={b}")
    if _is_nonpositive_integer(a + b):
        # Gamma(a+b) pole makes the quotient vanish in the limit.
        return 0.0
    return gamma_fn(a) * gamma_fn(b) / gamma_fn(a + b)


def omega_n(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    if int(n) != n or n < 1:
        raise ValidationError(f"omega_n requires a positive integer dimension, got {n}")
    n = int(n)
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)
