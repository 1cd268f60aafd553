"""Rayleigh quotient of the reduced equation and best-constant assembly.

The quotient Q(v) = (int |v''|^2 + K2 |v'|^2 + K0 v^2) / (int |v|^{p+1})^{2/(p+1)}
over H^2(R) is discretized on a uniform grid with second-order stencils and
trapezoidal quadrature, and minimized by a preconditioned fixed-point
iteration.  Its one linear solve per step reuses a banded Cholesky factor
of the pentadiagonal quadratic-form operator, computed once on Python
floats (Golub & Van Loan, Matrix Computations, section 4.3).  The infimum
phi also has a closed form whenever the explicit cosh-profile solution
exists, and the radial best constant is S_rad = omega_n^{(p-1)/(p+1)} * phi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Tuple

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


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform symmetric grid on [-L, L] carrying sampled values of v."""

    L: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        import numpy as np
        L = float(self.L)
        h = float(self.h)
        if not (L > 0.0 and h > 0.0):
            raise ValidationError(f"grid needs L > 0 and h > 0, got L={L}, h={h}")
        ratio = L / h
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValidationError(f"L/h must be integral, got L/h={ratio}")
        vals = np.asarray(self.values, dtype=float)
        expect = 2 * int(round(ratio)) + 1
        if vals.shape != (expect,):
            raise ValidationError(
                f"values must have {expect} entries for L={L}, h={h}, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("grid values must be finite")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "values", vals.copy())

    @property
    def n_nodes(self) -> int:
        return len(self.values)

    @property
    def ts(self) -> np.ndarray:
        import numpy as np
        return np.linspace(-self.L, self.L, self.n_nodes)

    def with_values(self, values: np.ndarray) -> "Grid1D":
        return Grid1D(self.L, self.h, values)


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


def _derivatives(v: np.ndarray, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Second-order first and second differences, one-sided at the ends."""
    import numpy as np
    d1 = np.empty_like(v)
    d2 = np.empty_like(v)
    d1[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d1[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d1[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    d2[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
    d2[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    return d1, d2


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    import numpy as np
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def rayleigh_quotient(grid: Grid1D, K2: float, K0: float, p: float) -> float:
    """Discrete quotient; raises DomainError when the denominator vanishes."""
    import numpy as np
    v = grid.values
    if grid.n_nodes < 5:
        raise ValidationError("quotient needs at least 5 grid nodes")
    w = _trapezoid_weights(grid.n_nodes, grid.h)
    d1, d2 = _derivatives(v, grid.h)
    num = float(np.sum(w * (d2 * d2 + K2 * d1 * d1 + K0 * v * v)))
    den = float(np.sum(w * np.abs(v) ** (p + 1.0)))
    if den <= 0.0:
        raise DomainError("quotient denominator vanished: values are identically zero")
    return num * math.exp(-2.0 / (p + 1.0) * math.log(den))


def _gram_bands(stencil: Tuple[float, float, float], n: int):
    """Diagonal and first two superdiagonals of D^T D, where D is the
    (n-2) x n matrix whose row i holds the 3-point stencil at columns i..i+2."""
    import numpy as np
    a, b, c = stencil
    m = n - 2
    d0 = np.zeros(n)
    d0[:m] += a * a
    d0[1:m + 1] += b * b
    d0[2:] += c * c
    d1 = np.zeros(n - 1)
    d1[:m] += a * b
    d1[1:] += b * c
    return d0, d1, np.full(m, a * c)


def _quadratic_form_bands(n: int, h: float, K2: float, K0: float):
    """Bands (diagonal, first and second superdiagonal) of the operator
    A = h (D2^T D2 + K2 D1^T D1) + K0 h I, with D2 and D1 the second and
    first central differences on the interior nodes."""
    inv_h2 = 1.0 / (h * h)
    half_inv_h = 1.0 / (2.0 * h)
    s0, s1, s2 = _gram_bands((inv_h2, -2.0 * inv_h2, inv_h2), n)
    t0, t1, t2 = _gram_bands((-half_inv_h, 0.0, half_inv_h), n)
    return h * (s0 + K2 * t0) + K0 * h, h * (s1 + K2 * t1), h * (s2 + K2 * t2)


def _band_cholesky(diag, off1, off2):
    """Cholesky factor L of a symmetric positive definite pentadiagonal matrix.

    Takes the diagonal and the first and second superdiagonals as float
    sequences and returns (g, e, f) lists indexed by row: L[i, i] = g[i],
    L[i, i-1] = e[i] and L[i, i-2] = f[i], with e[0] = f[0] = f[1] = 0.
    Raises DomainError on a pivot that is not positive.
    """
    g: List[float] = []
    e: List[float] = []
    f: List[float] = []
    g2 = g1 = 1.0  # L[i-2, i-2], L[i-1, i-1]
    e1 = 0.0  # L[i-1, i-2]
    for a, b, c in zip(diag, [0.0, *off1], [0.0, 0.0, *off2]):
        fi = c / g2
        ei = (b - fi * e1) / g1
        piv = a - fi * fi - ei * ei
        if not piv > 0.0:
            raise DomainError(f"quadratic-form operator is not positive definite (pivot {piv})")
        gi = math.sqrt(piv)
        g.append(gi)
        e.append(ei)
        f.append(fi)
        g2, g1, e1 = g1, gi, ei
    return g, e, f


def _band_cholesky_solve(factor, rhs) -> np.ndarray:
    """Solve L L^T x = rhs by one forward and one back substitution."""
    import numpy as np
    g, e, f = factor
    y: List[float] = []
    y2 = y1 = 0.0
    for r, gi, ei, fi in zip(rhs, g, e, f):
        yi = (r - ei * y1 - fi * y2) / gi
        y.append(yi)
        y2, y1 = y1, yi
    x: List[float] = []
    x2 = x1 = 0.0
    for yi, gi, ei, fi in zip(reversed(y), reversed(g), reversed([*e[1:], 0.0]),
                              reversed([*f[2:], 0.0, 0.0])):
        xi = (yi - ei * x1 - fi * x2) / gi
        x.append(xi)
        x2, x1 = x1, xi
    x.reverse()
    return np.array(x)


# Largest grid minimize_rayleigh accepts; its band factor then holds about
# 100 MB of Python floats.
_MAX_NODES = 1_000_001


@dataclass(frozen=True)
class MinimizeResult:
    """Quotient value plus minimizer grid; unpacks as (value, grid)."""

    value: float
    grid: Grid1D
    iterations: int
    converged: bool

    def __iter__(self) -> Iterator:
        return iter((self.value, self.grid))


def minimize_rayleigh(params: ProblemParams, L: float, h: float,
                      max_iter: int = 400) -> MinimizeResult:
    """Minimize the discrete quotient by preconditioned fixed-point descent.

    Starts from the sech(t)^{4/(p-1)} profile, repeatedly solves
    A w = W |v|^{p-1} v with A the quadratic-form operator (pentadiagonal,
    positive definite for K2, K0 > 0; factored once by a banded Cholesky
    decomposition, so each iteration costs one forward and one back
    substitution), renormalizes in L^{p+1}, and damps the update whenever
    the quotient would increase.  Stops when the
    relative quotient change drops below 1e-10; raises ConvergenceError when
    even the most damped step (1e-4) raises the quotient, or after max_iter
    iterations.  Warns when the minimizer
    has not decayed below 1e-8 at the grid ends.  Raises ValidationError,
    before allocating, for L or h that is not finite and positive and for
    grids of more than _MAX_NODES nodes.
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

    # Quadratic form on interior stencils: pentadiagonal, symmetric positive
    # definite thanks to the K0 mass term.
    factor = _band_cholesky(*(band.tolist() for band in
                              _quadratic_form_bands(n_nodes, h, K2, K0)))

    w_quad = _trapezoid_weights(n_nodes, h)

    def lp_normalize(u: np.ndarray) -> np.ndarray:
        den = float(np.sum(w_quad * np.abs(u) ** (p + 1.0)))
        if den <= 0.0:
            raise DomainError("iterate collapsed to zero during minimization")
        return u * math.exp(-math.log(den) / (p + 1.0))

    def quotient(u: np.ndarray) -> float:
        return rayleigh_quotient(Grid1D(L, h, u), K2, K0, p)

    v = lp_normalize(v)
    q = quotient(v)
    for iterations in range(1, max_iter + 1):
        rhs = w_quad * np.abs(v) ** (p - 1.0) * v
        u = _band_cholesky_solve(factor, rhs.tolist())
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
    return MinimizeResult(value=float(q), grid=Grid1D(L, h, v),
                          iterations=iterations, converged=True)


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
