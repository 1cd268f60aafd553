"""Weighted radial integral identities verified by quadrature.

All integrals over R^n of radial integrands are reduced to 1-D integrals in
the logarithmic variable t = -ln r, where power weights |x|^{-w} become
exponentials e^{(w-n)t} and the origin singularity disappears.  Test
functions supply (u, u', u'') analytically so that identity verification is
never polluted by differentiation error.  The identities themselves relate
weighted norms of Delta u, the gradient, and the first-order operators
T_a u = u' + (n-2-a)/(2r) u.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, Radial4Error, TailError, ValidationError
from .specfun import _gl_panels, omega_n

_TAIL_REL = 1e-14
# Largest grid half-width whose radii exp(T) stay finite.
_T_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class RadialTestFunction:
    """Radial profile with analytic first and second derivatives.

    evaluator maps an array of radii to the triple (u, u', u''); the
    support hint brackets where the profile is numerically alive and the
    smoothness tag records why it is safe to differentiate twice.
    """

    name: str
    evaluator: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]
    support_hint: Tuple[float, float]
    smoothness_tag: str

    def __call__(self, r: np.ndarray):
        return self.evaluator(np.asarray(r, dtype=float))


def _gaussian(r: np.ndarray):
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(-r * r)
        u = w
        du = -2.0 * r * w
        d2u = np.where(w == 0.0, 0.0, (4.0 * r * r - 2.0) * w)
    return u, du, d2u


def _gaussian_r2(r: np.ndarray):
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(-r * r)
        r2 = r * r
        u = np.where(w == 0.0, 0.0, r2 * w)
        du = np.where(w == 0.0, 0.0, (2.0 * r - 2.0 * r2 * r) * w)
        d2u = np.where(w == 0.0, 0.0, (2.0 - 10.0 * r2 + 4.0 * r2 * r2) * w)
    return u, du, d2u


def _log_gaussian(r: np.ndarray):
    s = np.log(r)
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(-s * s)
        u = w
        du = np.where(w == 0.0, 0.0, -2.0 * s * w / r)
        d2u = np.where(w == 0.0, 0.0, (4.0 * s * s + 2.0 * s - 2.0) * w / (r * r))
    return u, du, d2u


def _sech_log(r: np.ndarray):
    s = np.log(r)
    with np.errstate(over="ignore", under="ignore"):
        sech = 1.0 / np.cosh(s)
        tanh = np.tanh(s)
        u = sech
        du = -sech * tanh / r
        d2u = (-sech * (sech * sech - tanh * tanh) + sech * tanh) / (r * r)
    return u, du, d2u


TEST_FUNCTIONS: Dict[str, RadialTestFunction] = {
    "gaussian": RadialTestFunction(
        "gaussian", _gaussian, (1e-17, 8.0), "entire in r^2"
    ),
    "gaussian_r2": RadialTestFunction(
        "gaussian_r2", _gaussian_r2, (1e-17, 9.0), "entire in r^2, double zero at 0"
    ),
    "log_gaussian": RadialTestFunction(
        "log_gaussian", _log_gaussian, (math.exp(-7.0), math.exp(7.0)), "smooth on (0, inf)"
    ),
    "sech_log": RadialTestFunction(
        "sech_log", _sech_log, (math.exp(-35.0), math.exp(35.0)), "smooth, power-law tails"
    ),
}


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre nodes/weights on the symmetric t-interval.

    The grid keeps its radii and each test function's (u, u', u'') at those
    radii once computed, so every integral over it shares one evaluation.
    """

    nodes: np.ndarray
    weights: np.ndarray
    t_span: Tuple[float, float]
    _profiles: Dict[RadialTestFunction, tuple] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, T: float = 40.0, panel_width: float = 0.5,
              points_per_panel: int = 16) -> "QuadratureGrid":
        if not 0.0 < T <= _T_MAX:
            raise ValidationError(
                f"grid half-width must lie in (0, {_T_MAX:.6g}] so that exp(T) is finite, got {T}")
        nodes, weights = _gl_panels(-T, T, points_per_panel, panel_width)
        return cls(nodes=nodes, weights=weights, t_span=(-T, T))

    @cached_property
    def radii(self) -> np.ndarray:
        """exp(-nodes), read-only because every integral over the grid shares it."""
        r = np.exp(-self.nodes)
        r.flags.writeable = False
        return r

    def _profile(self, u: RadialTestFunction) -> tuple:
        """(u, u', u'') at the grid radii."""
        if u not in self._profiles:
            self._profiles[u] = u(self.radii)
        return self._profiles[u]


def weighted_power_integral(field: Callable[[np.ndarray], np.ndarray], power: float,
                            weight_exp: float, n: int, grid: QuadratureGrid) -> float:
    """omega_n * integral of |field(r)|^power r^{-weight_exp} r^{n-1} dr.

    Computed in t = -ln r coordinates where the radial factors collapse to
    e^{(weight_exp - n) t}; the product is assembled in log space so that
    huge weights times tiny field values cannot overflow on the way to a
    negligible contribution.  Raises TailError when the integrand has not
    decayed below 1e-14 of its maximum at either end of the grid.
    """
    fv = np.abs(np.asarray(field(grid.radii), dtype=float))
    if not np.isfinite(fv).all():
        raise DomainError("field evaluation produced non-finite values")
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        logg = np.where(fv > 0.0, power * np.log(fv), -np.inf) + (weight_exp - n) * grid.nodes
        g = np.exp(logg)
    g[~np.isfinite(g)] = 0.0
    peak = float(g.max())
    if peak == 0.0:
        return 0.0
    lo_end = float(g[-8:].max())   # nodes are ascending in t; t -> +T is r -> 0
    hi_end = float(g[:8].max())    # t -> -T is r -> +inf
    if hi_end > _TAIL_REL * peak:
        raise TailError(
            f"integrand tail at r->inf is {hi_end:.3e} vs peak {peak:.3e}",
            end="r_inf", end_value=hi_end / peak,
        )
    if lo_end > _TAIL_REL * peak:
        raise TailError(
            f"integrand tail at r->0 is {lo_end:.3e} vs peak {peak:.3e}",
            end="r_zero", end_value=lo_end / peak,
        )
    return float(omega_n(n) * (grid.weights * g).sum())


def weighted_integral(field: Callable[[np.ndarray], np.ndarray], weight_exp: float,
                      n: int, grid: QuadratureGrid) -> float:
    """omega_n * integral of field(r)^2 r^{-weight_exp} r^{n-1} dr."""
    return weighted_power_integral(field, 2.0, weight_exp, n, grid)


def t_operator(alpha_idx: float, u: RadialTestFunction, r, n: int):
    """First-order radial operator u' + (n-2-alpha_idx)/(2r) u."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("t_operator requires r > 0")
    uv, du, _ = u(r)
    return du + 0.5 * (n - 2.0 - alpha_idx) / r * uv


class IdentityId(Enum):
    RELLICH22 = "Rellich22"
    GRADIENT23 = "Gradient23"
    TOP24 = "TOp24"
    GRADIENT25 = "Gradient25"
    NORM_DECOMP = "NormDecomp"
    HARDY31 = "Hardy31"
    TAU_SCALING = "TauScaling"


@dataclass(frozen=True)
class IdentityReport:
    """Two sides of one verified identity and their relative mismatch."""

    identity_id: IdentityId
    lhs: float
    rhs: float
    rel_err: float
    ratio: Optional[float] = None
    constant: Optional[float] = None

    def to_dict(self) -> dict:
        d = {
            "identity": self.identity_id.value,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "rel_err": self.rel_err,
        }
        if self.ratio is not None:
            d["ratio"] = self.ratio
        if self.constant is not None:
            d["constant"] = self.constant
        return d


def _rel_err(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _fields(u: RadialTestFunction, n: int, alpha: float, grid: QuadratureGrid):
    """Scalar fields r -> value on the grid radii used by the identity assemblies."""
    uv, du, d2u = grid._profile(u)

    def u_val(r):
        return uv

    def du_val(r):
        return du

    def laplacian(r):
        return d2u + (n - 1.0) / r * du

    def t_a2(r):
        # t_operator keeps its r > 0 check; it reads the profile computed above
        return t_operator(alpha + 2.0, lambda _: (uv, du, d2u), r, n)

    def t_a_t_a2(r):
        half = 0.5 * (n - 4.0 - alpha)
        return d2u + (n - 3.0 - alpha) / r * du + half * half / (r * r) * uv

    def grad_weighted(q_exp):
        # |d/dr (r^q u)| = r^{q-1} |q u + r u'|
        def g(r):
            with np.errstate(over="ignore", under="ignore"):
                return r ** (q_exp - 1.0) * (q_exp * uv + r * du)
        return g

    return u_val, du_val, laplacian, t_a2, t_a_t_a2, grad_weighted


def verify_identity(identity: IdentityId, u: RadialTestFunction, n: int, alpha: float,
                    lam: float, mu: float, grid: QuadratureGrid) -> IdentityReport:
    """Assemble both sides of one weighted identity by quadrature.

    Equality identities report rel_err = |lhs-rhs|/max(|lhs|,|rhs|); the
    Hardy inequality instead reports the ratio lhs/rhs against its sharp
    constant (n-4-alpha)^2/4 and raises if the inequality is violated
    beyond quadrature noise.  The scaling identity checks four integral
    transformations at once and reports the worst relative error.
    """
    if not isinstance(identity, IdentityId):
        identity = IdentityId(identity)
    u_val, du_val, laplacian, t_a2, t_a_t_a2, grad_weighted = _fields(u, n, alpha, grid)
    na2 = (n + alpha) ** 2 / 4.0
    half_sq = (n - 4.0 - alpha) ** 2 / 4.0

    if identity is IdentityId.RELLICH22:
        lhs = weighted_integral(laplacian, alpha, n, grid)
        rhs = (
            na2 * weighted_integral(du_val, alpha + 2.0, n, grid)
            + half_sq * weighted_integral(t_a2, alpha + 2.0, n, grid)
            + weighted_integral(t_a_t_a2, alpha, n, grid)
        )
        return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs))

    if identity is IdentityId.GRADIENT23:
        q = 0.5 * (n - 2.0 - alpha)
        lhs = weighted_integral(du_val, alpha, n, grid)
        rhs = (
            q * q * weighted_integral(u_val, alpha + 2.0, n, grid)
            + weighted_integral(grad_weighted(q), n - 2.0, n, grid)
        )
        return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs))

    if identity is IdentityId.TOP24:
        q = 0.5 * (n - 4.0 - alpha)
        lhs = weighted_integral(grad_weighted(q), n - 2.0, n, grid)
        rhs = weighted_integral(t_a2, alpha + 2.0, n, grid)
        return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs))

    if identity is IdentityId.GRADIENT25:
        lhs = weighted_integral(du_val, alpha + 2.0, n, grid)
        rhs = (
            half_sq * weighted_integral(u_val, alpha + 4.0, n, grid)
            + weighted_integral(t_a2, alpha + 2.0, n, grid)
        )
        return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs))

    if identity is IdentityId.NORM_DECOMP:
        c1 = mu + na2 * half_sq - half_sq * lam
        c2 = na2 - lam + half_sq
        lhs = (
            weighted_integral(laplacian, alpha, n, grid)
            - lam * weighted_integral(du_val, alpha + 2.0, n, grid)
            + mu * weighted_integral(u_val, alpha + 4.0, n, grid)
        )
        rhs = (
            c1 * weighted_integral(u_val, alpha + 4.0, n, grid)
            + c2 * weighted_integral(t_a2, alpha + 2.0, n, grid)
            + weighted_integral(t_a_t_a2, alpha, n, grid)
        )
        return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs))

    if identity is IdentityId.HARDY31:
        lhs = weighted_integral(du_val, alpha + 2.0, n, grid)
        base = weighted_integral(u_val, alpha + 4.0, n, grid)
        rhs = half_sq * base
        ratio = lhs / base if base > 0.0 else math.inf
        if rhs > 0.0 and lhs < rhs * (1.0 - 1e-9):
            raise Radial4Error(
                f"Hardy inequality violated: lhs={lhs} < rhs={rhs} for {u.name}, "
                f"n={n}, alpha={alpha}"
            )
        return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs),
                              ratio=ratio, constant=half_sq)

    if identity is IdentityId.TAU_SCALING:
        return _verify_tau_scaling(u, n, alpha, grid)

    raise ValidationError(f"unknown identity {identity!r}")


def _verify_tau_scaling(u: RadialTestFunction, n: int, alpha: float,
                        grid: QuadratureGrid) -> IdentityReport:
    """Check the four integral identities of the tau-substitution at once.

    With tau = 1 - alpha/(n-4) and u~(r) = u(r^{1/tau}), weighted integrals
    of u trade their weights for pure powers of tau; the fourth identity
    carries the correction term R u = (tau-1)(n-2) u'/r inside the
    Laplacian integral.
    """
    tau = 1.0 - alpha / (n - 4.0)
    if tau <= 0.0:
        raise DomainError(f"scaling substitution needs tau > 0, got tau={tau}")
    crit = 2.0 * n / (n - 4.0)

    # computed through logs and clamped so that a strong stretch (small tau)
    # cannot push s to inf; every suite profile has fields that underflow
    # to zero long before the clamp engages
    s = np.exp(np.clip(np.log(grid.radii) / tau, -700.0, 700.0))
    sv, sdu, sd2u = u(s)

    def ut_val(r):
        return sv

    def ut_du(r):
        return sdu * s / (tau * r)

    def ut_laplacian(r):
        d2 = sd2u * s * s / (tau * tau * r * r) + sdu * s * (1.0 - tau) / (tau * tau * r * r)
        d1 = sdu * s / (tau * r)
        return d2 + (n - 1.0) / r * d1

    u_val, du_val, laplacian, _, _, _ = _fields(u, n, alpha, grid)

    def lap_with_correction(r):
        return laplacian(r) + (tau - 1.0) * (n - 2.0) * du_val(r) / r

    pairs = [
        (
            weighted_power_integral(ut_val, crit, 0.0, n, grid),
            tau * weighted_power_integral(u_val, crit, n * alpha / (n - 4.0), n, grid),
        ),
        (
            weighted_integral(ut_du, 2.0, n, grid),
            (1.0 / tau) * weighted_integral(du_val, alpha + 2.0, n, grid),
        ),
        (
            weighted_integral(ut_val, 4.0, n, grid),
            tau * weighted_integral(u_val, alpha + 4.0, n, grid),
        ),
        (
            weighted_integral(ut_laplacian, 0.0, n, grid),
            tau ** -3.0 * weighted_integral(lap_with_correction, alpha, n, grid),
        ),
    ]
    worst = max(_rel_err(lhs, rhs) for lhs, rhs in pairs)
    lhs4, rhs4 = pairs[3]
    return IdentityReport(IdentityId.TAU_SCALING, lhs4, rhs4, worst)


def record_deviation(record: dict) -> float:
    """Failure measure for one suite record.

    Equality identities use the symmetric relative error as is.  The Hardy
    check is an inequality that normally holds with a wide margin, so only
    a violation (rhs exceeding lhs) counts; comfortable slack reports 0.
    """
    if record.get("identity") == IdentityId.HARDY31.value:
        lhs = float(record["lhs"])
        rhs = float(record["rhs"])
        return max(0.0, (rhs - lhs) / max(abs(lhs), abs(rhs), 1e-300))
    return float(record["rel_err"])


DEFAULT_N_VALUES = (5, 6, 8)
DEFAULT_ALPHAS = (-1.0, 0.0, 1.0, -3.0)
_T_LADDER = (40.0, 90.0)


def run_identity_suite(
    identities: Sequence[IdentityId] = tuple(IdentityId),
    functions: Sequence[str] = ("gaussian", "gaussian_r2", "log_gaussian", "sech_log"),
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    lam: float = 0.0,
    mu: float = 0.0,
) -> List[dict]:
    """Run every identity over the function/parameter grid with skip logic.

    Combinations whose integrals fail the tail-decay precondition on every
    grid in the retry ladder are recorded as skipped rather than failed;
    parameter pairs outside the admissible alpha range are skipped too.
    Returns one record per combination.
    """
    records: List[dict] = []
    grids = {T: QuadratureGrid.build(T=T) for T in _T_LADDER}
    for n in n_values:
        for alpha in alphas:
            if not (-n < alpha < n - 4):
                for ident in identities:
                    for fname in functions:
                        records.append({
                            "identity": IdentityId(ident).value, "function": fname,
                            "n": n, "alpha": alpha, "status": "skipped",
                            "reason": "alpha outside (-n, n-4)",
                        })
                continue
            for ident in identities:
                ident = IdentityId(ident)
                for fname in functions:
                    u = TEST_FUNCTIONS[fname]
                    rec = {
                        "identity": ident.value, "function": fname,
                        "n": n, "alpha": alpha,
                    }
                    report = None
                    reason = ""
                    for T in _T_LADDER:
                        try:
                            report = verify_identity(ident, u, n, alpha, lam, mu, grids[T])
                            break
                        except TailError as exc:
                            reason = str(exc)
                        except DomainError as exc:
                            reason = str(exc)
                            break
                    if report is None:
                        rec["status"] = "skipped"
                        rec["reason"] = reason
                    else:
                        rec["status"] = "ok"
                        rec.update(report.to_dict())
                    records.append(rec)
    return records
