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
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import DomainError, Radial4Error, TailError, ValidationError
from .specfun import omega_n

_TAIL_REL = 1e-14
_PANEL_WIDTH, _POINTS_PER_PANEL = 0.5, 16  # composite Gauss-Legendre panels in t
# Largest grid half-width whose radii exp(T) stay finite.
_T_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class RadialTestFunction:
    """Radial profile with analytic first and second derivatives.

    evaluator maps an array of radii to the triple (u, u', u'').
    """

    name: str
    evaluator: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]

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
    name: RadialTestFunction(name, evaluator)
    for name, evaluator in (("gaussian", _gaussian), ("gaussian_r2", _gaussian_r2),
                            ("log_gaussian", _log_gaussian), ("sech_log", _sech_log))
}


def _gl_panels(t_lo: float, t_hi: float):
    """Composite Gauss-Legendre nodes/weights on [t_lo, t_hi], with
    _POINTS_PER_PANEL nodes on each panel of width at most _PANEL_WIDTH."""
    x, w = np.polynomial.legendre.leggauss(_POINTS_PER_PANEL)
    n_panels = max(1, int(math.ceil((t_hi - t_lo) / _PANEL_WIDTH)))
    edges = np.linspace(t_lo, t_hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre nodes/weights on the symmetric t-interval.

    The grid keeps its radii and each test function's (u, u', u'') at those
    radii once computed, so every integral over it shares one evaluation.
    """

    nodes: np.ndarray
    weights: np.ndarray
    _profiles: Dict[RadialTestFunction, tuple] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, T: float = 40.0) -> "QuadratureGrid":
        if not 0.0 < T <= _T_MAX:
            raise ValidationError(
                f"grid half-width must lie in (0, {_T_MAX:.6g}] so that exp(T) is finite, got {T}")
        nodes, weights = _gl_panels(-T, T)
        return cls(nodes=nodes, weights=weights)

    @cached_property
    def radii(self) -> np.ndarray:
        """exp(-nodes), read-only because every integral over the grid shares it."""
        r = np.exp(-self.nodes)
        r.flags.writeable = False
        return r

    def _profile(self, u: RadialTestFunction) -> tuple:
        """(u, u', u'') at the grid radii."""
        if u not in self._profiles:
            # past T = 355, r * r overflows at the grid's ends; a field that
            # is non-finite there is reported by weighted_power_integral
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                self._profiles[u] = u(self.radii)
        return self._profiles[u]


def weighted_power_integral(values: np.ndarray, power: float, weight_exp: float, n: int,
                            grid: QuadratureGrid) -> float:
    """omega_n * integral of |f(r)|^power r^{-weight_exp} r^{n-1} dr.

    ``values`` holds f at ``grid.radii``.  Computed in t = -ln r coordinates
    where the radial factors collapse to e^{(weight_exp - n) t}; the product
    is assembled in log space so that huge weights times tiny field values
    cannot overflow on the way to a negligible contribution.  Raises
    DomainError when a value is not finite and TailError when the integrand
    has not decayed below 1e-14 of its maximum at either end of the grid.
    """
    fv = np.abs(np.asarray(values, dtype=float))
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
        raise TailError(f"integrand tail at r->inf is {hi_end:.3e} vs peak {peak:.3e}", "r_inf")
    if lo_end > _TAIL_REL * peak:
        raise TailError(f"integrand tail at r->0 is {lo_end:.3e} vs peak {peak:.3e}", "r_zero")
    return float(omega_n(n) * (grid.weights * g).sum())


def weighted_integral(values: np.ndarray, weight_exp: float, n: int,
                      grid: QuadratureGrid) -> float:
    """omega_n * integral of f(r)^2 r^{-weight_exp} r^{n-1} dr, f given at grid.radii."""
    return weighted_power_integral(values, 2.0, weight_exp, n, grid)


def t_operator(alpha_idx: float, u: np.ndarray, du: np.ndarray, r, n: int):
    """First-order radial operator u' + (n-2-alpha_idx)/(2r) u from u and u' at r."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("t_operator requires r > 0")
    return du + 0.5 * (n - 2.0 - alpha_idx) / r * u


def _laplacian(r: np.ndarray, du: np.ndarray, d2u: np.ndarray, n: int) -> np.ndarray:
    """Radial Laplacian u'' + (n-1)/r u'."""
    return d2u + (n - 1.0) / r * du


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
    if identity is IdentityId.TAU_SCALING:
        return _verify_tau_scaling(u, n, alpha, grid)
    uv, du, d2u = grid._profile(u)
    r = grid.radii
    na2 = (n + alpha) ** 2 / 4.0
    half_sq = (n - 4.0 - alpha) ** 2 / 4.0

    def integral(values, weight_exp):
        return weighted_integral(values, weight_exp, n, grid)

    def t_a_t_a2():
        half = 0.5 * (n - 4.0 - alpha)
        return d2u + (n - 3.0 - alpha) / r * du + half * half / (r * r) * uv

    def grad_weighted(q):
        # |d/dr (r^q u)| = r^{q-1} |q u + r u'|
        return r ** (q - 1.0) * (q * uv + r * du)

    # Each field is computed where its integral is taken, in the order the
    # integrals run, so a TailError stops the work at the first divergent
    # one.  Past T = 355, r * r overflows at the grid's ends; a field that
    # is non-finite there is reported by weighted_power_integral.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if identity is IdentityId.RELLICH22:
            lhs = integral(_laplacian(r, du, d2u, n), alpha)
            rhs = (
                na2 * integral(du, alpha + 2.0)
                + half_sq * integral(t_operator(alpha + 2.0, uv, du, r, n), alpha + 2.0)
                + integral(t_a_t_a2(), alpha)
            )
            return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs))

        if identity is IdentityId.GRADIENT23:
            q = 0.5 * (n - 2.0 - alpha)
            lhs = integral(du, alpha)
            rhs = q * q * integral(uv, alpha + 2.0) + integral(grad_weighted(q), n - 2.0)
            return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs))

        if identity is IdentityId.TOP24:
            lhs = integral(grad_weighted(0.5 * (n - 4.0 - alpha)), n - 2.0)
            rhs = integral(t_operator(alpha + 2.0, uv, du, r, n), alpha + 2.0)
            return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs))

        if identity is IdentityId.GRADIENT25:
            lhs = integral(du, alpha + 2.0)
            rhs = (
                half_sq * integral(uv, alpha + 4.0)
                + integral(t_operator(alpha + 2.0, uv, du, r, n), alpha + 2.0)
            )
            return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs))

        if identity is IdentityId.NORM_DECOMP:
            c1 = mu + na2 * half_sq - half_sq * lam
            c2 = na2 - lam + half_sq
            lhs = (
                integral(_laplacian(r, du, d2u, n), alpha)
                - lam * integral(du, alpha + 2.0)
                + mu * integral(uv, alpha + 4.0)
            )
            rhs = (
                c1 * integral(uv, alpha + 4.0)
                + c2 * integral(t_operator(alpha + 2.0, uv, du, r, n), alpha + 2.0)
                + integral(t_a_t_a2(), alpha)
            )
            return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs))

    # IdentityId.HARDY31, the one identity left
    lhs = integral(du, alpha + 2.0)
    base = integral(uv, alpha + 4.0)
    rhs = half_sq * base
    ratio = lhs / base if base > 0.0 else math.inf
    if rhs > 0.0 and lhs < rhs * (1.0 - 1e-9):
        raise Radial4Error(
            f"Hardy inequality violated: lhs={lhs} < rhs={rhs} for {u.name}, "
            f"n={n}, alpha={alpha}"
        )
    return IdentityReport(identity, lhs, rhs, _rel_err(lhs, rhs),
                          ratio=ratio, constant=half_sq)


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
    r = grid.radii
    s = np.exp(np.clip(np.log(r) / tau, -700.0, 700.0))
    sv, sdu, sd2u = u(s)
    uv, du, d2u = grid._profile(u)

    def stretched_laplacian():
        # u~'' = (u''(s) s^2 + (1 - tau) u'(s) s) / (tau r)^2
        d2 = sd2u * s * s / (tau * tau * r * r) + sdu * s * (1.0 - tau) / (tau * tau * r * r)
        return _laplacian(r, sdu * s / (tau * r), d2, n)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pairs = [
            (
                weighted_power_integral(sv, crit, 0.0, n, grid),
                tau * weighted_power_integral(uv, crit, n * alpha / (n - 4.0), n, grid),
            ),
            (
                # u~'(r) = u'(s) s / (tau r)
                weighted_integral(sdu * s / (tau * r), 2.0, n, grid),
                (1.0 / tau) * weighted_integral(du, alpha + 2.0, n, grid),
            ),
            (
                weighted_integral(sv, 4.0, n, grid),
                tau * weighted_integral(uv, alpha + 4.0, n, grid),
            ),
            (
                weighted_integral(stretched_laplacian(), 0.0, n, grid),
                tau ** -3.0 * weighted_integral(
                    _laplacian(r, du, d2u, n) + (tau - 1.0) * (n - 2.0) * du / r, alpha, n, grid),
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


_N_VALUES = (5, 6, 8)
_ALPHAS = (-1.0, 0.0, 1.0, -3.0)


def run_identity_suite() -> List[dict]:
    """Run every identity over the test functions, n in (5, 6, 8) and alpha
    in (-1, 0, 1, -3), at lambda = mu = 0, on one grid of half-width T = 40,
    with skip logic.

    Combinations whose integrals fail the tail-decay precondition on that
    grid, or whose scaling substitution is undefined, are recorded as
    skipped with the reason rather than failed; parameter pairs outside the
    admissible alpha range are skipped too.  Returns one record per
    combination.
    """
    records: List[dict] = []
    grid = QuadratureGrid.build()
    for n in _N_VALUES:
        for alpha in _ALPHAS:
            if not (-n < alpha < n - 4):
                for ident in IdentityId:
                    for fname in TEST_FUNCTIONS:
                        records.append({
                            "identity": ident.value, "function": fname,
                            "n": n, "alpha": alpha, "status": "skipped",
                            "reason": "alpha outside (-n, n-4)",
                        })
                continue
            for ident in IdentityId:
                for fname, u in TEST_FUNCTIONS.items():
                    rec = {
                        "identity": ident.value, "function": fname,
                        "n": n, "alpha": alpha,
                    }
                    try:
                        report = verify_identity(ident, u, n, alpha, 0.0, 0.0, grid)
                    except (TailError, DomainError) as exc:
                        rec["status"] = "skipped"
                        rec["reason"] = str(exc)
                    else:
                        rec["status"] = "ok"
                        rec.update(report.to_dict())
                    records.append(rec)
    return records
