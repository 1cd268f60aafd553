"""Symbolic oracles (sympy) for formulas the code evaluates in floating point."""

import functools

import pytest
import sympy as sp

from radial4 import ProblemParams, build_cosh_solution, derive_coefficients, linearized_frequency
from radial4 import orbits
from radial4.dynamics import energy
from radial4.params import k0_value, k2_value

B0 = ProblemParams(n=6, alpha=0.0, p=5.0)
SHIFTED = ProblemParams(n=6, alpha=0.0, p=5.0, lam=80.0 / 9.0)
CONJUGATE = ProblemParams(n=6, alpha=-4.0, p=5.0)
N7_P2 = ProblemParams(n=7, alpha=1.0, p=2.0, lam=2.0, mu=1.0)  # no closed form

omega, l, p = sp.symbols("omega l p", positive=True)
K2, s0, s2 = sp.symbols("K2 s0 s2", real=True)


@functools.cache
def lindstedt_poincare():
    """The Lindstedt-Poincare equations of the reduced ODE to O(A^2).

    v = l + A cos(tau) + A^2 (s0 + s2 cos(2 tau)), with tau = omega t and
    K0 = l^{p-1}, is put into v'''' - K2 v'' + K0 v - v^p and expanded in A.
    The cos(tau) mode of the O(A) term gives S(1), which vanishes at the
    linearized frequency; the cos(0) and cos(2 tau) modes of the O(A^2) term
    vanish for s0 and s2.  Returns (S(1), {s0: ..., s2: ...}).
    """
    A, tau = sp.symbols("A tau", real=True)
    v = l + A * sp.cos(tau) + A ** 2 * (s0 + s2 * sp.cos(2 * tau))
    equation = omega ** 4 * v.diff(tau, 4) - K2 * omega ** 2 * v.diff(tau, 2) + l ** (p - 1) * v - v ** p
    series = sp.expand(sp.series(equation, A, 0, 3).removeO())

    def mode(expr, k):
        weight = 1 if k == 0 else 2
        integral = sp.integrate(sp.expand(expr * sp.cos(k * tau)), (tau, 0, 2 * sp.pi))
        return sp.simplify(weight * integral / (2 * sp.pi))

    assert series.coeff(A, 0) == 0  # l is the equilibrium
    first, second = series.coeff(A, 1), series.coeff(A, 2)
    solution, = sp.solve([mode(second, 0), mode(second, 2)], [s0, s2], dict=True)
    return mode(first, 1), solution


def symbol(k, K0=l ** (p - 1)):
    """S(k) = omega^4 k^4 + K2 omega^2 k^2 + (1-p) K0, with K0 = l^{p-1}."""
    return omega ** 4 * k ** 4 + K2 * omega ** 2 * k ** 2 + (1 - p) * K0


def test_equations_give_the_documented_coefficients():
    # S(1) = 0 and s_k = c / (2 S(k)), c = p (p-1) l^{p-2} / 2, as
    # orbits._small_orbit states them
    first, solution = lindstedt_poincare()
    c = p * (p - 1) * l ** (p - 2) / 2
    assert sp.simplify(first - symbol(1)) == 0
    assert sp.simplify(solution[s0] - c / (2 * symbol(0))) == 0
    assert sp.simplify(solution[s2] - c / (2 * symbol(2))) == 0


def test_amplitude_equation_always_has_a_root():
    # A + q A^2 = -eps l has a real root near -eps l for every eps > 0 when
    # q = s0 + s2 < 0.  With S(1) = 0, (1-p) K0 = -omega^2 (omega^2 + K2) and
    # t = omega^2 + K2 = (p-1) K0 / omega^2 > 0, so write K2 = t - w,
    # w = omega^2 > 0: then q / c is a negative rational function of w, t > 0
    w, t = sp.symbols("w t", positive=True)
    s_1, s_0, s_2 = (sp.factor(symbol(k, w * t / (p - 1)).subs({omega: sp.sqrt(w), K2: t - w}))
                     for k in (1, 0, 2))
    assert s_1 == 0 and s_0 == -w * t and s_2 == 3 * w * (4 * w + t)
    q_over_c = sp.factor(1 / (2 * s_0) + 1 / (2 * s_2))
    assert q_over_c.is_negative
    assert sp.simplify(q_over_c + (6 * w + t) / (3 * w * t * (4 * w + t))) == 0


@pytest.mark.parametrize("params", [B0, SHIFTED, N7_P2], ids=["b0", "shifted", "n7-p2"])
def test_small_orbit_meets_the_symbolic_coefficients(params):
    # the code's first continuation start against the symbolic solution at
    # the same K2, K0 and p, evaluated to 40 digits: the frequency, d_0 / d_1^2
    # = s0 and d_2 / d_1^2 = s2 to 1e-14, and v(0) = a
    coeff = derive_coefficients(params)
    first, solution = lindstedt_poincare()
    exact_K0 = sp.Rational(coeff.K0)
    values = {K2: sp.Rational(coeff.K2), p: sp.Rational(params.p)}
    values[l] = exact_K0 ** (1 / (values[p] - 1))
    w = sp.Symbol("w", positive=True)
    root, = sp.solve(sp.expand(first.subs(values)).subs(omega, sp.sqrt(w)), w)
    values[omega] = sp.sqrt(root)
    want = {name: sp.N(value, 40) for name, value in
            (("omega", values[omega]), ("s0", solution[s0].subs(values)),
             ("s2", solution[s2].subs(values)))}
    eps = 0.12
    d, start_omega = orbits._small_orbit(orbits._MODES, eps, coeff.l, coeff.K2, coeff.K0, params.p)
    got = {"omega": start_omega, "s0": d[0] / d[1] ** 2, "s2": d[2] / d[1] ** 2}
    for name in want:
        assert abs(got[name] / want[name] - 1) <= 1e-14, name
    assert start_omega == linearized_frequency(coeff.K2, coeff.K0, params.p)
    assert not d[3:].any()
    assert abs(d.sum() + eps * coeff.l) <= 1e-15 * coeff.l


def radial_reduction():
    """The radial equation's left side through u = r^{-(n-4-alpha)/2} v(-ln r).

    Delta(r^-alpha Delta u) + lambda div(r^{-alpha-2} grad u) + mu r^{-alpha-4} u,
    with the radial Laplacian f'' + (n-1) f'/r and n, alpha, lambda and mu
    symbolic, is multiplied by r^{(n-4-alpha)/2 + alpha + 4} and written in
    t = -ln r.  Returns the symbols (n, alpha, lambda, mu), the coefficients
    of v and its first four derivatives in t, and what is left over.
    """
    n, alpha, lam, mu, t = sp.symbols("n alpha lambda mu t", real=True)
    r = sp.Symbol("r", positive=True)
    v = sp.Function("v")
    gamma = (n - 4 - alpha) / 2
    u = r ** -gamma * v(-sp.log(r))

    def laplacian(f):
        return f.diff(r, 2) + (n - 1) / r * f.diff(r)

    left = (laplacian(r ** -alpha * laplacian(u))
            + lam * r ** (1 - n) * (r ** (n - 3 - alpha) * u.diff(r)).diff(r)
            + mu * r ** (-alpha - 4) * u)
    reduced = (left * r ** (gamma + alpha + 4)).subs(r, sp.exp(-t)).doit()
    reduced = sp.expand(sp.powsimp(sp.expand(reduced), force=True))
    derivatives = [v(t)] + [v(t).diff(t, k) for k in range(1, 5)]
    coefficients = [sp.simplify(reduced.coeff(d)) for d in derivatives]
    rest = sp.simplify(reduced - sum(c * d for c, d in zip(coefficients, derivatives)))
    return (n, alpha, lam, mu), coefficients, rest


def test_radial_equation_reduces_to_k2_and_k0():
    # the left side becomes v'''' - K2 v'' + K0 v, with constant coefficients
    # and no odd derivative, and K2 and K0 are the code's k2_value and k0_value
    (n, alpha, lam, mu), (c0, c1, c2, c3, c4), rest = radial_reduction()
    assert rest == 0 and c4 == 1 and c3 == 0 and c1 == 0
    assert not (c0.free_symbols | c2.free_symbols) - {n, alpha, lam, mu}
    assert sp.simplify(c2 + sp.nsimplify(k2_value(n, alpha, lam))) == 0
    assert sp.simplify(c0 - sp.nsimplify(k0_value(n, alpha, lam, mu))) == 0


def test_balance_relation_makes_the_power_term_autonomous():
    # r^beta u^p times r^{(n-4-alpha)/2 + alpha + 4} is v^p, with no power
    # of r left, when (n+alpha)/2 + (n+beta)/(p+1) = n-2
    n, alpha, beta = sp.symbols("n alpha beta", real=True)
    gamma = (n - 4 - alpha) / 2
    balanced, = sp.solve(sp.Eq((n + alpha) / 2 + (n + beta) / (p + 1), n - 2), beta)
    assert sp.simplify(balanced - p * gamma + gamma + alpha + 4) == 0


def test_energy_is_conserved_along_the_flow():
    # dE/dt = grad E . (v', v'', v''', K2 v'' - K0 v + v^p) = 0 for the
    # code's energy, with K2, K0 and p symbolic
    y = sp.symbols("v v1 v2 v3", positive=True)
    K0 = sp.Symbol("K0", real=True)
    e = sp.nsimplify(energy(y, K2, K0, p))
    flow = (y[1], y[2], y[3], K2 * y[2] - K0 * y[0] + y[0] ** p)
    assert sp.simplify(sum(e.diff(yi) * fi for yi, fi in zip(y, flow))) == 0


@functools.cache
def cosh_profile_terms():
    """(v'''' - K2 v'' + K0 v) / v for v = C cosh(nu t)^m, with m, nu, C
    and K0 symbolic, as a polynomial in 1/s, s = cosh(nu t): the even
    derivatives hold sinh(nu t) only squared, which is s^2 - 1.  Returns
    the symbols (s, m, nu, K0) and the coefficients of s^0, s^-2 and s^-4.
    """
    t = sp.Symbol("t", real=True)
    s, C, nu, K0 = sp.symbols("s C nu K0", positive=True)
    m = sp.Symbol("m", real=True)
    v = C * sp.cosh(nu * t) ** m
    ratio = sp.powsimp(sp.expand((v.diff(t, 4) - K2 * v.diff(t, 2) + K0 * v) / v), force=True)
    ratio = sp.expand(ratio.subs(sp.sinh(nu * t), sp.sqrt(s ** 2 - 1)).subs(sp.cosh(nu * t), s))
    poly = sp.Poly(sp.expand(ratio * s ** 4), s)
    assert set(poly.monoms()) <= {(0,), (2,), (4,)}
    return (s, m, nu, K0), tuple(poly.coeff_monomial(s ** k) for k in (4, 2, 0))


def test_cosh_profile_solves_the_equation_under_the_solvability_relation():
    # v^p / v = C^{p-1} s^{m (p-1)} = C^{p-1} / s^4 with m = -4/(p-1).  With
    # closed_form's nu^2 = K2 / (m^2 + (m-2)^2) and C^{p-1} = m (m-1) (m-2)
    # (m-3) nu^4, the s^-2 and s^-4 terms cancel, and the s^0 term vanishes
    # for one K0 only, the one of 4 (p+1)^2 K2^2 = ((p+1)^2 + 4)^2 K0
    (s, m, nu, K0), (c0, c2, c4) = cosh_profile_terms()
    exponent = -4 / (p - 1)
    nu_squared = K2 / (exponent ** 2 + (exponent - 2) ** 2)
    values = {m: exponent, nu: sp.sqrt(nu_squared)}
    amplitude = exponent * (exponent - 1) * (exponent - 2) * (exponent - 3) * nu_squared ** 2
    assert sp.simplify(exponent * (p - 1) + 4) == 0
    assert sp.simplify(c2.subs(values)) == 0
    assert sp.simplify(c4.subs(values) - amplitude) == 0
    relation, = sp.solve(c0.subs(values), K0)
    assert sp.simplify(relation - 4 * (p + 1) ** 2 * K2 ** 2 / ((p + 1) ** 2 + 4) ** 2) == 0


@pytest.mark.parametrize("params", [B0, SHIFTED, CONJUGATE], ids=["b0", "shifted", "conjugate"])
def test_built_cosh_profile_meets_the_symbolic_terms(params):
    # the m, nu, C, K2 and K0 that build_cosh_solution returns make each
    # power of s cancel, to rounding
    (s, m, nu, K0), terms = cosh_profile_terms()
    sol = build_cosh_solution(params)
    values = {m: sol.m, nu: sol.nu, K2: sol.K2, K0: sol.K0}
    c0, c2, c4 = (float(term.subs(values)) for term in terms)
    amplitude = sol.C ** (sol.p - 1.0)
    assert abs(c4 - amplitude) <= 1e-13 * amplitude
    scale = sol.K2 * (sol.m * sol.nu) ** 2
    assert abs(c2) <= 1e-13 * scale and abs(c0) <= 1e-13 * scale
