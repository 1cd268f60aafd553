"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single [PASS]/[FAIL]
line with the measured quantity, so a log scrape shows the whole gate at
a glance (run with -rP to see the lines for passing tests).
"""

import json
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from radial4 import (
    IdentityId,
    ProblemParams,
    QuadratureGrid,
    ReducedProblem,
    TEST_FUNCTIONS,
    Verdict,
    build_cosh_solution,
    classify_singularity,
    cosh_profile_derivatives,
    derive_coefficients,
    eval_u,
    find_homoclinic,
    find_periodic,
    linearized_frequency,
    minimize_rayleigh,
    record_deviation,
    run_identity_suite,
    verify_identity,
)
from radial4.cli import main
from radial4.dynamics import OdeState, integrate

B0 = ProblemParams(n=6, alpha=0.0, p=5.0)
SHIFTED = ProblemParams(n=6, alpha=0.0, p=5.0, lam=80.0 / 9.0)
CONJUGATE = ProblemParams(n=6, alpha=-4.0, p=5.0)
PHI_EXACT = 24.0 * (16.0 / 15.0) ** (2.0 / 3.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_explicit_profiles_satisfy_equation_pointwise():
    ts = np.linspace(-12.0, 12.0, 4001)
    worst = 0.0
    start = time.perf_counter()
    for params in (B0, CONJUGATE, SHIFTED):
        sol = build_cosh_solution(params)
        v, _, v2, _, v4 = cosh_profile_derivatives(sol, ts)
        residual = np.abs(v4 - sol.K2 * v2 + sol.K0 * v - v ** sol.p)
        scaled = residual / np.maximum(1.0, v ** sol.p)
        worst = max(worst, float(np.max(scaled)))
    elapsed = time.perf_counter() - start
    _report(
        "explicit residual",
        worst <= 1e-8 and elapsed < 1.0,
        f"worst scaled residual {worst:.2e} on [-12, 12], 3 instances, {elapsed:.2f} s",
    )


def test_bubble_normalization_constant():
    sol = build_cosh_solution(B0)
    target = 384.0 ** 0.25
    rel = abs(2.0 * sol.C - target) / target
    _report(
        "bubble constant",
        rel <= 1e-10,
        f"2C = {2.0 * sol.C:.15f} vs 384^(1/4), rel err {rel:.2e}",
    )


def test_energy_conserved_over_three_periods():
    # the loop is hyperbolic, so no single shot survives three turns in
    # double precision; trace it turn by turn from the anchor state
    orbit = find_periodic(1.0, B0)
    coeff = derive_coefficients(B0)
    problem = ReducedProblem(coeff.K2, coeff.K0, B0.p)
    anchor = (orbit.a, 0.0, orbit.b, 0.0)
    drift = 0.0
    e0 = None
    start = time.perf_counter()
    for k in range(3):
        t0 = k * orbit.period
        traj = integrate(OdeState(t0, anchor), t0 + orbit.period, 1e-10, problem)
        es = traj.energies
        if e0 is None:
            e0 = float(es[0])
        drift = max(drift, float(np.max(np.abs(es - e0))))
    elapsed = time.perf_counter() - start
    _report(
        "energy conservation",
        drift <= 1e-8 and elapsed < 1.0,
        f"max |E(t)-E(0)| = {drift:.2e} over 3 periods at tol 1e-10, {elapsed:.2f} s",
    )


def test_small_amplitude_period_approaches_linearized_limit():
    coeff = derive_coefficients(B0)
    omega = linearized_frequency(coeff.K2, coeff.K0, B0.p)
    target = 2.0 * math.pi / omega
    start = time.perf_counter()
    orbit = find_periodic(coeff.l - 1e-3, B0)
    elapsed = time.perf_counter() - start
    err = abs(orbit.period - target)
    _report(
        "small-amplitude period",
        err <= 1e-2 and elapsed < 5.0,
        f"period {orbit.period:.6f} vs 2*pi/omega = {target:.6f}, err {err:.2e}, {elapsed:.2f} s",
    )


def test_periodic_work_counts():
    # the solver's work repeats exactly from run to run, so it is gated as
    # counts next to the wall-time bound above; every target with
    # 1 - a/l <= 1/2 takes one continuation step, from the Lindstedt-Poincare
    # orbit
    coeff = derive_coefficients(B0)
    counts = []
    for a in (1.0, 0.6 * coeff.l, coeff.l - 1e-3):
        orbit = find_periodic(a, B0)
        counts.append((orbit.newton_iterations, orbit.continuation_steps, orbit.modes))
    _report(
        "periodic work counts",
        counts == [(5, 1, 32), (5, 1, 32), (2, 1, 32)],
        f"(Newton iterations, continuation steps, modes) = {counts} at a = 1, 0.6 l and l - 1e-3",
    )


def _count_work(monkeypatch):
    """Count energy calls, array and scalar apart, derive_coefficients calls
    and inverse real FFTs; returns the dict of counts."""
    import radial4.dynamics
    import radial4.params

    calls = {"array energy": 0, "scalar energy": 0, "derive_coefficients": 0, "irfft": 0}
    energy, irfft = radial4.dynamics.energy, np.fft.irfft
    derive = radial4.params.derive_coefficients

    def counted_energy(y, *args):
        calls["array energy" if isinstance(y[0], np.ndarray) else "scalar energy"] += 1
        return energy(y, *args)

    def counted_derive(*args):
        calls["derive_coefficients"] += 1
        return derive(*args)

    def counted_irfft(*args):
        calls["irfft"] += 1
        return irfft(*args)

    monkeypatch.setattr(radial4.dynamics, "energy", counted_energy)
    monkeypatch.setattr(np.fft, "irfft", counted_irfft)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("radial4"):
            for name, value in list(vars(module).items()):
                if value is derive:
                    monkeypatch.setattr(module, name, counted_derive)
    return calls


def test_periodic_work_outside_newton(monkeypatch):
    # the solve: the energy of the start state and one coefficient
    # derivation.  The grid (4 inverse FFTs) and its array energy wait for
    # the first read of energy_drift, and rows reuses both
    calls = _count_work(monkeypatch)
    orbit = find_periodic(1.0, B0)
    counts = [dict(calls)]
    orbit.energy_drift
    counts.append(dict(calls))
    orbit.rows()
    counts.append(dict(calls))
    solve = {"array energy": 0, "scalar energy": 1, "derive_coefficients": 1, "irfft": 0}
    read = dict(solve, **{"array energy": 1, "irfft": 4})
    _report(
        "periodic work outside Newton",
        counts == [solve, read, read],
        f"calls after find_periodic(1.0, B0), energy_drift and rows() = {counts}",
    )


def test_homoclinic_work_outside_newton(monkeypatch):
    # one periodic solve, one grid (4 inverse FFTs) read off it, and no
    # array energy: the JSON document holds none
    from radial4 import orbits

    calls = _count_work(monkeypatch)
    periodic = orbits.find_periodic
    solves = []

    def counted(*args):
        solves.append(args[0])
        return periodic(*args)

    monkeypatch.setattr(orbits, "find_periodic", counted)
    find_homoclinic(B0)
    ok = len(solves) == 1 and calls["irfft"] == 4 and calls["array energy"] == 0
    _report(
        "homoclinic work outside Newton",
        ok,
        f"{len(solves)} find_periodic calls and {calls} in find_homoclinic(B0)",
    )


def test_periodic_memory_peak():
    # the tracemalloc peak of one near-homoclinic solve (N = 128 modes): the
    # Newton matrices and one FFT column of the grid at a time; with the grid
    # summed directly, its (8N+1) x N cos and sin matrices took it to 3.26 MB
    a = 1e-6 * derive_coefficients(B0).l
    find_periodic(a, B0)  # load numpy's FFT before counting
    tracemalloc.start()
    try:
        find_periodic(a, B0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _report(
        "periodic memory peak",
        peak < 1.5e6,
        f"tracemalloc peak {peak / 1e6:.2f} MB in find_periodic(1e-6 l, B0)",
    )


def test_homoclinic_work_counts(monkeypatch):
    # one periodic solve at a = 1e-6 l; its Newton iterations are left out,
    # since at N = 128 they follow the BLAS thread count of the LU solve
    # (test_near_homoclinic_newton_iterations pins them on one thread)
    from radial4 import orbits

    solves = []

    def recording(a, params, *args):
        orbit = find_periodic(a, params, *args)
        solves.append((a == 1e-6 * derive_coefficients(params).l,
                       orbit.continuation_steps, orbit.modes))
        return orbit

    monkeypatch.setattr(orbits, "find_periodic", recording)
    find_homoclinic(B0)
    _report(
        "homoclinic work counts",
        solves == [(True, 2, 128)],
        f"(at 1e-6 l, continuation steps, modes) per periodic solve = {solves}",
    )


def test_homoclinic_matches_closed_forms():
    base = find_homoclinic(B0)
    target_base = 24.0 ** 0.25
    shifted = find_homoclinic(SHIFTED)
    target_shifted = (24.0 / 81.0) ** 0.25
    ok = (
        abs(base.peak - target_base) <= 1e-6
        and abs(base.decay_rate - 1.0) <= 1e-3
        and abs(shifted.peak - target_shifted) <= 1e-6
    )
    _report(
        "homoclinic recovery",
        ok,
        f"peaks {base.peak:.10f} / {shifted.peak:.10f} vs 24^(1/4) / (24/81)^(1/4), "
        f"decay {base.decay_rate:.6f}",
    )


def test_best_constant_minimizer_second_order():
    start = time.perf_counter()
    coarse = minimize_rayleigh(B0, L=40.0, h=0.02).value
    fine = minimize_rayleigh(B0, L=40.0, h=0.01).value
    elapsed = time.perf_counter() - start
    err_coarse = abs(coarse - PHI_EXACT)
    err_fine = abs(fine - PHI_EXACT)
    ratio = err_coarse / err_fine
    ok = (
        err_fine / PHI_EXACT <= 1e-2
        and ratio >= 3.0
        and elapsed < 60.0
    )
    _report(
        "best constant",
        ok,
        f"phi {fine:.8f} vs {PHI_EXACT:.8f} (rel {err_fine / PHI_EXACT:.2e}), "
        f"halving h cuts error {ratio:.1f}x, {elapsed:.1f} s",
    )


def test_identity_suite_verifies_across_grid():
    start = time.perf_counter()
    records = run_identity_suite()
    elapsed = time.perf_counter() - start

    worst = 0.0
    n_ok = 0
    for rec in records:
        if rec["status"] != "ok":
            continue
        n_ok += 1
        worst = max(worst, record_deviation(rec))

    # every convergent combination of a fast-decay function with an
    # admissible weight must verify; only genuine divergences and the
    # out-of-range n=5, alpha=1 cell may be skipped
    coverage_ok = True
    for rec in records:
        if rec["function"] == "sech_log":
            continue
        if rec["n"] == 5 and rec["alpha"] == 1.0:
            coverage_ok = coverage_ok and rec["status"] == "skipped"
            continue
        if rec["alpha"] in (-1.0, 0.0, 1.0):
            coverage_ok = coverage_ok and rec["status"] == "ok"

    hardy_ok = True
    for rec in records:
        if rec["identity"] == IdentityId.HARDY31.value and rec["status"] == "ok":
            hardy_ok = hardy_ok and rec["ratio"] >= rec["constant"] - 1e-9
    spot = verify_identity(
        IdentityId.HARDY31, TEST_FUNCTIONS["gaussian"], 6, 0.0, 0.0, 0.0,
        QuadratureGrid.build(),
    )
    spot_ok = abs(spot.ratio - 2.0) <= 1e-8

    ok = worst <= 1e-6 and coverage_ok and hardy_ok and spot_ok and elapsed < 30.0
    _report(
        "identity suite",
        ok,
        f"{n_ok} checks ok, worst deviation {worst:.2e}, Hardy spot ratio "
        f"{spot.ratio:.10f}, {elapsed:.1f} s",
    )


def test_singularity_classification_and_factorization():
    conj = classify_singularity(CONJUGATE)
    base = classify_singularity(B0)
    sol = build_cosh_solution(B0)
    u0 = eval_u(sol, 1e-8)
    target = 384.0 ** 0.25

    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 10))
        alpha = float(rng.uniform(-n + 0.2, n - 4.2))
        mu = float(rng.uniform(0.0, 3.0))
        ab = (n - 2.0) * (alpha + 2.0)
        lam = ab - 2.0 * math.sqrt(mu) - float(rng.uniform(0.0, 5.0))
        p = float(rng.uniform(1.5, 6.0))
        coeff = derive_coefficients(
            ProblemParams(n=n, alpha=alpha, p=p, lam=lam, mu=mu)
        )
        for e in coeff.eigenvalues:
            worst = max(worst, abs(e ** 4 - coeff.K2 * e ** 2 + coeff.K0))

    ok = (
        conj.verdict is Verdict.NON_REMOVABLE
        and base.verdict is Verdict.BOUNDARY
        and math.isfinite(u0)
        and abs(u0 - target) / target <= 1e-9
        and worst <= 1e-10
    )
    _report(
        "singularity classification",
        ok,
        f"verdicts {conj.verdict.value} / {base.verdict.value}, u(0) = {u0:.10f}, "
        f"worst factorization residual {worst:.2e} over 100 samples",
    )


def test_headless_runs_deterministic(tmp_path, capsys):
    verify_a = tmp_path / "verify_a.json"
    verify_b = tmp_path / "verify_b.json"
    rc = [main(["verify", "--output", str(verify_a)]),
          main(["verify", "--output", str(verify_b)])]

    sweep_argv = [
        "sweep", "info", "--n", "6", "--alpha", "0", "--p", "5",
        "--vary", "lambda=0:8:9", "--format", "json",
    ]
    sweep_a = tmp_path / "sweep_a.json"
    sweep_b = tmp_path / "sweep_b.json"
    rc += [main(sweep_argv + ["--output", str(sweep_a)]),
           main(sweep_argv + ["--output", str(sweep_b)])]
    capsys.readouterr()

    verify_identical = verify_a.read_bytes() == verify_b.read_bytes()
    sweep_identical = sweep_a.read_bytes() == sweep_b.read_bytes()
    worst = json.loads(verify_a.read_text())["worst_rel_err"]
    ok = rc == [0, 0, 0, 0] and verify_identical and sweep_identical
    _report(
        "headless determinism",
        ok,
        f"exit codes {rc}, verify and sweep byte-identical across runs, "
        f"suite worst {worst:.2e}",
    )
