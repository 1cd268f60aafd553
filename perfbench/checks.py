"""Independent checks of the outputs of one benchmark run.

Every check recomputes what it needs from the paper's formulas (K2, K0,
lambda2, the cosh profile constants, the sharp Hardy constant) or by
re-integrating the reduced ODE with scipy's DOP853 (Hairer, Norsett and
Wanner, Solving ODEs I, sec. II.5); none compares with a stored copy of
today's output.  Each check comes with a nudge: a copy of the output with
one number moved (``b`` by 1e-6, ``period`` by 1e-3, ``peak`` by 1e-5, ...)
that the check must reject.  ``check_run`` applies both.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from workloads import B0, k0, k2

# Tolerances, each with the figure it rests on (see README.md).
ORBIT_ODD_TOL = 1e-6      # |v'|, |v'''| at period/2 over their sup on the orbit
ORBIT_MAX_TOL = 1e-6      # |v(period/2) - max_value| over (max_value - a)
NEAR_L_PERIOD_TOL = 1e-2  # acceptance criterion 4
PEAK_TOL = 1e-6           # acceptance criterion 5
DECAY_TOL = 1e-3          # acceptance criterion 5
ENERGY_TOL = 1e-10        # |E| over the largest term of E on the profile
STEP_TOL = 1e-10          # one DOP853 step between CSV rows, relative to the peak
EXACT_TOL = 1e-12         # closed forms evaluated two ways
PHI_NUMERICAL_TOL = 1e-2  # acceptance criterion 6
SPOT_RATIO_TOL = 1e-8     # acceptance criterion 7

Check = Callable[[Dict, Dict], List[str]]


# -- the reduced ODE, written out here ----------------------------------------

def coefficients(inst: Dict) -> Tuple[float, float, float]:
    return k2(inst), k0(inst), float(inst["p"])


def beta_balance(inst: Dict) -> float:
    n, alpha, p = inst["n"], inst["alpha"], inst["p"]
    return (p + 1.0) * ((n - 2.0) - (n + alpha) / 2.0) - n


def lambda2(inst: Dict) -> float:
    K2, K0, _ = coefficients(inst)
    return math.sqrt((K2 - math.sqrt(K2 * K2 - 4.0 * K0)) / 2.0)


def cosh_constants(inst: Dict) -> Tuple[float, float, float]:
    """(m, nu, C) of v(t) = C cosh(nu t)^m."""
    K2, _, p = coefficients(inst)
    m = -4.0 / (p - 1.0)
    nu = math.sqrt(K2 / (m * m + (m - 2.0) ** 2))
    C = (m * (m - 1.0) * (m - 2.0) * (m - 3.0) * nu ** 4) ** (1.0 / (p - 1.0))
    return m, nu, C


def energy(y, K2: float, K0: float, p: float):
    v, d1, d2, d3 = y
    return -d1 * d3 + 0.5 * d2 ** 2 + 0.5 * K2 * d1 ** 2 - 0.5 * K0 * v ** 2 + v ** (p + 1.0) / (p + 1.0)


def energy_scale(y, K2: float, K0: float, p: float):
    v, d1, d2, d3 = (np.abs(c) for c in y)
    return np.maximum.reduce([d1 * d3, 0.5 * d2 ** 2, 0.5 * K2 * d1 ** 2, 0.5 * K0 * v ** 2,
                              v ** (p + 1.0) / (p + 1.0)])


def integrate(inst: Dict, y0, t_end: float, t_eval=None):
    K2, K0, p = coefficients(inst)

    def f(_t, y):
        return [y[1], y[2], y[3], y[0] ** p + K2 * y[2] - K0 * y[0]]

    scale = max(1.0, float(np.max(np.abs(y0))))
    return solve_ivp(f, (0.0, t_end), list(y0), method="DOP853", rtol=1e-13,
                     atol=1e-14 * scale, t_eval=t_eval)


# -- parsing ------------------------------------------------------------------

def parse_csv(text: str) -> Tuple[List[str], List[List[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def column(header, rows, name) -> np.ndarray:
    k = header.index(name)
    return np.array([float(r[k]) for r in rows])


def params_errors(doc_params: Dict, inst: Dict) -> List[str]:
    errs = []
    for key in ("n", "alpha", "p", "lambda", "mu"):
        if doc_params.get(key) != inst[key]:
            errs.append(f"params.{key} {doc_params.get(key)!r} != {inst[key]!r}")
    beta = beta_balance(inst)
    if abs(doc_params.get("beta", math.nan) - beta) > EXACT_TOL * max(1.0, abs(beta)):
        errs.append(f"params.beta {doc_params.get('beta')!r} off the balance relation {beta!r}")
    return errs


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# -- periodic -----------------------------------------------------------------

def orbit_errors(inst: Dict, rec: Dict, a_req: float) -> List[str]:
    """Re-integrate (a, 0, b, 0) to period/2, where v', v''' must vanish."""
    errs = []
    a, b, period, vmax = (float(rec[k]) for k in ("a", "b", "period", "max_value"))
    if a != a_req:
        errs.append(f"a {a!r} != requested {a_req!r}")
    K2, K0, p = coefficients(inst)
    e0 = energy((a, 0.0, b, 0.0), K2, K0, p)
    if rel(float(rec["energy"]), e0) > EXACT_TOL and abs(float(rec["energy"]) - e0) > EXACT_TOL:
        errs.append(f"energy {rec['energy']!r} != E(a, 0, b, 0) = {e0!r}")
    sol = integrate(inst, (a, 0.0, b, 0.0), 0.5 * period)
    if not sol.success:
        return errs + [f"DOP853 failed: {sol.message}"]
    y = sol.y[:, -1]
    sup1 = float(np.max(np.abs(sol.y[1])))
    sup3 = float(np.max(np.abs(sol.y[3])))
    r1, r3 = abs(y[1]) / sup1, abs(y[3]) / sup3
    rv = abs(y[0] - vmax) / (vmax - a)
    if r1 > ORBIT_ODD_TOL or r3 > ORBIT_ODD_TOL:
        errs.append(f"v'={y[1]:.3e}, v'''={y[3]:.3e} at period/2 (relative {r1:.2e}, {r3:.2e})")
    if rv > ORBIT_MAX_TOL:
        errs.append(f"v(period/2)={y[0]!r} vs max_value {vmax!r} (relative {rv:.2e})")
    return errs


def check_orbit(task: Dict, out: Dict) -> List[str]:
    doc = json.loads(out["stdout"])
    inst = task["inst"]
    errs = params_errors(doc["params"], inst) + orbit_errors(inst, doc, task["a"])
    if task.get("near_l"):
        K2, K0, p = coefficients(inst)
        omega = math.sqrt((math.sqrt(K2 * K2 + 4.0 * (p - 1.0) * K0) - K2) / 2.0)
        if abs(float(doc["period"]) - 2.0 * math.pi / omega) > NEAR_L_PERIOD_TOL:
            errs.append(f"near-l period {doc['period']!r} vs 2 pi / omega = {2 * math.pi / omega!r}")
    return errs


def check_sweep_orbit(task: Dict, out: Dict) -> List[str]:
    header, rows = parse_csv(out["stdout"])
    errs = []
    if len(rows) != len(task["a_grid"]):
        return [f"{len(rows)} sweep rows, expected {len(task['a_grid'])}"]
    for row, a_req in zip(rows, task["a_grid"]):
        rec = dict(zip(header, row))
        if rec.get("error", "") != "":
            errs.append(f"row a={a_req!r} has error {rec['error']!r}")
            continue
        errs += orbit_errors(task["inst"], rec, a_req)
    return errs


def nudge_csv_cell(name: str, factor: float, row_index: int = 0):
    def nudge(task, out):
        header, rows = parse_csv(out["stdout"])
        k = header.index(name)
        rows[row_index][k] = repr(float(rows[row_index][k]) * factor)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return dict(out, stdout=buf.getvalue())
    return nudge


# -- homoclinic ---------------------------------------------------------------

def verdict(inst: Dict) -> Tuple[str, float]:
    gap = 0.5 * (inst["n"] - 4.0 - inst["alpha"]) - lambda2(inst)
    if abs(gap) <= 1e-12:
        return "Boundary", gap
    return ("NonRemovable" if gap > 0.0 else "Removable"), gap


def check_homoclinic_json(task: Dict, out: Dict) -> List[str]:
    doc = json.loads(out["stdout"])
    inst = task["inst"]
    errs = params_errors(doc["params"], inst)
    if task["closed_form"]:
        C = cosh_constants(inst)[2]
        if abs(float(doc["peak"]) - C) > PEAK_TOL:
            errs.append(f"peak {doc['peak']!r} vs closed-form C = {C!r}")
    lam2 = lambda2(inst)
    if abs(float(doc["decay_rate"]) - lam2) > DECAY_TOL:
        errs.append(f"decay_rate {doc['decay_rate']!r} vs lambda2 = {lam2!r}")
    want, gap = verdict(inst)
    got = doc.get("singularity", {})
    if got.get("verdict") != want or abs(float(got.get("rate_gap", math.nan)) - gap) > 1e-9:
        errs.append(f"singularity {got!r}, expected {want} with rate_gap {gap!r}")
    return errs


def check_homoclinic_csv(task: Dict, out: Dict) -> List[str]:
    header, rows = parse_csv(out["stdout"])
    if header != ["t", "v", "dv", "d2v", "d3v", "E"]:
        return [f"unexpected CSV header {header}"]
    inst = task["inst"]
    K2, K0, p = coefficients(inst)
    t = column(header, rows, "t")
    y = np.array([column(header, rows, c) for c in ("v", "dv", "d2v", "d3v")])
    errs = []
    C = cosh_constants(inst)[2]
    if t[0] != 0.0 or abs(y[0, 0] - C) > PEAK_TOL:
        errs.append(f"first row t={t[0]!r}, v={y[0, 0]!r}; expected t=0 and the peak C = {C!r}")
    if y[1, 0] != 0.0 or y[3, 0] != 0.0:
        errs.append(f"odd derivatives at the peak are {y[1, 0]!r}, {y[3, 0]!r}, not 0")
    if np.any(y[0] <= 0.0) or np.any(np.diff(y[0]) >= 0.0):
        errs.append("profile is not positive and decreasing")
    e = energy(y, K2, K0, p)
    worst = float(np.max(np.abs(e)) / np.max(energy_scale(y, K2, K0, p)))
    if worst > ENERGY_TOL:
        errs.append(f"recomputed energy leaves zero: worst relative {worst:.2e}")
    # One DOP853 step between sampled neighbouring rows.
    for i in np.unique(np.linspace(0, len(t) - 2, 16).astype(int)):
        sol = integrate(inst, y[:, i], t[i + 1] - t[i])
        dev = float(np.max(np.abs(sol.y[:, -1] - y[:, i + 1]))) / C
        if dev > STEP_TOL:
            errs.append(f"row {i + 1} is not the ODE flow of row {i}: deviation {dev:.2e}")
            break
    return errs


def nudge_json(key: str, factor: float):
    def nudge(task, out):
        doc = json.loads(out["stdout"])
        doc[key] *= factor
        return dict(out, stdout=json.dumps(doc))
    return nudge


# -- cli ----------------------------------------------------------------------

def eigen_value(e) -> complex:
    return complex(e["re"], e["im"]) if isinstance(e, dict) else complex(float(e), 0.0)


def check_info(task: Dict, out: Dict) -> List[str]:
    doc = json.loads(out["stdout"])
    inst = task["inst"]
    K2, K0, p = coefficients(inst)
    errs = params_errors(doc["params"], inst)
    for key, want in (("K2", K2), ("K0", K0)):
        if rel(float(doc[key]), want) > EXACT_TOL:
            errs.append(f"{key} {doc[key]!r} vs {want!r}")
    if K0 > 0.0 and rel(float(doc["l"]), K0 ** (1.0 / (p - 1.0))) > EXACT_TOL:
        errs.append(f"l {doc['l']!r} vs K0^(1/(p-1))")
    eigs = [eigen_value(e) for e in doc["eigenvalues"]]
    if len(eigs) != 4:
        return errs + [f"{len(eigs)} eigenvalues, expected 4"]
    for z in eigs:
        res = abs(z ** 4 - K2 * z ** 2 + K0) / max(1.0, abs(z) ** 4, abs(K2 * z * z), abs(K0))
        if res > 1e-10:
            errs.append(f"eigenvalue {z} misses r^4 - K2 r^2 + K0 = 0 (residual {res:.2e})")
    if abs(sum(eigs)) > 1e-9 * max(1.0, max(abs(z) for z in eigs)):
        errs.append("eigenvalues do not come in +- pairs")
    return errs


def check_explicit_json(task: Dict, out: Dict) -> List[str]:
    doc = json.loads(out["stdout"])
    inst = task["inst"]
    errs = params_errors(doc["params"], inst)
    for key, want in zip(("m", "nu", "C"), cosh_constants(inst)):
        if rel(float(doc[key]), want) > EXACT_TOL:
            errs.append(f"{key} {doc[key]!r} vs {want!r}")
    if inst == B0:
        if rel(float(doc["C"]), 24.0 ** 0.25) > EXACT_TOL or doc.get("case") != "Case1":
            errs.append(f"B0 profile C={doc['C']!r}, case {doc.get('case')!r}; expected 24^(1/4), Case1")
    return errs


def check_explicit_csv(task: Dict, out: Dict) -> List[str]:
    header, rows = parse_csv(out["stdout"])
    m, nu, C = cosh_constants(task["inst"])
    t, v = column(header, rows, "t"), column(header, rows, "v")
    want = C * np.cosh(nu * t) ** m
    worst = float(np.max(np.abs(v - want) / want))
    errs = []
    if worst > 1e-12:
        errs.append(f"v column misses C cosh(nu t)^m by relative {worst:.2e}")
    if len(rows) < 100:
        errs.append(f"only {len(rows)} profile rows")
    return errs


PHI_B0 = 24.0 * (16.0 / 15.0) ** (2.0 / 3.0)


def check_best_constant(task: Dict, out: Dict) -> List[str]:
    doc = json.loads(out["stdout"])
    errs = params_errors(doc["params"], task["inst"])
    numerical = "--method" in task["argv"]
    tol = PHI_NUMERICAL_TOL if numerical else EXACT_TOL
    if rel(float(doc["phi"]), PHI_B0) > tol:
        errs.append(f"phi {doc['phi']!r} vs 24 (16/15)^(2/3) = {PHI_B0!r} (tolerance {tol})")
    return errs


def suite_errors(doc: Dict, tolerance: float) -> List[str]:
    errs = []
    n_ok, worst = 0, 0.0
    for rec in doc["reports"]:
        if rec["status"] != "ok":
            continue
        n_ok += 1
        lhs, rhs = float(rec["lhs"]), float(rec["rhs"])
        if rec["identity"] == "Hardy31":
            sharp = (rec["n"] - 4.0 - rec["alpha"]) ** 2 / 4.0
            ratio = float(rec["ratio"])
            if ratio < sharp - 1e-9 or rel(ratio, lhs * sharp / rhs) > 1e-9:
                errs.append(f"Hardy ratio {rec['ratio']!r} for {rec} against sharp constant {sharp!r}")
        else:
            worst = max(worst, rel(lhs, rhs))
    if n_ok == 0 or n_ok != doc["n_ok"]:
        errs.append(f"n_ok {doc['n_ok']} but {n_ok} records are ok")
    if worst > tolerance or float(doc["worst_rel_err"]) > tolerance:
        errs.append(f"worst identity error {worst:.2e} (reported {doc['worst_rel_err']!r}) > {tolerance}")
    return errs


def check_verify(task: Dict, out: Dict) -> List[str]:
    if out["rc"] != 0 or not out["stdout"].strip():
        return [f"exit {out['rc']!r} with no report: {out['stderr'].strip()[-200:]}"]
    doc = json.loads(out["stdout"])
    errs = suite_errors(doc, float(doc["tolerance"]))
    for case in task.get("cases") or ():
        if case["identity"] == "Hardy31" and case["function"] == "gaussian" and case["n"] == 6 \
                and case["alpha"] == 0.0:
            spot = [r for r in doc["reports"] if r["identity"] == "Hardy31" and r["function"] == "gaussian"]
            if not spot or abs(float(spot[0]["ratio"]) - 2.0) > SPOT_RATIO_TOL:
                errs.append(f"Hardy spot ratio {spot[0]['ratio'] if spot else None!r}, expected 2")
    return errs


def nudge_report(hardy: bool, key: str, factor: float):
    def nudge(task, out):
        doc = json.loads(out["stdout"])
        for rec in doc["reports"]:
            if rec["status"] == "ok" and (rec["identity"] == "Hardy31") == hardy:
                rec[key] *= factor
                break
        return dict(out, stdout=json.dumps(doc))
    return nudge


def check_sweep_info(task: Dict, out: Dict) -> List[str]:
    header, rows = parse_csv(out["stdout"])
    lo, hi, count = task["lam_grid"]
    if len(rows) != count:
        return [f"{len(rows)} sweep rows, expected {count}"]
    errs = []
    for i, row in enumerate(rows):
        rec = dict(zip(header, row))
        lam = lo + i * (hi - lo) / (count - 1)
        if rel(float(rec["lambda"]), lam) > EXACT_TOL:
            errs.append(f"row {i} lambda {rec['lambda']} vs grid value {lam!r}")
        inst = dict(task["inst"], **{"lambda": float(rec["lambda"])})
        for key, want in (("K2", k2(inst)), ("K0", k0(inst))):
            if rel(float(rec[key]), want) > EXACT_TOL:
                errs.append(f"row {i} {key} {rec[key]} vs {want!r}")
        if rec.get("error", "") != "":
            errs.append(f"row {i} has error {rec['error']!r}")
    return errs


# -- dispatch -----------------------------------------------------------------

def checks_for(task: Dict) -> List[Tuple[Check, Optional[Callable]]]:
    """The check of one task and the nudges it must reject."""
    argv = task["argv"]
    cmd = argv[0]
    fmt_csv = "csv" in argv
    if cmd == "orbit":
        return [(check_orbit, nudge_json("b", 1.0 + 1e-6)),
                (check_orbit, nudge_json("period", 1.0 + 1e-3))]
    if cmd == "sweep" and argv[1] == "orbit":
        return [(check_sweep_orbit, nudge_csv_cell("b", 1.0 + 1e-6)),
                (check_sweep_orbit, nudge_csv_cell("period", 1.0 + 1e-3, row_index=1))]
    if cmd == "homoclinic" and fmt_csv:
        return [(check_homoclinic_csv, nudge_csv_cell("v", 1.0 + 1e-5))]
    if cmd == "homoclinic":
        return [(check_homoclinic_json, nudge_json("peak", 1.0 + 1e-5) if task["closed_form"]
                 else nudge_json("decay_rate", 1.0 + 1e-2))]
    if cmd == "info":
        return [(check_info, nudge_json("K2", 1.0 + 1e-9))]
    if cmd == "explicit" and fmt_csv:
        return [(check_explicit_csv, nudge_csv_cell("v", 1.0 + 1e-9, row_index=1000))]
    if cmd == "explicit":
        return [(check_explicit_json, nudge_json("C", 1.0 + 1e-9))]
    if cmd == "best-constant":
        step = 1.0 + (2e-2 if "--method" in argv else 1e-9)
        return [(check_best_constant, nudge_json("phi", step))]
    if cmd == "verify":
        return [(check_verify, nudge_report(False, "lhs", 1.0 + 1e-5)),
                (check_verify, nudge_report(True, "ratio", 1.0 - 1e-7))]
    if cmd == "sweep" and argv[1] == "info":
        return [(check_sweep_info, nudge_csv_cell("K0", 1.0 + 1e-9, row_index=2))]
    raise ValueError(f"no check for {argv}")


def run_check(check: Check, task: Dict, out: Dict) -> List[str]:
    if out["rc"] != 0:
        return [f"exit {out['rc']!r}: {out['stderr'].strip()[-300:]}"]
    try:
        return check(task, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check_run(tasks: List[Dict], rounds: List[Dict]) -> Dict:
    """Check every task's output; returns failures, surprises and self-test misses.

    A task that fails its check counts as failed.  The run stays correct when
    every failed task is one the workload names as a known fault, every
    passing output's nudges are rejected, and every round reproduced the
    first round's outputs byte for byte.
    """
    first = rounds[0]["outputs"]
    failed, unexpected, selftest = [], [], []
    for task, out in zip(tasks, first):
        errs = []
        for check, nudge in checks_for(task):
            errs = run_check(check, task, out)
            if errs:
                break
            if nudge is not None and not run_check(check, task, nudge(task, out)):
                selftest.append(f"{task['name']}: {check.__name__} accepted a nudged output")
        if errs:
            failed.append({"task": task["name"], "fault": task["fault"], "errors": errs})
            if task["fault"] is None:
                unexpected.append(f"{task['name']}: {'; '.join(errs)}")
    drift = [f"round {i} task {tasks[k]['name']} differs from round 0"
             for i, rec in enumerate(rounds[1:], start=1)
             for k, d in enumerate(rec["digests"]) if d != rounds[0]["digests"][k]]
    return {"failed": failed, "unexpected": unexpected, "selftest": selftest, "drift": drift}
