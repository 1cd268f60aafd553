"""Seeded task lists for the three workloads.

A task is one ``radial4`` invocation: an argv list for ``radial4.cli.main``
(run in process on ``periodic`` and ``homoclinic``, as a cold
``python -m radial4.cli`` subprocess on ``cli``) plus what its check needs.
Only the standard library is used here, so building the inputs does not
import numpy before ``radial4`` does.

Instances are drawn from ``random.Random("<workload>:<seed>")``: the same
seed gives the same argv lists, byte for byte.  The formulas for K2 and K0
are the paper's, written out here rather than taken from ``radial4.params``.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional

WORKLOADS = ("periodic", "homoclinic", "cli")

B0 = {"n": 6, "alpha": 0.0, "p": 5.0, "lambda": 0.0, "mu": 0.0}
SHIFTED = {"n": 6, "alpha": 0.0, "p": 5.0, "lambda": 80.0 / 9.0, "mu": 0.0}
CONJUGATE = {"n": 6, "alpha": -4.0, "p": 5.0, "lambda": 0.0, "mu": 0.0}

# find_homoclinic fits its log-slope before the tail reaches its asymptotic
# rate on these instances, so decay_rate misses lambda2 by more than 1e-3.
DECAY_FIT_FAULT = "decay_rate fitted before the tail is asymptotic (orbits.find_homoclinic)"
# The same fault shows on (8, -1, 4, 0, 2): 2.539 against 2.570.  One
# instance keeps the fault in every round; a second would add 3 s a round.
DECAY_FAULT_A = {"n": 7, "alpha": 1.0, "p": 2.0, "lambda": 2.0, "mu": 1.0}

# A manifest case whose integral diverges aborts the whole verify run with
# exit 5 and no report; the built-in suite records the same case as skipped.
MANIFEST_FAULT = "verify --manifest aborts on a divergent case instead of skipping it"
DIVERGENT_CASE = {"identity": "Hardy31", "function": "sech_log", "n": 6, "alpha": -3}
SPOT_CASE = {"identity": "Hardy31", "function": "gaussian", "n": 6, "alpha": 0.0}
CONVERGENT_CASE = {"identity": "Rellich22", "function": "gaussian", "n": 6, "alpha": 0.0}


def k2(inst: Dict) -> float:
    n, alpha = inst["n"], inst["alpha"]
    return ((n - 2.0) ** 2 + (alpha + 2.0) ** 2) / 2.0 - inst["lambda"]


def k0(inst: Dict) -> float:
    n, alpha = inst["n"], inst["alpha"]
    q = (n - 4.0 - alpha) / 2.0
    return q * q * (n + alpha) ** 2 / 4.0 - inst["lambda"] * q * q + inst["mu"]


def equilibrium(inst: Dict) -> float:
    return k0(inst) ** (1.0 / (inst["p"] - 1.0))


def _flags(inst: Dict) -> List[str]:
    out = ["--n", str(inst["n"]), "--alpha", repr(float(inst["alpha"])), "--p", repr(float(inst["p"]))]
    if inst["lambda"] != 0.0:
        out += ["--lambda", repr(float(inst["lambda"]))]
    if inst["mu"] != 0.0:
        out += ["--mu", repr(float(inst["mu"]))]
    return out


def _task(name: str, argv: List[str], inst: Optional[Dict] = None, fault: Optional[str] = None,
          **extra) -> Dict:
    task = {"name": name, "argv": argv, "inst": inst, "fault": fault}
    task.update(extra)
    return task


def closed_form_instance(lam: float) -> Dict:
    """B0's (n, alpha, p) with lambda given and mu solving the solvability
    relation 4 (p+1)^2 K2^2 = ((p+1)^2 + 4)^2 K0, so a cosh profile exists."""
    inst = dict(B0, **{"lambda": lam})
    P = inst["p"] + 1.0
    target_k0 = 4.0 * P * P * k2(inst) ** 2 / (P * P + 4.0) ** 2
    inst["mu"] = target_k0 - k0(inst)
    return inst


def periodic_tasks(rng: random.Random) -> List[Dict]:
    l_b0 = equilibrium(B0)
    other = {"n": 6, "alpha": rng.uniform(-1.0, 0.0), "p": rng.uniform(4.0, 5.0),
             "lambda": 0.0, "mu": 0.0}
    a_other = equilibrium(other) * rng.uniform(0.3, 0.9)
    lo, hi = l_b0 * rng.uniform(0.3, 0.5), l_b0 * rng.uniform(0.6, 0.9)
    near_l = l_b0 - 1e-3
    return [
        _task("orbit-b0-near-l", ["orbit", *_flags(B0), "--a", repr(near_l)], B0,
              a=near_l, near_l=True),
        _task("orbit-seeded", ["orbit", *_flags(other), "--a", repr(a_other)], other, a=a_other),
        _task("sweep-orbit-b0", ["sweep", "orbit", *_flags(B0), "--vary", f"a={lo!r}:{hi!r}:2"], B0,
              a_grid=[lo, hi]),
    ]


def homoclinic_tasks(rng: random.Random) -> List[Dict]:
    seeded = [closed_form_instance(rng.uniform(-2.0, 6.0)) for _ in range(2)]
    json_calls = (("b0", B0, None), ("conjugate", CONJUGATE, None),
                  ("fault-a", DECAY_FAULT_A, DECAY_FIT_FAULT))
    csv_calls = (("shifted", SHIFTED), ("seeded1", seeded[0]), ("seeded2", seeded[1]))
    tasks = [_task(f"homoclinic-{label}-json", ["homoclinic", *_flags(inst)], inst, fault=fault,
                   closed_form=fault is None)
             for label, inst, fault in json_calls]
    tasks += [_task(f"homoclinic-{label}-csv", ["homoclinic", *_flags(inst), "--format", "csv"],
                    inst, closed_form=True)
              for label, inst in csv_calls]
    return tasks


def cli_tasks(rng: random.Random, workdir: str) -> List[Dict]:
    n = rng.choice((5, 6, 7, 8))
    info_inst = {"n": n, "alpha": rng.uniform(-n + 0.5, n - 4.5), "p": rng.uniform(1.5, 6.0),
                 "lambda": rng.uniform(-2.0, 4.0), "mu": rng.uniform(-1.0, 3.0)}
    explicit_inst = closed_form_instance(rng.uniform(-2.0, 6.0))
    lam_lo = rng.uniform(-4.0, 0.0)
    lam_hi = lam_lo + rng.uniform(2.0, 8.0)

    spot = os.path.join(workdir, "manifest-spot.json")
    divergent = os.path.join(workdir, "manifest-divergent.json")
    for path, cases in ((spot, [SPOT_CASE, CONVERGENT_CASE]),
                        (divergent, [CONVERGENT_CASE, DIVERGENT_CASE])):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"cases": cases}, fh)

    return [
        _task("info-b0", ["info", *_flags(B0)], B0),
        _task("info-seeded", ["info", *_flags(info_inst)], info_inst),
        _task("explicit-b0-json", ["explicit", *_flags(B0)], B0),
        _task("explicit-seeded-csv", ["explicit", *_flags(explicit_inst), "--format", "csv"],
              explicit_inst),
        _task("best-constant-closed-form", ["best-constant", *_flags(B0)], B0),
        _task("best-constant-numerical", ["best-constant", *_flags(B0), "--method", "numerical"], B0),
        _task("verify-suite", ["verify"], None),
        _task("verify-manifest-spot", ["verify", "--manifest", spot], None, cases=[SPOT_CASE, CONVERGENT_CASE]),
        _task("verify-manifest-divergent", ["verify", "--manifest", divergent], None,
              fault=MANIFEST_FAULT, cases=[CONVERGENT_CASE, DIVERGENT_CASE]),
        _task("sweep-info", ["sweep", "info", *_flags(B0), "--vary", f"lambda={lam_lo!r}:{lam_hi!r}:5"],
              B0, lam_grid=[lam_lo, lam_hi, 5]),
    ]


def build_tasks(workload: str, seed: int, workdir: str) -> List[Dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "periodic":
        return periodic_tasks(rng)
    if workload == "homoclinic":
        return homoclinic_tasks(rng)
    if workload == "cli":
        return cli_tasks(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
