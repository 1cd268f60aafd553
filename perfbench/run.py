"""Benchmark for radial4: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload periodic --seed 1 --seconds 20 --trace 0

Workloads are ``periodic``, ``homoclinic`` and ``cli`` (see README.md).  A
run times several fresh set-ups, then one worker process runs whole rounds
of the workload's tasks for ``--seconds``; afterwards this process checks
every output independently.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

This file imports no numpy or scipy until the worker has finished, so no
checking code runs or sits in memory while the worker is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import parse_importtime
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 30.0
WORKER_TIMEOUT_S = 140.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


class RunError(Exception):
    pass


def spawn_worker(args, workdir: str, mode: str, result=None, importtime=False):
    """Start a worker; returns (process, seconds from spawn to its ``ready`` line)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--mode", mode, "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir]
    if result is not None:
        cmd += ["--result", result]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _, err = finish(proc, PROBE_TIMEOUT_S)
        raise RunError(f"worker did not get ready: {err.strip()[-1500:]}")
    return proc, setup


def finish(proc, timeout: float):
    """Wait for a worker, killing it on timeout; returns (returncode, stderr)."""
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker did not finish within {timeout:.0f} s")
    return proc.returncode, err


def measure(args, workdir: str):
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        proc, setup = spawn_worker(args, workdir, "setup", importtime=bool(args.trace))
        rc, err = finish(proc, PROBE_TIMEOUT_S)
        if rc != 0:
            raise RunError(f"set-up probe exited {rc}: {err.strip()[-1500:]}")
        setups.append(setup)
        imports.append(parse_importtime(err))
    result_path = os.path.join(workdir, "result.json")
    proc, setup = spawn_worker(args, workdir, "run", result=result_path)
    setups.append(setup)
    rc, err = finish(proc, WORKER_TIMEOUT_S)
    if rc != 0:
        raise RunError(f"worker exited {rc}: {err.strip()[-1500:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setups"] = setups
    result["imports"] = imports
    return result


def end_to_end(result) -> dict:
    rounds = [r for r in result["rounds"] if not r["traced"]]
    values = {
        "setup_s": statistics.median(result["setups"]),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "task_p50_s": statistics.median(t for r in rounds for t in r["task_s"]),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(result, cold: bool) -> dict:
    traced = [r for r in result["rounds"] if r["traced"]]
    plain = [r for r in result["rounds"] if not r["traced"]]
    snap = traced[0]["snapshot"]
    absent = set(snap["absent"])

    def timed(kind: str, name: str) -> float:
        return statistics.median(r["snapshot"][kind].get(name, 0.0) for r in traced)

    calls, counts = snap["calls"], snap["counts"]
    steps = counts["dynamics.steps_accepted"] + counts["dynamics.steps_rejected"]
    shots = counts["orbits.shots"]
    integrate_self = timed("self_s", "dynamics.integrate")
    if cold:
        imports = [r["imports"] for r in traced]
    else:
        imports = result["imports"]
    # name: (value, unit, the traced functions it rests on)
    table = {
        "import.radial4_s": (statistics.median(d["radial4"] for d in imports), "s", ()),
        "import.numpy_s": (statistics.median(d["numpy"] for d in imports), "s", ()),
        "import.scipy_s": (statistics.median(d["scipy"] for d in imports), "s", ()),
        "cli.main.calls": (calls.get("cli.main", 0), "count", ("cli.main",)),
        "cli.main.self_s": (timed("self_s", "cli.main"), "s", ("cli.main",)),
        "orbits.find_periodic.calls": (calls.get("orbits.find_periodic", 0), "count",
                                       ("orbits.find_periodic",)),
        "orbits.find_periodic.s": (timed("total_s", "orbits.find_periodic"), "s",
                                   ("orbits.find_periodic",)),
        "orbits.shots": (shots, "count", ("orbits.find_periodic", "dynamics.integrate")),
        "orbits.shots.matched": (counts["orbits.shots.matched"], "count",
                                 ("orbits.find_periodic", "dynamics.integrate")),
        "orbits.shots.escape_up": (counts["orbits.shots.escape_up"], "count",
                                   ("orbits.find_periodic", "dynamics.integrate")),
        "orbits.shots.escape_down": (counts["orbits.shots.escape_down"], "count",
                                     ("orbits.find_periodic", "dynamics.integrate")),
        "orbits.shots.useful_ratio": (counts["orbits.shots.matched"] / shots if shots else 0.0,
                                      "ratio", ("orbits.find_periodic", "dynamics.integrate")),
        "orbits.escape_steps": (counts["orbits.escape_steps"], "count",
                                ("orbits.find_periodic", "dynamics.integrate")),
        "orbits.find_homoclinic.calls": (calls.get("orbits.find_homoclinic", 0), "count",
                                         ("orbits.find_homoclinic",)),
        "orbits.find_homoclinic.s": (timed("total_s", "orbits.find_homoclinic"), "s",
                                     ("orbits.find_homoclinic",)),
        "orbits.homoclinic_shots": (counts["orbits.homoclinic_shots"], "count",
                                    ("orbits.find_homoclinic", "dynamics.integrate")),
        "dynamics.integrate.calls": (calls.get("dynamics.integrate", 0), "count",
                                     ("dynamics.integrate",)),
        "dynamics.integrate.self_s": (integrate_self, "s", ("dynamics.integrate",)),
        "dynamics.steps_accepted": (counts["dynamics.steps_accepted"], "count",
                                    ("dynamics.integrate",)),
        "dynamics.steps_rejected": (counts["dynamics.steps_rejected"], "count",
                                    ("dynamics.integrate",)),
        "dynamics.rhs_calls": (calls.get("dynamics.rhs", 0), "count", ("dynamics.rhs",)),
        "dynamics.rhs_per_step": (calls.get("dynamics.rhs", 0) / steps if steps else 0.0, "ratio",
                                  ("dynamics.rhs", "dynamics.integrate")),
        "dynamics.us_per_step": (integrate_self / steps * 1e6 if steps else 0.0, "us",
                                 ("dynamics.integrate",)),
        "variational.minimize_rayleigh.s": (timed("total_s", "variational.minimize_rayleigh"), "s",
                                            ("variational.minimize_rayleigh",)),
        "variational.iterations": (counts["variational.iterations"], "count",
                                   ("variational.minimize_rayleigh",)),
        "identities.run_identity_suite.s": (timed("total_s", "identities.run_identity_suite"), "s",
                                            ("identities.run_identity_suite",)),
        "identities.verify_identity.calls": (calls.get("identities.verify_identity", 0), "count",
                                             ("identities.verify_identity",)),
        "identities.weighted_power_integral.calls": (
            calls.get("identities.weighted_power_integral", 0), "count",
            ("identities.weighted_power_integral",)),
        "closed_form.build_cosh_solution.s": (timed("total_s", "closed_form.build_cosh_solution"),
                                              "s", ("closed_form.build_cosh_solution",)),
        "params.derive_coefficients.calls": (calls.get("params.derive_coefficients", 0), "count",
                                             ("params.derive_coefficients",)),
        "jsonio.dumps.s": (timed("total_s", "jsonio.dumps"), "s", ("jsonio.dumps",)),
        "jsonio.write_csv.s": (timed("total_s", "jsonio.write_csv"), "s", ("jsonio.write_csv",)),
        "jsonio.bytes_out": (counts["jsonio.bytes_out"], "B", ("jsonio.dumps", "jsonio.write_csv")),
        "trace.overhead_s": (statistics.median(r["wall_s"] for r in traced)
                             - statistics.median(r["wall_s"] for r in plain), "s", ()),
    }
    metrics = {}
    for name, (value, unit, needs) in table.items():
        missing = [n for n in needs if n in absent]
        if missing:
            metrics[name] = {"value": None, "unit": unit, "absent": missing}
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def count_drift(result) -> list:
    """Traced rounds of one run must repeat their counts exactly."""
    traced = [r["snapshot"] for r in result["rounds"] if r["traced"]]
    return [f"traced round {i} counts differ from the first"
            for i, s in enumerate(traced[1:], start=1)
            if (s["calls"], s["counts"]) != (traced[0]["calls"], traced[0]["counts"])]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(os.getcwd(), "src", "radial4", "cli.py")):
        sys.stderr.write("perfbench: run from the root of a radial4 checkout (src/radial4 not found)\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result = measure(args, workdir)
    except (RunError, OSError, ValueError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.path.insert(0, HERE)
    from checks import check_run  # numpy and scipy load only now

    verdict = check_run(result["tasks"], result["rounds"])
    cold = args.workload == "cli"
    problems = verdict["unexpected"] + verdict["selftest"] + verdict["drift"]
    if args.trace:
        problems += count_drift(result)
        metrics = per_layer(result, cold)
    else:
        metrics = end_to_end(result)
    n_rounds = len(result["rounds"])
    summary = {
        "correct": not problems,
        "attempted": n_rounds * len(result["tasks"]),
        "failed": n_rounds * len(verdict["failed"]),
        "metrics": metrics,
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "checks": verdict, "problems": problems,
                   "setups": result["setups"],
                   "rounds": [{k: r[k] for k in ("traced", "wall_s", "cpu_s", "task_s")}
                              for r in result["rounds"]]}, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT_DIR, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "rounds": [r["spans"] for r in result["rounds"] if r["traced"]]}, fh)
    for item in verdict["failed"]:
        sys.stderr.write(f"failed: {item['task']} ({item['fault'] or 'no known fault'}): "
                         f"{'; '.join(item['errors'])[:300]}\n")
    for item in problems:
        sys.stderr.write(f"problem: {item[:300]}\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
