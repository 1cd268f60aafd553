"""The measured process of one benchmark run.

    python3 perfbench/worker.py --workload periodic --seed 1 --mode run \
        --seconds 20 --trace 0 --workdir DIR --result FILE

The worker imports ``radial4.cli`` and builds its inputs, prints ``ready``
(the parent times set-up up to that line), then runs whole rounds of the
workload's tasks until ``--seconds`` have passed.  ``--mode setup`` stops
after ``ready``.  With ``--trace 1`` untraced and traced rounds alternate,
so the tracing overhead is measured in the same process.  Nothing here
imports checking code: outputs, timings and counters go to ``--result``
and the parent checks them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import radial4.cli  # noqa: E402  (set-up is timed from interpreter start)

import workloads  # noqa: E402
from tracer import Tracer, merge, parse_importtime  # noqa: E402

COLD_TIMEOUT_S = 120.0


def cold_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_inprocess(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = radial4.cli.main(argv)
        except Exception as exc:  # a traceback is an outcome to record, not to stop on
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def run_cold(argv, snapshot_path=None):
    if snapshot_path is None:
        cmd = [sys.executable, "-m", "radial4.cli", *argv]
    else:
        cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "traced_cli.py"),
               "--snapshot", snapshot_path, "--", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=cold_env(), capture_output=True, text=True,
                          timeout=COLD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


class Runner:
    def __init__(self, workload: str, tasks, workdir: str):
        self.cold = workload == "cli"
        self.tasks = tasks
        self.workdir = workdir
        self.tracer = None if self.cold else Tracer()

    def round(self, index: int, traced: bool) -> dict:
        snaps, spans, imports = [], [], []
        if traced and not self.cold:
            self.tracer.reset()
            self.tracer.install()
        times, digests, outputs = [], [], []
        cpu0 = cpu_seconds()
        w0 = time.perf_counter()
        try:
            for k, task in enumerate(self.tasks):
                t0 = time.perf_counter()
                if self.cold:
                    snap_path = os.path.join(self.workdir, f"snap-{index}-{k}.json") if traced else None
                    rc, out, err = run_cold(task["argv"], snap_path)
                else:
                    rc, out, err = run_inprocess(task["argv"])
                times.append(time.perf_counter() - t0)
                digests.append(hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest())
                outputs.append({"rc": rc, "stdout": out, "stderr": err[-2000:]})
                if traced and self.cold:
                    with open(snap_path, encoding="utf-8") as fh:
                        doc = json.load(fh)
                    snaps.append(doc["snapshot"])
                    spans.append(doc["spans"])
                    imports.append(parse_importtime(err))
        finally:
            if traced and not self.cold:
                self.tracer.uninstall()
        wall = time.perf_counter() - w0
        cpu = cpu_seconds() - cpu0
        rec = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "task_s": times,
               "digests": digests, "outputs": outputs}
        if traced:
            if self.cold:
                rec["snapshot"] = merge(snaps)
                rec["spans"] = spans
                rec["imports"] = {key: statistics.median(d[key] for d in imports)
                                  for key in ("radial4", "numpy", "scipy")}
            else:
                rec["snapshot"] = self.tracer.snapshot()
                rec["spans"] = [list(s) for s in self.tracer.spans]
        return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", default=None)
    args = ap.parse_args()

    tasks = workloads.build_tasks(args.workload, args.seed, args.workdir)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.mode == "setup":
        return 0

    runner = Runner(args.workload, tasks, args.workdir)
    rounds = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(runner.round(len(rounds), traced))
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or len(rounds) >= 2):
            break
    who = resource.RUSAGE_CHILDREN if runner.cold else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # Keep the full outputs of the first round only; later rounds must match
    # them byte for byte, which their digests show.
    for rec in rounds[1:]:
        del rec["outputs"]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"tasks": tasks, "rounds": rounds, "peak_rss_mb": peak_rss_mb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
