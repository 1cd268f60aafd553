"""Spans and counters around radial4's public functions, installed from outside.

The tracer replaces a function object by a wrapper in every loaded
``radial4`` module that holds it, so call sites that imported the name
(``from .dynamics import integrate``) are traced too.  Spans are kept in
memory as (id, name, start, end, parent) tuples and written out at the
end; the hottest functions (``dynamics.rhs`` and friends) are counted but
not spanned, so a traced solve does not allocate a span per RHS call.

A target whose module or name has gone from the program is recorded as
absent; the metrics built on it are then reported as absent instead of
raising.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Dict, List, Optional, Tuple

# (module, name, kind): "span" records a span and a call count, "count" only
# counts calls.
TARGETS = (
    ("radial4.cli", "main", "span"),
    ("radial4.orbits", "find_periodic", "span"),
    ("radial4.orbits", "find_homoclinic", "span"),
    ("radial4.dynamics", "integrate", "span"),
    ("radial4.dynamics", "rhs", "count"),
    ("radial4.variational", "minimize_rayleigh", "span"),
    ("radial4.identities", "run_identity_suite", "span"),
    ("radial4.identities", "verify_identity", "span"),
    ("radial4.identities", "weighted_power_integral", "count"),
    ("radial4.closed_form", "build_cosh_solution", "span"),
    ("radial4.params", "derive_coefficients", "count"),
    ("radial4.jsonio", "dumps", "span"),
    ("radial4.jsonio", "write_csv", "span"),
)

# Counters filled by the wrappers, beyond the per-function call counts.
COUNTERS = (
    "orbits.shots", "orbits.shots.matched", "orbits.shots.escape_up",
    "orbits.shots.escape_down", "orbits.escape_steps", "orbits.homoclinic_shots",
    "dynamics.steps_accepted", "dynamics.steps_rejected",
    "variational.iterations", "jsonio.bytes_out",
)


def _short(module: str, name: str) -> str:
    return f"{module.split('.', 1)[1]}.{name}"


class Tracer:
    """Installs wrappers, records spans and counts, and restores the originals."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {k: 0 for k in COUNTERS}
        self.absent: List[str] = []
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, name, kind in TARGETS:
            short = _short(module, name)
            try:
                orig = getattr(importlib.import_module(module), name)
            except (ImportError, AttributeError):
                if short not in self.absent:
                    self.absent.append(short)
                continue
            self.calls.setdefault(short, 0)
            wrapper = self._wrap_span(short, orig) if kind == "span" else self._wrap_count(short, orig)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "radial4":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def reset(self) -> None:
        """Zero spans and counts in place (installed wrappers hold these objects)."""
        self.spans.clear()
        for table in (self.calls, self.counts):
            for key in table:
                table[key] = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap_count(self, short: str, orig):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[short] += 1
            return orig(*args, **kwargs)

        return counted

    def _wrap_span(self, short: str, orig):
        tracer = self

        def spanned(*args, **kwargs):
            tracer.calls[short] += 1
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            enclosing = tracer._enclosing_solver()
            tracer._stack.append((sid, short))
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                tracer._observe(short, enclosing, args, kwargs, None, exc)
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, short, start, end, parent))
            tracer._observe(short, enclosing, args, kwargs, result, None)
            return result

        return spanned

    def _enclosing_solver(self) -> Optional[str]:
        for _, name in reversed(self._stack):
            if name in ("orbits.find_periodic", "orbits.find_homoclinic"):
                return name
        return None

    def _observe(self, short, enclosing, args, kwargs, result, exc) -> None:
        c = self.counts
        if short == "dynamics.integrate":
            traj = result if exc is None else getattr(exc, "trajectory", None)
            acc = int(getattr(traj, "n_accepted", 0) or 0)
            c["dynamics.steps_accepted"] += acc
            c["dynamics.steps_rejected"] += int(getattr(traj, "n_rejected", 0) or 0)
            events = kwargs.get("events", args[4] if len(args) > 4 else ())
            if not events:
                return
            if enclosing == "orbits.find_homoclinic":
                c["orbits.homoclinic_shots"] += 1
            elif enclosing == "orbits.find_periodic":
                c["orbits.shots"] += 1
                kind = _shot_class(result, exc)
                c["orbits.shots." + kind] += 1
                if kind != "matched":
                    c["orbits.escape_steps"] += acc
        elif short == "variational.minimize_rayleigh" and exc is None:
            c["variational.iterations"] += int(getattr(result, "iterations", 0))
        elif short in ("jsonio.dumps", "jsonio.write_csv") and exc is None:
            c["jsonio.bytes_out"] += len(result.encode("utf-8"))

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counts and per-name totals and self times of the spans so far."""
        child_time: Dict[int, float] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        total: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        for sid, name, start, end, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "total_s": total,
            "self_s": self_s,
            "absent": list(self.absent),
        }


def _shot_class(result, exc) -> str:
    """Escape class of one periodic shot, read from its end as orbits sees it."""
    if exc is None:
        return "matched" if getattr(result, "event_name", None) is not None else "escape_up"
    return "escape_down" if type(exc).__name__ == "TrajectoryDomainError" else "escape_up"


def merge(snapshots: List[dict]) -> dict:
    """Sum snapshots taken in separate processes (one per cold CLI call)."""
    out = {"calls": {}, "counts": {}, "total_s": {}, "self_s": {}, "absent": []}
    for snap in snapshots:
        for key in ("calls", "counts", "total_s", "self_s"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name in snap["absent"]:
            if name not in out["absent"]:
                out["absent"].append(name)
    return out


def parse_importtime(stderr: str) -> dict:
    """Import times in seconds from ``-X importtime`` output.

    ``radial4`` is the cumulative time of the top-level package (what
    ``import radial4`` costs a user); ``numpy`` and ``scipy`` sum the self
    times of all their modules, wherever they were imported from.
    """
    out = {"radial4": 0.0, "numpy": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
        top = name.split(".")[0]
        if name == "radial4":
            out["radial4"] = cum_us * 1e-6
        elif top in ("numpy", "scipy"):
            out[top] += self_us * 1e-6
    return out
