"""Command-line front end for the solvers and verifiers.

Every subcommand emits a machine-readable document (JSON by default, CSV
for sampled profiles and sweeps) with a top-level schema tag, and maps the
library's exception taxonomy onto stable exit codes:

    0  success
    1  usage error (bad flags, malformed grid, unreadable config,
       unwritable output, or a reader that closed stdout early)
    3  non-convergence (including a step size that underflows), or a verify
       tolerance exceeded
    4  regime violation (no explicit solution, wrong coefficient signs)
    5  validation, domain, pole, or tail errors

so that parameter sweeps and scripted studies can sort outcomes without
parsing messages.

Each handler imports the solver modules it needs, so commands that do
scalar arithmetic only (info, sweep info, explicit as JSON, best-constant
in closed form) never load numpy.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

from . import jsonio
from .errors import ConvergenceError, Radial4Error, RegimeError
from .params import ProblemParams, check_conditions, derive_coefficients

SCHEMA = "1"

_EXIT_USAGE = 1
_EXIT_CONVERGENCE = 3
_EXIT_REGIME = 4
_EXIT_VALIDATION = 5

_MAX_SWEEP_POINTS = 10_000


class _UsageError(Exception):
    pass


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="space dimension (integer >= 5)")
    p.add_argument("--alpha", type=float, default=None, help="weight exponent in (-n, n-4)")
    p.add_argument("--beta", type=float, default=None,
                   help="right-hand weight exponent; derived from the balance relation when absent")
    p.add_argument("--p", type=float, default=None, dest="p_exp", help="nonlinearity exponent > 1")
    p.add_argument("--lambda", type=float, default=None, dest="lam", help="gradient-term coefficient")
    p.add_argument("--mu", type=float, default=None, help="zero-order coefficient")
    p.add_argument("--config", type=str, default=None, help="JSON file with parameter defaults")


def _add_output_flags(p: argparse.ArgumentParser, formats=("json", "csv")) -> None:
    p.add_argument("--format", choices=list(formats), default="json", help="output document format")
    p.add_argument("--output", type=str, default=None, help="output path (stdout when absent)")


def _load_config(path: Optional[str]) -> Dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(doc, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    return doc


def _as_int(value) -> int:
    """int(value), refusing a float with a fraction that int() would truncate."""
    result = int(value)
    if isinstance(value, float) and value != result:
        raise _UsageError(f"n must be an integer, got {value!r}")
    return result


def _param_values(args) -> Dict:
    """The instance's parameters under the config keys, which --vary also
    names: each flag given, over the --config file, over the defaults
    lambda = mu = 0 and beta = None (from the balance relation)."""
    values = {"lambda": 0.0, "mu": 0.0, "beta": None, **_load_config(args.config)}
    flags = {"n": args.n, "alpha": args.alpha, "beta": args.beta, "p": args.p_exp,
             "lambda": args.lam, "mu": args.mu}
    values.update((key, flag) for key, flag in flags.items() if flag is not None)
    return values


def _build_params(values: Dict) -> ProblemParams:
    n, alpha, p_exp = values.get("n"), values.get("alpha"), values.get("p")
    if n is None or alpha is None or p_exp is None:
        raise _UsageError("parameters --n, --alpha, --p are required (flags or config)")
    beta = values["beta"]
    try:
        n, alpha, p_exp = _as_int(n), float(alpha), float(p_exp)
        lam, mu = float(values["lambda"]), float(values["mu"])
        beta = None if beta is None else float(beta)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _UsageError(f"parameter values must be numbers: {exc}")
    return ProblemParams(n=n, alpha=alpha, p=p_exp, lam=lam, mu=mu, beta=beta)


def _write(args, text: str) -> None:
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write output file {args.output}: {exc}")
    else:
        _write_stdout(text if text.endswith("\n") else text + "\n")


def _write_stdout(text: str) -> None:
    """Write text to stdout in full, or raise BrokenPipeError.

    An unbuffered text layer (PYTHONUNBUFFERED=1) drops the rest of a partial
    write, so the encoded bytes go to the binary layer in a loop that honours
    the returned count; the write after a partial one then reports a closed
    pipe.  A stream with no binary layer (io.StringIO) takes the text as is.
    """
    out = sys.stdout
    buf = getattr(out, "buffer", None)
    if buf is None:
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[buf.write(data):]


def _sorted_eigenvalues(coeff) -> List:
    if coeff.eigenvalues_real:
        return sorted(coeff.eigenvalues, reverse=True)
    eigs = sorted(map(complex, coeff.eigenvalues), key=lambda z: (-z.real, -z.imag))
    return [{"re": e.real, "im": e.imag} for e in eigs]


def _cmd_info(args) -> int:
    params = _build_params(_param_values(args))
    coeff = derive_coefficients(params)
    report = check_conditions(params)
    doc = {
        "schema": SCHEMA,
        "params": params.to_dict(),
        "K2": coeff.K2,
        "K0": coeff.K0,
        "l": coeff.l,
        "eigenvalues": _sorted_eigenvalues(coeff),
        "conditions": report.to_dict(),
    }
    _write(args, jsonio.dumps(doc))
    return 0


def _cmd_explicit(args) -> int:
    from .closed_form import build_cosh_solution, curve_rows, radial_curve_rows

    params = _build_params(_param_values(args))
    sol = build_cosh_solution(params)
    if args.format == "csv":
        if args.curve == "radial":
            header, rows = radial_curve_rows(sol)
        else:
            header, rows = curve_rows(sol)
        _write(args, jsonio.write_csv(header, rows))
        return 0
    doc = {
        "schema": SCHEMA,
        "params": params.to_dict(),
        "m": sol.m,
        "nu": sol.nu,
        "C": sol.C,
        "case": sol.case_tag.value,
        "gamma_decay": sol.gamma_decay,
        "K2": sol.K2,
        "K0": sol.K0,
    }
    _write(args, jsonio.dumps(doc))
    return 0


def _cmd_orbit(args) -> int:
    from .orbits import find_periodic

    params = _build_params(_param_values(args))
    if args.a is None:
        raise _UsageError("--a (orbit minimum value) is required")
    orbit = find_periodic(args.a, params, tol=args.tol)
    if args.format == "csv":
        header, rows = orbit.rows()
        _write(args, jsonio.write_csv(header, rows))
        return 0
    doc = {"schema": SCHEMA, "params": params.to_dict()}
    doc.update(orbit.to_dict())
    _write(args, jsonio.dumps(doc))
    return 0


def _cmd_homoclinic(args) -> int:
    from .orbits import classify_singularity, find_homoclinic

    params = _build_params(_param_values(args))
    profile = find_homoclinic(params)
    if args.format == "csv":
        header, rows = profile.samples.rows()
        _write(args, jsonio.write_csv(header, rows))
        return 0
    verdict = None
    try:
        verdict = classify_singularity(params).to_dict()
    except RegimeError:
        pass
    doc = {"schema": SCHEMA, "params": params.to_dict()}
    doc.update(profile.to_dict())
    doc["n_samples"] = int(len(profile.samples.ts))
    if verdict is not None:
        doc["singularity"] = verdict
    _write(args, jsonio.dumps(doc))
    return 0


def _cmd_best_constant(args) -> int:
    from .variational import best_constant_numerical, phi_closed_form

    params = _build_params(_param_values(args))
    doc = {"schema": SCHEMA, "params": params.to_dict()}
    if args.method == "numerical":
        result, mres = best_constant_numerical(params, L=args.grid_L, h=args.grid_h)
        doc.update(result.to_dict())
        doc.update(L=float(args.grid_L), h=float(args.grid_h), iterations=int(mres.iterations))
    else:
        doc.update(phi_closed_form(params).to_dict())
    _write(args, jsonio.dumps(doc))
    return 0


def _parse_case(case) -> tuple:
    """(identity, function, n, alpha, lambda, mu) of one manifest case."""
    from .identities import TEST_FUNCTIONS, IdentityId

    if not isinstance(case, dict):
        raise _UsageError(f"manifest case {case!r} must be a JSON object")
    try:
        ident = IdentityId(case["identity"])
        fname = case["function"]
        n, alpha = _as_int(case["n"]), float(case["alpha"])
        lam, mu = float(case.get("lambda", 0.0)), float(case.get("mu", 0.0))
    except KeyError as exc:
        raise _UsageError(f"manifest case {case!r} lacks the field {exc}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise _UsageError(f"malformed manifest case {case!r}: {exc}")
    if fname not in TEST_FUNCTIONS:
        raise _UsageError(f"unknown test function {fname!r} in manifest")
    return ident, fname, n, alpha, lam, mu


def _cmd_verify(args) -> int:
    if not 0.0 <= args.tolerance < math.inf:
        raise _UsageError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    from .identities import (
        TEST_FUNCTIONS, QuadratureGrid, record_deviation, run_identity_suite, verify_identity,
    )

    if args.manifest is not None:
        try:
            with open(args.manifest, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read manifest {args.manifest}: {exc}")
        cases = doc.get("cases") if isinstance(doc, dict) else doc
        if not isinstance(cases, list):
            raise _UsageError("manifest must be a JSON list or an object with a 'cases' list")
        records = []
        grid = QuadratureGrid.build(T=args.T)
        for case in cases:
            ident, fname, n, alpha, lam, mu = _parse_case(case)
            rec = {
                "identity": ident.value,
                "function": fname,
                "n": n,
                "alpha": alpha,
            }
            report = verify_identity(ident, TEST_FUNCTIONS[fname], n, alpha, lam, mu, grid)
            rec["status"] = "ok"
            rec.update(report.to_dict())
            records.append(rec)
    else:
        records = run_identity_suite()

    worst = 0.0
    n_ok = 0
    n_skipped = 0
    for rec in records:
        if rec["status"] == "ok":
            n_ok += 1
            worst = max(worst, record_deviation(rec))
        else:
            n_skipped += 1
    doc = {
        "schema": SCHEMA,
        "n_ok": n_ok,
        "n_skipped": n_skipped,
        "worst_rel_err": worst,
        "tolerance": args.tolerance,
        "reports": records,
    }
    _write(args, jsonio.dumps(doc))
    if n_ok == 0:
        raise ConvergenceError("verification suite produced no successful checks")
    if worst > args.tolerance:
        raise ConvergenceError(
            f"worst relative identity error {worst:.3e} exceeds tolerance {args.tolerance:.3e}"
        )
    return 0


def _parse_vary(specs: Sequence[str]) -> List:
    if not specs:
        raise _UsageError("sweep requires at least one --vary name=start:stop:count")
    if len(specs) > 2:
        raise _UsageError("sweep supports at most two --vary axes")
    axes = []
    allowed = {"n", "alpha", "beta", "p", "lambda", "mu", "a"}
    for spec in specs:
        if "=" not in spec:
            raise _UsageError(f"malformed --vary {spec!r}; expected name=start:stop:count")
        name, _, rng = spec.partition("=")
        name = name.strip()
        if name not in allowed:
            raise _UsageError(f"cannot vary {name!r}; choose from {sorted(allowed)}")
        parts = rng.split(":")
        if len(parts) != 3:
            raise _UsageError(f"malformed --vary range {rng!r}; expected start:stop:count")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise _UsageError(f"malformed --vary range {rng!r}: {exc}")
        if count < 1:
            raise _UsageError(f"--vary count must be >= 1, got {count}")
        if count > _MAX_SWEEP_POINTS:
            axes.append((name, count, None))  # never built: the cap check below fails
            continue
        values = _linspace(start, stop, count)
        if not all(map(math.isfinite, values)):
            raise _UsageError(f"--vary range {rng!r} gives non-finite grid values")
        if name == "n":
            ints = [math.copysign(round(v), v) for v in values]  # np.round, signed zeros too
            if any(abs(i - v) > 1e-9 for i, v in zip(ints, values)):
                raise _UsageError("--vary n requires integer grid values")
            values = ints
        axes.append((name, count, values))
    total = math.prod(count for _, count, _ in axes)
    if total > _MAX_SWEEP_POINTS:
        raise _UsageError(f"sweep grid has {total} points, exceeding the cap of {_MAX_SWEEP_POINTS}")
    return [(name, values) for name, _, values in axes]


def _linspace(start: float, stop: float, num: int) -> List[float]:
    """np.linspace(start, stop, num) on Python floats, equal bit for bit."""
    delta = stop - start
    if num == 1:
        return [0.0 * delta + start]
    div = num - 1
    step = delta / div
    if step == 0.0:  # numpy's branch for a step that underflows to zero
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def _sweep_point(args, values: Dict, point: Dict[str, float]) -> Dict:
    row: Dict[str, object] = dict(point)
    try:
        params = _build_params({**values, **point})
        if args.command == "info":
            coeff = derive_coefficients(params)
            report = check_conditions(params)
            row.update({
                "K2": coeff.K2, "K0": coeff.K0, "l": coeff.l,
            })
            row.update(report.to_dict())
        else:
            a = point.get("a", args.a)
            if a is None:
                raise _UsageError("--a is required for orbit sweeps (fixed or varied)")
            from .orbits import find_periodic

            orbit = find_periodic(a, params, tol=args.tol)
            row.update(orbit.to_dict())
        row["error"] = ""
    except Radial4Error as exc:
        row["error"] = _exit_code_for(exc)
    return row


def _cmd_sweep(args) -> int:
    axes = _parse_vary(args.vary)
    values = _param_values(args)  # once, after the grid's usage errors
    names = [name for name, _ in axes]
    rows = [_sweep_point(args, values, dict(zip(names, point)))
            for point in itertools.product(*(grid for _, grid in axes))]

    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    table = [[row.get(c) for c in columns] for row in rows]
    if args.format == "json":
        doc = {"schema": SCHEMA, "command": args.command, "columns": columns,
               "rows": [dict(zip(columns, r)) for r in table]}
        _write(args, jsonio.dumps(doc))
    else:
        _write(args, jsonio.write_csv(columns, table))
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The radial4 parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="radial4",
        description="Solvers and verifiers for a weighted fourth-order radial problem.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_info = sub.add_parser("info", help="derived coefficients, eigenvalues, condition report")
    _add_param_flags(p_info)
    _add_output_flags(p_info, formats=("json",))
    p_info.set_defaults(fn=_cmd_info)

    p_exp = sub.add_parser("explicit", help="closed-form cosh profile when it exists")
    _add_param_flags(p_exp)
    _add_output_flags(p_exp)
    p_exp.add_argument("--curve", choices=("reduced", "radial"), default="reduced",
                       help="which profile to sample for CSV output")
    p_exp.set_defaults(fn=_cmd_explicit)

    p_orb = sub.add_parser("orbit", help="periodic orbit with prescribed minimum value")
    _add_param_flags(p_orb)
    _add_output_flags(p_orb)
    p_orb.add_argument("--a", type=float, default=None, help="orbit minimum value in (0, l)")
    p_orb.add_argument("--tol", type=float, default=1e-8, help="Newton residual tolerance, relative to max v^p")
    p_orb.set_defaults(fn=_cmd_orbit)

    p_hom = sub.add_parser("homoclinic", help="even decaying zero-energy profile")
    _add_param_flags(p_hom)
    _add_output_flags(p_hom)
    p_hom.set_defaults(fn=_cmd_homoclinic)

    p_bc = sub.add_parser("best-constant", help="1-D infimum and radial best constant")
    _add_param_flags(p_bc)
    _add_output_flags(p_bc, formats=("json",))
    p_bc.add_argument("--method", choices=("closed-form", "numerical"), default="closed-form")
    p_bc.add_argument("--grid-L", type=float, default=40.0, dest="grid_L")
    p_bc.add_argument("--grid-h", type=float, default=0.01, dest="grid_h")
    p_bc.set_defaults(fn=_cmd_best_constant)

    p_ver = sub.add_parser("verify", help="run the weighted-identity suite")
    _add_output_flags(p_ver, formats=("json",))
    p_ver.add_argument("--manifest", type=str, default=None,
                       help="JSON manifest of cases; default runs the built-in suite")
    p_ver.add_argument("--T", type=float, default=40.0, help="quadrature half-width for manifests")
    p_ver.add_argument("--tolerance", type=float, default=1e-6,
                       help="worst acceptable relative identity error")
    p_ver.set_defaults(fn=_cmd_verify)

    p_sw = sub.add_parser("sweep", help="grid sweep wrapping info or orbit")
    p_sw.add_argument("command", choices=("info", "orbit"), help="command to run per grid point")
    _add_param_flags(p_sw)
    _add_output_flags(p_sw, formats=("csv", "json"))
    p_sw.add_argument("--a", type=float, default=None, help="orbit minimum (for orbit sweeps)")
    p_sw.add_argument("--tol", type=float, default=1e-8, help="orbit Newton residual tolerance")
    p_sw.add_argument("--vary", action="append", default=[],
                      help="axis spec name=start:stop:count (repeat for a 2-D grid)")
    p_sw.set_defaults(fn=_cmd_sweep)
    p_sw.set_defaults(format="csv")

    return parser


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ConvergenceError):
        return _EXIT_CONVERGENCE
    if isinstance(exc, RegimeError):
        return _EXIT_REGIME
    return _EXIT_VALIDATION


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Write a warning as one line, without the source path and line."""
    sys.stderr.write(f"warning: {message}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    # One BLAS thread unless the caller chose otherwise: no solve here is
    # large enough to gain from OpenBLAS's pool, whose start-up costs a
    # third or more of numpy's import and whose thread count changes the
    # last digits of large dense solves.  Set before any handler imports numpy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems; remap the latter.
        return 0 if exc.code in (0, None) else _EXIT_USAGE
    import warnings

    try:
        try:
            with warnings.catch_warnings():
                warnings.showwarning = _show_warning
                code = args.fn(args)
        except _UsageError as exc:
            sys.stderr.write(f"usage error: {exc}\n")
            code = _EXIT_USAGE
        except Radial4Error as exc:
            sys.stderr.write(f"error: {exc}\n")
            code = _exit_code_for(exc)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`radial4 ... | head`).  Point stdout at
        # devnull so that the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_USAGE
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
