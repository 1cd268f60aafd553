"""Command-line behavior: documents, exit codes, determinism."""

import ast
import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radial4
from radial4 import cli, jsonio, orbits
from radial4.cli import build_parser, main
from radial4.errors import DomainError, ValidationError
from radial4.identities import TEST_FUNCTIONS, IdentityId
from radial4.params import SolutionCase, explicit_lambda_branches, k0_value
from test_closed_form import _family_alpha as family_alpha

B0_FLAGS = ["--n", "6", "--alpha", "0", "--p", "5"]
PEAK_B0 = 24.0 ** 0.25
TWO_C1 = 384.0 ** 0.25


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def run_text(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


class TestInfo:
    def test_reference_instance_document(self, capsys):
        rc, doc = run_json(capsys, ["info"] + B0_FLAGS)
        assert rc == 0
        assert doc["schema"] == "1"
        assert doc["K2"] == pytest.approx(10.0)
        assert doc["K0"] == pytest.approx(9.0)
        assert doc["l"] == pytest.approx(math.sqrt(3.0))
        assert doc["eigenvalues"] == pytest.approx([3.0, 1.0, -1.0, -3.0])
        assert doc["params"]["lambda"] == 0.0
        assert doc["params"]["beta"] == 0.0
        assert doc["conditions"]["c1"] is True

    def test_complex_eigenvalues_encoded_as_objects(self, capsys):
        rc, doc = run_json(
            capsys, ["info"] + B0_FLAGS + ["--lambda", "8", "--mu", "1"]
        )
        assert rc == 0
        assert all(set(e) == {"re", "im"} for e in doc["eigenvalues"])
        assert any(e["im"] != 0.0 for e in doc["eigenvalues"])


class TestExplicit:
    def test_reference_profile_document(self, capsys):
        rc, doc = run_json(capsys, ["explicit"] + B0_FLAGS)
        assert rc == 0
        assert doc["case"] == "Case1"
        assert doc["m"] == pytest.approx(-1.0)
        assert doc["nu"] == pytest.approx(1.0)
        assert 2.0 * doc["C"] == pytest.approx(TWO_C1, rel=1e-12)

    def test_conjugate_weight_profile(self, capsys):
        rc, doc = run_json(
            capsys, ["explicit", "--n", "6", "--alpha", "-4", "--p", "5"]
        )
        assert rc == 0
        assert doc["case"] == "Case2"
        assert doc["gamma_decay"] == pytest.approx(2.0)

    def test_reduced_curve_csv(self, capsys):
        rc, out = run_text(capsys, ["explicit"] + B0_FLAGS + ["--format", "csv"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t,v,dv,d2v,d3v,residual"
        assert len(lines) > 100
        residuals = [abs(float(line.split(",")[5])) for line in lines[1:]]
        assert max(residuals) < 1e-10

    def test_radial_curve_csv_bounded_at_origin(self, capsys):
        rc, out = run_text(
            capsys, ["explicit"] + B0_FLAGS + ["--format", "csv", "--curve", "radial"]
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "r,u"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        r_min, u_at_min = min(rows)
        assert r_min < 1e-3
        assert u_at_min == pytest.approx(TWO_C1, rel=1e-4)


class TestOrbit:
    def test_orbit_document(self, capsys):
        rc, doc = run_json(capsys, ["orbit"] + B0_FLAGS + ["--a", "1.0"])
        assert rc == 0
        expected = {
            "a", "b", "period", "max_value", "energy",
            "residual_sup", "in_proven_regime", "energy_drift",
        }
        assert expected <= set(doc)
        assert doc["b"] == pytest.approx(0.7836654928917256, rel=1e-9)
        assert doc["period"] == pytest.approx(4.4371357547621058, rel=1e-8)
        assert doc["in_proven_regime"] is True

    @pytest.mark.parametrize(
        "flags",
        [
            # shooting on v''(0) exited 5 and 3 on these
            ["--n", "6", "--alpha", "1.1767380444873858", "--p", "2.6777381037533425",
             "--a", "1.43067752523473"],
            ["--n", "5", "--alpha", "0.13930734865417538", "--p", "4.4861357549337875",
             "--a", "0.4185843747442016"],
        ],
    )
    def test_former_shooting_failures(self, capsys, flags):
        rc, doc = run_json(capsys, ["orbit"] + flags)
        assert rc == 0
        assert doc["residual_sup"] < 1e-8
        assert doc["energy_drift"] < 1e-8

    def test_orbit_csv_spans_one_period(self, capsys):
        rc, out = run_text(capsys, ["orbit"] + B0_FLAGS + ["--a", "1.0", "--format", "csv"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t,v,dv,d2v,d3v,E"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert rows[0][0] == 0.0
        assert rows[-1][0] == pytest.approx(4.4371357547621058, rel=1e-8)
        steps = [b[0] - a[0] for a, b in zip(rows, rows[1:])]
        assert max(steps) - min(steps) < 1e-12
        assert rows[0][1:5] == pytest.approx((1.0, 0.0, 0.7836654928917256, 0.0), abs=1e-9)

    @pytest.mark.parametrize(
        "a, digest",
        [
            pytest.param("1.0", "64a1d96c381f3242f62958ed33c763b0aeb07042ea30f6242aa1e411605e5102",
                         id="1.0"),
            # 1e-3 l, N = 128 modes
            pytest.param("0.0017320508075688772",
                         "a1fd1aca8de87ad424003698c99ca59752f1459a890c731b907787ac0b6b161e",
                         id="1e-3l"),
        ],
    )
    def test_orbit_csv_bytes(self, a, digest):
        # every digit of every row, E included, as the inverse FFT of each
        # state column printed them; a fresh interpreter, so that BLAS runs
        # on one thread however this process loaded numpy
        proc = run_child(["-m", "radial4.cli", "orbit"] + B0_FLAGS + ["--a", a, "--format", "csv"])
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


class TestHomoclinic:
    def test_profile_document_with_verdict(self, capsys):
        rc, doc = run_json(capsys, ["homoclinic"] + B0_FLAGS)
        assert rc == 0
        assert doc["peak"] == pytest.approx(PEAK_B0, abs=1e-6)
        assert doc["decay_rate"] == pytest.approx(1.0, abs=1e-3)
        # from the peak down to v = 1e3 a, 8 grid steps (about 0.25 / lambda2) apart
        assert doc["n_samples"] == 33
        assert doc["singularity"]["verdict"] == "Boundary"

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (B0_FLAGS + ["--format", "csv"],
             "93b5488024843df1b478cdf1dc1cf67eeb998f5a63c8562c83d22c67f5bf8c86"),
            (B0_FLAGS + ["--lambda", str(80.0 / 9.0), "--format", "csv"],
             "2df4b1a7a23f185f35ca836c48945ec94307ea78f70f2a5fe211a909ccbf4085"),
            (["--n", "7", "--alpha", "1", "--p", "2", "--lambda", "2", "--mu", "1"],
             "8fe03e101d8b84d3399c3a28fff9197b1ea3f932993d0b342db7a4744bb44002"),
            (["--n", "6", "--alpha", "-4", "--p", "5"],
             "3f5c39fcc27c2a9a61765541db56ace52b51a0e3637d695aaa70af53e143fb98"),
        ],
        ids=["b0-csv", "shifted-csv", "n7-p2-json", "conjugate-json"],
    )
    def test_homoclinic_bytes(self, flags, digest):
        # every digit of the profile, as the orbit at a = 1e-6 l gave it; a
        # fresh interpreter, as in test_orbit_csv_bytes
        proc = run_child(["-m", "radial4.cli", "homoclinic"] + flags)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

    def test_sweep_orbit_bytes(self):
        # two orbits solved in one process, each with its energy_drift: the
        # per-N matrices kept from the first solve must leave every digit of
        # the second; a fresh interpreter, as above
        argv = ["sweep", "orbit"] + B0_FLAGS + ["--vary", "a=0.5:1.2:2", "--format", "json"]
        proc = run_child(["-m", "radial4.cli"] + argv)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "0699009fd301c2aa79dc593a2f0b363dce685e307c047bead806ef0a79bb7356")


class TestBestConstant:
    def test_closed_form_document(self, capsys):
        rc, doc = run_json(capsys, ["best-constant"] + B0_FLAGS)
        assert rc == 0
        phi = 24.0 * (16.0 / 15.0) ** (2.0 / 3.0)
        assert doc["phi"] == pytest.approx(phi, rel=1e-12)
        assert doc["S_rad"] == pytest.approx(math.pi ** 2 * phi, rel=1e-12)
        assert doc["source"] == "ClosedForm"

    def test_numerical_document(self, capsys):
        rc, doc = run_json(
            capsys,
            ["best-constant"] + B0_FLAGS
            + ["--method", "numerical", "--grid-L", "20", "--grid-h", "0.05"],
        )
        assert rc == 0
        phi = 24.0 * (16.0 / 15.0) ** (2.0 / 3.0)
        assert doc["phi"] == pytest.approx(phi, rel=1e-2)
        assert doc["source"] == "Numerical"
        assert doc["L"] == 20.0 and doc["h"] == 0.05
        assert doc["iterations"] >= 1

    @pytest.mark.parametrize("grid", [
        ["--grid-h", "0"], ["--grid-h", "nan"], ["--grid-L", "-1"], ["--grid-L", "1e9"],
    ])
    def test_bad_grid_is_validation_error(self, capsys, grid):
        rc = main(["best-constant"] + B0_FLAGS + ["--method", "numerical"] + grid)
        captured = capsys.readouterr()
        assert rc == 5
        assert captured.out == "" and captured.err.startswith("error: grid")

    def test_warning_is_one_line(self):
        # on [-1, 1] the minimizer cannot decay, so the minimizer warns; the
        # warning is one line, with no source path and no source line
        proc = run_child(["-m", "radial4.cli", "best-constant"] + B0_FLAGS
                         + ["--method", "numerical", "--grid-L", "1", "--grid-h", "0.5"])
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "warning: minimizer has boundary contamination |v(+-L)|=8.584e-01 > 1e-8; increase L"
        ]
        assert proc.stdout == (
            '{"schema":"1","params":{"n":6,"alpha":0,"beta":0,"p":5,"lambda":0,"mu":0},'
            '"phi":16.578141744207699,"S_rad":163.61970072051548,"source":"Numerical",'
            '"L":1,"h":0.5,"iterations":21}\n'
        )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["best-constant"], "c3129606936f8bf22189fbb5fb91d0522a609d286d4f5b1cea31877f9b8ca9ac"),
        (["best-constant", "--method", "numerical"],
         "e872c0c8f0e8caa8cb2152e998fc2b96e55c9e3020f0149a245b2b826c7c5635"),
        (["explicit", "--format", "csv", "--curve", "radial"],
         "aa151cfaa0ab75e8880e13283d9ed7671f7a688e37f87d065569658d111cfc0b"),
    ],
    ids=["best-constant", "best-constant-numerical", "explicit-radial-csv"],
)
def test_b0_output_bytes(argv, digest):
    # every byte of the B0 document, in a fresh interpreter on one BLAS thread
    proc = run_child(["-m", "radial4.cli", argv[0]] + B0_FLAGS + argv[1:])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


class TestDependencies:
    def test_numerical_best_constant_loads_no_scipy(self):
        code = (
            "import sys\n"
            "import radial4.cli\n"
            "rc = radial4.cli.main(['best-constant', '--n', '6', '--alpha', '0', '--p', '5',"
            " '--method', 'numerical', '--grid-L', '20', '--grid-h', '0.05'])\n"
            "assert rc == 0, rc\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(radial4.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["source"] == "Numerical"

    def test_scalar_commands_load_no_numpy(self):
        code = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "import radial4.cli\n"
            "from radial4 import jsonio\n"
            "b0 = ['--n', '6', '--alpha', '0', '--p', '5']\n"
            "csv = ['--format', 'csv']\n"
            "for argv in (['info'] + b0, ['sweep', 'info'] + b0 + ['--vary', 'lambda=0:8:5'],\n"
            "             ['explicit'] + b0, ['explicit'] + b0 + csv,\n"
            "             ['explicit'] + b0 + csv + ['--curve', 'radial'], ['best-constant'] + b0):\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert radial4.cli.main(argv) == 0, argv\n"
            "try:\n"
            "    jsonio.dumps(object())\n"
            "except radial4.ValidationError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('an object() was serialized')\n"
            "loaded = [m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')]\n"
            "assert not loaded, loaded\n"
            "# the records are tuples: dataclasses would import inspect, ast and dis\n"
            "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(radial4.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_lazy_exports_are_the_defining_modules_objects(self):
        for name in radial4.__all__:
            module = importlib.import_module(f"radial4.{radial4._EXPORTS[name]}")
            obj = getattr(radial4, name)
            assert obj is getattr(module, name), name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
        namespace = {}
        exec("from radial4 import *", namespace)
        assert set(radial4.__all__) <= set(namespace)
        assert set(radial4.__all__) <= set(dir(radial4))
        with pytest.raises(AttributeError):
            radial4.no_such_name

    def test_every_export_has_a_caller_in_the_package(self):
        # A public name is imported by another module or loaded in its own.
        # explicit_lambda_branches stays as the paper's lambda branches.
        kept = {"explicit_lambda_branches"}
        package = os.path.dirname(radial4.__file__)
        imported, loaded = set(), {}
        for fname in sorted(os.listdir(package)):
            if not fname.endswith(".py") or fname == "__init__.py":
                continue
            with open(os.path.join(package, fname), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            names = loaded[fname[:-3]] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
        uncalled = sorted(name for name, module in radial4._EXPORTS.items()
                          if name not in kept | imported | loaded[module])
        assert uncalled == []

    def test_every_dataclass_field_is_read_in_the_package(self):
        # Each field of an exported dataclass or NamedTuple record is read as
        # an attribute in the package.  PeriodicOrbit's newton_iterations and
        # continuation_steps are the solve's work counters, kept for a solver
        # stats record.
        kept = {"PeriodicOrbit.newton_iterations", "PeriodicOrbit.continuation_steps"}
        package = os.path.dirname(radial4.__file__)
        read = set()
        for fname in sorted(os.listdir(package)):
            if fname.endswith(".py"):
                with open(os.path.join(package, fname), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                read.update(node.attr for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        unread, records = [], []
        for name in radial4.__all__:
            obj = getattr(radial4, name)
            if not isinstance(obj, type):
                continue
            if dataclasses.is_dataclass(obj):
                fields = [f.name for f in dataclasses.fields(obj)]
            elif issubclass(obj, tuple) and hasattr(obj, "_fields"):
                fields = list(obj._fields)
                records.append(name)
            else:
                continue
            unread += [f"{name}.{field}" for field in fields
                       if field not in read and f"{name}.{field}" not in kept]
        assert unread == []
        assert sorted(records) == ["BestConstantResult", "ConditionReport", "CoshSolution",
                                   "DerivedCoefficients", "MinimizeResult", "ProblemParams"]


def run_child(args, blas_threads=None):
    """A fresh interpreter with OPENBLAS_NUM_THREADS set to blas_threads or absent.

    The variable is removed explicitly: an in-process main() call earlier in
    the session has set it in os.environ.
    """
    src = os.path.dirname(os.path.dirname(radial4.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestBlasThreads:
    def test_output_independent_of_thread_count(self):
        # N = 256 modes; b = -omega^2 sum k^2 d_k cancels down from terms of
        # size l, so with OpenBLAS's default pool it moved by about 1e-8
        # relative with the thread count
        argv = ["-m", "radial4.cli", "orbit"] + B0_FLAGS + ["--a", "1.732e-8"]
        default = run_child(argv)
        single = run_child(argv, blas_threads="1")
        assert default.returncode == single.returncode == 0, default.stderr
        assert default.stdout == single.stdout

    def test_explicit_value_is_kept(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert main(["info"] + B0_FLAGS) == 0
        capsys.readouterr()
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_verify_runs_on_one_thread(self, tmp_path):
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps(
            [{"identity": "Rellich22", "function": "gaussian", "n": 6, "alpha": 0.0}]))
        code = (
            "import io, os, sys\n"
            "from contextlib import redirect_stdout\n"
            "import radial4.cli\n"
            "with redirect_stdout(io.StringIO()):\n"
            f"    assert radial4.cli.main(['verify', '--manifest', {str(manifest)!r}]) == 0\n"
            "assert 'numpy' in sys.modules\n"
            "print(len(os.listdir('/proc/self/task')))\n"
        )
        proc = run_child(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"


class TestParserReuse:
    # one process reuses one parser; each call must still behave as a fresh one
    SEQUENCE = [
        ["orbit", "--n", "six"],
        ["sweep", "info"] + B0_FLAGS + ["--vary", "lambda=0:8:5"],
        ["sweep", "info"] + B0_FLAGS + ["--vary", "mu=0:1:3"],
        ["orbit"] + B0_FLAGS + ["--a", "1.0"],
        ["--help"],
    ]

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help wraps to the same width in both
        results = []
        for argv in self.SEQUENCE:
            rc = main(argv)
            captured = capsys.readouterr()
            fresh = run_child(["-m", "radial4.cli", *argv])
            assert (rc, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            results.append((rc, captured.out))
        assert results[0][0] == 1
        # the mu grid does not inherit the lambda grid's --vary value
        assert results[2][1].splitlines()[0].startswith("mu,")
        assert len(results[2][1].splitlines()) == 1 + 3
        assert results[4][0] == 0 and results[4][1].startswith("usage: radial4")


class TestVerify:
    def test_manifest_cases(self, capsys, tmp_path):
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps({"cases": [
            {"identity": "Rellich22", "function": "gaussian", "n": 6, "alpha": 0.0},
            {"identity": "Hardy31", "function": "gaussian", "n": 6, "alpha": 0.0},
            {"identity": "TauScaling", "function": "gaussian", "n": 8, "alpha": -1.0},
        ]}))
        rc, doc = run_json(capsys, ["verify", "--manifest", str(manifest)])
        assert rc == 0
        assert doc["n_ok"] == 3 and doc["n_skipped"] == 0
        hardy = next(r for r in doc["reports"] if r["identity"] == "Hardy31")
        assert hardy["ratio"] == pytest.approx(2.0, abs=1e-8)
        assert hardy["constant"] == pytest.approx(1.0)

    def test_manifest_accepts_integral_float_n(self, capsys, tmp_path):
        docs = []
        for n in (6, 6.0):
            manifest = tmp_path / f"case_{n}.json"
            manifest.write_text(json.dumps(
                [{"identity": "Rellich22", "function": "gaussian", "n": n, "alpha": 0.0}]
            ))
            rc, doc = run_json(capsys, ["verify", "--manifest", str(manifest)])
            assert rc == 0
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_manifest_must_hold_case_list(self, capsys, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text('{"cases": 7}')
        assert main(["verify", "--manifest", str(manifest)]) == 1
        capsys.readouterr()

    def test_unknown_function_rejected(self, capsys, tmp_path):
        manifest = tmp_path / "bad_fn.json"
        manifest.write_text(json.dumps([
            {"identity": "Rellich22", "function": "sinc", "n": 6, "alpha": 0.0},
        ]))
        assert main(["verify", "--manifest", str(manifest)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "case",
        [
            {"identity": "Rellich99", "function": "gaussian", "n": 6, "alpha": 0.0},
            {"identity": "Rellich22", "function": "gaussian", "n": 6},
            {"identity": "Rellich22", "function": "gaussian", "n": "six", "alpha": 0.0},
            ["Rellich22", "gaussian", 6, 0.0],
            {"identity": "Rellich22", "function": "gaussian", "n": 6.9, "alpha": 0.0},
        ],
        ids=["unknown-identity", "missing-alpha", "malformed-n", "not-an-object",
             "non-integral-n"],
    )
    def test_malformed_case_is_usage_error(self, capsys, tmp_path, case):
        manifest = tmp_path / "bad_case.json"
        manifest.write_text(json.dumps([case]))
        assert main(["verify", "--manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-6"])
    def test_bad_tolerance_is_usage_error_before_any_quadrature(self, capsys, monkeypatch,
                                                                tolerance):
        def refuse(*args, **kwargs):
            raise AssertionError("the identity suite ran")

        monkeypatch.setattr("radial4.identities.run_identity_suite", refuse)
        assert main(["verify", f"--tolerance={tolerance}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --tolerance must be a finite number >= 0")

    @pytest.mark.parametrize("T", ["inf", "800", "1e9"])
    def test_grid_width_whose_radii_overflow_is_rejected_before_any_grid(self, capsys, monkeypatch,
                                                                         tmp_path, T):
        # exp(800) overflows the radii, and 1e9 would ask for 4e9 panel edges
        def refuse(*args, **kwargs):
            raise AssertionError("the quadrature grid was built")

        monkeypatch.setattr("radial4.identities._gl_panels", refuse)
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps(
            [{"identity": "Rellich22", "function": "gaussian", "n": 6, "alpha": 0.0}]
        ))
        assert main(["verify", "--manifest", str(manifest), "--T", T]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid half-width must lie in (0, 709.783]")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("T, code", [("300", 0), ("360", 5), ("400", 5), ("709", 5)])
    def test_wide_grid_reports_non_finite_fields_without_warnings(self, tmp_path, T, code):
        # past T = 355 the radii reach 1e154 and r * r overflows; the
        # non-finite fields are reported once, with no numpy RuntimeWarning
        manifest = tmp_path / "spot.json"
        manifest.write_text(json.dumps({"cases": [
            {"identity": "Hardy31", "function": "gaussian", "n": 6, "alpha": 0.0},
            {"identity": "Rellich22", "function": "gaussian", "n": 6, "alpha": 0.0},
        ]}))
        proc = run_child(["-m", "radial4.cli", "verify", "--manifest", str(manifest), "--T", T])
        assert proc.returncode == code
        if code == 0:
            assert proc.stderr == "" and json.loads(proc.stdout)["n_ok"] == 2
        else:
            assert proc.stdout == ""
            assert proc.stderr == "error: field evaluation produced non-finite values\n"

    def test_full_suite_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["verify", "--output", str(out_a)]) == 0
        assert main(["verify", "--output", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert doc["n_ok"] > 200
        assert doc["worst_rel_err"] <= 1e-6


class TestSweep:
    def test_info_sweep_csv(self, capsys):
        rc, out = run_text(
            capsys,
            ["sweep", "info"] + B0_FLAGS + ["--vary", "lambda=0:8:5"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 6
        header = lines[0].split(",")
        assert header[0] == "lambda"
        assert header[-1] == "error"
        k2_col = header.index("K2")
        for line, lam in zip(lines[1:], (0.0, 2.0, 4.0, 6.0, 8.0)):
            cells = line.split(",")
            assert float(cells[0]) == pytest.approx(lam)
            assert float(cells[k2_col]) == pytest.approx(10.0 - lam)
            assert cells[-1] == ""

    def test_two_axis_sweep_json_deterministic(self, capsys):
        argv = [
            "sweep", "info", "--n", "6", "--p", "5",
            "--vary", "alpha=-1:1:3", "--vary", "lambda=0:4:2",
            "--format", "json",
        ]
        rc_a, out_a = run_text(capsys, argv)
        rc_b, out_b = run_text(capsys, argv)
        assert rc_a == 0 and rc_b == 0
        assert out_a == out_b
        doc = json.loads(out_a)
        assert doc["command"] == "info"
        assert len(doc["rows"]) == 6
        assert doc["columns"][:2] == ["alpha", "lambda"]

    def test_orbit_sweep_records_failures_as_data(self, capsys):
        rc, out = run_text(
            capsys,
            ["sweep", "orbit"] + B0_FLAGS + ["--vary", "a=1.2:2.4:2"],
        )
        assert rc == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        err_col = header.index("error")
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[err_col] == ""
        assert float(first[header.index("period")]) > 0.0
        # a=2.4 lies beyond the rest point, a validation failure (code 5)
        assert second[err_col] == "5"

    def test_overflowing_points_are_error_rows(self, capsys):
        rc, out = run_text(capsys, ["sweep", "info"] + B0_FLAGS + ["--vary", "lambda=1e307:1e308:3"])
        assert rc == 0
        assert out.splitlines() == ["lambda,error"] + [
            f"{jsonio.format_float(lam)},5" for lam in (1e307, 5.5e307, 1e308)]
        rc, out = run_text(capsys, ["sweep", "info"] + B0_FLAGS + ["--vary", "lambda=0:1e308:3"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[1].endswith(",") and lines[2].endswith(",5") and lines[3].endswith(",5")

    def test_non_finite_beta_points_are_error_rows(self, capsys):
        # beta = 48 (p+1) - 100 at n = 100, alpha = 0: finite at p = 1e306,
        # inf at 5.05e307 and 1e308; the sweep goes on past the first error
        argv = ["sweep", "info", "--n", "100", "--alpha", "0", "--p", "5",
                "--vary", "p=1e306:1e308:3"]
        rc, out = run_text(capsys, argv)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].split(",")[-1] == "error" and len(lines) == 4
        assert lines[1].endswith(",") and lines[2].endswith(",5") and lines[3].endswith(",5")

    @pytest.mark.parametrize(
        "vary",
        [
            ["--vary", "a=0:1:2", "--vary", "p=2:3:2", "--vary", "mu=0:1:2"],
            ["--vary", "lambda=0:1:200", "--vary", "mu=0:1:200"],
            ["--vary", "q=0:1:3"],
            ["--vary", "n=5:6:3"],
            ["--vary", "lambda=0:1"],
            ["--vary", "mu=-1e308:1e308:3"],
            ["--vary", "mu=0:nan:2"],
        ],
    )
    def test_malformed_axes_are_usage_errors(self, capsys, vary):
        assert main(["sweep", "info"] + B0_FLAGS + vary) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flags, message", [
        (B0_FLAGS, "--a is required for orbit sweeps (fixed or varied)"),
        # a missing parameter is reported before a missing --a
        (["--alpha", "0", "--p", "5"], "parameters --n, --alpha, --p are required (flags or config)"),
    ])
    def test_orbit_sweep_without_a_is_usage_error(self, capsys, monkeypatch, flags, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("find_periodic called")

        monkeypatch.setattr(orbits, "find_periodic", no_solve)
        assert main(["sweep", "orbit"] + flags + ["--vary", "lambda=0:1:3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"


class TestConfig:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_config_matches_flags(self, capsys, tmp_path, fmt):
        # the --vary names are the config keys: lambda varies over a config
        # that sets it, and a flag wins over the config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "alpha": 0.5, "p": 5.0, "lambda": 3.0, "mu": 0.25}))
        tail = ["--vary", "lambda=0:8:5", "--vary", "n=6:7:2", "--format", fmt]
        rc_cfg, out_cfg = run_text(capsys, ["sweep", "info", "--config", str(cfg), "--alpha", "0"]
                                   + tail)
        rc_flags, out_flags = run_text(capsys, ["sweep", "info"] + B0_FLAGS + ["--mu", "0.25"]
                                       + tail)
        assert rc_cfg == rc_flags == 0
        assert out_cfg == out_flags

    def test_sweep_reads_config_once(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "alpha": 0.0, "p": 5.0}))
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        rc, out = run_text(capsys, ["sweep", "info", "--config", str(cfg), "--vary", "mu=0:1:5"])
        assert rc == 0 and len(out.splitlines()) == 6
        assert opened == [str(cfg)]

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n": 6, "alpha": 0.0, "p": 5.0, "lambda": 80.0 / 9.0}
        ))
        rc_cfg, out_cfg = run_text(capsys, ["info", "--config", str(cfg)])
        rc_flags, out_flags = run_text(
            capsys, ["info"] + B0_FLAGS + ["--lambda", str(80.0 / 9.0)]
        )
        assert rc_cfg == 0 and rc_flags == 0
        assert out_cfg == out_flags

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "alpha": 0.0, "p": 5.0, "lambda": 3.0}))
        rc, doc = run_json(capsys, ["info", "--config", str(cfg), "--lambda", "0"])
        assert rc == 0
        assert doc["K2"] == pytest.approx(10.0)

    @pytest.mark.parametrize("command", [["info"], ["sweep", "info", "--vary", "mu=0:1:3"]],
                             ids=["info", "sweep"])
    @pytest.mark.parametrize("key", ["lamda", "a"])
    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path, command, key):
        # a misspelt key once ran with its parameter at the default; "a" is
        # a sweep axis and a flag, but no parameter of the instance
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "alpha": 0.0, "p": 5.0, key: 3.0}))
        assert main(command + ["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: config file {cfg} has unknown key(s) '{key}'; "
                                "the keys are n, alpha, beta, p, lambda, mu\n")

    def test_unreadable_config_is_usage_error(self, capsys, tmp_path):
        assert main(["info", "--config", str(tmp_path / "absent.json")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("text", [
        '{"n": NaN, "alpha": 0, "p": 5}',
        '{"n": "six", "alpha": 0, "p": 5}',
        '{"n": 6, "alpha": "zero", "p": 5}',
    ])
    def test_non_numeric_config_value_is_usage_error(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["info", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: parameter values must be numbers")

    def test_integral_float_n_is_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 6.0, "alpha": 0, "p": 5}')
        rc_cfg, out_cfg = run_text(capsys, ["info", "--config", str(cfg)])
        rc_flags, out_flags = run_text(capsys, ["info"] + B0_FLAGS)
        assert rc_cfg == 0 and out_cfg == out_flags

    def test_non_integral_n_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 6.9, "alpha": 0, "p": 5}')
        assert main(["info", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: n must be an integer, got 6.9\n"


class TestExitCodes:
    def test_missing_required_parameter(self, capsys):
        assert main(["info", "--n", "6", "--alpha", "0"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["solve"]) == 1
        capsys.readouterr()

    def test_orbit_minimum_above_rest_point(self, capsys):
        assert main(["orbit"] + B0_FLAGS + ["--a", "2.5"]) == 5
        capsys.readouterr()

    def test_orbit_outside_oscillation_regime(self, capsys):
        assert main(["orbit"] + B0_FLAGS + ["--lambda", "12", "--a", "1.0"]) == 4
        capsys.readouterr()

    def test_orbit_tolerance_out_of_range(self, capsys):
        assert main(["orbit"] + B0_FLAGS + ["--a", "1.0", "--tol", "1e-3"]) == 5
        capsys.readouterr()

    def test_orbit_tolerance_out_of_reach(self, capsys):
        # the Newton residual stops near 1e-16
        assert main(["orbit"] + B0_FLAGS + ["--a", "1.0", "--tol", "1e-20"]) == 3
        capsys.readouterr()

    def test_double_root_instance_is_real(self, capsys):
        # lam = (n-2)(alpha+2) + 2 sqrt(mu) to the last digit: a double root
        flags = ["--n", "5", "--alpha", "-0.5", "--p", "3",
                 "--lambda", "3.085786437626905", "--mu", "0.5"]
        rc, doc = run_json(capsys, ["info"] + flags)
        assert rc == 0 and doc["conditions"]["uniqueness_ok"]
        assert all(isinstance(e, float) for e in doc["eigenvalues"])
        assert doc["eigenvalues"] == pytest.approx([1.1267682908151735, 1.1267682908151735,
                                                    -1.1267682908151735, -1.1267682908151735])
        rc, doc = run_json(capsys, ["homoclinic"] + flags)
        assert rc == 0
        assert doc["singularity"]["verdict"] == "Removable"
        assert doc["singularity"]["rate_gap"] == pytest.approx(-0.37676829081517349, rel=1e-12)

    def test_homoclinic_complex_eigenvalues(self, capsys):
        assert main(["homoclinic"] + B0_FLAGS + ["--lambda", "8", "--mu", "1"]) == 4
        capsys.readouterr()

    def test_explicit_off_relation(self, capsys):
        assert main(["explicit", "--n", "6", "--alpha", "0", "--p", "4.9"]) == 4
        capsys.readouterr()

    def test_alpha_outside_admissible_range(self, capsys):
        assert main(["info", "--n", "6", "--alpha", "3", "--p", "5"]) == 5
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lambda", "nan"],
            ["--mu", "inf"],
            ["--p", "inf"],
            ["--alpha", "nan"],
            ["--beta", "nan"],
        ],
    )
    def test_non_finite_parameter_is_validation_error(self, capsys, flags):
        # the flag given last wins, so each case overrides one B0 value
        assert main(["info"] + B0_FLAGS + flags) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            [cmd, "--n", "6", "--alpha", "0", "--p", "1.0000000000001"]
            for cmd in ("explicit", "info", "best-constant", "homoclinic")
        ] + [["info"] + B0_FLAGS + ["--lambda", "1e308"]],
    )
    def test_overflowing_coefficients_are_validation_errors(self, capsys, argv):
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["info", "--n", "1" + "0" * 400, "--alpha", "0", "--p", "5"],
             "does not convert to a float"),
            (["info", "--n", "100", "--alpha", "0", "--p", "1e308"], "non-finite beta=inf"),
        ],
        ids=["n-past-float", "beta-overflow"],
    )
    def test_unrepresentable_parameters_are_validation_errors(self, capsys, argv, message):
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "absent" / "doc.json"
        assert main(["info"] + B0_FLAGS + ["--output", str(target)]) == 1
        assert capsys.readouterr().err.startswith("usage error: cannot write output file")

    @staticmethod
    def _close_after(nbytes, unbuffered):
        """Run the CSV explicit command, read nbytes of stdout and close it."""
        src = os.path.dirname(os.path.dirname(radial4.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "radial4.cli", "explicit"] + B0_FLAGS + ["--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = proc.stdout.read(nbytes)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        return proc.returncode, head, err

    def test_reader_closing_stdout_exits_quietly(self):
        # the CSV (about 250 kB) overfills the pipe, so the write that follows
        # the close fails
        code, head, err = self._close_after(8, unbuffered=False)
        assert code == 1
        assert head == b"t,v,dv,d"
        assert err == b""

    def test_reader_closing_unbuffered_stdout_exits_quietly(self):
        # unbuffered, the write in progress at the close returns short; the
        # rest must still be written, so the close is noticed and not dropped
        code, head, err = self._close_after(16, unbuffered=True)
        assert code == 1
        assert head.startswith(b"t,v,dv,d")
        assert err == b""


# the subcommands that run on scalar arithmetic alone
SCALAR_COMMANDS = [["info"], ["explicit"], ["explicit", "--format", "csv"],
                   ["explicit", "--format", "csv", "--curve", "radial"], ["best-constant"],
                   ["sweep", "info"]]
PARAM_NAMES = ("n", "alpha", "beta", "p", "lambda", "mu")


def _number_text():
    """Any float (nan, infinities and subnormals too), a huge or small
    integer, or a number near the admissible region, as flag text."""
    return st.one_of(
        st.floats().map(repr),
        st.integers(-10 ** 400, 10 ** 400).map(str),
        st.integers(-3, 12).map(str),
        st.floats(-12.0, 12.0).map(repr),
    )


@st.composite
def _scalar_argv(draw):
    """argv of a scalar subcommand; each parameter is missing, any number,
    or, for one instance in three, an instance of a closed-form family with
    mu drawn from the whole float range."""
    command = draw(st.sampled_from(SCALAR_COMMANDS))
    values = {name: draw(st.none() | _number_text()) for name in PARAM_NAMES}
    if draw(st.integers(0, 2)) == 0:
        case = draw(st.sampled_from([SolutionCase.CASE1, SolutionCase.CASE2]))
        n, p = draw(st.integers(5, 12)), draw(st.floats(1.0, 1e6, exclude_min=True))
        mu = draw(st.floats(allow_nan=False, allow_infinity=False))
        alpha = family_alpha(case, n, p)
        try:
            lams = explicit_lambda_branches(case, n, alpha, mu)
        except (DomainError, ValidationError):
            lams = ()
        values = {"n": str(n), "alpha": repr(alpha), "beta": None, "p": repr(p),
                  "lambda": repr(draw(st.sampled_from(lams))) if lams else None,
                  "mu": repr(mu)}
    argv = command + [f"--{name}={text}" for name, text in values.items() if text is not None]
    if command[0] == "sweep":
        name = draw(st.sampled_from(PARAM_NAMES + ("a",)))
        start, stop = draw(_number_text()), draw(_number_text())
        argv.append(f"--vary={name}={start}:{stop}:{draw(st.integers(1, 3))}")
    return argv


# the subcommands that solve with numpy; "verify-manifest" stands for verify
# with a drawn manifest file
NUMPY_COMMANDS = [["orbit"], ["orbit", "--format", "csv"], ["homoclinic"],
                  ["homoclinic", "--format", "csv"], ["verify"], ["verify-manifest"],
                  ["sweep", "orbit"], ["best-constant", "--method", "numerical"]]
MANIFEST_KEYS = ("identity", "function", "n", "alpha", "lambda", "mu")


def _manifest_case(draw):
    """A manifest case: each field missing, of the right kind or not."""
    case = {}
    for key in MANIFEST_KEYS:
        if key == "identity":
            pool = [ident.value for ident in IdentityId]
        elif key == "function":
            pool = list(TEST_FUNCTIONS)
        else:
            pool = [float(x) for x in (-6, -3, -2, -1, 0, 0.5, 1, 2, 6, 7)]
        value = draw(st.none() | st.sampled_from(pool) | st.floats() | st.text(max_size=3)
                     | st.integers(-10 ** 30, 10 ** 30))
        if value is not None:
            case[key] = value
    return case


@st.composite
def _numpy_argv(draw, command):
    """(argv, manifest) of a numpy subcommand.  One instance in two lies in
    the admissible region (n >= 5, -n < alpha < n - 4, p > 1, small lambda
    and mu), with a in (0, l) when l exists and tol in [1e-12, 1e-4] or
    missing; the others, and the command's own flags, are any number or
    missing.  manifest is the JSON document of verify-manifest, else None."""
    if command[0].startswith("verify"):
        argv = ["verify"]
        if draw(st.booleans()):
            argv.append(f"--tolerance={draw(_number_text())}")
        if command != ["verify-manifest"]:
            return argv, None
        argv += ["--manifest", "MANIFEST"]
        if draw(st.booleans()):
            argv.append(f"--T={draw(_number_text())}")
        return argv, {"cases": [_manifest_case(draw) for _ in range(draw(st.integers(0, 3)))]}
    flags = {name: draw(st.none() | _number_text()) for name in PARAM_NAMES + ("a", "tol")}
    if draw(st.booleans()):
        n = draw(st.integers(5, 8))
        alpha = draw(st.floats(-n, n - 4.0, exclude_min=True, exclude_max=True))
        p = draw(st.floats(1.0, 12.0, exclude_min=True))
        lam, mu = draw(st.floats(-4.0, 12.0)), draw(st.floats(-2.0, 4.0))
        flags.update(n=str(n), alpha=repr(alpha), beta=None, p=repr(p), mu=repr(mu),
                     tol=draw(st.none() | st.floats(1e-12, 1e-4).map(repr)))
        flags["lambda"] = repr(lam)
        k0 = k0_value(n, alpha, lam, mu)
        fraction = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        try:
            if k0 > 0.0:
                flags["a"] = repr(fraction * k0 ** (1.0 / (p - 1.0)))
        except OverflowError:  # l past the float range, for p near 1
            pass
    if command[0] not in ("orbit", "sweep"):
        del flags["a"], flags["tol"]
    argv = command + [f"--{name}={text}" for name, text in flags.items() if text is not None]
    if command[0] == "sweep":
        name = draw(st.sampled_from(PARAM_NAMES + ("a",)))
        start, stop = draw(_number_text()), draw(_number_text())
        argv.append(f"--vary={name}={start}:{stop}:{draw(st.integers(1, 3))}")
    if command[0] == "best-constant":
        for flag in ("grid-L", "grid-h"):
            if draw(st.booleans()):
                argv.append(f"--{flag}={draw(_number_text())}")
    return argv, None


def _assert_exit_mapped(argv):
    """main(argv) returns a mapped exit code and writes stdout only on exit 0.

    The minimizer's warning that its profile has not decayed goes to stderr
    as one line, as on the command line; any other warning, numpy's
    included, is an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("always", message="minimizer has boundary contamination")
        code = main(argv)
    assert code in (0, 1, 3, 4, 5), (code, err.getvalue())
    text = out.getvalue()
    if code == 0:
        if "csv" in argv or argv[0] == "sweep":
            assert text.count("\n") >= 2
        else:
            json.loads(text)
    elif code == 3 and argv[0] == "verify" and text:
        # verify writes its report before it fails the tolerance gate
        doc = json.loads(text)
        assert doc["n_ok"] == 0 or doc["worst_rel_err"] > doc["tolerance"]
        assert err.getvalue()
    else:
        assert text == "" and err.getvalue()


class TestArgvProperty:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_scalar_argv())
    # one example per way out of ProblemParams: n not a float, a non-finite
    # alpha, p, lambda, mu or beta, n < 5, alpha outside (-n, n-4), p <= 1, a
    # non-finite beta from the relation, beta off the relation, beta given
    # on it and beta from the relation
    @example(["info", "--n=1" + "0" * 400, "--alpha=0", "--p=5"])
    @example(["info", "--n=6", "--alpha=nan", "--p=5"])
    @example(["explicit", "--n=6", "--alpha=0", "--p=inf"])
    @example(["best-constant", "--n=6", "--alpha=0", "--p=5", "--lambda=-inf"])
    @example(["info", "--n=6", "--alpha=0", "--p=5", "--mu=nan"])
    @example(["info", "--n=6", "--alpha=0", "--p=5", "--beta=inf"])
    @example(["info", "--n=4", "--alpha=0", "--p=5"])
    @example(["info", "--n=6", "--alpha=2", "--p=5"])
    @example(["info", "--n=6", "--alpha=0", "--p=1"])
    @example(["info", "--n=100", "--alpha=0", "--p=1e308"])
    @example(["explicit", "--n=6", "--alpha=0", "--p=5", "--beta=1"])
    @example(["explicit", "--n=6", "--alpha=-4", "--p=5", "--beta=12", "--format", "csv",
              "--curve", "radial"])
    @example(["explicit", "--n=6", "--alpha=0", "--p=5", "--format", "csv"])
    @example(["sweep", "info", "--n=6", "--alpha=0", "--p=5", "--vary=lambda=-1e308:1e308:3"])
    # ((p+1)^2 + 4)^2 in the solvability relation and v^p in the CSV
    # residual overflow a float: validation errors, not an OverflowError
    @example(["explicit", "--n=5", "--alpha=0.0", "--p=1.157920892373162e+77"])
    @example(["explicit", "--n=6", "--alpha=-1.2", "--p=2.0", "--mu=1e+160",
              "--lambda=-2.1666666666666667e+80", "--format", "csv"])
    def test_scalar_commands_map_every_input_to_an_exit_code(self, argv):
        _assert_exit_mapped(argv)

    # each example solves, so the budget is small
    @pytest.mark.parametrize("command", NUMPY_COMMANDS, ids=" ".join)
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_numpy_commands_map_every_input_to_an_exit_code(self, command, data):
        argv, manifest = data.draw(_numpy_argv(command))
        with tempfile.TemporaryDirectory() as tmp:
            if manifest is not None:
                path = os.path.join(tmp, "manifest.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(manifest, fh)
                argv = [path if arg == "MANIFEST" else arg for arg in argv]
            _assert_exit_mapped(argv)


class TestJsonEmission:
    def test_floats_roundtrip_17_digits(self):
        assert jsonio.format_float(1.0 / 3.0) == "0.33333333333333331"
        assert float(jsonio.format_float(math.pi)) == math.pi

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            jsonio.format_float(math.inf)
        with pytest.raises(ValidationError):
            jsonio.format_float(math.nan)

    def test_dumps_preserves_field_order(self):
        assert jsonio.dumps({"b": 1, "a": [True, None]}) == '{"b":1,"a":[true,null]}'

    def test_csv_cell_conventions(self):
        assert jsonio.csv_cell(None) == ""
        assert jsonio.csv_cell(True) == "true"
        assert jsonio.csv_cell(False) == "false"
        assert jsonio.csv_cell(0.5) == "0.5"

    def test_write_csv_uses_lf_endings(self):
        text = jsonio.write_csv(["x", "y"], [[1, 2.0], [3, None]])
        assert text == "x,y\n1,2\n3,\n"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_write_csv_matches_csv_writer(self, data):
        # rows of floats take the template; the rest, csv.writer: same bytes
        width = data.draw(st.integers(0, 4))
        header = ["c"] * width
        floats = st.floats(allow_nan=False, allow_infinity=False)
        cells = st.one_of(floats, st.integers(-10 ** 20, 10 ** 20), st.booleans(), st.none(),
                          st.text(max_size=3))
        rows = data.draw(st.lists(st.one_of(
            st.lists(floats, min_size=width, max_size=width),
            st.tuples(*[floats] * width),
            st.lists(cells, max_size=5)), max_size=4))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([jsonio.csv_cell(c) for c in row])
        assert jsonio.write_csv(header, rows) == buf.getvalue()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 2])
    def test_write_csv_rejects_non_finite_floats(self, bad, where):
        row = [1.0, -0.0, 5e-324]
        row[where] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            jsonio.write_csv(["x", "y", "z"], [[0.5, 0.25, 0.125], row])
