"""The pure-Python sweep grid of ``radial4 sweep --vary`` against numpy.

The grid once came from ``np.linspace`` (and ``np.round`` on the ``n``
axis); sweep output is pinned byte for byte, so the Python grid must give
the same doubles, signed zeros included, and the same usage errors.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radial4 import cli
from radial4.cli import _parse_vary, _UsageError
from radial4.params import _linspace as linspace


def numpy_axis(name, start, stop, count):
    """The axis as the numpy grid gave it: reprs of its values, or an error tag."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(start, stop, count)
    if not np.all(np.isfinite(values)):
        return "non-finite"
    if name == "n":
        ints = np.round(values)
        if np.any(np.abs(ints - values) > 1e-9):
            return "non-integer"
        values = ints
    return [repr(float(v)) for v in values]


def python_axis(name, start, stop, count):
    try:
        [(axis, values)] = _parse_vary([f"{name}={start!r}:{stop!r}:{count}"])
    except _UsageError as exc:
        return "non-finite" if "non-finite" in str(exc) else "non-integer"
    assert axis == name
    assert all(type(v) is float for v in values)
    return [repr(v) for v in values]


any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
near_integer = st.integers(-20, 20).map(float) | st.floats(-20.0, 20.0)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(name=st.sampled_from(["mu", "lambda", "n"]), start=any_float, stop=any_float,
       count=st.integers(1, 40))
@example(name="mu", start=2.0, stop=5.0, count=1)
@example(name="mu", start=3.0, stop=-1.0, count=5)
@example(name="mu", start=0.7, stop=0.7, count=4)
@example(name="mu", start=0.0, stop=5e-324, count=3)
@example(name="mu", start=-5e-324, stop=0.0, count=7)
@example(name="mu", start=-1e308, stop=1e308, count=3)
@example(name="mu", start=-1e308, stop=1e308, count=1)
@example(name="mu", start=0.1, stop=0.3, count=31)
def test_grid_matches_numpy_linspace(name, start, stop, count):
    assert python_axis(name, start, stop, count) == numpy_axis(name, start, stop, count)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(start=near_integer, stop=near_integer, count=st.integers(1, 12))
@example(start=5.0, stop=9.0, count=5)
@example(start=9.0, stop=5.0, count=3)
@example(start=-1e-10, stop=1e-10, count=1)
@example(start=-0.4, stop=0.0, count=1)
@example(start=5.0, stop=6.0, count=3)
def test_n_axis_rounds_like_numpy(start, stop, count):
    assert python_axis("n", start, stop, count) == numpy_axis("n", start, stop, count)


def test_n_axis_keeps_the_sign_of_zero():
    [(_, values)] = _parse_vary(["n=-1e-10:1e-10:1"])
    assert values == [0.0] and math.copysign(1.0, values[0]) == -1.0


@pytest.mark.parametrize("spec, message", [
    ("mu=-1e308:1e308:3", "non-finite grid values"),
    ("mu=0:inf:2", "non-finite grid values"),
    ("n=5:6:3", "integer grid values"),
    ("lambda=0:1:20000", "sweep grid has 20000 points, exceeding the cap of 10000"),
])
def test_grid_usage_errors(spec, message):
    with pytest.raises(_UsageError, match=message):
        _parse_vary([spec])


def test_axis_over_the_cap_is_refused_unbuilt(monkeypatch):
    def build(start, stop, num):
        assert num <= 10_000, "an axis over the cap was built"
        return linspace(start, stop, num)

    monkeypatch.setattr(cli, "_linspace", build)
    # the cap counts both axes, though the first is never built
    with pytest.raises(_UsageError, match="has 3000000 points"):
        _parse_vary(["lambda=0:1:1000000", "mu=0:1:3"])
