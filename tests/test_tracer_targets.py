"""Every function the benchmark tracer wraps still exists.

A target that has gone is reported by ``perfbench/tracer.py`` as absent, and
the metrics built on it read null, so a rename or deletion in the package
breaks traced benchmark runs without failing any other test.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def tracer_targets():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        return importlib.import_module("tracer").TARGETS


@pytest.mark.parametrize("module, name", [(m, n) for m, n, _ in tracer_targets()])
def test_tracer_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))
