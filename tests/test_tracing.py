"""The benchmark tracer's hooks: perfbench/tracing.py wraps driftplan's
functions and methods by name, so each traced name must be defined on the
owner that the tracer patches, not only inherited or imported elsewhere."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_defined_on_their_owners():
    missing = [(name, getattr(owner, "__name__", owner), attr)
               for name, owners, attr, _ in _tracing().TRACED
               for owner in owners if attr not in vars(owner)]
    assert missing == []
