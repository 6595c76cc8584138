"""The names ``perfbench/tracer.py`` wraps still exist where it looks them up.

The tracer replaces each traced function at its module attribute and each
traced method in its class ``__dict__``, and its hooks read some arguments
by position or name.  A rename or signature change in ``cavnet`` would
break the benchmark's traced runs, which this suite does not otherwise run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from cavnet import dynamics, qla

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name, module, attr", tracer.SPANS, ids=[s[0] for s in tracer.SPANS])
def test_span_binding_is_callable(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("name, module, cls, attr", tracer.CLASS_SPANS, ids=[s[0] for s in tracer.CLASS_SPANS])
def test_class_span_binding_in_class_dict(name, module, cls, attr):
    assert attr in vars(getattr(importlib.import_module(module), cls))


def test_arguments_the_hooks_read():
    # The generator is args[1] or chain_spec; the operator is args[1] or op
    # (args[0] is the instance).
    assert list(inspect.signature(dynamics.evolve_factorized).parameters) == ["rho0", "chain_spec", "sample_times"]
    assert list(inspect.signature(qla.DensityMatrix.__init__).parameters) == ["self", "op"]
