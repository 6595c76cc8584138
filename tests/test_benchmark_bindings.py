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

import numpy as np
import pytest

from cavnet import correlations, davies, dynamics, model, qla

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


def test_arguments_the_hooks_read(monkeypatch):
    # The generator is args[1] or chain_spec; the operator is args[1] or op
    # (args[0] is the instance).
    assert list(inspect.signature(dynamics.evolve_factorized).parameters) == ["rho0", "chain_spec", "sample_times"]
    assert list(inspect.signature(qla.DensityMatrix.__init__).parameters) == ["self", "op"]
    # The evolver hooks count samples with len(traj) and hash the raw bytes
    # of traj.times_ns through memoryview, so it must be a C-contiguous
    # float array.
    cfg = model.NetworkConfig()
    chain = davies.chain_generator(cfg)
    times = dynamics.sample_grid(1.0, 3, chain.lambda_scale)
    for evolve, kind in ((dynamics.evolve, "psi1_chain"), (dynamics.evolve_factorized, "psi_a")):
        traj = evolve(model.build_initial_state(model.InitialStateSpec(kind), cfg), chain, times)
        assert len(traj) == 3
        assert isinstance(traj.times_ns, np.ndarray) and traj.times_ns.dtype == np.float64
        assert traj.times_ns.flags.c_contiguous
        assert bytes(memoryview(traj.times_ns)) == times.tobytes()
    # The minimize hook adds int(res.nfev) for every call, on both discord
    # paths.
    results = []
    minimize = correlations.minimize

    def spy(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(correlations, "minimize", spy)
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    general = g @ g.conj().T
    x_form = np.where(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1], general, 0.0)
    for m in (x_form, general):
        correlations.quantum_discord(qla.density(m / np.trace(m).real, (2, 2)))
    assert len(results) == 2
    assert all(type(res.nfev) is int and res.nfev > 0 for res in results)
