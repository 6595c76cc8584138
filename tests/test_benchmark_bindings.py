"""The names ``perfbench/tracer.py`` wraps still exist where it looks them up.

The tracer replaces each traced function at its module attribute and each
traced method in its class ``__dict__``, and its hooks read some arguments
by position or name.  A rename or signature change in ``cavnet`` would
break the benchmark's traced runs, which this suite does not otherwise run.
The benchmark's self-check also requires named spans to fire on each
workload; a one-point run of every workload checks that here, so a change
that silences a span fails this suite and not only a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from cavnet import correlations, davies, dynamics, model, qla, runner

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A ``perfbench`` module, imported by path with its siblings importable as it expects."""
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for sibling in set(sys.modules) - before:
            if (PERFBENCH / f"{sibling}.py").exists():
                del sys.modules[sibling]
    return module


tracer = _load("tracer")


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
    # The pair_state hook reads the eight off-X entries of a 4x4 .matrix, for
    # either member order.
    rho = model.build_initial_state(model.InitialStateSpec("psi_b"), cfg)
    for pair in (correlations.PairSelector(2, 5), correlations.PairSelector(5, 2)):
        m = correlations.pair_state(rho, pair).matrix
        assert isinstance(m, np.ndarray) and m.shape == (4, 4)
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


def test_expected_spans_fire_on_one_point_per_figure():
    """Every span ``run.EXPECTED_SPANS`` names fires, and ``SILENT_PREFIXES`` stay silent.

    Each figure workload runs the first operation the benchmark draws for
    each of its figures at a few samples; ``discord_general`` runs one state.
    """
    run, worker, workloads = _load("run"), _load("worker"), _load("workloads")
    cfg = model.NetworkConfig()
    for workload, expected in run.EXPECTED_SPANS.items():
        if workload == "discord_general":
            ops = workloads.operations(workload, seed=0, samples={"states": 1})
            points = [lambda data=data: worker._general_op(*data) for data in worker._general_inputs(ops)]
        else:
            firsts = {}
            for op in workloads.operations(workload, seed=0, samples={"default": 5}):
                firsts.setdefault(op["figure"], op)
            assert set(firsts) == set(workloads.WORKLOADS[workload])
            points = [lambda op=op: worker._figure_op(runner, cfg, op) for op in firsts.values()]
        traced = tracer.Tracer()
        traced.install()
        try:
            for point in points:
                point()
        finally:
            traced.uninstall()
        calls = traced.summary()
        assert [name for name in expected if calls[f"{name}.calls"] < 1] == [], workload
        silent = run.SILENT_PREFIXES.get(workload, ())
        assert [name for name in tracer.SPAN_NAMES if name.startswith(silent) and calls[f"{name}.calls"]] == []
