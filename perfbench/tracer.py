"""Spans and counts around cavnet's public functions, from outside the package.

``Tracer.install`` replaces each traced name at the binding its callers look
up, so calls made inside cavnet are seen as well: module attributes are
read at call time, ``DensityMatrix`` and ``Table`` are patched on the class,
and ``build_initial_state`` is patched at ``cavnet.runner``, which imported
the name.  Nothing under ``src/`` knows about the tracer.

Each span's self time is its duration minus the time covered by its child
spans.  Per-name totals are kept in memory and summarised once at the end.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import defaultdict

# Public functions traced, as (layer name, module, attribute).  The layer
# name is the metric prefix; the module is where callers resolve the name.
SPANS = (
    ("davies.chain_generator", "cavnet.davies", "chain_generator"),
    ("model.build_initial_state", "cavnet.runner", "build_initial_state"),
    ("dynamics.evolve_factorized", "cavnet.dynamics", "evolve_factorized"),
    ("dynamics.evolve", "cavnet.dynamics", "evolve"),
    ("qla.partial_trace", "cavnet.qla", "partial_trace"),
    ("qla.von_neumann_entropy", "cavnet.qla", "von_neumann_entropy"),
    ("correlations.pair_state", "cavnet.correlations", "pair_state"),
    ("correlations.concurrence", "cavnet.correlations", "concurrence"),
    ("correlations.mutual_information", "cavnet.correlations", "mutual_information"),
    ("correlations.classical_correlation", "cavnet.correlations", "classical_correlation"),
    ("correlations.quantum_discord", "cavnet.correlations", "quantum_discord"),
    ("correlations.delta_fanchini", "cavnet.correlations", "delta_fanchini"),
    ("correlations.one_tangle", "cavnet.correlations", "one_tangle"),
    ("correlations.tangle_pure", "cavnet.correlations", "tangle_pure"),
    ("correlations.tangle_bounds", "cavnet.correlations", "tangle_bounds"),
    ("correlations.minimize", "cavnet.correlations", "minimize"),
    ("runner.run_scenario", "cavnet.runner", "run_scenario"),
    ("runner.transmission_details", "cavnet.runner", "transmission_details"),
    ("runner.peak_sequence", "cavnet.runner", "peak_sequence"),
)
CLASS_SPANS = (
    ("qla.DensityMatrix", "cavnet.qla", "DensityMatrix", "__init__"),
    ("runner.Table.to_csv", "cavnet.runner", "Table", "to_csv"),
)
SPAN_NAMES = tuple(s[0] for s in SPANS + CLASS_SPANS)
COUNT_NAMES = ("davies.channels", "dynamics.samples", "correlations.minimize.nfev")

# Entries of a 4x4 two-qubit matrix outside the diagonal and anti-diagonal.
_OFF_X = tuple((i, j) for i in range(4) for j in range(4) if j != i and j != 3 - i)
X_ATOL = 1e-12


def _generator_key(chain, times) -> str:
    digest = hashlib.sha1(chain.hamiltonian.matrix.tobytes())
    for ch in chain.channels:
        digest.update(ch.jump.matrix.tobytes())
        digest.update(repr(ch.rate).encode())
    digest.update(repr(chain.lambda_scale).encode())
    digest.update(bytes(memoryview(times)))
    return digest.hexdigest()


class Tracer:
    """Aggregated spans: calls, total and self seconds per traced name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.validation = defaultdict(lambda: [0, 0.0])  # dim -> [calls, self s]
        self.counts = defaultdict(int)
        self.cold_s = 0.0
        self.warm_s = 0.0
        self.x_states = 0
        self._children = []  # child-span seconds, one slot per open span
        self._seen = set()
        self._restore = []

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                duration = time.perf_counter() - start
                own = duration - self._children.pop()
                self.calls[name] += 1
                self.self_s[name] += own
                self.total_s[name] += duration
                if done and after is not None:
                    after(result, args, kwargs, own)
                if self._children:
                    # The parent's child time includes this hook's bookkeeping,
                    # so tracer cost lands in no layer's self time.
                    self._children[-1] += time.perf_counter() - start
            return result

        return traced

    def _after_generator(self, spec, args, kwargs, own):
        self.counts["davies.channels"] += len(spec.channels)

    def _after_factorized(self, traj, args, kwargs, own):
        self.counts["dynamics.samples"] += len(traj)
        chain = args[1] if len(args) > 1 else kwargs["chain_spec"]
        key = _generator_key(chain, traj.times_ns)
        if key in self._seen:
            self.warm_s += own
        else:
            self._seen.add(key)
            self.cold_s += own

    def _after_evolve(self, traj, args, kwargs, own):
        self.counts["dynamics.samples"] += len(traj)

    def _after_pair_state(self, rho, args, kwargs, own):
        m = rho.matrix
        if max(abs(m[i, j]) for i, j in _OFF_X) <= X_ATOL:
            self.x_states += 1

    def _after_density(self, _, args, kwargs, own):
        op = args[1] if len(args) > 1 else kwargs["op"]  # args[0] is the instance
        entry = self.validation[op.dim]
        entry[0] += 1
        entry[1] += own

    def _after_minimize(self, res, args, kwargs, own):
        self.counts["correlations.minimize.nfev"] += int(res.nfev)

    def install(self) -> None:
        import importlib

        after = {
            "davies.chain_generator": self._after_generator,
            "dynamics.evolve_factorized": self._after_factorized,
            "dynamics.evolve": self._after_evolve,
            "correlations.pair_state": self._after_pair_state,
            "correlations.minimize": self._after_minimize,
            "qla.DensityMatrix": self._after_density,
        }
        for name, module, attr in SPANS:
            target = importlib.import_module(module)
            original = getattr(target, attr)
            self._restore.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, after.get(name)))
        for name, module, cls, attr in CLASS_SPANS:
            target = getattr(importlib.import_module(module), cls)
            original = target.__dict__[attr]
            self._restore.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, after.get(name)))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def summary(self) -> dict:
        """Per-layer metrics: ``<name>.calls`` and ``<name>.self_s`` plus counts."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["dynamics.evolve_factorized.cold_s"] = self.cold_s
        out["dynamics.evolve_factorized.warm_s"] = self.warm_s
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        pairs = self.calls["correlations.pair_state"]
        out["correlations.pair_state.x_share"] = self.x_states / pairs if pairs else 0.0
        return out

    def per_call_ms(self) -> dict:
        """Inclusive milliseconds per call, and DensityMatrix validation by dimension."""
        out = {name: 1e3 * self.total_s[name] / self.calls[name] for name in SPAN_NAMES if self.calls[name]}
        for dim, (calls, seconds) in sorted(self.validation.items()):
            out[f"qla.DensityMatrix[dim={dim}]"] = 1e3 * seconds / calls
        return out
