"""Time evolution of the master equation by exact propagation on a uniform grid.

The generator is time independent, so a state evolves as
vec(rho(t)) = exp(L t) vec(rho(0)), with L the Liouvillian acting on
row-major vectorized density matrices.  Samples lie on one uniform grid,
so a single propagator S = exp(L dt), a dense scaling-and-squaring
exponential (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)),
carries every trajectory from one sample to the next; no integrator or
step control is involved.  ``evolve`` steps v <- S v on one register.

``evolve_factorized`` exploits the fact that the two chains never couple:
the 64x64 one-chain propagator acts on both chain slots, turning one
4096-dimensional problem into a 64-dimensional one.  The test suite checks
it against a sparse evolution of the full network generator, which lives
with the other oracles in ``tests/oracles.py``.  Every sample's trace is
renormalized under the fixed guard ``TRACE_GUARD``, so numerical faults
surface as errors instead of drifting silently; the renormalized sample is
then validated against the same thresholds as every other
``DensityMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .davies import GeneratorSpec
from .qla import DensityMatrix, Operator

__all__ = [
    "TRACE_GUARD",
    "Trajectory",
    "TraceDriftError",
    "evolve",
    "evolve_factorized",
    "sample_grid",
]

# Largest |tr rho - 1| a propagated sample may show before it is
# renormalized; propagation is exact, so a larger drift is a fault.
TRACE_GUARD = 1e-7


class TraceDriftError(RuntimeError):
    """Trace left the guard band during propagation."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled density matrices with times in both ns and lambda*t."""

    times_ns: np.ndarray
    times_lambda: np.ndarray
    states: tuple[DensityMatrix, ...]

    def __len__(self) -> int:
        return len(self.states)


def _liouvillian(spec: GeneratorSpec) -> np.ndarray:
    """Generator matrix on row-major vectorized states.

    With vec(A X B) = (A (x) B^T) vec(X) and G = -iH - 1/2 sum_c A_c^dag A_c,
    L = G (x) I + I (x) conj(G) + sum_c A_c (x) conj(A_c).
    """
    eye = np.eye(spec.dim)
    jumps = [np.sqrt(ch.rate) * ch.jump.matrix for ch in spec.channels]
    g = -1j * spec.hamiltonian.matrix
    for a in jumps:
        g = g - 0.5 * a.conj().T @ a
    out = np.kron(g, eye) + np.kron(eye, g.conj())
    for a in jumps:
        out += np.kron(a, a.conj())
    return out


def _propagator(spec: GeneratorSpec, step: float) -> np.ndarray:
    """S = exp(L step), the map of vectorized states over one grid step."""
    return scipy.linalg.expm(_liouvillian(spec) * step)


def _sample_state(m: np.ndarray, dims, time_lambda: float) -> DensityMatrix:
    """Renormalize one propagated sample under the trace guard."""
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_GUARD:
        raise TraceDriftError(f"trace drifted to {tr:.12g} at lambda*t = {time_lambda:.6g} (guard {TRACE_GUARD:g})")
    # Scaling by the reciprocal avoids a complex division per entry, which
    # measured several times slower in a fresh process.
    return DensityMatrix(Operator(m * (1.0 / tr), dims))


def _validate_sample_times(sample_times) -> tuple[np.ndarray, float]:
    """The sample times as a float array, and the step of their uniform grid.

    Steps equal to within the round-off of the largest time count as one,
    so any ``linspace`` grid passes.  A single sample has step 0.
    """
    t = np.asarray(sample_times, dtype=float).reshape(-1)
    if t.size == 0:
        raise ValueError("need at least one sample time")
    if abs(t[0]) > 1e-15:
        raise ValueError("sample times must start at 0")
    steps = np.diff(t)
    if np.any(steps <= 0):
        raise ValueError("sample times must strictly increase")
    step = t[-1] / (t.size - 1) if t.size > 1 else 0.0
    if np.any(np.abs(steps - step) > 8.0 * np.finfo(float).eps * t[-1]):
        raise ValueError("sample times must be uniformly spaced")
    return t, step


def sample_grid(t_max_lambda: float, samples: int, lambda_scale: float) -> np.ndarray:
    """Uniform sample times in ns covering [0, t_max_lambda] in lambda*t."""
    if samples < 2:
        raise ValueError("need at least two samples")
    return np.linspace(0.0, t_max_lambda / lambda_scale, samples)


def _stepped(t: np.ndarray, lambda_scale: float, dims, x: np.ndarray, advance, view) -> Trajectory:
    """Sample ``view(x)`` at t[0], then once after each ``x <- advance(x)`` grid step."""
    states = [_sample_state(view(x), dims, 0.0)]
    for k in range(1, t.size):
        x = advance(x)
        states.append(_sample_state(view(x), dims, t[k] * lambda_scale))
    return Trajectory(t, t * lambda_scale, tuple(states))


def evolve(rho0: DensityMatrix, spec: GeneratorSpec, sample_times) -> Trajectory:
    """Propagate the master equation and sample on a uniform grid of times (ns)."""
    t, step = _validate_sample_times(sample_times)
    if rho0.dim != spec.dim:
        raise ValueError(f"state dimension {rho0.dim} does not match generator {spec.dim}")
    s = _propagator(spec, step)
    d = rho0.dim
    v = rho0.matrix.reshape(-1).astype(complex)
    return _stepped(t, spec.lambda_scale, rho0.dims, v, lambda v: s @ v, lambda v: v.reshape(d, d))


def evolve_factorized(rho0: DensityMatrix, chain_spec: GeneratorSpec, sample_times) -> Trajectory:
    """Evolve a two-chain state by applying the one-chain map to both slots.

    With rho regrouped as M[(i j), (k l)] = rho[(i k), (j l)], chain 1 on
    (i, j) and chain 2 on (k, l), one step of length dt is M <- S M S^T with
    S = exp(L_chain dt).
    """
    t, step = _validate_sample_times(sample_times)
    d = chain_spec.dim
    if d * d != rho0.dim:
        raise ValueError(f"generator dimension {d} does not match state dimension {rho0.dim}")
    s = _propagator(chain_spec, step)

    def regroup(m: np.ndarray) -> np.ndarray:  # an involution
        return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)

    m = regroup(rho0.matrix.astype(complex))
    return _stepped(t, chain_spec.lambda_scale, rho0.dims, m, lambda m: s @ m @ s.T, regroup)
