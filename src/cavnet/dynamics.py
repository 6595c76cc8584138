"""Time evolution of the master equation by exact propagation.

The generator is time independent, so a state evolves as
vec(rho(t)) = exp(L t) vec(rho(0)), with L the Liouvillian acting on
row-major vectorized density matrices.  No integrator or step control is
involved: ``evolve`` applies the action of the exponential over the sample
grid (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)) and
``evolve_factorized`` steps with one scaling-and-squaring exponential per
distinct time step (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
(2009)).

``evolve_factorized`` exploits the fact that the two chains never couple:
the 64x64 one-chain propagator acts on both chain slots, turning one
4096-dimensional problem into a 64-dimensional one.  Its output is
oracle-checked against ``evolve`` on the network generator in the test
suite.  Every sample is re-symmetrized and its trace renormalized under the
fixed guard ``TRACE_GUARD``, so numerical faults surface as errors instead
of drifting silently; the renormalized sample is then validated against
the same thresholds as every other ``DensityMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

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

# Eigenprojector sandwiches leave round-off of about 1e-15 where a Davies
# jump vanishes; entries this far below the largest one are dropped so that
# the 4096-dimensional network Liouvillian stays sparse.
_JUMP_CHOP_RTOL = 1e-12

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

    def __post_init__(self):
        t = np.asarray(self.times_ns, dtype=float)
        if t.size != len(self.states):
            raise ValueError("one state per sample time required")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("sample times must strictly increase")
        object.__setattr__(self, "times_ns", t)
        object.__setattr__(self, "times_lambda", np.asarray(self.times_lambda, dtype=float))
        object.__setattr__(self, "states", tuple(self.states))

    def __len__(self) -> int:
        return len(self.states)


def _kron_entries(x: np.ndarray, y: np.ndarray):
    """Row, column and value arrays of the entries of kron(x, y) that both factors make nonzero."""
    xi, xj = np.nonzero(x)
    yi, yj = np.nonzero(y)
    d = y.shape[0]
    rows = (xi[:, None] * d + yi).ravel()
    cols = (xj[:, None] * d + yj).ravel()
    vals = (x[xi, xj][:, None] * y[yi, yj]).ravel()
    return rows, cols, vals


def _liouvillian(spec: GeneratorSpec) -> sparse.csr_matrix:
    """Generator matrix on row-major vectorized states.

    With vec(A X B) = (A (x) B^T) vec(X) and G = -iH - 1/2 sum_c A_c^dag A_c,
    L = G (x) I + I (x) conj(G) + sum_c A_c (x) conj(A_c).  Each Kronecker
    term contributes the index and value arrays of its nonzero entries, and
    one COO build sums them; entries that cancel exactly are dropped, so
    only true nonzeros are stored.
    """
    d = spec.dim
    eye = np.eye(d)
    g = -1j * spec.hamiltonian.matrix
    jumps = []
    for ch in spec.channels:
        a = np.sqrt(ch.rate) * ch.jump.matrix
        a = np.where(np.abs(a) > _JUMP_CHOP_RTOL * np.abs(a).max(), a, 0.0)
        g = g - 0.5 * a.conj().T @ a
        jumps.append(a)
    terms = [_kron_entries(g, eye), _kron_entries(eye, g.conj())]
    terms += [_kron_entries(a, a.conj()) for a in jumps]
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*terms))
    out = sparse.coo_matrix((vals, (rows, cols)), shape=(d * d, d * d)).tocsr()
    out.eliminate_zeros()
    return out


def _uniform_runs(t: np.ndarray):
    """Split a sample grid into maximal runs of equal steps.

    Yields (first, last, step): samples first..last are ``step`` apart.
    Steps equal to within the round-off of the largest time count as one,
    so a ``linspace`` grid is a single run.
    """
    steps = np.diff(t)
    atol = 8.0 * np.finfo(float).eps * t[-1]
    first = 0
    while first < steps.size:
        last = first + 1
        while last < steps.size and abs(steps[last] - steps[first]) <= atol:
            last += 1
        yield first, last, (t[last] - t[first]) / (last - first)
        first = last


def _sample_state(m: np.ndarray, dims, time_lambda: float) -> DensityMatrix:
    """Symmetrize one propagated sample and renormalize it under the trace guard."""
    m = (m + m.conj().T) / 2.0
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_GUARD:
        raise TraceDriftError(f"trace drifted to {tr:.12g} at lambda*t = {time_lambda:.6g} (guard {TRACE_GUARD:g})")
    return DensityMatrix(Operator(m / tr, dims))


def _validate_sample_times(sample_times) -> np.ndarray:
    t = np.asarray(sample_times, dtype=float).reshape(-1)
    if t.size == 0:
        raise ValueError("need at least one sample time")
    if abs(t[0]) > 1e-15:
        raise ValueError("sample times must start at 0")
    if np.any(np.diff(t) <= 0):
        raise ValueError("sample times must strictly increase")
    return t


def sample_grid(t_max_lambda: float, samples: int, lambda_scale: float) -> np.ndarray:
    """Uniform sample times in ns covering [0, t_max_lambda] in lambda*t."""
    if samples < 2:
        raise ValueError("need at least two samples")
    return np.linspace(0.0, t_max_lambda / lambda_scale, samples)


def evolve(rho0: DensityMatrix, spec: GeneratorSpec, sample_times) -> Trajectory:
    """Propagate the master equation and sample at the requested times (ns)."""
    t = _validate_sample_times(sample_times)
    if rho0.dim != spec.dim:
        raise ValueError(f"state dimension {rho0.dim} does not match generator {spec.dim}")
    liouvillian = _liouvillian(spec)
    d = rho0.dim
    v = rho0.matrix.reshape(-1).astype(complex)
    states = [_sample_state(v.reshape(d, d), rho0.dims, 0.0)]
    for first, last, step in _uniform_runs(t):
        n = last - first
        run = expm_multiply(liouvillian, v, start=0.0, stop=step * n, num=n + 1, endpoint=True)
        for k, vec in zip(range(first + 1, last + 1), run[1:]):
            states.append(_sample_state(vec.reshape(d, d), rho0.dims, t[k] * spec.lambda_scale))
        v = run[-1]
    return Trajectory(t, t * spec.lambda_scale, tuple(states))


def evolve_factorized(rho0: DensityMatrix, chain_spec: GeneratorSpec, sample_times) -> Trajectory:
    """Evolve a two-chain state by applying the one-chain map to both slots.

    With rho regrouped as M[(i j), (k l)] = rho[(i k), (j l)], chain 1 on
    (i, j) and chain 2 on (k, l), one step of length dt is M <- S M S^T with
    S = exp(L_chain dt).
    """
    t = _validate_sample_times(sample_times)
    d = chain_spec.dim
    if d * d != rho0.dim:
        raise ValueError(f"generator dimension {d} does not match state dimension {rho0.dim}")
    liouvillian = _liouvillian(chain_spec).toarray()

    def regroup(m: np.ndarray) -> np.ndarray:  # an involution
        return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)

    def sample(m: np.ndarray, k: int) -> DensityMatrix:
        return _sample_state(regroup(m), rho0.dims, t[k] * chain_spec.lambda_scale)

    m = regroup(rho0.matrix.astype(complex))
    states = [sample(m, 0)]
    propagators: dict[float, np.ndarray] = {}
    for first, last, step in _uniform_runs(t):
        if step not in propagators:
            propagators[step] = scipy.linalg.expm(liouvillian * step)
        s = propagators[step]
        for k in range(first + 1, last + 1):
            m = s @ m @ s.T
            states.append(sample(m, k))
    return Trajectory(t, t * chain_spec.lambda_scale, tuple(states))
