"""Time evolution of the master equation by exact propagation on a uniform grid.

The generator is time independent, so a state evolves as
vec(rho(t)) = exp(L t) vec(rho(0)), with L the Liouvillian acting on
row-major vectorized density matrices.  Samples lie on one uniform grid,
so a single propagator S = exp(L dt), a dense [13/13] Pade
scaling-and-squaring exponential (Higham, SIAM J. Matrix Anal. Appl. 26,
1179 (2005)), carries every trajectory from one sample to the next; no
integrator or step control is involved.  L depends on the generator
alone, so it is built once per generator, as the generators themselves
are, and shared read-only by every trajectory.

One block stepper serves both evolvers.  It lays the flattened state out
as a matrix M and steps M <- S_row M S_col^T with one map per slot:
``evolve`` has one slot, M = vec(rho) as a column and S_col = [[1]];
``evolve_factorized`` has two, since the chains never couple, and applies
the 64x64 one-chain propagator to both, turning one 4096-dimensional
problem into a 64-dimensional one.  The test suite checks it against a
sparse evolution of the full network generator, which lives with the
other oracles in ``tests/oracles.py``.  Only the block of rows and columns
that the exact zeros of L let the initial state reach is exponentiated and
stepped: 10 of 64 entries on fig9's chain states, 16 of 64 rows and columns
on a two-chain figure state, and all on a dense one; a block both slots
share is exponentiated once.  Traces are checked
against the fixed guard ``TRACE_GUARD`` before renormalizing, so faults
surface as errors instead of drifting silently.  The block is then
scattered once into the samples on their support, the rows and columns it
touches, and that one stack is the ``Trajectory``'s stored form: it is
validated by the function that validates every ``DensityMatrix``, partial
traces of every sample are read from it in one checked stack, and the
samples become 64x64 states only when a measure reads them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .davies import GENERATOR_CACHE_SIZE, GeneratorSpec
from .qla import DensityMatrix, _first_invalid, _reduce, _wrap_checked

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


# Samples scattered into full matrices at once; one array per trajectory raises peak RSS.
_CHUNK = 16


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Samples of one evolution of ``initial``, at times in ns and lambda*t.

    Sample k is zero outside the rows and columns ``support``, ascending,
    and ``samples[k]`` is its ``support x support`` submatrix.  The samples
    are read-only and renormalized, and every one has passed
    ``_first_invalid``.  ``reduced`` reads partial traces straight from
    them; ``states`` builds them as states on first read, in read-only
    chunks of ``_CHUNK``, without checking them again.
    """

    times_ns: np.ndarray
    times_lambda: np.ndarray
    initial: DensityMatrix
    support: np.ndarray
    samples: np.ndarray

    @property
    def dims(self) -> tuple[int, ...]:
        return self.initial.dims

    def __len__(self) -> int:
        return self.times_ns.size

    @functools.cached_property
    def states(self) -> tuple[DensityMatrix, ...]:
        d, n = self.initial.dim, len(self)
        at = self._flat_support()
        states = []
        for k in range(0, n, _CHUNK):
            chunk = np.zeros((min(_CHUNK, n - k), d, d), dtype=complex)
            chunk.reshape(len(chunk), d * d)[:, at] = self.samples[k : k + _CHUNK].reshape(len(chunk), -1)
            chunk.setflags(write=False)
            states += _wrap_checked(chunk, self.dims)
        return tuple(states)

    def reduced(self, keeps) -> np.ndarray:
        """Read-only (sample, keep, row, column) stack of every sample's ``qla.partial_trace`` onto each of ``keeps``.

        The keeps must keep subsystems of the same dims.  The whole stack is
        checked by one ``_first_invalid``, and the first invalid reduction
        raises the message ``partial_trace`` raises for it, naming its sample.
        """
        keeps = tuple(map(tuple, keeps))
        n, size = len(self), self.support.size**2
        # Column ``size`` is zero: every entry outside the support reads it.
        flat = np.zeros((n, size + 1), dtype=complex)
        flat[:, :size] = self.samples.reshape(n, size)
        positions = np.full(self.initial.dim**2, size)
        positions[self._flat_support()] = np.arange(size)
        stack = _reduce(flat, self.dims, keeps, positions)
        if failure := _first_invalid(stack.reshape(-1, *stack.shape[2:])):
            raise self._rejection(failure[0] // len(keeps), failure[1])
        return stack

    def _flat_support(self) -> np.ndarray:
        """Flat index, in a row-major flattened sample, of each entry of ``samples[k]``, in its row-major order."""
        return (self.support[:, None] * self.initial.dim + self.support).reshape(-1)

    def _rejection(self, k: int, why: str) -> ValueError:
        return ValueError(f"sample {k} at lambda*t = {self.times_lambda[k]:.6g}: {why}")


@functools.lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _liouvillian(spec: GeneratorSpec) -> np.ndarray:
    """Read-only generator matrix on row-major vectorized states.

    With vec(A X B) = (A (x) B^T) vec(X) and G = -iH - 1/2 sum_c A_c^dag A_c,
    L = G (x) I + I (x) conj(G) + sum_c A_c (x) conj(A_c).  Built once per
    generator: ``davies.chain_generator`` shares one frozen, hashable spec
    per configuration, so every trajectory of it reads the same matrix.
    """
    eye = np.eye(spec.dim)
    jumps = [np.sqrt(ch.rate) * ch.jump.matrix for ch in spec.channels]
    g = -1j * spec.hamiltonian.matrix
    for a in jumps:
        g = g - 0.5 * a.conj().T @ a
    out = np.kron(g, eye) + np.kron(eye, g.conj())
    for a in jumps:
        out += np.kron(a, a.conj())
    out.setflags(write=False)
    return out


# Pade coefficients b_0..b_13 of the [13/13] approximant of exp, and the
# largest 1-norm theta_13 for which it meets double precision (Higham 2005,
# Table 2.3).
_THETA_13 = 5.371920351148152
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by [13/13] Pade scaling and squaring (Higham 2005, Alg. 2.3).

    Past theta_13 the matrix is halved s times before the approximant and
    the result squared s times.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    # Tested before the logarithm, which a zero step (one sample) would not survive.
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    a = a * 2.0**-s
    b = _PADE_13
    powers = [np.eye(a.shape[0], dtype=a.dtype), a @ a]
    while len(powers) < len(b) // 2:
        powers.append(powers[-1] @ powers[1])
    u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
    v = sum(b[2 * k] * p for k, p in enumerate(powers))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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


def _reachable(linked: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Ascending indices of the closure J <- J | {i : linked[i, J] != 0} of the mask ``live``.

    ``linked`` is a generator, a propagator or the nonzero pattern of one.
    """
    while True:
        grown = live | linked[:, live].any(axis=1)
        if np.array_equal(grown, live):
            return np.flatnonzero(live)
        live = grown


def _block_trajectory(rho0: DensityMatrix, t, step: float, lambda_scale: float, l_row, l_col, at) -> Trajectory:
    """Sample rho0 at t[0], then after each step M_RC <- S_RR M_RC S_CC^T.

    M[a, b] is entry ``at[a, b]`` of the flattened rho0.  ``l_row`` and
    ``l_col`` are the slots' generators, and R and C the closures of M's
    nonzero rows and columns under the exact zeros of the same generators,
    one pattern per distinct generator.  Each is invariant under its
    generator, so S_RR = exp(L_row[R, R] step), and likewise S_CC, is the
    propagator's block exactly, and every entry outside M_RC stays zero.
    When both slots share the generator and R = C, S_RR serves as S_CC.
    Each step runs in place, through one scratch block.
    """
    m = rho0.matrix.reshape(-1)[at]
    linked_row = l_row != 0
    linked_col = linked_row if l_col is l_row else l_col != 0
    r, c = _reachable(linked_row, m.any(axis=1)), _reachable(linked_col, m.any(axis=0))
    s_rr = _expm(l_row[np.ix_(r, r)] * step)
    s_cc = s_rr if l_col is l_row and np.array_equal(r, c) else _expm(l_col[np.ix_(c, c)] * step)
    blocks = np.empty((t.size, r.size, c.size), dtype=complex)
    blocks[0] = m[np.ix_(r, c)]
    half, s_cc_t = np.empty((r.size, c.size), dtype=complex), s_cc.T
    for k in range(1, t.size):
        np.matmul(np.matmul(s_rr, blocks[k - 1], out=half), s_cc_t, out=blocks[k])
    rows, cols = np.divmod(at[np.ix_(r, c)], rho0.dim)
    tr = blocks[:, rows == cols].sum(axis=1).real
    if (drift := np.abs(tr - 1.0) > TRACE_GUARD).any():
        k = int(drift.argmax())
        raise TraceDriftError(f"trace drifted to {tr[k]:.12g} at lambda*t = {t[k] * lambda_scale:.6g} (guard {TRACE_GUARD:g})")
    # Scaling by the reciprocal avoids a complex division per entry.
    blocks *= (1.0 / tr)[:, None, None]
    # Every entry outside the rows and columns the block touches is zero.
    support = np.flatnonzero(np.bincount(np.concatenate((rows, cols), axis=None), minlength=rho0.dim))
    support.setflags(write=False)
    samples = np.zeros((t.size, support.size, support.size), dtype=complex)
    samples[:, np.searchsorted(support, rows), np.searchsorted(support, cols)] = blocks
    samples.setflags(write=False)
    traj = Trajectory(t, t * lambda_scale, rho0, support, samples)
    if failure := _first_invalid(samples):
        raise traj._rejection(*failure)
    return traj


def evolve(rho0: DensityMatrix, spec: GeneratorSpec, sample_times) -> Trajectory:
    """Propagate the master equation and sample on a uniform grid of times (ns).

    One slot: M = vec(rho) as a column, stepped as M <- S M [[1]].
    """
    t, step = _validate_sample_times(sample_times)
    if rho0.dim != spec.dim:
        raise ValueError(f"state dimension {rho0.dim} does not match generator {spec.dim}")
    at = np.arange(rho0.dim**2)[:, None]
    return _block_trajectory(rho0, t, step, spec.lambda_scale, _liouvillian(spec), np.zeros((1, 1)), at)


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
    chain = _liouvillian(chain_spec)
    # M[a, b] is entry at[a, b] of the flattened rho; the regroup only permutes.
    at = np.arange(d**4).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return _block_trajectory(rho0, t, step, chain_spec.lambda_scale, chain, chain, at)
