"""Time evolution of the master equation by exact propagation on a uniform grid.

The generator is time independent, so a state evolves as
vec(rho(t)) = exp(L t) vec(rho(0)), with L the Liouvillian acting on
row-major vectorized density matrices.  Samples lie on one uniform grid,
so a single propagator S = exp(L dt), a dense Pade scaling-and-squaring
exponential (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), carries
every trajectory from one sample to the next; no integrator or step
control is involved.  ``evolve`` steps v <- S v on one register.

``evolve_factorized`` exploits the fact that the two chains never couple:
the 64x64 one-chain propagator acts on both chain slots, turning one
4096-dimensional problem into a 64-dimensional one.  The test suite checks
it against a sparse evolution of the full network generator, which lives
with the other oracles in ``tests/oracles.py``.  It steps only the rows and
columns that the exact zeros of S let the initial state reach: 16 of 64
on a figure state, each chain in {vacuum, one excitation}, and all 64 on a
dense one.  Every sample's trace is renormalized under the fixed guard
``TRACE_GUARD``, so numerical faults surface as errors instead of drifting
silently; the renormalized sample is then validated against the same
thresholds as every other ``DensityMatrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# Pade coefficients b_0..b_m and the largest 1-norm theta_m for which the
# [m/m] approximant of exp meets double precision (Higham 2005, Table 2.3).
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (
        2.097847961257068e0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0, 110880.0,
         3960.0, 90.0, 1.0),
    ),
)
_THETA_13 = 5.371920351148152e0
_B_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade scaling and squaring (Higham 2005, Alg. 2.3).

    The lowest degree of 3/5/7/9/13 whose theta covers ||a||_1 is used;
    past theta_13 the matrix is halved s times before degree 13 and the
    result squared s times.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    for theta, b in _PADE:
        if norm <= theta:
            powers = [eye, a2]
            while len(powers) < len(b) // 2:
                powers.append(powers[-1] @ a2)
            u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
            v = sum(b[2 * k] * p for k, p in enumerate(powers))
            return np.linalg.solve(v - u, v + u)
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    a, a2 = a * 2.0**-s, a2 * 4.0**-s
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _B_13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _propagator(spec: GeneratorSpec, step: float) -> np.ndarray:
    """S = exp(L step), the map of vectorized states over one grid step."""
    return _expm(_liouvillian(spec) * step)


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


def _reachable(s: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Ascending indices of the closure J <- J | {i : S[i, J] != 0} of the mask ``live``."""
    linked = s != 0
    while True:
        grown = live | linked[:, live].any(axis=1)
        if np.array_equal(grown, live):
            return np.flatnonzero(live)
        live = grown


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
    S = exp(L_chain dt), taken as M_RC <- S_RR M_RC S_CC^T on the reachable
    rows R and columns C of M.
    """
    t, step = _validate_sample_times(sample_times)
    d = chain_spec.dim
    if d * d != rho0.dim:
        raise ValueError(f"generator dimension {d} does not match state dimension {rho0.dim}")
    s = _propagator(chain_spec, step)
    # M[a, b] is entry at[a, b] of the flattened rho; the regroup only permutes.
    at = np.arange(d**4).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    m = rho0.matrix.astype(complex).reshape(-1)[at]
    r, c = _reachable(s, m.any(axis=1)), _reachable(s, m.any(axis=0))
    s_rr, s_cc_t = s[np.ix_(r, r)], s[np.ix_(c, c)].T
    at_rc = at[np.ix_(r, c)]

    def view(x: np.ndarray) -> np.ndarray:
        out = np.zeros(d**4, dtype=complex)
        out[at_rc] = x
        return out.reshape(d * d, d * d)

    return _stepped(t, chain_spec.lambda_scale, rho0.dims, m[np.ix_(r, c)], lambda x: s_rr @ x @ s_cc_t, view)
