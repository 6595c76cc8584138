"""Dense complex linear algebra and quantum-state core.

Operators, state containers, tensor embedding, partial traces, entropy and
purity.  Plain numpy on small dense matrices; the largest register used
anywhere in the package is 64-dimensional, so nothing here is sparse or
clever.  The Hamiltonian eigenbasis is computed where it is used, by the
Davies channel construction in ``davies``.  All
container types are immutable once constructed and every function is pure,
which makes values safe to share across threads.  A ``DensityMatrix`` is
one object that holds its read-only matrix and dims.  A pure state |a><a|
from ``pure`` is valid by construction and checked by its norm only.
Every other ``DensityMatrix``, whether built by hand, reduced or
propagated, is validated against the same ``HERMITICITY_ATOL``,
``TRACE_ATOL`` and ``PSD_ATOL`` thresholds by ``_first_invalid``, as a
stack of one or as one stack: the supports of a trajectory's samples, or
the reductions of one ``reduced_states`` call, which returns them as one
read-only array; ``_wrap_checked`` makes the matrices of a checked stack
into states uncopied.
Positivity is tested by a Cholesky factorization; the spectrum is computed
only to report a rejection.  Every reduction is one step, ``_reduce``: one
gather at an index stack cached per (dims, keeps), then one sum over the
traced digits and one average with the adjoint.  ``partial_trace`` onto
one keep and ``reduced_states`` onto several of equal dims gather from one
flattened matrix.  A trajectory gathers every sample at once from its
samples on their support, through a position map that sends each entry
outside the support to one zero column, and checks the whole stack with
one ``_first_invalid``.

Conventions
-----------
Single-qubit basis |G> = (1, 0), |E> = (0, 1).  Tensor products are
row-major: the first-listed subsystem is the most significant index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Operator",
    "DensityMatrix",
    "KET_G",
    "KET_E",
    "SIGMA_Y",
    "PROJ_E",
    "LOWERING",
    "RAISING",
    "embed",
    "ket",
    "pure",
    "density",
    "partial_trace",
    "reduced_states",
    "von_neumann_entropy",
    "purity",
]

# Validation thresholds for the state containers.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-8
PSD_ATOL = 1e-9
NORM_ATOL = 1e-10
ENTROPY_EIGENVALUE_FLOOR = 1e-12
ENTROPY_NEGATIVE_LIMIT = -1e-9

KET_G = np.array([1.0, 0.0], dtype=complex)
KET_E = np.array([0.0, 1.0], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PROJ_E = np.outer(KET_E, KET_E.conj())
LOWERING = np.outer(KET_G, KET_E.conj())  # |G><E|
RAISING = LOWERING.conj().T


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix over a labeled register of subsystems.

    ``dims`` lists the subsystem dimensions in tensor order, e.g. ``(2, 2, 2)``
    for one three-qubit chain; their product must equal the matrix size.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid subsystem dimensions {dims}")
        if math.prod(dims) != m.shape[0]:
            raise ValueError(
                f"dims {dims} do not multiply to matrix size {m.shape[0]}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over the register ``dims``.

    ``DensityMatrix(op)`` takes the read-only matrix and dims of the
    ``Operator`` ``op`` and validates them.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, op: Operator):
        if failure := _first_invalid(op.matrix[None]):
            raise ValueError(failure[1])
        object.__setattr__(self, "matrix", op.matrix)
        object.__setattr__(self, "dims", op.dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _first_invalid(m: np.ndarray) -> tuple[int, str] | None:
    """Index of the first matrix of the (n, k, k) stack ``m`` that is no density matrix, and why.

    Positivity is a Cholesky factor of the Hermitian part plus ``PSD_ATOL``
    times the identity, which exists exactly when the least eigenvalue is
    above ``-PSD_ATOL``; only a failure computes eigenvalues, to name one.
    """
    n, k = m.shape[:2]
    m_dag = m.conj().swapaxes(1, 2)
    diff = m - m_dag
    herm = np.abs(diff).reshape(n, k * k).max(axis=1, initial=0.0)
    tr = m.trace(axis1=1, axis2=2)
    # Written so that a NaN, which a Cholesky factorization passes, fails here.
    hermitian = herm <= HERMITICITY_ATOL
    passed = hermitian & (np.abs(tr - 1.0) <= TRACE_ATOL)
    first = n if passed.all() else int(passed.argmin())
    # The m - m^dag buffer takes the shifted Hermitian part: two fewer stack-sized arrays.
    shifted = np.add(m[:first], m_dag[:first], out=diff[:first])
    shifted /= 2.0
    shifted.reshape(first, k * k)[:, :: k + 1] += PSD_ATOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        for i, a in enumerate(shifted):
            try:
                np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                wmin = float(np.linalg.eigvalsh((m[i] + m_dag[i]) / 2.0).min())
                return i, f"not positive semidefinite: min eigenvalue = {wmin:.3e}"
    if first == n:
        return None
    if not hermitian[first]:
        return first, f"not Hermitian: max |rho - rho^dag| = {herm[first]:.3e}"
    return first, f"trace deviates from one: tr = {complex(tr[first])}"


def _wrap_checked(stack: np.ndarray, dims: tuple[int, ...]) -> list[DensityMatrix]:
    """One state per matrix of a read-only stack that ``_first_invalid`` passed or ``pure`` built, uncopied.

    Each skips ``DensityMatrix.__init__``, whose check the whole stack has had.
    """
    states = [object.__new__(DensityMatrix) for _ in stack]
    for rho, m in zip(states, stack):
        rho.__dict__.update(matrix=m, dims=dims)
    return states


def embed(local, site: int, dims) -> Operator:
    """Embed a single-subsystem matrix at ``site`` of a product register."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= site < len(dims):
        raise ValueError(f"site {site} out of range for {len(dims)} subsystems")
    local = np.asarray(local, dtype=complex)
    if local.shape != (dims[site], dims[site]):
        raise ValueError(f"local operator shape {local.shape} does not fit site {site}")
    out = np.array([[1.0 + 0.0j]])
    for k, d in enumerate(dims):
        out = np.kron(out, local if k == site else np.eye(d, dtype=complex))
    return Operator(out, dims)


def ket(label: str) -> np.ndarray:
    """Read-only computational basis vector of a qubit register from a G/E label."""
    if not label or any(c not in "GE" for c in label):
        raise ValueError(f"malformed basis label {label!r}")
    vec = np.array([1.0 + 0.0j])
    for c in label:
        vec = np.kron(vec, KET_E if c == "E" else KET_G)
    vec.setflags(write=False)
    return vec


def pure(amplitudes, dims) -> DensityMatrix:
    """The state |a><a| of a unit vector ``a`` over the register ``dims``.

    Only the norm is checked, to ``NORM_ATOL``: the outer product of a unit
    vector is Hermitian, has unit trace within ``NORM_ATOL`` < ``TRACE_ATOL``
    and is positive semidefinite, so it skips ``_first_invalid``.
    """
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    dims = tuple(int(d) for d in dims)
    if not dims or min(dims) < 1:
        raise ValueError(f"invalid subsystem dimensions {dims}")
    if math.prod(dims) != a.size:
        raise ValueError(f"dims {dims} do not multiply to vector size {a.size}")
    nrm = float(np.vdot(a, a).real)
    if abs(nrm - 1.0) > NORM_ATOL:
        raise ValueError(f"state not normalized: |amplitudes|^2 = {nrm}")
    stack = np.outer(a, a.conj())[None]
    stack.setflags(write=False)
    return _wrap_checked(stack, dims)[0]


def density(matrix, dims=None) -> DensityMatrix:
    """Validated state of ``matrix`` over the register ``dims``, by default one subsystem."""
    m = np.asarray(matrix, dtype=complex)
    return DensityMatrix(Operator(m, (m.shape[0],) if dims is None else tuple(dims)))


@functools.cache
def _trace_gather(dims: tuple[int, ...], keeps: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Flat indices of the (keep, traced digit, kept row, kept column) entries of a ``dims`` matrix.

    Entry (q, r, i, j) is the position, in the row-major flattened matrix,
    of the element whose row has the digits i kept by ``keeps[q]`` and
    traced digits r and whose column has kept digits j and the same r;
    summing over r traces out the complement of that keep.  Kept digits
    follow the keep's order, and every keep must keep the same dims.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    size = math.prod(dims)
    stack = []
    for keep in keeps:
        keep = [int(k) for k in keep]
        if not keep:
            raise ValueError("must keep at least one subsystem")
        if min(keep) < 0 or max(keep) >= n:
            raise ValueError(f"subsystem index out of range: keep={keep}, n={n}")
        if len(set(keep)) < len(keep):
            raise ValueError(f"repeated subsystem index: keep={keep}")
        if [dims[k] for k in keep] != [dims[k] for k in keeps[0]]:
            raise ValueError(f"keeps {keeps} keep subsystems of different dims")
        rest = [i for i in range(n) if i not in keep]
        dk = math.prod(dims[i] for i in keep)
        # The flat index of every entry, its axes grouped as (keep, rest,
        # keep', rest'); the diagonal over the two rest groups is the gather.
        order = keep + rest
        flat = np.arange(size * size).reshape(dims + dims).transpose(order + [n + i for i in order])
        stack.append(np.einsum("arbr->rab", flat.reshape(dk, size // dk, dk, size // dk)))
    # C order: a gather from strided indices takes about three times as long.
    flat = np.ascontiguousarray(stack)
    flat.setflags(write=False)
    return flat


def _reduce(flat: np.ndarray, dims: tuple[int, ...], keeps: tuple[tuple[int, ...], ...], positions=None) -> np.ndarray:
    """Read-only (..., keep, row, column) stack of the hermitized reductions onto each of ``keeps``.

    ``flat`` holds row-major flattened ``dims`` matrices along its last
    axis: one whole matrix, or, with ``positions``, the stored entries of
    each, the entry at flat index f in column ``positions[f]``.  One gather
    at indices cached per (dims, keeps), composed with ``positions``, one
    sum over the traced digits and one average with the adjoint.
    """
    at = _trace_gather(dims, keeps)
    if positions is not None:
        at = positions[at]
    stack = flat.take(at, axis=-1).sum(axis=-3)
    stack = (stack + stack.conj().swapaxes(-1, -2)) / 2.0
    stack.setflags(write=False)
    return stack


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept subsystems, in the order ``keep`` lists them."""
    keep = tuple(map(int, keep))
    reduced = _reduce(rho.matrix.reshape(-1), rho.dims, (keep,))[0]
    return DensityMatrix(Operator(reduced, tuple(rho.dims[k] for k in keep)))


def reduced_states(rho: DensityMatrix, keeps) -> np.ndarray:
    """Read-only (keep, row, column) stack of the ``partial_trace`` matrices of ``rho`` onto each of ``keeps``.

    The keeps, at least one, must keep subsystems of the same dims.  The
    stack is checked as one by ``_first_invalid``, and the first invalid
    reduction raises the message ``partial_trace`` raises for it.
    """
    keeps = tuple(map(tuple, keeps))
    if not keeps:
        raise ValueError("need at least one keep")
    stack = _reduce(rho.matrix.reshape(-1), rho.dims, keeps)
    if failure := _first_invalid(stack):
        raise ValueError(failure[1])
    return stack


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Base-2 von Neumann entropy; eigenvalues below 1e-12 contribute zero."""
    w = np.linalg.eigvalsh(rho.matrix)
    if w.min() < ENTROPY_NEGATIVE_LIMIT:
        raise ValueError(f"eigenvalue {w.min():.3e} too negative for entropy")
    p = w[w > ENTROPY_EIGENVALUE_FLOOR]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum())


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2], between 1/dim and 1."""
    m = rho.matrix
    return float(np.vdot(m, m).real)
