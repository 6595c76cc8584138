"""Dense complex linear algebra and quantum-state core.

Operators, state containers, tensor embedding, partial traces, entropy and
purity.  Plain numpy on small dense matrices; the largest register used
anywhere in the package is 64-dimensional, so nothing here is sparse or
clever.  The Hamiltonian eigenbasis is computed where it is used, by the
Davies channel construction in ``davies``.  All
container types are immutable once constructed and every function is pure,
which makes values safe to share across threads.  Every ``DensityMatrix``,
whether built by hand, reduced or propagated, is validated against the
same ``HERMITICITY_ATOL``, ``TRACE_ATOL`` and ``PSD_ATOL`` thresholds by
``_first_invalid``, as a stack of one or, for trajectory samples, one
stack per chunk that ``_wrap_checked`` then wraps uncopied.
Positivity is tested by a Cholesky factorization; the spectrum is computed
only to report a rejection.  A partial trace is one gather of the flattened
matrix at index arrays cached per (dims, keep), in that order, then one sum
over the traced digits.

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
    "PureState",
    "KET_G",
    "KET_E",
    "SIGMA_Y",
    "PROJ_E",
    "LOWERING",
    "RAISING",
    "operator",
    "embed",
    "ket",
    "density",
    "partial_trace",
    "partial_trace_matrix",
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over a labeled register."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        if math.prod(dims) != a.size:
            raise ValueError(f"dims {dims} do not multiply to vector size {a.size}")
        nrm = float(np.vdot(a, a).real)
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValueError(f"state not normalized: |amplitudes|^2 = {nrm}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(Operator(rho, self.dims))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    op: Operator

    def __post_init__(self):
        if failure := _first_invalid(self.op.matrix[None]):
            raise ValueError(failure[1])

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims

    @property
    def dim(self) -> int:
        return self.op.dim


def _first_invalid(m: np.ndarray) -> tuple[int, str] | None:
    """Index of the first matrix of the (n, k, k) stack ``m`` that is no density matrix, and why.

    Positivity is a Cholesky factor of the Hermitian part plus ``PSD_ATOL``
    times the identity, which exists exactly when the least eigenvalue is
    above ``-PSD_ATOL``; only a failure computes eigenvalues, to name one.
    """
    n, k = m.shape[:2]
    m_dag = m.conj().swapaxes(1, 2)
    herm = np.abs(m - m_dag).reshape(n, k * k).max(axis=1, initial=0.0)
    tr = m.trace(axis1=1, axis2=2)
    # Written so that a NaN, which a Cholesky factorization passes, fails here.
    hermitian = herm <= HERMITICITY_ATOL
    passed = hermitian & (np.abs(tr - 1.0) <= TRACE_ATOL)
    first = n if passed.all() else int(passed.argmin())
    shifted = (m[:first] + m_dag[:first]) / 2.0
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
    """The matrices of a read-only stack that ``_first_invalid`` passed, as states sharing its memory."""
    states = [object.__new__(DensityMatrix) for _ in stack]
    for rho, m in zip(states, stack):
        rho.__dict__["op"] = op = object.__new__(Operator)
        op.__dict__.update(matrix=m, dims=dims)
    return states


def operator(matrix, dims=None) -> Operator:
    """Wrap a matrix as an Operator; ``dims`` defaults to one subsystem."""
    m = np.asarray(matrix, dtype=complex)
    if dims is None:
        dims = (m.shape[0],)
    return Operator(m, tuple(dims))


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


def ket(label: str) -> PureState:
    """Computational basis state of a qubit register from a G/E label."""
    if not label or any(c not in "GE" for c in label):
        raise ValueError(f"malformed basis label {label!r}")
    vec = np.array([1.0 + 0.0j])
    for c in label:
        vec = np.kron(vec, KET_E if c == "E" else KET_G)
    return PureState(vec, (2,) * len(label))


def density(matrix, dims=None) -> DensityMatrix:
    return DensityMatrix(operator(matrix, dims))


@functools.cache
def _trace_gather(dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Flat indices of the (traced digit, kept row, kept column) entries of a ``dims`` matrix.

    Entry (r, i, j) is the position, in the row-major flattened matrix, of
    the element whose row has kept digits i and traced digits r and whose
    column has kept digits j and the same r; summing over r traces out the
    complement of ``keep``.  Kept digits follow ``keep``'s order.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    keep = [int(k) for k in keep]
    if not keep:
        raise ValueError("must keep at least one subsystem")
    if min(keep) < 0 or max(keep) >= n:
        raise ValueError(f"subsystem index out of range: keep={keep}, n={n}")
    if len(set(keep)) < len(keep):
        raise ValueError(f"repeated subsystem index: keep={keep}")
    rest = [i for i in range(n) if i not in keep]
    size = math.prod(dims)
    dk = math.prod(dims[i] for i in keep)
    # The flat index of every entry, its axes grouped as (keep, rest, keep',
    # rest'); the diagonal over the two rest groups is the gather.
    order = keep + rest
    flat = np.arange(size * size).reshape(dims + dims).transpose(order + [n + i for i in order])
    flat = np.einsum("arbr->rab", flat.reshape(dk, size // dk, dk, size // dk)).copy()
    flat.setflags(write=False)
    return flat


def partial_trace_matrix(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Raw partial trace over the complement of ``keep``, kept subsystems in ``keep``'s order.

    One gather of the flattened matrix at indices cached per (dims, keep)
    and one sum over the traced digits.
    """
    flat = _trace_gather(tuple(dims), tuple(keep))
    mat = np.asarray(mat)
    size = flat.shape[0] * flat.shape[1]
    if mat.shape != (size, size):
        raise ValueError(f"matrix shape {mat.shape} does not fit dims {tuple(dims)}")
    return mat.reshape(-1)[flat].sum(axis=0)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept subsystems, in the order ``keep`` lists them."""
    keep = [int(k) for k in keep]
    reduced = partial_trace_matrix(rho.matrix, rho.dims, keep)
    reduced = (reduced + reduced.conj().T) / 2.0
    dims = tuple(rho.dims[k] for k in keep)
    return DensityMatrix(Operator(reduced, dims))


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
