"""Dense complex linear algebra and quantum-state core.

Operators, state containers, tensor embedding, partial traces, entropy and
purity.  Plain numpy on small dense matrices; the largest register used
anywhere in the package is 64-dimensional, so nothing here is sparse or
clever.  The Hamiltonian eigenbasis is computed where it is used, by the
Davies channel construction in ``davies``.  All
container types are immutable once constructed and every function is pure,
which makes values safe to share across threads.  Every ``DensityMatrix``,
whether built by hand, reduced or propagated, is validated against the same
``HERMITICITY_ATOL``, ``TRACE_ATOL`` and ``PSD_ATOL`` thresholds.  Positivity
is tested by a Cholesky factorization of the Hermitian part shifted by
``PSD_ATOL``, which exists exactly when the least eigenvalue exceeds
``-PSD_ATOL``; the spectrum is computed only to report a rejection.

Conventions
-----------
Single-qubit basis |G> = (1, 0), |E> = (0, 1).  Tensor products are
row-major: the first-listed subsystem is the most significant index.
"""

from __future__ import annotations

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
    "identity",
    "tensor",
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
    """Hermitian, unit-trace, positive-semidefinite operator.

    Positivity is checked without a spectrum: the Hermitian part plus
    ``PSD_ATOL`` times the identity has a Cholesky factor exactly when its
    least eigenvalue is positive, that is when the state's least eigenvalue
    is above ``-PSD_ATOL``.  Only a failed factorization computes the
    eigenvalues, so that the error names the least one.
    """

    op: Operator

    def __post_init__(self):
        m = self.op.matrix
        herm = float(np.max(np.abs(m - m.conj().T)))
        # Written so that a NaN, which a Cholesky factorization passes
        # through silently, fails here.
        if not herm <= HERMITICITY_ATOL:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace deviates from one: tr = {tr}")
        shifted = (m + m.conj().T) / 2.0
        shifted.flat[:: m.shape[0] + 1] += PSD_ATOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            wmin = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
            raise ValueError(f"not positive semidefinite: min eigenvalue = {wmin:.3e}") from None

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims

    @property
    def dim(self) -> int:
        return self.op.dim


def operator(matrix, dims=None) -> Operator:
    """Wrap a matrix as an Operator; ``dims`` defaults to one subsystem."""
    m = np.asarray(matrix, dtype=complex)
    if dims is None:
        dims = (m.shape[0],)
    return Operator(m, tuple(dims))


def identity(dims) -> Operator:
    dims = tuple(int(d) for d in dims)
    return Operator(np.eye(math.prod(dims), dtype=complex), dims)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with a's subsystems ordered before b's."""
    return Operator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


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


def partial_trace_matrix(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Raw partial trace over the complement of ``keep``; subsystem order kept.

    One transpose groups the axes as (keep, rest, keep', rest'); the traced
    block is then a single contraction over the two ``rest`` groups.
    """
    dims = list(dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("must keep at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"subsystem index out of range: keep={keep}, n={n}")
    rest = [i for i in range(n) if i not in keep]
    dk = math.prod(dims[i] for i in keep)
    dr = math.prod(dims[i] for i in rest)
    order = keep + rest
    t = np.asarray(mat).reshape(dims + dims).transpose(order + [n + i for i in order])
    return np.einsum("arbr->ab", t.reshape(dk, dr, dk, dr))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept subsystems, original order preserved."""
    keep = sorted(set(int(k) for k in keep))
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
