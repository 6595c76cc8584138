"""Dense complex linear algebra and quantum-state core.

Plain numpy on small dense matrices; the largest register used anywhere in
the package is 64-dimensional, so nothing here is sparse or clever.  All
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
    "Spectrum",
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
    "hermitian_eigendecomposition",
    "eigenvalue_clusters",
    "von_neumann_entropy",
    "purity",
]

# Validation thresholds for the state containers.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-8
PSD_ATOL = 1e-9
NORM_ATOL = 1e-10
ORTHONORMALITY_ATOL = 1e-10
RECONSTRUCTION_RTOL = 1e-9
DEGENERACY_RTOL = 1e-9
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


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` ascend; ``eigenvectors`` holds the matching orthonormal
    eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float).reshape(-1)
        v = np.array(self.eigenvectors, dtype=complex)
        if v.shape != (w.size, w.size):
            raise ValueError("eigenvector matrix shape does not match eigenvalues")
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must ascend")
        gram = v.conj().T @ v
        dev = float(np.max(np.abs(gram - np.eye(w.size))))
        if dev > ORTHONORMALITY_ATOL:
            raise ValueError(f"eigenvectors not orthonormal: |V^dag V - I| = {dev:.3e}")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)


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


def eigenvalue_clusters(values: np.ndarray):
    """Group ascending eigenvalues into degenerate clusters.

    Two neighbors belong to one cluster when their gap is below
    ``DEGENERACY_RTOL`` times the spectral span.  Returns (start, stop)
    index pairs.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    atol = DEGENERACY_RTOL * float(values[-1] - values[0])
    bounds = [0]
    for i in range(1, values.size):
        if values[i] - values[i - 1] > atol:
            bounds.append(i)
    bounds.append(values.size)
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def _gram_schmidt(block: np.ndarray) -> np.ndarray:
    # Deterministic re-orthonormalization in column index order.
    out = np.zeros_like(block)
    for k in range(block.shape[1]):
        v = block[:, k].copy()
        for j in range(k):
            v -= out[:, j] * np.vdot(out[:, j], v)
        v /= np.linalg.norm(v)
        out[:, k] = v
    return out


def hermitian_eigendecomposition(h: Operator) -> Spectrum:
    """Spectral decomposition with deterministic handling of degeneracies.

    Within each eigenvalue cluster the eigenvectors are re-orthonormalized
    by Gram-Schmidt in index order, so degenerate subspaces come out the
    same across platforms.
    """
    m = h.matrix
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITICITY_ATOL * scale:
        raise ValueError(f"operator not Hermitian: max |H - H^dag| = {dev:.3e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    v = v.copy()
    for start, stop in eigenvalue_clusters(w):
        if stop - start > 1:
            v[:, start:stop] = _gram_schmidt(v[:, start:stop])
    return Spectrum(w, v)


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
