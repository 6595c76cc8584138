"""Independent references that the production path does not use.

``cavnet`` propagates one three-cavity chain and applies its propagator to
both chain slots.  The references here treat the two chains as one
64-dimensional register: the network Hamiltonian, its Davies generator,
and a sparse Liouvillian whose exponential action is evaluated directly
over the sample grid (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011)), so the factorized path is checked against a method that shares
neither its propagator nor its regrouping.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from cavnet import davies, model, qla

# Eigenbasis round-off of about 1e-15 where a Davies jump vanishes; entries
# this far below the largest one are dropped so that the 4096-dimensional
# network Liouvillian stays sparse.
_JUMP_CHOP_RTOL = 1e-12


def build_network_hamiltonian(cfg: model.NetworkConfig) -> qla.Operator:
    """Two uncoupled chains, chain-blocked qubit order (1,2,3 | 1',2',3')."""
    if cfg.num_chains != 2:
        raise ValueError("network Hamiltonian is defined for num_chains = 2")
    hc = model.build_effective_chain_hamiltonian(cfg)
    eye = qla.identity(hc.dims)
    h = np.kron(hc.matrix, eye.matrix) + np.kron(eye.matrix, hc.matrix)
    return qla.Operator(h, hc.dims + hc.dims)


def network_generator(cfg: model.NetworkConfig) -> davies.GeneratorSpec:
    """Generator for the full two-chain network (64-dimensional register)."""
    h = build_network_hamiltonian(cfg)
    return davies.GeneratorSpec(h, tuple(davies.build_davies_channels(h, cfg)), model.effective_coupling(cfg))


def _kron_entries(x: np.ndarray, y: np.ndarray):
    """Row, column and value arrays of the entries of kron(x, y) that both factors make nonzero."""
    xi, xj = np.nonzero(x)
    yi, yj = np.nonzero(y)
    d = y.shape[0]
    rows = (xi[:, None] * d + yi).ravel()
    cols = (xj[:, None] * d + yj).ravel()
    vals = (x[xi, xj][:, None] * y[yi, yj]).ravel()
    return rows, cols, vals


def sparse_liouvillian(spec: davies.GeneratorSpec) -> sparse.csr_matrix:
    """Generator matrix on row-major vectorized states, stored sparse.

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


def direct_evolve(rho0: qla.DensityMatrix, spec: davies.GeneratorSpec, sample_times) -> np.ndarray:
    """Density matrices at uniformly spaced ``sample_times`` (ns), shape (samples, d, d).

    No renormalization or validation: the raw action of exp(L t).
    """
    t = np.asarray(sample_times, dtype=float)
    if not np.allclose(t, np.linspace(0.0, t[-1], t.size), rtol=0.0, atol=1e-12 * t[-1]):
        raise ValueError("sample times must be a uniform grid from 0")
    d = rho0.dim
    v = rho0.matrix.reshape(-1).astype(complex)
    run = expm_multiply(sparse_liouvillian(spec), v, start=0.0, stop=t[-1], num=t.size, endpoint=True)
    return run.reshape(t.size, d, d)
