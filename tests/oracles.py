"""Independent references that the production path does not use.

``cavnet`` propagates one three-cavity chain and applies its propagator to
both chain slots.  The references here treat the two chains as one
64-dimensional register: the network Hamiltonian, its Davies generator,
and a sparse Liouvillian whose exponential action is evaluated directly
over the sample grid (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011)), so the factorized path is checked against a method that shares
neither its propagator nor its regrouping.

The discord references are Luo's closed form for Bell-diagonal states and
a dense search over projective measurements that shares nothing with the
production grid, objective or simplex.
"""

import math

import numpy as np
from scipy import sparse
from scipy.optimize import minimize
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


_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
)


def _entropy_bits(eigenvalues) -> float:
    p = np.asarray(eigenvalues, dtype=float)
    p = p[p > 1e-300]
    return float(-(p * np.log2(p)).sum())


def bell_diagonal_state(c) -> qla.DensityMatrix:
    """(I + sum_j c_j sigma_j (x) sigma_j) / 4."""
    m = np.eye(4, dtype=complex)
    for cj, s in zip(c, _PAULIS):
        m = m + cj * np.kron(s, s)
    return qla.density(m / 4.0, (2, 2))


def luo_discord(c) -> float:
    """Discord of a Bell-diagonal state (Luo, PRA 77, 042303 (2008)).

    Q = 2 + sum_k l_k log2 l_k - [(1 - c)/2 log2(1 - c) + (1 + c)/2 log2(1 + c)]
    with l_k the four Bell-state weights and c = max_j |c_j|.
    """
    c1, c2, c3 = c
    weights = [(1 - c1 - c2 - c3) / 4, (1 - c1 + c2 + c3) / 4, (1 + c1 - c2 + c3) / 4, (1 + c1 + c2 - c3) / 4]
    cmax = max(abs(x) for x in c)
    classical = sum((1 + s * cmax) / 2 * math.log2(1 + s * cmax) for s in (1.0, -1.0) if 1 + s * cmax > 0)
    return 2.0 - _entropy_bits(weights) - classical


def _measured_entropy(r: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Average entropy of A after projecting B on each ket and its orthogonal partner.

    ``r`` is the state as a (2, 2, 2, 2) tensor [a, b, c, d].  Each
    outcome's unnormalized A block [[x, z], [z*, y]] has the eigenvalues
    (x + y +- sqrt((x - y)^2 + 4|z|^2)) / 2.
    """
    total = np.zeros(len(kets))
    partners = np.stack([-kets[:, 1].conj(), kets[:, 0].conj()], axis=1)
    for v in (kets, partners):
        blocks = np.einsum("nb,abcd,nd->nac", v.conj(), r, v, optimize=len(v) > 1)
        x, y, z = blocks[:, 0, 0].real, blocks[:, 1, 1].real, blocks[:, 0, 1]
        split = np.sqrt((x - y) ** 2 + 4.0 * np.abs(z) ** 2)
        lam = np.clip(np.stack([x + y + split, x + y - split], axis=1) / 2.0, 0.0, None)
        p = lam.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 1e-300, -lam * np.log2(lam / np.where(p > 0, p, 1.0)), 0.0)
        total += terms.sum(axis=1)
    return total


def _kets(polar, azimuth) -> np.ndarray:
    return np.stack([np.cos(polar / 2.0) + 0j, np.exp(1j * azimuth) * np.sin(polar / 2.0)], axis=-1)


def dense_discord(rho: qla.DensityMatrix, measured: str = "B") -> float:
    """Discord measured on one side, by a dense search over projective measurements.

    A 181 x 361 polar/azimuth grid locates the best direction, and a
    Nelder-Mead at ``xatol`` 1e-12 refines it.  With B measured,
    Q = S(B) - S(AB) + min S(A | B measurement).
    """
    m = rho.matrix
    if measured == "A":
        m = m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    r = m.reshape(2, 2, 2, 2)
    polar, azimuth = np.meshgrid(np.linspace(0.0, math.pi, 181), np.linspace(0.0, 2.0 * math.pi, 361), indexing="ij")
    grid = _measured_entropy(r, _kets(polar.ravel(), azimuth.ravel()))
    best = int(np.argmin(grid))
    res = minimize(
        lambda x: float(_measured_entropy(r, _kets(x[:1], x[1:]))[0]),
        [polar.ravel()[best], azimuth.ravel()[best]],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000, "maxfev": 8000},
    )
    conditional = min(float(grid[best]), float(res.fun))
    s_b = _entropy_bits(np.linalg.eigvalsh(np.einsum("abad->bd", r)))
    return s_b - _entropy_bits(np.linalg.eigvalsh(m)) + conditional
