import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import oracles
from cavnet import davies, model, qla

settings.register_profile(
    "invariants",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("invariants")


def random_ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_pure(rng, dims):
    return qla.pure(random_ket(rng, int(np.prod(dims))), dims)


def basis_state(label):
    return qla.pure(oracles.ket(label), (2,) * len(label))


def random_density(rng, dims, rank=None):
    d = int(np.prod(dims))
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return qla.density(m, tuple(dims))


def haar_unitary(rng, d):
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng, d, scale=1.0):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (g + g.conj().T) / 2.0


def brute_force_partial_trace(mat, dims, keep):
    """Index-loop partial trace, independent of the library implementation."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((dk, dk), dtype=complex)

    def unpack(flat):
        digits = []
        for d in reversed(dims):
            digits.append(flat % d)
            flat //= d
        return list(reversed(digits))

    def pack(digits, which):
        idx = 0
        for pos in which:
            idx = idx * dims[pos] + digits[pos]
        return idx

    dim = int(np.prod(dims))
    for row in range(dim):
        rd = unpack(row)
        for col in range(dim):
            cd = unpack(col)
            if all(rd[t] == cd[t] for t in traced):
                out[pack(rd, keep), pack(cd, keep)] += mat[row, col]
    return out


def exact_unitary_state(h_matrix, rho0_matrix, t):
    """Spectral-decomposition evolution oracle for gamma = 0."""
    w, v = np.linalg.eigh(h_matrix)
    u = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
    m = u @ rho0_matrix @ u.conj().T
    return (m + m.conj().T) / 2.0


def downward_terms(h_matrix, op):
    """(gap, |a><a|op|b><b|) for every eigenvector pair (a, b) of ``h_matrix``
    whose gap E_b - E_a exceeds the Davies grouping tolerance.

    An explicit double loop, independent of the library's grouping.
    """
    w, v = np.linalg.eigh(h_matrix)
    atol = davies.DEGENERACY_RTOL * (w[-1] - w[0])
    terms = []
    for a in range(w.size):
        for b in range(w.size):
            gap = w[b] - w[a]
            if gap > atol:
                coeff = v[:, a].conj() @ op @ v[:, b]
                terms.append((gap, coeff * np.outer(v[:, a], v[:, b].conj())))
    return terms


def unit_lambda_config(**overrides):
    """Configuration with effective coupling exactly 1 rad/ns (J=10, delta=50)."""
    kwargs = dict(
        omega=2 * math.pi * 200.0,
        nu=2 * math.pi * 20.0,
        J=10.0,
        omega_f=2 * math.pi * 180.0 - 50.0,
    )
    kwargs.update(overrides)
    return model.NetworkConfig(**kwargs)


@pytest.fixture(scope="session")
def default_cfg():
    return model.NetworkConfig()


@pytest.fixture(scope="session")
def lossless_cfg():
    return model.NetworkConfig(gamma=0.0)
