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
production grid, objective or simplex.  An X state's discord from the
pole and the equator alone exceeds it where the best measurement is
interior.

The closed form is the no-jump picture of one chain in {vacuum, one
excitation}: its amplitudes come from the three one-excitation modes alone,
with no Liouvillian, exponential, Davies construction or partial trace.

The remaining references are the forms production code used before it
stepped only the reachable block of a two-chain trajectory, read
two-qubit marginals and partial traces more directly and contracted the
compass search's step by parabolic fits: the full-matrix two-chain
stepper, a transpose and ``einsum`` partial trace, the
strong-subadditivity slack of ``delta_fanchini`` from four partial
traces, and the compass search that halves its step.
The Werner family and the entanglement sum are fixtures that only tests
use.

Last come the models that only validate the production one: the truncated
pre-elimination chain with explicit fiber modes, against which the
effective chain Hamiltonian is checked; plain local decay, the non-secular
contrast to the Davies channels; and the master equation's right-hand side
applied directly rather than through the Liouvillian.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy import sparse
from scipy.optimize import minimize
from scipy.sparse.linalg import expm_multiply

from cavnet import correlations, davies, dynamics, model, qla

# Eigenbasis round-off of about 1e-15 where a Davies jump vanishes; entries
# this far below the largest one are dropped so that the 4096-dimensional
# network Liouvillian stays sparse.
_JUMP_CHOP_RTOL = 1e-12


def build_network_hamiltonian(cfg: model.NetworkConfig) -> qla.Operator:
    """Two uncoupled chains, chain-blocked qubit order (1,2,3 | 1',2',3')."""
    if cfg.num_chains != 2:
        raise ValueError("network Hamiltonian is defined for num_chains = 2")
    hc = model.build_effective_chain_hamiltonian(cfg)
    eye = np.eye(hc.dim)
    h = np.kron(hc.matrix, eye) + np.kron(eye, hc.matrix)
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


def endpoint_discord(rho: qla.DensityMatrix) -> float:
    """Discord, B measured, of an X state from measurements along the pole and the equator alone.

    The equator takes 360 azimuths plus (arg rho_12 - arg rho_03)/2, where
    the transverse correlations are largest (Ali, Rau & Alber, PRA 81,
    042105 (2010)).  It exceeds ``dense_discord`` wherever the best polar
    angle is interior.
    """
    m = rho.matrix
    r = m.reshape(2, 2, 2, 2)
    azimuth = np.append(np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False), 0.5 * (np.angle(m[1, 2]) - np.angle(m[0, 3])))
    ends = _measured_entropy(r, _kets(np.append(0.0, np.full(azimuth.size, math.pi / 2)), np.append(0.0, azimuth)))
    s_b = _entropy_bits(np.linalg.eigvalsh(np.einsum("abad->bd", r)))
    return s_b - _entropy_bits(np.linalg.eigvalsh(m)) + float(ends.min())


def regroup(m: np.ndarray, d: int) -> np.ndarray:
    """M[(i j), (k l)] = rho[(i k), (j l)] for two chains of dimension d; an involution."""
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def evolve_factorized_dense(
    rho0: qla.DensityMatrix, chain_spec: davies.GeneratorSpec, sample_times
) -> tuple[qla.DensityMatrix, ...]:
    """The samples of ``dynamics.evolve_factorized``, stepping the whole regrouped state, M <- S M S^T.

    Its own loop: each sample is regrouped back and divided by its trace.
    """
    t = np.asarray(sample_times, dtype=float)
    d = chain_spec.dim
    s = dynamics._expm(dynamics._liouvillian(chain_spec) * (t[-1] / (t.size - 1) if t.size > 1 else 0.0))
    m = regroup(rho0.matrix.astype(complex), d)
    states = []
    for k in range(t.size):
        if k:
            m = s @ m @ s.T
        rho = regroup(m, d)
        states.append(qla.density(rho / np.trace(rho).real, rho0.dims))
    return tuple(states)


# One-excitation modes of a three-cavity chain, lambda [[1, 1, 0], [1, 2, 1], [0, 1, 1]]:
# energy in units of lambda, eigenvector over the sites, and whether it decays.
_CHAIN_MODES = (
    (0.0, np.array([1.0, -1.0, 1.0]) / math.sqrt(3.0), False),
    (1.0, np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0), True),
    (3.0, np.array([1.0, 2.0, 1.0]) / math.sqrt(6.0), True),
)


def one_excitation_amplitudes(cfg: model.NetworkConfig, times) -> np.ndarray:
    """No-jump amplitudes u_j(t) of a chain started in |site 1>, shape (samples, 3); times in ns.

    u(t) = sum_k exp(-(i E_k + Gamma_k / 2) t) v_k v_k(1) over the modes
    above.  At zero temperature each bright mode decays to the vacuum at
    Gamma = kappa^2 gamma (absolute 1/ns) and the dark mode not at all, so
    the chain is |u><u| + (1 - |u|^2) |vac><vac| (Plenio & Knight, RMP 70,
    101 (1998)).
    """
    lam = model.effective_coupling(cfg)
    rate = cfg.kappa**2 * cfg.gamma * (lam if cfg.gamma_units == "lambda" else 1.0)
    t = np.asarray(times, dtype=float)[:, None]
    return sum(
        np.exp(-(1j * energy * lam + (rate / 2.0 if bright else 0.0)) * t) * v * v[0]
        for energy, v, bright in _CHAIN_MODES
    )


def partial_trace_einsum(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace over the complement of ``keep``, by one transpose and one contraction.

    The transpose groups the axes as (keep, rest, keep', rest'), the kept
    ones in the order ``keep`` lists them; the traced block is then a single
    ``einsum`` over the two ``rest`` groups.
    """
    dims = list(dims)
    n = len(dims)
    keep = [int(k) for k in keep]
    if not keep:
        raise ValueError("must keep at least one subsystem")
    if min(keep) < 0 or max(keep) >= n:
        raise ValueError(f"subsystem index out of range: keep={keep}, n={n}")
    if len(set(keep)) < len(keep):
        raise ValueError(f"repeated subsystem index: keep={keep}")
    rest = [i for i in range(n) if i not in keep]
    dk = math.prod(dims[i] for i in keep)
    dr = math.prod(dims[i] for i in rest)
    order = keep + rest
    t = np.asarray(mat).reshape(dims + dims).transpose(order + [n + i for i in order])
    return np.einsum("arbr->ab", t.reshape(dk, dr, dk, dr))


def delta_four_traces(rho_123: qla.DensityMatrix) -> correlations.DeltaResult:
    """``delta_fanchini`` with S_2, S_3, S_12 and S_13 each from its own partial trace."""
    delta = 0.0
    for partner in (1, 2):
        pair = correlations.pair_state(rho_123, correlations.PairSelector(0, partner))
        delta += correlations.eof_from_concurrence(correlations.concurrence(pair))
        delta -= correlations.quantum_discord(pair)
    s_2, s_3, s_12, s_13 = (
        qla.von_neumann_entropy(qla.partial_trace(rho_123, keep)) for keep in ([1], [2], [0, 1], [0, 2])
    )
    return correlations.DeltaResult(delta, s_12 + s_13 - s_2 - s_3 - delta)


def compass_search(fun, x0: tuple[float, ...], step: float) -> correlations.MinimizeResult:
    """The plain compass search: a pass that moves nowhere halves the step.

    Each trial is a fresh tuple, built by slicing, and each pass a fresh
    generator over the coordinates.  ``correlations.minimize`` takes the
    same passes but contracts by a parabolic fit, so it must end no higher
    than this search from the same start.
    """
    x, best, nfev = x0, fun(x0), 1
    while step >= correlations._SEARCH_XATOL:
        for trial in (x[:k] + (x[k] + d,) + x[k + 1 :] for k in range(len(x)) for d in (step, -step)):
            value = fun(trial)
            nfev += 1
            if value < best:
                x, best = trial, value
                break
        else:
            step *= 0.5
    return correlations.MinimizeResult(x, best, nfev)


def werner_state(p: float) -> qla.DensityMatrix:
    """Two-qubit Werner family p*|Phi+><Phi+| + (1-p)*I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing parameter must lie in [0, 1]")
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    return qla.density(p * np.outer(bell, bell.conj()) + (1.0 - p) * np.eye(4) / 4.0, (2, 2))


def entanglement_sum(state) -> float:
    """Sum of the squared concurrences of the first qubit with each other one, for a pure state."""
    if qla.purity(state) < 1.0 - 1e-8:
        raise ValueError(f"entanglement sum requires a pure state, purity = {qla.purity(state):.6g}")
    pairs = (correlations.pair_state(state, correlations.PairSelector(0, k)) for k in range(1, len(state.dims)))
    return sum(correlations.concurrence(pair) ** 2 for pair in pairs)


def full_chain_basis(cfg: model.NetworkConfig, excitation_cap: int) -> list[tuple[int, ...]]:
    """Occupation tuples (qubits..., fibers...) with at most ``cap`` quanta.

    Qubits hold 0 or 1; each of the ``sites_per_chain - 1`` fiber modes holds
    up to ``cap`` photons.  Ordered by total excitation, then lexicographic.
    """
    if excitation_cap < 1:
        raise ValueError("excitation_cap must be at least 1")
    n = cfg.sites_per_chain
    states = [
        q + f
        for q in product((0, 1), repeat=n)
        for f in product(range(excitation_cap + 1), repeat=n - 1)
        if sum(q) + sum(f) <= excitation_cap
    ]
    states.sort(key=lambda s: (sum(s), s))
    return states


def build_full_chain_hamiltonian(cfg: model.NetworkConfig, excitation_cap: int) -> qla.Operator:
    """Pre-elimination chain model with explicit fiber modes, truncated.

    Polariton qubits at energy omega - nu, fiber modes at omega_f, and the
    J/sqrt(2) polariton-fiber exchange terms; excitation number conserved.
    Used to validate the effective chain Hamiltonian at small J/delta.
    """
    basis = full_chain_basis(cfg, excitation_cap)
    index = {s: i for i, s in enumerate(basis)}
    n = cfg.sites_per_chain
    big_omega = cfg.omega - cfg.nu
    d = len(basis)
    diag = np.zeros(d)
    coupling = np.zeros((d, d), dtype=complex)
    g = cfg.J / math.sqrt(2.0)
    for s, i in index.items():
        qubits, fibers = s[:n], s[n:]
        diag[i] = big_omega * sum(qubits) + cfg.omega_f * sum(fibers)
        # Directed part L_site^+ b_fiber only; the conjugate is added once below.
        for fiber in range(n - 1):
            if fibers[fiber] == 0:
                continue
            amp = g * math.sqrt(fibers[fiber])
            for site in (fiber, fiber + 1):
                if qubits[site] == 1:
                    continue
                target = list(s)
                target[site] = 1
                target[n + fiber] -= 1
                coupling[index[tuple(target)], i] += amp
    h = np.diag(diag).astype(complex) + coupling + coupling.conj().T
    return qla.Operator(h, (d,))


def full_chain_number_operator(cfg: model.NetworkConfig, excitation_cap: int) -> qla.Operator:
    basis = full_chain_basis(cfg, excitation_cap)
    return qla.Operator(np.diag([float(sum(s)) for s in basis]).astype(complex), (len(basis),))


def full_chain_site_projector(cfg: model.NetworkConfig, excitation_cap: int, site: int) -> qla.Operator:
    """Projector onto "polariton at ``site`` excited" in the truncated basis."""
    if not 0 <= site < cfg.sites_per_chain:
        raise ValueError(f"site {site} out of range")
    basis = full_chain_basis(cfg, excitation_cap)
    return qla.Operator(np.diag([float(s[site]) for s in basis]).astype(complex), (len(basis),))


def full_chain_single_excitation(cfg: model.NetworkConfig, excitation_cap: int, site: int) -> qla.DensityMatrix:
    """Basis state with one polariton at ``site`` and everything else empty."""
    basis = full_chain_basis(cfg, excitation_cap)
    target = tuple(1 if k == site else 0 for k in range(cfg.sites_per_chain)) + (0,) * (
        cfg.sites_per_chain - 1
    )
    vec = np.zeros(len(basis), dtype=complex)
    vec[basis.index(target)] = 1.0
    return qla.pure(vec, (len(basis),))


def bohr_frequencies(h: qla.Operator) -> np.ndarray:
    """Distinct positive Bohr frequencies of ``h``, ascending (see ``davies._bohr_grouping``)."""
    return davies._bohr_grouping(h)[2]


@dataclass(frozen=True)
class DecayChannel:
    """Plain local decay at one site, with no eigenbasis filtering.

    This is the non-secular contrast model: it damps the dark state that the
    microscopic construction leaves untouched.
    """

    site: int
    jump: qla.Operator
    rate: float

    def __post_init__(self):
        if self.rate < 0.0:
            raise ValueError("decay rate must be nonnegative")


def build_local_channels(h: qla.Operator, cfg: model.NetworkConfig) -> list[DecayChannel]:
    """One bare lowering channel per site, ignoring the eigenstructure."""
    if any(d != 2 for d in h.dims):
        raise ValueError("local channels expect a qubit register")
    nsites = len(h.dims)
    rate = cfg.decay_rate()
    return [
        DecayChannel(site=site, jump=davies.site_lowering_operator(cfg, site, nsites), rate=rate)
        for site in range(nsites)
        if rate > 0.0
    ]


def local_chain_generator(cfg: model.NetworkConfig) -> davies.GeneratorSpec:
    """One-chain generator with plain per-site decay instead of Davies channels."""
    h = model.build_effective_chain_hamiltonian(cfg)
    return davies.GeneratorSpec(h, tuple(build_local_channels(h, cfg)), model.effective_coupling(cfg))


def lindblad_rhs(rho: qla.DensityMatrix, spec: davies.GeneratorSpec) -> qla.Operator:
    """Exact right-hand side of the master equation; Hermitian and traceless."""
    if rho.dim != spec.dim:
        raise ValueError(f"state dimension {rho.dim} does not match generator {spec.dim}")
    h = spec.hamiltonian.matrix
    m = rho.matrix
    out = -1j * (h @ m - m @ h)
    for ch in spec.channels:
        a = ch.jump.matrix
        ada = a.conj().T @ a
        out += ch.rate * (a @ m @ a.conj().T - 0.5 * (ada @ m + m @ ada))
    return qla.Operator(out, rho.dims)
