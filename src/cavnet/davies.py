"""Zero-temperature microscopic dissipation.

The jump operators are built in the global eigenbasis of the system
Hamiltonian: the bare cavity coupling at each site is sandwiched between
eigenprojectors, grouped by Bohr frequency.  At zero temperature only the
downward (positive-frequency) channels survive, which is what makes the
zero-energy single-excitation chain state exactly dark.

In the polariton two-level space the cavity annihilation operator acts as
kappa * |G><E| with kappa = 1/sqrt(2) by default; the factor only rescales
the effective decay rate and is exposed through the network configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qla
from .model import NetworkConfig, build_effective_chain_hamiltonian, build_network_hamiltonian, effective_coupling
from .qla import DensityMatrix, Operator, Spectrum

__all__ = [
    "DaviesChannel",
    "DecayChannel",
    "GeneratorSpec",
    "bohr_frequencies",
    "eigenoperator_parts",
    "site_lowering_operator",
    "build_davies_channels",
    "build_local_channels",
    "chain_generator",
    "network_generator",
    "local_chain_generator",
    "lindblad_rhs",
]

ZERO_JUMP_ATOL = 1e-12


@dataclass(frozen=True)
class DaviesChannel:
    """One (site, Bohr frequency) dissipation channel.

    ``jump`` connects only eigenspace pairs separated by ``bohr_frequency``
    (within the grouping tolerance used at construction).
    """

    site: int
    bohr_frequency: float
    jump: Operator
    rate: float

    def __post_init__(self):
        if not self.bohr_frequency > 0.0:
            raise ValueError("Davies channels require a positive Bohr frequency")
        if self.rate < 0.0:
            raise ValueError("decay rate must be nonnegative")
        if float(np.max(np.abs(self.jump.matrix))) <= ZERO_JUMP_ATOL:
            raise ValueError("zero jump operators must be dropped, not stored")


@dataclass(frozen=True)
class DecayChannel:
    """Plain local decay at one site, with no eigenbasis filtering.

    This is the non-secular contrast model: it damps the dark state that the
    microscopic construction leaves untouched.
    """

    site: int
    jump: Operator
    rate: float

    def __post_init__(self):
        if self.rate < 0.0:
            raise ValueError("decay rate must be nonnegative")


@dataclass(frozen=True)
class GeneratorSpec:
    """Right-hand-side data for the master equation.

    ``lambda_scale`` records the effective hopping rate in rad/ns so that
    reported times can be expressed in the dimensionless lambda*t
    convention.
    """

    hamiltonian: Operator
    channels: tuple = field(default_factory=tuple)
    lambda_scale: float = 1.0

    def __post_init__(self):
        h = self.hamiltonian.matrix
        scale = max(1.0, float(np.max(np.abs(h))))
        if float(np.max(np.abs(h - h.conj().T))) > 1e-10 * scale:
            raise ValueError("generator Hamiltonian must be Hermitian")
        channels = tuple(self.channels)
        for ch in channels:
            if ch.jump.dim != self.hamiltonian.dim:
                raise ValueError("channel dimension does not match the Hamiltonian")
        if not self.lambda_scale > 0.0:
            raise ValueError("lambda_scale must be positive")
        object.__setattr__(self, "channels", channels)

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


def _grouping_atol(eigenvalues: np.ndarray) -> float:
    span = float(eigenvalues[-1] - eigenvalues[0]) if eigenvalues.size else 0.0
    return qla.DEGENERACY_RTOL * span


def bohr_frequencies(spectrum: Spectrum) -> np.ndarray:
    """Distinct positive eigenvalue differences, ascending.

    Differences are clustered with tolerance ``qla.DEGENERACY_RTOL`` relative
    to the spectral span; zero (within tolerance) is excluded, since at zero
    temperature only strictly downward transitions carry weight.
    """
    w = spectrum.eigenvalues
    atol = _grouping_atol(w)
    clusters = qla.eigenvalue_clusters(w)
    values = [float(np.mean(w[a:b])) for a, b in clusters]
    out: list[float] = []
    for i, lo in enumerate(values):
        for hi in values[i + 1 :]:
            gap = hi - lo
            if gap <= atol:
                continue
            if not any(abs(gap - seen) <= atol for seen in out):
                out.append(gap)
    return np.array(sorted(out))


def eigenoperator_parts(spectrum: Spectrum, op: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Resolve ``op`` into eigenbasis blocks P_a op P_b, grouped by frequency.

    Returns (omega, block) pairs over every ordered cluster pair, with
    omega = E_b - E_a (the energy removed when the block acts), including
    omega <= 0.  Blocks whose frequencies coincide within tolerance are
    merged; the blocks sum exactly to ``op`` by projector completeness.
    """
    w = spectrum.eigenvalues
    v = spectrum.eigenvectors
    atol = _grouping_atol(w)
    clusters = qla.eigenvalue_clusters(w)
    projectors = []
    for a, b in clusters:
        block = v[:, a:b]
        projectors.append((float(np.mean(w[a:b])), block @ block.conj().T))
    merged: list[tuple[float, np.ndarray]] = []
    for e_a, p_a in projectors:
        for e_b, p_b in projectors:
            omega = e_b - e_a
            part = p_a @ op @ p_b
            for k, (seen, acc) in enumerate(merged):
                if abs(omega - seen) <= atol:
                    merged[k] = (seen, acc + part)
                    break
            else:
                merged.append((omega, part))
    merged.sort(key=lambda item: item[0])
    return merged


def site_lowering_operator(cfg: NetworkConfig, site: int, nsites: int | None = None) -> Operator:
    """kappa * |G><E| at ``site``, embedded in an ``nsites``-qubit register."""
    if nsites is None:
        nsites = cfg.sites_per_chain
    if not 0 <= site < nsites:
        raise ValueError(f"site {site} out of range for {nsites} sites")
    return qla.embed(cfg.kappa * qla.LOWERING, site, (2,) * nsites)


def _site_rates(cfg: NetworkConfig, nsites: int) -> tuple[float, ...]:
    rates = cfg.gamma_rates()
    if nsites == cfg.sites_per_chain:
        return rates
    if nsites == cfg.total_sites:
        return rates * cfg.num_chains
    raise ValueError(f"no per-site rates defined for a {nsites}-site register")


def build_davies_channels(h: Operator, cfg: NetworkConfig) -> list[DaviesChannel]:
    """Downward jump channels of ``h`` for every site and Bohr frequency.

    For site n and frequency omega > 0 the jump is the sum of eigenprojector
    sandwiches of the site coupling over all eigenvalue pairs separated by
    omega; degenerate gaps from different excitation sectors merge into one
    channel.  Channels with an all-zero jump or a zero rate are dropped.
    The rate is frequency-flat.
    """
    if any(d != 2 for d in h.dims):
        raise ValueError("Davies construction expects a qubit register")
    nsites = len(h.dims)
    rates = _site_rates(cfg, nsites)
    spectrum = qla.hermitian_eigendecomposition(h)
    atol = _grouping_atol(spectrum.eigenvalues)
    channels: list[DaviesChannel] = []
    for site in range(nsites):
        if rates[site] == 0.0:
            continue
        lowering = site_lowering_operator(cfg, site, nsites).matrix
        for omega, block in eigenoperator_parts(spectrum, lowering):
            if omega <= atol:
                continue
            if float(np.max(np.abs(block))) <= ZERO_JUMP_ATOL:
                continue
            channels.append(
                DaviesChannel(
                    site=site,
                    bohr_frequency=float(omega),
                    jump=Operator(block, h.dims),
                    rate=rates[site],
                )
            )
    return channels


def build_local_channels(h: Operator, cfg: NetworkConfig) -> list[DecayChannel]:
    """One bare lowering channel per site, ignoring the eigenstructure."""
    if any(d != 2 for d in h.dims):
        raise ValueError("local channels expect a qubit register")
    nsites = len(h.dims)
    rates = _site_rates(cfg, nsites)
    return [
        DecayChannel(site=site, jump=site_lowering_operator(cfg, site, nsites), rate=rates[site])
        for site in range(nsites)
        if rates[site] > 0.0
    ]


def chain_generator(cfg: NetworkConfig) -> GeneratorSpec:
    """Master-equation generator for one chain (8-dimensional register)."""
    h = build_effective_chain_hamiltonian(cfg)
    return GeneratorSpec(h, tuple(build_davies_channels(h, cfg)), effective_coupling(cfg))


def network_generator(cfg: NetworkConfig) -> GeneratorSpec:
    """Generator for the full two-chain network (64-dimensional register)."""
    h = build_network_hamiltonian(cfg)
    return GeneratorSpec(h, tuple(build_davies_channels(h, cfg)), effective_coupling(cfg))


def local_chain_generator(cfg: NetworkConfig) -> GeneratorSpec:
    """One-chain generator with plain per-site decay instead of Davies channels."""
    h = build_effective_chain_hamiltonian(cfg)
    return GeneratorSpec(h, tuple(build_local_channels(h, cfg)), effective_coupling(cfg))


def lindblad_rhs(rho: DensityMatrix, spec: GeneratorSpec) -> Operator:
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
    return Operator(out, rho.dims)
