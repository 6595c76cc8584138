"""Zero-temperature microscopic dissipation.

The jump operators are built in the global eigenbasis of the system
Hamiltonian.  One helper, ``_bohr_grouping``, diagonalizes it and labels
every eigenvector pair by the Bohr frequency of its gap; each jump keeps
the bare cavity coupling's eigenbasis elements with one label.  At zero
temperature only the downward (positive-frequency) channels survive, which
is what makes the zero-energy single-excitation chain state exactly dark.

In the polariton two-level space the cavity annihilation operator acts as
kappa * |G><E| with kappa = 1/sqrt(2) by default; the factor only rescales
the effective decay rate and is exposed through the network configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qla
from .model import NetworkConfig, build_effective_chain_hamiltonian, build_network_hamiltonian, effective_coupling
from .qla import HERMITICITY_ATOL, DensityMatrix, Operator

__all__ = [
    "DaviesChannel",
    "DecayChannel",
    "GeneratorSpec",
    "bohr_frequencies",
    "site_lowering_operator",
    "build_davies_channels",
    "build_local_channels",
    "chain_generator",
    "network_generator",
    "local_chain_generator",
    "lindblad_rhs",
]

ZERO_JUMP_ATOL = 1e-12
# Eigenvalue gaps closer than this fraction of the spectral span share a
# Bohr frequency.
DEGENERACY_RTOL = 1e-9


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
        _require_hermitian(self.hamiltonian)
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


def _require_hermitian(h: Operator) -> np.ndarray:
    """The matrix of ``h``; ValueError unless it is Hermitian within
    ``HERMITICITY_ATOL`` times its largest entry (at least one)."""
    m = h.matrix
    scale = max(1.0, float(np.max(np.abs(m))))
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITICITY_ATOL * scale:
        raise ValueError(f"Hamiltonian not Hermitian: max |H - H^dag| = {dev:.3e}")
    return m


def _bohr_grouping(h: Operator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenbasis of ``h`` and the Bohr-frequency group of every eigenvalue pair.

    Returns ``(v, labels, freqs)``.  The columns of ``v`` are orthonormal
    eigenvectors with ascending eigenvalues E.  ``labels[a, b]`` is the group
    of the gap E_b - E_a, the energy a transition from b to a removes.  The
    positive gaps are sorted and split wherever neighbours differ by more
    than ``DEGENERACY_RTOL`` times the spectral span; gaps within that
    tolerance of zero, or below, get the label -1, since at zero temperature
    only strictly downward transitions carry weight.  ``freqs[k]`` is the
    mean gap of group k, so ``freqs`` ascends.
    """
    m = _require_hermitian(h)
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    atol = DEGENERACY_RTOL * float(w[-1] - w[0])
    gaps = w[None, :] - w[:, None]
    up = np.flatnonzero(gaps > atol)
    up = up[np.argsort(gaps.flat[up], kind="stable")]
    ranked = gaps.flat[up]
    group = np.cumsum(np.diff(ranked, prepend=ranked[:1]) > atol)
    labels = np.full(gaps.shape, -1)
    labels.flat[up] = group
    freqs = np.bincount(group, weights=ranked) / np.bincount(group)
    return v, labels, freqs


def bohr_frequencies(h: Operator) -> np.ndarray:
    """Distinct positive Bohr frequencies of ``h``, ascending (see ``_bohr_grouping``)."""
    return _bohr_grouping(h)[2]


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

    For site n with coupling A and frequency group k the jump is
    V (V^dag A V o [label == k]) V^dag: the sum of |a><a|A|b><b| over every
    eigenvector pair whose gap E_b - E_a falls in group k, so degenerate
    gaps from different excitation sectors merge into one channel.
    Channels with an all-zero jump or a zero rate are dropped.  The rate is
    frequency-flat.
    """
    if any(d != 2 for d in h.dims):
        raise ValueError("Davies construction expects a qubit register")
    nsites = len(h.dims)
    rates = _site_rates(cfg, nsites)
    v, labels, freqs = _bohr_grouping(h)
    channels: list[DaviesChannel] = []
    for site in range(nsites):
        if rates[site] == 0.0:
            continue
        coupling = v.conj().T @ site_lowering_operator(cfg, site, nsites).matrix @ v
        for k, omega in enumerate(freqs):
            jump = v @ np.where(labels == k, coupling, 0.0) @ v.conj().T
            if float(np.max(np.abs(jump))) <= ZERO_JUMP_ATOL:
                continue
            channels.append(
                DaviesChannel(
                    site=site,
                    bohr_frequency=float(omega),
                    jump=Operator(jump, h.dims),
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
