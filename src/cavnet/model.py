"""Physical model builders.

Translates cavity/fiber parameters into the effective polariton-chain
Hamiltonian, the two-chain network composite, a truncated pre-elimination
model used for validation, and the standard initial states.

Units: angular frequencies in rad/ns, so a value quoted as "2*pi*30 GHz"
enters as ``2*pi*30``.  Decay rates are 1/ns when ``gamma_units="abs"`` or
multiples of the effective hopping rate when ``gamma_units="lambda"``.
Times are usually reported dimensionless as lambda*t.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import qla
from .qla import DensityMatrix, Operator, PureState

__all__ = [
    "NetworkConfig",
    "InitialStateSpec",
    "effective_coupling",
    "build_effective_chain_hamiltonian",
    "build_network_hamiltonian",
    "build_full_chain_hamiltonian",
    "full_chain_basis",
    "full_chain_number_operator",
    "full_chain_site_projector",
    "full_chain_single_excitation",
    "build_initial_state",
    "map_interleaved_index",
    "interleaved_label",
    "cavity_label_to_qubit",
    "werner_state",
]

SPEED_OF_LIGHT_M_PER_NS = 0.299792458

_GAMMA_UNIT_ALIASES = {
    "abs": "abs",
    "absolute": "abs",
    "lambda": "lambda",
}


@dataclass(frozen=True)
class NetworkConfig:
    """All physical parameters of the cavity network.

    Defaults follow the reference operating point: J = 2*pi*30 rad/ns with
    detuning delta = (omega - nu) - omega_f = 2*pi*300 rad/ns, giving an
    effective hopping rate of 3*pi rad/ns, and uniform cavity decay
    gamma = 0.01 per ns.
    """

    sites_per_chain: int = 3
    num_chains: int = 2
    omega: float = 2 * math.pi * 1000.0
    nu: float = 2 * math.pi * 50.0
    omega_f: float = 2 * math.pi * 650.0
    J: float = 2 * math.pi * 30.0
    gamma: float = 0.01
    gamma_units: str = "abs"
    kappa: float = 1.0 / math.sqrt(2.0)
    fiber_length_l: float | None = None
    fiber_continuum_decay_mu: float | None = None

    def __post_init__(self):
        if self.sites_per_chain < 2:
            raise ValueError("sites_per_chain must be at least 2")
        if self.num_chains < 1:
            raise ValueError("num_chains must be at least 1")
        if not self.J > 0.0:
            raise ValueError("cavity-fiber coupling J must be positive")
        units = _GAMMA_UNIT_ALIASES.get(str(self.gamma_units).lower())
        if units is None:
            raise ValueError(f"unknown gamma_units {self.gamma_units!r}")
        object.__setattr__(self, "gamma_units", units)
        if not np.isscalar(self.gamma):
            raise ValueError("gamma takes one rate for all sites: per-site rates are not supported")
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.gamma < 0:
            raise ValueError("decay rates must be nonnegative")
        if self.kappa <= 0:
            raise ValueError("polariton projection factor kappa must be positive")
        delta = self.delta
        if delta <= self.J:
            raise ValueError(
                f"effective model invalid: delta = {delta:.6g} <= J = {self.J:.6g}"
            )
        if delta < 5.0 * self.J:
            warnings.warn(
                f"delta = {delta:.6g} below 5*J = {5 * self.J:.6g}; "
                "effective chain model is marginal",
                stacklevel=2,
            )
        if self.fiber_length_l is not None and self.fiber_continuum_decay_mu is not None:
            ratio = (
                2.0
                * self.fiber_length_l
                * self.fiber_continuum_decay_mu
                / (2.0 * math.pi * SPEED_OF_LIGHT_M_PER_NS)
            )
            if ratio >= 0.1:
                warnings.warn(
                    f"short-fiber parameter 2*l*mu/(2*pi*c) = {ratio:.3g} is not "
                    "small; single-fiber-mode treatment is questionable",
                    stacklevel=2,
                )

    @property
    def delta(self) -> float:
        """Total detuning (omega - nu) - omega_f in rad/ns."""
        return (self.omega - self.nu) - self.omega_f

    @property
    def total_sites(self) -> int:
        return self.sites_per_chain * self.num_chains

    def gamma_rates(self) -> tuple[float, ...]:
        """Per-site decay rates in absolute 1/ns, units flag applied."""
        scale = effective_coupling(self) if self.gamma_units == "lambda" else 1.0
        return (self.gamma * scale,) * self.sites_per_chain


@dataclass(frozen=True)
class InitialStateSpec:
    """Which initial condition to build.

    ``psi_a``: one excitation split between cavities 1 and 1',
    cos(theta)|E at 1> + sin(theta)|E at 1'>.
    ``psi_b``: superposition of the vacuum and a double excitation,
    sin(theta)|vacuum> + cos(theta)|E at 1, E at 1'>.
    ``rho_eq20``: the 1,1' pair prepared with equal weights 1/2 on
    |EE><EE|, |GG><GG| and the cross terms (a Bell projector).
    ``psi1_chain`` / ``psi2_chain``: single-chain states
    (|EGG> + |GGE>)/sqrt(2) and |EGG>.
    ``custom``: caller-provided density matrix.
    """

    kind: str
    theta: float = math.pi / 4
    custom: DensityMatrix | None = None

    _KINDS = ("psi_a", "psi_b", "rho_eq20", "psi1_chain", "psi2_chain", "custom")
    # The kinds that depend on theta; every other kind ignores it.
    THETA_KINDS = ("psi_a", "psi_b")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown initial state kind {self.kind!r}")
        if self.kind in self.THETA_KINDS and not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError("theta must lie in [0, pi/2]")
        if self.kind == "custom" and self.custom is None:
            raise ValueError("custom initial state requires a payload")


def effective_coupling(cfg: NetworkConfig) -> float:
    """Effective hopping rate J^2 / (2*delta) in rad/ns."""
    delta = cfg.delta
    if delta <= 0.0:
        raise ValueError(f"detuning must be positive, got {delta}")
    return cfg.J**2 / (2.0 * delta)


def _chain_qubit_operator(locals_by_site: dict[int, np.ndarray], nsites: int) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for site in range(nsites):
        out = np.kron(out, locals_by_site.get(site, np.eye(2, dtype=complex)))
    return out


def build_effective_chain_hamiltonian(cfg: NetworkConfig) -> Operator:
    """Single-chain polariton Hamiltonian after fiber elimination.

    Diagonal site energies carry weight 1 at the chain ends and 2 in the
    interior (each interior site couples to two fibers); nearest neighbors
    hop with the same rate.  Everything scales with the effective coupling.
    """
    lam = effective_coupling(cfg)
    n = cfg.sites_per_chain
    h = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(n):
        weight = 1.0 if site in (0, n - 1) else 2.0
        h += lam * weight * _chain_qubit_operator({site: qla.PROJ_E}, n)
    for site in range(n - 1):
        hop = _chain_qubit_operator({site: qla.RAISING, site + 1: qla.LOWERING}, n)
        h += lam * (hop + hop.conj().T)
    return Operator(h, (2,) * n)


def build_network_hamiltonian(cfg: NetworkConfig) -> Operator:
    """Two uncoupled chains, chain-blocked qubit order (1,2,3 | 1',2',3')."""
    if cfg.num_chains != 2:
        raise ValueError("network Hamiltonian is defined for num_chains = 2")
    hc = build_effective_chain_hamiltonian(cfg)
    eye = qla.identity(hc.dims)
    h = np.kron(hc.matrix, eye.matrix) + np.kron(eye.matrix, hc.matrix)
    return Operator(h, hc.dims + hc.dims)


def full_chain_basis(cfg: NetworkConfig, excitation_cap: int) -> list[tuple[int, ...]]:
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


def build_full_chain_hamiltonian(cfg: NetworkConfig, excitation_cap: int) -> Operator:
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
    return Operator(h, (d,))


def full_chain_number_operator(cfg: NetworkConfig, excitation_cap: int) -> Operator:
    basis = full_chain_basis(cfg, excitation_cap)
    return Operator(np.diag([float(sum(s)) for s in basis]).astype(complex), (len(basis),))


def full_chain_site_projector(cfg: NetworkConfig, excitation_cap: int, site: int) -> Operator:
    """Projector onto "polariton at ``site`` excited" in the truncated basis."""
    if not 0 <= site < cfg.sites_per_chain:
        raise ValueError(f"site {site} out of range")
    basis = full_chain_basis(cfg, excitation_cap)
    return Operator(np.diag([float(s[site]) for s in basis]).astype(complex), (len(basis),))


def full_chain_single_excitation(cfg: NetworkConfig, excitation_cap: int, site: int) -> PureState:
    """Basis state with one polariton at ``site`` and everything else empty."""
    basis = full_chain_basis(cfg, excitation_cap)
    target = tuple(1 if k == site else 0 for k in range(cfg.sites_per_chain)) + (0,) * (
        cfg.sites_per_chain - 1
    )
    vec = np.zeros(len(basis), dtype=complex)
    vec[basis.index(target)] = 1.0
    return PureState(vec, (len(basis),))


def interleaved_qubit_order(sites_per_chain: int = 3, num_chains: int = 2) -> tuple[int, ...]:
    """Internal qubit index addressed by each interleaved label position.

    User-facing labels interleave the chains site by site (1, 1', 2, 2', ...),
    while the internal register is chain-blocked (1, 2, 3 | 1', 2', 3').
    """
    return tuple(
        chain * sites_per_chain + site
        for site in range(sites_per_chain)
        for chain in range(num_chains)
    )


def map_interleaved_index(label: str, sites_per_chain: int = 3, num_chains: int = 2) -> int:
    """Basis index in chain-blocked order for an interleaved G/E label."""
    n = sites_per_chain * num_chains
    if len(label) != n or any(c not in "GE" for c in label):
        raise ValueError(f"malformed label {label!r}; need {n} characters over G/E")
    order = interleaved_qubit_order(sites_per_chain, num_chains)
    idx = 0
    for pos, c in enumerate(label):
        if c == "E":
            idx |= 1 << (n - 1 - order[pos])
    return idx


def interleaved_label(index: int, sites_per_chain: int = 3, num_chains: int = 2) -> str:
    """Inverse of :func:`map_interleaved_index`."""
    n = sites_per_chain * num_chains
    if not 0 <= index < 2**n:
        raise ValueError(f"index {index} out of range for {n} qubits")
    order = interleaved_qubit_order(sites_per_chain, num_chains)
    bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
    return "".join("E" if bits[order[pos]] else "G" for pos in range(n))


def cavity_label_to_qubit(site_label: str, sites_per_chain: int = 3) -> int:
    """Internal qubit index for a cavity label like "2" or "3'"."""
    label = site_label.strip()
    primed = label.endswith("'") or label.endswith("′")
    digits = label[:-1] if primed else label
    if not digits.isdigit():
        raise ValueError(f"malformed cavity label {site_label!r}")
    site = int(digits) - 1
    if not 0 <= site < sites_per_chain:
        raise ValueError(f"cavity label {site_label!r} out of range")
    return site + (sites_per_chain if primed else 0)


def _network_pure(amplitudes_by_label: dict[str, float | complex], cfg: NetworkConfig) -> PureState:
    n = cfg.total_sites
    vec = np.zeros(2**n, dtype=complex)
    for label, amp in amplitudes_by_label.items():
        vec[map_interleaved_index(label, cfg.sites_per_chain, cfg.num_chains)] = amp
    return PureState(vec, (2,) * n)


def build_initial_state(spec: InitialStateSpec, cfg: NetworkConfig) -> DensityMatrix:
    """Density matrix for the requested initial condition.

    Network states come out on the 64-dimensional chain-blocked register;
    the single-chain kinds are 8-dimensional.
    """
    n = cfg.sites_per_chain
    if spec.kind == "psi_a":
        excite_1 = "E" + "G" * (cfg.total_sites - 1)
        excite_1p = "GE" + "G" * (cfg.total_sites - 2)
        state = _network_pure(
            {excite_1: math.cos(spec.theta), excite_1p: math.sin(spec.theta)}, cfg
        )
        return state.density()
    if spec.kind == "psi_b":
        vacuum = "G" * cfg.total_sites
        pair = "EE" + "G" * (cfg.total_sites - 2)
        state = _network_pure(
            {vacuum: math.sin(spec.theta), pair: math.cos(spec.theta)}, cfg
        )
        return state.density()
    if spec.kind == "rho_eq20":
        # Equal 1/2 weights on |EE><EE|, |GG><GG| and both cross terms for
        # the 1,1' pair; written out verbatim, this is the Bell projector.
        total = cfg.total_sites
        vacuum = "G" * total
        pair = "EE" + "G" * (total - 2)
        i_gg = map_interleaved_index(vacuum, n, cfg.num_chains)
        i_ee = map_interleaved_index(pair, n, cfg.num_chains)
        rho = np.zeros((2**total, 2**total), dtype=complex)
        for a in (i_gg, i_ee):
            for b in (i_gg, i_ee):
                rho[a, b] = 0.5
        return DensityMatrix(Operator(rho, (2,) * total))
    if spec.kind == "psi1_chain":
        first = qla.ket("E" + "G" * (n - 1)).amplitudes
        last = qla.ket("G" * (n - 1) + "E").amplitudes
        vec = (first + last) / math.sqrt(2.0)
        return PureState(vec, (2,) * n).density()
    if spec.kind == "psi2_chain":
        return qla.ket("E" + "G" * (n - 1)).density()
    if spec.kind == "custom":
        return spec.custom
    raise ValueError(f"unknown initial state kind {spec.kind!r}")


def werner_state(p: float) -> DensityMatrix:
    """Two-qubit Werner family p*|Phi+><Phi+| + (1-p)*I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing parameter must lie in [0, 1]")
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rho = p * np.outer(bell, bell.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(Operator(rho, (2, 2)))
