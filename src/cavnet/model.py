"""Physical model builders.

Translates cavity/fiber parameters into the effective polariton-chain
Hamiltonian and the standard initial states.

Units: angular frequencies in rad/ns, so a value quoted as "2*pi*30 GHz"
enters as ``2*pi*30``.  Decay rates are 1/ns when ``gamma_units="abs"`` or
multiples of the effective hopping rate when ``gamma_units="lambda"``.
Times are usually reported dimensionless as lambda*t.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import qla
from .qla import DensityMatrix, Operator

__all__ = [
    "NetworkConfig",
    "InitialStateSpec",
    "effective_coupling",
    "build_effective_chain_hamiltonian",
    "build_initial_state",
    "cavity_label_to_qubit",
]

SPEED_OF_LIGHT_M_PER_NS = 0.299792458


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
        if not np.isscalar(self.gamma):
            raise ValueError("gamma takes one rate for all sites: per-site rates are not supported")
        object.__setattr__(self, "gamma", float(self.gamma))
        for name in ("omega", "nu", "omega_f", "J", "gamma", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.J > 0.0:
            raise ValueError("cavity-fiber coupling J must be positive")
        if self.gamma_units not in ("abs", "lambda"):
            raise ValueError(f"unknown gamma_units {self.gamma_units!r}")
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

    def decay_rate(self) -> float:
        """The decay rate of every site in absolute 1/ns, units flag applied."""
        return self.gamma * (effective_coupling(self) if self.gamma_units == "lambda" else 1.0)


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
    """

    kind: str
    theta: float = math.pi / 4

    _KINDS = ("psi_a", "psi_b", "rho_eq20", "psi1_chain", "psi2_chain")
    # The kinds that depend on theta; every other kind ignores it, though
    # theta must lie in [0, pi/2] for all.
    THETA_KINDS = ("psi_a", "psi_b")
    # The kinds on one chain's register; every other named kind is on the network's.
    CHAIN_KINDS = ("psi1_chain", "psi2_chain")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown initial state kind {self.kind!r}")
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError("theta must lie in [0, pi/2]")


def effective_coupling(cfg: NetworkConfig) -> float:
    """Effective hopping rate J^2 / (2*delta) in rad/ns."""
    return cfg.J**2 / (2.0 * cfg.delta)


def build_effective_chain_hamiltonian(cfg: NetworkConfig) -> Operator:
    """Single-chain polariton Hamiltonian after fiber elimination.

    Diagonal site energies carry weight 1 at the chain ends and 2 in the
    interior (each interior site couples to two fibers); nearest neighbors
    hop with the same rate.  Everything scales with the effective coupling.
    """
    lam = effective_coupling(cfg)
    n = cfg.sites_per_chain
    dims = (2,) * n
    h = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(n):
        weight = 1.0 if site in (0, n - 1) else 2.0
        h += lam * weight * qla.embed(qla.PROJ_E, site, dims).matrix
    for site in range(n - 1):
        hop = qla.embed(qla.RAISING, site, dims).matrix @ qla.embed(qla.LOWERING, site + 1, dims).matrix
        h += lam * (hop + hop.conj().T)
    return Operator(h, dims)


def cavity_label_to_qubit(site_label: str) -> int:
    """Internal qubit index for a cavity label like "2" or "3'" of two chains of three cavities."""
    label = site_label.strip()
    primed = label.endswith("'") or label.endswith("′")
    digits = label[:-1] if primed else label
    if not digits.isdigit():
        raise ValueError(f"malformed cavity label {site_label!r}")
    site = int(digits) - 1
    if not 0 <= site < 3:
        raise ValueError(f"cavity label {site_label!r} out of range")
    return site + (3 if primed else 0)


def build_initial_state(spec: InitialStateSpec, cfg: NetworkConfig) -> DensityMatrix:
    """Density matrix for the requested initial condition.

    Network states come out on the chain-blocked register (1, 2, 3 | 1', 2', 3')
    and the single-chain kinds on one chain's, 64- and 8-dimensional by default.
    """
    n = cfg.sites_per_chain
    if spec.kind not in InitialStateSpec.CHAIN_KINDS and cfg.num_chains < 2:
        raise ValueError(f"initial state {spec.kind!r} spans cavities 1 and 1' and needs at least 2 chains")
    # Amplitudes by the chain-blocked qubits each basis state excites (cavity
    # 1 is qubit 0, cavity 1' qubit n), and the number of chains they span.
    vacuum, pair = (), (0, n)
    amplitudes, chains = {
        "psi_a": ({(0,): math.cos(spec.theta), (n,): math.sin(spec.theta)}, cfg.num_chains),
        "psi_b": ({vacuum: math.sin(spec.theta), pair: math.cos(spec.theta)}, cfg.num_chains),
        # The Bell projector of the 1,1' pair: weights 1/2 on |EE><EE|,
        # |GG><GG| and both cross terms.  Its amplitudes are 1/sqrt(2), one
        # ulp below sqrt(0.5), whose square would put the trace two ulp above one.
        "rho_eq20": ({vacuum: 1.0 / math.sqrt(2.0), pair: 1.0 / math.sqrt(2.0)}, cfg.num_chains),
        "psi1_chain": ({(0,): 1.0 / math.sqrt(2.0), (n - 1,): 1.0 / math.sqrt(2.0)}, 1),
        "psi2_chain": ({(0,): 1.0}, 1),
    }[spec.kind]
    qubits = n * chains
    vec = np.zeros(2**qubits, dtype=complex)
    for excited, amp in amplitudes.items():
        vec[sum(1 << (qubits - 1 - q) for q in excited)] = amp
    return qla.pure(vec, (2,) * qubits)
