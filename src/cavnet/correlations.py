"""Correlation measures on multi-qubit states.

Pairwise measures (concurrence, entanglement of formation, mutual
information, classical correlation, quantum discord) act on two-qubit
reductions; the multipartite measures (one-tangles, tangle with its
mixed-state bounds, monogamy residual) act on the full register.

The concurrence of an X-form state (defined below) is Wootters' formula in
closed form (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)); any other
state takes the general route through the singular values of
sqrt(rho) (sy x sy) conj(sqrt(rho)).  Every pair reduction of the cavity
network is X-form.  The concurrence and the discord dispatch on the same
exact-zero test, ``_is_x_form``.

The discord optimization uses projective measurements only.  X-form
states, whose entries off the diagonal and anti-diagonal vanish, need only
the polar angle of the measurement: a short grid over it plus a bounded
1-D Nelder-Mead refinement (Ali, Rau & Alber, PRA 81, 042105 (2010),
searched explicitly rather than trusting their closed form).  Every other
state takes a coarse grid over the measurement Bloch sphere followed by a
2-D Nelder-Mead refinement.  The grid's 64 x 128 directions are fixed, so
the outer products conj(v_b) v_d of their kets are built once, on first use;
the unnormalized A blocks of all directions are then one (8192, 4) @ (4, 4)
product with the state regrouped to ((b, d), (a, c)), and each orthogonal
outcome's block is Tr_B rho minus the first, since the two projectors sum
to the identity.  The simplex objective evaluates the same two blocks from
the 16 regrouped entries in plain float arithmetic, building no arrays.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from . import qla
from .model import cavity_label_to_qubit
from .qla import DensityMatrix, Operator, PureState

__all__ = [
    "PairSelector",
    "MeasurementBasis",
    "TangleBounds",
    "DeltaResult",
    "concurrence",
    "eof_from_concurrence",
    "mutual_information",
    "classical_correlation",
    "quantum_discord",
    "one_tangle",
    "tangle_pure",
    "tangle_bounds",
    "monogamy_residual",
    "entanglement_sum",
    "delta_fanchini",
    "pair_state",
]

_SYSY = np.kron(qla.SIGMA_Y, qla.SIGMA_Y)
_GRID_POLAR = 64
_GRID_AZIMUTH = 128
_PURITY_GATE = 1e-8
_TANGLE_FLOOR = 1e-9
_DISCORD_FLOOR = -1e-8
# Polar grid of the X-state search, endpoints 0 and pi/2 included.
_X_GRID = 9
# Mask of the entries of a 4x4 two-qubit matrix off the diagonal and anti-diagonal.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


@dataclass(frozen=True)
class PairSelector:
    """Two distinct qubit positions of the internal register."""

    first: int
    second: int

    def __post_init__(self):
        if self.first == self.second:
            raise ValueError("pair members must be distinct")
        if self.first < 0 or self.second < 0:
            raise ValueError("pair indices must be nonnegative")

    @classmethod
    def from_label(cls, label: str, sites_per_chain: int = 3) -> "PairSelector":
        """Parse a cavity-pair label like "33'" or "21'".

        The first character group addresses the unprimed chain, a trailing
        prime the second chain; "21'" is chain-1 site 2 with chain-2 site 1.
        """
        label = label.strip()
        # Split into two site tokens, each one digit plus optional prime.
        tokens = []
        i = 0
        while i < len(label):
            j = i + 1
            while j < len(label) and label[j] in ("'", "′"):
                j += 1
            tokens.append(label[i:j])
            i = j
        if len(tokens) != 2:
            raise ValueError(f"malformed pair label {label!r}")
        return cls(
            cavity_label_to_qubit(tokens[0], sites_per_chain),
            cavity_label_to_qubit(tokens[1], sites_per_chain),
        )


@dataclass(frozen=True)
class MeasurementBasis:
    """Projector pair on one qubit, parametrized on the Bloch sphere."""

    polar: float
    azimuth: float

    def __post_init__(self):
        if not 0.0 <= self.polar <= math.pi:
            raise ValueError("polar angle must lie in [0, pi]")
        if not 0.0 <= self.azimuth < 2.0 * math.pi:
            raise ValueError("azimuth must lie in [0, 2*pi)")

    def ket(self) -> np.ndarray:
        return np.array(
            [math.cos(self.polar / 2.0), np.exp(1j * self.azimuth) * math.sin(self.polar / 2.0)]
        )


class TangleBounds(NamedTuple):
    lower_raw: float
    upper_raw: float
    lower: float
    upper: float


class DeltaResult(NamedTuple):
    delta: float
    ssa_slack: float


def _as_density(state: DensityMatrix | PureState) -> DensityMatrix:
    if isinstance(state, PureState):
        return state.density()
    return state


def _require_two_qubits(rho: DensityMatrix):
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")


def pair_state(rho: DensityMatrix, pair: PairSelector) -> DensityMatrix:
    """Two-qubit reduction with the pair members in the requested order."""
    if max(pair.first, pair.second) >= len(rho.dims):
        raise ValueError(f"pair {pair} out of range for dims {rho.dims}")
    reduced = qla.partial_trace(rho, [pair.first, pair.second])
    return reduced if pair.first < pair.second else _swap_qubits(reduced)


def _swap_qubits(rho_ab: DensityMatrix) -> DensityMatrix:
    m = rho_ab.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return DensityMatrix(Operator(m, (2, 2)))


def _is_x_form(m: np.ndarray) -> bool:
    """Whether a 4x4 two-qubit matrix is exactly zero off its diagonal and anti-diagonal."""
    return not m[_OFF_X].any()


def concurrence(rho_ab: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped state.

    X-form states take Wootters' formula in closed form, every other state
    the singular-value route.
    """
    _require_two_qubits(rho_ab)
    m = rho_ab.matrix
    if _is_x_form(m):
        return _x_concurrence(m)
    return _general_concurrence(m)


def _x_concurrence(m: np.ndarray) -> float:
    """Concurrence of an X-form state (Yu & Eberly 2007).

    C = 2 max(0, |rho_03| - sqrt(rho_11 rho_22), |rho_12| - sqrt(rho_00 rho_33)).
    """
    d0, d1, d2, d3 = (max(float(m[k, k].real), 0.0) for k in range(4))
    return 2.0 * max(0.0, float(abs(m[0, 3])) - math.sqrt(d1 * d2), float(abs(m[1, 2])) - math.sqrt(d0 * d3))


def _general_concurrence(m: np.ndarray) -> float:
    """Concurrence of any two-qubit state.

    The decreasing square roots of the eigenvalues of rho * rho_tilde are
    evaluated as singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)),
    which keeps the near-zero roots accurate to machine precision instead
    of the sqrt(eps) floor of the plain eigenvalue route.
    """
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    if float(w.min()) < -1e-8:
        raise ValueError(f"state spectrum too negative: {w.min():.3e}")
    sqrt_m = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    alphas = np.linalg.svd(sqrt_m @ _SYSY.real @ sqrt_m.conj(), compute_uv=False)
    alphas = np.sort(alphas)[::-1]
    return float(max(0.0, alphas[0] - alphas[1] - alphas[2] - alphas[3]))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation as a function of concurrence."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return _binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def mutual_information(rho_ab: DensityMatrix) -> float:
    """S(A) + S(B) - S(AB) in bits for a bipartite state."""
    if len(rho_ab.dims) != 2:
        raise ValueError("mutual information needs a bipartite split")
    s_a = qla.von_neumann_entropy(qla.partial_trace(rho_ab, [0]))
    s_b = qla.von_neumann_entropy(qla.partial_trace(rho_ab, [1]))
    s_ab = qla.von_neumann_entropy(rho_ab)
    return s_a + s_b - s_ab


def _outer_products(kets: np.ndarray) -> np.ndarray:
    """Rows conj(v_b) v_d, flattened in (b, d) order, of an (n, 2) ket array."""
    return (kets.conj()[:, :, None] * kets[:, None, :]).reshape(-1, 4)


def _conditional_entropy_batch(r: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Average post-measurement entropy of qubit A for a batch of B-kets.

    ``r`` is the (2,2,2,2) state tensor, ``kets`` an (n, 2) array of
    measurement directions; the complementary outcome is included.
    """
    return _conditional_entropy_outer(r, _outer_products(kets))


def _conditional_entropy_outer(r: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """``_conditional_entropy_batch`` from the kets' outer products."""
    # Row k holds the unnormalized A block <v_k|rho|v_k> flattened as (a, c).
    blocks = outer @ r.transpose(1, 3, 0, 2).reshape(4, 4)
    # The two projectors sum to the identity, so the orthogonal outcome's
    # block is what the first leaves of Tr_B rho.
    reduced = np.einsum("abcb->ac", r).reshape(4)
    total = np.zeros(len(outer))
    for m in (blocks, reduced - blocks):
        p = np.real(m[:, 0] + m[:, 3])
        det = np.real(m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2])
        disc = np.sqrt(np.clip(p * p - 4.0 * det, 0.0, None))
        lam_hi = np.clip((p + disc) / 2.0, 0.0, None)
        lam_lo = np.clip((p - disc) / 2.0, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            for lam in (lam_hi, lam_lo):
                q = np.where(p > 1e-15, lam / np.where(p > 1e-15, p, 1.0), 0.0)
                term = np.where(q > 1e-15, -q * np.log2(np.where(q > 1e-15, q, 1.0)), 0.0)
                total += p * term
    return total


def _outcome_entropy(m00: complex, m01: complex, m10: complex, m11: complex) -> float:
    """p times the entropy of one unnormalized 2x2 A block, in plain floats."""
    p = (m00 + m11).real
    if p <= 1e-15:
        return 0.0
    det = (m00 * m11 - m01 * m10).real
    disc = math.sqrt(max(p * p - 4.0 * det, 0.0))
    total = 0.0
    for lam in (max((p + disc) / 2.0, 0.0), max((p - disc) / 2.0, 0.0)):
        q = lam / p
        if q > 1e-15:
            total += p * (-q * math.log2(q))
    return total


def _simplex_objective(r: np.ndarray):
    """``_conditional_entropy_batch`` at one (polar, azimuth), in plain floats.

    The 16 entries of ``r`` regrouped to ((b, d), (a, c)) and the four of
    Tr_B rho are unpacked once, so an evaluation builds no array.
    """
    columns = list(zip(*r.transpose(1, 3, 0, 2).reshape(4, 4).tolist()))
    t00, t01, t10, t11 = np.einsum("abcb->ac", r).reshape(4).tolist()

    def entropy(x) -> float:
        polar, azimuth = map(float, x)
        c = math.cos(polar / 2.0)
        v1 = cmath.exp(1j * azimuth) * math.sin(polar / 2.0)
        w00, w01, w10, w11 = c * c, c * v1, v1.conjugate() * c, v1.conjugate() * v1
        m00, m01, m10, m11 = [w00 * g0 + w01 * g1 + w10 * g2 + w11 * g3 for g0, g1, g2, g3 in columns]
        return _outcome_entropy(m00, m01, m10, m11) + _outcome_entropy(
            t00 - m00, t01 - m01, t10 - m10, t11 - m11
        )

    return entropy


def _minimize_conditional_entropy(rho_ab: DensityMatrix) -> tuple[float, MeasurementBasis]:
    """Minimal conditional entropy of A over projective B measurements.

    X-form states take the exact polar search, all others the general one.
    """
    m = rho_ab.matrix
    if _is_x_form(m):
        return _x_conditional_entropy(m)
    return _general_conditional_entropy(rho_ab)


def _xlog2x(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def _x_conditional_entropy(m: np.ndarray) -> tuple[float, MeasurementBasis]:
    """Polar-angle search for an X-form state.

    In Bloch form the state has local z-components a3, b3, correlation T33
    and a transverse block whose larger singular value is
    2(|rho_03| + |rho_12|).  For a B direction at polar angle theta the
    entropy is least when the direction's transverse part lies along that
    singular vector, at azimuth (arg rho_12 - arg rho_03)/2, and it is even
    about theta = 0 and pi/2, so a grid over [0, pi/2] locates the minimum.
    """
    d0, d1, d2, d3 = (float(m[k, k].real) for k in range(4))
    r03, r12 = complex(m[0, 3]), complex(m[1, 2])
    trace = d0 + d1 + d2 + d3
    a3 = d0 + d1 - d2 - d3
    b3 = d0 - d1 + d2 - d3
    t33 = d0 - d1 - d2 + d3
    c_perp = 2.0 * (abs(r03) + abs(r12))

    def entropy(theta: float) -> float:
        # Outcome weights p = (trace +- b3 cos)/2; each post-measurement A
        # block has eigenvalues (2p +- |a +- T n|)/4.
        c, s = math.cos(theta), math.sin(theta)
        total = 0.0
        for sign in (1.0, -1.0):
            w = trace + sign * b3 * c
            r = math.hypot(a3 + sign * t33 * c, c_perp * s)
            total += _xlog2x(0.5 * w) - _xlog2x(0.25 * (w + r)) - _xlog2x(0.25 * (w - r))
        return total

    step = 0.5 * math.pi / (_X_GRID - 1)
    value, polar = min((entropy(k * step), k * step) for k in range(_X_GRID))
    # Refine within the two grid cells around the best point.  The cells of
    # an endpoint reach past it, where the evenness mirrors the inside, so
    # the simplex never collapses onto a bound: an endpoint that is a local
    # maximum still lets the search walk into the dip beside it.
    res = minimize(
        lambda x: entropy(float(x[0])),
        [polar],
        method="Nelder-Mead",
        bounds=[(polar - step, polar + step)],
        options={"initial_simplex": [[polar], [polar + step / 2.0]], "xatol": 1e-6, "fatol": 1e-12},
    )
    if res.fun < value:
        # A polar angle past pi/2 is still a valid one; a negative one
        # measures the mirrored direction, which attains the same value.
        value, polar = float(res.fun), abs(float(res.x[0]))
    # Azimuths phi and phi + pi reach the same singular value.
    azimuth = 0.5 * (cmath.phase(r12) - cmath.phase(r03))
    if azimuth < 0.0:
        azimuth += math.pi
    return value, MeasurementBasis(polar, azimuth)


@functools.cache
def _direction_grid() -> tuple[np.ndarray, np.ndarray]:
    """The fixed scan: (polar, azimuth) rows and their kets' outer products.

    Built on the first general-path call, so X-only runs never hold it.
    """
    polar = np.linspace(0.0, math.pi, _GRID_POLAR)
    azimuth = np.arange(_GRID_AZIMUTH) * (2.0 * math.pi / _GRID_AZIMUTH)
    tt, pp = np.meshgrid(polar, azimuth, indexing="ij")
    kets = np.stack(
        [np.cos(tt / 2.0).ravel() + 0j, np.exp(1j * pp.ravel()) * np.sin(tt.ravel() / 2.0)],
        axis=1,
    )
    angles, outer = np.stack([tt.ravel(), pp.ravel()], axis=1), _outer_products(kets)
    angles.setflags(write=False)
    outer.setflags(write=False)
    return angles, outer


def _wrap_angle(angle: float) -> float:
    """``angle`` modulo 2*pi, in [0, 2*pi).

    A tiny negative angle such as -1e-17 rounds up to exactly 2*pi under a
    plain modulo; it is that close to 0, so it maps there.
    """
    wrapped = float(np.mod(angle, 2.0 * math.pi))
    return wrapped if wrapped < 2.0 * math.pi else 0.0


def _general_conditional_entropy(rho_ab: DensityMatrix) -> tuple[float, MeasurementBasis]:
    """Grid scan plus simplex refinement over projective B measurements."""
    r = rho_ab.matrix.reshape(2, 2, 2, 2)
    angles, outer = _direction_grid()
    values = _conditional_entropy_outer(r, outer)
    best = int(np.argmin(values))
    x0 = angles[best]
    res = minimize(
        _simplex_objective(r),
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 400},
    )
    value = min(float(values[best]), float(res.fun))
    x = res.x if res.fun <= values[best] else x0
    polar_opt = _wrap_angle(x[0])
    azimuth_opt = _wrap_angle(x[1])
    if polar_opt > math.pi:
        polar_opt = 2.0 * math.pi - polar_opt
        azimuth_opt = _wrap_angle(azimuth_opt + math.pi)
    return value, MeasurementBasis(polar_opt, azimuth_opt)


def classical_correlation(
    rho_ab: DensityMatrix, measured: str = "B"
) -> tuple[float, MeasurementBasis]:
    """Maximal classical correlation under projective measurement of one side.

    Measures the side named by ``measured`` ("A" or "B"); the value is the
    entropy of the other side minus the optimized conditional entropy.
    """
    _require_two_qubits(rho_ab)
    if measured not in ("A", "B"):
        raise ValueError("measured side must be 'A' or 'B'")
    work = rho_ab if measured == "B" else _swap_qubits(rho_ab)
    s_unmeasured = qla.von_neumann_entropy(qla.partial_trace(work, [0]))
    cond, basis = _minimize_conditional_entropy(work)
    return s_unmeasured - cond, basis


def _classical_and_discord(rho_ab: DensityMatrix, measured: str) -> tuple[float, float]:
    """Classical correlation J and discord Q = I - J from one optimization.

    A Q below the floor means the optimizer overshot the true minimum.
    """
    cc, _ = classical_correlation(rho_ab, measured)
    q = mutual_information(rho_ab) - cc
    if q < _DISCORD_FLOOR:
        raise RuntimeError(f"discord optimizer failure: Q = {q:.3e} < {_DISCORD_FLOOR}")
    return cc, max(q, 0.0)


def quantum_discord(rho_ab: DensityMatrix, measured: str = "B") -> float:
    """Mutual information minus classical correlation."""
    return _classical_and_discord(rho_ab, measured)[1]


def one_tangle(rho: DensityMatrix, site: int) -> float:
    """Squared correlation of one qubit with everything else.

    Evaluates 4*det of the one-qubit reduction.  For mixed full states the
    value is only an upper-bound proxy.
    """
    if not 0 <= site < len(rho.dims):
        raise ValueError(f"site {site} out of range")
    r = qla.partial_trace(rho, [site]).matrix
    det = np.real(r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0])
    return float(4.0 * det)


def _pairwise_csq(rho: DensityMatrix, ref_site: int, partners) -> float:
    total = 0.0
    for partner in partners:
        c = concurrence(pair_state(rho, PairSelector(ref_site, partner)))
        total += c * c
    return total


def _require_pure(rho: DensityMatrix, what: str) -> DensityMatrix:
    if qla.purity(rho) < 1.0 - _PURITY_GATE:
        raise ValueError(f"{what} requires a pure state, purity = {qla.purity(rho):.6g}")
    return rho


def tangle_pure(state: PureState | DensityMatrix, ref_site: int) -> float:
    """Residual multipartite correlation of a pure state.

    The monogamy residual of the reference site, clipped at zero.
    """
    return max(monogamy_residual(state, ref_site), 0.0)


def tangle_bounds(rho: DensityMatrix, ref_site: int) -> TangleBounds:
    """Mixed-state bracket for the tangle.

    The upper bound replaces the convex-roof one-tangle with
    2*(1 - Tr[rho_i^2]) of a pure state; the lower uses
    2*(Tr[rho^2] - Tr[rho_i^2]).  Both subtract the same pairwise sum.
    Raw values are kept alongside clamped-at-zero variants.
    """
    partners = [k for k in range(len(rho.dims)) if k != ref_site]
    pairwise = _pairwise_csq(rho, ref_site, partners)
    site_purity = qla.purity(qla.partial_trace(rho, [ref_site]))
    upper_csq = 2.0 * (1.0 - site_purity)
    # Round-off can push Tr[rho^2] a hair past one; the lower bound must
    # never exceed the upper.
    lower_csq = 2.0 * (min(qla.purity(rho), 1.0) - site_purity)
    upper_raw = upper_csq - pairwise
    lower_raw = lower_csq - pairwise
    return TangleBounds(lower_raw, upper_raw, max(lower_raw, 0.0), max(upper_raw, 0.0))


def monogamy_residual(state: PureState | DensityMatrix, ref_site: int) -> float:
    """Slack of the squared-concurrence sharing inequality; must be >= 0.

    One-tangle of the reference site minus all squared pairwise concurrences
    with its partners; a deficit beyond 1e-9 is an error.
    """
    rho = _require_pure(_as_density(state), "monogamy residual")
    partners = [k for k in range(len(rho.dims)) if k != ref_site]
    residual = one_tangle(rho, ref_site) - _pairwise_csq(rho, ref_site, partners)
    if residual < -_TANGLE_FLOOR:
        raise ValueError(f"monogamy inequality violated by {residual:.3e}")
    return residual


def entanglement_sum(state: PureState | DensityMatrix) -> float:
    """Sum of squared pairwise concurrences from the first cavity."""
    rho = _require_pure(_as_density(state), "entanglement sum")
    partners = range(1, len(rho.dims))
    return _pairwise_csq(rho, 0, partners)


def delta_fanchini(rho_123: DensityMatrix, measured: str = "partner") -> DeltaResult:
    """Entanglement-vs-discord balance of a three-qubit state.

    delta = E(0,1) + E(0,2) - Q(0,1) - Q(0,2), with each discord measured on
    the partner qubit by default; that orientation makes delta vanish on
    tripartite pure states.  Also returns the slack of the strengthened
    strong-subadditivity inequality S_2 + S_3 + delta <= S_12 + S_13.
    """
    if rho_123.dims != (2, 2, 2):
        raise ValueError(f"expected a three-qubit state, got dims {rho_123.dims}")
    if measured not in ("partner", "reference"):
        raise ValueError("measured must be 'partner' or 'reference'")
    side = "B" if measured == "partner" else "A"
    delta = 0.0
    for partner in (1, 2):
        pair = pair_state(rho_123, PairSelector(0, partner))
        delta += eof_from_concurrence(concurrence(pair))
        delta -= quantum_discord(pair, measured=side)
    s_2 = qla.von_neumann_entropy(qla.partial_trace(rho_123, [1]))
    s_3 = qla.von_neumann_entropy(qla.partial_trace(rho_123, [2]))
    s_12 = qla.von_neumann_entropy(qla.partial_trace(rho_123, [0, 1]))
    s_13 = qla.von_neumann_entropy(qla.partial_trace(rho_123, [0, 2]))
    return DeltaResult(delta, s_12 + s_13 - s_2 - s_3 - delta)
