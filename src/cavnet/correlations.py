"""Correlation measures on multi-qubit states.

Pairwise measures (concurrence, entanglement of formation, mutual
information, classical correlation, quantum discord) act on two-qubit
reductions; the multipartite measures (one-tangles, tangle with its
mixed-state bounds, monogamy residual) act on the full register.

The pairwise measures read the 4x4 matrix directly and build no one-qubit
reduction.  Every entropy except the joint one, which calls ``eigvalsh``,
reads the Bloch matrix R[mu, nu] = Tr[rho sigma_mu (x) sigma_nu], with
sigma_0 the identity: one product of a constant (16, 16) Pauli table with
the flattened matrix.  Write t = R[0, 0], a = R[1:, 0], b = R[0, 1:] and
T = R[1:, 1:].  Qubit A's marginal has the eigenvalues (t -+ |a|)/2, and
measuring B along the unit vector n leaves A with the conditional entropy

    S(A | n) = sum over +- of eta(w/2) - eta((w + r)/4) - eta((w - r)/4),
    w = t +- b.n,  r = |a +- T n|,  eta(x) = x log2 x

(Luo, PRA 77, 042303 (2008); Ali, Rau & Alber, PRA 81, 042105 (2010)).

The concurrence of an X-form state (defined below) is Wootters' formula in
closed form (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)); any other
state takes the general route through the singular values of
sqrt(rho) (sy x sy) conj(sqrt(rho)).  Every pair reduction of the cavity
network is X-form.  The concurrence and the discord dispatch on the same
exact-zero test, ``_is_x_form``.

The discord minimizes S(A | n) over projective measurements of B, and
every search evaluates the formula above.  X-form states, whose entries
off the diagonal and anti-diagonal vanish, have a = a3 z, b = b3 z and a
block-diagonal T: T33 along z and a transverse 2x2 block of larger
singular value 2(|rho_03| + |rho_12|).  With n's transverse part along
that singular vector only the polar angle is left: a short grid over
it plus a 1-D refinement (Ali, Rau & Alber, searched explicitly rather
than trusting their closed form).  Every other state takes a grid
of fixed directions, the columns of a (3, 4096) array n, all evaluated at
once as ``b @ n``, ``T @ n`` and column norms, then a 2-D refinement that
evaluates the formula at one (polar, azimuth) in plain floats.  The
grid's directions are 128 azimuths on the first 32 of 64 polar rows over
[0, pi]: n and -n give the same value, since they swap the two outcomes.
Both refinements run ``minimize``, a compass search on plain float tuples
that starts at the best grid point with a step of half a grid cell.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qla
from .model import cavity_label_to_qubit
from .qla import DensityMatrix

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
    "delta_fanchini",
    "pair_state",
]

_SYSY = np.kron(qla.SIGMA_Y, qla.SIGMA_Y)
_GRID_POLAR = 64
_GRID_AZIMUTH = 128
_PURITY_GATE = 1e-8
_TANGLE_FLOOR = 1e-9
_DISCORD_FLOOR = -1e-8
# The compass search of both discord refinements stops once its step falls below this.
_SEARCH_XATOL = 1e-8
# Polar grid of the X-state search, endpoints 0 and pi/2 included.
_X_GRID = 9
# Mask of the entries of a 4x4 two-qubit matrix off the diagonal and anti-diagonal.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
# Row (mu, nu) dotted with a flattened 4x4 matrix m is Tr[m sigma_mu (x) sigma_nu],
# for sigma_0 = identity, sigma_x, sigma_y, sigma_z.
_PAULIS = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), qla.SIGMA_Y, np.diag([1.0, -1.0]))
_PAULI_TABLE = np.array([np.kron(p, q).T.ravel() for p in _PAULIS for q in _PAULIS])


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
        # Two site tokens, each one digit plus an optional prime.
        tokens = re.fullmatch(r"(\d['′]?)(\d['′]?)", label.strip())
        if tokens is None:
            raise ValueError(f"malformed pair label {label!r}")
        return cls(*(cavity_label_to_qubit(token, sites_per_chain) for token in tokens.groups()))


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
    purity: float


class DeltaResult(NamedTuple):
    delta: float
    ssa_slack: float


class MinimizeResult(NamedTuple):
    x: tuple[float, ...]
    fun: float
    nfev: int


def minimize(fun, x0: tuple[float, ...], step: float) -> MinimizeResult:
    """Compass search for a minimum of ``fun`` over float tuples, from ``x0``.

    Each pass tries x +- ``step`` along each coordinate in turn and moves
    to the first point with a lower value; a pass that moves nowhere
    halves the step, and the search stops once it falls below
    ``_SEARCH_XATOL`` (Kolda, Lewis & Torczon, SIAM Rev. 45, 385 (2003)).
    ``nfev`` counts every evaluation of ``fun``.
    """
    x, best, nfev = x0, fun(x0), 1
    while step >= _SEARCH_XATOL:
        for trial in (x[:k] + (x[k] + d,) + x[k + 1 :] for k in range(len(x)) for d in (step, -step)):
            value = fun(trial)
            nfev += 1
            if value < best:
                x, best = trial, value
                break
        else:
            step *= 0.5
    return MinimizeResult(x, best, nfev)


def _require_two_qubits(rho: DensityMatrix):
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")


def pair_state(rho: DensityMatrix, pair: PairSelector) -> DensityMatrix:
    """Two-qubit reduction with the pair members in the requested order."""
    if max(pair.first, pair.second) >= len(rho.dims):
        raise ValueError(f"pair {pair} out of range for dims {rho.dims}")
    return qla.partial_trace(rho, [pair.first, pair.second])


def _swap_qubits(m: np.ndarray) -> np.ndarray:
    """A 4x4 two-qubit matrix with its qubits exchanged."""
    return m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


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


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation as a function of concurrence."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    p = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    return -_xlog2x(p) - _xlog2x(1.0 - p)


def _bloch(m: np.ndarray) -> np.ndarray:
    """R[mu, nu] = Tr[m sigma_mu (x) sigma_nu] of a Hermitian 4x4 two-qubit matrix, as a real (4, 4)."""
    return np.dot(_PAULI_TABLE, m.ravel()).real.reshape(4, 4)


def _marginal_entropy(bloch: np.ndarray, side: int) -> float:
    """Base-2 entropy of qubit ``side`` (0 = A, 1 = B) of a two-qubit state with Bloch matrix ``bloch``.

    The marginal (t I + v.sigma)/2, with v the Bloch vector a or b, has the
    eigenvalues (t -+ |v|)/2.  The floor and the negativity limit are those
    of ``qla.von_neumann_entropy``.
    """
    t, *v = (bloch[:, 0] if side == 0 else bloch[0]).tolist()
    norm = math.hypot(*v)
    low = 0.5 * (t - norm)
    if low < qla.ENTROPY_NEGATIVE_LIMIT:
        raise ValueError(f"eigenvalue {low:.3e} too negative for entropy")
    total = 0.0
    for w in (low, 0.5 * (t + norm)):
        if w > qla.ENTROPY_EIGENVALUE_FLOOR:
            total -= w * math.log2(w)
    return total


def _pair_entropies(rho_ab: DensityMatrix) -> tuple[float, float, float]:
    """S(A), S(B) and S(AB) in bits of a two-qubit state."""
    r = _bloch(rho_ab.matrix)
    return _marginal_entropy(r, 0), _marginal_entropy(r, 1), qla.von_neumann_entropy(rho_ab)


def mutual_information(rho_ab: DensityMatrix) -> float:
    """S(A) + S(B) - S(AB) in bits for a two-qubit state."""
    _require_two_qubits(rho_ab)
    s_a, s_b, s_ab = _pair_entropies(rho_ab)
    return s_a + s_b - s_ab


def _xlog2x(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def _xlog2x_array(x: np.ndarray) -> np.ndarray:
    return x * np.log2(x, out=np.zeros_like(x), where=x > 0.0)


def _outcome_term(w, r, xlog2x=_xlog2x):
    """One outcome's share eta(w/2) - eta((w + r)/4) - eta((w - r)/4) of S(A | n).

    ``w`` = t +- b.n and ``r`` = |a +- T n|; ``xlog2x`` is eta, on floats
    or, with ``_xlog2x_array``, on arrays.
    """
    return xlog2x(0.5 * w) - xlog2x(0.25 * (w + r)) - xlog2x(0.25 * (w - r))


def _grid_entropies(bloch: np.ndarray, n: np.ndarray) -> np.ndarray:
    """S(A | n) of the Bloch matrix ``bloch`` for every column of a (3, k) array of unit vectors."""
    sign = np.array([[1.0], [-1.0]])
    # a +- T n is built in place and reduced to its norms before w exists: heap growth past
    # the allocator's trim threshold would be handed back and faulted in again every call.
    r = sign * (bloch[1:, 1:] @ n)[:, None]
    r += bloch[1:, 0, None, None]
    r *= r
    r = np.sqrt(r.sum(axis=0))
    w = bloch[0, 0] + sign * (bloch[0, 1:] @ n)
    return _outcome_term(w, r, _xlog2x_array).sum(axis=0)


def _general_objective(bloch: np.ndarray):
    """S(A | n) of the Bloch matrix ``bloch`` at one (polar, azimuth) of n, in plain floats."""
    (t, b1, b2, b3), (a1, t11, t12, t13), (a2, t21, t22, t23), (a3, t31, t32, t33) = bloch.tolist()

    def entropy(x) -> float:
        polar, azimuth = map(float, x)
        s = math.sin(polar)
        n1, n2, n3 = s * math.cos(azimuth), s * math.sin(azimuth), math.cos(polar)
        bn = b1 * n1 + b2 * n2 + b3 * n3
        u1 = t11 * n1 + t12 * n2 + t13 * n3
        u2 = t21 * n1 + t22 * n2 + t23 * n3
        u3 = t31 * n1 + t32 * n2 + t33 * n3
        return _outcome_term(t + bn, math.hypot(a1 + u1, a2 + u2, a3 + u3)) + _outcome_term(
            t - bn, math.hypot(a1 - u1, a2 - u2, a3 - u3)
        )

    return entropy


def _x_objective(m: np.ndarray, bloch: np.ndarray):
    """S(A | n) of an X-form 4x4 matrix at the polar angle theta of n, in plain floats.

    ``bloch`` is the Bloch matrix of ``m``.  n's transverse part lies along
    the larger singular vector of T's transverse block, so
    r = hypot(a3 +- T33 cos, 2(|rho_03| + |rho_12|) sin).
    """
    (t, _, _, b3), _, _, (a3, _, _, t33) = bloch.tolist()
    c_perp = 2.0 * (abs(complex(m[0, 3])) + abs(complex(m[1, 2])))

    def entropy(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        return _outcome_term(t + b3 * c, math.hypot(a3 + t33 * c, c_perp * s)) + _outcome_term(
            t - b3 * c, math.hypot(a3 - t33 * c, c_perp * s)
        )

    return entropy


def _x_conditional_entropy(m: np.ndarray, bloch: np.ndarray) -> tuple[float, MeasurementBasis]:
    """Polar-angle search for an X-form 4x4 matrix ``m`` with Bloch matrix ``bloch``.

    The entropy is least when n's transverse part lies along the larger
    singular vector of T's transverse block, at azimuth
    (arg rho_12 - arg rho_03)/2.  In the polar angle it has period pi and is
    even about theta = 0 and pi/2, so a grid over [0, pi/2] locates the
    minimum and a compass search from the best grid point refines it.
    """
    entropy = _x_objective(m, bloch)
    step = 0.5 * math.pi / (_X_GRID - 1)
    value, polar = min((entropy(k * step), k * step) for k in range(_X_GRID))
    res = minimize(lambda x: entropy(x[0]), (polar,), step / 2.0)
    # Fold the refined angle back into [0, pi/2] by the period and the evenness.
    value, polar = res.fun, res.x[0] % math.pi
    if polar > math.pi / 2.0:
        polar = math.pi - polar
    # Azimuths phi and phi + pi reach the same singular value.
    azimuth = 0.5 * (cmath.phase(m[1, 2]) - cmath.phase(m[0, 3]))
    if azimuth < 0.0:
        azimuth += math.pi
    return value, MeasurementBasis(polar, azimuth)


@functools.cache
def _direction_grid() -> tuple[np.ndarray, np.ndarray]:
    """The fixed scan: (polar, azimuth) rows, and their unit vectors n as the columns of a (3, k) array.

    Built on the first general-path call, so X-only runs never hold it.
    """
    polar = np.linspace(0.0, math.pi, _GRID_POLAR)[: _GRID_POLAR // 2]
    azimuth = np.arange(_GRID_AZIMUTH) * (2.0 * math.pi / _GRID_AZIMUTH)
    tt, pp = (g.ravel() for g in np.meshgrid(polar, azimuth, indexing="ij"))
    angles = np.stack([tt, pp], axis=1)
    n = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)])
    angles.setflags(write=False)
    n.setflags(write=False)
    return angles, n


def _wrap_angle(angle: float) -> float:
    """``angle`` modulo 2*pi, in [0, 2*pi).

    A tiny negative angle such as -1e-17 rounds up to exactly 2*pi under a
    plain modulo; it is that close to 0, so it maps there.
    """
    wrapped = float(np.mod(angle, 2.0 * math.pi))
    return wrapped if wrapped < 2.0 * math.pi else 0.0


def _general_conditional_entropy(bloch: np.ndarray) -> tuple[float, MeasurementBasis]:
    """Grid scan plus compass refinement over projective B measurements, from the Bloch matrix.

    The search starts at the grid's best direction with half an azimuth
    cell as its step; its (polar, azimuth) is folded back onto the sphere.
    """
    angles, n = _direction_grid()
    best = int(np.argmin(_grid_entropies(bloch, n)))
    x, value, _ = minimize(_general_objective(bloch), tuple(angles[best].tolist()), math.pi / _GRID_AZIMUTH)
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
    entropy of the other side minus the optimized conditional entropy:
    X-form states take the exact polar search, all others the general one.
    """
    _require_two_qubits(rho_ab)
    if measured not in ("A", "B"):
        raise ValueError("measured side must be 'A' or 'B'")
    work = rho_ab.matrix if measured == "B" else _swap_qubits(rho_ab.matrix)
    r = _bloch(work)
    cond, basis = _x_conditional_entropy(work, r) if _is_x_form(work) else _general_conditional_entropy(r)
    return _marginal_entropy(r, 0) - cond, basis


def _classical_and_discord(
    rho_ab: DensityMatrix, measured: str, info: float | None = None
) -> tuple[float, float]:
    """Classical correlation J and discord Q = I - J from one optimization.

    ``info`` is the mutual information I where the caller already holds it.
    A Q below the floor means the optimizer overshot the true minimum.
    """
    cc, _ = classical_correlation(rho_ab, measured)
    q = (mutual_information(rho_ab) if info is None else info) - cc
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


def tangle_pure(rho: DensityMatrix, ref_site: int) -> float:
    """Residual multipartite correlation of a pure state.

    The monogamy residual of the reference site, clipped at zero.
    """
    return max(monogamy_residual(rho, ref_site), 0.0)


def tangle_bounds(rho: DensityMatrix, ref_site: int) -> TangleBounds:
    """Mixed-state bracket for the tangle.

    The upper bound is the one-tangle 4 det rho_i of the reference site,
    which on a qubit marginal equals 2*(1 - Tr[rho_i^2]), the convex-roof
    one-tangle of a pure state; the lower replaces it with
    2*(Tr[rho^2] - Tr[rho_i^2]), that is the upper term less
    2*(1 - Tr[rho^2]).  Both subtract the same sum of squared pairwise
    concurrences.  Raw values are kept alongside clamped-at-zero variants,
    followed by the purity Tr[rho^2].
    """
    csq = (concurrence(pair_state(rho, PairSelector(ref_site, k))) for k in range(len(rho.dims)) if k != ref_site)
    upper_raw = one_tangle(rho, ref_site) - sum(c * c for c in csq)
    # Round-off can push Tr[rho^2] a hair past one; the lower bound must
    # never exceed the upper.
    purity = qla.purity(rho)
    lower_raw = upper_raw - 2.0 * (1.0 - min(purity, 1.0))
    return TangleBounds(lower_raw, upper_raw, max(lower_raw, 0.0), max(upper_raw, 0.0), purity)


def monogamy_residual(rho: DensityMatrix, ref_site: int) -> float:
    """Slack of the squared-concurrence sharing inequality; must be >= 0.

    One-tangle of the reference site minus all squared pairwise concurrences
    with its partners, the upper term of ``tangle_bounds``; a deficit beyond
    1e-9 is an error.
    """
    bounds = tangle_bounds(rho, ref_site)
    if bounds.purity < 1.0 - _PURITY_GATE:
        raise ValueError(f"monogamy residual requires a pure state, purity = {bounds.purity:.6g}")
    residual = bounds.upper_raw
    if residual < -_TANGLE_FLOOR:
        raise ValueError(f"monogamy inequality violated by {residual:.3e}")
    return residual


def delta_fanchini(rho_123: DensityMatrix) -> DeltaResult:
    """Entanglement-vs-discord balance of a three-qubit state.

    delta = E(0,1) + E(0,2) - Q(0,1) - Q(0,2), with each discord measured on
    the partner qubit; that orientation makes delta vanish on tripartite
    pure states.  Also returns the slack of the strengthened
    strong-subadditivity inequality S_2 + S_3 + delta <= S_12 + S_13.
    """
    if rho_123.dims != (2, 2, 2):
        raise ValueError(f"expected a three-qubit state, got dims {rho_123.dims}")
    delta, entropies = 0.0, []
    for pair in (pair_state(rho_123, PairSelector(0, other)) for other in (1, 2)):
        s_a, s_b, s_ab = _pair_entropies(pair)  # S(other) and S(0, other) also give the slack
        delta += eof_from_concurrence(concurrence(pair))
        delta -= _classical_and_discord(pair, "B", s_a + s_b - s_ab)[1]
        entropies.append((s_ab, s_b))
    (s_12, s_2), (s_13, s_3) = entropies
    return DeltaResult(delta, s_12 + s_13 - s_2 - s_3 - delta)
