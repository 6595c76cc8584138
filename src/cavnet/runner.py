"""Scenario definitions, transmission ratios, peak extraction, tabular output.

Each named scenario reproduces one figure-style data set as a deterministic
table: identical inputs give byte-identical CSV output.  Every scenario
sweeps (gamma, initial state, theta) through one pipeline: the trajectory
scenarios evaluate per-sample measures listed in one table, ``fig4``
reduces its concurrence series to peaks and ``transmission`` each point to
ratios.  ``custom`` takes its measures from the register size.  Only the
initial states that depend on theta are swept over it.  Times are reported
dimensionless as lambda*t.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import correlations as corr
from . import davies, dynamics, qla
from .model import InitialStateSpec, NetworkConfig, build_initial_state, effective_coupling, interleaved_qubit_order
from .dynamics import Trajectory

__all__ = [
    "ScenarioSpec",
    "PeakEvent",
    "Table",
    "TransmissionResult",
    "SCENARIO_NAMES",
    "run_scenario",
    "transmission_details",
    "peak_sequence",
    "network_trajectory",
]

_THETA_SET = (math.pi / 4, math.pi / 3, math.pi / 8)
PEAK_THRESHOLD = 1e-4
PEAK_GROUP_WINDOW = 0.02
TRANSFER_TIME_LAMBDA = 2.0 * math.pi / 3.0

# The figure defaults of each named scenario, over ScenarioSpec's own.
_NAMED = {
    "fig2": dict(initial=("psi_a",), theta_list=_THETA_SET, gamma=(0.01,), t_max_lambda=20.0),
    "fig3": dict(initial=("psi_a",), theta_list=(math.pi / 4,), gamma=(0.0,)),
    "fig4": dict(initial=("psi_a",), theta_list=(math.pi / 4,), gamma=(0.0,)),
    "fig5": dict(initial=("psi_b",), theta_list=(math.pi / 4,), gamma=(0.05, 0.5), t_max_lambda=20.0),
    "fig6": dict(initial=("rho_eq20",), theta_list=(math.pi / 4,), gamma=(0.01,), t_max_lambda=20.0),
    "fig7": dict(initial=("psi_b",), theta_list=_THETA_SET, gamma=(0.0,)),
    "fig8": dict(initial=("psi_b",), theta_list=(math.pi / 4,), gamma=(0.01,)),
    "fig9": dict(initial=("psi1_chain", "psi2_chain"), theta_list=(math.pi / 4,), gamma=(0.01,)),
    "transmission": dict(
        initial=("psi_a", "psi_b"), theta_list=_THETA_SET, gamma=(0.01,), t_max_lambda=4.0, samples=801
    ),
    "custom": {},
}
SCENARIO_NAMES = tuple(_NAMED)


@dataclass(frozen=True)
class ScenarioSpec:
    """One runnable scenario; ``named`` fills figure-specific defaults."""

    name: str
    initial: tuple[str, ...] = ("psi_a",)
    theta_list: tuple[float, ...] = (math.pi / 4,)
    gamma: tuple[float, ...] = (0.01,)
    gamma_units: str = "abs"
    t_max_lambda: float = 12.0
    samples: int = 800

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}")
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        if not 0 < self.t_max_lambda < math.inf:
            raise ValueError(f"t_max_lambda must be positive and finite, got {self.t_max_lambda}")
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "theta_list", tuple(float(t) for t in self.theta_list))
        g = self.gamma
        if np.isscalar(g):
            g = (float(g),)
        object.__setattr__(self, "gamma", tuple(float(x) for x in g))
        if not (self.initial and self.theta_list and self.gamma):
            raise ValueError("a sweep needs at least one initial state, theta and gamma")

    @classmethod
    def named(cls, name: str, **overrides) -> "ScenarioSpec":
        return cls(name=name, **{**_NAMED.get(name, {}), **overrides})


@dataclass(frozen=True)
class PeakEvent:
    """One interpolated local maximum of a measure series."""

    pair: str
    time_lambda: float
    value: float
    simultaneous_group: int


class TransmissionResult(NamedTuple):
    ratio: float
    peak_time_lambda: float
    ratio_at_transfer: float
    initial_concurrence: float


@dataclass(frozen=True)
class Table:
    """Ordered columns plus rows; floats serialize to 12 significant digits."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            # Adding 0.0 turns -0.0 into 0.0 and leaves every other float as is.
            return f"{value + 0.0:.12g}"
        return str(value)

    def to_csv(self, stream) -> None:
        stream.write(",".join(self.columns) + "\n")
        for row in self.rows:
            stream.write(",".join(self._fmt(v) for v in row) + "\n")

    def to_jsonl(self, stream) -> None:
        for row in self.rows:
            record = {
                col: (float(self._fmt(v)) if isinstance(v, float) else v)
                for col, v in zip(self.columns, row)
            }
            stream.write(json.dumps(record) + "\n")

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def network_trajectory(cfg: NetworkConfig, init: InitialStateSpec, t_max_lambda: float, samples: int) -> Trajectory:
    """Evolve one initial condition over a uniform lambda*t grid.

    Two-chain states take the factorized fast path; single-chain states are
    propagated directly.
    """
    lam = effective_coupling(cfg)
    times = dynamics.sample_grid(t_max_lambda, samples, lam)
    rho0 = build_initial_state(init, cfg)
    chain = davies.chain_generator(cfg)
    if rho0.dim == chain.dim:
        return dynamics.evolve(rho0, chain, times)
    return dynamics.evolve_factorized(rho0, chain, times)


def _pair(label: str) -> corr.PairSelector:
    return corr.PairSelector.from_label(label)


def _concurrence(state, sel: corr.PairSelector) -> float:
    return corr.concurrence(corr.pair_state(state, sel))


def _quadratic_peak(times: np.ndarray, values: np.ndarray, i: int) -> tuple[float, float]:
    """Refine a grid maximum at index i through its three-point parabola."""
    if i <= 0 or i >= len(values) - 1:
        return float(times[i]), float(values[i])
    y0, y1, y2 = values[i - 1], values[i], values[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(times[i]), float(values[i])
    offset = 0.5 * (y0 - y2) / denom
    step = times[i] - times[i - 1]
    return float(times[i] + offset * step), float(y1 - 0.25 * (y0 - y2) * offset)


def peak_sequence(series_by_pair: dict, times_lambda) -> list[PeakEvent]:
    """Interpolated local maxima above ``PEAK_THRESHOLD``, time-ordered and grouped.

    Events whose refined times fall within ``PEAK_GROUP_WINDOW`` (in
    lambda*t) of the first event of a group share a ``simultaneous_group`` id.
    """
    times_lambda = np.asarray(times_lambda, dtype=float)
    raw: list[tuple[float, str, float]] = []
    for label, values in series_by_pair.items():
        values = np.asarray(values, dtype=float)
        if values.shape != times_lambda.shape:
            raise ValueError("series must share the trajectory time grid")
        for i in range(1, len(values) - 1):
            if values[i] > values[i - 1] and values[i] >= values[i + 1]:
                t_peak, v_peak = _quadratic_peak(times_lambda, values, i)
                if v_peak > PEAK_THRESHOLD:
                    raw.append((t_peak, str(label), v_peak))
    raw.sort()
    events: list[PeakEvent] = []
    group = -1
    group_start = -math.inf
    for t_peak, label, v_peak in raw:
        if t_peak - group_start > PEAK_GROUP_WINDOW:
            group += 1
            group_start = t_peak
        events.append(PeakEvent(label, t_peak, v_peak, group))
    return events


def _require_transfer_window(t_max_lambda: float) -> None:
    if t_max_lambda < TRANSFER_TIME_LAMBDA:
        raise ValueError(f"t_max_lambda = {t_max_lambda:g} ends before the transfer time lambda*t = 2*pi/3")


def transmission_details(
    initial: InitialStateSpec,
    cfg: NetworkConfig,
    src: corr.PairSelector,
    dst: corr.PairSelector,
    t_max_lambda: float = 4.0,
    samples: int = 801,
) -> TransmissionResult:
    """Peak concurrence of ``dst`` relative to the initial concurrence of ``src``.

    ``ratio`` is max_t C_dst(t) / C_src(0), the peak located by quadratic
    interpolation; ``ratio_at_transfer`` samples C_dst at lambda*t = 2*pi/3,
    so the window must reach it.
    """
    _require_transfer_window(t_max_lambda)
    traj = network_trajectory(cfg, initial, t_max_lambda, samples)
    c0 = _concurrence(traj.states[0], src)
    if c0 <= 1e-12:
        raise ValueError("initial concurrence of the source pair vanishes")
    series = np.array([_concurrence(s, dst) for s in traj.states])
    i = int(np.argmax(series))
    t_peak, v_peak = _quadratic_peak(traj.times_lambda, series, i)
    at_transfer = float(np.interp(TRANSFER_TIME_LAMBDA, traj.times_lambda, series))
    return TransmissionResult(v_peak / c0, t_peak, at_transfer / c0, c0)


def _eof_discord(state, sel: corr.PairSelector) -> tuple[float, float]:
    sub = corr.pair_state(state, sel)
    return corr.eof_from_concurrence(corr.concurrence(sub)), corr.quantum_discord(sub)


def _classical_discord_eof(state, sel: corr.PairSelector) -> tuple[float, float, float]:
    sub = corr.pair_state(state, sel)
    cc, q = corr._classical_and_discord(sub, "B")
    return cc, q, corr.eof_from_concurrence(corr.concurrence(sub))


_SWEEP_COLUMNS = ("initial", "theta", "gamma")
_P11, _P21, _P33 = _pair("11'"), _pair("21'"), _pair("33'")
_PEAK_PAIRS = ("11'", "22'", "33'")
_PEAK_SELECTORS = tuple(_pair(label) for label in _PEAK_PAIRS)

# Per-sample measures of the trajectory scenarios: the columns each fills
# and a function of one state returning their values.  Measures of one pair
# share its pair_state and at most one discord optimization.
_MEASURES = {
    "fig2": (("conc_33p",), lambda s: (_concurrence(s, _P33),)),
    "fig3": (("det_1", "det_2", "det_3"), lambda s: tuple(corr.one_tangle(s, k) for k in range(3))),
    "fig4": (_PEAK_PAIRS, lambda s: tuple(_concurrence(s, sel) for sel in _PEAK_SELECTORS)),
    "fig5": (("eof_33p", "discord_33p"), lambda s: _eof_discord(s, _P33)),
    "fig6": (("cc_21p", "discord_21p", "eof_21p"), lambda s: _classical_discord_eof(s, _P21)),
    "fig7": (("tangle",), lambda s: (corr.tangle_pure(s, 0),)),
    "fig8": (
        ("tangle_lower_raw", "tangle_upper_raw", "tangle_lower", "tangle_upper", "purity"),
        lambda s: tuple(corr.tangle_bounds(s, 0)),
    ),
    "fig9": (("delta", "ssa_slack"), lambda s: tuple(corr.delta_fanchini(s))),
}

# Columns of the scenarios that reduce each sweep point to other records.
_REDUCED_COLUMNS = {
    "fig4": ("pair", "lambda_t", "value", "simultaneous_group"),
    "transmission": ("src", "dst", "ratio_max", "peak_lambda_t", "ratio_at_transfer"),
}


def _register_measures(nq: int):
    """``custom``: purity, pair concurrences and one-tangles of an nq-qubit register.

    The six-qubit network is labelled by cavity and keeps the three
    cross-chain pairs 11', 22', 33'; other registers number their qubits
    from 1 and keep every pair.
    """
    if nq == 6:
        labels = _PEAK_PAIRS
        pairs = _PEAK_SELECTORS
        sites = ("1", "1p", "2", "2p", "3", "3p")
        site_order = interleaved_qubit_order(3, 2)
    else:
        pairs = tuple(corr.PairSelector(a, b) for a in range(nq) for b in range(a + 1, nq))
        labels = tuple(f"{p.first + 1}{p.second + 1}" for p in pairs)
        sites = tuple(str(k + 1) for k in range(nq))
        site_order = tuple(range(nq))
    columns = (
        ("purity",)
        + tuple(f"conc_{label.replace(chr(39), 'p')}" for label in labels)
        + tuple(f"det_{site}" for site in sites)
    )

    def measure(state):
        return (
            qla.purity(state),
            *(_concurrence(state, sel) for sel in pairs),
            *(corr.one_tangle(state, site) for site in site_order),
        )

    return columns, measure


def _sweep(spec: ScenarioSpec, cfg: NetworkConfig) -> list[tuple[float, NetworkConfig, InitialStateSpec]]:
    """Validated sweep points as (gamma, network config, initial state).

    Scenarios are defined on two three-cavity chains: their columns name
    cavities 1..3 and 1'..3', so any other network is rejected.  The
    initial states must share one register, and a named scenario's must be
    on the register of its own defaults, whose columns it fills; a
    ``transmission`` window must reach the transfer time.  Each point runs
    with the spec's gamma and gamma units in place of ``cfg.gamma`` and
    ``cfg.gamma_units``.  Kinds that ignore theta run once per gamma,
    labelled with the sweep's first theta, instead of once per theta with
    identical rows.
    """
    if (cfg.sites_per_chain, cfg.num_chains) != (3, 2):
        raise ValueError(
            f"scenarios run on two chains of three cavities, got num_chains = {cfg.num_chains}, "
            f"sites_per_chain = {cfg.sites_per_chain}"
        )
    points = []
    for gamma in spec.gamma:
        scenario_cfg = replace(cfg, gamma=gamma, gamma_units=spec.gamma_units)
        for kind in spec.initial:
            thetas = spec.theta_list if kind in InitialStateSpec.THETA_KINDS else spec.theta_list[:1]
            points.extend((gamma, scenario_cfg, InitialStateSpec(kind, theta)) for theta in thetas)
    on_chain = {kind in InitialStateSpec.CHAIN_KINDS for kind in spec.initial}
    if len(on_chain) > 1:
        raise ValueError(f"sweep mixes incompatible registers: {', '.join(spec.initial)}")
    own = _NAMED[spec.name].get("initial")
    if own and on_chain != {own[0] in InitialStateSpec.CHAIN_KINDS}:
        raise ValueError(f"{spec.name} measures states on the register of {', '.join(own)}, not {', '.join(spec.initial)}")
    if spec.name == "transmission":
        _require_transfer_window(spec.t_max_lambda)
    return points


def run_scenario(spec: ScenarioSpec, cfg: NetworkConfig) -> Table:
    """Produce the tabular records of one named scenario.

    ``transmission`` reduces each sweep point of ``_sweep`` to its
    11' -> 33' ratios.  The other scenarios evolve one trajectory per point
    and evaluate their measures on every sample; ``fig4`` then reduces its
    concurrence series to peak events.
    """
    rows = []
    for gamma, c, init in _sweep(spec, cfg):
        point = (init.kind, init.theta, gamma)
        if spec.name == "transmission":
            res = transmission_details(init, c, _P11, _P33, spec.t_max_lambda, spec.samples)
            rows.append(point + ("11'", "33'", res.ratio, res.peak_time_lambda, res.ratio_at_transfer))
            continue
        traj = network_trajectory(c, init, spec.t_max_lambda, spec.samples)
        nq = len(traj.states[0].dims)
        columns, measure = _register_measures(nq) if spec.name == "custom" else _MEASURES[spec.name]
        values = [measure(state) for state in traj.states]
        if spec.name == "fig4":
            events = peak_sequence(dict(zip(columns, zip(*values))), traj.times_lambda)
            rows.extend(point + (ev.pair, ev.time_lambda, ev.value, ev.simultaneous_group) for ev in events)
        else:
            rows.extend(point + (float(lt),) + v for lt, v in zip(traj.times_lambda, values))
    return Table(_SWEEP_COLUMNS + (_REDUCED_COLUMNS.get(spec.name) or ("lambda_t",) + columns), tuple(rows))

