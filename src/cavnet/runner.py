"""Scenario definitions, transmission ratios, peak extraction, tabular output.

Each named scenario reproduces one figure-style data set as a deterministic
table: identical inputs give byte-identical CSV output.  Every scenario
sweeps (gamma, initial state, theta) through one pipeline: the trajectory
scenarios evaluate measures listed in one table, each a function of the
trajectory returning one row per sample, ``fig4`` reduces its concurrence
series to peaks and ``transmission`` each point to ratios.  The pair and
site series of ``fig2``, ``fig3``, ``fig4``, ``custom`` and
``transmission`` are read from the trajectory's reduced samples in one
pass, and so are the pair states of ``fig5`` and ``fig6``, whose discord
searches then run one per sample; ``custom`` takes its purity from the
samples on their support, and its pairs and sites from the register
size.  ``fig8`` reads its tangle bracket from the reduced samples, and
its purity from the samples on their support.  Only ``fig7`` and
``fig9`` evaluate the samples as states.  Only the initial states that
depend on theta are swept over it.  Times are reported dimensionless as
lambda*t.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import correlations as corr
from . import davies, dynamics, qla
from .model import InitialStateSpec, NetworkConfig, build_initial_state, cavity_label_to_qubit, effective_coupling
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


def _concurrence_series(traj: Trajectory, pairs) -> list[list[float]]:
    """The concurrence of each of ``pairs`` at every sample, one list per pair, from one reduced stack."""
    stack = traj.reduced((sel.first, sel.second) for sel in pairs)
    return [corr.concurrence_series(stack[:, q]) for q in range(len(pairs))]


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
    c0 = corr.concurrence(corr.pair_state(traj.initial, src))
    if c0 <= 1e-12:
        raise ValueError("initial concurrence of the source pair vanishes")
    series = np.array(_concurrence_series(traj, (dst,))[0])
    i = int(np.argmax(series))
    t_peak, v_peak = _quadratic_peak(traj.times_lambda, series, i)
    at_transfer = float(np.interp(TRANSFER_TIME_LAMBDA, traj.times_lambda, series))
    return TransmissionResult(v_peak / c0, t_peak, at_transfer / c0, c0)


def _pair_rows(sel: corr.PairSelector, row):
    """Measure: ``row(pair state, entanglement of formation)`` of the pair ``sel`` at every sample.

    Every sample's ``pair_state`` is read from the reduced samples in one
    checked stack, whose concurrences come from ``concurrence_series``.
    """

    def measure(traj: Trajectory) -> list[tuple[float, ...]]:
        stack = traj.reduced([(sel.first, sel.second)])[:, 0]
        states = qla._wrap_checked(stack, (traj.dims[sel.first], traj.dims[sel.second]))
        return [row(sub, corr.eof_from_concurrence(c)) for sub, c in zip(states, corr.concurrence_series(stack))]

    return measure


_SWEEP_COLUMNS = ("initial", "theta", "gamma")
_P11, _P21, _P33 = _pair("11'"), _pair("21'"), _pair("33'")
_PEAK_PAIRS = ("11'", "22'", "33'")
_PEAK_SELECTORS = tuple(_pair(label) for label in _PEAK_PAIRS)


def _per_sample(measure):
    """A measure of one state, evaluated on every sample of a trajectory."""
    return lambda traj: [measure(state) for state in traj.states]


def _concurrences(*pairs):
    """Measure: the concurrences of ``pairs``, read from the trajectory's reduced samples."""
    return lambda traj: list(zip(*_concurrence_series(traj, pairs)))


def _one_tangles(*sites):
    """Measure: the one-tangles of ``sites``, read from the trajectory's reduced samples."""
    return lambda traj: list(map(tuple, corr.one_tangle_series(traj.reduced((site,) for site in sites)).tolist()))


def _purities(traj: Trajectory) -> np.ndarray:
    """Tr[rho^2] of every sample, as ||samples[k]||_F^2 on the support."""
    return np.array([np.vdot(m, m).real for m in traj.samples])


def _tangle_brackets(traj: Trajectory, ref_site: int) -> list[tuple[float, ...]]:
    """``corr.tangle_bounds(state, ref_site)`` of every sample, read from the samples on their support.

    The one-tangles of ``ref_site`` come from one reduced stack, and the
    concurrences of its partner pairs from another, measured by one
    ``concurrence_series``.  Their squares are summed pair by pair in
    ``tangle_bounds``'s order, so the upper terms are its own bit for bit;
    the purity is ``_purities``', which may differ from ``qla.purity`` of
    the whole 64x64 state in its last bits, and so may the lower terms.
    """
    pairs = corr._partner_keeps(len(traj.dims), ref_site)
    tangles = corr.one_tangle_series(traj.reduced([(ref_site,)])[:, 0])
    stack = traj.reduced(pairs)
    concurrences = np.reshape(corr.concurrence_series(stack.reshape(-1, 4, 4)), (len(traj), len(pairs)))
    upper = tangles - sum(c * c for c in concurrences.T)
    purity = _purities(traj)
    # As in tangle_bounds: the lower bound must never exceed the upper.
    lower = upper - 2.0 * (1.0 - np.minimum(purity, 1.0))
    return list(zip(*(a.tolist() for a in (lower, upper, np.maximum(lower, 0.0), np.maximum(upper, 0.0), purity))))


# Measures of the trajectory scenarios: the columns each fills and a
# function of the trajectory returning one row of their values per sample.
# fig2 to fig6 and fig8 read the reduced samples at once: fig5 and fig6
# take their pair states and concurrences from them, and run one discord
# optimization per sample, and fig8 its tangle bracket, with the purity
# of the samples on their support.  fig7 and fig9 take the samples as
# states, whose per-state functions the benchmark times.
_MEASURES = {
    "fig2": (("conc_33p",), _concurrences(_P33)),
    "fig3": (("det_1", "det_2", "det_3"), _one_tangles(0, 1, 2)),
    "fig4": (_PEAK_PAIRS, _concurrences(*_PEAK_SELECTORS)),
    "fig5": (("eof_33p", "discord_33p"), _pair_rows(_P33, lambda sub, eof: (eof, corr.quantum_discord(sub)))),
    "fig6": (
        ("cc_21p", "discord_21p", "eof_21p"),
        _pair_rows(_P21, lambda sub, eof: (*corr._classical_and_discord(sub, "B"), eof)),
    ),
    "fig7": (("tangle",), _per_sample(lambda s: (corr.tangle_pure(s, 0),))),
    "fig8": (
        ("tangle_lower_raw", "tangle_upper_raw", "tangle_lower", "tangle_upper", "purity"),
        lambda traj: _tangle_brackets(traj, 0),
    ),
    "fig9": (("delta", "ssa_slack"), _per_sample(lambda s: tuple(corr.delta_fanchini(s)))),
}

# Columns of the scenarios that reduce each sweep point to other records.
_REDUCED_COLUMNS = {
    "fig4": ("pair", "lambda_t", "value", "simultaneous_group"),
    "transmission": ("src", "dst", "ratio_max", "peak_lambda_t", "ratio_at_transfer"),
}


def _register_measures(pair_labels: tuple[str, ...], site_labels: tuple[str, ...]):
    """Columns and measure of purity, pair concurrences and one-tangles, read from the samples on their support."""
    concurrences = _concurrences(*(_pair(label) for label in pair_labels))
    tangles = _one_tangles(*(cavity_label_to_qubit(label) for label in site_labels))
    columns = ("purity",) + tuple(f"conc_{p}" for p in pair_labels) + tuple(f"det_{s}" for s in site_labels)

    def measure(traj: Trajectory) -> list[tuple[float, ...]]:
        return [(p, *c, *d) for p, c, d in zip(_purities(traj).tolist(), concurrences(traj), tangles(traj))]

    return tuple(c.replace("'", "p") for c in columns), measure


# ``custom``'s measures by register size: the six-qubit network keeps the
# three cross-chain pairs, a three-qubit chain every pair.
_REGISTER_MEASURES = {
    6: _register_measures(_PEAK_PAIRS, ("1", "1'", "2", "2'", "3", "3'")),
    3: _register_measures(("12", "13", "23"), ("1", "2", "3")),
}


def _sweep(spec: ScenarioSpec, cfg: NetworkConfig) -> list[tuple[float, NetworkConfig, InitialStateSpec]]:
    """Validated sweep points as (gamma, network config, initial state).

    Scenarios are defined on two three-cavity chains: their columns name
    cavities 1..3 and 1'..3', so any other network is rejected.  The
    initial states must share one register, and a named scenario's must be
    on the register of its own defaults, whose columns it fills; a
    ``transmission`` window must reach the transfer time.  Each point runs
    with the spec's gamma and gamma units, so a ``cfg`` whose own differ
    from ``NetworkConfig``'s defaults is rejected rather than overridden.
    Every theta is checked for every kind, but kinds that ignore theta run
    once per gamma, labelled with the sweep's first theta, instead of once
    per theta with identical rows.
    """
    if (cfg.sites_per_chain, cfg.num_chains) != (3, 2):
        raise ValueError(
            f"scenarios run on two chains of three cavities, got num_chains = {cfg.num_chains}, "
            f"sites_per_chain = {cfg.sites_per_chain}"
        )
    if (cfg.gamma, cfg.gamma_units) != (NetworkConfig.gamma, NetworkConfig.gamma_units):
        raise ValueError(
            f"the sweep takes gamma and its units from the ScenarioSpec; the NetworkConfig sets "
            f"gamma = {cfg.gamma:g}, gamma_units = {cfg.gamma_units!r}"
        )
    points = []
    for gamma in spec.gamma:
        scenario_cfg = replace(cfg, gamma=gamma, gamma_units=spec.gamma_units)
        for kind in spec.initial:
            inits = [InitialStateSpec(kind, theta) for theta in spec.theta_list]
            if kind not in InitialStateSpec.THETA_KINDS:
                inits = inits[:1]
            points.extend((gamma, scenario_cfg, init) for init in inits)
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
        columns, measure = _REGISTER_MEASURES[len(traj.dims)] if spec.name == "custom" else _MEASURES[spec.name]
        values = measure(traj)
        if spec.name == "fig4":
            events = peak_sequence(dict(zip(columns, zip(*values))), traj.times_lambda)
            rows.extend(point + (ev.pair, ev.time_lambda, ev.value, ev.simultaneous_group) for ev in events)
        else:
            rows.extend(point + (float(lt),) + v for lt, v in zip(traj.times_lambda, values))
    return Table(_SWEEP_COLUMNS + (_REDUCED_COLUMNS.get(spec.name) or ("lambda_t",) + columns), tuple(rows))

