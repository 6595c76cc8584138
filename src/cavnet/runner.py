"""Scenario definitions, transmission ratios, peak extraction, tabular output.

Each named scenario reproduces one figure-style data set as a deterministic
table: identical inputs give byte-identical CSV output.  Times are reported
dimensionless as lambda*t.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import correlations as corr
from . import davies, dynamics, qla
from .model import InitialStateSpec, NetworkConfig, build_initial_state, effective_coupling
from .dynamics import IntegratorConfig, Trajectory

__all__ = [
    "ScenarioSpec",
    "PeakEvent",
    "Table",
    "TransmissionResult",
    "SCENARIO_NAMES",
    "run_scenario",
    "simulate_table",
    "transmission_ratio",
    "transmission_details",
    "peak_sequence",
    "network_trajectory",
    "load_config",
]

SCENARIO_NAMES = (
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "transmission",
    "custom",
)

_THETA_SET = (math.pi / 4, math.pi / 3, math.pi / 8)
PEAK_THRESHOLD = 1e-4
PEAK_GROUP_WINDOW = 0.02
TRANSFER_TIME_LAMBDA = 2.0 * math.pi / 3.0


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
    columns: tuple[str, ...] = ()

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}")
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        if not self.t_max_lambda > 0:
            raise ValueError("t_max_lambda must be positive")
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "theta_list", tuple(float(t) for t in self.theta_list))
        g = self.gamma
        if np.isscalar(g):
            g = (float(g),)
        object.__setattr__(self, "gamma", tuple(float(x) for x in g))

    @classmethod
    def named(cls, name: str, **overrides) -> "ScenarioSpec":
        defaults = {
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
            "custom": dict(),
        }
        if name not in defaults:
            raise ValueError(f"unknown scenario {name!r}")
        kwargs = dict(defaults[name])
        kwargs.update(overrides)
        return cls(name=name, **kwargs)


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
            return f"{value:.12g}"
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


def _scenario_config(cfg: NetworkConfig, gamma: float, gamma_units: str) -> NetworkConfig:
    return replace(cfg, gamma=gamma, gamma_units=gamma_units)


def network_trajectory(
    cfg: NetworkConfig,
    init: InitialStateSpec,
    t_max_lambda: float,
    samples: int,
    icfg: IntegratorConfig | None = None,
) -> Trajectory:
    """Evolve one initial condition over a uniform lambda*t grid.

    Two-chain states take the factorized fast path; single-chain states are
    propagated directly.
    """
    lam = effective_coupling(cfg)
    times = dynamics.sample_grid(t_max_lambda, samples, lam)
    rho0 = build_initial_state(init, cfg)
    chain = davies.chain_generator(cfg)
    meta = {"initial": init, "config": cfg}
    if rho0.dim == chain.dim**2:
        return dynamics.evolve_factorized(rho0, chain, times, icfg, metadata=meta)
    if rho0.dim == chain.dim:
        return dynamics.evolve(rho0, chain, times, icfg, metadata=meta)
    raise ValueError(f"initial state dimension {rho0.dim} fits neither register")


def _pair(label: str) -> corr.PairSelector:
    return corr.PairSelector.from_label(label)


def _concurrence_series(traj: Trajectory, label: str) -> np.ndarray:
    sel = _pair(label)
    return np.array([corr.concurrence(corr.pair_state(s, sel)) for s in traj.states])


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


def peak_sequence(series_by_pair, times_lambda, threshold: float = PEAK_THRESHOLD, group_window: float = PEAK_GROUP_WINDOW) -> list[PeakEvent]:
    """Interpolated local maxima above threshold, time-ordered and grouped.

    Events whose refined times fall within ``group_window`` (in lambda*t) of
    the first event of a group share a ``simultaneous_group`` id.
    """
    times_lambda = np.asarray(times_lambda, dtype=float)
    if isinstance(series_by_pair, dict):
        items = list(series_by_pair.items())
    else:
        items = list(series_by_pair)
    raw: list[tuple[float, str, float]] = []
    for label, values in items:
        values = np.asarray(values, dtype=float)
        if values.shape != times_lambda.shape:
            raise ValueError("series must share the trajectory time grid")
        for i in range(1, len(values) - 1):
            if values[i] > values[i - 1] and values[i] >= values[i + 1]:
                t_peak, v_peak = _quadratic_peak(times_lambda, values, i)
                if v_peak > threshold:
                    raw.append((t_peak, str(label), v_peak))
    raw.sort()
    events: list[PeakEvent] = []
    group = -1
    group_start = -math.inf
    for t_peak, label, v_peak in raw:
        if t_peak - group_start > group_window:
            group += 1
            group_start = t_peak
        events.append(PeakEvent(label, t_peak, v_peak, group))
    return events


def transmission_details(
    initial: InitialStateSpec,
    cfg: NetworkConfig,
    src: corr.PairSelector,
    dst: corr.PairSelector,
    t_max_lambda: float = 4.0,
    samples: int = 801,
    icfg: IntegratorConfig | None = None,
) -> TransmissionResult:
    """Peak concurrence of ``dst`` relative to the initial concurrence of ``src``."""
    traj = network_trajectory(cfg, initial, t_max_lambda, samples, icfg)
    c0 = corr.concurrence(corr.pair_state(traj.states[0], src))
    if c0 <= 1e-12:
        raise ValueError("initial concurrence of the source pair vanishes")
    series = np.array([corr.concurrence(corr.pair_state(s, dst)) for s in traj.states])
    i = int(np.argmax(series))
    t_peak, v_peak = _quadratic_peak(traj.times_lambda, series, i)
    at_transfer = float(np.interp(TRANSFER_TIME_LAMBDA, traj.times_lambda, series))
    return TransmissionResult(v_peak / c0, t_peak, at_transfer / c0, c0)


def transmission_ratio(
    initial: InitialStateSpec,
    cfg: NetworkConfig,
    src: corr.PairSelector,
    dst: corr.PairSelector,
    t_max_lambda: float = 4.0,
    samples: int = 801,
    icfg: IntegratorConfig | None = None,
) -> float:
    """max_t C_dst(t) / C_src(0), the peak located by quadratic interpolation."""
    return transmission_details(initial, cfg, src, dst, t_max_lambda, samples, icfg).ratio


def _base_columns() -> tuple[str, ...]:
    return ("initial", "theta", "gamma", "lambda_t")


def simulate_table(
    init: InitialStateSpec,
    cfg: NetworkConfig,
    t_max_lambda: float,
    samples: int,
    icfg: IntegratorConfig | None = None,
) -> Table:
    """Raw trajectory with the standard measure set for one initial state."""
    traj = network_trajectory(cfg, init, t_max_lambda, samples, icfg)
    gamma = cfg.gamma[0]
    nq = len(traj.states[0].dims)
    if nq == 6:
        pairs = {lbl: _pair(lbl) for lbl in ("11'", "22'", "33'")}
        site_labels = ("1", "1p", "2", "2p", "3", "3p")
        site_order = (0, 3, 1, 4, 2, 5)
    else:
        pairs = {
            f"{a + 1}{b + 1}": corr.PairSelector(a, b)
            for a in range(nq)
            for b in range(a + 1, nq)
        }
        site_labels = tuple(str(k + 1) for k in range(nq))
        site_order = tuple(range(nq))
    conc_cols = tuple(f"conc_{lbl.replace(chr(39), 'p')}" for lbl in pairs)
    det_cols = tuple(f"det_{lbl}" for lbl in site_labels)
    columns = _base_columns() + ("purity",) + conc_cols + det_cols
    rows = []
    for k, lt in enumerate(traj.times_lambda):
        state = traj.states[k]
        row = [init.kind, init.theta, gamma, float(lt), qla.purity(state)]
        for sel in pairs.values():
            row.append(corr.concurrence(corr.pair_state(state, sel)))
        for site in site_order:
            row.append(corr.one_tangle(state, site, "det"))
        rows.append(tuple(row))
    return Table(columns, tuple(rows))


def run_scenario(spec: ScenarioSpec, cfg: NetworkConfig, icfg: IntegratorConfig | None = None) -> Table:
    """Produce the tabular records of one named scenario."""
    handlers = {
        "fig2": _scenario_fig2,
        "fig3": _scenario_fig3,
        "fig4": _scenario_fig4,
        "fig5": _scenario_fig5,
        "fig6": _scenario_fig6,
        "fig7": _scenario_fig7,
        "fig8": _scenario_fig8,
        "fig9": _scenario_fig9,
        "transmission": _scenario_transmission,
        "custom": _scenario_custom,
    }
    return handlers[spec.name](spec, cfg, icfg)


def _sweep(spec: ScenarioSpec, cfg: NetworkConfig):
    for gamma in spec.gamma:
        scenario_cfg = _scenario_config(cfg, gamma, spec.gamma_units)
        for kind in spec.initial:
            for theta in spec.theta_list:
                yield gamma, scenario_cfg, InitialStateSpec(kind, theta)


def _scenario_fig2(spec, cfg, icfg) -> Table:
    columns = _base_columns() + ("conc_33p",)
    rows = []
    for gamma, c, init in _sweep(spec, cfg):
        traj = network_trajectory(c, init, spec.t_max_lambda, spec.samples, icfg)
        series = _concurrence_series(traj, "33'")
        for lt, v in zip(traj.times_lambda, series):
            rows.append((init.kind, init.theta, gamma, float(lt), float(v)))
    return Table(columns, tuple(rows))


def _scenario_fig3(spec, cfg, icfg) -> Table:
    columns = _base_columns() + ("det_1", "det_2", "det_3")
    rows = []
    for gamma, c, init in _sweep(spec, cfg):
        traj = network_trajectory(c, init, spec.t_max_lambda, spec.samples, icfg)
        for k, lt in enumerate(traj.times_lambda):
            state = traj.states[k]
            rows.append(
                (
                    init.kind,
                    init.theta,
                    gamma,
                    float(lt),
                    corr.one_tangle(state, 0, "det"),
                    corr.one_tangle(state, 1, "det"),
                    corr.one_tangle(state, 2, "det"),
                )
            )
    return Table(columns, tuple(rows))


def _scenario_fig4(spec, cfg, icfg) -> Table:
    columns = ("initial", "theta", "gamma", "pair", "lambda_t", "value", "simultaneous_group")
    rows = []
    for gamma, c, init in _sweep(spec, cfg):
        traj = network_trajectory(c, init, spec.t_max_lambda, spec.samples, icfg)
        series = {lbl: _concurrence_series(traj, lbl) for lbl in ("11'", "22'", "33'")}
        for ev in peak_sequence(series, traj.times_lambda):
            rows.append((init.kind, init.theta, gamma, ev.pair, ev.time_lambda, ev.value, ev.simultaneous_group))
    return Table(columns, tuple(rows))


def _scenario_fig5(spec, cfg, icfg) -> Table:
    columns = _base_columns() + ("eof_33p", "discord_33p")
    sel = _pair("33'")
    rows = []
    for gamma, c, init in _sweep(spec, cfg):
        traj = network_trajectory(c, init, spec.t_max_lambda, spec.samples, icfg)
        for k, lt in enumerate(traj.times_lambda):
            sub = corr.pair_state(traj.states[k], sel)
            e = corr.eof_from_concurrence(corr.concurrence(sub))
            q = corr.quantum_discord(sub)
            rows.append((init.kind, init.theta, gamma, float(lt), e, q))
    return Table(columns, tuple(rows))


def _scenario_fig6(spec, cfg, icfg) -> Table:
    columns = _base_columns() + ("cc_21p", "discord_21p", "eof_21p")
    sel = _pair("21'")
    rows = []
    for gamma, c, init in _sweep(spec, cfg):
        traj = network_trajectory(c, init, spec.t_max_lambda, spec.samples, icfg)
        for k, lt in enumerate(traj.times_lambda):
            sub = corr.pair_state(traj.states[k], sel)
            cc, _ = corr.classical_correlation(sub, "B")
            q = corr.mutual_information(sub) - cc
            e = corr.eof_from_concurrence(corr.concurrence(sub))
            rows.append((init.kind, init.theta, gamma, float(lt), cc, max(q, 0.0), e))
    return Table(columns, tuple(rows))


def _scenario_fig7(spec, cfg, icfg) -> Table:
    columns = _base_columns() + ("tangle",)
    rows = []
    for gamma, c, init in _sweep(spec, cfg):
        traj = network_trajectory(c, init, spec.t_max_lambda, spec.samples, icfg)
        for k, lt in enumerate(traj.times_lambda):
            rows.append((init.kind, init.theta, gamma, float(lt), corr.tangle_pure(traj.states[k], 0)))
    return Table(columns, tuple(rows))


def _scenario_fig8(spec, cfg, icfg) -> Table:
    columns = _base_columns() + ("tangle_lower_raw", "tangle_upper_raw", "tangle_lower", "tangle_upper", "purity")
    rows = []
    for gamma, c, init in _sweep(spec, cfg):
        traj = network_trajectory(c, init, spec.t_max_lambda, spec.samples, icfg)
        for k, lt in enumerate(traj.times_lambda):
            state = traj.states[k]
            b = corr.tangle_bounds(state, 0)
            rows.append(
                (init.kind, init.theta, gamma, float(lt), b.lower_raw, b.upper_raw, b.lower, b.upper, qla.purity(state))
            )
    return Table(columns, tuple(rows))


def _scenario_fig9(spec, cfg, icfg) -> Table:
    columns = _base_columns() + ("delta", "ssa_slack")
    rows = []
    for gamma, c, init in _sweep(spec, cfg):
        traj = network_trajectory(c, init, spec.t_max_lambda, spec.samples, icfg)
        for k, lt in enumerate(traj.times_lambda):
            d = corr.delta_fanchini(traj.states[k])
            rows.append((init.kind, init.theta, gamma, float(lt), d.delta, d.ssa_slack))
    return Table(columns, tuple(rows))


def _scenario_transmission(spec, cfg, icfg) -> Table:
    columns = ("initial", "theta", "gamma", "src", "dst", "ratio_max", "peak_lambda_t", "ratio_at_transfer")
    src, dst = _pair("11'"), _pair("33'")
    rows = []
    for gamma, c, init in _sweep(spec, cfg):
        res = transmission_details(init, c, src, dst, spec.t_max_lambda, spec.samples, icfg)
        rows.append(
            (init.kind, init.theta, gamma, "11'", "33'", res.ratio, res.peak_time_lambda, res.ratio_at_transfer)
        )
    return Table(columns, tuple(rows))


def _scenario_custom(spec, cfg, icfg) -> Table:
    tables = []
    for gamma, c, init in _sweep(spec, cfg):
        tables.append(simulate_table(init, c, spec.t_max_lambda, spec.samples, icfg))
    columns = tables[0].columns
    rows = []
    for t in tables:
        if t.columns != columns:
            raise ValueError("custom sweep mixes incompatible registers")
        rows.extend(t.rows)
    return Table(columns, tuple(rows))


def load_config(path) -> dict:
    """Parse an INI-style config with [network], [integrator], [scenario]."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file {path} not found")
    out: dict = {"network": {}, "integrator": {}, "scenario": {}}
    if parser.has_section("network"):
        sec = parser["network"]
        for key in ("sites_per_chain", "num_chains"):
            if key in sec:
                out["network"][key] = sec.getint(key)
        for key in ("omega", "nu", "omega_f", "j", "kappa", "fiber_length_l", "fiber_continuum_decay_mu"):
            if key in sec:
                out["network"]["J" if key == "j" else key] = sec.getfloat(key)
        if "gamma" in sec:
            parts = [float(x) for x in sec["gamma"].replace(",", " ").split()]
            out["network"]["gamma"] = parts[0] if len(parts) == 1 else tuple(parts)
        if "gamma_units" in sec:
            out["network"]["gamma_units"] = sec["gamma_units"].strip()
    if parser.has_section("integrator"):
        sec = parser["integrator"]
        for key in ("rel_tol", "abs_tol", "max_step"):
            if key in sec:
                raise ValueError(
                    f"[integrator] {key} is not supported: propagation is exact, only trace_guard applies"
                )
        if "trace_guard" in sec:
            out["integrator"]["trace_guard"] = sec.getfloat("trace_guard")
    if parser.has_section("scenario"):
        sec = parser["scenario"]
        if "name" in sec:
            out["scenario"]["name"] = sec["name"].strip()
        if "initial" in sec:
            out["scenario"]["initial"] = tuple(sec["initial"].replace(",", " ").split())
        if "theta" in sec:
            out["scenario"]["theta_list"] = tuple(float(x) for x in sec["theta"].replace(",", " ").split())
        if "gamma" in sec:
            out["scenario"]["gamma"] = tuple(float(x) for x in sec["gamma"].replace(",", " ").split())
        if "gamma_units" in sec:
            out["scenario"]["gamma_units"] = sec["gamma_units"].strip()
        if "tmax_lambda" in sec:
            out["scenario"]["t_max_lambda"] = sec.getfloat("tmax_lambda")
        if "samples" in sec:
            out["scenario"]["samples"] = sec.getint("samples")
        for key in ("out", "format"):
            if key in sec:
                out["scenario"][key] = sec[key].strip()
    return out
