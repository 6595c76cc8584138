"""Command-line interface.

Subcommands: ``simulate`` (raw trajectory plus measures, the ``custom``
scenario), ``scenario`` (named figure reproduction), ``transmission`` (ratio
table).  The three share one set of flags, and every flag has a config-file
equivalent.  ``resolve`` is the one place where settings resolve: the
scenario's defaults, then the config file's [network] and [scenario]
sections, then the flags, each layer a dict keyed by setting name.  An
unknown config section or key is an error.  Settings that do not resolve,
from a flag or the config, and sweeps the model or scenario rejects are
usage errors before anything runs: one line on stderr and exit status 2.
Every scenario runs on the network of two three-cavity chains.
"""

from __future__ import annotations

import argparse
import configparser
import sys

from .model import InitialStateSpec, NetworkConfig
from .runner import SCENARIO_NAMES, ScenarioSpec, _sweep, run_scenario

_FORMATS = ("csv", "jsonl")
# The scenario each command other than ``scenario`` runs.
_COMMAND_SCENARIO = {"simulate": "custom", "transmission": "transmission"}


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.replace(",", " ").split())


def _one_rate(text: str) -> float:
    rates = _numbers(text)
    if len(rates) != 1:
        raise ValueError(
            f"one rate expected, got {len(rates)}: per-site rates are not "
            "supported, since a sweep sets one gamma for all sites"
        )
    return rates[0]


# The keys each config section accepts, with the parser of each value.
_CONFIG_KEYS = {
    "network": {
        "sites_per_chain": int,
        "num_chains": int,
        "omega": float,
        "nu": float,
        "omega_f": float,
        "j": float,
        "kappa": float,
        "fiber_length_l": float,
        "fiber_continuum_decay_mu": float,
        "gamma": _one_rate,
        "gamma_units": str.strip,
    },
    "scenario": {
        "name": str.strip,
        "initial": lambda text: tuple(text.replace(",", " ").split()),
        "theta": _numbers,
        "gamma": _numbers,
        "gamma_units": str.strip,
        "tmax_lambda": float,
        "samples": int,
        "out": str.strip,
        "format": str.strip,
    },
}
# Config keys whose setting has another name.
_SETTING_NAMES = {"j": "J", "theta": "theta_list", "tmax_lambda": "t_max_lambda"}


def load_config(path) -> dict:
    """Parse an INI-style config with [network] and [scenario] sections.

    Returns one dict of settings per section.  An unknown section or key
    raises ``ValueError`` naming it instead of being ignored, and so does a
    value that does not parse, with its section, key and raw text.
    """
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"config file {path} not found")
    out: dict = {section: {} for section in _CONFIG_KEYS}
    # configparser copies [DEFAULT] keys into every section and drops them when
    # no section follows, so [DEFAULT] is checked as an unknown section first.
    for section in (["DEFAULT"] if parser.defaults() else []) + parser.sections():
        keys = _CONFIG_KEYS.get(section)
        if keys is None:
            why = ": propagation is exact and takes no integrator settings" if section == "integrator" else ""
            raise ValueError(f"unknown config section [{section}] (keys: {', '.join(parser[section])}){why}")
        for key, value in parser[section].items():
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in config section [{section}]; known: {', '.join(keys)}")
            try:
                out[section][_SETTING_NAMES.get(key, key)] = keys[key](value)
            except ValueError as err:
                raise ValueError(f"[{section}] {key} = {value!r}: {err}") from err
    return out


def build_parser() -> argparse.ArgumentParser:
    """The three subcommands; each flag's ``dest`` is the name of its setting."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config with [network] and [scenario] sections")
    common.add_argument("--initial", action="append", choices=InitialStateSpec._KINDS, help="initial condition, repeatable (default: the scenario's own)")
    common.add_argument("--theta", dest="theta_list", metavar="THETA", type=float, action="append", help="initial-state angle in radians, repeatable; applies only to psi_a and psi_b, the other initial states run once")
    common.add_argument("--gamma", type=float, help="cavity decay rate")
    common.add_argument("--gamma-units", choices=("abs", "lambda"), dest="gamma_units", help="decay-rate units: 1/ns or multiples of the effective coupling")
    common.add_argument("--kappa", type=float, help="polariton projection factor on the cavity coupling")
    common.add_argument("--tmax-lambda", type=float, dest="t_max_lambda", metavar="TMAX_LAMBDA", help="time window in lambda*t")
    common.add_argument("--samples", type=int, help="number of uniform samples")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=_FORMATS, help="output format (default csv)")

    parser = argparse.ArgumentParser(prog="cavnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="raw trajectory with the standard measure set")
    p_scn = sub.add_parser("scenario", parents=[common], help="named figure reproduction")
    p_scn.add_argument("--scenario", dest="name", choices=SCENARIO_NAMES, help="scenario name")
    sub.add_parser("transmission", parents=[common], help="concurrence transmission ratio table")
    return parser


def resolve(args: argparse.Namespace) -> tuple[NetworkConfig, ScenarioSpec, str | None, str]:
    """``(network, scenario, out, format)`` of one command line.

    Each setting takes the flag if given, else the config file's value,
    else the scenario's default.  A sweep sets the network's gamma at every
    point, so the network's gamma and units, from the config or a flag,
    become the sweep's unless [scenario] lists its own and no flag
    overrides it.  The sweep points are built here, so that every setting
    the model rejects fails before anything runs.
    """
    layers = load_config(args.config) if args.config else {"network": {}, "scenario": {}}
    flags = {k: v for k, v in vars(args).items() if v is not None and k not in ("command", "config")}
    network = layers["network"]
    network.update((k, v) for k, v in flags.items() if k in ("gamma", "gamma_units", "kappa"))
    scenario = {k: network[k] for k in ("gamma", "gamma_units") if k in network}
    scenario.update(layers["scenario"])
    scenario.update((k, v) for k, v in flags.items() if k != "kappa")
    out, fmt, name = scenario.pop("out", None), scenario.pop("format", "csv"), scenario.pop("name", None)
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}; known: {', '.join(_FORMATS)}")
    own = _COMMAND_SCENARIO.get(args.command)
    if own is None and name is None:
        raise ValueError("scenario name required (--scenario or config [scenario] name)")
    if own is not None and name not in (None, own):
        raise ValueError(
            f"config [scenario] name = {name} does not fit '{args.command}', "
            f"which runs {own}; use 'cavnet scenario' for it"
        )
    cfg, spec = NetworkConfig(**network), ScenarioSpec.named(name or own, **scenario)
    _sweep(spec, cfg)
    return cfg, spec, out, fmt


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, spec, out, fmt = resolve(args)
    except (OSError, ValueError) as err:
        parser.error(str(err))
    table = run_scenario(spec, cfg)
    writer = table.to_csv if fmt == "csv" else table.to_jsonl
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer(fh)
    else:
        writer(sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
