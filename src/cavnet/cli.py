"""Command-line interface.

Subcommands: ``simulate`` (raw trajectory plus measures, the ``custom``
scenario), ``scenario`` (named figure reproduction), ``transmission`` (ratio
table).  Every flag has a config-file equivalent; explicit flags override
the config.  A config file holds [network] and [scenario] sections; an
unknown section or key is an error.  Settings that do not resolve, from a
flag or the config, are usage errors: one line on stderr and exit status 2.
Every scenario runs on the network of two three-cavity chains.
"""

from __future__ import annotations

import argparse
import sys

from .model import NetworkConfig
from .runner import SCENARIO_NAMES, ScenarioSpec, Table, load_config, run_scenario

_INITIAL_CHOICES = ("psi_a", "psi_b", "rho_eq20", "psi1_chain", "psi2_chain")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config with [network] and [scenario] sections")
    parser.add_argument("--theta", type=float, action="append", help="initial-state angle in radians, repeatable; applies only to psi_a and psi_b, the other initial states run once")
    parser.add_argument("--gamma", type=float, help="cavity decay rate")
    parser.add_argument("--gamma-units", choices=("abs", "lambda"), dest="gamma_units", help="decay-rate units: 1/ns or multiples of the effective coupling")
    parser.add_argument("--kappa", type=float, help="polariton projection factor on the cavity coupling")
    parser.add_argument("--tmax-lambda", type=float, dest="tmax_lambda", help="time window in lambda*t")
    parser.add_argument("--samples", type=int, help="number of uniform samples")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "jsonl"), help="output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cavnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="raw trajectory with the standard measure set")
    p_sim.add_argument("--initial", choices=_INITIAL_CHOICES, help="initial condition (default psi_a)")
    _add_common(p_sim)

    p_scn = sub.add_parser("scenario", help="named figure reproduction")
    p_scn.add_argument("--scenario", choices=SCENARIO_NAMES, help="scenario name")
    p_scn.add_argument("--initial", choices=_INITIAL_CHOICES, action="append", help="initial condition(s), for custom sweeps")
    _add_common(p_scn)

    p_tr = sub.add_parser("transmission", help="concurrence transmission ratio table")
    p_tr.add_argument("--initial", choices=_INITIAL_CHOICES, action="append", help="initial condition(s) to tabulate")
    _add_common(p_tr)
    return parser


def _merged_settings(args) -> tuple[NetworkConfig, dict]:
    """Resolve settings with precedence scenario defaults < config file < flags.

    A scenario sweep sets the network's gamma at every point, so the network
    gamma and its units, from the config or the flags, become the sweep's
    unless the config's [scenario] section lists its own.
    """
    file_cfg = load_config(args.config) if args.config else {"network": {}, "scenario": {}}
    network_kwargs = dict(file_cfg["network"])
    scenario_kwargs = dict(file_cfg["scenario"])
    for key in ("gamma", "gamma_units"):
        flag = getattr(args, key)
        if flag is not None:
            network_kwargs[key] = flag
        if key in network_kwargs and (flag is not None or key not in scenario_kwargs):
            scenario_kwargs[key] = network_kwargs[key]
    if args.kappa is not None:
        network_kwargs["kappa"] = args.kappa
    if args.theta:
        scenario_kwargs["theta_list"] = tuple(args.theta)
    if args.tmax_lambda is not None:
        scenario_kwargs["t_max_lambda"] = args.tmax_lambda
    if args.samples is not None:
        scenario_kwargs["samples"] = args.samples
    initial = getattr(args, "initial", None)
    if initial:
        scenario_kwargs["initial"] = (initial,) if isinstance(initial, str) else tuple(initial)
    return NetworkConfig(**network_kwargs), scenario_kwargs


def _emit(table: Table, args, scenario_kwargs) -> None:
    out_path = args.out or scenario_kwargs.get("out")
    fmt = args.format or scenario_kwargs.get("format") or "csv"
    writer = table.to_csv if fmt == "csv" else table.to_jsonl
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer(fh)
    else:
        writer(sys.stdout)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, scenario_kwargs = _merged_settings(args)
        out_fmt_keys = {"out", "format", "name"}
        spec_kwargs = {k: v for k, v in scenario_kwargs.items() if k not in out_fmt_keys}
        if args.command == "scenario":
            name = getattr(args, "scenario", None) or scenario_kwargs.get("name")
            if not name:
                raise ValueError("scenario name required (--scenario or config [scenario] name)")
        else:
            name = "custom" if args.command == "simulate" else "transmission"
            if scenario_kwargs.get("name", name) != name:
                raise ValueError(
                    f"config [scenario] name = {scenario_kwargs['name']} does not fit "
                    f"'{args.command}', which runs {name}; use 'cavnet scenario' for it"
                )
        spec = ScenarioSpec.named(name, **spec_kwargs)
    except (OSError, ValueError) as err:
        parser.error(str(err))
    table = run_scenario(spec, cfg)
    _emit(table, args, scenario_kwargs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
