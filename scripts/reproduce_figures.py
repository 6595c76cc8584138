#!/usr/bin/env python3
"""Regenerate every figure-style data set as CSV files.

Writes fig2.csv ... fig9.csv plus transmission.csv into the output
directory (default ./figures_out).
"""

import argparse
import pathlib
import time

from cavnet.model import NetworkConfig
from cavnet.runner import SCENARIO_NAMES, ScenarioSpec, run_scenario

SCENARIOS = tuple(name for name in SCENARIO_NAMES if name != "custom")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures_out", help="output directory")
    parser.add_argument("--samples", type=int, default=None, help="override sample count")
    parser.add_argument("--only", nargs="*", choices=SCENARIOS, help="subset to run")
    args = parser.parse_args()

    overrides = {} if args.samples is None else {"samples": args.samples}
    try:
        specs = [ScenarioSpec.named(name, **overrides) for name in args.only or SCENARIOS]
    except ValueError as err:
        parser.error(str(err))
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = NetworkConfig()
    for spec in specs:
        start = time.perf_counter()
        table = run_scenario(spec, cfg)
        path = outdir / f"{spec.name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            table.to_csv(fh)
        print(f"{spec.name}: {len(table.rows)} rows -> {path} ({time.perf_counter() - start:.3f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
