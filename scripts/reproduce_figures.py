#!/usr/bin/env python3
"""Regenerate every figure-style data set as CSV files.

Writes fig2.csv ... fig9.csv plus transmission.csv into the output
directory (default ./figures_out).
"""

import argparse
import pathlib
import time

from cavnet.model import NetworkConfig
from cavnet.runner import ScenarioSpec, run_scenario

SCENARIOS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "transmission")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures_out", help="output directory")
    parser.add_argument("--samples", type=int, default=None, help="override sample count")
    parser.add_argument("--only", nargs="*", choices=SCENARIOS, help="subset to run")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = NetworkConfig()
    for name in args.only or SCENARIOS:
        overrides = {}
        if args.samples is not None:
            overrides["samples"] = args.samples
        spec = ScenarioSpec.named(name, **overrides)
        start = time.time()
        table = run_scenario(spec, cfg)
        path = outdir / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            table.to_csv(fh)
        print(f"{name}: {len(table.rows)} rows -> {path} ({time.time() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
