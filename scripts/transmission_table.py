#!/usr/bin/env python3
"""Print the concurrence transmission table 11' -> 33'.

Covers both initial-state families over theta in {pi/8, pi/4, pi/3} at the
reference loss rate, plus the lossless baseline.
"""

import math

from cavnet.correlations import PairSelector
from cavnet.model import InitialStateSpec, NetworkConfig
from cavnet.runner import transmission_details

SRC, DST = PairSelector.from_label("11'"), PairSelector.from_label("33'")
THETAS = (("pi/8", math.pi / 8), ("pi/4", math.pi / 4), ("pi/3", math.pi / 3))


def main() -> int:
    header = f"{'initial':8s} {'theta':6s} {'gamma':6s} {'ratio':>8s} {'peak t':>8s} {'at 2pi/3':>9s}"
    print(header)
    print("-" * len(header))
    for gamma in (0.0, 0.01):
        cfg = NetworkConfig(gamma=gamma)
        for kind in ("psi_a", "psi_b"):
            for label, theta in THETAS:
                res = transmission_details(InitialStateSpec(kind, theta), cfg, SRC, DST)
                print(
                    f"{kind:8s} {label:6s} {gamma:<6g} {res.ratio:8.4f} "
                    f"{res.peak_time_lambda:8.4f} {res.ratio_at_transfer:9.4f}"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
