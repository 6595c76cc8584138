#!/usr/bin/env python3
"""Print the concurrence transmission table 11' -> 33'.

Covers both initial-state families over theta in {pi/8, pi/4, pi/3} at the
reference loss rate, plus the lossless baseline.
"""

import math

from cavnet.model import NetworkConfig
from cavnet.runner import ScenarioSpec, run_scenario

THETA_LABELS = {math.pi / 8: "pi/8", math.pi / 4: "pi/4", math.pi / 3: "pi/3"}


def main() -> int:
    spec = ScenarioSpec.named("transmission", theta_list=tuple(THETA_LABELS), gamma=(0.0, 0.01))
    header = f"{'initial':8s} {'theta':6s} {'gamma':6s} {'ratio':>8s} {'peak t':>8s} {'at 2pi/3':>9s}"
    print(header)
    print("-" * len(header))
    for kind, theta, gamma, _, _, ratio, peak, at_transfer in run_scenario(spec, NetworkConfig()).rows:
        print(f"{kind:8s} {THETA_LABELS[theta]:6s} {gamma:<6g} {ratio:8.4f} {peak:8.4f} {at_transfer:9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
