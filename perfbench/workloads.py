"""Workload definitions: which operations a run performs, drawn from a seed.

Standard library only, so the load generator can list and check operations
without importing numpy.  An *operation* is one sweep point: one
single-point ``ScenarioSpec`` for the figure workloads, one random state for
``discord_general``.
"""

from __future__ import annotations

import math
import random

# Per-figure sweep shape, as in ``ScenarioSpec.named``: initial kinds and
# gamma values (absolute units), and how many theta points the figure has.
# The time window is the figure's own default and is never changed here.
FIGURES = {
    "fig2": (("psi_a",), (0.01,), 3),
    "fig3": (("psi_a",), (0.0,), 1),
    "fig4": (("psi_a",), (0.0,), 1),
    "fig5": (("psi_b",), (0.05, 0.5), 1),
    "fig6": (("rho_eq20",), (0.01,), 1),
    "fig7": (("psi_b",), (0.0,), 3),
    "fig8": (("psi_b",), (0.01,), 1),
    "fig9": (("psi1_chain", "psi2_chain"), (0.01,), 1),
    "transmission": (("psi_a", "psi_b"), (0.01,), 3),
}

WORKLOADS = {
    "propagate": ("fig2", "fig3", "fig4", "fig7", "fig8", "transmission"),
    "discord": ("fig5", "fig6", "fig9"),
    "discord_general": (),
}

# Samples per trajectory.  The propagator cost is fixed by each figure's
# time window; the sample count sets the per-sample share (state apply,
# validation, measures).  ``discord`` keeps enough samples that the discord
# optimizer stays the majority of its traced time.
SAMPLES = {
    "propagate": {"transmission": 81, "default": 40},
    "discord": {"default": 40},
}
GENERAL_STATES = 80

THETA_RANGE = (math.pi / 16, 7 * math.pi / 16)


def operations(workload: str, seed: int, samples: dict | None = None) -> list[dict]:
    """The run's operations, in execution order, as JSON-ready dicts."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "discord_general":
        count = GENERAL_STATES if samples is None else samples["states"]
        return [{"id": f"state{k:03d}", "state_seed": rng.getrandbits(63)} for k in range(count)]
    counts = samples or SAMPLES[workload]
    ops = []
    for fig in WORKLOADS[workload]:
        kinds, gammas, n_theta = FIGURES[fig]
        n = counts.get(fig, counts["default"])
        k = 0
        for gamma in gammas:
            for kind in kinds:
                for _ in range(n_theta):
                    theta = rng.uniform(*THETA_RANGE)
                    ops.append(
                        {
                            "id": f"{fig}.{k}",
                            "figure": fig,
                            "initial": kind,
                            "theta": theta,
                            "gamma": gamma,
                            "samples": n,
                        }
                    )
                    k += 1
    return ops
