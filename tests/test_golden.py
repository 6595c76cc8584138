"""Figure tables against committed goldens.

``tests/golden/<name>.csv`` holds the output of
``scripts/reproduce_figures.py --samples 41`` with the default network.  A
refactor of the scenario layer must reproduce them: numeric cells to 1e-8
absolute, every other cell exactly.
"""

import csv
import io
import pathlib

import pytest

from cavnet.model import NetworkConfig
from cavnet.runner import ScenarioSpec, run_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden"
SCENARIOS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "transmission")
ATOL = 1e-8


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_matches_golden(name):
    buf = io.StringIO()
    run_scenario(ScenarioSpec.named(name, samples=41), NetworkConfig()).to_csv(buf)
    got = list(csv.reader(io.StringIO(buf.getvalue())))
    with open(GOLDEN / f"{name}.csv", encoding="utf-8", newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for r, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(row) == len(ref), f"row {r}"
        for col, cell, expected in zip(want[0], row, ref):
            a, b = _number(cell), _number(expected)
            if a is None or b is None:
                assert cell == expected, f"row {r}, {col}"
            else:
                assert abs(a - b) <= ATOL, f"row {r}, {col}: {cell} vs golden {expected}"
