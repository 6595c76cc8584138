"""Figure and ``simulate`` tables against committed goldens.

``tests/golden/<name>.csv`` holds the output of
``scripts/reproduce_figures.py --samples 41`` with the default network, and
``tests/golden/simulate_<initial>.csv`` that of
``cavnet simulate --initial <initial> --samples 41``, on both registers.  A
refactor of the scenario layer must reproduce them: numeric cells to
``RTOL * max(1, |golden|)``, every other cell exactly.  The scale is there
because cells reach 20 (``lambda_t``), where 1e-10 is one unit in the
twelfth printed digit.
"""

import csv
import io
import pathlib

import pytest

from cavnet import cli
from cavnet.model import NetworkConfig
from cavnet.runner import ScenarioSpec, run_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden"
SCENARIOS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "transmission")
RTOL = 1e-10


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def assert_matches_golden(text: str, path: pathlib.Path):
    got = list(csv.reader(io.StringIO(text)))
    with open(path, encoding="utf-8", newline="") as fh:
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
                assert abs(a - b) <= RTOL * max(1.0, abs(b)), f"row {r}, {col}: {cell} vs golden {expected}"


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_matches_golden(name):
    buf = io.StringIO()
    run_scenario(ScenarioSpec.named(name, samples=41), NetworkConfig()).to_csv(buf)
    assert_matches_golden(buf.getvalue(), GOLDEN / f"{name}.csv")


@pytest.mark.parametrize("initial", ["psi_a", "psi1_chain"])
def test_simulate_matches_golden(initial, tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", "--initial", initial, "--samples", "41", "--out", str(out)]) == 0
    assert_matches_golden(out.read_text(encoding="utf-8"), GOLDEN / f"simulate_{initial}.csv")
