"""Figure and ``simulate`` tables against committed goldens.

``tests/golden/<name>.csv`` holds the output of
``scripts/reproduce_figures.py --samples 41`` with the default network, and
``tests/golden/simulate_<initial>.csv`` that of
``cavnet simulate --initial <initial> --samples 41``, on both registers.  A
refactor of the scenario layer must reproduce them: numeric cells to
``RTOL * max(1, |golden|)``, every other cell exactly.  The scale is there
because cells reach 20 (``lambda_t``), where 1e-10 is one unit in the
twelfth printed digit.

The same tolerance bounds every named scenario under a second OpenBLAS
kernel, which ``OPENBLAS_CORETYPE`` picks for one process: the last bits of
BLAS products differ between kernels, so the printed tables may too.
"""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cavnet
from cavnet import cli
from cavnet.model import NetworkConfig
from cavnet.runner import SCENARIO_NAMES, ScenarioSpec, run_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden"
SCENARIOS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "transmission")
RTOL = 1e-10


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def numeric_cells(text: str, reference: str):
    """(place, cell, expected, relative difference) of every numeric cell of the CSV ``text`` against ``reference``.

    Headers, row counts, row lengths and every other cell must be equal.
    The difference is scaled by max(1, |expected|), as ``RTOL`` is.
    """
    got = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO(reference)))
    assert got[0] == want[0]
    assert len(got) == len(want)
    cells = []
    for r, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(row) == len(ref), f"row {r}"
        for col, cell, expected in zip(want[0], row, ref):
            a, b = _number(cell), _number(expected)
            if a is None or b is None:
                assert cell == expected, f"row {r}, {col}"
            else:
                cells.append((f"row {r}, {col}", cell, expected, abs(a - b) / max(1.0, abs(b))))
    return cells


def assert_matches_golden(text: str, path: pathlib.Path):
    for place, cell, expected, rel in numeric_cells(text, path.read_text(encoding="utf-8")):
        assert rel <= RTOL, f"{place}: {cell} vs golden {expected}"


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


# Transmission fits its peak quadratically over lambda*t up to 4 only, so it keeps a finer grid than the figures.
_KERNEL_SAMPLES = {name: 81 if name == "transmission" else 41 for name in SCENARIO_NAMES}

_KERNEL_CHILD = """
import io, json, sys
from cavnet.model import NetworkConfig
from cavnet.runner import ScenarioSpec, run_scenario
tables = {}
for name, samples in json.loads(sys.argv[1]).items():
    buf = io.StringIO()
    run_scenario(ScenarioSpec.named(name, samples=samples), NetworkConfig()).to_csv(buf)
    tables[name] = buf.getvalue()
json.dump(tables, sys.stdout)
"""


def test_a_second_blas_kernel_stays_within_the_golden_tolerance():
    src = str(pathlib.Path(cavnet.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHILD, json.dumps(_KERNEL_SAMPLES)],
        env=env, capture_output=True, text=True, check=True,
    )
    theirs = json.loads(child.stdout)
    for name, samples in _KERNEL_SAMPLES.items():
        buf = io.StringIO()
        run_scenario(ScenarioSpec.named(name, samples=samples), NetworkConfig()).to_csv(buf)
        cells = numeric_cells(theirs[name], buf.getvalue())
        moved = [(place, rel) for place, cell, expected, rel in cells if cell != expected]
        if not moved:
            print(f"{name}: byte-identical under OPENBLAS_CORETYPE=Prescott")
            continue
        worst = max(moved, key=lambda m: m[1])
        print(f"{name}: {len(moved)} of {len(cells)} numeric cells differ, largest relative {worst[1]:.2g} at {worst[0]}")
        assert all(rel <= RTOL for place, rel in moved), [m for m in moved if not m[1] <= RTOL]
