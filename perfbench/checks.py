"""Output checks: goldens for shipped seeds, physics invariants for any seed.

Standard library only.  Each check returns a message per failing operation
id; an operation with a message counts as failed.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN_ATOL = 1e-8  # the equivalence tolerance for refactors of the physics

# Acceptance criterion 3: psi_a 11' -> 33' transmission at gamma = 0.01/ns.
TRANSMISSION_BAND = (0.742, 0.010)
# Same theta-independence threshold as the lossless acceptance test.
TRANSMISSION_THETA_SPREAD = 0.005
# Tables print 12 significant digits; a bound of one may read 1 + 1e-12.
UNIT_SLACK = 1e-9
DISCORD_IDENTITY_ATOL = 1e-9


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{workload}-{seed}.json.gz"


def load_golden(workload: str, seed: int) -> dict | None:
    path = golden_path(workload, seed)
    if not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_golden(workload: str, seed: int, outputs: dict) -> Path:
    path = golden_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the archive byte-identical when its content is.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(outputs, indent=0, sort_keys=True).encode("utf-8"))
    return path


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_golden(text: str, golden: str) -> str | None:
    """None when every numeric cell is within GOLDEN_ATOL and the rest equal."""
    got, want = list(csv.reader(io.StringIO(text))), list(csv.reader(io.StringIO(golden)))
    if len(got) != len(want) or (got and got[0] != want[0]):
        return f"shape or header differs from golden ({len(got)} vs {len(want)} lines)"
    for r, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(row) != len(ref):
            return f"row {r} has {len(row)} cells, golden {len(ref)}"
        for cell, expected in zip(row, ref):
            a, b = _as_float(cell), _as_float(expected)
            if a is None or b is None:
                if cell != expected:
                    return f"row {r}: {cell!r} != golden {expected!r}"
            elif not abs(a - b) <= GOLDEN_ATOL:
                return f"row {r}: {a!r} differs from golden {b!r} by more than {GOLDEN_ATOL:g}"
    return None


def _table_invariants(rows: list[dict]) -> str | None:
    for r, row in enumerate(rows, start=1):
        for col, cell in row.items():
            value = _as_float(cell)
            if value is None:
                continue
            if not math.isfinite(value):
                return f"row {r}: {col} = {cell}"
            if col.startswith(("conc_", "eof_", "concurrence")) and not 0.0 <= value <= 1.0 + UNIT_SLACK:
                return f"row {r}: {col} = {value!r} outside [0, 1]"
            if col.startswith("cc_") and value < 0.0:
                return f"row {r}: {col} = {value!r} negative"
            # Two-qubit discord lies in [0, S(measured side)], and S <= 1 bit.
            if col.startswith("discord") and not 0.0 <= value <= 1.0 + UNIT_SLACK:
                return f"row {r}: {col} = {value!r} outside [0, 1]"
    return None


def _general_invariants(row: dict, check: dict) -> str | None:
    info = float(row["mutual_information"])
    for side in ("a", "b"):
        q = float(row[f"discord_{side}"])
        j = check[f"classical_{side}"]
        if not 0.0 <= q <= info:
            return f"discord_{side} = {q!r} outside [0, I = {info!r}]"
        if abs(q - (info - j)) > DISCORD_IDENTITY_ATOL:
            return f"|Q - (I - J)| = {abs(q - (info - j)):.3e} on side {side.upper()}"
    return None


def invariants(ops: list[dict], outputs: list, checks: list | None) -> dict:
    """Physics checks that hold for every seed; returns {op id: message}."""
    failures = {}
    transmission = {}
    for k, (op, text) in enumerate(zip(ops, outputs)):
        if text is None:
            continue
        rows = _rows(text)
        message = _table_invariants(rows)
        if message is None and checks is not None:
            message = _general_invariants(rows[0], checks[k])
        if message is None and op.get("figure") == "transmission" and op["initial"] == "psi_a":
            ratio = float(rows[0]["ratio_max"])
            centre, width = TRANSMISSION_BAND
            if abs(ratio - centre) > width:
                message = f"psi_a transmission ratio {ratio!r} outside {centre} +/- {width}"
            transmission[op["id"]] = ratio
        if message is not None:
            failures[op["id"]] = message
    if transmission and max(transmission.values()) - min(transmission.values()) > TRANSMISSION_THETA_SPREAD:
        for op_id in transmission:
            failures.setdefault(op_id, f"psi_a transmission ratio depends on theta: {sorted(transmission.values())}")
    return failures
