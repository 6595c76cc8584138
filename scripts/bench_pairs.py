#!/usr/bin/env python3
"""Alternating parent/change pairs of the cavnet benchmark, with a summary.

Run from anywhere, with two checkouts of the repository::

    python3 scripts/bench_pairs.py --parent ../parent --change ../change_ \\
        --workload propagate --seed 5 --pairs 10 --seconds 40 --out BENCH.json

Each pair runs ``DIR/perfbench/run.py`` once in each checkout, from that
checkout's root; odd pairs run the parent first, even pairs the change.
``--workload figures`` instead times ``DIR/scripts/reproduce_figures.py``
per scenario and also runs, untimed, with ``DIR/src`` on the path,
``python -m cavnet simulate --initial psi_a`` and ``--initial psi1_chain``,
one on each register, and ``python -m cavnet transmission --initial
rho_eq20``, whose ratios divide by the concurrence of the initial state
itself; it prints whether each pair wrote the same CSV bytes on both
sides, for the nine figures and the three command tables, and exits 1
after the summary if any pair did not.  For a table
whose bytes differ it prints and records how many cells differ and the
largest |change - parent| / max(1, |parent|) among them.  A figures run
that prints no scenario line, a line that does not parse, or another set of
scenarios than the other side stops the script.  The summary gives, for
every metric, each side's median and quartiles, the median ratio
change/parent and the pairs the change won, by the direction that the
parent's ``BENCHMARK.json`` declares (lower is better for a metric it does
not list), and each side's median count of minor page faults per run.
``--out`` merges the pairs and summary into a JSON file under the key
"<workload> seed=<seed> trace=<trace>".

Each run's record holds ``minflt``, the minor page faults of the run's
processes (``getrusage(RUSAGE_CHILDREN)`` before and after).  A fresh
process's heap layout can move run_s by about 20 % through them, so check
them before putting a regression down to code.

Both checkouts must have absolute paths of the same length: the path length
alone has moved run_s by about 20 % through the heap layout it implies.
Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
# One scenario line of reproduce_figures.py: "fig2: 2400 rows -> out/fig2.csv (0.412s)".
FIGURE_LINE = re.compile(r"^(\w+): \d+ rows -> (.+) \(([\d.]+)s\)$")
TIMEOUT_S = 900
# The ``cavnet`` commands and initial states whose tables a figures run also compares:
# ``simulate`` on each register, and ``transmission`` from the initial state that no figure transmits.
CLI_TABLES = (("simulate", "psi_a"), ("simulate", "psi1_chain"), ("transmission", "rho_eq20"))


def _run(cmd: list[str], cwd: Path, env: dict) -> str:
    proc = subprocess.run(cmd, cwd=cwd, env={**os.environ, **env}, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {cwd} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def perfbench_run(root: Path, args) -> dict:
    """The record and result lines of one perfbench run, as dicts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    *_, record, result = _run(cmd, root, {}).splitlines()
    return {"record": json.loads(record), "result": json.loads(result)}


def figures_run(root: Path, args) -> dict:
    """Per-scenario seconds of one reproduce_figures.py run, and its CSV bytes and those of ``CLI_TABLES``."""
    env = {**THREAD_ENV, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "scripts/reproduce_figures.py", "--outdir", out]
        lines = _run(cmd, root, env).splitlines()
        matches = [FIGURE_LINE.match(line) for line in lines]
        if not matches or not all(matches):
            raise SystemExit(f"{' '.join(cmd)} in {root} printed no scenario line or one that does not parse:\n" + "\n".join(lines))
        metrics = {f"{m[1]}_s": {"value": float(m[3]), "unit": "s"} for m in matches}
        csv = {m[1]: Path(m[2]).read_bytes() for m in matches}
    for command, kind in CLI_TABLES:
        csv[f"{command} {kind}"] = _run([sys.executable, "-m", "cavnet", command, "--initial", kind], root, env).encode()
    return {"result": {"correct": True, "failed": 0, "metrics": metrics}, "csv": csv}


def csv_difference(parent: bytes, change: bytes) -> dict:
    """The cells in which two CSVs differ, by position, and the largest |change - parent| / max(1, |parent|).

    A differing cell that is not a number on both sides, or is on one side
    only, or is NaN on one side, counts as an infinite difference.
    """
    tables = [csv.reader(io.StringIO(data.decode())) for data in (parent, change)]
    cells, worst = 0, 0.0
    for row_p, row_c in itertools.zip_longest(*tables, fillvalue=[]):
        for a, b in itertools.zip_longest(row_p, row_c):
            if a == b:
                continue
            cells += 1
            try:
                rel = abs(float(b) - float(a)) / max(1.0, abs(float(a)))
            except (TypeError, ValueError):
                rel = math.inf
            worst = max(worst, math.inf if math.isnan(rel) else rel)
    return {"cells": cells, "max_rel": worst}


def directions(root: Path) -> dict:
    """Metric name -> "lower" or "higher", from ``root/BENCHMARK.json`` if it exists."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(pairs: list[dict], better: dict) -> dict:
    """Per metric: medians, quartiles, ratio of medians and the pairs the change won."""
    summary = {}
    for name in pairs[0]["parent"]["result"]["metrics"]:
        p = [pair["parent"]["result"]["metrics"][name]["value"] for pair in pairs]
        c = [pair["change"]["result"]["metrics"][name]["value"] for pair in pairs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        pm, cm = statistics.median(p), statistics.median(c)
        summary[name] = {
            "parent_median": pm,
            "parent_quartiles": quartiles(p),
            "change_median": cm,
            "change_quartiles": quartiles(c),
            "ratio": cm / pm if pm else None,
            "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "pairs": len(pairs),
        }
    summary["failed_operations"] = {
        side: sum(pair[side]["result"]["failed"] for pair in pairs) for side in ("parent", "change")
    }
    summary["incorrect_runs"] = {
        side: sum(not pair[side]["result"]["correct"] for pair in pairs) for side in ("parent", "change")
    }
    summary["minor_page_faults_median"] = {
        side: statistics.median(pair[side]["minflt"] for pair in pairs) for side in ("parent", "change")
    }
    return summary


def _cell(median: float, q1: float, q3: float) -> str:
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or 'figures'")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="JSON file to merge the pairs and summary into")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(roots["parent"])) != len(str(roots["change"])):
        parser.error(f"checkout paths differ in length: {roots['parent']} and {roots['change']}")
    if args.pairs < 1:
        parser.error("need at least one pair")
    run = figures_run if args.workload == "figures" else perfbench_run
    pairs = []
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        pair = {"pair": k, "order": list(order)}
        for side in order:
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            pair[side] = run(roots[side], args)
            pair[side]["minflt"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
        note = ""
        if args.workload == "figures":
            before, after = pair["parent"].pop("csv"), pair["change"].pop("csv")
            if before.keys() != after.keys():
                raise SystemExit(f"pair {k}: the parent ran {sorted(before)}, the change {sorted(after)}")
            differ = {
                name: csv_difference(before[name], after[name]) for name in sorted(before) if before[name] != after[name]
            }
            pair["csv_identical"] = not differ
            pair["csv_difference"] = differ
            cells = (f"{name} ({d['cells']} cells, max rel {d['max_rel']:.3g})" for name, d in differ.items())
            note = f": CSV bytes differ in {', '.join(cells)}" if differ else ": CSV bytes identical"
        pairs.append(pair)
        print(f"pair {k}/{args.pairs} done{note}", file=sys.stderr)
    summary = summarize(pairs, directions(roots["parent"]))

    width = max(len(name) for name in summary)
    print(f"{'metric':<{width}}  {'parent median [q1, q3]':>34}  {'change median [q1, q3]':>34}  ratio  wins")
    for name, s in summary.items():
        if "pairs" not in s:
            print(f"{name:<{width}}  parent {s['parent']}, change {s['change']}")
            continue
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
        parent, change = (_cell(s[f"{side}_median"], *s[f"{side}_quartiles"]) for side in ("parent", "change"))
        print(f"{name:<{width}}  {parent:>34}  {change:>34}  {ratio:>5}  {s['change_better_pairs']}/{s['pairs']}")

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.is_file() else {}
        data.setdefault("runs", {})[f"{args.workload} seed={args.seed} trace={args.trace}"] = {
            "command": f"python3 scripts/bench_pairs.py --parent PARENT --change CHANGE --workload {args.workload} "
            f"--seed {args.seed} --pairs {args.pairs} --seconds {args.seconds:g} --trace {args.trace}",
            "pairs": pairs,
            "summary": summary,
        }
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if all(pair.get("csv_identical", True) for pair in pairs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
