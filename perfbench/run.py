#!/usr/bin/env python3
"""cavnet benchmark: time to a figure table, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload propagate --seed 1 --seconds 40 --trace 0

One load-generating process runs the workload's operations one after
another (a closed loop with one client), repeating the whole workload in a
fresh interpreter (``worker.py``) until ``--seconds`` is used, and reports
medians over the repetitions.  Times are scaled to a host of fixed speed by
the worker's speed probe (``worker.SpeedProbe``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced repetitions
and prints the per-layer metrics from ``tracer.py``.  Every output table is
checked (``checks.py``); the last line of stdout is the JSON result, the
lines before it a record of the environment, repetitions and check results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
CHILD_TIMEOUT_S = 170.0  # the whole run must end within 180 s
MIN_SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Which traced names must fire on which workload (the tracer self-check),
# and which must stay silent there.
EXPECTED_SPANS = {
    "propagate": (
        "davies.chain_generator", "model.build_initial_state", "dynamics.evolve_factorized",
        "qla.DensityMatrix", "qla.partial_trace", "correlations.pair_state",
        "correlations.concurrence", "correlations.one_tangle", "correlations.tangle_pure",
        "correlations.tangle_bounds", "runner.run_scenario", "runner.transmission_details",
        "runner.peak_sequence", "runner.Table.to_csv",
    ),
    "discord": (
        "davies.chain_generator", "model.build_initial_state", "dynamics.evolve_factorized",
        "dynamics.evolve", "qla.DensityMatrix", "qla.partial_trace", "qla.von_neumann_entropy",
        "correlations.pair_state", "correlations.concurrence", "correlations.mutual_information",
        "correlations.classical_correlation", "correlations.quantum_discord",
        "correlations.delta_fanchini", "correlations.minimize", "runner.run_scenario",
        "runner.Table.to_csv",
    ),
    "discord_general": (
        "qla.DensityMatrix", "qla.partial_trace", "qla.von_neumann_entropy",
        "correlations.pair_state", "correlations.concurrence", "correlations.mutual_information",
        "correlations.classical_correlation", "correlations.quantum_discord", "correlations.minimize",
    ),
}
SILENT_PREFIXES = {"discord_general": ("davies.", "model.", "dynamics.", "runner.")}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_revision() -> dict:
    if not (ROOT / ".git").exists():  # a plain checkout; never report an enclosing repository
        return {"revision": None, "dirty": None}

    def git(*args):
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {"revision": revision, "dirty": None if revision is None else bool(dirty)}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"  # pinned before numpy is imported in the worker
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_child(job: dict, timeout: float) -> dict:
    job = dict(job, t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(job)],
        capture_output=True, text=True, env=_child_env(), cwd=str(ROOT), timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


class Run:
    """Repetitions of one workload within a time budget, with their checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, samples: dict | None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ops = workloads.operations(workload, seed, samples)
        self.golden = None if samples else checks.load_golden(workload, seed)
        self.reps = {"plain": [], "traced": []}
        self.setup_probes = []
        self.verdicts = {}  # (op id, table) -> failure message or None
        self.failures = []
        self.traced_tables_differ = False
        self.environment = None

    def _job(self, traced: bool, check: bool, ops=None) -> dict:
        return {
            "workload": self.workload,
            "trace": traced,
            "check": check,
            "ops": self.ops if ops is None else ops,
        }

    def _judge_first(self, rep: dict) -> None:
        """Invariants and goldens on the first untraced repetition's tables."""
        found = checks.invariants(self.ops, rep["outputs"], rep.get("checks"))
        for op, text in zip(self.ops, rep["outputs"]):
            if text is None:
                continue
            message = found.get(op["id"])
            if message is None and self.golden is not None:
                golden = self.golden.get(op["id"])
                message = "no golden" if golden is None else checks.compare_golden(text, golden)
            self.verdicts[(op["id"], text)] = message

    def _count(self, rep: dict, kind: str) -> None:
        for op, text, error in zip(self.ops, rep["outputs"], rep["errors"]):
            if error is not None:
                message = error
            elif (op["id"], text) in self.verdicts:
                message = self.verdicts[(op["id"], text)]
            else:
                # Same inputs must give byte-identical tables in every fresh
                # interpreter, traced or not.
                message = f"{kind} table differs from the first repetition's"
                self.traced_tables_differ |= kind == "traced"
            if message is not None:
                self.failures.append({"op": op["id"], "kind": kind, "error": message})

    def execute(self) -> None:
        start = time.monotonic()
        budget_end = start + self.seconds
        hard_end = start + CHILD_TIMEOUT_S
        order = ("plain", "traced") if self.trace else ("plain",)
        durations = {kind: [] for kind in order}
        k = 0
        while True:
            kind = order[k % len(order)]
            first_of_kind = not self.reps[kind]
            estimate = durations[kind][-1] if durations[kind] else 0.0
            if not first_of_kind and time.monotonic() + estimate > budget_end:
                break
            began = time.monotonic()
            rep = _run_child(self._job(kind == "traced", check=k == 0), hard_end - began)
            durations[kind].append(time.monotonic() - began)
            if k == 0:
                self.environment = rep.get("environment")
                self._judge_first(rep)
            self._count(rep, kind)
            self.reps[kind].append(rep)
            k += 1
        setups = [rep["setup_s"] for rep in self.reps["plain"]]
        while not self.trace and len(setups) + len(self.setup_probes) < MIN_SETUP_SAMPLES:
            probe = _run_child(self._job(False, False, ops=[]), hard_end - time.monotonic())
            self.setup_probes.append(probe["setup_s"])

    def end_to_end(self) -> dict:
        plain = self.reps["plain"]
        setups = [rep["setup_s"] for rep in plain] + self.setup_probes
        latencies = [lat for rep in plain for lat in rep["latencies"]]
        return {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(rep["run_s"] for rep in plain), "s"),
            "point_p50_s": (statistics.median(latencies), "s"),
            "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in plain), "MB"),
        }

    def per_layer(self) -> dict:
        traced = [rep["trace"] for rep in self.reps["traced"]]
        out = {}
        for name in traced[0]:
            unit = "s" if name.endswith("_s") else "count"
            values = [t[name] for t in traced]
            # Counts repeat exactly; times are medians over traced repetitions.
            out[name] = (statistics.median(values) if unit == "s" else values[0], unit)
        out["correlations.pair_state.x_share"] = (out["correlations.pair_state.x_share"][0], "fraction")
        plain_run = statistics.median(rep["run_s"] for rep in self.reps["plain"])
        traced_run = statistics.median(rep["run_s"] for rep in self.reps["traced"])
        out["trace.overhead_s"] = (traced_run - plain_run, "s")
        out["error_rate"] = (len(self.failures) / self.attempted(), "fraction")
        return out

    def attempted(self) -> int:
        return len(self.ops) * (len(self.reps["plain"]) + len(self.reps["traced"]))

    def self_check(self) -> list[str]:
        """Tracer self-check: expected spans fire, silent ones do not, counts repeat."""
        problems = []
        traced = [rep["trace"] for rep in self.reps["traced"]]
        for name in EXPECTED_SPANS[self.workload]:
            if traced[0][f"{name}.calls"] < 1:
                problems.append(f"{name} never fired on {self.workload}")
        for prefix in SILENT_PREFIXES.get(self.workload, ()):
            for name in tracer.SPAN_NAMES:
                if name.startswith(prefix) and traced[0][f"{name}.calls"]:
                    problems.append(f"{name} fired on {self.workload}")
        for t in traced[1:]:
            for name, value in t.items():
                if not name.endswith("_s") and value != traced[0][name]:
                    problems.append(f"{name} differs between traced repetitions")
        if self.traced_tables_differ:
            problems.append("traced tables are not byte-identical to untraced ones")
        return problems

    def shares(self) -> dict:
        """Where a traced repetition's run time went, from inclusive span times."""
        rep = self.reps["traced"][0]
        calls, per_call = rep["trace"], rep["per_call_ms"]

        def inclusive(name):
            return calls[f"{name}.calls"] * per_call.get(name, 0.0) / 1e3

        return {
            "dynamics": (inclusive("dynamics.evolve_factorized") + inclusive("dynamics.evolve")) / rep["run_s"],
            # Every discord, J and delta goes through classical_correlation.
            "discord": inclusive("correlations.classical_correlation") / rep["run_s"],
            "x_share": calls["correlations.pair_state.x_share"],
        }

    def record(self) -> dict:
        plain = self.reps["plain"]
        traced = self.reps["traced"]
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": {
                "nproc": os.cpu_count(),
                "cpu_model": _cpu_model(),
                "threads": {var: _child_env().get(var) for var in THREAD_VARS},
                "git": _git_revision(),
                **(self.environment or {}),
            },
            "samples": {op["id"]: op.get("samples") for op in self.ops},
            "operations_per_repetition": len(self.ops),
            "repetitions": {kind: len(reps) for kind, reps in self.reps.items()},
            "setup_probes": len(self.setup_probes),
            "run_s_each": [rep["run_s"] for rep in plain],
            "run_s_quartiles": _quartiles([rep["run_s"] for rep in plain]),
            "wall_run_s_each": [rep["wall_run_s"] for rep in plain],
            "wall_setup_s_each": [rep["wall_setup_s"] for rep in plain],
            "speed_scale_each": [rep["speed_scale"] for rep in plain],
            "probe_samples_each": [rep["probe_samples"] for rep in plain],
            "latency_count": sum(len(rep["latencies"]) for rep in plain),
            "golden": self.golden is not None,
            "per_call_ms": traced[0]["per_call_ms"] if traced else None,
            "shares": self.shares() if traced else None,
            "failures": self.failures[:20],
            "failure_count": len(self.failures),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--samples", type=json.loads, default=None,
        help='JSON override of the sample counts, e.g. \'{"default": 3}\' or \'{"states": 2}\'; '
        "for quick self-tests (goldens are skipped)",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help="store this seed's tables as the workload's golden and exit",
    )
    args = parser.parse_args(argv)
    if args.write_golden and args.samples:
        parser.error("goldens are kept for the default sample counts only")
    if not (ROOT / "src" / "cavnet" / "__init__.py").is_file():
        print(f"cavnet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.samples)
    if args.write_golden:
        rep = _run_child(run._job(False, check=False), CHILD_TIMEOUT_S)
        if any(rep["errors"]):
            print(f"operations failed: {rep['errors']}", file=sys.stderr)
            return 1
        path = checks.write_golden(args.workload, args.seed, {op["id"]: t for op, t in zip(run.ops, rep["outputs"])})
        print(path)
        return 0

    run.execute()
    record = run.record()
    problems = []
    if run.trace:
        metrics = run.per_layer()
        problems = run.self_check()
        record["self_check"] = problems or "passed"
    else:
        metrics = run.end_to_end()
    print(json.dumps(record))
    result = {
        "correct": not run.failures and not problems,
        "attempted": run.attempted(),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
