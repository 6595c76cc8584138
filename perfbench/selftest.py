"""The benchmark's own tests: minimal-size runs, result schema, tracer self-check.

Run from anywhere (about a minute)::

    python3 perfbench/selftest.py

The name keeps it out of the repository's pytest collection; the runs are
minimal in sample count but still pay the fixed propagator cost.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# Transmission keeps enough samples for its acceptance band; the rest are minimal.
MINIMAL = {
    "propagate": {"default": 3, "transmission": 81},
    "discord": {"default": 3},
    "discord_general": {"states": 3},
}


def bench(workload: str, trace: int, seconds: float = 0) -> tuple[dict, dict]:
    """Run the benchmark command; return (record, result) from its last two lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), "--samples", json.dumps(MINIMAL[workload])],
        capture_output=True, text=True, cwd=str(HERE.parent), timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class TracedRuns(unittest.TestCase):
    """One minimal traced run per workload: an untraced and a traced repetition."""

    @classmethod
    def setUpClass(cls):
        cls.runs = {w: bench(w, trace=1) for w in workloads.WORKLOADS}

    def test_schema_and_correctness(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        for workload, (record, result) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], record)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["attempted"], 2 * record["operations_per_repetition"])
                self.assertEqual(set(result["metrics"]), names)

    def test_self_check_passes(self):
        for workload, (record, _) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(record["self_check"], "passed")

    def test_every_wrapper_fires_somewhere(self):
        fired = {
            name
            for _, result in self.runs.values()
            for name in tracer.SPAN_NAMES
            if result["metrics"][f"{name}.calls"]["value"] > 0
        }
        self.assertEqual(fired, set(tracer.SPAN_NAMES))

    def test_x_share_separates_workloads(self):
        share = {w: r["metrics"]["correlations.pair_state.x_share"]["value"] for w, (_, r) in self.runs.items()}
        self.assertEqual(share, {"propagate": 1.0, "discord": 1.0, "discord_general": 0.0})

    def test_discord_general_runs_no_dynamics(self):
        metrics = self.runs["discord_general"][1]["metrics"]
        self.assertEqual(metrics["dynamics.samples"]["value"], 0)
        self.assertGreater(metrics["correlations.minimize.nfev"]["value"], 0)

    def test_counts_repeat_for_a_fixed_seed(self):
        _, again = bench("discord_general", trace=1)
        first = self.runs["discord_general"][1]["metrics"]
        for name, metric in again["metrics"].items():
            if metric["unit"] == "count":
                self.assertEqual(metric["value"], first[name]["value"], name)


class EndToEnd(unittest.TestCase):
    def test_schema(self):
        record, result = bench("discord_general", trace=0)
        self.assertTrue(result["correct"], record)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCHMARK["end_to_end"]})
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)
        self.assertGreaterEqual(record["setup_probes"] + record["repetitions"]["plain"], 5)
        self.assertTrue(all(scale > 0 for scale in record["speed_scale_each"]))

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name)
            proc = subprocess.run(
                [sys.executable, str(Path(tmp) / HERE.name / "run.py"), "--workload", "discord",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class SpeedProbe(unittest.TestCase):
    def test_handler_time_is_left_out(self):
        probe = worker.SpeedProbe()
        probe.start()
        begin = time.perf_counter()
        mark = probe.mark()
        while time.perf_counter() < begin + 0.3:
            pass
        wall, at_reference = probe.measure(mark)
        elapsed = time.perf_counter() - begin
        probe.stop()
        self.assertGreaterEqual(len(probe.samples), 5)
        self.assertAlmostEqual(wall, elapsed - probe.stolen, delta=1e-3)
        self.assertGreater(at_reference, 0)


class Checks(unittest.TestCase):
    def test_golden_tolerance(self):
        golden = "initial,theta,value\npsi_a,0.5,0.25\n"
        self.assertIsNone(checks.compare_golden("initial,theta,value\npsi_a,0.5,0.250000000005\n", golden))
        self.assertIsNotNone(checks.compare_golden("initial,theta,value\npsi_a,0.5,0.2500001\n", golden))
        self.assertIsNotNone(checks.compare_golden("initial,theta,value\npsi_b,0.5,0.25\n", golden))

    def test_invariants_catch_out_of_range_values(self):
        op = {"id": "fig5.0", "figure": "fig5", "initial": "psi_b"}
        bad = "initial,theta,gamma,lambda_t,eof_33p,discord_33p\npsi_b,0.5,0.05,0,1.2,0.1\n"
        self.assertIn("fig5.0", checks.invariants([op], [bad], None))
        ok = "initial,theta,gamma,lambda_t,eof_33p,discord_33p\npsi_b,0.5,0.05,0,0.2,0.1\n"
        self.assertEqual(checks.invariants([op], [ok], None), {})

    def test_discord_identity(self):
        op = {"id": "state000"}
        row = "pair,concurrence,mutual_information,discord_a,discord_b\n01,0.1,0.5,0.2,0.3\n"
        good = {"classical_a": 0.3, "classical_b": 0.2}
        self.assertEqual(checks.invariants([op], [row], [good]), {})
        self.assertIn("state000", checks.invariants([op], [row], [{"classical_a": 0.3, "classical_b": 0.25}]))

    def test_transmission_theta_independence(self):
        header = "initial,theta,gamma,src,dst,ratio_max,peak_lambda_t,ratio_at_transfer\n"
        ops = [{"id": f"transmission.{k}", "figure": "transmission", "initial": "psi_a"} for k in range(2)]
        tables = [header + f"psi_a,0.5,0.01,11',33',{r},2.09,0.74\n" for r in (0.7494, 0.7400)]
        self.assertEqual(len(checks.invariants(ops, tables, None)), 2)

    def test_seed_fixes_inputs(self):
        self.assertEqual(workloads.operations("discord", 3), workloads.operations("discord", 3))
        self.assertNotEqual(workloads.operations("discord", 3), workloads.operations("discord", 4))
        low, high = workloads.THETA_RANGE
        for op in workloads.operations("propagate", 3):
            self.assertTrue(low <= op["theta"] <= high)


if __name__ == "__main__":
    unittest.main()
