"""One repetition of a workload in a fresh interpreter.

Started by ``run.py`` with BLAS already pinned to one thread through the
environment, so nothing carries over between repetitions: imports,
generator builds and the propagator cache in ``cavnet.dynamics`` are paid
again every time, as a user's script or CLI call pays them.

Reads one JSON job from argv and writes one JSON result to stdout::

    python3 perfbench/worker.py '{"workload": ..., "ops": [...], "t0": ...}'

``t0`` is the load generator's ``time.monotonic()`` just before it started
this process; on Linux that clock is system-wide, so ``setup_s`` covers
interpreter start-up as well as imports and the first generator build.

The host's CPU speed is sampled throughout (``SpeedProbe``), and every time
the worker reports is scaled to a host of fixed speed.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
import time

# The speed probe: every PROBE_INTERVAL_S of wall time, run a fixed piece of
# reference work and time it.  REFERENCE_S is that work's time on the
# fixed-speed host that every reported time refers to.
PROBE_INTERVAL_S = 0.02
REFERENCE_S = 0.75e-3


class SpeedProbe:
    """Samples how fast the host runs this process, on a wall-clock timer.

    On a shared virtual machine the CPU a process gets changes speed by up
    to a half, in spells from a fraction of a second to minutes.  A SIGALRM
    handler runs the reference work at a fixed wall-clock interval, so the
    samples cover the run in proportion to time.  The work mixes what the
    workloads do: an interpreted loop, small dense eigenproblems and
    products, and one 64-dim Hermitian eigenvalue problem.

    ``mark`` opens an interval and ``measure`` closes it.  The interval's wall
    time, less the time spent in the handler meanwhile, is scaled by the
    samples taken within it to the time on a host where the reference work
    takes ``REFERENCE_S``.  An interval too short to hold a sample uses all
    samples so far.
    """

    def __init__(self):
        import numpy as np  # cavnet imports it anyway; the handler needs it loaded

        rng = np.random.default_rng(0)
        m4 = rng.standard_normal((4, 4))
        m64 = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.np = np
        self.m4 = m4 + m4.T
        self.m8 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.m64 = m64 + m64.conj().T
        self.samples = []
        self.stolen = 0.0

    def _reference_work(self) -> None:
        acc = 0
        for i in range(1000):
            acc = (acc * 31 + i) % 1_000_003
        for _ in range(6):
            self.np.linalg.eigh(self.m4)
            (self.m8 @ self.m8).trace()
        self.np.linalg.eigvalsh(self.m64)

    def _tick(self, signum, frame):
        begin = time.perf_counter()
        self._reference_work()
        self.samples.append(time.perf_counter() - begin)
        self.stolen += time.perf_counter() - begin

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.stolen, len(self.samples)

    def measure(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(wall time without the handler's, that time at reference speed) since ``mark``."""
        begin, stolen, first = mark
        wall = time.perf_counter() - begin - (self.stolen - stolen)
        if not self.samples:
            self._tick(None, None)
        window = self.samples[first:] or self.samples
        return wall, wall * REFERENCE_S * len(window) / sum(window)


def _general_inputs(ops):
    """Random full-rank three-qubit density matrices and an ordered pair each.

    Their two-qubit reductions are full rank and not X states, so discord
    takes the general grid plus Nelder-Mead route.
    """
    import numpy as np

    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    inputs = []
    for op in ops:
        rng = np.random.default_rng(op["state_seed"])
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = g @ g.conj().T
        inputs.append((rho / np.trace(rho).real, pairs[int(rng.integers(len(pairs)))]))
    return inputs


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _reduce(rho, pair):
    from cavnet import correlations, qla

    state = qla.DensityMatrix(qla.Operator(rho, (2, 2, 2)))
    return correlations.pair_state(state, correlations.PairSelector(*pair))


def _general_op(rho, pair) -> str:
    from cavnet import correlations

    sub = _reduce(rho, pair)
    values = (
        correlations.concurrence(sub),
        correlations.mutual_information(sub),
        correlations.quantum_discord(sub, "A"),
        correlations.quantum_discord(sub, "B"),
    )
    return "pair,concurrence,mutual_information,discord_a,discord_b\n" + ",".join(
        [f"{pair[0]}{pair[1]}"] + [_fmt(v) for v in values]
    ) + "\n"


def _general_check(rho, pair) -> dict:
    """Classical correlations for the Q = I - J check, outside the timed run."""
    from cavnet import correlations

    sub = _reduce(rho, pair)
    return {
        "classical_a": correlations.classical_correlation(sub, "A")[0],
        "classical_b": correlations.classical_correlation(sub, "B")[0],
    }


def _figure_op(runner, cfg, op) -> str:
    spec = runner.ScenarioSpec.named(
        op["figure"],
        initial=(op["initial"],),
        theta_list=(op["theta"],),
        gamma=(op["gamma"],),
        samples=op["samples"],
    )
    buf = io.StringIO()
    runner.run_scenario(spec, cfg).to_csv(buf)
    return buf.getvalue()


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(job: dict) -> dict:
    probe = SpeedProbe()
    probe.start()
    # Set-up counts from the load generator's clock reading just before it
    # started this process.
    setup = (job["t0"] - time.monotonic() + time.perf_counter(), 0.0, 0)
    import cavnet  # noqa: F401  (the package import every caller pays)
    from cavnet import davies, runner
    from cavnet.model import NetworkConfig

    cfg = NetworkConfig()
    davies.chain_generator(cfg)
    wall_setup_s, setup_s = probe.measure(setup)

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    general = job["workload"] == "discord_general"
    inputs = _general_inputs(job["ops"]) if general else job["ops"]
    outputs, errors, latencies = [], [], []
    run = probe.mark()
    for op, data in zip(job["ops"], inputs):
        point = probe.mark()
        try:
            text = _general_op(*data) if general else _figure_op(runner, cfg, data)
            error = None
        except Exception as exc:  # one failed operation never aborts the run
            text, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(probe.measure(point)[1])
        outputs.append(text)
        errors.append(error)
    wall_run_s, run_s = probe.measure(run)
    probe.stop()
    scale = run_s / wall_run_s
    # Trace spans include the handler's time; scaling them against the
    # repetition's elapsed time, handler included, takes it out on average.
    span_scale = run_s / (wall_run_s + probe.stolen - run[1])

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "latencies": latencies,
        "wall_setup_s": wall_setup_s,
        "wall_run_s": wall_run_s,
        "speed_scale": scale,
        "probe_samples": len(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "errors": errors,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {
            name: value * span_scale if name.endswith("_s") else value
            for name, value in tracer.summary().items()
        }
        result["per_call_ms"] = {name: ms * span_scale for name, ms in tracer.per_call_ms().items()}
    if job.get("check"):
        result["environment"] = _environment()
        if general:
            checks = []
            for data, error in zip(inputs, errors):
                checks.append(None if error else _general_check(*data))
            result["checks"] = checks
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
