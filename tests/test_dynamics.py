import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
import scipy.linalg

import oracles
from cavnet import correlations as corr
from cavnet import davies, dynamics, model, qla, runner

from conftest import basis_state, exact_unitary_state, random_density


def chain_times(cfg, t_max_lambda, samples):
    lam = model.effective_coupling(cfg)
    return np.linspace(0.0, t_max_lambda / lam, samples)


class TestEvolveBasics:
    def test_time_zero_returns_initial(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        rho0 = basis_state("EGG")
        traj = dynamics.evolve(rho0, gen, [0.0])
        assert len(traj) == 1
        assert np.max(np.abs(traj.states[0].matrix - rho0.matrix)) == 0.0

    def test_sample_times_validation(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        rho0 = basis_state("GGG")
        with pytest.raises(ValueError):
            dynamics.evolve(rho0, gen, [0.1, 0.2])
        with pytest.raises(ValueError):
            dynamics.evolve(rho0, gen, [0.0, 0.2, 0.2])

    def test_lossless_evolution_matches_exponential_oracle(self, lossless_cfg):
        cfg = lossless_cfg
        gen = davies.chain_generator(cfg)
        lam = model.effective_coupling(cfg)
        psi = (oracles.ket("EGG") + 1j * oracles.ket("GEG")) / math.sqrt(2)
        rho0 = qla.pure(psi, (2, 2, 2))
        t_star = (2 * math.pi / 3) / lam
        traj = dynamics.evolve(rho0, gen, [0.0, t_star / 2, t_star])
        oracle = exact_unitary_state(gen.hamiltonian.matrix, rho0.matrix, t_star)
        assert np.max(np.abs(traj.states[-1].matrix - oracle)) < 1e-8

    def test_site2_transfer_node(self, lossless_cfg):
        # The middle-site amplitude (e^{-3 i lambda t} - 1)/3 vanishes at
        # lambda t = 2 pi / 3.
        cfg = lossless_cfg
        lam = model.effective_coupling(cfg)
        gen = davies.chain_generator(cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec("psi_a", math.pi / 4), cfg)
        t_star = (2 * math.pi / 3) / lam
        traj = dynamics.evolve_factorized(rho0, gen, [0.0, t_star])
        pop2 = qla.partial_trace(traj.states[-1], [1]).matrix[1, 1].real
        assert pop2 < 1e-8

    def test_trajectory_times_dual_units(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        lam = model.effective_coupling(default_cfg)
        rho0 = basis_state("GGG")
        times = chain_times(default_cfg, 1.0, 5)
        traj = dynamics.evolve(rho0, gen, times)
        assert np.allclose(traj.times_lambda, times * lam)


class TestFactorizedPath:
    def test_identity_at_time_zero(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec("psi_b", 0.3), default_cfg)
        traj = dynamics.evolve_factorized(rho0, gen, [0.0])
        assert np.max(np.abs(traj.states[0].matrix - rho0.matrix)) < 1e-12

    def test_product_states_stay_product(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        a = basis_state("EGG").matrix
        b = basis_state("GGG").matrix
        rho0 = qla.density(np.kron(a, b), (2,) * 6)
        traj = dynamics.evolve_factorized(rho0, gen, chain_times(default_cfg, 2.0, 5))
        for state in traj.states:
            left = qla.partial_trace(state, [0, 1, 2]).matrix
            right = qla.partial_trace(state, [3, 4, 5]).matrix
            assert np.max(np.abs(state.matrix - np.kron(left, right))) < 1e-9

    def test_agrees_with_direct_network_evolution(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        net = oracles.network_generator(default_cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec("psi_b", math.pi / 4), default_cfg)
        times = chain_times(default_cfg, 3.0, 7)
        fact = dynamics.evolve_factorized(rho0, gen, times)
        direct = oracles.direct_evolve(rho0, net, times)
        dev = max(np.max(np.abs(a.matrix - b)) for a, b in zip(fact.states, direct))
        assert dev < 1e-8

    def test_rejects_mismatched_dimensions(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        rho0 = qla.density(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError):
            dynamics.evolve_factorized(rho0, gen, [0.0, 0.01])
        net = oracles.network_generator(default_cfg)
        rho64 = model.build_initial_state(model.InitialStateSpec("psi_a", 0.5), default_cfg)
        with pytest.raises(ValueError, match="dimension"):
            dynamics.evolve_factorized(rho64, net, [0.0, 0.01])

    def test_stepping_matches_per_time_exponential(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec("psi_b", math.pi / 3), default_cfg)
        times = chain_times(default_cfg, 6.0, 25)
        traj = dynamics.evolve_factorized(rho0, gen, times)
        liouvillian = dynamics._liouvillian(gen)
        r = rho0.matrix.reshape(8, 8, 8, 8)  # rows (i, k), cols (j, l)
        for t, state in zip(times, traj.states):
            phi = scipy.linalg.expm(liouvillian * t).reshape(8, 8, 8, 8)  # E_ij -> E_ab
            half = np.einsum("abij,ikjl->abkl", phi, r)
            full = np.einsum("cdkl,abkl->acbd", phi, half).reshape(64, 64)
            assert np.max(np.abs(state.matrix - full)) < 1e-12

    @pytest.mark.parametrize("factorized", [True, False])
    def test_rejects_nonuniform_grid(self, default_cfg, factorized):
        gen = davies.chain_generator(default_cfg)
        if factorized:
            rho0 = model.build_initial_state(model.InitialStateSpec("psi_a", 0.5), default_cfg)
            run = dynamics.evolve_factorized
        else:
            rho0 = basis_state("EGG")
            run = dynamics.evolve
        uniform = chain_times(default_cfg, 4.0, 13)
        run(rho0, gen, uniform)
        with pytest.raises(ValueError, match="uniformly spaced"):
            run(rho0, gen, uniform[[0, 1, 2, 5, 6, 12]])


class TestDirectOracle:
    @pytest.mark.parametrize("gamma", [0.01, 0.5])
    @pytest.mark.parametrize("kind", ["psi1_chain", "psi2_chain"])
    def test_chain_evolution_matches_direct_action(self, kind, gamma):
        # The fig9 grid: 800 samples over 12 lambda*t.
        cfg = model.NetworkConfig(gamma=gamma)
        gen = davies.chain_generator(cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec(kind), cfg)
        times = chain_times(cfg, 12.0, 800)
        traj = dynamics.evolve(rho0, gen, times)
        direct = oracles.direct_evolve(rho0, gen, times)
        dev = max(np.max(np.abs(a.matrix - b)) for a, b in zip(traj.states, direct))
        assert dev < 1e-12


_GAMMAS = pytest.mark.parametrize(
    "gamma, units", [(0.0, "abs"), (0.01, "abs"), (0.5, "lambda"), (5.0, "lambda")],
    ids=["lossless", "0.01abs", "0.5lambda", "5lambda"],
)


class TestReachableBlock:
    """The block stepper against the full-matrix one of ``tests/oracles.py``
    and, on one register, against the direct action of ``exp(L t)``.

    Figure states keep each chain in {vacuum, one excitation}, so the
    regrouped state has 16 reachable rows and columns of 64, and a chain
    state 10 reachable entries of its 64-entry vector (the 3 x 3
    one-excitation block and, under loss, the vacuum population); a dense
    state reaches all of them.  The stepper closes the start under the
    pattern of L and exponentiates only that block of L.
    """

    @_GAMMAS
    @pytest.mark.parametrize("kind", ["psi_a", "psi_b", "rho_eq20", "psi1_chain", "psi2_chain"])
    def test_block_exponential_is_the_propagator_block(self, kind, gamma, units):
        cfg = model.NetworkConfig(gamma=gamma, gamma_units=units)
        gen = davies.chain_generator(cfg)
        if kind.endswith("_chain"):
            rho0 = model.build_initial_state(model.InitialStateSpec(kind), cfg)
            starts = [rho0.matrix.reshape(-1) != 0]
        else:
            rho0 = model.build_initial_state(model.InitialStateSpec(kind, 0.3), cfg)
            m0 = oracles.regroup(rho0.matrix, 8)
            starts = [m0.any(axis=1), m0.any(axis=0)]
        step = chain_times(cfg, 12.0, 120)[1]
        l = dynamics._liouvillian(gen)
        s = dynamics._expm(l * step)
        for live in starts:
            block = dynamics._reachable(l, live)
            assert block.tolist() == dynamics._reachable(s, live).tolist()
            assert np.max(np.abs(dynamics._expm(l[np.ix_(block, block)] * step) - s[np.ix_(block, block)])) < 1e-15

    @_GAMMAS
    @pytest.mark.parametrize("kind", ["psi_a", "psi_b", "rho_eq20", "dense64"])
    def test_block_is_exact(self, kind, gamma, units):
        cfg = model.NetworkConfig(gamma=gamma, gamma_units=units)
        gen = davies.chain_generator(cfg)
        if kind == "dense64":
            rho0 = random_density(np.random.default_rng(64), (2,) * 6)
        else:
            rho0 = model.build_initial_state(model.InitialStateSpec(kind, 0.3), cfg)
        times = chain_times(cfg, 12.0, 120)
        got = dynamics.evolve_factorized(rho0, gen, times)
        dense = oracles.evolve_factorized_dense(rho0, gen, times)
        assert max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(got.states, dense)) < 1e-14
        s = dynamics._expm(dynamics._liouvillian(gen) * times[1])
        m0 = oracles.regroup(rho0.matrix, 8)
        rows, cols = dynamics._reachable(s, m0.any(axis=1)), dynamics._reachable(s, m0.any(axis=0))
        outside = np.ones((64, 64), dtype=bool)
        outside[np.ix_(rows, cols)] = False
        # The full product holds exact zeros outside the block, so the block drops nothing.
        assert not any(oracles.regroup(state.matrix, 8)[outside].any() for state in dense)
        assert (rows.size, cols.size) == ((64, 64) if kind == "dense64" else (16, 16))

    @_GAMMAS
    @pytest.mark.parametrize("kind", ["psi1_chain", "psi2_chain", "dense8"])
    def test_one_register_block_is_exact(self, kind, gamma, units):
        cfg = model.NetworkConfig(gamma=gamma, gamma_units=units)
        gen = davies.chain_generator(cfg)
        if kind == "dense8":
            rho0 = random_density(np.random.default_rng(8), (2,) * 3)
        else:
            rho0 = model.build_initial_state(model.InitialStateSpec(kind), cfg)
        times = chain_times(cfg, 12.0, 120)
        got = dynamics.evolve(rho0, gen, times)
        direct = oracles.direct_evolve(rho0, gen, times)
        assert max(np.max(np.abs(a.matrix - b)) for a, b in zip(got.states, direct)) < 1e-12
        entries = dynamics._reachable(dynamics._expm(dynamics._liouvillian(gen) * times[1]), rho0.matrix.reshape(-1) != 0)
        # Without loss nothing feeds the vacuum population.
        assert entries.size == (64 if kind == "dense8" else 9 if gamma == 0.0 else 10)

    def test_growth_follows_the_nonzero_pattern(self):
        # 0 -> 1 -> 2 is a path, 3 feeds 2 but is never fed: from {0} the
        # closure is {0, 1, 2}, and from {3} it is {2, 3}.  A link counts
        # however small it is: only an exact zero leaves an index out.
        s = np.eye(4)
        s[1, 0] = s[2, 1] = 0.5
        s[2, 3] = 1e-300
        start = np.zeros(4, dtype=bool)
        start[0] = True
        assert dynamics._reachable(s, start).tolist() == [0, 1, 2]
        assert dynamics._reachable(s, start[::-1].copy()).tolist() == [2, 3]


class TestSharedExponential:
    """Both slots of a two-chain state take one exponential when they reach the same block."""

    @pytest.mark.parametrize(
        "kind, theta, exponentials",
        [("psi_b", math.pi / 4, 1), ("psi_a", math.pi / 3, 1), ("rho_eq20", math.pi / 4, 1), ("psi_a", 0.0, 2)],
    )
    def test_exponentials_per_trajectory(self, default_cfg, monkeypatch, kind, theta, exponentials):
        gen = davies.chain_generator(default_cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec(kind, theta), default_cfg)
        times = chain_times(default_cfg, 12.0, 40)
        expm, calls = dynamics._expm, []
        monkeypatch.setattr(dynamics, "_expm", lambda a: calls.append(a.shape) or expm(a))
        shared = dynamics.evolve_factorized(rho0, gen, times)
        assert len(calls) == exponentials
        # Exponentiating each slot's block on its own gives the same bits.
        l_chain, d = dynamics._liouvillian(gen), gen.dim
        at = np.arange(d**4).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        apart = dynamics._block_trajectory(rho0, times, times[1], gen.lambda_scale, l_chain, l_chain.copy(), at)
        assert len(calls) == exponentials + 2
        assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(shared.states, apart.states))


class TestLiouvillian:
    @pytest.mark.parametrize(
        "build, liouvillian_of",
        [
            (davies.chain_generator, dynamics._liouvillian),
            (oracles.local_chain_generator, dynamics._liouvillian),
            (oracles.network_generator, oracles.sparse_liouvillian),
        ],
        ids=["chain_generator", "local_chain_generator", "network_generator"],
    )
    def test_matches_lindblad_rhs(self, build, liouvillian_of):
        spec = build(model.NetworkConfig(gamma=0.05))
        liouvillian = liouvillian_of(spec)
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = random_density(rng, spec.hamiltonian.dims)
            expected = oracles.lindblad_rhs(rho, spec).matrix.reshape(-1)
            assert np.max(np.abs(liouvillian @ rho.matrix.reshape(-1) - expected)) < 1e-12


# theta_m of the [m/m] approximants for m = 3, 5, 7, 9 (Higham 2005, Table
# 2.3): the norms up to which a lower degree used to be chosen.
_FORMER_THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068e0)


class TestPadeExponential:
    """``dynamics._expm`` against ``scipy.linalg.expm``."""

    @pytest.mark.parametrize("gamma", [0.0, 0.01, 0.5, 5.0])
    @pytest.mark.parametrize(
        "t_max_lambda, samples",
        [(12.0, 800), (4.0, 801), (20.0, 800), (20.0, 2)],
        ids=["fig9", "transmission", "fig2", "two-samples"],
    )
    def test_chain_steps(self, gamma, t_max_lambda, samples):
        cfg = model.NetworkConfig(gamma=gamma)
        a = dynamics._liouvillian(davies.chain_generator(cfg)) * chain_times(cfg, t_max_lambda, samples)[1]
        if samples == 2:
            # One step over 20 lambda*t is long enough that squaring runs.
            assert np.abs(a).sum(axis=0).max() > dynamics._THETA_13
        assert np.max(np.abs(dynamics._expm(a) - scipy.linalg.expm(a))) < 1e-13

    @pytest.mark.parametrize("norm", _FORMER_THETAS + (dynamics._THETA_13, 6.0, 40.0))
    def test_every_degree(self, norm):
        # Scaled to 0.99 of each norm: the [13/13] approximant alone where a
        # lower degree used to run and just inside theta_13, then one and
        # three squarings past it.
        rng = np.random.default_rng(int(norm * 1000))
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a *= 0.99 * norm / np.abs(a).sum(axis=0).max()
        ref = scipy.linalg.expm(a)
        assert np.max(np.abs(dynamics._expm(a) - ref)) < 1e-13 * np.max(np.abs(ref))


# Every figure's (gamma, t_max_lambda, samples): the grids whose one-chain step the figures take.
_FIGURE_STEPS = sorted(
    {
        (gamma, spec.t_max_lambda, spec.samples)
        for spec in (runner.ScenarioSpec.named(name) for name in runner.SCENARIO_NAMES if name != "custom")
        for gamma in spec.gamma
    }
)
# Round-off allowed to one propagator step as a channel, relative to its largest Choi
# eigenvalue for positivity and absolute for the trace and Hermiticity defects; the
# window S^N of N steps is allowed N times as much.  The figure steps measure at most
# 2.5e-16 relative (-2.0e-15 against 8), 2.2e-16 and 4.4e-16, their windows 5.5e-14,
# 1.5e-13 and 7.6e-14.
_CHANNEL_EPS = 1e-14


class TestChannelCertificate:
    """Each figure's chain propagator S = exp(L dt), and its window S^N, is a quantum channel.

    The Choi matrix C[(i k), (j l)] = S[(i j), (k l)] is S regrouped by the
    permutation ``at`` of ``evolve_factorized`` (Choi, Linear Algebra Appl. 10,
    285 (1975)): S is completely positive when C is positive semidefinite,
    preserves Hermiticity when C is Hermitian, and preserves the trace when
    sum_i S[(i i), (k l)] = delta_kl.
    """

    @pytest.mark.parametrize("gamma, t_max_lambda, samples", _FIGURE_STEPS)
    def test_step_and_window_are_channels(self, gamma, t_max_lambda, samples):
        cfg = model.NetworkConfig(gamma=gamma)
        gen = davies.chain_generator(cfg)
        d = gen.dim
        _, step = dynamics._validate_sample_times(dynamics.sample_grid(t_max_lambda, samples, model.effective_coupling(cfg)))
        s = dynamics._expm(dynamics._liouvillian(gen) * step)
        at = np.arange(d**4).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        for power in (1, samples - 1):
            eps = power * _CHANNEL_EPS
            m = np.linalg.matrix_power(s, power)
            choi = m.reshape(-1)[at]
            assert np.abs(choi - choi.conj().T).max() < eps
            w = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
            assert w[0] >= -eps * w[-1]
            traces = m.reshape(d, d, d * d)[np.arange(d), np.arange(d)].sum(axis=0)
            assert np.abs(traces - np.eye(d).reshape(-1)).max() < eps


class TestScalarSeries:
    def test_trace_series_is_one(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        rho0 = basis_state("EEG")
        traj = dynamics.evolve(rho0, gen, chain_times(default_cfg, 2.0, 9))
        traces = np.array([np.trace(s.matrix).real for s in traj.states])
        assert np.max(np.abs(traces - 1.0)) < 1e-7

    def test_purity_constant_without_losses(self, lossless_cfg):
        gen = davies.chain_generator(lossless_cfg)
        rho0 = model.build_initial_state(
            model.InitialStateSpec("psi_a", math.pi / 3), lossless_cfg
        )
        traj = dynamics.evolve_factorized(rho0, gen, chain_times(lossless_cfg, 4.0, 9))
        purities = np.array([qla.purity(s) for s in traj.states])
        assert np.max(np.abs(purities - 1.0)) < 1e-8


class TestPhysicalInvariants:
    def test_dark_state_frozen_at_strong_damping(self):
        cfg = model.NetworkConfig(gamma=0.5)
        gen = davies.chain_generator(cfg)
        dark = np.zeros(8, dtype=complex)
        dark[4], dark[2], dark[1] = 1.0, -1.0, 1.0
        dark /= math.sqrt(3.0)
        rho0 = qla.density(np.outer(dark, dark.conj()), (2, 2, 2))
        traj = dynamics.evolve(rho0, gen, chain_times(cfg, 20.0, 21))
        for state in traj.states:
            assert np.max(np.abs(state.matrix - rho0.matrix)) < 1e-7

    def test_bright_modes_decay_to_vacuum(self):
        # Initial states without dark-state weight relax to the vacuum; at
        # gamma * t = 10 (bare-rate convention kappa = 1) the ground
        # population passes 0.999.
        cfg = model.NetworkConfig(gamma=5.0, kappa=1.0)
        gen = davies.chain_generator(cfg)
        # Single-excitation eigenmode (|EGG> - |GGE>)/sqrt(2), energy lambda.
        bright = np.zeros(8, dtype=complex)
        bright[4], bright[1] = 1.0, -1.0
        bright /= math.sqrt(2.0)
        rho0 = qla.density(np.outer(bright, bright.conj()), (2, 2, 2))
        t_end = 10.0 / 5.0
        traj = dynamics.evolve(rho0, gen, [0.0, t_end / 2, t_end])
        ground = traj.states[-1].matrix[0, 0].real
        assert ground > 0.999

    def test_dark_component_is_trapped(self):
        # |EGG> overlaps the zero-energy dark mode with weight 1/3, which
        # never decays: the steady state is 2/3 vacuum plus 1/3 dark state.
        cfg = model.NetworkConfig(gamma=5.0, kappa=1.0)
        gen = davies.chain_generator(cfg)
        rho0 = basis_state("EGG")
        traj = dynamics.evolve(rho0, gen, [0.0, 10.0 / 5.0])
        final = traj.states[-1].matrix
        dark = np.zeros(8, dtype=complex)
        dark[4], dark[2], dark[1] = 1.0, -1.0, 1.0
        dark /= math.sqrt(3.0)
        assert final[0, 0].real == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert np.vdot(dark, final @ dark).real == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_chain_swap_symmetry_preserved(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec("psi_b", math.pi / 4), default_cfg)
        traj = dynamics.evolve_factorized(rho0, gen, chain_times(default_cfg, 3.0, 7))
        d = 8
        swap = np.zeros((64, 64))
        for i in range(d):
            for j in range(d):
                swap[j * d + i, i * d + j] = 1.0
        for state in traj.states:
            swapped = swap @ state.matrix @ swap.T
            assert np.max(np.abs(swapped - state.matrix)) < 1e-9

    def test_positivity_along_trajectory(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        rng = np.random.default_rng(5)
        rho0 = random_density(rng, (2, 2, 2))
        traj = dynamics.evolve(rho0, gen, chain_times(default_cfg, 5.0, 11))
        for state in traj.states:
            assert np.linalg.eigvalsh(state.matrix).min() > -1e-7


class TestChunks:
    """Samples are validated once on their support and built as states in chunks of ``_CHUNK``."""

    @pytest.mark.parametrize("samples", [1, 16, 17, 81])
    def test_chunk_edges_are_exact(self, default_cfg, monkeypatch, samples):
        first_invalid = dynamics._first_invalid
        checked = []
        monkeypatch.setattr(dynamics, "_first_invalid", lambda m: checked.append(m) or first_invalid(m))
        gen = davies.chain_generator(default_cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec("psi_a", 0.3), default_cfg)
        times = chain_times(default_cfg, 6.0, samples)
        got = dynamics.evolve_factorized(rho0, gen, times)
        dense = oracles.evolve_factorized_dense(rho0, gen, times)
        assert len(got) == samples
        assert max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(got.states, dense)) < 1e-14
        # Every sample is checked once, in order, on its support: each chain
        # in its vacuum (index 0) or one excitation (1, 2, 4).
        assert sum(len(m) for m in checked) == samples
        support = [8 * i + j for i in (0, 1, 2, 4) for j in (0, 1, 2, 4)]
        assert got.support.tolist() == support
        assert np.array_equal(got.samples, np.stack([a.matrix[np.ix_(support, support)] for a in got.states]))
        assert np.array_equal(np.concatenate(checked), got.samples)

    @pytest.mark.parametrize("path, kind", [("evolve", "psi2_chain"), ("evolve_factorized", "psi_a")])
    def test_samples_are_read_only(self, default_cfg, path, kind):
        gen = davies.chain_generator(default_cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec(kind), default_cfg)
        traj = getattr(dynamics, path)(rho0, gen, chain_times(default_cfg, 1.0, 20))
        for state in traj.states:
            assert not state.matrix.flags.writeable
            with pytest.raises(ValueError):
                state.matrix[0, 0] = 0.0
        # The states of one chunk share its array: no sample is copied again.
        assert traj.states[0].matrix.base is traj.states[dynamics._CHUNK - 1].matrix.base
        assert traj.states[0].matrix.base is not traj.states[dynamics._CHUNK].matrix.base

    def test_a_sample_off_the_checked_columns_is_rejected(self, lossless_cfg, monkeypatch):
        # A link that feeds rho[0, a] from rho[a, a] and nothing back: row 0
        # holds entries while column 0 stays zero, so only a support taken
        # from rows and columns sees the asymmetry, from the first step on.
        gen = davies.chain_generator(lossless_cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec("psi2_chain"), lossless_cfg)
        a = int(np.argmax(np.diagonal(rho0.matrix).real))
        liouvillian = dynamics._liouvillian

        def leaky(spec):
            out = liouvillian(spec).copy()  # the cached matrix is read-only and shared
            out[a, a * spec.dim + a] += 1e-3
            return out

        monkeypatch.setattr(dynamics, "_liouvillian", leaky)
        times = chain_times(lossless_cfg, 1.0, 20)
        lam = model.effective_coupling(lossless_cfg)
        with pytest.raises(ValueError, match=rf"^sample 1 at lambda\*t = {times[1] * lam:.6g}: not Hermitian"):
            dynamics.evolve(rho0, gen, times)


_SERIES_PAIRS = tuple(corr.PairSelector.from_label(label) for label in ("11'", "22'", "33'", "21'"))
_SITES = ((0,), (1,), (2,))


@pytest.fixture(
    scope="module",
    params=[(kind, gamma) for kind in ("psi_a", "psi_b", "rho_eq20") for gamma in (0.0, 0.05)],
    ids=lambda p: f"{p[0]}-gamma={p[1]}",
)
def figure_trajectory(request):
    kind, gamma = request.param
    init = model.InitialStateSpec(kind, math.pi / 3)
    return runner.network_trajectory(model.NetworkConfig(gamma=gamma), init, 12.0, 120)


class TestReducedBlock:
    """``Trajectory.reduced`` reads every sample's partial traces from the block, bit for bit."""

    def test_pairs_and_sites_equal_partial_trace(self, figure_trajectory):
        traj = figure_trajectory
        for keeps in ([(sel.first, sel.second) for sel in _SERIES_PAIRS], _SITES):
            stack = traj.reduced(keeps)
            assert stack.shape[:2] == (len(traj), len(keeps)) and not stack.flags.writeable
            for k, state in enumerate(traj.states):
                for q, keep in enumerate(keeps):
                    assert np.array_equal(stack[k, q], qla.partial_trace(state, keep).matrix), f"sample {k}, keep {keep}"

    def test_series_equal_the_per_state_functions(self, figure_trajectory):
        traj = figure_trajectory
        for sel in _SERIES_PAIRS:
            series = corr.concurrence_series(traj.reduced([(sel.first, sel.second)])[:, 0])
            assert np.array_equal(series, [corr.concurrence(corr.pair_state(s, sel)) for s in traj.states]), sel
        tangles = corr.one_tangle_series(traj.reduced(_SITES))
        assert np.array_equal(tangles, [[corr.one_tangle(s, site) for (site,) in _SITES] for s in traj.states])

    @pytest.mark.parametrize("kind", model.InitialStateSpec.THETA_KINDS)
    @pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, math.pi / 3])
    def test_transmission_initial_state_is_the_first_sample(self, default_cfg, kind, theta):
        # Transmission divides by the source concurrence of ``initial``; on
        # its own initial states that is sample 0's, bit for bit.
        traj = runner.network_trajectory(default_cfg, model.InitialStateSpec(kind, theta), 4.0, 2)
        assert np.array_equal(traj.initial.matrix, traj.states[0].matrix)

    def test_dense_pairs_take_the_general_route(self, default_cfg, monkeypatch):
        gen = davies.chain_generator(default_cfg)
        rho0 = random_density(np.random.default_rng(64), (2,) * 6)
        traj = dynamics.evolve_factorized(rho0, gen, chain_times(default_cfg, 6.0, 12))
        keeps = [(sel.first, sel.second) for sel in _SERIES_PAIRS]
        stack = traj.reduced(keeps)
        assert not any(corr._is_x_form(m) for m in stack.reshape(-1, 4, 4))
        general, calls = corr._general_concurrence, []
        monkeypatch.setattr(corr, "_general_concurrence", lambda m: calls.append(1) or general(m))
        for q, sel in enumerate(_SERIES_PAIRS):
            series = corr.concurrence_series(stack[:, q])
            assert np.array_equal(series, [general(m) for m in stack[:, q]])
            assert np.array_equal(series, [corr.concurrence(corr.pair_state(s, sel)) for s in traj.states])
        assert len(calls) == 2 * len(traj) * len(keeps)
        tangles = corr.one_tangle_series(traj.reduced(_SITES))
        assert np.array_equal(tangles, [[corr.one_tangle(s, site) for (site,) in _SITES] for s in traj.states])

    def test_an_invalid_reduction_names_its_sample(self, default_cfg):
        traj = runner.network_trajectory(default_cfg, model.InitialStateSpec("psi_a", 0.3), 2.0, 6)
        samples = traj.samples.copy()
        samples[3] *= 1.5
        samples.setflags(write=False)
        broken = dataclasses.replace(traj, samples=samples)
        # The same matrix wrapped unchecked, as the reference for partial_trace's message.
        sample = np.zeros((1, 64, 64), dtype=complex)
        sample[0][np.ix_(traj.support, traj.support)] = samples[3]
        with pytest.raises(ValueError) as reference:
            qla.partial_trace(qla._wrap_checked(sample, traj.dims)[0], (0, 3))
        assert str(reference.value).startswith("trace deviates from one")
        match = re.escape(f"sample 3 at lambda*t = {traj.times_lambda[3]:.6g}: {reference.value}")
        with pytest.raises(ValueError, match=f"^{match}$"):
            broken.reduced([(0, 3), (2, 5)])

    def test_an_invalid_sample_is_rejected_before_any_measure(self, default_cfg, monkeypatch):
        # The leak of ``test_a_sample_off_the_checked_columns_is_rejected``, on
        # both chains of a fig2 point: the check of the stepped block fails,
        # so no reduction or concurrence runs.
        liouvillian, a = dynamics._liouvillian, 4

        def leaky(spec):
            out = liouvillian(spec).copy()  # the cached matrix is read-only and shared
            out[a, a * spec.dim + a] += 1e-3
            return out

        reduced, series = [], corr.concurrence_series
        monkeypatch.setattr(dynamics, "_liouvillian", leaky)
        monkeypatch.setattr(dynamics.Trajectory, "reduced", lambda self, keeps: reduced.append(keeps))
        monkeypatch.setattr(corr, "concurrence_series", lambda stack: reduced.append(stack) or series(stack))
        spec = runner.ScenarioSpec.named("fig2", theta_list=(0.3,), gamma=(0.0,), samples=6)
        with pytest.raises(ValueError, match=r"^sample 1 at lambda\*t = \S+: not Hermitian"):
            runner.run_scenario(spec, default_cfg)
        assert reduced == []


class TestTraceGuard:
    @pytest.mark.parametrize("path, kind", [("evolve", "psi2_chain"), ("evolve_factorized", "psi_a")])
    def test_trace_drift_raises(self, default_cfg, monkeypatch, path, kind):
        # A c*I term in the generator scales the trace by exp(c t), or by
        # exp(2 c t) on two chains; c is set so that the trace leaves the
        # guard band at sample 3 of 9, and that first drifting sample must
        # be named.
        chains = 2 if path == "evolve_factorized" else 1
        times = chain_times(default_cfg, 1.0, 9)
        c = 1.5 * dynamics.TRACE_GUARD / (chains * times[4])
        liouvillian = dynamics._liouvillian
        monkeypatch.setattr(dynamics, "_liouvillian", lambda spec: liouvillian(spec) + c * np.eye(spec.dim**2))
        gen = davies.chain_generator(default_cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec(kind), default_cfg)
        drift = np.expm1(chains * c * times)
        k = int(np.argmax(drift > dynamics.TRACE_GUARD))
        assert k == 3
        lam = model.effective_coupling(default_cfg)
        match = rf"trace drifted to {1.0 + drift[k]:.12g} at lambda\*t = {times[k] * lam:.6g} \(guard 1e-07\)"
        with pytest.raises(dynamics.TraceDriftError, match=match):
            getattr(dynamics, path)(rho0, gen, times)


class TestChargeSectors:
    """Each figure initial state carries one charge Q that the dynamics conserves.

    The generator is covariant under each chain's number phase, so rho(t)
    stays block-diagonal in Q, exactly, and every pair reduction is then
    X-form.  Q is N1 + N2 for psi_a, N1 - N2 for psi_b and rho_eq20, and N
    for the chain states.
    """

    @pytest.mark.parametrize(
        "kind, gamma",
        [
            ("psi_a", 0.0),
            ("psi_a", 0.01),
            ("psi_b", 0.0),
            ("psi_b", 0.01),
            ("psi_b", 0.05),
            ("psi_b", 0.5),
            ("rho_eq20", 0.01),
            ("psi1_chain", 0.01),
            ("psi2_chain", 0.01),
        ],
    )
    def test_trajectory_stays_in_its_charge_sectors(self, kind, gamma):
        init = model.InitialStateSpec(kind, math.pi / 3)
        traj = runner.network_trajectory(model.NetworkConfig(gamma=gamma), init, 12.0, 200)
        nq = len(traj.states[0].dims)
        excited = np.array(list(itertools.product((0, 1), repeat=nq)))
        if kind in model.InitialStateSpec.CHAIN_KINDS:
            charge = excited.sum(axis=1)
        else:
            n1, n2 = excited[:, :3].sum(axis=1), excited[:, 3:].sum(axis=1)
            charge = n1 + n2 if kind == "psi_a" else n1 - n2
        across = charge[:, None] != charge[None, :]
        pairs = [corr.PairSelector(i, j) for i, j in itertools.combinations(range(nq), 2)]
        assert len(pairs) == (15 if nq == 6 else 3)
        for k, rho in enumerate(traj.states):
            assert not rho.matrix[across].any(), f"sample {k}"
            for sel in pairs:
                assert corr._is_x_form(corr.pair_state(rho, sel).matrix), f"sample {k}, pair {sel}"

    @pytest.mark.parametrize("gamma", [0.01, 0.5])
    def test_psi1_chain_trajectory_is_mirror_symmetric(self, gamma):
        # psi1_chain is invariant under the mirror 1 <-> 3 of the chain, and so is the generator.
        init = model.InitialStateSpec("psi1_chain")
        traj = runner.network_trajectory(model.NetworkConfig(gamma=gamma), init, 12.0, 800)
        mirror = np.arange(8).reshape(2, 2, 2).transpose(2, 1, 0).reshape(-1)
        for k, rho in enumerate(traj.states):
            m = rho.matrix
            assert np.abs(m[np.ix_(mirror, mirror)] - m).max() <= 1e-13, f"sample {k}"


class TestGeneratorSymmetry:
    """The chain generator's weak symmetries, on its row-major Liouvillian.

    The Davies generator is covariant under the chain's number phase, so L
    never couples vec entries (i, j) of different n(i) - n(j); and the
    uniform chain is symmetric under the mirror 1 <-> 3.
    """

    @pytest.mark.parametrize("gamma", [0.0, 0.01, 0.05, 0.5])
    def test_keeps_the_excitation_difference(self, gamma):
        cfg = model.NetworkConfig(gamma=gamma)
        liouvillian = dynamics._liouvillian(davies.chain_generator(cfg))
        n = np.array([bin(i).count("1") for i in range(8)])
        difference = (n[:, None] - n[None, :]).reshape(-1)
        across = difference[:, None] != difference[None, :]
        assert np.count_nonzero(liouvillian[~across]) > 0
        assert np.count_nonzero(liouvillian[across]) == 0
        # So does each figure's propagator S = exp(L dt), exactly: the
        # trajectory's support, and the zeros outside it, rest on these zeros.
        steps = [(t_max, samples) for g, t_max, samples in _FIGURE_STEPS if g == gamma]
        assert steps
        for t_max_lambda, samples in steps:
            _, step = dynamics._validate_sample_times(dynamics.sample_grid(t_max_lambda, samples, model.effective_coupling(cfg)))
            s = dynamics._expm(liouvillian * step)
            assert np.count_nonzero(s[~across]) > 0
            assert np.count_nonzero(s[across]) == 0, (t_max_lambda, samples)

    @pytest.mark.parametrize("gamma", [0.0, 0.01, 0.5])
    def test_commutes_with_the_mirror(self, gamma):
        liouvillian = dynamics._liouvillian(davies.chain_generator(model.NetworkConfig(gamma=gamma)))
        mirror = np.arange(8).reshape(2, 2, 2).transpose(2, 1, 0).reshape(-1)
        # S = P (x) P on row-major vec, P the bit reversal of the three sites.
        s = (mirror[:, None] * 8 + mirror[None, :]).reshape(-1)
        defect = np.abs(liouvillian[np.ix_(s, s)] - liouvillian).max()
        assert defect <= 1e-14 * np.abs(liouvillian).max()


class TestPhaseCovariance:
    """Phasing chain 2 by V = exp(i phi N_2) before evolution gives V rho(t) V^dagger."""

    @pytest.mark.parametrize(
        "amplitudes",
        [
            {"GGGGGG": math.sin(math.pi / 4), "EGGEGG": math.cos(math.pi / 4)},
            {"EGGGGG": math.cos(math.pi / 3), "GGGEGG": math.sin(math.pi / 3)},
        ],
        ids=["psi_b", "psi_a"],
    )
    def test_phased_chain_2_evolves_covariantly(self, amplitudes):
        cfg = model.NetworkConfig(gamma=0.05)
        chain = davies.chain_generator(cfg)
        times = dynamics.sample_grid(20.0, 400, model.effective_coupling(cfg))
        a = sum(amp * oracles.ket(label) for label, amp in amplitudes.items())
        # Chain 2 is the last three qubits, the low bits of the chain-blocked index.
        v = np.exp(0.9j * np.array([bin(i & 7).count("1") for i in range(64)]))
        plain = dynamics.evolve_factorized(qla.pure(a, (2,) * 6), chain, times)
        phased = dynamics.evolve_factorized(qla.pure(v * a, (2,) * 6), chain, times)
        pairs = [corr.PairSelector.from_label(label) for label in ("33'", "21'")]
        for k, (rho, rho_v) in enumerate(zip(plain.states, phased.states)):
            expected = v[:, None] * rho.matrix * v.conj()[None, :]
            assert np.abs(rho_v.matrix - expected).max() <= 1e-14, f"sample {k}"
            for sel in pairs:
                sub, sub_v = corr.pair_state(rho, sel), corr.pair_state(rho_v, sel)
                assert abs(corr.concurrence(sub_v) - corr.concurrence(sub)) <= 1e-12, f"sample {k}, pair {sel}"
                assert abs(corr.quantum_discord(sub_v) - corr.quantum_discord(sub)) <= 1e-12, f"sample {k}, pair {sel}"
