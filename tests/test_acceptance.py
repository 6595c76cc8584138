"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion (run with ``pytest tests/test_acceptance.py -s``
to see the lines live).  Random-state property families run 200 seeded
cases each; trajectory-based properties are checked at every sample of the
800-point acceptance trajectories.

One check is expected to fail and is kept failing deliberately: the tangle
maxima of the double-excitation family order as pi/4 > pi/8 > pi/3 (verified
against an exact spectral-evolution oracle, independent of the propagator),
not as the required pi/4 > pi/3 > pi/8; see that test's docstring.
"""

import math

import numpy as np
import pytest

from cavnet import correlations as corr
from cavnet import davies, dynamics, model, qla, runner

from conftest import (
    downward_terms,
    exact_unitary_state,
    haar_unitary,
    random_density,
    random_hermitian,
    random_pure,
    unit_lambda_config,
)

LAMBDA = model.effective_coupling(model.NetworkConfig())
TRANSFER = 2 * math.pi / 3
SRC = corr.PairSelector.from_label("11'")
DST = corr.PairSelector.from_label("33'")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def grid(t_max_lambda: float, samples: int) -> np.ndarray:
    return np.linspace(0.0, t_max_lambda / LAMBDA, samples)


@pytest.fixture(scope="module")
def cfg_lossy():
    return model.NetworkConfig()


@pytest.fixture(scope="module")
def cfg_lossless():
    return model.NetworkConfig(gamma=0.0)


@pytest.fixture(scope="module")
def lossless_trajectories(cfg_lossless):
    """Factorized gamma = 0 trajectories over [0, 12] with 800 samples."""
    gen = davies.chain_generator(cfg_lossless)
    times = grid(12.0, 800)
    out = {}
    for kind, theta in (
        ("psi_a", math.pi / 4),
        ("psi_b", math.pi / 4),
        ("psi_b", math.pi / 3),
        ("psi_b", math.pi / 8),
    ):
        rho0 = model.build_initial_state(model.InitialStateSpec(kind, theta), cfg_lossless)
        out[(kind, round(theta, 10))] = dynamics.evolve_factorized(rho0, gen, times)
    return out


@pytest.fixture(scope="module")
def lossy_psi_b_trajectory(cfg_lossy):
    gen = davies.chain_generator(cfg_lossy)
    rho0 = model.build_initial_state(model.InitialStateSpec("psi_b", math.pi / 4), cfg_lossy)
    return dynamics.evolve_factorized(rho0, gen, grid(12.0, 800))


class TestCriterion1ChainSpectrum:
    def test_sector_eigenvalues(self, cfg_lossless):
        h = model.build_effective_chain_hamiltonian(cfg_lossless)
        w = np.sort(np.linalg.eigvalsh(h.matrix)) / LAMBDA
        # Sector oracles from the characteristic polynomials
        # (1-x) x (x-3) and (3-x)(x-1)(x-4), plus the diagonal 4 lambda.
        one_exc = np.sort(np.roots([-1.0, 4.0, -3.0, 0.0]).real)
        two_exc = np.sort(np.roots([1.0, -8.0, 19.0, -12.0]).real)
        expected = np.sort(np.concatenate(([0.0], one_exc, two_exc, [4.0])))
        dev = float(np.max(np.abs(w - expected)) / 4.0)
        ok = dev < 1e-10
        report("1", ok, f"chain sector eigenvalues {{0,l,3l}},{{l,3l,4l}},{{4l}}, rel dev {dev:.2e}")
        assert ok

    def test_full_spectrum_values(self, cfg_lossless):
        h = model.build_effective_chain_hamiltonian(cfg_lossless)
        w = np.sort(np.linalg.eigvalsh(h.matrix)) / LAMBDA
        assert np.max(np.abs(w - [0, 0, 1, 1, 3, 3, 4, 4])) < 1e-10 * 4


class TestCriterion2LosslessTransmission:
    def test_three_quarters_theta_independent(self, cfg_lossless):
        results = {
            theta: runner.transmission_details(
                model.InitialStateSpec("psi_a", theta), cfg_lossless, SRC, DST
            )
            for theta in (math.pi / 8, math.pi / 4, math.pi / 3)
        }
        ratios = [r.ratio for r in results.values()]
        peaks = [r.peak_time_lambda for r in results.values()]
        ok = (
            all(abs(r - 0.750) <= 0.001 for r in ratios)
            and max(ratios) - min(ratios) < 0.005
            and all(abs(p - TRANSFER) <= 0.02 for p in peaks)
        )
        report(
            "2",
            ok,
            f"lossless ratio {min(ratios):.4f}..{max(ratios):.4f} (target 0.750 +/- 0.001), "
            f"peak at {peaks[1]:.4f} (target {TRANSFER:.4f} +/- 0.02)",
        )
        assert ok


class TestCriterion3LossyTransmission:
    def test_reference_ratios_absolute_gamma(self, cfg_lossy):
        # The absolute-rate convention (gamma in 1/ns) hits all three bands.
        r_a = runner.transmission_details(
            model.InitialStateSpec("psi_a", math.pi / 4), cfg_lossy, SRC, DST
        ).ratio
        r_b3 = runner.transmission_details(
            model.InitialStateSpec("psi_b", math.pi / 3), cfg_lossy, SRC, DST
        ).ratio
        r_b8 = runner.transmission_details(
            model.InitialStateSpec("psi_b", math.pi / 8), cfg_lossy, SRC, DST
        ).ratio
        ok = abs(r_a - 0.742) <= 0.010 and abs(r_b3 - 0.63) <= 0.03 and abs(r_b8 - 0.28) <= 0.03
        report(
            "3",
            ok,
            f"gamma=0.01/ns (absolute units): one-excitation {r_a:.4f} (0.742 +/- 0.010), "
            f"double-excitation {r_b3:.3f} (0.63 +/- 0.03) and {r_b8:.3f} (0.28 +/- 0.03)",
        )
        assert ok


class TestCriterion4Tangle:
    def test_single_excitation_tangle_stays_zero(self, lossless_trajectories):
        traj = lossless_trajectories[("psi_a", round(math.pi / 4, 10))]
        taus = np.array([corr.tangle_pure(s, 0) for s in traj.states])
        worst = float(np.abs(taus).max())
        ok = worst <= 1e-8
        report("4a", ok, f"one-excitation tangle stays zero, max |tau| = {worst:.2e} (tol 1e-8)")
        assert ok

    def test_double_excitation_initial_tangle_zero(self, cfg_lossless):
        worst = 0.0
        for theta in (math.pi / 4, math.pi / 3, math.pi / 8):
            rho = model.build_initial_state(model.InitialStateSpec("psi_b", theta), cfg_lossless)
            worst = max(worst, abs(corr.tangle_pure(rho, 0)))
        ok = worst <= 1e-9
        report("4b", ok, f"double-excitation initial tangle zero, max |tau(0)| = {worst:.2e}")
        assert ok

    def test_tangle_maximum_ordering_as_specified(self, lossless_trajectories):
        """Required ordering max_tau(pi/4) > max_tau(pi/3) > max_tau(pi/8).

        This encodes the requirement verbatim and fails deliberately: the
        model provably gives max_tau(pi/8) > max_tau(pi/3).  The maxima are
        window-independent and reproduce under exact spectral evolution
        (about 0.417, 0.203 and 0.333 for pi/4, pi/3, pi/8), so the claimed
        pi/3 > pi/8 leg cannot hold.  Departing from the balanced state in
        either direction does lower the maximum, which is checked separately
        below.
        """
        maxima = {}
        for theta in (math.pi / 4, math.pi / 3, math.pi / 8):
            traj = lossless_trajectories[("psi_b", round(theta, 10))]
            maxima[theta] = max(corr.tangle_pure(s, 0) for s in traj.states)
        chain_ok = maxima[math.pi / 4] > maxima[math.pi / 3] > maxima[math.pi / 8]
        report(
            "4c",
            chain_ok,
            "tangle maxima ordering pi/4 > pi/3 > pi/8 as required; measured "
            f"{maxima[math.pi / 4]:.4f}, {maxima[math.pi / 3]:.4f}, {maxima[math.pi / 8]:.4f}",
        )
        assert chain_ok, (
            "required ordering max_tau(pi/4) > max_tau(pi/3) > max_tau(pi/8) does not "
            f"hold in this model: measured pi/4={maxima[math.pi / 4]:.4f}, "
            f"pi/3={maxima[math.pi / 3]:.4f}, pi/8={maxima[math.pi / 8]:.4f}; the "
            "balanced state dominates but the pi/8 curve exceeds pi/3 (confirmed with "
            "an exact unitary oracle, so this is a defect of the required ordering, "
            "not of the implementation)"
        )

    def test_balanced_state_dominates_tangle(self, lossless_trajectories):
        # The defensible part of the ordering: moving away from theta = pi/4
        # in either direction lowers the maximal tangle.
        maxima = {
            theta: max(
                corr.tangle_pure(s, 0)
                for s in lossless_trajectories[("psi_b", round(theta, 10))].states
            )
            for theta in (math.pi / 4, math.pi / 3, math.pi / 8)
        }
        assert maxima[math.pi / 4] > maxima[math.pi / 3]
        assert maxima[math.pi / 4] > maxima[math.pi / 8]


class TestCriterion5TangleBounds:
    def test_sandwich_and_purity_window(self, lossy_psi_b_trajectory):
        traj = lossy_psi_b_trajectory
        lows, highs, purities = [], [], []
        for state in traj.states:
            b = corr.tangle_bounds(state, 0)
            lows.append(b.lower_raw)
            highs.append(b.upper_raw)
            purities.append(qla.purity(state))
        lows, highs, purities = map(np.array, (lows, highs, purities))
        sandwich = bool(np.all(lows <= highs + 1e-12))
        window = bool(np.all((purities >= 0.86) & (purities <= 1.0 + 1e-9)))
        ok = sandwich and window
        report(
            "5",
            ok,
            f"bounds sandwich at all 800 samples; purity in [{purities.min():.4f}, "
            f"{purities.max():.4f}] (required within [0.86, 1.0])",
        )
        assert ok


class TestCriterion6DaviesStructure:
    def test_bohr_frequencies(self, cfg_lossy):
        h = model.build_effective_chain_hamiltonian(cfg_lossy)
        freqs = davies.bohr_frequencies(h) / LAMBDA
        ok = freqs.shape == (4,) and np.allclose(freqs, [1, 2, 3, 4], atol=1e-9)
        report("6a", ok, f"distinct positive Bohr frequencies/lambda = {np.round(freqs, 6)}")
        assert ok

    def test_dark_state_distinguishes_microscopic_from_local(self):
        cfg = model.NetworkConfig(gamma=0.5)
        dark = np.zeros(8, dtype=complex)
        dark[4], dark[2], dark[1] = 1.0, -1.0, 1.0
        dark /= math.sqrt(3.0)
        rho0 = qla.density(np.outer(dark, dark.conj()), (2, 2, 2))
        times = grid(20.0, 41)
        micro = dynamics.evolve(rho0, davies.chain_generator(cfg), times)
        drift = max(np.max(np.abs(s.matrix - rho0.matrix)) for s in micro.states)
        local = dynamics.evolve(rho0, davies.local_chain_generator(cfg), times)
        survival = np.vdot(dark, local.states[-1].matrix @ dark).real
        ok = drift < 1e-7 and survival < 0.9
        report(
            "6b",
            ok,
            f"dark state frozen under the eigenbasis channels (drift {drift:.2e} < 1e-7) "
            f"but decays under local dissipators (population {survival:.3f} < 0.9)",
        )
        assert ok


class TestCriterion7Oracles:
    def test_lossless_against_matrix_exponential(self, cfg_lossless):
        gen = davies.chain_generator(cfg_lossless)
        psi = (qla.ket("EGG").amplitudes + 1j * qla.ket("GEG").amplitudes) / math.sqrt(2)
        rho0 = qla.PureState(psi, (2, 2, 2)).density()
        t_star = TRANSFER / LAMBDA
        traj = dynamics.evolve(rho0, gen, [0.0, t_star / 2, t_star])
        oracle = exact_unitary_state(gen.hamiltonian.matrix, rho0.matrix, t_star)
        dev = float(np.max(np.abs(traj.states[-1].matrix - oracle)))
        ok = dev < 1e-8
        report("7a", ok, f"gamma=0 trajectory vs spectral exponential oracle: {dev:.2e} (tol 1e-8)")
        assert ok

    def test_factorized_against_direct_network(self, cfg_lossy):
        rho0 = model.build_initial_state(model.InitialStateSpec("psi_b", math.pi / 4), cfg_lossy)
        times = grid(3.0, 7)
        fact = dynamics.evolve_factorized(rho0, davies.chain_generator(cfg_lossy), times)
        direct = dynamics.evolve(rho0, davies.network_generator(cfg_lossy), times)
        dev = max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(fact.states, direct.states))
        ok = dev < 1e-8
        report("7b", ok, f"factorized vs direct 64-dim evolution: {dev:.2e} (tol 1e-8)")
        assert ok

    def test_discord_against_closed_form(self):
        def closed_form(p):
            eig = np.array([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
            eig = eig[eig > 1e-15]
            s_ab = float(-(eig * np.log2(eig)).sum())
            cc = sum(
                (1 + s * p) / 2 * math.log2(1 + s * p)
                for s in (1.0, -1.0)
                if 1 + s * p > 1e-15
            )
            return (2.0 - s_ab) - cc

        devs = [
            abs(corr.quantum_discord(model.werner_state(p)) - closed_form(p))
            for p in (0.2, 0.5, 0.8)
        ]
        ok = max(devs) < 1e-6
        report("7c", ok, f"discord vs Bell-diagonal closed form: max dev {max(devs):.2e} (tol 1e-6)")
        assert ok

    def test_delta_vanishes_on_lossless_tripartite_samples(self, cfg_lossless):
        gen = davies.chain_generator(cfg_lossless)
        rho0 = model.build_initial_state(model.InitialStateSpec("psi1_chain"), cfg_lossless)
        traj = dynamics.evolve(rho0, gen, grid(12.0, 9))
        devs = [abs(corr.delta_fanchini(s).delta) for s in traj.states]
        ok = max(devs) < 1e-5
        report("7d", ok, f"delta on gamma=0 tripartite samples: max |delta| {max(devs):.2e} (tol 1e-5)")
        assert ok


class TestCriterion8PropertySuites:
    """Each invariant family re-verified on 200 seeded random cases."""

    N = 200

    def test_state_core_invariants(self):
        rng = np.random.default_rng(2024)
        for _ in range(self.N):
            rho = random_density(rng, (2, 2, 2))
            keep = sorted(rng.choice(3, size=int(rng.integers(1, 3)), replace=False))
            red = qla.partial_trace(rho, keep)
            assert abs(np.trace(red.matrix) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(red.matrix).min() > -1e-12
            two_step = qla.partial_trace(qla.partial_trace(rho, [0, 1]), [0])
            joint = qla.partial_trace(rho, [0])
            assert np.max(np.abs(two_step.matrix - joint.matrix)) < 1e-12
            psi = random_pure(rng, (2, 2, 2))
            r1 = qla.partial_trace(psi.density(), [int(rng.integers(0, 3))]).matrix
            det_form = 4.0 * np.real(r1[0, 0] * r1[1, 1] - r1[0, 1] * r1[1, 0])
            purity_form = 2.0 * (1.0 - np.vdot(r1, r1).real)
            assert abs(det_form - purity_form) < 1e-12
            u = haar_unitary(rng, 8)
            rot = qla.density(u @ rho.matrix @ u.conj().T, (2, 2, 2))
            assert abs(qla.von_neumann_entropy(rot) - qla.von_neumann_entropy(rho)) < 1e-9
        report("8-qla", True, f"{self.N} random-state checks of the state-core invariants")

    def test_generator_invariants(self):
        rng = np.random.default_rng(2025)
        cfg = unit_lambda_config(gamma=0.3)
        gen = davies.chain_generator(cfg)
        number = sum(qla.embed(qla.PROJ_E, k, (2, 2, 2)).matrix for k in range(3))
        for _ in range(self.N):
            rho = random_density(rng, (2, 2, 2))
            out = davies.lindblad_rhs(rho, gen).matrix
            assert abs(np.trace(out)) <= 1e-12 * 8
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            h = qla.Operator(random_hermitian(rng, 8), (2, 2, 2))
            chans = davies.build_davies_channels(h, cfg)
            scale = np.max(np.abs(h.matrix))
            for ch in chans:
                a = ch.jump.matrix
                comm = h.matrix @ a - a @ h.matrix
                assert np.max(np.abs(comm + ch.bohr_frequency * a)) <= 1e-9 * scale
            site = int(rng.integers(0, 3))
            op = davies.site_lowering_operator(cfg, site).matrix
            downward = sum(t for _, t in downward_terms(h.matrix, op))
            jumps = sum(ch.jump.matrix for ch in chans if ch.site == site)
            assert np.max(np.abs(jumps - downward)) < 1e-13
            blocks = np.zeros((8, 8), dtype=complex)
            for n in range(4):
                proj = np.diag((np.diag(number).real.round() == n).astype(float))
                blocks += proj @ rho.matrix @ proj
            blocks /= np.trace(blocks).real
            flow = np.trace(
                gen.hamiltonian.matrix @ davies.lindblad_rhs(qla.density(blocks, (2, 2, 2)), gen).matrix
            ).real
            assert flow <= 1e-10
        report("8-davies", True, f"{self.N} random-state checks of the dissipator invariants")

    def test_measure_invariants(self):
        rng = np.random.default_rng(2026)
        for k in range(self.N):
            rho = random_density(rng, (2, 2))
            c = corr.concurrence(rho)
            assert -1e-12 <= c <= 1 + 1e-12
            u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            rotated = qla.density(u @ rho.matrix @ u.conj().T, (2, 2))
            assert abs(corr.concurrence(rotated) - c) < 1e-9
            mi = corr.mutual_information(rho)
            cc, _ = corr.classical_correlation(rho)
            q = corr.quantum_discord(rho)
            assert q >= 0.0 and abs(q - (mi - cc)) < 1e-9
            p = float(rng.uniform())
            w = model.werner_state(p)
            assert abs(corr.quantum_discord(w, "A") - corr.quantum_discord(w, "B")) < 1e-6
            mixed = random_density(rng, (2, 2, 2), rank=int(rng.integers(1, 9)))
            b = corr.tangle_bounds(mixed, int(rng.integers(0, 3)))
            assert b.lower_raw <= b.upper_raw + 1e-12
        report("8-correlations", True, f"{self.N} random-state checks of the measure invariants")

    def test_trajectory_invariants(self, lossless_trajectories, lossy_psi_b_trajectory):
        d = 8
        swap = np.zeros((64, 64))
        for i in range(d):
            for j in range(d):
                swap[j * d + i, i * d + j] = 1.0
        checked = 0
        for traj in (lossless_trajectories[("psi_b", round(math.pi / 4, 10))], lossy_psi_b_trajectory):
            for state in traj.states:
                assert abs(np.trace(state.matrix).real - 1.0) < 1e-7
                assert np.linalg.eigvalsh(state.matrix).min() > -1e-7
                swapped = swap @ state.matrix @ swap.T
                assert np.max(np.abs(swapped - state.matrix)) < 1e-9
                checked += 1
        # Monogamy at every lossless sample of the one-excitation family.
        traj = lossless_trajectories[("psi_a", round(math.pi / 4, 10))]
        for state in traj.states:
            assert corr.monogamy_residual(state, 0) >= -1e-9
        report(
            "8-dynamics",
            True,
            f"trace, positivity and swap symmetry at {checked} samples; monogamy at 800 samples",
        )

    def test_matched_quantum_classical_correlations(self, lossy_psi_b_trajectory):
        # For the double-excitation family the discord and the classical
        # correlation coincide on the cavity pairs, at every time.
        worst = 0.0
        for state in lossy_psi_b_trajectory.states[::32]:
            for label in ("11'", "22'", "33'"):
                sub = corr.pair_state(state, corr.PairSelector.from_label(label))
                cc, _ = corr.classical_correlation(sub, "B")
                q = corr.mutual_information(sub) - cc
                worst = max(worst, abs(q - cc))
        ok = worst < 1e-6
        report("8-matched-QC", ok, f"discord equals classical correlation, max gap {worst:.2e}")
        assert ok


class TestCriterion9FigureProperties:
    def test_discord_rises_first_and_dominates_late(self, cfg_lossy):
        sel = corr.PairSelector.from_label("33'")
        ok_all = True
        details = []
        for gamma in (0.05, 0.5):
            cfg = model.NetworkConfig(gamma=gamma)
            gen = davies.chain_generator(cfg)
            rho0 = model.build_initial_state(model.InitialStateSpec("psi_b", math.pi / 4), cfg)
            traj = dynamics.evolve_factorized(rho0, gen, grid(20.0, 320))
            eof, disc = [], []
            for state in traj.states:
                sub = corr.pair_state(state, sel)
                eof.append(corr.eof_from_concurrence(corr.concurrence(sub)))
                disc.append(corr.quantum_discord(sub))
            eof, disc = np.array(eof), np.array(disc)
            rise_q = traj.times_lambda[np.argmax(disc > 1e-3)]
            rise_e = traj.times_lambda[np.argmax(eof > 1e-3)] if np.any(eof > 1e-3) else np.inf
            tail = traj.times_lambda >= 15.0
            margin = float((disc - eof)[tail].min())
            ok = rise_q < rise_e and margin >= -1e-6
            ok_all = ok_all and ok
            details.append(f"gamma={gamma}: Q rises at {rise_q:.2f} vs E at {rise_e:.2f}, tail min(Q-E)={margin:.1e}")
        report("9a", ok_all, "; ".join(details))
        assert ok_all

    def test_middle_cavity_node(self, lossless_trajectories):
        traj = lossless_trajectories[("psi_a", round(math.pi / 4, 10))]
        det2 = np.array([corr.one_tangle(s, 1) for s in traj.states])
        lts = traj.times_lambda
        window = (lts > 1.8) & (lts < 2.4)
        i = int(np.flatnonzero(window)[np.argmin(det2[window])])
        t_min, neg_min = runner._quadratic_peak(lts, -det2, i)
        v_min = -neg_min
        ok = v_min < 1e-6 and abs(t_min - TRANSFER) <= 0.02
        report("9b", ok, f"middle-cavity one-tangle minimum {v_min:.2e} at lambda*t {t_min:.4f}")
        assert ok

    def test_delta_peaks_then_goes_negative(self, cfg_lossy):
        gen = davies.chain_generator(cfg_lossy)
        ok_all = True
        details = []
        for kind in ("psi1_chain", "psi2_chain"):
            rho0 = model.build_initial_state(model.InitialStateSpec(kind), cfg_lossy)
            traj = dynamics.evolve(rho0, gen, grid(12.0, 240))
            deltas = np.array([corr.delta_fanchini(s).delta for s in traj.states])
            i_max = int(np.argmax(deltas))
            peak = float(deltas[i_max])
            dip = float(deltas[i_max:].min())
            ok = peak > 1e-4 and dip < -1e-4
            ok_all = ok_all and ok
            details.append(f"{kind}: peak {peak:.4f}, later dip {dip:.4f}")
        report("9c", ok_all, "; ".join(details))
        assert ok_all


class TestSupplementaryClaims:
    def test_entanglement_sum_larger_for_one_excitation(self, lossless_trajectories):
        # With matched theta = pi/4 and no losses, the single-excitation
        # condition spreads more pairwise entanglement from cavity 1 than
        # the double-excitation one.  Both curves start at exactly 1 (the
        # shared initial Bell pair), so the comparison is over t > 0.
        averages = {}
        for kind in ("psi_a", "psi_b"):
            traj = lossless_trajectories[(kind, round(math.pi / 4, 10))]
            mask = (traj.times_lambda > 0) & (traj.times_lambda <= TRANSFER)
            values = [corr.entanglement_sum(s) for s, m in zip(traj.states, mask) if m]
            averages[kind] = float(np.mean(values))
        assert averages["psi_a"] > averages["psi_b"] + 0.2

    def test_equal_weight_pair_state_behaves_like_balanced_double_excitation(self, cfg_lossy):
        # The verbatim equal-weight preparation of the 1,1' pair is the Bell
        # projector, i.e. the theta = pi/4 double-excitation state.
        a = model.build_initial_state(model.InitialStateSpec("rho_eq20"), cfg_lossy)
        b = model.build_initial_state(model.InitialStateSpec("psi_b", math.pi / 4), cfg_lossy)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12
