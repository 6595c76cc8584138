import math
import warnings

import numpy as np
import pytest

import oracles
from cavnet import correlations as corr
from cavnet import model, qla

from conftest import exact_unitary_state


class TestConfig:
    def test_delta_and_defaults(self, default_cfg):
        assert default_cfg.delta == pytest.approx(2 * math.pi * 300.0)
        assert default_cfg.gamma == 0.01

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            model.NetworkConfig(J=0.0)

    def test_rejects_delta_at_or_below_J(self):
        with pytest.raises(ValueError):
            model.NetworkConfig(J=2 * math.pi * 30.0, omega_f=2 * math.pi * 925.0)

    def test_warns_on_marginal_detuning(self):
        with pytest.warns(UserWarning):
            model.NetworkConfig(J=2 * math.pi * 100.0)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="nonnegative"):
            model.NetworkConfig(gamma=-0.1)
        with pytest.raises(ValueError, match="per-site rates are not supported"):
            model.NetworkConfig(gamma=(-0.1, 0.0, 0.0))

    @pytest.mark.parametrize("field", ["omega", "nu", "omega_f", "J", "gamma", "kappa"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            model.NetworkConfig(**{field: value})

    def test_rejects_finite_temperature(self):
        with pytest.raises(TypeError, match="temperature"):
            model.NetworkConfig(temperature=1.0)

    def test_gamma_units_conversion(self, default_cfg):
        lam = model.effective_coupling(default_cfg)
        cfg = model.NetworkConfig(gamma=0.05, gamma_units="lambda")
        assert cfg.decay_rate() == pytest.approx(0.05 * lam)
        assert default_cfg.decay_rate() == 0.01

    def test_short_fiber_warning(self):
        with pytest.warns(UserWarning):
            model.NetworkConfig(fiber_length_l=10.0, fiber_continuum_decay_mu=0.05)


class TestEffectiveCoupling:
    def test_reference_parameters(self, default_cfg):
        # J = 2*pi*30, delta = 2*pi*300 gives exactly 3*pi rad/ns.
        assert model.effective_coupling(default_cfg) == pytest.approx(3 * math.pi, rel=1e-12)

    def test_quadratic_in_J(self):
        base = model.NetworkConfig()
        with warnings.catch_warnings():
            # Doubling J lands exactly on the delta = 5 J margin.
            warnings.simplefilter("ignore")
            doubled = model.NetworkConfig(J=2 * base.J)
        assert doubled.delta == base.delta
        assert model.effective_coupling(doubled) == pytest.approx(
            4 * model.effective_coupling(base)
        )


class TestChainHamiltonian:
    def test_single_excitation_sector(self, lossless_cfg):
        lam = model.effective_coupling(lossless_cfg)
        h = model.build_effective_chain_hamiltonian(lossless_cfg)
        w = np.linalg.eigvalsh(h.matrix)
        expected = lam * np.array([0, 0, 1, 1, 3, 3, 4, 4])
        assert np.max(np.abs(np.sort(w) - expected)) < 1e-10 * lam

    def test_fully_excited_is_eigenstate(self, default_cfg):
        lam = model.effective_coupling(default_cfg)
        h = model.build_effective_chain_hamiltonian(default_cfg)
        eee = qla.ket("EEE").amplitudes
        assert np.max(np.abs(h.matrix @ eee - 4 * lam * eee)) < 1e-10 * lam

    def test_commutes_with_excitation_number(self, default_cfg):
        h = model.build_effective_chain_hamiltonian(default_cfg)
        number = sum(
            qla.embed(qla.PROJ_E, k, (2, 2, 2)).matrix for k in range(3)
        )
        comm = h.matrix @ number - number @ h.matrix
        assert np.max(np.abs(comm)) < 1e-12 * np.max(np.abs(h.matrix))

    def test_general_length_weights(self):
        cfg = model.NetworkConfig(sites_per_chain=4)
        lam = model.effective_coupling(cfg)
        h = model.build_effective_chain_hamiltonian(cfg)
        # Singly excited basis states pick up the diagonal weights 1,2,2,1.
        for site, weight in enumerate((1.0, 2.0, 2.0, 1.0)):
            label = "".join("E" if k == site else "G" for k in range(4))
            amp = qla.ket(label).amplitudes
            assert np.vdot(amp, h.matrix @ amp).real == pytest.approx(weight * lam)


class TestNetworkHamiltonian:
    def test_spectrum_is_minkowski_sum(self, default_cfg):
        hc = model.build_effective_chain_hamiltonian(default_cfg)
        hn = oracles.build_network_hamiltonian(default_cfg)
        wc = np.linalg.eigvalsh(hc.matrix)
        want = np.sort(np.add.outer(wc, wc).ravel())
        got = np.sort(np.linalg.eigvalsh(hn.matrix))
        assert np.max(np.abs(got - want)) < 1e-9

    def test_ground_energy_zero(self, default_cfg):
        hn = oracles.build_network_hamiltonian(default_cfg)
        vac = qla.ket("G" * 6).amplitudes
        assert abs(np.vdot(vac, hn.matrix @ vac)) < 1e-12

    def test_chain_swap_symmetry(self, default_cfg):
        hn = oracles.build_network_hamiltonian(default_cfg).matrix
        d = 8
        swap = np.zeros((64, 64))
        for i in range(d):
            for j in range(d):
                swap[j * d + i, i * d + j] = 1.0
        assert np.max(np.abs(hn @ swap - swap @ hn)) < 1e-12 * np.max(np.abs(hn))

    def test_product_states_stay_product(self, lossless_cfg):
        # The network Hamiltonian never couples the chains: unitary evolution
        # keeps chain-product states product.
        hn = oracles.build_network_hamiltonian(lossless_cfg)
        lam = model.effective_coupling(lossless_cfg)
        a = qla.ket("EGG").density()
        b = qla.ket("GEG").density()
        rho0 = np.kron(a.matrix, b.matrix)
        evolved = exact_unitary_state(hn.matrix, rho0, 1.3 / lam)
        rho = qla.density(evolved, (2,) * 6)
        for keep in ([0, 1, 2], [3, 4, 5]):
            reduced = qla.partial_trace(rho, keep)
            assert qla.purity(reduced) == pytest.approx(1.0, abs=1e-9)


class TestFullChainModel:
    def test_truncated_dimension(self, default_cfg):
        assert oracles.build_full_chain_hamiltonian(default_cfg, 1).dim == 6
        basis = oracles.full_chain_basis(default_cfg, 1)
        assert len(basis) == 6

    def test_rejects_zero_cap(self, default_cfg):
        with pytest.raises(ValueError):
            oracles.build_full_chain_hamiltonian(default_cfg, 0)

    def test_conserves_total_excitation(self, default_cfg):
        h = oracles.build_full_chain_hamiltonian(default_cfg, 2)
        n = oracles.full_chain_number_operator(default_cfg, 2)
        comm = h.matrix @ n.matrix - n.matrix @ h.matrix
        assert np.max(np.abs(comm)) < 1e-12 * np.max(np.abs(h.matrix))

    @staticmethod
    def _site3_transfer_curves(j_over_delta, times_lambda):
        delta = 2 * math.pi * 300.0
        J = j_over_delta * delta
        cfg = model.NetworkConfig(
            J=J, omega_f=model.NetworkConfig().omega - model.NetworkConfig().nu - delta
        )
        lam = model.effective_coupling(cfg)
        h_full = oracles.build_full_chain_hamiltonian(cfg, 1)
        h_eff = model.build_effective_chain_hamiltonian(cfg)
        psi_full = oracles.full_chain_single_excitation(cfg, 1, 0)
        proj3 = oracles.full_chain_site_projector(cfg, 1, 2).matrix
        psi_eff = qla.ket("EGG")
        full, eff = [], []
        for lt in times_lambda:
            t = lt / lam
            mf = exact_unitary_state(h_full.matrix, psi_full.density().matrix, t)
            me = exact_unitary_state(h_eff.matrix, psi_eff.density().matrix, t)
            full.append(np.real(np.trace(proj3 @ mf)))
            eff.append(np.real(me[1, 1]))
        return np.array(full), np.array(eff)

    def test_effective_model_matches_within_5_percent(self):
        times = np.linspace(0.0, 2 * math.pi / 3, 120)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full, eff = self._site3_transfer_curves(0.1, times)
        assert np.max(np.abs(full - eff)) < 0.05

    def test_deviation_shrinks_with_detuning(self):
        times = np.linspace(0.0, 2 * math.pi / 3, 120)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full_a, eff_a = self._site3_transfer_curves(0.1, times)
            full_b, eff_b = self._site3_transfer_curves(0.05, times)
        dev_a = np.max(np.abs(full_a - eff_a))
        dev_b = np.max(np.abs(full_b - eff_b))
        assert dev_a >= 2.0 * dev_b


class TestInterleavedIndexing:
    def test_ground_label(self):
        assert model.map_interleaved_index("GGGGGG") == 0

    def test_first_cavity_each_chain(self):
        # First label slot is chain-1 site 1 (most significant internal qubit).
        assert model.map_interleaved_index("EGGGGG") == 1 << 5
        # Second slot is the primed chain's first cavity, internal qubit 3.
        assert model.map_interleaved_index("GEGGGG") == 1 << 2

    def test_roundtrip_all_labels(self):
        for idx in range(64):
            assert model.map_interleaved_index(oracles.interleaved_label(idx)) == idx

    def test_malformed_labels_rejected(self):
        with pytest.raises(ValueError):
            model.map_interleaved_index("GGG")
        with pytest.raises(ValueError):
            model.map_interleaved_index("GGXGGG")

    def test_site_labels(self):
        assert model.cavity_label_to_qubit("1") == 0
        assert model.cavity_label_to_qubit("3") == 2
        assert model.cavity_label_to_qubit("1'") == 3
        assert model.cavity_label_to_qubit("3'") == 5


class TestInitialStates:
    def test_psi_a_bell_pair(self, default_cfg):
        rho = model.build_initial_state(model.InitialStateSpec("psi_a", math.pi / 4), default_cfg)
        pair = corr.pair_state(rho, corr.PairSelector(0, 3))
        assert corr.concurrence(pair) == pytest.approx(1.0, abs=1e-12)

    def test_psi_a_product_at_theta_zero(self, default_cfg):
        rho = model.build_initial_state(model.InitialStateSpec("psi_a", 0.0), default_cfg)
        idx = model.map_interleaved_index("EGGGGG")
        assert rho.matrix[idx, idx].real == pytest.approx(1.0)
        for pair in (corr.PairSelector(0, 3), corr.PairSelector(0, 1), corr.PairSelector(2, 5)):
            assert corr.concurrence(corr.pair_state(rho, pair)) == pytest.approx(0.0, abs=1e-12)

    def test_equal_weight_pair_state_is_bell_projector(self, default_cfg):
        rho = model.build_initial_state(model.InitialStateSpec("rho_eq20"), default_cfg)
        assert qla.purity(rho) == pytest.approx(1.0, abs=1e-12)
        pair = corr.pair_state(rho, corr.PairSelector(0, 3))
        assert corr.concurrence(pair) == pytest.approx(1.0, abs=1e-12)

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            model.InitialStateSpec("psi_a", -0.1)
        with pytest.raises(ValueError):
            model.InitialStateSpec("psi_b", 2.0)

    def test_single_chain_states(self, default_cfg):
        rho1 = model.build_initial_state(model.InitialStateSpec("psi1_chain"), default_cfg)
        assert rho1.dim == 8
        # |EGG> is basis index 4, |GGE> is index 1 (first qubit most significant).
        assert rho1.matrix[4, 1].real == pytest.approx(0.5)
        assert rho1.matrix[4, 4].real == pytest.approx(0.5)
        rho2 = model.build_initial_state(model.InitialStateSpec("psi2_chain"), default_cfg)
        assert rho2.matrix[4, 4].real == pytest.approx(1.0)

    def test_unknown_kind_rejected(self):
        for kind in ("bogus", "custom"):
            with pytest.raises(ValueError):
                model.InitialStateSpec(kind)


class TestWerner:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            oracles.werner_state(1.5)

    def test_limits(self):
        assert qla.purity(oracles.werner_state(1.0)) == pytest.approx(1.0)
        assert qla.purity(oracles.werner_state(0.0)) == pytest.approx(0.25)
