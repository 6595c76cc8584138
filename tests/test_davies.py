"""Davies channels and the chain generator.

``davies.chain_generator`` keeps one generator per configuration.  A test
that monkeypatches how a generator is built (the Hamiltonian or the
channels) must call ``davies.chain_generator.cache_clear()`` before it
builds and after, or it reads, and leaves behind, a cached generator.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cavnet import davies, model, qla

from conftest import basis_state, downward_terms, random_density, random_hermitian, unit_lambda_config

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def dark_state_vector():
    # Zero-energy single-excitation chain eigenstate (|EGG> - |GEG> + |GGE>)/sqrt(3).
    v = np.zeros(8, dtype=complex)
    v[4], v[2], v[1] = 1.0, -1.0, 1.0
    return v / math.sqrt(3.0)


class TestBohrFrequencies:
    def test_chain_frequency_set(self, default_cfg):
        lam = model.effective_coupling(default_cfg)
        h = model.build_effective_chain_hamiltonian(default_cfg)
        got = oracles.bohr_frequencies(h)
        # Brute-force oracle: dedupe all positive eigenvalue differences.
        w = np.linalg.eigvalsh(h.matrix)
        diffs = np.array([b - a for a in w for b in w if b - a > 1e-9 * (w[-1] - w[0])])
        oracle = np.unique(np.round(diffs / lam, 6)) * lam
        assert np.allclose(np.sort(got), np.sort(oracle), atol=1e-9 * lam)
        assert np.allclose(got / lam, [1.0, 2.0, 3.0, 4.0], atol=1e-9)

    def test_zero_hamiltonian(self):
        assert oracles.bohr_frequencies(qla.Operator(np.zeros((4, 4)), (2, 2))).size == 0

    def test_two_level_gap(self):
        assert np.allclose(oracles.bohr_frequencies(qla.Operator(np.diag([0.0, 2.5]), (2,))), [2.5])

    def test_non_hermitian_rejected(self, default_cfg):
        m = model.build_effective_chain_hamiltonian(default_cfg).matrix.copy()
        m[0, 7] += 1.0
        h = qla.Operator(m, (2, 2, 2))
        with pytest.raises(ValueError, match="not Hermitian"):
            oracles.bohr_frequencies(h)
        with pytest.raises(ValueError, match="not Hermitian"):
            davies.build_davies_channels(h, default_cfg)


class TestSiteLowering:
    def test_lowers_single_excitation(self, default_cfg):
        op = davies.site_lowering_operator(default_cfg, 0)
        out = op.matrix @ oracles.ket("EGG")
        want = default_cfg.kappa * oracles.ket("GGG")
        assert np.max(np.abs(out - want)) < 1e-14

    def test_annihilates_ground(self, default_cfg):
        op = davies.site_lowering_operator(default_cfg, 1)
        assert np.max(np.abs(op.matrix @ oracles.ket("GGG"))) == 0.0

    def test_nilpotent(self, default_cfg):
        op = davies.site_lowering_operator(default_cfg, 2).matrix
        assert np.max(np.abs(op @ op)) == 0.0

    def test_out_of_range(self, default_cfg):
        with pytest.raises(ValueError):
            davies.site_lowering_operator(default_cfg, 3)


class TestChannelConstruction:
    def test_chain_channel_census(self, default_cfg):
        # At most one channel per (site, Bohr frequency): 3 sites x 4
        # frequencies = 12 candidates before zero pruning.  The end sites
        # couple only at the lambda and 3*lambda gaps (worked out from the
        # eigenvectors), the middle site at all four.
        lam = model.effective_coupling(default_cfg)
        h = model.build_effective_chain_hamiltonian(default_cfg)
        channels = davies.build_davies_channels(h, default_cfg)
        n_candidates = 3 * oracles.bohr_frequencies(h).size
        assert n_candidates == 12
        assert len(channels) <= n_candidates
        freqs = {site: set() for site in range(3)}
        for ch in channels:
            freqs[ch.site].add(round(ch.bohr_frequency / lam, 6))
            assert np.max(np.abs(ch.jump.matrix)) > davies.ZERO_JUMP_ATOL
        assert freqs[0] == {1.0, 3.0}
        assert freqs[1] == {1.0, 2.0, 3.0, 4.0}
        assert freqs[2] == {1.0, 3.0}

    def test_zero_rates_give_no_channels(self):
        cfg = model.NetworkConfig(gamma=0.0)
        h = model.build_effective_chain_hamiltonian(cfg)
        assert davies.build_davies_channels(h, cfg) == []

    def test_dark_state_annihilated_by_every_channel(self, default_cfg):
        h = model.build_effective_chain_hamiltonian(default_cfg)
        channels = davies.build_davies_channels(h, default_cfg)
        dark = dark_state_vector()
        for ch in channels:
            assert np.max(np.abs(ch.jump.matrix @ dark)) < 1e-12

    def test_network_channels_embed_chain_locally(self, default_cfg):
        chain = davies.build_davies_channels(
            model.build_effective_chain_hamiltonian(default_cfg), default_cfg
        )
        network = davies.build_davies_channels(
            oracles.build_network_hamiltonian(default_cfg), default_cfg
        )
        assert len(network) == 2 * len(chain)
        eye = np.eye(8)
        by_key = {(c.site, round(c.bohr_frequency, 9)): c.jump.matrix for c in chain}
        for ch in network:
            site = ch.site % 3
            want = by_key[(site, round(ch.bohr_frequency, 9))]
            embedded = np.kron(want, eye) if ch.site < 3 else np.kron(eye, want)
            assert np.max(np.abs(ch.jump.matrix - embedded)) < 1e-10

    @pytest.mark.parametrize("build", ["chain", "network"])
    def test_each_channel_is_its_defining_sum(self, default_cfg, build):
        # Each jump is the sum of |a><a|A|b><b| over the eigenvector pairs
        # whose gap matches its Bohr frequency.
        if build == "chain":
            h = model.build_effective_chain_hamiltonian(default_cfg)
        else:
            h = oracles.build_network_hamiltonian(default_cfg)
        w = np.linalg.eigvalsh(h.matrix)
        atol = davies.DEGENERACY_RTOL * (w[-1] - w[0])
        nsites = len(h.dims)
        terms = [
            downward_terms(h.matrix, davies.site_lowering_operator(default_cfg, site, nsites).matrix)
            for site in range(nsites)
        ]
        channels = davies.build_davies_channels(h, default_cfg)
        assert channels
        for ch in channels:
            want = sum(t for gap, t in terms[ch.site] if abs(gap - ch.bohr_frequency) <= atol)
            assert np.max(np.abs(ch.jump.matrix - want)) < 1e-13

    def test_channel_validation(self, default_cfg):
        with pytest.raises(ValueError):
            davies.DaviesChannel(0, -1.0, qla.Operator(np.eye(2), (2,)), 0.1)
        with pytest.raises(ValueError):
            davies.DaviesChannel(0, 1.0, qla.Operator(np.zeros((2, 2)), (2,)), 0.1)


class TestLindbladRhs:
    def test_ground_state_stationary(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        ground = basis_state("GGG")
        out = oracles.lindblad_rhs(ground, gen)
        assert np.max(np.abs(out.matrix)) < 1e-12

    def test_unitary_part_only_fixes_eigenprojectors(self, default_cfg):
        h = model.build_effective_chain_hamiltonian(default_cfg)
        gen = davies.GeneratorSpec(h, (), model.effective_coupling(default_cfg))
        v = np.linalg.eigh(h.matrix)[1][:, 5]
        rho = qla.density(np.outer(v, v.conj()), (2, 2, 2))
        out = oracles.lindblad_rhs(rho, gen)
        assert np.max(np.abs(out.matrix)) < 1e-9

    def test_dark_state_stationary(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        dark = dark_state_vector()
        rho = qla.density(np.outer(dark, dark.conj()), (2, 2, 2))
        out = oracles.lindblad_rhs(rho, gen)
        assert np.max(np.abs(out.matrix)) < 1e-12

    def test_dimension_mismatch(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        with pytest.raises(ValueError):
            oracles.lindblad_rhs(qla.density(np.eye(2) / 2), gen)


class TestGeneratorInvariants:
    @given(seed=seeds)
    def test_rhs_traceless_and_hermitian(self, seed):
        cfg = unit_lambda_config(gamma=0.3)
        gen = davies.chain_generator(cfg)
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2, 2))
        out = oracles.lindblad_rhs(rho, gen).matrix
        assert abs(np.trace(out)) <= 1e-12 * 8
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    @given(seed=seeds)
    def test_davies_commutation_on_random_hamiltonians(self, seed):
        # Each jump is an eigenoperator: [H, A] = -omega A.
        rng = np.random.default_rng(seed)
        h = qla.Operator(random_hermitian(rng, 8), (2, 2, 2))
        cfg = unit_lambda_config(gamma=0.2)
        channels = davies.build_davies_channels(h, cfg)
        scale = np.max(np.abs(h.matrix))
        assert channels
        for ch in channels:
            a = ch.jump.matrix
            comm = h.matrix @ a - a @ h.matrix
            assert np.max(np.abs(comm + ch.bohr_frequency * a)) <= 1e-9 * scale

    @given(seed=seeds)
    def test_jumps_sum_to_downward_coupling(self, seed):
        # Summed over frequencies, a site's jumps are the strictly downward
        # part of its coupling, and what they leave out has no element
        # between eigenvectors whose gap is above the grouping tolerance.
        rng = np.random.default_rng(seed)
        h = qla.Operator(random_hermitian(rng, 8), (2, 2, 2))
        cfg = unit_lambda_config(gamma=0.2)
        channels = davies.build_davies_channels(h, cfg)
        w, v = np.linalg.eigh(h.matrix)
        downward = (w[None, :] - w[:, None]) > davies.DEGENERACY_RTOL * (w[-1] - w[0])
        for site in range(3):
            op = davies.site_lowering_operator(cfg, site).matrix
            jumps = sum(ch.jump.matrix for ch in channels if ch.site == site)
            oracle = sum(t for _, t in downward_terms(h.matrix, op))
            assert np.max(np.abs(jumps - oracle)) < 1e-13
            rest = v.conj().T @ (op - jumps) @ v
            assert np.max(np.abs(rest[downward])) < 1e-13

    @given(seed=seeds)
    def test_energy_flow_is_downhill(self, seed):
        # For block-diagonal states in the excitation number, energy only
        # decreases: all transitions are downward at zero temperature.
        cfg = unit_lambda_config(gamma=0.4)
        gen = davies.chain_generator(cfg)
        h = gen.hamiltonian.matrix
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2, 2)).matrix
        number = sum(qla.embed(qla.PROJ_E, k, (2, 2, 2)).matrix for k in range(3))
        blocks = np.zeros_like(rho)
        for n in range(4):
            proj = np.diag((np.diag(number).real.round() == n).astype(float))
            blocks += proj @ rho @ proj
        blocks /= np.trace(blocks).real
        state = qla.density(blocks, (2, 2, 2))
        flow = np.trace(h @ oracles.lindblad_rhs(state, gen).matrix).real
        assert flow <= 1e-10

    def test_generator_spec_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            davies.GeneratorSpec(qla.Operator([[0.0, 1.0], [0.0, 0.0]], (2,)))

    def test_generator_spec_rejects_dim_mismatch(self, default_cfg):
        h = model.build_effective_chain_hamiltonian(default_cfg)
        bad = oracles.DecayChannel(0, qla.Operator(np.eye(2), (2,)), 0.1)
        with pytest.raises(ValueError):
            davies.GeneratorSpec(h, (bad,))


class TestGeneratorCache:
    def test_equal_configs_share_one_generator(self):
        cfg = model.NetworkConfig(gamma=0.05)
        gen = davies.chain_generator(cfg)
        assert davies.chain_generator(model.NetworkConfig(gamma=0.05)) is gen
        assert davies.chain_generator(dataclasses.replace(cfg)) is gen
        assert davies.chain_generator(dataclasses.replace(cfg, gamma=0.05)) is gen

    @pytest.mark.parametrize("change", [dict(gamma=0.06), dict(gamma_units="lambda"), dict(kappa=0.8)])
    def test_other_configs_get_their_own(self, change):
        cfg = model.NetworkConfig(gamma=0.05)
        changed = dataclasses.replace(cfg, **change)
        other = davies.chain_generator(changed)
        assert other is not davies.chain_generator(cfg)
        assert other is davies.chain_generator(changed)

    def test_cache_size_is_the_module_constant(self):
        assert davies.chain_generator.cache_info().maxsize == davies.GENERATOR_CACHE_SIZE

    def test_shared_generator_is_read_only(self, default_cfg):
        gen = davies.chain_generator(default_cfg)
        assert not gen.hamiltonian.matrix.flags.writeable
        assert not any(ch.jump.matrix.flags.writeable for ch in gen.channels)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gen.lambda_scale = 2.0


class TestLocalContrastModel:
    def test_local_channels_damp_the_dark_state_direction(self, default_cfg):
        gen = oracles.local_chain_generator(default_cfg)
        assert len(gen.channels) == 3
        dark = dark_state_vector()
        rho = qla.density(np.outer(dark, dark.conj()), (2, 2, 2))
        out = oracles.lindblad_rhs(rho, gen)
        assert np.max(np.abs(out.matrix)) > 1e-4
