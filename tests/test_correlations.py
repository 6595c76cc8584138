import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cavnet import correlations as corr
from cavnet import model, qla

from conftest import haar_unitary, random_density, random_pure

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def bell_phi_plus():
    v = (qla.ket("GG").amplitudes + qla.ket("EE").amplitudes) / math.sqrt(2)
    return qla.PureState(v, (2, 2)).density()


def two_qubit_state(theta):
    v = math.sin(theta) * qla.ket("GE").amplitudes + math.cos(theta) * qla.ket("EG").amplitudes
    return qla.PureState(v, (2, 2)).density()


def werner_discord_oracle(p):
    """Closed-form discord of the Werner family (Bell-diagonal states)."""
    eig = np.array([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
    eig = eig[eig > 1e-15]
    s_ab = float(-(eig * np.log2(eig)).sum())
    cc = 0.0
    for sign in (1.0, -1.0):
        if 1 + sign * p > 1e-15:
            cc += (1 + sign * p) / 2 * math.log2(1 + sign * p)
    return (2.0 - s_ab) - cc


def x_state(diagonal, rho_03, rho_12):
    """Two-qubit X state from its diagonal and its two upper coherences."""
    m = np.diag(np.asarray(diagonal, dtype=complex))
    m[0, 3], m[3, 0] = rho_03, np.conj(rho_03)
    m[1, 2], m[2, 1] = rho_12, np.conj(rho_12)
    return qla.density(m, (2, 2))


def random_x_state(rng):
    """X state with complex coherences at a random fraction of their bound.

    A Dirichlet diagonal of random concentration reaches near-pure corners,
    where the best measurement can lie strictly between pole and equator.
    """
    d = rng.dirichlet(np.full(4, rng.choice([0.3, 1.0, 3.0])))
    coherences = [
        math.sqrt(d[i] * d[j]) * rng.uniform() * np.exp(2j * math.pi * rng.uniform())
        for i, j in ((0, 3), (1, 2))
    ]
    return x_state(d, *coherences)


def unit_vectors(bases):
    """The Bloch-sphere directions of ``bases``, one column each."""
    polar, azimuth = np.array([(b.polar, b.azimuth) for b in bases]).T
    return np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)])


def attained_entropy(rho, basis):
    """Conditional entropy of A after measuring B in ``basis``."""
    return float(corr._grid_entropies(corr._bloch(rho.matrix), unit_vectors([basis]))[0])


def reference_conditional_entropy(rho, basis):
    """Conditional entropy of A after measuring B, by projection.

    Projects with I x |v><v| and I x |v_perp><v_perp|, reduces each outcome
    to A with ``qla.partial_trace`` and weights its von Neumann entropy.
    """
    v = basis.ket()
    total = 0.0
    for ket in (v, np.array([-np.conj(v[1]), np.conj(v[0])])):
        proj = np.kron(np.eye(2), np.outer(ket, ket.conj()))
        m = proj @ rho.matrix @ proj
        p = np.trace(m).real
        if p > 1e-15:
            total += p * qla.von_neumann_entropy(qla.partial_trace(qla.density(m / p, (2, 2)), [0]))
    return total


def ghz_state():
    v = (qla.ket("GGG").amplitudes + qla.ket("EEE").amplitudes) / math.sqrt(2)
    return qla.PureState(v, (2, 2, 2)).density()


def w_state():
    v = (
        qla.ket("EGG").amplitudes + qla.ket("GEG").amplitudes + qla.ket("GGE").amplitudes
    ) / math.sqrt(3)
    return qla.PureState(v, (2, 2, 2)).density()


class TestConcurrence:
    def test_bell_state(self):
        assert corr.concurrence(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        assert corr.concurrence(qla.ket("GE").density()) == pytest.approx(0.0, abs=1e-12)

    def test_partially_entangled_pure(self):
        # C = sin(2 theta) for sin(theta)|GE> + cos(theta)|EG>.
        got = corr.concurrence(two_qubit_state(math.pi / 8))
        assert got == pytest.approx(math.sin(math.pi / 4), abs=1e-12)

    def test_werner_family_closed_form(self):
        for p in (0.0, 1 / 3, 0.5, 0.9, 1.0):
            want = max(0.0, (3 * p - 1) / 2)
            assert corr.concurrence(oracles.werner_state(p)) == pytest.approx(want, abs=1e-10)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            corr.concurrence(qla.ket("GGG").density())

    @given(seed=seeds)
    def test_range_and_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        c = corr.concurrence(rho)
        assert -1e-12 <= c <= 1.0 + 1e-12
        u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        rotated = qla.density(u @ rho.matrix @ u.conj().T, (2, 2))
        assert corr.concurrence(rotated) == pytest.approx(c, abs=1e-9)


class TestXConcurrence:
    """The closed form for X states against the general singular-value route."""

    def test_random_x_states_match_general_route(self):
        rng = np.random.default_rng(8)
        for _ in range(400):
            rho = random_x_state(rng)
            got = corr.concurrence(rho)
            assert abs(got - corr._general_concurrence(rho.matrix)) < 1e-12

    @pytest.mark.parametrize("arm", ["03", "12"])
    def test_each_arm_of_the_max(self, arm):
        # Coherence rho_03 entangles against sqrt(rho_11 rho_22), rho_12
        # against sqrt(rho_00 rho_33); the other arm is kept negative.
        rng = np.random.default_rng(int(arm))
        positive = 0
        for _ in range(50):
            d = rng.dirichlet(np.ones(4))
            phase = np.exp(2j * math.pi * rng.uniform())
            if arm == "03":
                c03, c12 = math.sqrt(d[0] * d[3]) * phase, 0.0
                want = 2.0 * (math.sqrt(d[0] * d[3]) - math.sqrt(d[1] * d[2]))
            else:
                c03, c12 = 0.0, math.sqrt(d[1] * d[2]) * phase
                want = 2.0 * (math.sqrt(d[1] * d[2]) - math.sqrt(d[0] * d[3]))
            rho = x_state(d, c03, c12)
            got = corr.concurrence(rho)
            assert got == pytest.approx(max(want, 0.0), abs=1e-12)
            assert abs(got - corr._general_concurrence(rho.matrix)) < 1e-12
            positive += want > 0.0
        assert 10 <= positive <= 40

    def test_zero_at_the_boundary(self):
        # |rho_03| = sqrt(rho_11 rho_22) exactly: separable, C = 0.
        d = np.array([0.4, 0.25, 0.16, 0.19])
        rho = x_state(d, math.sqrt(d[1] * d[2]) * np.exp(0.7j), 0.1j)
        assert corr.concurrence(rho) == pytest.approx(0.0, abs=1e-15)
        assert corr._general_concurrence(rho.matrix) < 1e-12

    def test_werner_closed_form(self):
        for p in np.linspace(0.0, 1.0, 31):
            rho = oracles.werner_state(float(p))
            got = corr.concurrence(rho)
            assert got == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)
            assert abs(got - corr._general_concurrence(rho.matrix)) < 1e-12

    def test_route_taken(self, monkeypatch):
        calls = []
        general = corr._general_concurrence
        monkeypatch.setattr(corr, "_general_concurrence", lambda m: calls.append(1) or general(m))
        corr.concurrence(random_x_state(np.random.default_rng(0)))
        assert not calls
        # A single entry off the X pattern sends the state the general way.
        rho = random_density(np.random.default_rng(1), (2, 2))
        assert not corr._is_x_form(rho.matrix)
        corr.concurrence(rho)
        assert calls == [1]


class TestEof:
    def test_endpoints(self):
        assert corr.eof_from_concurrence(0.0) == 0.0
        assert corr.eof_from_concurrence(1.0) == pytest.approx(1.0)

    def test_half_concurrence(self):
        # Direct evaluation of the binary-entropy formula.
        x = (1 + math.sqrt(1 - 0.25)) / 2
        oracle = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        assert corr.eof_from_concurrence(0.5) == pytest.approx(oracle, abs=1e-12)
        assert corr.eof_from_concurrence(0.5) == pytest.approx(0.354579, abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            corr.eof_from_concurrence(1.5)

    def test_monotone(self):
        grid = np.linspace(0, 1, 21)
        vals = [corr.eof_from_concurrence(c) for c in grid]
        assert np.all(np.diff(vals) > 0)


class TestMutualInformation:
    def test_product_state(self):
        rho = qla.density(np.kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])), (2, 2))
        assert corr.mutual_information(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        assert corr.mutual_information(bell_phi_plus()) == pytest.approx(2.0, abs=1e-12)

    def test_classical_mixture(self):
        m = (qla.ket("GG").density().matrix + qla.ket("EE").density().matrix) / 2
        assert corr.mutual_information(qla.density(m, (2, 2))) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_qutrit_register(self):
        # Every pair measure takes two qubits only.
        product = np.kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.5, 0.3]))
        with pytest.raises(ValueError, match="expected a two-qubit state"):
            corr.mutual_information(qla.density(product, (2, 3)))


class TestClassicalCorrelationAndDiscord:
    def test_bell_state(self):
        cc, basis = corr.classical_correlation(bell_phi_plus())
        assert cc == pytest.approx(1.0, abs=1e-9)
        assert isinstance(basis, corr.MeasurementBasis)
        assert corr.quantum_discord(bell_phi_plus()) == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        rho = qla.density(np.kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])), (2, 2))
        cc, _ = corr.classical_correlation(rho)
        assert cc == pytest.approx(0.0, abs=1e-9)
        assert corr.quantum_discord(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        rho = qla.density(np.eye(4) / 4, (2, 2))
        cc, _ = corr.classical_correlation(rho)
        assert cc == pytest.approx(0.0, abs=1e-9)

    def test_werner_matches_closed_form(self):
        for p in (0.2, 0.5, 0.8):
            got = corr.quantum_discord(oracles.werner_state(p))
            assert got == pytest.approx(werner_discord_oracle(p), abs=1e-6)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            corr.classical_correlation(bell_phi_plus(), measured="C")

    @given(p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_measured_side_symmetry_on_werner(self, p):
        rho = oracles.werner_state(p)
        cc_b, _ = corr.classical_correlation(rho, "B")
        cc_a, _ = corr.classical_correlation(rho, "A")
        assert cc_a == pytest.approx(cc_b, abs=1e-6)
        assert corr.quantum_discord(rho, "A") == pytest.approx(
            corr.quantum_discord(rho, "B"), abs=1e-6
        )

    def test_measuring_a_is_measuring_b_of_the_swapped_state(self):
        # The qubit exchange as an explicit permutation of the basis.
        swap = np.eye(4)[[0, 2, 1, 3]]
        rng = np.random.default_rng(1307)
        states = [random_density(rng, (2, 2)) for _ in range(20)] + [random_x_state(rng) for _ in range(20)]
        for rho in states:
            swapped = qla.density(swap @ rho.matrix @ swap.T, (2, 2))
            cc_a, basis_a = corr.classical_correlation(rho, "A")
            cc_b, basis_b = corr.classical_correlation(swapped, "B")
            assert abs(cc_a - cc_b) < 1e-14
            assert (basis_a.polar, basis_a.azimuth) == pytest.approx((basis_b.polar, basis_b.azimuth), abs=1e-12)

    @given(seed=seeds)
    def test_discord_nonnegative_and_consistent(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        mi = corr.mutual_information(rho)
        cc, _ = corr.classical_correlation(rho)
        q = corr.quantum_discord(rho)
        assert q >= 0.0
        assert q == pytest.approx(mi - cc, abs=1e-9)


class TestXStateSearch:
    """The X-state polar search against the general optimizer as oracle."""

    @given(seed=seeds)
    def test_matches_general_optimizer(self, seed):
        rho = random_x_state(np.random.default_rng(seed))
        value, basis = corr._x_conditional_entropy(rho.matrix, corr._bloch(rho.matrix))
        general, _ = corr._general_conditional_entropy(corr._bloch(rho.matrix))
        assert value == pytest.approx(general, abs=1e-9)
        assert attained_entropy(rho, basis) == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize(
        "rho",
        [
            # Minimum near polar 0.42, 1.5e-3 below the better endpoint.
            x_state((0.016, 0.0001, 0.011, 0.9729), 0.112 * np.exp(-2.1j), 0.001 * np.exp(1.3j)),
            # Polar 0 is a local maximum; the minimum near 0.02 lies inside
            # the first grid cell, 2.6e-6 below it.
            x_state((1.4e-5, 1.98e-3, 1.9e-5, 0.997987), 0.00314 * np.exp(0.4j), 4.2e-5 * np.exp(-2.9j)),
        ],
        ids=["mid-cell", "endpoint-dip"],
    )
    def test_interior_optimum_beats_both_endpoints(self, rho):
        value, basis = corr._x_conditional_entropy(rho.matrix, corr._bloch(rho.matrix))
        general, _ = corr._general_conditional_entropy(corr._bloch(rho.matrix))
        assert 1e-3 < basis.polar < math.pi / 2 - 1e-3
        for polar in (0.0, math.pi / 2):
            endpoint = attained_entropy(rho, corr.MeasurementBasis(polar, basis.azimuth))
            assert endpoint - value > 1e-6
        assert value == pytest.approx(general, abs=1e-9)
        assert attained_entropy(rho, basis) == pytest.approx(value, abs=1e-10)

    def test_path_follows_state_form(self, monkeypatch):
        calls = []
        general = corr._general_conditional_entropy

        def spy(bloch):
            calls.append(bloch)
            return general(bloch)

        monkeypatch.setattr(corr, "_general_conditional_entropy", spy)
        rng = np.random.default_rng(11)
        corr.quantum_discord(random_x_state(rng))
        corr.quantum_discord(random_x_state(rng), measured="A")
        assert calls == []
        non_x = random_density(rng, (2, 2))
        corr.quantum_discord(non_x)
        assert len(calls) == 1 and np.array_equal(calls[0], corr._bloch(non_x.matrix))


class TestBlochMatrix:
    """``_bloch`` against the Pauli expansion it inverts."""

    PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))

    def test_rebuilds_the_matrix(self):
        # m = (1/4) sum over mu, nu of R[mu, nu] sigma_mu (x) sigma_nu.
        rng = np.random.default_rng(1408)
        for _ in range(200):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = (g + g.conj().T) / 2.0
            r = corr._bloch(m)
            rebuilt = sum(
                r[mu, nu] * np.kron(p, q) for mu, p in enumerate(self.PAULIS) for nu, q in enumerate(self.PAULIS)
            )
            assert np.max(np.abs(rebuilt / 4.0 - m)) < 1e-15


class TestConditionalEntropyKernel:
    """The grid kernel and the scalar search objective against projection by hand."""

    @staticmethod
    def assert_matches_reference(rho, bases):
        bloch = corr._bloch(rho.matrix)
        want = np.array([reference_conditional_entropy(rho, b) for b in bases])
        grid = corr._grid_entropies(bloch, unit_vectors(bases))
        objective = corr._general_objective(bloch)
        scalar = np.array([objective(np.array([b.polar, b.azimuth])) for b in bases])
        assert np.max(np.abs(grid - want)) < 1e-12
        assert np.max(np.abs(scalar - want)) < 1e-12

    @given(seed=seeds)
    def test_random_states_and_directions(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        poles = [corr.MeasurementBasis(0.0, rng.uniform(0, 2 * math.pi)), corr.MeasurementBasis(math.pi, 0.0)]
        directions = [
            corr.MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)) for _ in range(6)
        ]
        self.assert_matches_reference(rho, poles + directions)

    @given(seed=seeds)
    @settings(max_examples=20)
    def test_fixed_grid_rows(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        angles, n = corr._direction_grid()
        values = corr._grid_entropies(corr._bloch(rho.matrix), n)
        for k in (0, len(values) - 1, *rng.integers(len(values), size=4)):
            basis = corr.MeasurementBasis(*angles[k])
            assert values[k] == pytest.approx(reference_conditional_entropy(rho, basis), abs=1e-12)

    @given(seed=seeds)
    @settings(max_examples=20)
    def test_grid_is_even_in_the_direction(self, seed):
        # The premise of scanning half the polar rows: measuring along -n
        # swaps the two outcomes and leaves S(A | n) unchanged.
        rho = random_density(np.random.default_rng(seed), (2, 2))
        angles, n = corr._direction_grid()
        opposite = [
            corr.MeasurementBasis(math.pi - polar, (azimuth + math.pi) % (2 * math.pi)) for polar, azimuth in angles
        ]
        bloch = corr._bloch(rho.matrix)
        assert np.max(np.abs(unit_vectors(opposite) + n)) < 1e-15
        values = corr._grid_entropies(bloch, n)
        assert np.max(np.abs(corr._grid_entropies(bloch, unit_vectors(opposite)) - values)) < 1e-13

    def test_x_objective_is_the_general_one_at_its_azimuth(self):
        rng = np.random.default_rng(4210)
        for _ in range(200):
            m = random_x_state(rng).matrix
            _, basis = corr._x_conditional_entropy(m, corr._bloch(m))
            x_objective, objective = corr._x_objective(m, corr._bloch(m)), corr._general_objective(corr._bloch(m))
            for theta in rng.uniform(0.0, math.pi, size=5):
                assert abs(x_objective(theta) - objective((theta, basis.azimuth))) < 1e-13

    def test_scalar_paths_return_plain_floats(self):
        # A numpy scalar in a search objective slows every evaluation.
        rng = np.random.default_rng(7)
        x_m, general_m = random_x_state(rng).matrix, random_density(rng, (2, 2)).matrix
        assert type(corr._x_conditional_entropy(x_m, corr._bloch(x_m))[0]) is float
        assert type(corr._general_conditional_entropy(corr._bloch(general_m))[0]) is float
        assert type(corr._x_objective(x_m, corr._bloch(x_m))(0.3)) is float
        assert type(corr._general_objective(corr._bloch(general_m))((0.3, 1.2))) is float

    def test_product_state_in_its_own_basis(self):
        basis = corr.MeasurementBasis(1.1, 4.0)
        b_state = qla.PureState(basis.ket(), (2,)).density()
        rho_a = random_density(np.random.default_rng(5), (2,))
        rho = qla.density(np.kron(rho_a.matrix, b_state.matrix), (2, 2))
        orth = corr.MeasurementBasis(math.pi - basis.polar, basis.azimuth - math.pi).ket()
        assert abs(np.vdot(orth, b_state.matrix @ orth)) < 1e-15
        self.assert_matches_reference(rho, [basis])
        assert reference_conditional_entropy(rho, basis) == pytest.approx(
            qla.von_neumann_entropy(rho_a), abs=1e-12
        )

    @pytest.mark.parametrize(
        "angle, wrapped", [(-1e-17, 0.0), (0.0, 0.0), (2 * math.pi, 0.0), (-math.pi, math.pi)]
    )
    def test_wrap_angle(self, angle, wrapped):
        got = corr._wrap_angle(angle)
        assert 0.0 <= got < 2 * math.pi
        assert got == pytest.approx(wrapped, abs=1e-15)

    def test_tiny_negative_azimuth_from_simplex(self, monkeypatch):
        # A plain modulo maps azimuth -1e-17 to exactly 2*pi, which
        # MeasurementBasis rejects.
        fake = corr.MinimizeResult(x=(1.0, -1e-17), fun=-1.0, nfev=1)
        monkeypatch.setattr(corr, "minimize", lambda *args, **kwargs: fake)
        rho = random_density(np.random.default_rng(3), (2, 2))
        value, basis = corr._general_conditional_entropy(corr._bloch(rho.matrix))
        assert value == -1.0
        assert (basis.polar, basis.azimuth) == (1.0, 0.0)

    @pytest.mark.parametrize("polar", [-0.3, 2.0, 3.5])
    def test_x_polar_outside_the_grid_range_folds_back(self, monkeypatch, polar):
        # The X search has no bracket, so its polar angle can leave [0, pi/2];
        # the period pi and the evenness about pi/2 bring it back.
        monkeypatch.setattr(corr, "minimize", lambda fun, x0, step: corr.MinimizeResult((polar,), fun((polar,)), 1))
        rho = random_x_state(np.random.default_rng(6))
        value, basis = corr._x_conditional_entropy(rho.matrix, corr._bloch(rho.matrix))
        assert 0.0 <= basis.polar <= math.pi / 2
        assert value == corr._x_objective(rho.matrix, corr._bloch(rho.matrix))(polar)
        assert attained_entropy(rho, basis) == pytest.approx(value, abs=1e-12)


# The four Bell states as (c1, c2, c3): the vertices of the tetrahedron of
# valid Bell-diagonal correlations.
BELL_VERTICES = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)
ORACLE_ATOL = 1e-10


def locally_rotated(rng, rho):
    """``rho`` under a Haar-random local unitary U_A (x) U_B."""
    u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    return qla.density(u @ rho.matrix @ u.conj().T, (2, 2))


class TestDiscordOracles:
    """Discord against answers that owe nothing to the production search.

    Discord measured on either side, concurrence and mutual information are
    all invariant under local unitaries, so a rotated state keeps the value
    of the state it came from while leaving the X form.
    """

    @staticmethod
    def assert_invariants(rho, rotated):
        assert not corr._is_x_form(rotated.matrix)
        assert abs(corr.concurrence(rotated) - corr.concurrence(rho)) < ORACLE_ATOL
        assert abs(corr.mutual_information(rotated) - corr.mutual_information(rho)) < ORACLE_ATOL

    def test_bell_diagonal_closed_form(self):
        rng = np.random.default_rng(42303)
        worst = 0.0
        for k in range(400):
            c = rng.dirichlet(np.ones(4)) @ BELL_VERTICES
            rho = oracles.bell_diagonal_state(c)
            rotated = locally_rotated(rng, rho)
            self.assert_invariants(rho, rotated)
            # Unrotated, the state is X-form and takes the polar search.
            assert corr._is_x_form(rho.matrix)
            want = oracles.luo_discord(c)
            for state in (rho, rotated):
                worst = max(worst, abs(corr.quantum_discord(state, "AB"[k % 2]) - want))
        assert worst < ORACLE_ATOL

    def test_rotated_x_states_match_x_path(self):
        rng = np.random.default_rng(42105)
        worst = 0.0
        for k in range(400):
            rho = random_x_state(rng)
            rotated = locally_rotated(rng, rho)
            self.assert_invariants(rho, rotated)
            side = "AB"[k % 2]
            worst = max(worst, abs(corr.quantum_discord(rotated, side) - corr.quantum_discord(rho, side)))
        assert worst < ORACLE_ATOL

    def test_dense_reference(self):
        # The 472nd state of default_rng(2024), measured on A, is where a
        # start-dependent simplex once stopped 4.6e-6 short of the minimum.
        rng = np.random.default_rng(2024)
        cases = [([random_density(rng, (2, 2)) for _ in range(472)][-1], "A")]
        rng = np.random.default_rng(181361)
        cases += [(random_density(rng, (2, 2)), "AB"[k % 2]) for k in range(49)]
        worst = max(abs(corr.quantum_discord(rho, side) - oracles.dense_discord(rho, side)) for rho, side in cases)
        assert worst < 1e-14


class TestCompassSearch:
    """``minimize`` on objectives whose minimizer is known."""

    @pytest.mark.parametrize(
        "fun, x0, step, want",
        [
            (lambda x: (x[0] - 0.7) ** 2, (0.0,), 0.1, (0.7,)),
            (
                lambda x: (x[0] + 1.3) ** 2 + 3.0 * (x[1] - 0.4) ** 2 + (x[0] + 1.3) * (x[1] - 0.4),
                (0.5, -0.6),
                0.2,
                (-1.3, 0.4),
            ),
        ],
        ids=["1-d", "2-d"],
    )
    def test_quadratic_bowls(self, fun, x0, step, want):
        res = corr.minimize(fun, x0, step)
        assert len(res.x) == len(want)
        assert max(abs(a - b) for a, b in zip(res.x, want)) < 2 * corr._SEARCH_XATOL
        assert res.fun == fun(res.x)

    def test_nfev_counts_every_call(self):
        calls = []

        def fun(x):
            calls.append(x)
            return math.cos(x[0]) + x[1] ** 2

        res = corr.minimize(fun, (2.0, 1.0), 0.3)
        assert type(res.nfev) is int and res.nfev == len(calls) > 0

    def test_nan_objective_stops_at_the_start(self):
        res = corr.minimize(lambda x: math.nan, (0.25, 1.5), 0.1)
        assert res.x == (0.25, 1.5)
        assert math.isnan(res.fun)


class TestOneTangle:
    def test_bell_site(self):
        assert corr.one_tangle(bell_phi_plus(), 0) == pytest.approx(1.0, abs=1e-12)

    def test_product_pure(self):
        assert corr.one_tangle(qla.ket("GEG").density(), 1) == pytest.approx(0.0, abs=1e-12)

    @given(seed=seeds)
    def test_modes_agree_on_pure_states(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_pure(rng, (2,) * 6).density()
        site = int(rng.integers(0, 6))
        det_form = corr.one_tangle(rho, site)
        r = qla.partial_trace(rho, [site]).matrix
        purity_form = 2.0 * (1.0 - np.vdot(r, r).real)
        assert abs(det_form - purity_form) < 1e-12

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            corr.one_tangle(bell_phi_plus(), 2)


class TestTangle:
    def test_ghz_reference(self):
        assert corr.tangle_pure(ghz_state(), 0) == pytest.approx(1.0, abs=1e-9)

    def test_w_state_monogamy_saturation(self):
        # Pairwise concurrences 2/3 each, one-tangle 8/9: zero residual.
        assert corr.monogamy_residual(w_state(), 0) == pytest.approx(0.0, abs=1e-9)
        assert corr.tangle_pure(w_state(), 0) == pytest.approx(0.0, abs=1e-9)

    def test_ghz_monogamy_residual(self):
        assert corr.monogamy_residual(ghz_state(), 0) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_mixed_input(self):
        mixed = qla.density(np.eye(8) / 8, (2, 2, 2))
        with pytest.raises(ValueError):
            corr.tangle_pure(mixed, 0)
        with pytest.raises(ValueError):
            corr.monogamy_residual(mixed, 0)

    @given(seed=seeds)
    def test_monogamy_holds_on_random_pure_states(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure(rng, (2, 2, 2, 2))
        assert corr.monogamy_residual(psi.density(), 0) >= -1e-9


class TestTangleBounds:
    def test_pure_state_bounds_collapse(self):
        psi = ghz_state()
        b = corr.tangle_bounds(psi, 0)
        tau = corr.tangle_pure(psi, 0)
        assert b.lower == pytest.approx(b.upper, abs=1e-9)
        assert b.upper == pytest.approx(tau, abs=1e-9)

    def test_maximally_mixed_two_qubit_terms(self):
        rho = qla.density(np.eye(4) / 4, (2, 2))
        b = corr.tangle_bounds(rho, 0)
        # Upper-bound squared-correlation term 2(1 - 1/2) = 1; lower raw
        # term 2(1/4 - 1/2) = -0.5; no pairwise concurrence to subtract.
        assert b.upper_raw == pytest.approx(1.0, abs=1e-12)
        assert b.lower_raw == pytest.approx(-0.5, abs=1e-12)
        assert b.lower == 0.0

    @given(seed=seeds)
    def test_lower_never_exceeds_upper(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2, 2), rank=int(rng.integers(1, 9)))
        b = corr.tangle_bounds(rho, int(rng.integers(0, 3)))
        assert b.lower_raw <= b.upper_raw + 1e-12
        purity = qla.purity(rho)
        if abs(b.upper_raw - b.lower_raw) < 1e-9:
            assert purity > 1.0 - 1e-8


class TestOneTangleForm:
    """``tangle_bounds`` reads the one-tangle; ``monogamy_residual`` is its upper term."""

    @given(seed=seeds)
    def test_upper_term_is_the_monogamy_residual(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure(rng, (2, 2, 2))
        ref = int(rng.integers(0, 3))
        rho = psi.density()
        assert abs(corr.tangle_bounds(rho, ref).upper_raw - corr.monogamy_residual(rho, ref)) < 1e-12

    @given(seed=seeds)
    def test_bounds_differ_by_the_mixedness(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2, 2), rank=int(rng.integers(1, 9)))
        b = corr.tangle_bounds(rho, int(rng.integers(0, 3)))
        assert abs((b.upper_raw - b.lower_raw) - 2.0 * (1.0 - qla.purity(rho))) < 1e-12


class TestEntanglementSum:
    def test_initial_bell_pair(self, default_cfg):
        rho = model.build_initial_state(model.InitialStateSpec("psi_b", math.pi / 4), default_cfg)
        assert oracles.entanglement_sum(rho) == pytest.approx(1.0, abs=1e-10)

    def test_product_state(self, default_cfg):
        rho = model.build_initial_state(model.InitialStateSpec("psi_a", 0.0), default_cfg)
        assert oracles.entanglement_sum(rho) == pytest.approx(0.0, abs=1e-10)


class TestMarginalEntropy:
    """The closed-form one-qubit marginal entropy against a partial trace and ``eigvalsh``."""

    @staticmethod
    def assert_matches_partial_trace(states):
        for rho in states:
            for side in (0, 1):
                want = qla.von_neumann_entropy(qla.partial_trace(rho, [side]))
                assert abs(corr._marginal_entropy(corr._bloch(rho.matrix), side) - want) < 1e-12

    def test_full_rank_states(self):
        rng = np.random.default_rng(2401)
        self.assert_matches_partial_trace(random_density(rng, (2, 2)) for _ in range(200))

    def test_rank_one_states(self):
        # Products have pure marginals, whose lower eigenvalue is round-off.
        rng = np.random.default_rng(2402)
        kets = [(random_pure(rng, (2,)).amplitudes, random_pure(rng, (2,)).amplitudes) for _ in range(100)]
        states = [qla.PureState(np.kron(a, b), (2, 2)).density() for a, b in kets]
        states += [random_pure(rng, (2, 2)).density() for _ in range(100)]
        states += [qla.ket(label).density() for label in ("GG", "GE", "EG", "EE")]
        self.assert_matches_partial_trace(states)

    def test_maximally_mixed_marginals(self):
        rng = np.random.default_rng(2403)
        states = [bell_phi_plus(), qla.density(np.eye(4) / 4.0, (2, 2))]
        states += [oracles.werner_state(p) for p in np.linspace(0.0, 1.0, 11)]
        for _ in range(50):
            rho = oracles.bell_diagonal_state(rng.dirichlet(np.ones(4)) @ BELL_VERTICES)
            states += [rho, locally_rotated(rng, rho)]
        self.assert_matches_partial_trace(states)
        assert all(
            abs(corr._marginal_entropy(corr._bloch(rho.matrix), side) - 1.0) < 1e-12 for rho in states for side in (0, 1)
        )

    def test_x_states(self):
        rng = np.random.default_rng(2404)
        self.assert_matches_partial_trace(random_x_state(rng) for _ in range(200))

    def test_too_negative_eigenvalue_raises(self):
        # Qubit A's marginal is diag(1 + 2e-9, -2e-9), below the limit;
        # qubit B's is diag(1, 0) up to round-off.
        m = np.diag([1.0 + 2e-9, 0.0, -2e-9, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="too negative"):
            corr._marginal_entropy(corr._bloch(m), 0)
        assert abs(corr._marginal_entropy(corr._bloch(m), 1)) < 1e-12
        # Above the limit the negative eigenvalue is dropped, as in
        # von_neumann_entropy, which accepts this marginal as a state.
        m = np.diag([1.0 + 5e-10, 0.0, -5e-10, 0.0]).astype(complex)
        want = qla.von_neumann_entropy(qla.density(np.diag([1.0 + 5e-10, -5e-10])))
        assert abs(corr._marginal_entropy(corr._bloch(m), 0) - want) < 1e-15


class TestDelta:
    def test_matches_four_partial_traces(self):
        rng = np.random.default_rng(1306)
        states = [random_density(rng, (2, 2, 2), rank=int(rng.integers(1, 9))) for _ in range(30)]
        states += [random_pure(rng, (2, 2, 2)).density() for _ in range(10)]
        for rho in states:
            got, want = corr.delta_fanchini(rho), oracles.delta_four_traces(rho)
            assert abs(got.delta - want.delta) < 1e-12
            assert abs(got.ssa_slack - want.ssa_slack) < 1e-12

    def test_one_joint_entropy_per_pair_and_same_bits(self, monkeypatch):
        # Each pair's S(0, k) is computed once, and the result is bit for bit
        # the one from quantum_discord plus separate entropies.
        rng = np.random.default_rng(1407)
        states = [random_density(rng, (2, 2, 2), rank=int(rng.integers(1, 9))) for _ in range(10)]
        for rho in states:
            pairs = [corr.pair_state(rho, corr.PairSelector(0, k)) for k in (1, 2)]
            delta = 0.0
            for pair in pairs:
                delta += corr.eof_from_concurrence(corr.concurrence(pair))
                delta -= corr.quantum_discord(pair)
            s_12, s_13 = (qla.von_neumann_entropy(pair) for pair in pairs)
            s_2, s_3 = (corr._marginal_entropy(corr._bloch(pair.matrix), 1) for pair in pairs)
            calls = []
            entropy = qla.von_neumann_entropy
            monkeypatch.setattr(qla, "von_neumann_entropy", lambda r: calls.append(r.dim) or entropy(r))
            assert tuple(corr.delta_fanchini(rho)) == (delta, s_12 + s_13 - s_2 - s_3 - delta)
            assert calls == [4, 4]
            monkeypatch.undo()

    def test_single_excitation_product_state(self):
        res = corr.delta_fanchini(qla.ket("EGG").density())
        assert res.delta == pytest.approx(0.0, abs=1e-12)
        assert res.ssa_slack == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_on_pure_tripartite_states(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            psi = random_pure(rng, (2, 2, 2))
            res = corr.delta_fanchini(psi.density())
            assert abs(res.delta) < 1e-5
            assert abs(res.ssa_slack) < 1e-5

    def test_wrong_register_rejected(self):
        with pytest.raises(ValueError):
            corr.delta_fanchini(bell_phi_plus())


class TestPairSelector:
    def test_label_parsing(self):
        assert corr.PairSelector.from_label("33'") == corr.PairSelector(2, 5)
        assert corr.PairSelector.from_label("21'") == corr.PairSelector(1, 3)
        assert corr.PairSelector.from_label("1'2") == corr.PairSelector(3, 1)
        assert corr.PairSelector.from_label("12") == corr.PairSelector(0, 1)

    def test_malformed_labels(self):
        for bad in ("", "1", "123", "4'1", "x2", "1''2", "1 2", "11'x"):
            with pytest.raises(ValueError):
                corr.PairSelector.from_label(bad)

    def test_identical_members_rejected(self):
        with pytest.raises(ValueError):
            corr.PairSelector(1, 1)

    def test_pair_state_order(self, default_cfg):
        # Reversing the pair order swaps the qubits of the reduction.
        rho = model.build_initial_state(model.InitialStateSpec("psi_a", 0.3), default_cfg)
        fwd = corr.pair_state(rho, corr.PairSelector(0, 3)).matrix
        rev = corr.pair_state(rho, corr.PairSelector(3, 0)).matrix
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        assert np.max(np.abs(rev - swap @ fwd @ swap.T)) < 1e-12

    def test_either_order_is_one_reduction(self, default_cfg, monkeypatch):
        # A reversed pair is one ordered partial trace, validated once, and
        # bit for bit the forward reduction with its qubits exchanged.
        rho = model.build_initial_state(model.InitialStateSpec("psi_a", 0.3), default_cfg)
        calls = []
        validate = qla.DensityMatrix.__post_init__

        def spy(self):
            calls.append(self.dim)
            validate(self)

        monkeypatch.setattr(qla.DensityMatrix, "__post_init__", spy)
        fwd = corr.pair_state(rho, corr.PairSelector(0, 3)).matrix
        rev = corr.pair_state(rho, corr.PairSelector(3, 0)).matrix
        assert calls == [4, 4]
        assert np.array_equal(rev, corr._swap_qubits(fwd))
