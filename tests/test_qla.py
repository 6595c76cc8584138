import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cavnet import davies, dynamics, model, qla

from conftest import basis_state, brute_force_partial_trace, haar_unitary, random_density, random_ket, random_pure

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def basis_sum_partial_trace(mat, dims, keep):
    """Sum over traced basis states r of <r| rho |r>, with explicit isometries.

    For each basis state r of the traced subsystems, V_r maps the kept
    register's basis state k to the full basis state with digits k and r in
    place; the reduced state is sum_r V_r^T rho V_r.
    """
    n = len(dims)
    rest = [i for i in range(n) if i not in keep]
    dk = math.prod(dims[i] for i in keep)
    strides = [math.prod(dims[i + 1 :]) for i in range(n)]
    out = np.zeros((dk, dk), dtype=complex)
    for r in itertools.product(*(range(dims[i]) for i in rest)):
        v = np.zeros((math.prod(dims), dk))
        for col, k in enumerate(itertools.product(*(range(dims[i]) for i in keep))):
            row = sum(strides[i] * digit for i, digit in zip(keep, k))
            row += sum(strides[i] * digit for i, digit in zip(rest, r))
            v[row, col] = 1.0
        out += v.T @ mat @ v
    return out


def boundary_states(rng, dim):
    """(state, accepted) for states whose least eigenvalue sits just inside or
    just outside -PSD_ATOL, full rank and rank deficient: 6 x 3 x 4 of them."""
    for factor in (0.5, 0.99, 0.999, 1.001, 1.01, 2.0):
        for rank in (dim, max(dim // 2, 1), 1):
            for _ in range(4):
                w = np.zeros(dim)
                w[:rank] = rng.uniform(0.05, 1.0, size=rank)
                w[dim - 1] = 0.0
                w *= (1.0 + factor * qla.PSD_ATOL) / w.sum()
                w[dim - 1] = -factor * qla.PSD_ATOL
                u = haar_unitary(rng, dim)
                m = (u * w) @ u.conj().T
                yield (m + m.conj().T) / 2.0, factor < 1.0


class TestTensor:
    def test_spin_flip_sign_convention(self):
        # sigma_y|G> = i|E>, sigma_y|E> = -i|G>, so (sy x sy)|GG> = -|EE>.
        sysy = np.kron(qla.SIGMA_Y, qla.SIGMA_Y)
        direct = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
        assert np.max(np.abs(sysy - direct)) == 0.0
        gg = qla.ket("GG")
        ee = qla.ket("EE")
        assert np.max(np.abs(sysy @ gg - (-ee))) < 1e-14

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qla.Operator(np.eye(3), (2,))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        a = random_density(rng, (2,))
        b = random_density(rng, (2, 2))
        joint = qla.density(np.kron(a.matrix, b.matrix), (2, 2, 2))
        reduced = qla.partial_trace(joint, [0])
        assert np.max(np.abs(reduced.matrix - a.matrix)) < 1e-12

    def test_bell_reduction_is_maximally_mixed(self):
        bell = (qla.ket("GG") + qla.ket("EE")) / math.sqrt(2)
        rho = qla.pure(bell, (2, 2))
        for keep in ([0], [1]):
            reduced = qla.partial_trace(rho, keep)
            assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12

    def test_psi_b_pair_33_reduction(self):
        # Excitations start at the first cavity of each chain, so the pair of
        # third cavities (internal qubits 2 and 5) reduces to |GG><GG|.
        from cavnet import model

        cfg = model.NetworkConfig()
        rho = model.build_initial_state(model.InitialStateSpec("psi_b", math.pi / 4), cfg)
        reduced = qla.partial_trace(rho, [2, 5])
        oracle = brute_force_partial_trace(rho.matrix, rho.dims, [2, 5])
        gg = np.zeros((4, 4))
        gg[0, 0] = 1.0
        assert np.max(np.abs(reduced.matrix - gg)) < 1e-12
        assert np.max(np.abs(reduced.matrix - oracle)) < 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, (2, 3, 2))
        for keep in ([0], [1], [2], [0, 2], [1, 2]):
            got = qla.partial_trace(rho, keep).matrix
            want = brute_force_partial_trace(rho.matrix, rho.dims, keep)
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("dims", [(2,) * 6, (2, 3, 2)])
    def test_every_keep_subset_matches_basis_sum(self, dims):
        # Every keep subset, also listed in reverse, which both return in the listed order.
        rng = np.random.default_rng(len(dims))
        rho = random_density(rng, dims)
        n = len(dims)
        for size in range(1, n + 1):
            for keep in itertools.combinations(range(n), size):
                for listed in (keep, keep[::-1]):
                    got = qla.partial_trace(rho, listed)
                    want = basis_sum_partial_trace(rho.matrix, dims, listed)
                    assert got.dims == tuple(dims[k] for k in listed)
                    assert np.max(np.abs(got.matrix - want)) < 1e-14, listed

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, (2, 2))
        with pytest.raises(ValueError):
            qla.partial_trace(rho, [2])

    @pytest.mark.parametrize("dims", [(2,) * 6, (2, 3, 2)])
    def test_gather_matches_einsum_reference(self, dims):
        # Every keep subset, also listed in reverse, which both forms return
        # in the listed order; with a repeated site both raise alike.
        rng = np.random.default_rng(46)
        rho = random_density(rng, dims)
        n = len(dims)
        for size in range(1, n + 1):
            for keep in itertools.combinations(range(n), size):
                for listed in (keep, keep[::-1]):
                    got = qla.partial_trace(rho, listed).matrix
                    want = oracles.partial_trace_einsum(rho.matrix, dims, listed)
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) < 1e-14, listed
                repeated = keep + keep[:1]
                with pytest.raises(ValueError, match="repeated") as got_error:
                    qla.partial_trace(rho, repeated)
                with pytest.raises(ValueError) as want_error:
                    oracles.partial_trace_einsum(rho.matrix, dims, repeated)
                assert str(got_error.value) == str(want_error.value)

    def test_keep_order_orders_the_subsystems(self):
        # Listing (2, 1) keeps the dimension-2 and dimension-3 subsystems in
        # that order: the sorted reduction with its two factors exchanged.
        rng = np.random.default_rng(12)
        rho = random_density(rng, (2, 3, 2))
        sorted_red = brute_force_partial_trace(rho.matrix, rho.dims, [1, 2])
        want = sorted_red.reshape(3, 2, 3, 2).transpose(1, 0, 3, 2).reshape(6, 6)
        got = qla.partial_trace(rho, [2, 1])
        assert got.dims == (2, 3)
        assert np.max(np.abs(got.matrix - want)) < 1e-14
        with pytest.raises(ValueError, match="repeated"):
            qla.partial_trace(rho, [1, 1])

    @pytest.mark.parametrize(
        "keep",
        [[], [3], [-1], [0, 3], [1, 0, 1]],
        ids=["empty", "past-end", "negative", "one-past-end", "repeated"],
    )
    def test_bad_keep_raises_like_reference(self, keep):
        rho = qla.density(np.eye(8) / 8.0, (2, 2, 2))
        with pytest.raises(ValueError) as got:
            qla.partial_trace(rho, keep)
        with pytest.raises(ValueError) as want:
            oracles.partial_trace_einsum(rho.matrix, (2, 2, 2), keep)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("source", ["3 qubits", "6 qubits", "trajectory sample"])
    def test_reduced_states_equal_partial_trace_bit_for_bit(self, source):
        rng = np.random.default_rng(251)
        rho = _trajectory_sample() if source == "trajectory sample" else random_density(rng, (2,) * int(source[0]))
        n = len(rho.dims)
        for keeps in ([(k,) for k in range(n)], list(itertools.permutations(range(n), 2))):
            stacked = qla.reduced_states(rho, keeps)
            assert len(stacked) == len(keeps) and not stacked.flags.writeable
            for got, keep in zip(stacked, keeps):
                assert np.array_equal(got, qla.partial_trace(rho, keep).matrix), keep

    def test_reduced_states_keep_one_dims(self):
        rho = random_density(np.random.default_rng(252), (2, 3, 2))
        with pytest.raises(ValueError, match=r"^need at least one keep$"):
            qla.reduced_states(rho, [])
        assert qla.reduced_states(rho, [(0, 1), (2, 1)]).shape == (2, 6, 6)
        with pytest.raises(ValueError, match=r"keep subsystems of different dims"):
            qla.reduced_states(rho, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"^subsystem index out of range: keep=\[3\], n=3$"):
            qla.reduced_states(rho, [(0,), (3,)])

    def test_mismatched_matrix_rejected(self):
        # No state has a matrix that its dims do not fit, so none reaches the gather.
        with pytest.raises(ValueError, match=r"^dims \(2, 2, 2\) do not multiply to matrix size 4$"):
            qla.partial_trace(qla.density(np.eye(4) / 4.0, (2, 2, 2)), [0])


class TestEntropyPurity:
    def test_pure_state_entropy_zero(self):
        rho = basis_state("GE")
        assert qla.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert qla.von_neumann_entropy(qla.density(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_two_level_example(self):
        oracle = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        got = qla.von_neumann_entropy(qla.density(np.diag([0.9, 0.1])))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.468996, abs=1e-6)

    def test_purity_examples(self):
        assert qla.purity(basis_state("GG")) == pytest.approx(1.0)
        assert qla.purity(qla.density(np.eye(4) / 4, (2, 2))) == pytest.approx(0.25)
        assert qla.purity(qla.density(np.diag([0.9, 0.1]))) == pytest.approx(0.82)


class TestInvariants:
    @given(seed=seeds)
    def test_partial_trace_preserves_trace_and_psd(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2, 2))
        keep = sorted(rng.choice(3, size=int(rng.integers(1, 3)), replace=False))
        reduced = qla.partial_trace(rho, keep)
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(reduced.matrix).min() > -1e-12

    @given(seed=seeds)
    def test_partial_trace_group_commutes(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2, 2, 2))
        step = qla.partial_trace(qla.partial_trace(rho, [0, 2, 3]), [0, 2])
        joint = qla.partial_trace(rho, [0, 3])
        assert np.max(np.abs(step.matrix - joint.matrix)) < 1e-12

    @given(seed=seeds)
    def test_one_tangle_identities_match(self, seed):
        # 4 det rho_i == 2 (1 - Tr[rho_i^2]) exactly on qubits.
        rng = np.random.default_rng(seed)
        rho = random_pure(rng, (2,) * 6)
        site = int(rng.integers(0, 6))
        r = qla.partial_trace(rho, [site]).matrix
        det_form = 4.0 * np.real(r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0])
        purity_form = 2.0 * (1.0 - np.vdot(r, r).real)
        assert abs(det_form - purity_form) < 1e-12

    @given(seed=seeds)
    def test_entropy_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, (2, 2))
        u = haar_unitary(rng, 4)
        rotated = qla.density(u @ rho.matrix @ u.conj().T, (2, 2))
        assert abs(qla.von_neumann_entropy(rotated) - qla.von_neumann_entropy(rho)) < 1e-9


class TestValidation:
    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qla.density(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            qla.density(np.eye(2))

    def test_density_rejects_negative(self):
        with pytest.raises(ValueError):
            qla.density(np.diag([1.5, -0.5]))

    def test_density_rejects_small_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            qla.density(np.diag([1.0 + 5e-8, -5e-8]))

    def test_density_rejects_nan(self):
        m = np.eye(2) / 2.0
        m[0, 1] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            qla.density(m)
        # Also where the NaN is the only entry of its row and column.
        m = np.diag([0.5, 0.5, 0.0]).astype(complex)
        m[2, 2] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            qla.density(m)

    def test_density_rejects_asymmetry_in_an_otherwise_zero_row(self):
        # Row 2 holds one entry and column 2 none: the checked support must
        # take rows as well as columns, and not just the diagonal.
        m = np.diag([0.5, 0.5, 0.0]).astype(complex)
        m[2, 0] = 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            qla.density(m)

    def test_zero_matrix_rejected_by_trace(self):
        with pytest.raises(ValueError, match="trace deviates"):
            qla.density(np.zeros((4, 4)))

    @pytest.mark.parametrize("dim", [2, 4, 8, 64])
    def test_cholesky_psd_decision_matches_spectrum(self, dim, monkeypatch):
        # The Cholesky test alone must accept exactly the states the
        # spectrum accepts: an accepted state never reaches eigvalsh, a
        # rejected one raises.
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        rng = np.random.default_rng(dim)
        checked = 0
        for m, expect in boundary_states(rng, dim):
            assert (eigvalsh(m).min() >= -qla.PSD_ATOL) == expect
            # The same state on scattered indices of a register twice
            # as large, zero elsewhere: the decision must not change.
            at = np.sort(rng.choice(2 * dim, size=dim, replace=False))
            embedded = np.zeros((2 * dim, 2 * dim), dtype=complex)
            embedded[np.ix_(at, at)] = m
            messages = []
            for state in (m, embedded):
                calls.clear()
                if expect:
                    qla.density(state)
                    assert not calls
                else:
                    with pytest.raises(ValueError, match="positive semidefinite") as error:
                        qla.density(state)
                    messages.append(str(error.value))
                checked += 1
            assert len(set(messages)) <= 1
        assert checked == 6 * 3 * 4 * 2

    @pytest.mark.parametrize("dim", [2, 4, 8, 64])
    def test_stacked_decisions_match_single(self, dim, monkeypatch):
        # A stack of the boundary states names the state that fails alone,
        # with the message it fails with alone, and accepts a stack of the
        # accepted ones without a spectrum.
        states = list(boundary_states(np.random.default_rng(dim), dim))
        single = [qla._first_invalid(m[None]) for m, _ in states]
        for (m, expect), failure in zip(states, single):
            assert (failure is None) == expect
            if failure:
                with pytest.raises(ValueError) as error:
                    qla.density(m)
                assert failure == (0, str(error.value))
        first = next(i for i, failure in enumerate(single) if failure)
        assert qla._first_invalid(np.stack([m for m, _ in states])) == (first, single[first][1])
        accepted = [m for m, expect in states if expect]
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        assert qla._first_invalid(np.stack(accepted)) is None
        assert not calls
        for (m, _), failure in zip(states, single):
            if failure:
                assert qla._first_invalid(np.stack(accepted[:3] + [m] + accepted[3:6])) == (3, failure[1])

    @pytest.mark.parametrize("k", [0, 7, 15])
    @pytest.mark.parametrize(
        "fault, message",
        [("asymmetry", "not Hermitian"), ("trace", "trace deviates"), ("negative", "not positive semidefinite"),
         ("nan", "not Hermitian")],
    )
    def test_the_failing_sample_of_a_stack_is_named(self, fault, message, k):
        rng = np.random.default_rng(k)
        stack = np.stack([random_density(rng, (2, 2)).matrix for _ in range(16)])
        if fault == "asymmetry":
            stack[k, 0, 1] += 1e-6
        elif fault == "trace":
            stack[k] *= 1.0 + 1e-6
        elif fault == "negative":
            stack[k] = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0])
        else:
            stack[k, 1, 1] = np.nan
        index, text = qla._first_invalid(stack)
        assert index == k and text.startswith(message)
        with pytest.raises(ValueError) as error:
            qla.density(stack[k])
        assert str(error.value) == text

    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            qla.pure(np.array([1.0, 1.0]), (2,))

    def test_ket_label_validation(self):
        with pytest.raises(ValueError):
            qla.ket("GX")


# Each initial kind's amplitudes on the chain-blocked register (1, 2, 3 | 1', 2', 3'),
# built from literal basis kets rather than from the excited-qubit indices that the model uses.
def _initial_amplitudes(kind, theta):
    cos, sin = math.cos(theta), math.sin(theta)
    vacuum, pair = qla.ket("GGGGGG"), qla.ket("EGGEGG")
    return {
        "psi_a": cos * qla.ket("EGGGGG") + sin * qla.ket("GGGEGG"),
        "psi_b": sin * vacuum + cos * pair,
        "rho_eq20": (vacuum + pair) / math.sqrt(2.0),
        "psi1_chain": (qla.ket("EGG") + qla.ket("GGE")) / math.sqrt(2.0),
        "psi2_chain": qla.ket("EGG"),
    }[kind]


class TestPure:
    """``pure`` skips ``_first_invalid``; the oracle here runs it on every result."""

    def assert_is_outer_product(self, rho, a, dims):
        want = np.outer(a, a.conj())
        assert rho.dims == dims
        assert qla._first_invalid(rho.matrix[None]) is None
        assert not rho.matrix.flags.writeable
        assert rho.matrix.dtype == want.dtype and rho.matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("theta", [0.0, math.pi / 8, math.pi / 4, math.pi / 3, math.pi / 2])
    @pytest.mark.parametrize("kind", model.InitialStateSpec._KINDS)
    def test_initial_states(self, kind, theta):
        rho = model.build_initial_state(model.InitialStateSpec(kind, theta), model.NetworkConfig())
        a = _initial_amplitudes(kind, theta)
        self.assert_is_outer_product(rho, a, (2,) * int(math.log2(a.size)))

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2), (2,) * 6])
    def test_random_unit_vectors(self, dims):
        rng = np.random.default_rng(math.prod(dims))
        for _ in range(20):
            a = random_ket(rng, math.prod(dims))
            self.assert_is_outer_product(qla.pure(a, dims), a, dims)

    def test_norm_off_by_twice_the_tolerance_rejected(self):
        a = random_ket(np.random.default_rng(3), 8)
        for scale in (1.0 + 2 * qla.NORM_ATOL, 1.0 - 2 * qla.NORM_ATOL):
            with pytest.raises(ValueError, match=r"^state not normalized: \|amplitudes\|\^2 = "):
                qla.pure(a * math.sqrt(scale), (2, 2, 2))
        qla.pure(a * math.sqrt(1.0 + qla.NORM_ATOL / 2), (2, 2, 2))

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^dims \(2, 2, 2\) do not multiply to vector size 4$"):
            qla.pure(qla.ket("GE"), (2, 2, 2))
        with pytest.raises(ValueError, match=r"^invalid subsystem dimensions \(-2, -2\)$"):
            qla.pure(qla.ket("GE"), (-2, -2))

    def test_ket_is_read_only(self):
        with pytest.raises(ValueError):
            qla.ket("EG")[0] = 1.0


def _trajectory_sample():
    cfg = model.NetworkConfig()
    rho0 = model.build_initial_state(model.InitialStateSpec("psi_a", 0.3), cfg)
    chain = davies.chain_generator(cfg)
    return dynamics.evolve_factorized(rho0, chain, dynamics.sample_grid(1.0, 5, chain.lambda_scale)).states[2]


class TestFrozenStates:
    """A ``DensityMatrix`` is one frozen object, however it was made."""

    MAKERS = {
        "density": lambda: qla.density(np.eye(4) / 4.0, (2, 2)),
        "pure": lambda: qla.pure(qla.ket("EG"), (2, 2)),
        "trajectory sample": _trajectory_sample,
    }

    @pytest.mark.parametrize("field", ["matrix", "dims"])
    @pytest.mark.parametrize("maker", MAKERS)
    def test_fields_cannot_be_assigned(self, maker, field):
        rho = self.MAKERS[maker]()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rho, field, getattr(rho, field))
        assert not hasattr(rho, "op")

    @pytest.mark.parametrize("maker", MAKERS)
    def test_states_compare_by_identity_and_hash(self, maker):
        # Equality over the ndarray field would raise instead of answering.
        rho, twin = self.MAKERS[maker](), self.MAKERS[maker]()
        assert np.array_equal(rho.matrix, twin.matrix) and rho.dims == twin.dims
        assert rho != twin and not rho == twin
        assert rho == rho
        assert len({rho, twin, rho}) == 2

    def test_operators_generators_and_trajectories_hash(self):
        op = qla.Operator(np.eye(2), (2,))
        assert op != qla.Operator(np.eye(2), (2,)) and op == op
        cfg = model.NetworkConfig()
        chain = davies.chain_generator(cfg)
        rho0 = model.build_initial_state(model.InitialStateSpec("psi2_chain", 0.0), cfg)
        traj = dynamics.evolve(rho0, chain, dynamics.sample_grid(1.0, 3, chain.lambda_scale))
        assert traj == traj and traj != dataclasses.replace(traj)
        for value in (op, chain, traj):
            hash(value)

    def test_trajectory_sample_shares_its_chunk(self):
        rho = _trajectory_sample()
        chunk = rho.matrix.base
        assert chunk.ndim == 3 and np.shares_memory(rho.matrix, chunk)
        assert rho.matrix is not chunk and np.array_equal(rho.matrix, chunk[2])
