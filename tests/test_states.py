"""Statevector engine and moment-state generation."""
import numpy as np
import pytest

from conftest import (
    dense_ansatz,
    dense_string,
    dense_sum,
    random_pauli_sum,
    random_state,
    reference_moment_states,
    reference_overlaps,
)
from ness_sdp import oracle
from ness_sdp.errors import DegenerateSteadySpaceError, DimensionMismatchError
from ness_sdp.models import magnetization, tfim_chain, xxz_boundary_driven, xxz_dephasing
from ness_sdp.overlaps import assemble, observable_matrix
from ness_sdp.pauli import PauliSum, sigma_minus, single_site, string_masks
from ness_sdp.states import (
    AnsatzSet,
    _canonical_phase,
    apply_to_columns,
    basis_state,
    density_from_beta,
    moment_states,
    moment_states_random,
    uniform_state,
)
from ness_sdp.symmetry import sector_basis_ansatz


class TestBasisState:
    def test_all_zero(self):
        assert np.allclose(basis_state(2, "00").columns[:, 0], [1, 0, 0, 0])

    def test_site_one_is_msb(self):
        assert np.allclose(basis_state(2, "10").columns[:, 0], [0, 0, 1, 0])

    def test_five_qubit_all_ones(self):
        amps = basis_state(5, "11111").columns[:, 0]
        assert amps[31] == 1.0 and np.count_nonzero(amps) == 1
        assert np.array_equal(basis_state(5, "11111").rows, [31])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            basis_state(3, "01")


class TestApply:
    def test_x_flips(self):
        out = apply_to_columns(PauliSum.from_label("X"), basis_state(1, "0").columns[:, 0])
        assert np.allclose(out, [0, 1])

    def test_tfim_on_00(self):
        ham = tfim_chain(2, 1.0).hamiltonian
        out = apply_to_columns(ham, basis_state(2, "00").columns[:, 0])
        # dense oracle cross-check plus the explicit expansion
        dense = dense_sum(ham) @ basis_state(2, "00").columns[:, 0]
        assert np.allclose(out, dense, atol=1e-12)
        assert np.allclose(out, [0.5, 1.0, 1.0, 0.0])

    def test_lowering_annihilates_one(self):
        out = apply_to_columns(sigma_minus(1, 1), basis_state(1, "1").columns[:, 0])
        assert np.allclose(out, 0.0)

    def test_matches_dense_on_random(self, rng):
        for n in (1, 2, 3, 4):
            op = random_pauli_sum(rng, n, 4)
            state = random_state(rng, n).columns[:, 0]
            out = apply_to_columns(op, state)
            assert np.allclose(out, dense_sum(op) @ state, atol=1e-12)

    def test_merged_masks_match_per_term_reference(self, rng):
        # one gather per flip mask, against one dense word per term; many
        # terms on few qubits repeat masks, {I, Z} words share mask 0 only
        def per_term(op, matrix):
            return sum(c * (dense_string(w.codes) @ matrix) for c, w in op.terms)

        for n in range(1, 6):
            cols = rng.normal(size=(2 ** n, 3)) + 1j * rng.normal(size=(2 ** n, 3))
            sums = [random_pauli_sum(rng, n, 4 * n),
                    PauliSum([(rng.normal() + 1j * rng.normal(), "".join(w))
                              for w in rng.choice(list("IZ"), size=(3, n))], n_qubits=n),
                    PauliSum.from_label("I" * n, 0.5 - 2j)]
            for op in sums:
                masks = [mask for mask, _ in op.flip_weights()]
                assert len(masks) == len(set(masks))
                got = apply_to_columns(op, cols)
                assert np.abs(got - per_term(op, cols)).max() <= 1e-12
                assert np.array_equal(apply_to_columns(op, cols[:, 1]), got[:, 1])
            assert set(mask for mask, _ in sums[1].flip_weights()) == {0}
        assert np.array_equal(apply_to_columns(PauliSum.zero(2), np.ones((4, 2))),
                              np.zeros((4, 2)))


class TestMomentStates:
    def test_order_zero(self):
        ham = tfim_chain(2, 1.0).hamiltonian
        ans = moment_states(ham, basis_state(2, "00"), 0)
        assert ans.size == 1 and ans.words == ((),)

    def test_order_one_dedupes_diagonal_word(self):
        ham = tfim_chain(2, 1.0).hamiltonian
        ans = moment_states(ham, basis_state(2, "00"), 1)
        assert ans.size == 3
        got = {tuple(np.flatnonzero(np.abs(col) > 1e-12)) for col in ans.columns.T}
        assert got == {(0,), (1,), (2,)}  # |00>, |01>, |10>

    def test_order_two_completes_basis(self):
        ham = tfim_chain(2, 1.0).hamiltonian
        ans = moment_states(ham, basis_state(2, "00"), 2)
        assert ans.size == 4

    def test_nesting_and_saturation(self):
        ham = tfim_chain(2, 1.0).hamiltonian
        sizes = [moment_states(ham, basis_state(2, "00"), k).size for k in range(6)]
        assert sizes == sorted(sizes)
        assert sizes[3] == sizes[4] == sizes[5]  # Krylov space saturated

    def test_nesting_is_prefix(self):
        ham = tfim_chain(3, 0.8).hamiltonian
        small = moment_states(ham, basis_state(3, "000"), 1)
        large = moment_states(ham, basis_state(3, "000"), 2)
        assert np.allclose(small.columns, large.columns[:, :small.size])

    def test_unit_norm_and_dedup_soundness(self, rng):
        ham = random_pauli_sum(rng, 3, 4, hermitian=True)
        ans = moment_states(ham, uniform_state(3), 3)
        mat = ans.columns
        assert np.allclose(np.linalg.norm(mat, axis=0), 1.0, atol=1e-12)
        gram = np.abs(mat.conj().T @ mat)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-10

    def test_empty_hamiltonian_keeps_seed(self):
        ans = moment_states(PauliSum.zero(2), basis_state(2, "01"), 3)
        assert ans.size == 1

    def test_sixty_qubit_states_sit_on_the_rows_their_words_reach(self):
        # A basis seed is one row, so 60 qubits grow; each state is the
        # seed's bitstring flipped by the masks of its word.
        ham = tfim_chain(60, 0.5).hamiltonian
        ans = moment_states(ham, basis_state(60, "1" * 60), 1)
        assert ans.size == 61
        for column, word in zip(ans.block.T, ans.words):
            row = 2 ** 60 - 1
            for i in word:
                row ^= string_masks(ham.terms[i][1].codes)[0]
            assert ans.rows[np.flatnonzero(column)].tolist() == [row]

    def test_seed_of_more_than_one_state_raises(self):
        ham = tfim_chain(2, 1.0).hamiltonian
        two = moment_states(ham, basis_state(2, "00"), 1)
        with pytest.raises(ValueError, match="one state"):
            moment_states(ham, two, 1)
        with pytest.raises(ValueError, match="one state"):
            moment_states_random(ham, two, 1, q=2, rng_seed=0)


class TestCanonicalPhase:
    def test_first_amplitude_above_epsilon_is_made_real_positive(self):
        amps = np.array([1e-10j, 0.0, -0.6j, 0.8])   # the leading one is below _PHASE_EPS
        out = _canonical_phase(amps)
        assert np.array_equal(out, amps * (0.6j / 0.6))
        assert out[2] == 0.6

    def test_all_below_epsilon_is_returned_unchanged(self):
        amps = np.array([1e-10, -1e-11j, 0.0])
        assert _canonical_phase(amps) is amps


class TestMomentStatesRandom:
    def test_large_q_reduces_to_exact_level_one(self):
        ham = tfim_chain(2, 1.0).hamiltonian
        exact = moment_states(ham, basis_state(2, "00"), 1)
        rand = moment_states_random(ham, basis_state(2, "00"), 1, q=10, rng_seed=3)
        assert rand.size == exact.size
        # A q above every level's extension count keeps them all, bit for bit.
        ham = tfim_chain(3, 0.7).hamiltonian
        exact = moment_states(ham, basis_state(3, "110"), 3)
        rand = moment_states_random(ham, basis_state(3, "110"), 3, q=10 ** 6, rng_seed=3)
        assert rand.words == exact.words
        assert np.array_equal(rand.columns, exact.columns)

    def test_deterministic_for_fixed_seed(self):
        ham = tfim_chain(2, 1.0).hamiltonian
        a = moment_states_random(ham, basis_state(2, "00"), 3, q=2, rng_seed=11)
        b = moment_states_random(ham, basis_state(2, "00"), 3, q=2, rng_seed=11)
        assert a.words == b.words
        assert np.array_equal(a.columns, b.columns)

    def test_order_zero_is_seed(self):
        ham = tfim_chain(2, 1.0).hamiltonian
        ans = moment_states_random(ham, basis_state(2, "00"), 0, q=5, rng_seed=0)
        assert ans.size == 1

    def test_level_cardinality_bound(self):
        ham = tfim_chain(3, 0.9).hamiltonian
        ans = moment_states_random(ham, uniform_state(3), 4, q=3, rng_seed=7)
        per_level = {}
        for word in ans.words:
            per_level[len(word)] = per_level.get(len(word), 0) + 1
        assert all(count <= 3 for level, count in per_level.items() if level > 0)


def test_density_from_beta(rng):
    ans = moment_states(tfim_chain(2, 1.0).hamiltonian, basis_state(2, "00"), 2)
    beta = np.eye(ans.size) / ans.size
    rho = density_from_beta(beta, ans)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(rho, rho.conj().T)


def test_ansatz_requires_matching_qubits():
    # The rows are increasing basis indices of n >= 1 qubits, one block row each.
    block = np.ones((2, 2))
    for n, rows in ((2, [0, 4]), (2, [1, 1]), (2, [2, 1]), (0, [0, 1]), (2, [0, 1, 2])):
        with pytest.raises(DimensionMismatchError):
            AnsatzSet(n_qubits=n, rows=rows, block=block, words=((), ()))


class TestAnsatzSet:
    def test_block_is_a_read_only_c_ordered_copy(self):
        block = np.eye(4)[:, 1:3]
        ans = AnsatzSet(n_qubits=2, rows=np.arange(4), block=block, words=((), ()))
        assert ans.block.dtype == complex and ans.block.flags.c_contiguous
        assert not ans.block.flags.writeable and not ans.rows.flags.writeable
        block[1, 0] = 5.0
        assert ans.block[0, 0] == 1.0
        assert (ans.n_qubits, ans.size) == (2, 2)
        # rows where every state vanishes are dropped; columns scatters back
        assert np.array_equal(ans.rows, [1, 2])
        assert np.array_equal(ans.columns, np.eye(4)[:, 1:3])

    def test_empty_ansatz(self):
        with pytest.raises(ValueError, match="empty ansatz"):
            AnsatzSet(n_qubits=2, rows=np.arange(4), block=np.zeros((4, 0)), words=())

    def test_support_is_the_nonzero_rows(self):
        ham = tfim_chain(3, 0.5).hamiltonian
        ans = moment_states(ham, basis_state(3, "111"), 1)
        assert np.array_equal(ans.rows, np.flatnonzero(np.abs(ans.columns).sum(axis=1)))
        assert np.array_equal(moment_states(ham, uniform_state(3), 1).rows, np.arange(8))

    def test_content_hash_is_pinned(self):
        # The hash covers n, the support rows, the bytes of the C-ordered
        # block and the words; a change of any layout has to change these on
        # purpose.
        ans = moment_states(tfim_chain(3, 0.5).hamiltonian, basis_state(3, "111"), 2)
        assert ans.content_hash() == "71c837281e39c775"
        assert sector_basis_ansatz(4, 0).content_hash() == "1a28d5dc1289a429"


FAMILIES = {
    "tfim": lambda n: tfim_chain(n, 0.5),
    "xxz-dephasing": lambda n: xxz_dephasing(n, 0.8),
    "boundary-driven": lambda n: xxz_boundary_driven(n, 1.0, 1.0, 0.5),
}


def _oracle_top(model) -> AnsatzSet:
    """The dominant eigenvector of the exact steady state, or of the first
    physical one where the steady space is degenerate."""
    try:
        rho = oracle.exact_ness(model)
    except DegenerateSteadySpaceError:
        basis = oracle.steady_states(model)
        rho = basis.physical_representative(basis.physical.index(True))
    return oracle.dominant_eigenstate(rho, model.n_qubits)[1]


def _partial(n: int) -> AnsatzSet:
    """Random amplitudes on every other basis state, exact zeros elsewhere."""
    rng = np.random.default_rng(n)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[::2] = rng.normal(size=2 ** (n - 1)) + 1j * rng.normal(size=2 ** (n - 1))
    return dense_ansatz((amps / np.linalg.norm(amps))[:, None], [()])


SEEDS = {  # kind: (n, seed of a model, K, q, rng_seed)
    "bits": (6, lambda m: basis_state(6, "110100"), 3, None, None),
    "bits-random-subset": (6, lambda m: basis_state(6, "111111"), 3, 25, 4),
    "uniform": (4, lambda m: uniform_state(4), 2, None, None),
    "uniform-random-subset": (4, lambda m: uniform_state(4), 3, 12, 1),
    "oracle-top": (4, _oracle_top, 2, None, None),
    "partial-support": (5, lambda m: _partial(5), 2, None, None),
}


class TestDenseReference:
    """The support-held ansatz against the dense growth and overlap loops it
    replaced: equal words, and columns and matrices equal to the last bit."""

    @staticmethod
    def _check_overlaps(model, ans, columns):
        n = model.n_qubits
        observables = (magnetization(n), sigma_minus(n, 1), single_site(n, 2, "Y", 0.3 + 0.1j))
        ovl = assemble(model, ans)
        got = [ovl.E, ovl.D]
        for r_n, f_n in zip(ovl.R, ovl.F, strict=True):
            got += [r_n, f_n]
        got += [observable_matrix(obs, ans) for obs in observables]
        for mat, ref in zip(got, reference_overlaps(model, columns, observables), strict=True):
            assert mat.shape == ref.shape and np.array_equal(mat, ref)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("kind", sorted(SEEDS))
    def test_moment_states_match_the_dense_loop(self, family, kind):
        n, make_seed, order, q, rng_seed = SEEDS[kind]
        model = FAMILIES[family](n)
        seed = make_seed(model)
        if q is None:
            ans = moment_states(model.hamiltonian, seed, order)
        else:
            ans = moment_states_random(model.hamiltonian, seed, order, q, rng_seed)
        columns, words = reference_moment_states(model.hamiltonian, seed, order, q, rng_seed)
        assert ans.words == words and ans.size > 1
        assert np.array_equal(ans.columns, columns)
        self._check_overlaps(model, ans, columns)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sector_basis_matches_the_isometry(self, family):
        model = FAMILIES[family](6)
        ans = sector_basis_ansatz(6, 2)
        # the basis states with two one bits, magnetization 6 - 2 * 2 = 2, in order
        iso = np.eye(2 ** 6, dtype=complex)[:, [b for b in range(2 ** 6) if b.bit_count() == 2]]
        assert np.array_equal(ans.columns, iso)
        assert ans.words == ((),) * 15   # C(6, 2) states with magnetization 2
        self._check_overlaps(model, ans, iso)
