"""Pauli algebra against an independent dense Kronecker oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_string, dense_sum, random_pauli_sum
from ness_sdp.errors import DenseLimitError, DimensionMismatchError
from ness_sdp.pauli import (
    PauliString,
    PauliSum,
    pauli_mul,
    sigma_minus,
    sigma_plus,
    single_site,
    pauli_sum_from_obj,
    pauli_sum_to_obj,
)

words = st.text(alphabet="IXYZ", min_size=1, max_size=4)


class TestPauliMul:
    def test_single_qubit_xy(self):
        phase, string = pauli_mul(PauliString("X"), PauliString("Y"))
        assert phase == 1j and string.codes == "Z"

    def test_identity_absorbs(self):
        for codes in ("X", "Y", "Z", "I"):
            phase, string = pauli_mul(PauliString("I"), PauliString(codes))
            assert phase == 1 and string.codes == codes

    def test_xz_times_zz_against_dense(self):
        phase, string = pauli_mul(PauliString("XZ"), PauliString("ZZ"))
        assert phase == -1j and string.codes == "YI"
        product = dense_string("XZ") @ dense_string("ZZ")
        assert np.allclose(product, phase * dense_string(string.codes))

    def test_mismatched_counts(self):
        with pytest.raises(DimensionMismatchError):
            pauli_mul(PauliString("X"), PauliString("XX"))

    @given(a=words, b=words)
    @settings(max_examples=150, deadline=None)
    def test_phase_closure_and_dense_agreement(self, a, b):
        if len(a) != len(b):
            a = (a * len(b))[: len(b)]
        phase, string = pauli_mul(PauliString(a), PauliString(b))
        assert phase in (1, -1, 1j, -1j)
        assert np.allclose(dense_string(a) @ dense_string(b),
                           phase * dense_string(string.codes))


class TestPauliSum:
    def test_x_plus_z_squared(self):
        op = PauliSum.from_label("X") + PauliSum.from_label("Z")
        square = op * op
        assert square == PauliSum.from_label("I", 2.0)
        assert np.allclose(dense_sum(square), dense_sum(op) @ dense_sum(op))

    def test_identity_neutral(self, rng):
        op = random_pauli_sum(rng, 3, 4)
        assert op * PauliSum.from_label("III") == op

    def test_sigma_minus_dagger_sigma_minus(self):
        # Dense oracle fixes the sign: sm^dag sm = (1/2)(I + Z) under
        # the sigma_Z|0> = +|0> convention (sm annihilates |1>).
        sm = sigma_minus(1, 1)
        prod = sm.dagger() * sm
        dense = dense_sum(sm).conj().T @ dense_sum(sm)
        assert np.allclose(dense_sum(prod), dense)
        assert prod == PauliSum.from_label("I", 0.5) + PauliSum.from_label("Z", 0.5)

    def test_dagger_examples(self):
        assert PauliSum.from_label("Z", 1j).dagger() == PauliSum.from_label("Z", -1j)
        assert sigma_minus(1, 1).dagger() == sigma_plus(1, 1)

    def test_dagger_involution_and_hermitian_fixpoint(self, rng):
        op = random_pauli_sum(rng, 3, 5)
        assert op.dagger().dagger() == op
        herm = random_pauli_sum(rng, 3, 5, hermitian=True)
        assert herm.is_hermitian()
        assert herm.dagger() == herm
        assert not (1j * herm).is_hermitian()

    def test_canonicalize_idempotent_and_pruning(self):
        ps = PauliString("XY")
        op = PauliSum([(0.5, ps), (0.5, ps), (1e-16, PauliString("ZZ"))])
        assert op.terms == ((1.0 + 0j, ps),)
        assert PauliSum(op.terms, n_qubits=2) == op

    def test_zero_sum_needs_qubit_count(self):
        with pytest.raises(ValueError):
            PauliSum([])
        assert PauliSum.zero(2).n_terms == 0

    def test_mixed_qubit_counts_rejected(self):
        with pytest.raises(DimensionMismatchError):
            PauliSum([(1.0, PauliString("X")), (1.0, PauliString("XX"))])

    def test_associativity_against_dense(self, rng):
        for _ in range(20):
            a = random_pauli_sum(rng, 2, 3)
            b = random_pauli_sum(rng, 2, 3)
            c = random_pauli_sum(rng, 2, 3)
            left = (a * b) * c
            right = a * (b * c)
            assert np.allclose(dense_sum(left), dense_sum(right), atol=1e-12)
            assert np.allclose(dense_sum(a * b),
                               dense_sum(a) @ dense_sum(b), atol=1e-12)


class TestToDense:
    def test_z_diagonal(self):
        assert np.allclose(PauliSum.from_label("Z").to_dense(), np.diag([1, -1]))

    def test_zz_diagonal(self):
        assert np.allclose(PauliSum.from_label("ZZ").to_dense(),
                           np.diag([1, -1, -1, 1]))

    def test_sigma_minus_maps_zero_to_one(self):
        mat = sigma_minus(1, 1).to_dense()
        expect = np.zeros((2, 2), dtype=complex)
        expect[1, 0] = 1.0  # |0> -> |1>
        assert np.allclose(mat, expect)

    def test_matches_independent_kron(self, rng):
        for n in (1, 2, 3, 4):
            op = random_pauli_sum(rng, n, 4)
            assert np.allclose(op.to_dense(), dense_sum(op), atol=1e-12)

    def test_dense_limit(self):
        with pytest.raises(DenseLimitError):
            PauliSum.from_label("I" * 13).to_dense()
        assert PauliSum.from_label("I" * 13).to_dense(dense_limit=13).shape == (8192, 8192)


def test_serialization_roundtrip(rng):
    op = random_pauli_sum(rng, 3, 4)
    assert pauli_sum_from_obj(pauli_sum_to_obj(op)) == op


def test_single_site_placement():
    op = single_site(3, 2, "Y", 2.0)
    assert op.terms[0][1].codes == "IYI"
    with pytest.raises(ValueError):
        single_site(3, 4, "X")
