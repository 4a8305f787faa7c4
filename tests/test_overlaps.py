"""Overlap assembly, the Galerkin identity, and the shot-noise model."""
import numpy as np
import pytest

from conftest import (
    dense_ansatz,
    dense_lindblad,
    random_ansatz,
    random_hermitian,
    random_model,
    random_state,
)
from ness_sdp.errors import DimensionMismatchError
from ness_sdp.lindblad import hermitize
from ness_sdp.models import magnetization, tfim_chain, xxz_boundary_driven
from ness_sdp.overlaps import (
    add_shot_noise,
    assemble,
    expectation,
    observable_matrix,
)
from ness_sdp.pauli import PauliSum, sigma_minus, single_site
from ness_sdp.states import (
    apply_to_columns,
    basis_state,
    density_from_beta,
    moment_states,
)
from ness_sdp.symmetry import sector_basis_ansatz


def basis_ansatz(n, bitstrings):
    return dense_ansatz(
        np.column_stack([basis_state(n, b).columns[:, 0] for b in bitstrings]),
        tuple((k,) for k in range(len(bitstrings))),
    )


class TestAssemble:
    def test_single_state_tfim(self):
        model = tfim_chain(2, 1.0)
        ans = basis_ansatz(2, ["00"])
        ovl = assemble(model, ans)
        assert np.allclose(ovl.E, [[1.0]])
        assert np.allclose(ovl.D, [[0.5]])
        # Z-dissipator on site 1 is the first of the four: A^dag A = I
        assert np.allclose(ovl.F[0], [[1.0]])

    def test_orthonormal_gram_is_identity(self):
        ans = basis_ansatz(2, ["00", "01", "10", "11"])
        ovl = assemble(tfim_chain(2, 0.7), ans)
        assert np.allclose(ovl.E, np.eye(4), atol=1e-14)

    def test_lowering_dissipator_f_matrix(self):
        # F for the (1/2)(X - iY) jump equals the projected (1/2)(I + Z_1),
        # fixed by the dense oracle (the jump annihilates |1>).
        model = tfim_chain(2, 1.0)
        ans = basis_ansatz(2, ["00", "10", "01", "11"])
        ovl = assemble(model, ans)
        proj = observable_matrix(
            PauliSum.from_label("II", 0.5) + single_site(2, 1, "Z", 0.5), ans)
        assert np.allclose(ovl.F[1], proj, atol=1e-12)

    def test_hermitian_blocks(self, rng):
        model = random_model(rng, 3)
        ans = random_ansatz(rng, 3, 5)
        ovl = assemble(model, ans)
        for mat in (ovl.E, ovl.D, *ovl.F):
            assert np.allclose(mat, mat.conj().T)
        assert np.linalg.eigvalsh(ovl.E)[0] >= -1e-10 * np.linalg.eigvalsh(ovl.E)[-1]

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            assemble(tfim_chain(2, 1.0), random_ansatz(rng, 3, 2))


def full_row_overlaps(model, ans):
    """E, D, R_n, F_n and the magnetization and sigma_-^(1) matrices, summed
    over all 2^n rows, with F_n from A_n^dag A_n applied to the states."""
    s = ans.columns
    sdag = s.conj().T
    mats = [hermitize(sdag @ s), hermitize(sdag @ apply_to_columns(model.hamiltonian, s))]
    for _, jump in model.dissipators:
        mats.append(sdag @ apply_to_columns(jump, s))
        mats.append(hermitize(sdag @ apply_to_columns(jump.dagger() * jump, s)))
    mats.append(hermitize(sdag @ apply_to_columns(magnetization(model.n_qubits), s)))
    mats.append(sdag @ apply_to_columns(sigma_minus(model.n_qubits, 1), s))
    return mats


def overlaps_on_support(model, ans):
    ovl = assemble(model, ans)
    mats = [ovl.E, ovl.D]
    for r_n, f_n in zip(ovl.R, ovl.F):
        mats += [r_n, f_n]
    n = model.n_qubits
    return mats + [observable_matrix(magnetization(n), ans),
                   observable_matrix(sigma_minus(n, 1), ans)]


class TestSupportRows:
    """Basis-state ansatze contract over their support rows only, exactly."""

    @pytest.mark.parametrize("model, ans", [
        (xxz_boundary_driven(6, 1.0, 1.0, 0.5), sector_basis_ansatz(6, 0)),
        (tfim_chain(6, 0.5), moment_states(tfim_chain(6, 0.5).hamiltonian,
                                           basis_state(6, "111111"), 2)),
    ])
    def test_basis_state_ansatz_is_exact(self, model, ans):
        for got, ref in zip(overlaps_on_support(model, ans), full_row_overlaps(model, ans),
                            strict=True):
            assert np.array_equal(got, ref)

    def test_dense_seed_matches_to_rounding(self, rng):
        model = random_model(rng, 4)
        ans = moment_states(model.hamiltonian, random_state(rng, 4), 2)
        for got, ref in zip(overlaps_on_support(model, ans), full_row_overlaps(model, ans),
                            strict=True):
            assert np.allclose(got, ref, rtol=0, atol=1e-12)


class TestObservableMatrix:
    def test_identity_reproduces_gram(self, rng):
        ans = random_ansatz(rng, 2, 4)
        ovl = assemble(tfim_chain(2, 1.0), ans)
        obs = observable_matrix(PauliSum.from_label("II"), ans)
        assert np.allclose(obs, ovl.E, atol=1e-12)

    def test_magnetization_eigenbasis(self):
        ans = basis_ansatz(2, ["00", "11"])
        obs = observable_matrix(magnetization(2), ans)
        assert np.allclose(obs, np.diag([2.0, -2.0]))

    def test_z1_on_partial_basis(self):
        ans = basis_ansatz(2, ["00", "10"])
        obs = observable_matrix(single_site(2, 1, "Z"), ans)
        assert np.allclose(obs, np.diag([1.0, -1.0]))


class TestGalerkinIdentity:
    def test_matches_dense_projection(self, rng):
        # Core correctness property: the assembled expression equals the
        # densely projected generator entrywise.
        for n in (2, 3, 4):
            for _ in range(5):
                model = random_model(rng, n)
                ans = random_ansatz(rng, n, 4)
                ovl = assemble(model, ans)
                beta = random_hermitian(rng, 4)
                lhs = ovl.generator().apply(beta)
                rho = density_from_beta(beta, ans)
                dense = dense_lindblad(model, rho)
                smat = ans.columns
                projected = smat.conj().T @ dense @ smat
                assert np.allclose(lhs, projected, atol=1e-10)

    def test_trace_identity(self, rng):
        model = tfim_chain(3, 0.9)
        ans = random_ansatz(rng, 3, 5)
        ovl = assemble(model, ans)
        for _ in range(5):
            beta = random_hermitian(rng, 5)
            rho = density_from_beta(beta, ans)
            assert abs(np.trace(rho) - np.trace(beta @ ovl.E)) < 1e-12

    def test_expectation_identity(self, rng):
        ans = random_ansatz(rng, 3, 5)
        obs_op = magnetization(3)
        obs = observable_matrix(obs_op, ans)
        from conftest import dense_sum
        dense_obs = dense_sum(obs_op)
        for _ in range(5):
            beta = random_hermitian(rng, 5)
            rho = density_from_beta(beta, ans)
            assert abs(np.trace(rho @ dense_obs) - expectation(beta, obs)) < 1e-12


class TestShotNoise:
    def test_deterministic(self, rng):
        ovl = assemble(tfim_chain(2, 1.0), random_ansatz(rng, 2, 4))
        a = add_shot_noise(ovl, 10 ** 6, rng_seed=9)
        b = add_shot_noise(ovl, 10 ** 6, rng_seed=9)
        assert np.array_equal(a.E, b.E)
        assert all(np.array_equal(x, y) for x, y in zip(a.R, b.R))

    def test_preserves_hermiticity_and_scale(self, rng):
        ovl = assemble(tfim_chain(2, 1.0), random_ansatz(rng, 2, 4))
        noisy = add_shot_noise(ovl, 10 ** 6, rng_seed=1)
        assert noisy.shots == 10 ** 6
        for mat in (noisy.E, noisy.D, *noisy.F):
            assert np.allclose(mat, mat.conj().T)
        # 5-sigma entrywise bound at std 1e-3
        assert np.max(np.abs(noisy.E - ovl.E)) <= 5e-3

    def test_large_shot_limit(self, rng):
        ovl = assemble(tfim_chain(2, 1.0), random_ansatz(rng, 2, 4))
        noisy = add_shot_noise(ovl, 10 ** 16, rng_seed=2)
        assert np.max(np.abs(noisy.D - ovl.D)) < 1e-6

    def test_rejects_bad_shots(self, rng):
        ovl = assemble(tfim_chain(2, 1.0), random_ansatz(rng, 2, 4))
        with pytest.raises(ValueError):
            add_shot_noise(ovl, 0, rng_seed=0)
