"""Dense Liouvillian oracle: construction, null spaces, fidelity, sparse path."""
import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import dense_lindblad, random_density, random_model, shared_mask_model
from ness_sdp import oracle
from ness_sdp.cli import main
from ness_sdp.errors import ConvergenceError, DegenerateSteadySpaceError, DenseLimitError
from ness_sdp.lindblad import PauliLindbladian, _hermitian_matrix, _real_coordinates
from ness_sdp.models import OpenSystemModel, tfim_chain, xxz_boundary_driven, xxz_dephasing
from ness_sdp.pauli import PauliSum, sigma_minus


@pytest.fixture
def runner():
    return CliRunner()


def single_qubit_model(jumps, ham=None):
    return OpenSystemModel(
        n_qubits=1,
        hamiltonian=ham if ham is not None else PauliSum.zero(1),
        dissipators=tuple((1.0, j) for j in jumps),
        label="test",
    )


class TestBuildLiouvillian:
    def test_vectorization_identity(self, rng):
        # vec(B rho C) = (C^T kron B) vec(rho) in column stacking
        for _ in range(5):
            b, rho, c = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                         for _ in range(3))
            lhs = (b @ rho @ c).reshape(-1, order="F")
            rhs = np.kron(c.T, b) @ rho.reshape(-1, order="F")
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_matches_direct_action(self, rng):
        for n in (1, 2, 3):
            model = random_model(rng, n)
            liou = oracle.build_liouvillian(model)
            rho = random_density(rng, 2 ** n)
            via_matrix = (liou @ rho.reshape(-1, order="F")).reshape(
                2 ** n, 2 ** n, order="F")
            assert np.allclose(via_matrix, dense_lindblad(model, rho), atol=1e-10)

    def test_trace_annihilation(self, rng):
        model = random_model(rng, 2)
        liou = oracle.build_liouvillian(model)
        left = np.eye(4, dtype=complex).reshape(-1, order="F").conj() @ liou
        assert np.linalg.norm(left) < 1e-10

    def test_hermiticity_preservation(self, rng):
        model = random_model(rng, 2)
        for _ in range(5):
            mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            out = PauliLindbladian(model).apply(mat)
            out_dag = PauliLindbladian(model).apply(mat.conj().T)
            assert np.allclose(out.conj().T, out_dag, atol=1e-10)

    def test_size_limit(self):
        with pytest.raises(DenseLimitError):
            oracle.build_liouvillian(tfim_chain(8, 1.0), dense_limit=6)

    def test_dense_limit_is_a_hard_limit(self):
        with pytest.raises(DenseLimitError):
            oracle.build_liouvillian(tfim_chain(4, 0.5), dense_limit=3)
        with pytest.raises(DenseLimitError):
            oracle.steady_states(tfim_chain(4, 0.5), dense_limit=3)

    def test_steady_states_reads_the_table_dim_rows_at_a_time(self, monkeypatch):
        requested = []
        superoperator = PauliLindbladian.superoperator

        def recording(gen, rows=None):
            requested.append(gen.dim ** 2 if rows is None else len(rows))
            return superoperator(gen, rows)

        monkeypatch.setattr(PauliLindbladian, "superoperator", recording)
        oracle._steady_states.cache_clear()
        oracle.steady_states(tfim_chain(4, 0.5))
        assert requested and max(requested) <= 16


class TestSteadyStates:
    def test_pure_dephasing_two_dimensional(self):
        model = single_qubit_model([PauliSum.from_label("Z")])
        basis = oracle.steady_states(model)
        assert basis.dimension == 2
        assert sum(basis.physical) == 2

    def test_amplitude_damping_fixed_point(self):
        model = single_qubit_model([sigma_minus(1, 1)])
        rho = oracle.exact_ness(model)
        assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-10)

    def test_tfim_unique_for_all_g(self):
        for g in (0.0, 1.0, 2.5):
            basis = oracle.steady_states(tfim_chain(2, g))
            assert basis.dimension == 1

    def test_xxz_dephasing_sector_count(self):
        basis = oracle.steady_states(xxz_dephasing(3, 1.0))
        assert basis.dimension >= 4
        assert sum(basis.physical) >= 4

    def test_boundary_driven_two_physical_in_m0(self):
        model = xxz_boundary_driven(4, 1.0, 1.0, 0.5)
        iso = oracle.sector_basis(4, 0)
        # split m=0 along the exchange-parity eigenspaces
        n, dim = 4, 16
        idx = np.arange(dim)
        flipped = idx ^ (dim - 1)
        rev = np.zeros(dim, dtype=int)
        for b in range(n):
            rev |= ((flipped >> b) & 1) << (n - 1 - b)
        s = np.zeros((dim, dim), dtype=complex)
        s[rev, idx] = 1.0
        s_r = iso.conj().T @ s @ iso
        vals, vecs = np.linalg.eigh((s_r + s_r.conj().T) / 2)
        found = []
        for sign in (-1, 1):
            sub = iso @ vecs[:, np.sign(vals) == sign]
            rho = oracle.restricted_steady_state(model, sub)
            assert oracle.true_residual(rho, model) < 1e-9
            found.append(rho)
        assert abs(np.trace(found[0].conj().T @ found[1])) < 1e-10

    def test_exact_ness_rejects_degenerate(self):
        with pytest.raises(DegenerateSteadySpaceError):
            oracle.exact_ness(xxz_dephasing(3, 1.0))

    def test_null_elements_are_steady(self):
        basis = oracle.steady_states(xxz_dephasing(3, 1.0))
        model = xxz_dephasing(3, 1.0)
        for elem in basis.elements:
            assert (np.linalg.norm(PauliLindbladian(model).apply(elem))
                    <= 1e-9 * np.linalg.norm(elem))


# (model, dimension, physical) as computed by the complex-SVD oracle
REAL_COORDINATE_CASES = [
    (tfim_chain(3, 0.0), 1, (True,)),
    (tfim_chain(3, 0.7), 1, (True,)),
    (tfim_chain(3, 2.0), 1, (True,)),
    (xxz_dephasing(3, 1.0), 4, (True,) * 4),
    (xxz_boundary_driven(3, 1.0, 1.0, 0.5), 8, (True,) * 4 + (False,) * 4),
]


class TestRealHermitianCoordinates:
    @pytest.mark.parametrize("model, dimension, physical", REAL_COORDINATE_CASES)
    def test_matches_complex_superoperator(self, model, dimension, physical):
        basis = oracle.steady_states(model)
        svals = np.linalg.svd(oracle.build_liouvillian(model), compute_uv=False)
        assert np.allclose(basis.singular_values, svals, rtol=0, atol=1e-12 * svals[0])
        assert basis.dimension == np.sum(svals <= oracle.NULL_SPACE_RTOL * svals[0])
        assert basis.dimension == dimension
        assert basis.physical == physical
        for elem in basis.elements:
            assert np.array_equal(elem, elem.conj().T)
            assert (np.linalg.norm(dense_lindblad(model, elem))
                    <= 1e-9 * np.linalg.norm(elem))


def svd_reference(model):
    """Real-coordinate matrix, its full-SVD singular values, and the
    Hermitian null basis that the full SVD gives."""
    dim = 2 ** model.n_qubits
    real = _real_coordinates(oracle.build_liouvillian(model).__getitem__, dim)
    _, svals, vh = np.linalg.svd(real)
    null = vh[svals <= oracle.NULL_SPACE_RTOL * max(svals[0], 1e-300)]
    return real, svals, list(_hermitian_matrix(null, dim))


def null_projector(elements, dim):
    vecs = np.array([e.reshape(-1) for e in elements]).reshape(-1, dim * dim)
    return vecs.T @ vecs.conj()


class TestGramNullSpace:
    """eigh of A^T A plus an SVD of the near-null cluster, against a full SVD."""

    def test_matches_full_svd(self, rng):
        models = [random_model(rng, 1 + k % 3) for k in range(60)]
        models += [case[0] for case in REAL_COORDINATE_CASES]
        for model in models:
            dim = 2 ** model.n_qubits
            real, ref_svals, ref_null = svd_reference(model)
            cluster, null = oracle._hermitian_null_space(real, dim)
            svals = oracle._singular_values(real, cluster)
            assert np.abs(svals - ref_svals).max() <= 1e-12 * ref_svals[0]
            assert len(null) == len(ref_null) == oracle.steady_states(model).dimension
            assert np.abs(null_projector(null, dim)
                          - null_projector(ref_null, dim)).max() <= 1e-9

    @pytest.mark.parametrize("model, cluster, dimension", [
        (tfim_chain(3, 0.5, gamma=1e-4), 8, 1),
        (xxz_dephasing(4, 1.0, gamma=1e-4), 54, 5),
    ])
    def test_small_gap_cluster_holds_nonzero_values(self, model, cluster, dimension):
        dim = 2 ** model.n_qubits
        real, ref_svals, ref_null = svd_reference(model)
        lam = np.linalg.eigvalsh(real.T @ real)
        assert np.count_nonzero(lam <= oracle.GRAM_SPLIT * lam[-1]) == cluster
        # both clusters fill the first block of the inverse iteration, which grows
        found, null = oracle._hermitian_null_space(real, dim)
        assert len(found) == cluster >= oracle._FIRST_BLOCK
        assert np.abs(null_projector(null, dim) - null_projector(ref_null, dim)).max() <= 1e-9
        basis = oracle.steady_states(model)
        assert basis.dimension == len(ref_null) == dimension
        assert np.abs(basis.singular_values - ref_svals).max() <= 1e-12 * ref_svals[0]
        ref_aligned = oracle._align_basis(ref_null, oracle._generator_projectors(model))
        assert basis.physical == tuple(oracle._is_physical(b) for b in ref_aligned)

    def test_certificate_catches_a_block_that_stopped_short(self, monkeypatch):
        # Without guard vectors the first block of 8 fills with converged
        # null vectors of a 10-dimensional null space and stops; the
        # certificate fails, and the grown block finds the other two.
        factored = []
        cholesky = np.linalg.cholesky

        def recording(mat):
            try:
                low = cholesky(mat)
            except np.linalg.LinAlgError:
                factored.append(False)
                raise
            factored.append(True)
            return low

        model = xxz_boundary_driven(4, 1.0, 1.0, 0.5)
        dim = 2 ** model.n_qubits
        real, ref_svals, ref_null = svd_reference(model)
        monkeypatch.setattr(oracle, "_GUARDS", 0)
        monkeypatch.setattr(np.linalg, "cholesky", recording)
        cluster, null = oracle._hermitian_null_space(real, dim)
        # factor, failed certificate, factor again, certificate
        assert factored == [True, False, True, True]
        svals = oracle._singular_values(real, cluster)
        assert np.abs(svals - ref_svals).max() <= 1e-12 * ref_svals[0]
        assert len(null) == len(ref_null) == 10
        assert np.abs(null_projector(null, dim) - null_projector(ref_null, dim)).max() <= 1e-9

    def test_svd_failure_retries_on_the_transpose(self, monkeypatch):
        # gesdd can fail to converge on a finite A V; the SVD of the
        # transpose must give the same cluster and null basis.
        model = xxz_boundary_driven(4, 1.0, 1.0, 0.5)
        dim = 2 ** model.n_qubits
        real = oracle._real_superoperator(model)
        expect_cluster, expect_null = oracle._hermitian_null_space(real, dim)
        svd, shapes = np.linalg.svd, []

        def failing_once(mat, *args, **kwargs):
            if kwargs.get("compute_uv", True):  # the SVD of A V, not the lambda_max estimate
                shapes.append(np.shape(mat))
                if len(shapes) == 1:
                    raise np.linalg.LinAlgError("SVD did not converge")
            return svd(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_once)
        cluster, null = oracle._hermitian_null_space(real, dim)
        assert shapes == [shapes[0], shapes[0][::-1]]
        assert np.abs(cluster - expect_cluster).max() <= 1e-12 * expect_cluster[0]
        assert len(null) == len(expect_null) == 10
        # the same elements; ties between equally long axes may order them differently
        for elem in null:
            assert min(np.abs(elem - expect).max() for expect in expect_null) <= 1e-12

    def test_no_dense_diagonalization(self, monkeypatch):
        shapes = []

        def recording(name):
            original = getattr(np.linalg, name)

            def wrapper(mat, *args, **kwargs):
                shapes.append(np.shape(mat))
                return original(mat, *args, **kwargs)

            return wrapper

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, recording(name))
        oracle._steady_states.cache_clear()
        oracle.exact_ness(tfim_chain(5, 0.5))
        assert shapes and (1024, 1024) not in shapes

    def test_zero_generator_is_all_null(self):
        model = OpenSystemModel(n_qubits=2, hamiltonian=PauliSum.zero(2), dissipators=(),
                                label="zero")
        basis = oracle.steady_states(model)
        assert basis.dimension == 16
        assert not basis.singular_values.any()
        assert np.allclose(null_projector(basis.elements, 4), np.eye(16), atol=1e-12)

    def test_full_rank_matrix_has_no_null_vectors(self, rng):
        real = rng.normal(size=(16, 16))
        cluster, null = oracle._hermitian_null_space(real, 4)
        assert null == []
        svals = oracle._singular_values(real, cluster)
        ref = np.linalg.svd(real, compute_uv=False)
        assert np.abs(svals - ref).max() <= 1e-12 * ref[0]


class TestMemo:
    def test_sweep_computes_null_space_once_per_model(self, runner, tmp_path, monkeypatch):
        scattered = {}  # generator -> model, for each generator whose matrix is read

        class CountingGenerator(PauliLindbladian):
            def __init__(self, model):
                super().__init__(model)
                self.source = model

            def superoperator(self, rows=None):
                scattered[self] = self.source
                return super().superoperator(rows)

        monkeypatch.setattr(oracle, "PauliLindbladian", CountingGenerator)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "model": {"builder": "tfim_chain", "params": {"n": 3, "g": 0.0}},
            "ansatz": {"seed": "oracle-top"},
            "sweep": {"parameter": "g", "values": [0.4, 1.1],
                      "ansatz_grid": [{"K": 2}, {"K": 3}]},
        }))
        oracle._steady_states.cache_clear()
        result = runner.invoke(main, ["sweep", "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        info = oracle._steady_states.cache_info()
        # four feasible points, each asking for the exact NESS twice: for
        # the oracle-top seed and for the oracle section of its row
        builds = list(scattered.values())
        assert len(builds) == len(set(builds)) == info.misses == 2
        assert info.hits == 6

    def test_sweep_reads_no_spectrum_and_decomposes_inside_steady_states(
            self, runner, tmp_path, monkeypatch):
        calls = {"spectrum": 0, "inside": 0, "outside": 0}
        depth = [0]
        steady_states, null_space = oracle.steady_states, oracle._hermitian_null_space
        singular_values = oracle._singular_values

        def counting_steady_states(*args, **kwargs):
            depth[0] += 1
            try:
                return steady_states(*args, **kwargs)
            finally:
                depth[0] -= 1

        def counting_null_space(*args):
            calls["inside" if depth[0] else "outside"] += 1
            return null_space(*args)

        def counting_spectrum(*args):
            calls["spectrum"] += 1
            return singular_values(*args)

        monkeypatch.setattr(oracle, "steady_states", counting_steady_states)
        monkeypatch.setattr(oracle, "_hermitian_null_space", counting_null_space)
        monkeypatch.setattr(oracle, "_singular_values", counting_spectrum)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "model": {"builder": "tfim_chain", "params": {"n": 3, "g": 0.0}},
            "ansatz": {"seed": "oracle-top", "K": 2},
            "sweep": {"parameter": "g", "values": [0.4, 1.1]},
        }))
        oracle._steady_states.cache_clear()
        result = runner.invoke(main, ["sweep", "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        # each model decomposed once, inside steady_states, and its
        # spectrum never computed
        assert calls == {"spectrum": 0, "inside": 2, "outside": 0}

    def test_spectrum_is_computed_once_on_first_read(self, monkeypatch):
        calls = []
        singular_values = oracle._singular_values
        monkeypatch.setattr(oracle, "_singular_values",
                            lambda *args: calls.append(1) or singular_values(*args))
        oracle._steady_states.cache_clear()
        basis = oracle.steady_states(tfim_chain(3, 0.6))
        assert calls == []
        first = basis.singular_values
        assert first is basis.singular_values and len(calls) == 1
        assert first.shape == (64,) and np.all(np.diff(first) <= 0)

    def test_exact_ness_returns_a_fresh_array(self):
        model = tfim_chain(3, 0.6)
        first = oracle.exact_ness(model)
        expect = first.copy()
        first[:] = 0.0
        assert np.array_equal(oracle.exact_ness(model), expect)

    def test_model_with_symmetries_hits_the_memo(self):
        oracle._steady_states.cache_clear()
        first = oracle.steady_states(xxz_dephasing(3, 1.0))
        assert oracle.steady_states(xxz_dephasing(3, 1.0)) is first
        assert oracle._steady_states.cache_info().hits == 1

    def test_cached_basis_is_read_only(self):
        basis = oracle.steady_states(xxz_dephasing(3, 1.0))
        with pytest.raises(ValueError):
            basis.elements[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            basis.singular_values[0] = 0.0


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_density(rng, 4)
        assert oracle.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert oracle.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_against_maximally_mixed(self, rng):
        rho = random_density(rng, 4)
        lam = np.linalg.eigvalsh(rho)
        expect = np.sum(np.sqrt(np.clip(lam, 0, None) / 4)) ** 2
        assert oracle.fidelity(rho, np.eye(4) / 4) == pytest.approx(expect, abs=1e-10)


class TestTrueResidual:
    def test_oracle_ness_is_steady(self):
        model = tfim_chain(2, 1.3)
        rho = oracle.exact_ness(model)
        assert oracle.true_residual(rho, model) <= 1e-10

    def test_mixed_state_under_damping_not_steady(self):
        model = single_qubit_model([sigma_minus(1, 1)])
        assert oracle.true_residual(np.eye(2) / 2, model) > 0.1

    def test_trace_preservation(self, rng):
        model = random_model(rng, 2)
        rho = random_density(rng, 4)
        assert abs(np.trace(dense_lindblad(model, rho))) < 1e-12

    def test_row_blocked_norm_equals_full_apply(self, rng):
        for n in range(1, 7):
            model = random_model(rng, n)
            gen = PauliLindbladian(model)
            dim = 2 ** n
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            full = np.linalg.norm(gen.apply(x))
            assert abs(gen.apply_norm(x) - full) <= 1e-14 * full
            rho = random_density(rng, dim)
            expect = np.linalg.norm(gen.apply(rho))
            assert abs(oracle.true_residual(rho, model) - expect) <= 1e-14 * expect
            assert oracle.true_residual(rho, model, gen) == oracle.true_residual(rho, model)


class TestSparseSteadyState:
    def test_agrees_with_dense_small(self, rng):
        # The shared-mask models are non-unital (a sigma_- jump and a
        # three-word non-Hermitian jump), so I/d is far from steady.
        models = ([tfim_chain(n, g) for n, g in ((3, 0.8), (4, 0.4), (5, 0.6))]
                  + [shared_mask_model(rng, n) for n in (2, 3, 4, 5)])
        for model in models:
            sparse = oracle.sparse_steady_state(model, tol=1e-9)
            dense = oracle.exact_ness(model)
            assert oracle.fidelity(sparse, dense) >= 1.0 - 1e-8

    def test_boundary_driven_matches_dense_null_space(self):
        # The magnetization symmetry is strong, so the steady space is
        # degenerate (exact_ness raises). The least-norm LSQR correction
        # from I/d gives the trace-one steady state nearest I/d, which in the
        # orthonormal dense null basis {B_k} is sum_k Tr(B_k) B_k / sum_k Tr(B_k)^2.
        model = xxz_boundary_driven(4, 1.0, 1.0, 0.5)
        basis = oracle.steady_states(model)
        assert basis.dimension > 1
        traces = np.array([np.trace(b).real for b in basis.elements])
        nearest = sum(t * b for t, b in zip(traces, basis.elements)) / (traces @ traces)
        sparse = oracle.sparse_steady_state(model, tol=1e-9)
        assert oracle.fidelity(sparse, nearest) >= 1.0 - 1e-8

    def test_eight_qubit_damping_fixed_point(self):
        model = tfim_chain(8, 0.0)
        rho = oracle.sparse_steady_state(model)
        expect = np.zeros(256)
        expect[-1] = 1.0
        assert np.allclose(np.diag(rho).real, expect, atol=1e-8)

    def test_size_limit(self):
        with pytest.raises(DenseLimitError):
            oracle.sparse_steady_state(tfim_chain(11, 0.1))

    def test_budget_failure_explains_itself(self, monkeypatch, runner, tmp_path):
        monkeypatch.setattr(oracle, "SPARSE_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as info:
            oracle.sparse_steady_state(tfim_chain(6, 0.5))
        err = info.value
        assert (err.stop_reason, err.iterations) == ("budget", 2)
        assert err.residual > 1e-8
        assert "'budget'" in str(err) and "least-squares" in str(err)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"builder": "tfim_chain", "params": {"n": 6, "g": 0.5}},
            "overlap_table": {"g_values": [0.5]},
        }))
        result = runner.invoke(main, ["oracle", "--config", str(cfg), "--dense-limit", "5",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 5, result.output
        assert "'budget'" in result.output


def test_dominant_eigenstate():
    rho = np.diag([0.2, 0.7, 0.1, 0.0]).astype(complex)
    lam, state = oracle.dominant_eigenstate(rho, 2)
    assert lam == pytest.approx(0.7)
    assert np.argmax(np.abs(state.amplitudes)) == 1


def test_restricted_steady_state_rejects_leaky_subspace():
    model = tfim_chain(2, 1.0)  # sigma_- jumps do not preserve sectors
    iso = oracle.sector_basis(2, 0)
    with pytest.raises(ValueError):
        oracle.restricted_steady_state(model, iso)
