"""The single Lindblad generator: adjoint, compression, superoperator."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_lindblad,
    dense_lindblad_adjoint,
    random_ansatz,
    random_hermitian,
    random_model,
    shared_mask_model,
)
import ness_sdp
from ness_sdp import oracle
from ness_sdp.lindblad import (
    Lindbladian,
    PauliLindbladian,
    _add_jump_sum,
    _add_jump_sum_adjoint,
    hermitize,
)
from ness_sdp.errors import ConfigError
from ness_sdp.models import (
    OpenSystemModel,
    tfim_chain,
    xxz_boundary_driven,
    xxz_dephasing,
)
from ness_sdp.overlaps import assemble
from ness_sdp.pauli import PauliSum
from ness_sdp.symmetry import sector_basis_ansatz


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def frobenius(a, b):
    return np.vdot(a, b)


class TestAdjoint:
    def test_model_level(self, rng):
        for n in (1, 2, 3):
            for _ in range(3):
                gen = PauliLindbladian(random_model(rng, n))
                x, y = random_hermitian(rng, 2 ** n), random_hermitian(rng, 2 ** n)
                lhs = frobenius(gen.apply(x), y)
                rhs = frobenius(x, gen.adjoint(y))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_overlap_level_with_gram_metric(self, rng):
        for n in (2, 3):
            ovl = assemble(random_model(rng, n), random_ansatz(rng, n, 4))
            gen = ovl.generator()
            assert gen.metric is ovl.E
            for _ in range(3):
                x, y = random_hermitian(rng, 4), random_hermitian(rng, 4)
                lhs = frobenius(gen.apply(x), y)
                rhs = frobenius(x, gen.adjoint(y))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestModelGenerator:
    def test_matches_reference(self, rng):
        for n in (1, 2, 3):
            model = random_model(rng, n)
            x = random_hermitian(rng, 2 ** n)
            out = PauliLindbladian(model).apply(x)
            assert np.allclose(out, dense_lindblad(model, x), atol=1e-10)

    def test_superoperator_matches_apply(self, rng):
        for n in (1, 2):
            gen = PauliLindbladian(random_model(rng, n))
            x = random_hermitian(rng, 2 ** n)
            vec = gen.superoperator() @ x.reshape(-1, order="F")
            assert np.allclose(vec.reshape(2 ** n, 2 ** n, order="F"), gen.apply(x),
                               atol=1e-10)

    def test_superoperator_with_metric_matches_apply(self, rng):
        ovl = assemble(random_model(rng, 2), random_ansatz(rng, 2, 3))
        gen = ovl.generator()
        x = random_hermitian(rng, 3)
        vec = gen.superoperator() @ x.reshape(-1, order="F")
        assert np.allclose(vec.reshape(3, 3, order="F"), gen.apply(x), atol=1e-10)

    def test_negative_rate_rejected(self):
        model = tfim_chain(2, 1.0)
        bad = OpenSystemModel(2, model.hamiltonian,
                              ((-0.5, model.jumps[0]),) + model.dissipators[1:])
        with pytest.raises(ConfigError):
            PauliLindbladian(bad)


class TestCompiledTable:
    """The compiled flip table against the independent dense reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_apply_and_adjoint_match_reference(self, rng, n):
        for model in (random_model(rng, n), shared_mask_model(rng, n)):
            gen = PauliLindbladian(model)
            x = random_hermitian(rng, 2 ** n)
            for got, ref in ((gen.apply(x), dense_lindblad(model, x)),
                             (gen.adjoint(x), dense_lindblad_adjoint(model, x))):
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_adjoint_identity_n5(self, rng):
        for model in (random_model(rng, 5), shared_mask_model(rng, 5), tfim_chain(5, 0.7)):
            gen = PauliLindbladian(model)
            x, y = random_hermitian(rng, 32), random_hermitian(rng, 32)
            lhs = frobenius(gen.apply(x), y)
            rhs = frobenius(x, gen.adjoint(y))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_tfim_table_size(self):
        # K has the diagonal mask and one X mask per site (15 mask pairs with
        # the K^dag side); each sigma_- jump adds one pair, the Z jumps share (0, 0).
        gen = PauliLindbladian(tfim_chain(7, 0.5))
        assert len(gen.terms) == 22
        # The half form: the merged diagonal, one row flip per X mask, and one
        # sigma_- piece per site on the quarter of the matrix where it is nonzero.
        for table in (gen.half_terms, gen.adjoint_half_terms):
            assert len(table) == 15
            covered = [gen.dim ** 2 >> sum(isinstance(i, int) for i in at)
                       for at, *_ in table]
            assert covered == [gen.dim ** 2] * 8 + [gen.dim ** 2 // 4] * 7

    @pytest.mark.parametrize("build", [
        lambda rng: tfim_chain(6, 0.5),
        lambda rng: xxz_dephasing(6, 0.8),
        lambda rng: xxz_boundary_driven(6, 1.0, 1.0, 0.5),
        lambda rng: random_model(rng, 6),
        lambda rng: shared_mask_model(rng, 6),
    ])
    def test_holds_no_more_full_arrays_than_dense_operators(self, rng, build):
        # The dense form held K, K^dag, J_k and J_k^dag: 2(1 + k) full arrays.
        # The half tables and the product scratch hold one full array each at
        # most; every other weight factor is a row or column on a sub-cube.
        model = build(rng)
        gen = PauliLindbladian(model)
        gen.adjoint(gen.apply(random_hermitian(rng, gen.dim)))
        assert "terms" not in vars(gen)  # the superoperator's table is not compiled
        arrays = [f for table in (gen.half_terms, gen.adjoint_half_terms)
                  for *_, factors in table for f in factors if np.ndim(f)]
        sizes = [f.size for f in arrays] + [gen._scratch.size]
        assert all(size <= gen.dim or size == gen.dim ** 2 for size in sizes)
        assert sizes.count(gen.dim ** 2) <= 2 * (1 + len(model.dissipators))

    @pytest.mark.parametrize("model", [
        tfim_chain(5, 0.5),
        xxz_dephasing(4, 0.8),
        xxz_boundary_driven(3, 1.0, 1.0, 0.5),
    ], ids=["tfim5", "dephasing4", "boundary3"])
    def test_superoperator_equals_kron_form(self, rng, model):
        # The scattered table equals, bit for bit, the kron superoperator of
        # the same K and J_k expanded densely, in full and on a row subset.
        gen = PauliLindbladian(model)
        dense = Lindbladian(gen.k_op.to_dense(), [j.to_dense() for j in gen.jump_ops])
        expect = dense.superoperator()
        assert np.array_equal(gen.superoperator(), expect)
        rows = rng.choice(gen.dim ** 2, size=gen.dim, replace=False)
        assert np.array_equal(gen.superoperator(rows), expect[rows])

    @pytest.mark.parametrize("model", [xxz_dephasing(3, 0.8), tfim_chain(3, 0.5)],
                             ids=["dephasing3", "tfim3"])
    def test_no_path_expands_the_generator_densely(self, monkeypatch, model):
        # Not even the declared symmetry generators are expanded.
        def guarded(op, *args, **kwargs):
            raise AssertionError(f"dense expansion of {op!r}")

        monkeypatch.setattr(PauliSum, "to_dense", guarded)
        oracle._steady_states.cache_clear()
        liou = oracle.build_liouvillian(model)
        rho = oracle.steady_states(model).physical_representative(0)
        assert np.linalg.norm(liou @ rho.reshape(-1, order="F")) <= 1e-9
        assert oracle.true_residual(rho, model) <= 1e-9
        assert oracle.true_residual(oracle.sparse_steady_state(model), model) <= 1e-8
        # The magnetization m = 1 sector is invariant under the XXZ chain,
        # the whole space under any model.
        iso = sector_basis_ansatz(3, 1).columns if model.symmetries else np.eye(8)
        assert PauliLindbladian(model).compress(iso).dim == iso.shape[1]
        assert oracle.true_residual(oracle.restricted_steady_state(model, iso), model) <= 1e-9


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), shared=st.booleans())
@settings(max_examples=40, deadline=None)
def test_half_form_is_hermitian_and_adjoint(seed, n, shared):
    # apply and adjoint return exactly Hermitian matrices, and
    # <G x, y> = <x, G^dag y> under Re Tr on Hermitian x, y.
    rng = np.random.default_rng(seed)
    gen = PauliLindbladian((shared_mask_model if shared else random_model)(rng, n))
    x, y = random_hermitian(rng, gen.dim), random_hermitian(rng, gen.dim)
    gx, gy = gen.apply(x), gen.adjoint(y)
    for out in (gx, gy):
        assert np.array_equal(out, out.conj().T)
    lhs, rhs = np.vdot(gx, y).real, np.vdot(x, gy).real
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestJumpSupport:
    """Dense generators apply each jump on the rows and columns where it is nonzero."""

    def test_partial_support_matches_numpy(self, rng):
        dim = 6
        k = random_matrix(rng, dim)
        partial = random_matrix(rng, dim)
        partial[[1, 4]] = 0          # zero rows
        partial[:, [0, 2, 5]] = 0    # zero columns
        jumps = [partial, random_matrix(rng, dim), np.zeros((dim, dim))]
        gram = random_hermitian(rng, dim) + dim * np.eye(dim)
        for metric in (None, gram):
            gen = Lindbladian(k, jumps, metric=metric)
            # one group per support, none for the zero jump
            assert [(g.size, g.stacked.shape) for g in gen.groups] == [(1, (4, 3)),
                                                                       (1, (dim, dim))]
            m = np.eye(dim) if metric is None else metric
            x, y = random_hermitian(rng, dim), random_hermitian(rng, dim)
            ref_apply = -1j * (k @ x @ m - m @ x @ k.conj().T)
            ref_adjoint = 1j * (k.conj().T @ y @ m - m @ y @ k)
            for j in jumps:
                ref_apply += j @ x @ j.conj().T
                ref_adjoint += j.conj().T @ y @ j
            assert np.allclose(gen.apply(x), ref_apply, rtol=0, atol=1e-12)
            assert np.allclose(gen.adjoint(y), ref_adjoint, rtol=0, atol=1e-12)
            superop = -1j * (np.kron(m.T, k) - np.kron(k.conj(), m))
            for j in jumps:
                superop += np.kron(j.conj(), j)
            assert np.array_equal(gen.superoperator(), superop)
            vec = superop @ x.reshape(-1, order="F")
            assert np.allclose(vec.reshape(dim, dim, order="F"), gen.apply(x),
                               rtol=0, atol=1e-12)

    def test_full_support_jump_takes_the_dense_products(self, rng):
        dim = 5
        k, j = random_matrix(rng, dim), random_matrix(rng, dim)
        gen = Lindbladian(k, [j])
        x = random_hermitian(rng, dim)
        ref_apply = -2j * (k @ x)
        ref_apply += j @ x @ j.conj().T
        ref_adjoint = 2j * (k.conj().T @ x)
        ref_adjoint += j.conj().T @ x @ j
        assert np.array_equal(gen.apply(x), hermitize(ref_apply))
        assert np.array_equal(gen.adjoint(x), hermitize(ref_adjoint))
        (group,) = gen.groups
        assert group.row_square is None and group.col_square is None  # x and H, no gather
        assert np.array_equal(group.stacked, gen.jumps[0])


@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 7),
       kinds=st.lists(st.sampled_from(["full", "shared", "distinct", "zero"]),
                      min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_grouped_jump_sums_equal_the_per_jump_sums(seed, dim, kinds):
    # Jumps that share their nonzero rows and columns are stacked into one
    # group; the grouped sums equal sum_k J_k x J_k^dag and sum_k J_k^dag y J_k.
    rng = np.random.default_rng(seed)

    def support():
        mask = rng.random(dim) < 0.5
        mask[rng.integers(dim)] = True
        return mask

    shared = support(), support()
    jumps = []
    for kind in kinds:
        rows, cols = {"full": (np.ones(dim, bool),) * 2, "shared": shared,
                      "distinct": (support(), support()),
                      "zero": (np.zeros(dim, bool),) * 2}[kind]
        jumps.append(random_matrix(rng, dim) * np.outer(rows, cols))
    gen = Lindbladian(random_matrix(rng, dim), jumps)
    assert sum(g.size for g in gen.groups) == sum(kind != "zero" for kind in kinds)
    if kinds.count("shared") > 1:
        assert max(g.size for g in gen.groups) >= kinds.count("shared")
    x, y = random_hermitian(rng, dim), random_hermitian(rng, dim)
    for grouped, per_jump in (
            (_add_jump_sum(np.zeros((dim, dim), complex), x, gen.groups),
             sum((j @ x @ j.conj().T for j in jumps), np.zeros((dim, dim)))),
            (_add_jump_sum_adjoint(np.zeros((dim, dim), complex), y, gen.groups),
             sum((j.conj().T @ y @ j for j in jumps), np.zeros((dim, dim))))):
        scale = max(np.linalg.norm(per_jump), 1e-300)
        assert np.linalg.norm(grouped - per_jump) <= 1e-13 * scale


class TestHermitianDomain:
    """Coefficient-basis generators map Hermitian matrices to exactly Hermitian ones."""

    def test_output_is_bitwise_hermitian(self, rng):
        dim = 6
        k = random_matrix(rng, dim)
        partial = random_matrix(rng, dim)
        partial[[1, 4]] = 0
        partial[:, [0, 2, 5]] = 0
        jumps = [partial, random_matrix(rng, dim)]
        gram = random_hermitian(rng, dim) + dim * np.eye(dim)
        ovl = assemble(random_model(rng, 3), random_ansatz(rng, 3, 5))
        vals, vecs = np.linalg.eigh(ovl.E)
        gens = [Lindbladian(k, jumps), Lindbladian(k, jumps, metric=gram),
                ovl.generator(), ovl.generator().compress(vecs / np.sqrt(vals)),
                PauliLindbladian(xxz_dephasing(3, 0.8)).compress(
                    sector_basis_ansatz(3, 1).columns)]
        assert [(g.size, g.stacked.shape) for g in gens[0].groups] == [(1, (4, 3)),
                                                                       (1, (dim, dim))]
        for gen in gens:
            for _ in range(3):
                x = random_hermitian(rng, gen.dim)
                for out in (gen.apply(x), gen.adjoint(x)):
                    assert np.array_equal(out, out.conj().T)


class TestCompress:
    def test_magnetization_sector(self, rng):
        model = xxz_dephasing(3, 0.8)
        gen = PauliLindbladian(model)
        v = sector_basis_ansatz(3, 1).columns
        restricted = gen.compress(v)
        assert restricted.metric is None
        for _ in range(3):
            x = random_hermitian(rng, v.shape[1])
            expect = v.conj().T @ gen.apply(v @ x @ v.conj().T) @ v
            assert np.allclose(restricted.apply(x), expect, atol=1e-12)

    def test_whitening_of_overlap_generator(self, rng):
        ovl = assemble(random_model(rng, 3), random_ansatz(rng, 3, 4))
        vals, vecs = np.linalg.eigh(ovl.E)
        w = vecs / np.sqrt(vals)
        gen = ovl.generator()
        x = random_hermitian(rng, 4)
        expect = w.conj().T @ gen.apply(w @ x @ w.conj().T) @ w
        assert np.allclose(gen.compress(w).apply(x), expect, atol=1e-9)


def _fresh_process_output(code: str) -> str:
    src = str(Path(ness_sdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _fresh_process_output(
        "import sys, ness_sdp.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") == "[]"


def test_symmetry_eigenvalues_load_no_numpy_ma():
    # numpy.ma costs about 20 ms CPU to import; np.unique(axis=...) would load it
    assert _fresh_process_output(
        "import sys; from ness_sdp.models import xxz_boundary_driven; "
        "specs = xxz_boundary_driven(4, 1.0, 1.0, 0.5).symmetries; "
        "print([spec.n_sectors for spec in specs], 'numpy.ma' in sys.modules)") == "[2, 5] False"


def test_dense_oracle_loads_no_numpy_ma():
    # the magnetization split labels its sector pairs without np.unique, which loads numpy.ma
    assert _fresh_process_output(
        "import sys; from ness_sdp import oracle; "
        "from ness_sdp.models import tfim_chain, xxz_dephasing; "
        "dims = [oracle.steady_states(m).dimension for m in (tfim_chain(4, 0.5), xxz_dephasing(4, 0.7))]; "
        "print(dims, 'numpy.ma' in sys.modules)") == "[1, 5] False"
