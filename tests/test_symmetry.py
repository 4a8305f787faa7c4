"""Strong-symmetry machinery: the structured U, twirls, Vandermonde extraction,
and the per-sector solves checked against the twirl + Vandermonde reference."""
import numpy as np
import pytest

from conftest import (
    dense_ansatz,
    dense_exchange_parity,
    dense_sum,
    dense_symmetry,
    random_hermitian,
    reference_extraction,
)
from ness_sdp import oracle, symmetry
from ness_sdp.errors import ConfigError, InfeasibleError
from ness_sdp.models import (
    exchange_parity_symmetry,
    magnetization,
    magnetization_symmetry,
    tfim_chain,
    xxz_boundary_driven,
    xxz_dephasing,
)
from ness_sdp.overlaps import assemble
from ness_sdp.pauli import PauliSum
from ness_sdp.sdp import SolverOptions, solve_feasibility
from ness_sdp.states import basis_state, moment_states
from ness_sdp.symmetry import (
    RhoCombination,
    SymmetrySpec,
    extract_all_ness,
    sector_basis_ansatz,
    sector_constraint,
    twirl_eliminate,
    twirl_eliminate_all,
    vandermonde_extract,
)


def synthetic_spec(n, phi):
    """Magnetization-phase symmetry with an arbitrary twirl angle."""
    return magnetization_symmetry(n, phi)


class TestSpecs:
    def test_magnetization_symmetry_validates(self):
        model = xxz_dephasing(3, 1.0)
        spec = magnetization_symmetry(3)
        assert spec.validate(model) == []
        assert spec.n_sectors == 4

    def test_exchange_parity_matches_dense_expansion(self):
        for n in (2, 3, 4):
            spec = exchange_parity_symmetry(n)
            assert np.allclose(spec.apply(np.eye(2 ** n)), dense_exchange_parity(n), atol=1e-12)

    def test_exchange_parity_validates_on_boundary_driven(self):
        model = xxz_boundary_driven(4, 1.0, 1.0, 0.5)
        assert exchange_parity_symmetry(4).validate(model) == []

    def test_exchange_parity_not_symmetry_of_tfim(self):
        model = tfim_chain(2, 1.0)
        assert exchange_parity_symmetry(2).validate(model) != []

    def test_magnetization_matches_diagonal(self):
        n, phi = 3, 0.37
        idx = np.arange(2 ** n)
        mags = n - 2 * np.bitwise_count(idx).astype(np.int64)
        expect = np.diag(np.exp(1j * phi * mags))
        spec = magnetization_symmetry(n, phi)
        assert np.allclose(spec.apply(np.eye(2 ** n)), expect, atol=1e-12)

    def test_sector_order(self):
        # magnetization m = -n..n, exchange parity (+1, -1)
        for n in (2, 3, 4):
            phi = 2 * np.pi / (2 * n + 2)
            expect = [np.exp(1j * phi * m) for m in range(-n, n + 1, 2)]
            assert np.allclose(magnetization_symmetry(n).eigenvalues, expect, atol=1e-12)
            # exactly, as the sector bytes downstream depend on it
            assert exchange_parity_symmetry(n).eigenvalues == (1.0, -1.0)


def random_specs(rng, count, n_range=(1, 5)):
    """SymmetrySpecs with random (permutation, flip, phase); the phases
    include 0, pi and pi/2, where sector phases coincide and merge."""
    for _ in range(count):
        n = int(rng.integers(*n_range))
        phase = rng.choice([0.0, np.pi, np.pi / 2, rng.uniform(-np.pi, np.pi)])
        yield SymmetrySpec(tuple(int(s) for s in rng.permutation(n) + 1),
                           format(int(rng.integers(2 ** n)), f"0{n}b"), float(phase))


def distinct_eigenvalues(u, tol=1e-8):
    """The eigenvalues of a dense unitary, merged within tol of phase angle and
    ordered by angle in (-pi, pi]."""
    vals = np.linalg.eigvals(u)
    angles = np.angle(vals)
    angles[angles <= tol - np.pi] += 2 * np.pi
    order = np.argsort(angles)
    keep = np.concatenate([[True], np.diff(angles[order]) > tol])
    return vals[order][keep]


def dense_violations(spec, model, tol=1e-10):
    """SymmetrySpec.validate's verdicts from dense commutators."""
    u = dense_symmetry(spec)
    gen = None if spec.generator is None else dense_sum(spec.generator)
    out = [] if gen is None or np.allclose(gen, gen.conj().T) else ["generator is not Hermitian"]
    ops = [("H", model.hamiltonian)] + [
        (f"jump operator {k}", jump) for k, jump in enumerate(model.jumps)]
    for name, op in ops:
        a = dense_sum(op)
        bound = tol * max(1.0, np.linalg.norm(a))
        if np.linalg.norm(u @ a - a @ u) > bound:
            out.append(f"U does not commute with {name}")
        if gen is not None and np.linalg.norm(gen @ a - a @ gen) > bound:
            out.append(f"generator does not commute with {name}")
    return out


class TestStructuredSymmetry:
    """The signed-permutation U against a dense U built state by state."""

    def builtins(self):
        for n in (1, 2, 3, 4):
            yield exchange_parity_symmetry(n)
            for phi in (None, np.pi / 2, np.pi / 3, 2 * np.pi / 8, 0.9):
                yield magnetization_symmetry(n, phi)

    def test_action_matches_reference(self, rng):
        for spec in [*self.builtins(), *random_specs(rng, 60)]:
            dim = 2 ** spec.n_qubits
            assert np.allclose(spec.apply(np.eye(dim)), dense_symmetry(spec), atol=1e-13)

    def test_eigenvalues_match_dense(self, rng):
        for spec in [*self.builtins(), *random_specs(rng, 60)]:
            expect = distinct_eigenvalues(dense_symmetry(spec))
            assert len(spec.eigenvalues) == len(expect), spec
            assert np.allclose(spec.eigenvalues, expect, rtol=0, atol=1e-12), spec

    def test_validate_matches_dense_commutators(self, rng):
        verdicts = set()
        for n in (2, 3, 4):
            models = (xxz_boundary_driven(n, 1.0, 1.0, 0.5), xxz_dephasing(n, 0.7),
                      tfim_chain(n, 0.5))
            generators = (None, magnetization(n), PauliSum.from_label("X" + "I" * (n - 1)),
                          PauliSum.from_label("Z" * n, 1j))
            specs = [exchange_parity_symmetry(n), magnetization_symmetry(n),
                     *(SymmetrySpec(s.permutation, s.flip, s.phase,
                                    generators[int(rng.integers(len(generators)))])
                       for s in random_specs(rng, 20, (n, n + 1)))]
            for model in models:
                for spec in specs:
                    got = spec.validate(model)
                    assert got == dense_violations(spec, model), (spec, model.label)
                    verdicts.add(not got)
        assert verdicts == {True, False}


class TestSectorConstraint:
    def test_eigenstate_ansatz_is_proportional_to_gram(self):
        ans = sector_basis_ansatz(4, 2)
        obs, target = sector_constraint(magnetization(4), 2.0, ans)
        ovl = assemble(xxz_dephasing(4, 1.0), ans)
        assert np.allclose(obs, 2.0 * ovl.E, atol=1e-12)
        assert target == 2.0

    def test_non_hermitian_generator_rejected(self):
        ans = sector_basis_ansatz(2, 0)
        with pytest.raises(ValueError):
            sector_constraint(PauliSum.from_label("XY", 1j), 0.0, ans)


class TestTwirl:
    def test_block_diagonal_invariant(self, rng):
        spec = magnetization_symmetry(3)
        # block-diagonal rho: diagonal in the computational basis
        rho = np.diag(rng.uniform(0.1, 1.0, 8)).astype(complex)
        rho /= np.trace(rho).real
        rc = RhoCombination.initial(rho, spec)
        out = twirl_eliminate(rc, spec, (0, 1))
        assert np.allclose(out.dense(), rho, atol=1e-12)

    def test_two_eigenvalue_full_elimination_is_average(self, rng):
        spec = exchange_parity_symmetry(2)
        rho = random_hermitian(rng, 4)
        rc = twirl_eliminate_all(RhoCombination.initial(rho, spec), spec)
        u = dense_symmetry(spec)
        expect = 0.5 * (rho + u @ rho @ u.conj().T)
        assert np.allclose(rc.dense(), expect, atol=1e-12)

    def test_planted_offdiagonal_component_annihilated(self):
        spec = magnetization_symmetry(3)
        # plant a B_{0,1} component from sector basis vectors
        u = sector_basis_ansatz(3, -3).columns[:, 0]
        v = sector_basis_ansatz(3, -1).columns[:, 0]
        planted = np.outer(u, v.conj())
        rc = RhoCombination.initial(planted + planted.conj().T, spec)
        out = twirl_eliminate(rc, spec, (0, 1))
        # the (0,1) block is annihilated exactly; its mirror remains
        p0 = np.outer(u, u.conj())
        p1 = np.outer(v, v.conj())
        block = p0 @ out.dense() @ p1
        assert np.linalg.norm(block) <= 1e-10

    def test_degenerate_divisor_raises(self):
        spec = magnetization_symmetry(3, np.pi / 2)  # phases i, -i repeat
        # repeated phases merge into distinct eigenvalues, so only a pair
        # naming one sector twice can make the twirl divisor vanish
        assert np.allclose(spec.eigenvalues, [-1j, 1j], atol=1e-12)
        rho = np.eye(8, dtype=complex) / 8
        rc = RhoCombination.initial(rho, spec)
        with pytest.raises(ValueError):
            twirl_eliminate(rc, spec, (1, 1))

    def test_full_elimination_commutes_with_u(self, rng):
        for phi in (2 * np.pi / 8, 0.9):
            spec = synthetic_spec(3, phi)
            rho = random_hermitian(rng, 8)
            rc = twirl_eliminate_all(RhoCombination.initial(rho, spec), spec)
            dense = rc.dense()
            u = dense_symmetry(spec)
            assert np.linalg.norm(dense - u @ dense @ u.conj().T) <= 1e-9

    def test_order_independence(self, rng):
        spec = synthetic_spec(3, 0.51)
        rho = random_hermitian(rng, 8)
        a = twirl_eliminate_all(RhoCombination.initial(rho, spec), spec)
        # Every off-diagonal pair in reverse order; a pair whose phase ratio
        # was already eliminated acts on a zero component.
        b = RhoCombination.initial(rho, spec)
        for m in reversed(range(spec.n_sectors)):
            for n in reversed(range(spec.n_sectors)):
                if m != n:
                    b = twirl_eliminate(b, spec, (m, n))
        assert np.allclose(a.dense(), b.dense(), atol=1e-10)

    def test_formal_weights_match_manual_twirl(self, rng):
        spec = synthetic_spec(2, 0.8)
        rho = random_hermitian(rng, 4)
        u = dense_symmetry(spec)
        rc = RhoCombination.initial(rho, spec)
        manual = rho.copy()
        for m, n in ((0, 1), (0, 2), (1, 0)):
            rc = twirl_eliminate(rc, spec, (m, n))
            w = 1.0 / (1.0 - spec.eigenvalues[m] * np.conj(spec.eigenvalues[n]))
            manual = manual - w * (manual - u @ manual @ u.conj().T)
            assert np.allclose(rc.dense(), manual, atol=1e-11)


class TestVandermonde:
    def test_two_sector_closed_form(self, rng):
        spec = exchange_parity_symmetry(2)
        rho = random_hermitian(rng, 4) + 2.0 * np.eye(4)
        rc = twirl_eliminate_all(RhoCombination.initial(rho, spec), spec)
        rho_pp = rc.dense()
        parts = vandermonde_extract(rc, spec)
        u = dense_symmetry(spec)
        for part, sign in zip(parts, (1.0, -1.0)):
            expect = (rho_pp + sign * (u @ rho_pp)) / 2
            got = part.state * part.trace_weight
            assert np.allclose(got, expect, atol=1e-10)

    def test_planted_mixture_recovery(self, rng):
        model = xxz_dephasing(3, 1.0)
        spec = magnetization_symmetry(3)
        sectors = [oracle.restricted_steady_state(model, sector_basis_ansatz(3, m).columns)
                   for m in (-3, -1, 1, 3)]
        weights = (0.1, 0.2, 0.3, 0.4)
        rho = sum(w * s for w, s in zip(weights, sectors))
        rc = RhoCombination.initial(rho, spec)
        parts = vandermonde_extract(twirl_eliminate_all(rc, spec), spec)
        assert len(parts) == 4
        for part, w, s in zip(parts, weights, sectors):
            assert not part.missing
            assert abs(part.trace_weight - w) < 1e-10
            assert oracle.fidelity(part.state, s) >= 1.0 - 1e-8

    def test_remix_reproduces_rho_phys(self, rng):
        spec = synthetic_spec(2, 0.7)
        rho = random_hermitian(rng, 4) + 2.0 * np.eye(4)
        rho /= np.trace(rho).real
        rc = twirl_eliminate_all(RhoCombination.initial(rho, spec), spec)
        parts = vandermonde_extract(rc, spec, trace_floor=1e-12)
        remix = sum(p.trace_weight * p.state for p in parts if not p.missing)
        assert np.allclose(remix, rc.dense(), atol=1e-10)

    def test_missing_component_flagged(self):
        model = xxz_dephasing(3, 1.0)
        spec = magnetization_symmetry(3)
        # plant only two of the four sectors
        s0 = oracle.restricted_steady_state(model, sector_basis_ansatz(3, -3).columns)
        s2 = oracle.restricted_steady_state(model, sector_basis_ansatz(3, 1).columns)
        rho = 0.5 * s0 + 0.5 * s2
        parts = vandermonde_extract(RhoCombination.initial(rho, spec), spec)
        missing = [p.sector for p in parts if p.missing]
        assert missing == [1, 3]

    def test_combination_formal_equals_dense(self, rng):
        spec = synthetic_spec(2, 0.7)
        rho = random_hermitian(rng, 4) + 2.0 * np.eye(4)
        rho /= np.trace(rho).real
        rc = twirl_eliminate_all(RhoCombination.initial(rho, spec), spec)
        for part in vandermonde_extract(rc, spec, trace_floor=1e-12):
            if not part.missing:
                assert np.allclose(part.combination.dense(), part.state, atol=1e-10)


    def test_factor_extraction_equals_dense(self, rng):
        for spec in (magnetization_symmetry(3), exchange_parity_symmetry(3)):
            factor = np.linalg.qr(rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5)))[0]
            beta = random_hermitian(rng, 5) + 3.0 * np.eye(5)
            beta /= np.trace(beta).real
            from_factor = vandermonde_extract(twirl_eliminate_all(
                RhoCombination.initial(beta, spec, factor=factor), spec), spec, trace_floor=1e-12)
            dense = vandermonde_extract(twirl_eliminate_all(
                RhoCombination.initial(factor @ beta @ factor.conj().T, spec), spec),
                spec, trace_floor=1e-12)
            assert [p.missing for p in from_factor] == [p.missing for p in dense]
            for a, b in zip(from_factor, dense):
                assert abs(a.trace_weight - b.trace_weight) <= 1e-10
                if not a.missing:
                    assert np.linalg.norm(a.state - b.state) <= 1e-10
                    assert np.linalg.norm(a.combination.dense() - a.state) <= 1e-10


class TestExtractAllNess:
    def test_unique_ness_returns_plain_solution(self):
        model = tfim_chain(2, 1.0)
        ans = moment_states(model.hamiltonian, basis_state(2, "11"), 2)
        # trivial symmetry: identity unitary, single sector
        spec = SymmetrySpec((1, 2), "00", 0.0)
        result = extract_all_ness(model, spec, ans)
        assert len(result.found) == 1
        rho_exact = oracle.exact_ness(model)
        assert oracle.fidelity(result.found[0].state, rho_exact) >= 0.999

    def test_xxz_dephasing_all_sectors(self):
        model = xxz_dephasing(3, 1.0)
        spec = magnetization_symmetry(3)
        full = dense_ansatz(np.eye(8),  # every computational basis state
                            tuple((i,) for i in range(8)))
        result = extract_all_ness(model, spec, full)
        assert len(result.found) == 4
        for part in result.found:
            m = (-3, -1, 1, 3)[part.sector]
            target = oracle.restricted_steady_state(model, sector_basis_ansatz(3, m).columns)
            assert oracle.fidelity(part.state, target) >= 0.999
            assert part.residual <= 1e-7

    def test_boundary_driven_two_orthogonal_states(self):
        model = xxz_boundary_driven(4, 1.0, 1.0, 0.5)
        spec = exchange_parity_symmetry(4)
        ans = sector_basis_ansatz(4, 0)
        result = extract_all_ness(model, spec, ans, extra_constraints=((magnetization(4), 0.0),))
        assert len(result.found) == 2
        r1, r2 = (p.state for p in result.found)
        assert abs(np.trace(r1.conj().T @ r2)) <= 1e-8
        for part in result.found:
            assert part.residual <= 1e-7

    def test_boundary_driven_eight_qubits_decided_feasible(self, monkeypatch):
        # The n=8 extraction of the boundary-extract benchmark, at its
        # outer-iteration cap of 10: LSQR projects onto each sector's affine
        # set in one outer iteration, so each sector's solve is decided
        # feasible, one solve per sector.
        solves = []
        monkeypatch.setattr(symmetry, "solve_feasibility",
                            lambda problem: solves.append(problem) or solve_feasibility(problem))
        model = xxz_boundary_driven(8, 1.0, 1.0, 0.5)
        ans = sector_basis_ansatz(8, 0)
        result = extract_all_ness(model, exchange_parity_symmetry(8), ans,
                                  options=SolverOptions(max_iter=10),
                                  extra_constraints=((magnetization(8), 0.0),))
        assert len(solves) == 2
        assert len(result.found) == 2
        for part in result.found:
            beta = part.beta
            assert beta.subspace_residual <= 1e-9 and beta.trace_error <= 1e-9
            assert beta.psd_violation >= -1e-9
            assert all(c <= 1e-9 for c in beta.constraint_errors)
            assert beta.iterations <= 1
            assert part.residual <= 1e-8
            assert np.linalg.norm(part.state - part.state.conj().T) <= 1e-12
            assert part.psd_violation >= -1e-9
            assert abs(np.trace(part.state) - 1.0) <= 1e-9

    def test_invalid_symmetry_rejected(self):
        model = tfim_chain(2, 1.0)
        ans = moment_states(model.hamiltonian, basis_state(2, "11"), 2)
        spec = exchange_parity_symmetry(2)  # not a symmetry of the TFIM
        with pytest.raises(ConfigError):
            extract_all_ness(model, spec, ans)


def assert_matches_reference(result, reference, tol=1e-10):
    """The same sectors missing, and each found state within tol max-abs."""
    assert [s.missing for s in result.states] == [r.missing for r in reference]
    for got, ref in zip(result.states, reference):
        if not got.missing:
            assert np.abs(got.state - ref.state).max() <= tol, got.sector


def assert_solver_invariants(part, tol=1e-9):
    beta = part.beta
    assert beta.subspace_residual <= tol and beta.trace_error <= tol, beta
    assert all(c <= tol for c in beta.constraint_errors), beta
    assert beta.psd_violation >= -tol and part.psd_violation >= -tol, beta
    assert part.diagnostics == beta.as_dict()


class TestSectorSolves:
    """One feasibility solve per sector, against twirl + Vandermonde extraction."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_boundary_extract_config_matches_reference(self, n):
        # The boundary-extract benchmark's inputs: the sector basis spans the
        # m=0 sector, which exchange parity maps onto itself.
        model = xxz_boundary_driven(n, 1.0, 1.0, 0.5)
        spec, ans = exchange_parity_symmetry(n), sector_basis_ansatz(n, 0)
        constraints = ((magnetization(n), 0.0),)
        options = SolverOptions(max_iter=10)
        result = extract_all_ness(model, spec, ans, options=options,
                                  extra_constraints=constraints)
        assert len(result.found) == 2
        assert_matches_reference(result, reference_extraction(model, spec, ans, constraints,
                                                              options))
        for part in result.found:
            assert_solver_invariants(part)
            assert part.residual <= 1e-8

    def test_xxz_dephasing_full_basis_matches_reference(self):
        model = xxz_dephasing(3, 1.0)
        spec = magnetization_symmetry(3)
        full = dense_ansatz(np.eye(8), tuple((i,) for i in range(8)))
        result = extract_all_ness(model, spec, full)
        assert len(result.found) == 4
        assert_matches_reference(result, reference_extraction(model, spec, full))
        for part in result.found:
            assert_solver_invariants(part)

    @pytest.mark.parametrize("order", [2, 3])
    def test_seed_fixed_by_u_matches_reference(self, order):
        # 101010 reversed and flipped is 101010, so span(S) is U-invariant and
        # P_a span(S) lies inside it: both methods solve the same problem.
        model = xxz_boundary_driven(6, 1.0, 1.0, 0.5)
        spec = exchange_parity_symmetry(6)
        ans = moment_states(model.hamiltonian, basis_state(6, "101010"), order)
        both = np.hstack([ans.columns, spec.apply(ans.columns)])
        assert np.linalg.matrix_rank(both) == np.linalg.matrix_rank(ans.columns)
        result = extract_all_ness(model, spec, ans)
        assert_matches_reference(result, reference_extraction(model, spec, ans))

    def test_sector_ansatz_is_held_on_its_own_rows(self):
        # 110010 maps to 101100 under exchange parity, off the rows of S; each
        # S_a is the projection (S +- U S) / 2 on the rows of both.
        model = xxz_boundary_driven(6, 1.0, 1.0, 0.5)
        spec = exchange_parity_symmetry(6)
        ans = moment_states(model.hamiltonian, basis_state(6, "110010"), 2)
        u = dense_symmetry(spec)
        result = extract_all_ness(model, spec, ans)
        for part, sign in zip(result.states, (1.0, -1.0)):
            expect = (ans.columns + sign * (u @ ans.columns)) / 2
            assert np.allclose(part.ansatz.columns, expect, rtol=0, atol=1e-15)
            assert len(part.ansatz.rows) > len(ans.rows)
            assert_solver_invariants(part)

    def test_projected_span_holds_the_steady_states_that_span_s_misses(self):
        # Off a U-invariant span the two methods differ: at K=3 from 110010,
        # P_a span(S) holds each sector's steady state, and extraction from
        # the solve over span(S) leaves a residual of order 1.
        model = xxz_boundary_driven(6, 1.0, 1.0, 0.5)
        spec = exchange_parity_symmetry(6)
        ans = moment_states(model.hamiltonian, basis_state(6, "110010"), 3)
        result = extract_all_ness(model, spec, ans)
        assert len(result.found) == 2
        for part, ref in zip(result.found, reference_extraction(model, spec, ans)):
            assert part.residual <= 1e-9
            assert oracle.true_residual(ref.state, model) > 1.0

    def test_empty_sectors_are_missing_in_one_pass(self, monkeypatch):
        # The K=3 moment states of 110 live in the m = -1 and m = 3 sectors
        # only, so sectors 0 (m = -3) and 2 (m = 1) are empty and get no solve.
        solves = []
        monkeypatch.setattr(symmetry, "solve_feasibility",
                            lambda problem: solves.append(problem) or solve_feasibility(problem))
        model = xxz_dephasing(3, 1.0)
        ans = moment_states(model.hamiltonian, basis_state(3, "110"), 3)
        result = extract_all_ness(model, magnetization_symmetry(3), ans)
        assert [s.sector for s in result.states if s.missing] == [0, 2]
        assert len(solves) == 2
        for part in result.states:
            if part.missing:
                assert part.ansatz is None and part.residual is None
            else:
                assert_solver_invariants(part)
                assert part.residual <= 1e-12

    def test_certified_infeasible_sector_is_missing_with_its_residual(self):
        # <M> = -1 holds only in the m = -1 sector; the other three sectors'
        # affine constraints are inconsistent, which LSQR certifies.
        model = xxz_dephasing(3, 1.0)
        full = dense_ansatz(np.eye(8), tuple((i,) for i in range(8)))
        result = extract_all_ness(model, magnetization_symmetry(3), full,
                                  extra_constraints=((magnetization(3), -1.0),))
        assert [s.sector for s in result.found] == [1]
        assert_solver_invariants(result.found[0])
        for part in result.states:
            if part.missing:
                assert part.diagnostics["stop_reason"] == "least-squares"
                assert part.residual == part.diagnostics["least_squares_residual"] > 1e-3

    def test_every_sector_infeasible_raises(self):
        model = xxz_dephasing(3, 1.0)
        full = dense_ansatz(np.eye(8), tuple((i,) for i in range(8)))
        with pytest.raises(InfeasibleError) as info:  # no sector of 3 qubits has m = 0
            extract_all_ness(model, magnetization_symmetry(3), full,
                             extra_constraints=((magnetization(3), 0.0),))
        assert info.value.report["stop_reason"] == "least-squares"
