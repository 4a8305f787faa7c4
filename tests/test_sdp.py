"""Feasibility solver: whitening, projections, Dykstra loop, diagnostics."""
import json
import re
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import random_hermitian
from ness_sdp import oracle, sdp
from ness_sdp.errors import (
    DegenerateAnsatzError,
    InfeasibleError,
    IterationBudgetError,
)
from ness_sdp.cli import EXIT_INFEASIBLE, main
from ness_sdp.lindblad import _hermitian_matrix, _real_coordinates, _real_vector, hermitize
from ness_sdp.models import magnetization, tfim_chain, xxz_boundary_driven, xxz_dephasing
from ness_sdp.overlaps import add_shot_noise, assemble
from ness_sdp.sdp import (
    FeasibilityProblem,
    SolverOptions,
    project_affine,
    project_psd,
    residuals,
    solve,
    solve_feasibility,
    solve_least_squares,
    whiten,
)
from ness_sdp.states import (
    AnsatzSet,
    basis_state,
    density_from_beta,
    moment_states,
    moment_states_random,
)
from ness_sdp.symmetry import sector_basis_ansatz, sector_constraint


def basis_ansatz(n, bitstrings):
    return AnsatzSet(
        states=tuple(basis_state(n, b) for b in bitstrings),
        words=tuple((k,) for k in range(len(bitstrings))),
    )


def tfim_problem(g=1.0, order=2, seed_bits="11", **opt_kwargs):
    model = tfim_chain(2, g)
    ans = moment_states(model.hamiltonian, basis_state(2, seed_bits), order)
    ovl = assemble(model, ans)
    options = SolverOptions(**opt_kwargs) if opt_kwargs else SolverOptions()
    return model, ans, FeasibilityProblem(overlaps=ovl, options=options)


def boundary_problem(n, target=0.0):
    """The boundary-extract solve: the boundary-driven XXZ chain on its m=0
    sector basis, magnetization constraint at ``target``, outer cap 10."""
    model = xxz_boundary_driven(n, 1.0, 1.0, 0.5)
    ans = sector_basis_ansatz(n, 0)
    con = sector_constraint(magnetization(n), target, ans)
    return FeasibilityProblem(overlaps=assemble(model, ans), extra_constraints=(con,),
                              options=SolverOptions(max_iter=10))


@pytest.fixture
def plain_affine_step(monkeypatch):
    """Switches the no-jump preconditioner off: every affine step runs the
    unpreconditioned LSQR, as before the preconditioner existed."""
    def switch_off():
        monkeypatch.setattr(sdp._WhitenedSystem, "preconditioned", property(lambda self: None))
    return switch_off


class TestWhiten:
    def test_orthonormal_identity_transform(self):
        _, _, problem = tfim_problem()
        system, w = whiten(problem)
        assert system.dim == problem.size
        assert np.allclose(w.conj().T @ problem.overlaps.E @ w, np.eye(system.dim),
                           atol=1e-12)

    def test_duplicate_state_reduces_rank(self):
        model = tfim_chain(2, 1.0)
        ans = basis_ansatz(2, ["00", "01", "01"])  # smuggled duplicate
        problem = FeasibilityProblem(overlaps=assemble(model, ans))
        system, w = whiten(problem)
        assert system.dim == 2

    def test_zero_gram_rejected(self):
        model = tfim_chain(2, 1.0)
        zero = AnsatzSet(states=(basis_state(2, "00"),), words=((),))
        ovl = assemble(model, zero)
        object.__setattr__(ovl, "E", np.zeros((1, 1), dtype=complex))
        with pytest.raises(DegenerateAnsatzError):
            whiten(FeasibilityProblem(overlaps=ovl))


class TestProjectPsd:
    def test_psd_fixed_point(self, rng):
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psd = mat @ mat.conj().T
        assert np.allclose(project_psd(psd), psd, atol=1e-12)

    def test_clamps_negative_eigenvalue(self):
        assert np.allclose(project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))

    def test_idempotent(self, rng):
        x = random_hermitian(rng, 5)
        once = project_psd(x)
        assert np.allclose(project_psd(once), once, atol=1e-12)


class TestProjectAffine:
    def test_feasible_point_unchanged(self):
        model, ans, problem = tfim_problem(g=0.0, order=0)
        system, w = whiten(problem)
        x = np.array([[1.0 + 0j]])  # the seed |11><11| is the exact NESS
        projected, info = project_affine(x, system, tol=1e-13, max_iter=200)
        assert info["inner_converged"]
        assert np.allclose(projected, x, atol=1e-10)

    def test_trace_only_problem_closed_form(self, rng):
        # No dissipators, H = 0: the affine set is {Tr x = 1} and the
        # least-norm correction shifts every eigenvalue equally.
        model = tfim_chain(2, 1.0)
        ans = basis_ansatz(2, ["00", "01", "10", "11"])
        ovl = assemble(model, ans)
        object.__setattr__(ovl, "D", np.zeros((4, 4), dtype=complex))
        object.__setattr__(ovl, "R", tuple(np.zeros((4, 4), dtype=complex) for _ in ovl.R))
        object.__setattr__(ovl, "F", tuple(np.zeros((4, 4), dtype=complex) for _ in ovl.F))
        problem = FeasibilityProblem(overlaps=ovl)
        system, _ = whiten(problem)
        x = random_hermitian(rng, 4)
        projected, _ = project_affine(x, system, tol=1e-13, max_iter=200)
        expect = x + (1.0 - np.trace(x).real) / 4 * np.eye(4)
        assert np.allclose(projected, expect, atol=1e-10)

    def test_adjoint_consistency(self, rng):
        _, _, problem = tfim_problem(g=0.7)
        con = sector_constraint(magnetization(2), 0.0,
                                moment_states(tfim_chain(2, 0.7).hamiltonian,
                                              basis_state(2, "11"), 2))
        problem = FeasibilityProblem(overlaps=problem.overlaps,
                                     extra_constraints=(con,))
        system, _ = whiten(problem)
        # and the boundary n=6 system with its generator rows preconditioned
        preconditioned = whiten(boundary_problem(6))[0].preconditioned
        assert preconditioned is not None
        for system in (system, preconditioned):
            for _ in range(10):
                x = random_hermitian(rng, system.dim)
                y = random_hermitian(rng, system.dim)
                t = rng.normal()
                vals = rng.normal(size=len(system.extras))
                ax_g, ax_t, ax_v = system.apply(x)
                lhs = (np.trace(ax_g.conj().T @ y).real + ax_t * t
                       + float(np.dot(ax_v, vals)))
                rhs = np.trace(x.conj().T @ system.adjoint(y, t, vals)).real
                assert abs(lhs - rhs) < 1e-10

    def test_preconditioned_step_is_the_least_norm_correction(self, rng, plain_affine_step):
        system, _ = whiten(boundary_problem(6))
        assert system.preconditioned is not None
        x = random_hermitian(rng, system.dim)
        projected, info = project_affine(x, system, tol=2e-11, max_iter=3000)
        assert info["stop_reason"] == "converged"
        plain_affine_step()
        plain_system, _ = whiten(boundary_problem(6))
        expect, plain_info = project_affine(x, plain_system, tol=2e-11, max_iter=3000)
        assert plain_info["stop_reason"] == "converged"
        assert info["inner_iterations"] < plain_info["inner_iterations"] / 4
        assert np.abs(projected - expect).max() <= 1e-10


class TestSolveFeasibility:
    def test_single_state_ness_ansatz(self):
        model, ans, problem = tfim_problem(g=0.0, order=0)
        beta = solve_feasibility(problem)
        assert np.allclose(beta.matrix, [[1.0]], atol=1e-9)

    def test_moment_ansatz_from_ness_seed_concentrates_weight(self):
        model, ans, problem = tfim_problem(g=0.0, order=1)
        beta = solve_feasibility(problem)
        expect = np.zeros((ans.size, ans.size))
        expect[0, 0] = 1.0
        assert np.allclose(beta.matrix, expect, atol=1e-8)

    def test_infeasible_single_state(self):
        model = tfim_chain(2, 0.0)
        ans = basis_ansatz(2, ["00"])
        problem = FeasibilityProblem(overlaps=assemble(model, ans))
        with pytest.raises(InfeasibleError) as excinfo:
            solve_feasibility(problem)
        assert excinfo.value.report["best_residual"] > 0.1

    def test_returned_invariants(self):
        for g in (0.5, 1.0, 2.0):
            _, ans, problem = tfim_problem(g=g)
            beta = solve_feasibility(problem)
            opts = problem.options
            assert np.linalg.norm(beta.matrix - beta.matrix.conj().T) <= 1e-12
            assert beta.psd_violation >= -1e-9
            assert beta.trace_error <= opts.feas_tol
            assert beta.subspace_residual <= opts.feas_tol

    def test_determinism(self):
        _, _, p1 = tfim_problem(g=1.2)
        _, _, p2 = tfim_problem(g=1.2)
        b1, b2 = solve_feasibility(p1), solve_feasibility(p2)
        assert np.array_equal(b1.matrix, b2.matrix)
        assert b1.iterations == b2.iterations

    def test_extra_constraint_enforced(self):
        model = xxz_dephasing(3, 1.0)
        full = basis_ansatz(3, [format(i, "03b") for i in range(8)])
        con = sector_constraint(magnetization(3), 1.0, full)
        problem = FeasibilityProblem(overlaps=assemble(model, full),
                                     extra_constraints=(con,))
        beta = solve_feasibility(problem)
        assert beta.constraint_errors[0] <= problem.options.feas_tol

    def test_constraint_outside_spectrum_infeasible(self):
        model = xxz_dephasing(3, 1.0)
        full = basis_ansatz(3, [format(i, "03b") for i in range(8)])
        con = sector_constraint(magnetization(3), 4.0, full)
        problem = FeasibilityProblem(overlaps=assemble(model, full),
                                     extra_constraints=(con,))
        with pytest.raises((InfeasibleError, IterationBudgetError)):
            solve_feasibility(problem)

    def test_iteration_budget_reported(self, monkeypatch):
        monkeypatch.setattr(sdp, "STALL_WINDOW", 1000)
        model = xxz_dephasing(3, 1.0)
        full = basis_ansatz(3, [format(i, "03b") for i in range(8)])
        con = sector_constraint(magnetization(3), 3.0, full)
        options = SolverOptions(max_iter=3)
        problem = FeasibilityProblem(overlaps=assemble(model, full),
                                     extra_constraints=(con,), options=options)
        with pytest.raises(IterationBudgetError) as excinfo:
            solve_feasibility(problem)
        assert "best_residual" in excinfo.value.report

    def test_random_initial_point(self):
        _, _, _ = tfim_problem()
        model = tfim_chain(2, 1.0)
        ans = moment_states(model.hamiltonian, basis_state(2, "11"), 2)
        ovl = assemble(model, ans)
        options = SolverOptions(initial="random", rng_seed=7)
        beta = solve_feasibility(FeasibilityProblem(overlaps=ovl, options=options))
        assert beta.subspace_residual <= options.feas_tol

    def test_random_start_is_exactly_hermitian(self):
        for dim, seed in ((3, 0), (8, 7), (17, 3)):
            x = sdp._initial_point(dim, SolverOptions(initial="random", rng_seed=seed))
            assert np.array_equal(x, x.conj().T)

    def test_inner_iterations_sum_the_lsqr_solves(self, monkeypatch):
        seen = []
        lsqr = sdp._lsqr

        def counted(*args, **kwargs):
            out = lsqr(*args, **kwargs)
            seen.append(out[2])
            return out

        monkeypatch.setattr(sdp, "_lsqr", counted)
        # A magnetization of 2 mixes the m=1 and m=3 sectors: many Dykstra steps.
        model = xxz_dephasing(3, 1.0)
        full = basis_ansatz(3, [format(i, "03b") for i in range(8)])
        con = sector_constraint(magnetization(3), 2.0, full)
        beta = solve_feasibility(FeasibilityProblem(overlaps=assemble(model, full),
                                                    extra_constraints=(con,)))
        assert len(seen) > 1
        assert beta.inner_iterations == sum(seen) > 0
        assert beta.as_dict()["inner_iterations"] == beta.inner_iterations
        seen.clear()
        _, _, problem = tfim_problem(g=1.0, mode="least-squares")
        assert solve_least_squares(problem).inner_iterations == 0
        assert seen == []

    def test_nested_feasibility_by_padding(self):
        # A feasible beta for a sub-ansatz, zero padded, stays feasible for
        # the super-ansatz; checked by direct residual evaluation.
        model = tfim_chain(2, 0.0)
        sub = moment_states(model.hamiltonian, basis_state(2, "11"), 0)
        beta_sub = solve_feasibility(FeasibilityProblem(overlaps=assemble(model, sub)))
        superset = AnsatzSet(
            states=sub.states + (basis_state(2, "00"), basis_state(2, "01")),
            words=sub.words + ((1,), (2,)),
        )
        padded = np.zeros((3, 3), dtype=complex)
        padded[0, 0] = beta_sub.matrix[0, 0]
        diag = residuals(FeasibilityProblem(overlaps=assemble(model, superset)), padded)
        assert diag["subspace_residual"] <= 1e-9
        assert diag["trace_error"] <= 1e-9


class TestNoJumpPreconditioner:
    """The affine step's G0^-1 preconditioner: where it applies, what it keeps."""

    def test_eight_qubit_step_takes_at_most_300_iterations(self):
        beta = solve_feasibility(boundary_problem(8))
        assert beta.iterations == 1
        assert beta.inner_iterations <= 300
        assert beta.subspace_residual <= 1e-9

    @pytest.mark.parametrize("make_problem", [
        lambda: boundary_problem(4),  # min |lambda_i - conj lambda_j| = 0: G0 is singular
        lambda: tfim_problem(g=1.0)[2],
    ], ids=["boundary-n4", "tfim"])
    def test_gate_keeps_the_plain_path(self, make_problem, plain_affine_step):
        problem = make_problem()
        assert whiten(problem)[0].preconditioned is None
        beta = solve_feasibility(problem)
        plain_affine_step()
        expect = solve_feasibility(make_problem())
        assert np.array_equal(beta.matrix, expect.matrix)
        assert beta.inner_iterations == expect.inner_iterations

    @pytest.mark.parametrize("target", [1.0, 0.5])
    def test_infeasible_target_keeps_the_unweighted_certificate(self, target,
                                                                 plain_affine_step):
        # The m=0 sector has zero magnetization, so the least-squares
        # residual is the target itself.
        assert whiten(boundary_problem(6, target))[0].preconditioned is not None
        with pytest.raises(InfeasibleError) as excinfo:
            solve_feasibility(boundary_problem(6, target))
        report = excinfo.value.report
        plain_affine_step()
        with pytest.raises(InfeasibleError) as plain:
            solve_feasibility(boundary_problem(6, target))
        assert report["stop_reason"] == plain.value.report["stop_reason"] == "least-squares"
        assert (report["least_squares_residual"] == plain.value.report["least_squares_residual"]
                == pytest.approx(target, rel=1e-12))
        # the count covers the preconditioned run and the plain re-run
        assert report["inner_iterations"] > plain.value.report["inner_iterations"]


class TestInconsistentConstraints:
    def test_sweep_point_certified_by_least_squares_residual(self):
        # tfim n=5 g=0.25 of the sweep benchmark: the whitened generator has
        # no null vector (sigma_min about 9e-8), so the affine set is empty.
        model = tfim_chain(5, 0.25)
        _, seed = oracle.dominant_eigenstate(oracle.exact_ness(model), 5)
        ans = moment_states_random(model.hamiltonian, seed, 3, 20, 1)
        problem = FeasibilityProblem(overlaps=assemble(model, ans),
                                     options=SolverOptions(max_iter=10))
        with pytest.raises(InfeasibleError) as excinfo:
            solve_feasibility(problem)
        report = excinfo.value.report
        assert report["stop_reason"] == "least-squares"
        assert report["iterations"] == 0
        # The certified residual is the exact least-squares distance of the
        # constraint values from the range of A = (G, Tr), from one SVD.
        system, _ = whiten(problem)
        dim = system.dim
        x0 = np.eye(dim) / dim
        a = np.vstack([_real_coordinates(system.generator.superoperator().__getitem__, dim),
                       _real_vector(np.eye(dim))])
        b = np.concatenate([-_real_vector(system.generator.apply(x0)), [0.0]])
        u, svals, _ = np.linalg.svd(a, full_matrices=False)
        reachable = u[:, svals > 1e-12 * svals[0]]
        exact = np.linalg.norm(b - reachable @ (reachable.T @ b))
        assert exact > 1e-8
        assert report["least_squares_residual"] == pytest.approx(exact, rel=1e-6)

    def test_non_spanning_eight_qubit_ansatz_exits_3_quickly(self, tmp_path):
        # tfim n=8 from |1...1>, K=4 random subsets of q=20: L=32 states
        # whose span holds no steady state.
        model = tfim_chain(8, 0.5)
        ans = moment_states_random(model.hamiltonian, basis_state(8, "1" * 8), 4, 20, 0)
        assert ans.size == 32
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"builder": "tfim_chain", "params": {"n": 8, "g": 0.5, "gamma": 1.0}},
            "ansatz": {"K": 4, "q": 20, "rng_seed": 0},
        }))
        start = time.perf_counter()
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg),
                                           "--out", str(tmp_path / "out")])
        elapsed = time.perf_counter() - start
        assert result.exit_code == EXIT_INFEASIBLE, result.output
        assert "least-squares residual" in result.output
        assert elapsed < 2.0


def projected_gradient_reference(problem):
    """The least-squares loop before acceleration, kept as a reference:
    plain projected gradient with a 30-step power estimate of the step, the
    same stall rule and the same gradient-map stop. Returns (objective,
    iterations)."""
    opts = problem.options
    system, _ = whiten(problem)
    dim = system.dim
    forward, backward, rows = sdp._least_squares_operator(system)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(dim, dim))
    z = _real_vector(hermitize(z + 1j * rng.normal(size=z.shape)))
    z /= np.linalg.norm(z)
    lam = 1.0
    for _ in range(30):
        z_new = backward(forward(z)) + rows.T @ (rows @ z)
        lam = max(float(np.linalg.norm(z_new)), 1e-30)
        z = z_new / lam
    step = 1.0 / (2.0 * lam)

    def residual(v):
        r, e = forward(v), rows @ v - system.targets
        return r, e, float(r @ r + e @ e)

    v = _real_vector(sdp._project_spectrahedron(sdp._initial_point(dim, opts)))
    r, e, obj = residual(v)
    best_obj, stall, it = obj, 0, 0
    for it in range(sdp.LS_MAX_ITER):
        grad = 2.0 * (backward(r) + rows.T @ e)
        v_new = _real_vector(sdp._project_spectrahedron(_hermitian_matrix(v - step * grad, dim)))
        grad_map = float(np.linalg.norm(v - v_new)) / step
        v = v_new
        r, e, obj = residual(v)
        if obj < best_obj * (1.0 - 1e-12):
            best_obj, stall = obj, 0
        else:
            stall += 1
        if grad_map <= sdp.LS_GRAD_TOL or stall >= 200:
            break
    return obj, it + 1


def random_noisy_problem(seed):
    """n = 2-3 TFIM or XXZ with K = 2 moment states and 1e4-1e8 shots; odd
    seeds add a magnetization sector constraint (the penalty path). Each run
    of 8 seeds covers every (n, model, constraint) combination."""
    rng = np.random.default_rng(seed)
    n = 2 + (seed // 4) % 2
    model = (tfim_chain(n, rng.uniform(0.2, 2.0)) if (seed // 2) % 2 == 0
             else xxz_dephasing(n, rng.uniform(0.5, 2.0)))
    bits = "".join(rng.choice(["0", "1"], size=n))
    ans = moment_states(model.hamiltonian, basis_state(n, bits), 2)
    ovl = add_shot_noise(assemble(model, ans), int(10 ** rng.uniform(4, 8)),
                         rng_seed=seed)
    extra = ()
    if seed % 2:
        extra = (sector_constraint(magnetization(n), float(n - 2 * bits.count("1")), ans),)
    return FeasibilityProblem(overlaps=ovl, extra_constraints=extra,
                              options=SolverOptions(mode="least-squares"))


def noisy_tfim4_problem(shots, noise_seed):
    """The shape of the noisy-tfim4 benchmark input: n=4, K=2 from |1111>."""
    model = tfim_chain(4, 0.5)
    ans = moment_states(model.hamiltonian, basis_state(4, "1111"), 2)
    return FeasibilityProblem(overlaps=add_shot_noise(assemble(model, ans), shots,
                                                      rng_seed=noise_seed))


def exact_lambda_max(problem):
    """lambda_max(A^T A + N^T N) from eigvalsh of the real matrix."""
    system, _ = whiten(problem)
    forward, backward, rows = sdp._least_squares_operator(system)
    a = _real_coordinates(system.generator.superoperator().__getitem__, system.dim)
    return float(np.linalg.eigvalsh(a.T @ a + rows.T @ rows)[-1])


def initial_step(problem):
    """The step 1 / (2 lam) a least-squares solve of the problem starts from."""
    system, _ = whiten(problem)
    forward, backward, rows = sdp._least_squares_operator(system)
    return 1.0 / (2.0 * sdp._descent_constant(forward, backward, rows, system.dim))


class TestAcceleratedLeastSquares:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_projected_gradient_reference(self, seed):
        problem = random_noisy_problem(seed)
        beta = solve_least_squares(problem)
        ref_obj, _ = projected_gradient_reference(problem)
        assert beta.objective <= ref_obj * (1.0 + 1e-9)
        assert beta.trace_error <= 1e-9
        assert beta.psd_violation >= -1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_step_is_below_the_exact_bound(self, seed):
        problem = random_noisy_problem(seed)
        assert whiten(problem)[0].dim ** 2 <= sdp.REAL_MATRIX_MAX
        assert initial_step(problem) * 2.0 * exact_lambda_max(problem) <= 1.0

    @pytest.mark.parametrize("shots", [10 ** 4, 10 ** 6, 10 ** 8])
    def test_noisy_tfim4_needs_a_quarter_of_the_iterations(self, shots):
        problem = noisy_tfim4_problem(shots, noise_seed=11)
        beta = solve_least_squares(problem)
        ref_obj, ref_iterations = projected_gradient_reference(problem)
        assert beta.iterations <= ref_iterations / 4
        assert beta.objective <= ref_obj * (1.0 + 1e-9)
        assert initial_step(problem) * 2.0 * exact_lambda_max(problem) <= 1.0

    def test_backtracking_recovers_from_a_short_estimate(self, monkeypatch):
        # lam at a twentieth of lambda_max: the descent check must raise it.
        problem = random_noisy_problem(1)
        expect = solve_least_squares(problem)
        true_lam = exact_lambda_max(problem)
        monkeypatch.setattr(sdp, "_descent_constant", lambda *args: true_lam / 20)
        beta = solve_least_squares(problem)
        assert beta.converged
        assert abs(beta.objective - expect.objective) <= 1e-9 * expect.objective

    def test_budget_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(sdp, "LS_MAX_ITER", 3)
        _, _, problem = tfim_problem(g=1.0)
        noisy = add_shot_noise(problem.overlaps, 10 ** 6, rng_seed=0)
        beta = solve_least_squares(FeasibilityProblem(overlaps=noisy))
        assert beta.iterations == 3
        assert beta.stop_reason == "budget"
        assert not beta.converged
        assert beta.as_dict()["stop_reason"] == "budget"
        assert beta.as_dict()["converged"] is False

    def test_feasibility_solve_reports_converged(self):
        _, _, problem = tfim_problem(g=1.0)
        beta = solve_feasibility(problem)
        assert beta.stop_reason == "converged"
        assert beta.as_dict()["stop_reason"] == "converged"


class TestLeastSquares:
    def test_exact_assembly_reaches_tiny_objective(self):
        _, ans, problem = tfim_problem(g=1.0, mode="least-squares")
        beta = solve_least_squares(problem)
        assert beta.mode == "least-squares"
        assert beta.objective <= 1e-12
        assert beta.trace_error <= 1e-9
        assert beta.psd_violation >= -1e-9

    def test_auto_mode_dispatch(self):
        from ness_sdp.overlaps import add_shot_noise
        model, ans, problem = tfim_problem(g=1.0)
        assert solve(problem).mode == "feasibility"
        noisy = add_shot_noise(problem.overlaps, 10 ** 8, rng_seed=0)
        beta = solve(FeasibilityProblem(overlaps=noisy))
        assert beta.mode == "least-squares"

    def test_noisy_solution_stays_close(self):
        from ness_sdp.overlaps import add_shot_noise
        model, ans, problem = tfim_problem(g=1.0)
        rho_exact = oracle.exact_ness(model)
        noisy = add_shot_noise(problem.overlaps, 10 ** 8, rng_seed=3)
        beta = solve_least_squares(FeasibilityProblem(overlaps=noisy))
        rho_fit = density_from_beta(beta.matrix, ans)
        assert oracle.fidelity(rho_fit, rho_exact) >= 0.99

    def test_real_matrix_reproduces_the_whitened_system(self, rng):
        model = tfim_chain(2, 0.7)
        ans = moment_states(model.hamiltonian, basis_state(2, "11"), 2)
        con = sector_constraint(magnetization(2), 0.0, ans)
        problem = FeasibilityProblem(overlaps=assemble(model, ans), extra_constraints=(con,))
        system, _ = whiten(problem)
        assert system.dim ** 2 <= sdp.REAL_MATRIX_MAX
        forward, backward, rows = sdp._least_squares_operator(system)

        def rel(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        for _ in range(10):
            x = random_hermitian(rng, system.dim)
            y = random_hermitian(rng, system.dim)
            t = rng.normal()
            vals = rng.normal(size=len(system.extras))
            g, tr, cons = system.apply(x)
            v = _real_vector(x)
            assert rel(_hermitian_matrix(forward(v), system.dim), g) <= 1e-12
            assert rel(rows @ v, cons) <= 1e-12
            adj = system.adjoint(y, t, vals)
            back = backward(_real_vector(y)) + rows.T @ vals + t * _real_vector(system.eye)
            assert rel(_hermitian_matrix(back, system.dim), adj) <= 1e-12

    def test_matrix_free_route_agrees_with_the_matrix(self, monkeypatch):
        _, _, problem = tfim_problem(g=1.0)
        noisy = FeasibilityProblem(overlaps=add_shot_noise(problem.overlaps, 10 ** 6,
                                                           rng_seed=0))
        with_matrix = solve_least_squares(noisy)
        monkeypatch.setattr(sdp, "REAL_MATRIX_MAX", 0)

        def no_matrix(*args):
            raise AssertionError("the real matrix was built above REAL_MATRIX_MAX")

        monkeypatch.setattr(sdp, "_real_coordinates", no_matrix)
        matrix_free = solve_least_squares(noisy)
        assert (abs(matrix_free.objective - with_matrix.objective)
                <= 1e-9 * with_matrix.objective)
        assert abs(matrix_free.iterations - with_matrix.iterations) <= 0.05 * with_matrix.iterations


def test_residuals_read_the_hermitian_part(rng):
    _, _, problem = tfim_problem(g=0.7)
    beta = random_hermitian(rng, problem.size)
    skew = 1j * random_hermitian(rng, problem.size)
    superop = problem.overlaps.generator().superoperator()
    expect = np.linalg.norm(superop @ beta.reshape(-1, order="F"))
    diag = residuals(problem, beta + skew)
    assert abs(diag["subspace_residual"] - expect) <= 1e-12 * expect
    assert diag["hermiticity_error"] > 0


def test_whiten_roundtrip_constraint_satisfaction():
    # Whitened solve, back-transformed, satisfies the original-basis
    # constraints: exercised end to end on a rank-deficient ansatz.
    model = tfim_chain(2, 1.0)
    states_dup = basis_ansatz(2, ["00", "01", "10", "11", "11"])
    problem = FeasibilityProblem(overlaps=assemble(model, states_dup))
    beta = solve_feasibility(problem)
    assert beta.whitened_dim == 4
    assert beta.subspace_residual <= problem.options.feas_tol
    assert abs(np.trace(beta.matrix @ problem.overlaps.E) - 1.0) <= 1e-9


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(feas_tol=0.0)
    with pytest.raises(ValueError):
        solve(FeasibilityProblem(
            overlaps=assemble(tfim_chain(2, 1.0),
                              basis_ansatz(2, ["00"])),
            options=SolverOptions(mode="bogus")))


def test_readme_documents_every_solver_option():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (line,) = [ln for ln in readme.splitlines() if ln.lstrip().startswith('"solver":')]
    documented = set(re.findall(r'"(\w+)":', line.split(":", 1)[1]))
    assert documented == {f.name for f in fields(SolverOptions)}
