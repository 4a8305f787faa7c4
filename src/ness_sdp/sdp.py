"""Feasibility solver over the Hermitian PSD cone for the projected constraints.

The constraint is the projected generator of ``overlaps``,

    G(beta) = -i (K beta E - E beta K^dag) + sum_n gamma_n R_n beta R_n^dag,
    K = D - (i/2) sum_n gamma_n F_n.

The solver whitens E to an identity metric (dropping near-null Gram
directions): with beta = W x W^dag and W^dag E W = I the constraint
becomes W^dag G(W x W^dag) W = -i (K_w x - x K_w^dag)
+ sum_n J_w,n x J_w,n^dag. It then runs Dykstra-corrected alternating
projections between the affine constraint set {zero projected generator,
unit trace, optional extra linear constraints} and the PSD cone. The
affine projection is least-norm and matrix-free: LSQR (Paige & Saunders,
ACM TOMS 8, 1982) on A(x) = (G(x), Tr x, (Tr(x N_k))_k) over Hermitian x
applies A and its adjoint as short sequences of L x L products, so no
L^2 x L^2 system is ever materialized. On weakly dissipative chains the
no-jump part G0(x) = -i (K_w x - x K_w^dag) of G is nearly singular and
LSQR crawls (boundary-driven XXZ: 1855 iterations per step at L = 70).
When the eigenvalues of G0, from one eig of K_w per solve, spread by
more than PRECONDITION_SPREAD, LSQR runs on the generator rows
left-multiplied by G0^-1 (``_NoJumpPreconditioned``; 199 iterations
there). That keeps the solution set, hence the least-norm correction. It
stops when the residual, with its generator rows weighted by G0^-1, is
<= tol / max(1, 2 ||K_w||_2), which bounds the true residual by tol.
LSQR's least-squares stop certifies an empty affine set
(InfeasibleError); a preconditioned step that stops so is re-run without
the preconditioner, so the certified residual is the unweighted one. An
empty intersection of the affine set with the PSD cone still shows as a
stalled residual.

A secondary least-squares mode minimizes the squared generator residual
over the spectrahedron {PSD, unit trace} by accelerated projected
gradient (FISTA with adaptive restart; its step bound is stated at
``_descent_constant``); it is the fallback when shot noise makes strict
feasibility impossible and reports the honestly achieved residual and
why it stopped. It works in real Hermitian coordinates
(``lindblad._real_coordinates``): G maps Hermitian matrices to Hermitian
matrices, so on the L^2 real coordinates of x it is a real L^2 x L^2
matrix A, and the extra constraints are real rows N. One residual
r = A v per iterate gives both the objective ||r||^2 + ||N v - t||^2
and, extrapolated, the next gradient; the Hermitian matrix is formed
only for the spectrahedron projection. A is built once per solve while
L^2 <= REAL_MATRIX_MAX (L <= 24); above that the same loop applies G and
G^dag matrix-free, once each per iterate.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DegenerateAnsatzError,
    InfeasibleError,
    IterationBudgetError,
)
from .lindblad import (
    _hermitian_matrix,
    _real_coordinates,
    _real_vector,
    hermitize,
)
from .overlaps import ObservableMatrix, OverlapSet


_OPTION_TYPES = {int: numbers.Integral, float: numbers.Real, str: str}

# Largest L^2 for which the least-squares mode materializes the real
# L^2 x L^2 matrix of the whitened generator: L = 24. Timed with one BLAS
# thread, an iterate on the matrix costs 0.05 ms against 0.18 ms
# matrix-free at L = 11, 0.29 against 0.32 ms at L = 24 and 0.35 against
# 0.36 ms at L = 25; at L = 32 the matrix is slower (0.71 against 0.46 ms)
# and its build raises peak RSS by about 50 MB. Per accelerated solve
# (the first L moment states of TFIM n=7 K=3 at 1e6 shots, one BLAS thread,
# matrix build included), matrix against matrix-free: L = 16 0.08 against
# 0.20 s (374 iterates), L = 24 0.25 against 0.30 s (385), L = 32 0.74
# against 0.56 s (502); plain projected gradient took 3360-6620 iterates
# there, so the build now weighs about 10x more per iterate and the
# crossover stays between L = 24 and 32.
REAL_MATRIX_MAX = 576

# LSQR's least-squares stop: ||A^dag r|| <= LSQR_ATOL ||A|| ||r||, with ||A||
# the Frobenius-norm estimate of the bidiagonalization.
LSQR_ATOL = 1e-12

# Safety factor on the least-squares mode's estimates of lambda_max(M): on
# 40 noisy TFIM and XXZ inputs with L = 2-16 the 30-step Lanczos estimate
# fell at most 3.2e-5 short of eigvalsh (a 30-step power estimate: 5.5%).
LIPSCHITZ_MARGIN = 1.01

# Whitening drops Gram eigenvalues at or below WHITEN_CUTOFF times the largest.
WHITEN_CUTOFF = 1e-10

# Budget of one affine step: LSQR stops at LSQR_TOL_FACTOR times the
# whitened outer tolerance, or after LSQR_MAX_ITER iterations.
LSQR_TOL_FACTOR = 0.02
LSQR_MAX_ITER = 3000

# The affine step preconditions the generator rows by G0^-1, the inverse of
# the whitened no-jump part G0(x) = -i (K x - x K^dag), when the eigenvalues
# D_ij = -i (lambda_i - conj lambda_j) of G0 (lambda those of K) spread by
# more than PRECONDITION_SPREAD = max|D| / min|D|. A preconditioned LSQR
# iteration costs 1.3x (L = 22) to 3.5x (L = 70) a plain one (one BLAS
# thread). Measured spreads and LSQR iterations per step, plain ->
# preconditioned:
#   above: the boundary-driven XXZ chain on its sector-basis:0 ansatz with
#     the magnetization constraint, 811 at n=6 (497 -> 62) and 217 at n=8
#     (1855 -> 199); TFIM n=6 K=2 at gamma = 0.05, 16.6 (297 -> 39);
#   below: the TFIM ansatze of the benchmark and the tests, 1.0-4.1 (the
#     sweep-tfim5 ones 1.3-1.8), and xxz_dephasing n=4, 2.0; TFIM n=6 K=2 at
#     gamma = 0.2 reads 4.3 (113 -> 54), which would not pay at L = 70.
# A zero D (boundary n=4) leaves G0 singular and the step plain.
PRECONDITION_SPREAD = 10.0

# A feasibility solve that has not cut its best residual by the fraction
# STALL_IMPROVEMENT within STALL_WINDOW outer iterations stops as infeasible.
STALL_WINDOW = 500
STALL_IMPROVEMENT = 1e-3

# The least-squares mode stops at a gradient map of LS_GRAD_TOL, or
# unconverged after LS_MAX_ITER iterates.
LS_MAX_ITER = 60000
LS_GRAD_TOL = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    feas_tol: float = 1e-9
    max_iter: int = 10000
    initial: str = "identity"           # "identity" or "random"
    rng_seed: int = 0
    mode: str = "auto"                  # "feasibility", "least-squares", "auto"

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(value, _OPTION_TYPES[kind]):
                raise ValueError(f"{f.name} must be {kind.__name__}, got {value!r}")
        if self.feas_tol <= 0:
            raise ValueError("feas_tol must be > 0")
        if self.initial not in ("identity", "random"):
            raise ValueError(f"unknown initial point kind {self.initial!r}")
        if self.mode not in ("feasibility", "least-squares", "auto"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class FeasibilityProblem:
    overlaps: OverlapSet
    extra_constraints: tuple[tuple[ObservableMatrix, float], ...] = ()
    options: SolverOptions = field(default_factory=SolverOptions)

    @property
    def size(self) -> int:
        return self.overlaps.size


@dataclass(frozen=True)
class BetaMatrix:
    """Solver output: Hermitian coefficient matrix with diagnostics.

    subspace_residual is the Frobenius norm of the projected generator
    evaluated in the original (unwhitened) ansatz basis; psd_violation
    is the most negative eigenvalue of beta (>= 0 when beta is PSD).
    iterations counts Dykstra or FISTA iterates; inner_iterations sums
    the LSQR iterations of a feasibility solve's affine steps (0 in
    least-squares mode, which runs no LSQR).
    """

    matrix: np.ndarray
    subspace_residual: float
    psd_violation: float
    trace_error: float
    iterations: int
    constraint_errors: tuple[float, ...] = ()
    mode: str = "feasibility"
    converged: bool = True
    whitened_dim: int = 0
    objective: float | None = None
    stop_reason: str = "converged"
    inner_iterations: int = 0

    def as_dict(self) -> dict:
        return {
            "subspace_residual": self.subspace_residual,
            "psd_violation": self.psd_violation,
            "trace_error": self.trace_error,
            "iterations": self.iterations,
            "inner_iterations": self.inner_iterations,
            "constraint_errors": list(self.constraint_errors),
            "mode": self.mode,
            "converged": self.converged,
            "whitened_dim": self.whitened_dim,
            "stop_reason": self.stop_reason,
        }


class _WhitenedSystem:
    """Constraint operator A(x) = (G(x), Tr x, (Tr(x N_k))_k), G whitened or a model's own."""

    def __init__(self, generator, extras, targets):
        self.generator = generator
        self.extras = extras
        self.targets = np.asarray(targets, dtype=float)
        self.dim = generator.dim
        self.eye = np.eye(self.dim, dtype=complex)

    @functools.cached_property
    def preconditioned(self) -> "_WhitenedSystem | None":
        """This system with G0^-1 G in place of G when G0 passes the gate, else None.

        The gate is PRECONDITION_SPREAD, and a guard: the products with V
        and V^-1 amplify rounding in G0^-1 by up to cond(V)^2 times the
        spread, which must stay below 1 / sqrt(eps) (about 6.7e7; the
        boundary chain reads 5.2e3 at n=6 and 9.6e3 at n=8).
        """
        lam, vecs = np.linalg.eig(self.generator.k)
        gaps = np.abs(lam[:, None] - lam.conj())  # |D_ij|
        low, high = gaps.min(), gaps.max()
        if not high > PRECONDITION_SPREAD * low > 0.0:
            return None
        if np.linalg.cond(vecs) ** 2 * high / low > np.finfo(float).eps ** -0.5:
            return None
        return _WhitenedSystem(_NoJumpPreconditioned(self.generator, lam, vecs),
                               self.extras, self.targets)

    def apply(self, x: np.ndarray):
        """A(x) = (G(x), Tr x, (Tr(x N_k))_k)."""
        vals = np.array([np.vdot(nmat, x).real for nmat in self.extras])
        return self.generator.apply(x), np.trace(x).real, vals

    def adjoint(self, y: np.ndarray, t: float, vals: np.ndarray) -> np.ndarray:
        out = self.generator.adjoint(y)
        out.flat[::self.dim + 1] += t
        for v, nmat in zip(vals, self.extras):
            out += v * nmat
        return out

    def norm(self, y: np.ndarray, t: float, vals: np.ndarray) -> float:
        """Norm of a constraint-space element, under Re Tr(y^dag y') + t t' + vals . vals'."""
        return float(np.sqrt(np.vdot(y, y).real + t * t + vals @ vals))


class _NoJumpPreconditioned:
    """G0^-1 G for a whitened generator G = G0 + J with an invertible no-jump part.

    G0(x) = -i (K x - x K^dag) and J(x) = sum_k J_k x J_k^dag. With
    K = V Lambda V^-1 and D_ij = -i (lambda_i - conj lambda_j),
    G0^-1(Z) = V [(V^-1 Z V^-dag) / D] V^dag, the Sylvester solve of
    Bartels & Stewart (Comm. ACM 15, 820, 1972) in K's eigenbasis. So
    G0^-1 G(x) = x + G0^-1(J(x)), with the adjoint y + J^dag(W),
    W = V^-dag [(V^dag y V) / conj D] V^-1. The jump sums run on the
    generator's support blocks, and both outputs are hermitized, as
    ``Lindbladian.apply`` does. ``scale`` = max(1, 2 ||K||_2) bounds ||G0||.
    """

    def __init__(self, generator, lam: np.ndarray, vecs: np.ndarray):
        self.generator = generator
        self.v, self.v_dag = vecs, vecs.conj().T
        self.v_inv = np.linalg.inv(vecs)
        self.v_inv_dag = self.v_inv.conj().T
        self.d_inv = 1.0 / (-1j * (lam[:, None] - lam.conj()))
        self.d_inv_conj = self.d_inv.conj()
        self.scale = max(1.0, 2.0 * float(np.linalg.norm(generator.k, 2)))

    @property
    def dim(self) -> int:
        return self.generator.dim

    def no_jump_inverse(self, z: np.ndarray) -> np.ndarray:
        """G0^-1(z), not hermitized."""
        return self.v @ ((self.v_inv @ z @ self.v_inv_dag) * self.d_inv) @ self.v_dag

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = self.no_jump_inverse(self.generator.add_jumps(np.zeros_like(x), x))
        out += x
        return hermitize(out)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        w = self.v_inv_dag @ ((self.v_dag @ y @ self.v) * self.d_inv_conj) @ self.v_inv
        return hermitize(self.generator.add_jumps_adjoint(y.copy(), w))


def whiten(problem: FeasibilityProblem):
    """Map all constraint matrices into an orthonormalized ansatz basis.

    Returns (system, transform) where transform W satisfies W^dag E W = I
    on the retained subspace and beta = W x W^dag recovers a coefficient
    matrix in the original basis.
    """
    gram = hermitize(problem.overlaps.E)
    vals, vecs = np.linalg.eigh(gram)
    if vals[-1] <= 0:
        raise DegenerateAnsatzError("ansatz Gram matrix is numerically zero")
    keep = vals > WHITEN_CUTOFF * vals[-1]
    if not np.any(keep):
        raise DegenerateAnsatzError("no Gram eigenvalue above the whitening cutoff")
    w = vecs[:, keep] / np.sqrt(vals[keep])
    extras = [hermitize(w.conj().T @ obs.matrix @ w)
              for obs, _ in problem.extra_constraints]
    targets = [target for _, target in problem.extra_constraints]
    system = _WhitenedSystem(problem.overlaps.generator().compress(w), extras, targets)
    return system, w


def project_psd(x: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (negative eigenvalues clamped)."""
    x = hermitize(np.asarray(x, dtype=complex))
    vals, vecs = np.linalg.eigh(x)
    if vals[0] >= 0:
        return x
    return hermitize((vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T)


def _divided(parts: tuple, beta: float) -> tuple:
    """A constraint-space element (y, t, vals) divided by a real beta > 0.

    numpy divides a complex array by a real scalar as (a + b*0) * (1/beta)
    per entry, so y * (1 / beta) gives the same numbers at a fraction of the
    cost (up to the sign of a zero). For the real t and vals the two differ
    in the last bit, so they keep the division.
    """
    y, t, vals = parts
    return y * (1.0 / beta), t / beta, vals / beta


def _lsqr(system: _WhitenedSystem, rhs: tuple, tol: float, max_iter: int):
    """LSQR for the least-norm Hermitian dx minimizing ||A(dx) - rhs||.

    Golub-Kahan bidiagonalization of the constraint operator A over
    Hermitian matrices with the real inner product Re Tr(x^dag y) (Paige &
    Saunders, ACM TOMS 8, 1982), started from dx = 0 so that dx stays in
    the range of A^dag. The recurrences give ||r|| = phibar and
    ||A^dag r|| = alpha |c| phibar for r = rhs - A(dx). Returns
    (dx, ||r||, iterations, stop) with stop ``converged`` (||r|| <= tol),
    ``least-squares`` (||A^dag r|| <= LSQR_ATOL ||A|| ||r||: dx solves the
    least-squares problem, so ||r|| is the distance of rhs from the range
    of A) or ``budget`` (max_iter steps).
    """
    dx = np.zeros((system.dim, system.dim), dtype=complex)
    beta = system.norm(*rhs)
    if beta <= tol:
        return dx, beta, 0, "converged"
    u = _divided(rhs, beta)
    v = system.adjoint(*u)
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        return dx, beta, 0, "least-squares"
    v *= 1.0 / alpha
    w = v.copy()
    phibar, rhobar, anorm_sq = beta, alpha, 0.0
    for it in range(1, max_iter + 1):
        u = tuple(av - alpha * part for av, part in zip(system.apply(v), u))
        beta = system.norm(*u)
        anorm_sq += alpha * alpha + beta * beta
        if beta > 0.0:
            u = _divided(u, beta)
            v *= -beta
            v += system.adjoint(*u)
            alpha = float(np.linalg.norm(v))
            if alpha > 0.0:
                v *= 1.0 / alpha
        rho = float(np.hypot(rhobar, beta))
        cs, sn = rhobar / rho, beta / rho
        theta, rhobar = sn * alpha, -cs * alpha
        phi, phibar = cs * phibar, sn * phibar
        dx += (phi / rho) * w
        w *= -(theta / rho)
        w += v
        if phibar <= tol:
            return dx, phibar, it, "converged"
        if alpha * abs(cs) <= LSQR_ATOL * np.sqrt(anorm_sq):
            return dx, phibar, it, "least-squares"
    return dx, phibar, max_iter, "budget"


def project_affine(x: np.ndarray, system: _WhitenedSystem, tol: float, max_iter: int):
    """Least-norm correction of x onto the affine constraint set, by LSQR.

    Returns (projected, info); info carries the inner residual, the LSQR
    iteration count, its stop reason and a convergence flag. With an
    empty affine set the result is the least-squares point nearest x,
    and the stop reason ``least-squares`` certifies its residual.

    When ``system.preconditioned`` exists, LSQR first solves P A(dx) =
    P rhs, with P = G0^-1 on the generator rows and the identity on the
    others: the same solution set, hence the same least-norm correction.
    It stops at ||P r|| <= tol / scale, and since ||G0|| <= scale the
    reported inner residual scale ||P r|| bounds the true ||r|| by tol. A
    ``least-squares`` stop there is repeated on the plain system, so that
    the certified residual is the unweighted one; the iteration count sums
    both runs.
    """
    g, tr, vals = system.apply(x)
    rhs = (-g, 1.0 - tr, system.targets - vals)
    pre = system.preconditioned
    stop, iterations = "least-squares", 0  # so the plain run goes next unless pre converges
    if pre is not None:
        scale = pre.generator.scale
        weighted = (hermitize(pre.generator.no_jump_inverse(-g)), rhs[1], rhs[2])
        dx, res, iterations, stop = _lsqr(pre, weighted, tol / scale, max_iter)
        res *= scale
    if stop == "least-squares":
        dx, res, more, stop = _lsqr(system, rhs, tol, max_iter)
        iterations += more
    return hermitize(x + dx), {"inner_residual": res, "inner_iterations": iterations,
                               "inner_converged": stop == "converged", "stop_reason": stop}


def residuals(problem: FeasibilityProblem, beta: np.ndarray) -> dict:
    """Original-basis diagnostics for any candidate beta (solver-independent).

    The generator residual and the spectrum are those of the Hermitian part
    of beta; hermiticity_error measures what that leaves out.
    """
    beta = np.asarray(beta, dtype=complex)
    ovl = problem.overlaps
    herm = hermitize(beta)
    gal = ovl.generator().apply(herm)
    eigs = np.linalg.eigvalsh(herm)
    cons = tuple(
        float(abs(np.trace(beta @ obs.matrix) - target))
        for obs, target in problem.extra_constraints
    )
    return {
        "subspace_residual": float(np.linalg.norm(gal)),
        "trace_error": float(abs(np.trace(beta @ ovl.E) - 1.0)),
        "psd_violation": float(eigs[0]),
        "hermiticity_error": float(np.linalg.norm(beta - beta.conj().T)),
        "constraint_errors": cons,
    }


def _initial_point(dim: int, options: SolverOptions) -> np.ndarray:
    if options.initial == "identity":
        return np.eye(dim, dtype=complex) / dim
    rng = np.random.default_rng(options.rng_seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = hermitize(g @ g.conj().T)  # the product is Hermitian only up to rounding
    return x / np.trace(x).real


def _finalize(problem, system, w, x, iterations, mode, converged,
              objective=None, stop_reason="converged", inner_iterations=0) -> BetaMatrix:
    beta = hermitize(w @ x @ w.conj().T)
    diag = residuals(problem, beta)
    return BetaMatrix(
        matrix=beta,
        subspace_residual=diag["subspace_residual"],
        psd_violation=diag["psd_violation"],
        trace_error=diag["trace_error"],
        iterations=iterations,
        constraint_errors=diag["constraint_errors"],
        mode=mode,
        converged=converged,
        whitened_dim=system.dim,
        objective=objective,
        stop_reason=stop_reason,
        inner_iterations=inner_iterations,
    )


def solve_feasibility(problem: FeasibilityProblem) -> BetaMatrix:
    """Dykstra alternating projections between the affine set and the PSD cone.

    Raises InfeasibleError when LSQR certifies that no point of the
    affine set meets the tolerance (stop reason ``least-squares``) or
    when the residual stagnates above tolerance (``stall``, an empty
    intersection with the PSD cone), and IterationBudgetError
    (``budget``) when max_iter runs out while the residual is still
    improving; all carry the best diagnostics found.
    """
    opts = problem.options
    system, w = whiten(problem)
    gram_scale = float(np.linalg.eigvalsh(hermitize(problem.overlaps.E))[-1])
    tol_w = opts.feas_tol / max(1.0, gram_scale)
    # The loop accepts x once each of the 2 + k constraint blocks is within
    # tol_w, so a least-squares residual above sqrt(2 + k) tol_w rules out
    # every point of the affine set.
    ls_factor = np.sqrt(2.0 + len(system.extras))
    x = _initial_point(system.dim, opts)
    p = np.zeros((system.dim, system.dim), dtype=complex)
    best_res = np.inf
    window_best = np.inf
    inner_iterations = 0

    def report(it, reason, **extra):
        return {"best_residual": best_res, "iterations": it, "tolerance": opts.feas_tol,
                "stop_reason": reason, **extra}

    for it in range(opts.max_iter):
        g, tr, vals = system.apply(x)
        res = max(float(np.linalg.norm(g)), abs(1.0 - tr),
                  float(np.max(np.abs(system.targets - vals), initial=0.0)))
        best_res = min(best_res, res)
        if res <= tol_w:
            candidate = _finalize(problem, system, w, x, it, "feasibility", True,
                                  inner_iterations=inner_iterations)
            ok = (candidate.subspace_residual <= opts.feas_tol
                  and candidate.trace_error <= opts.feas_tol
                  and all(c <= opts.feas_tol for c in candidate.constraint_errors))
            if ok:
                return candidate
            tol_w /= 10.0  # whitened tolerance too loose for the original basis
        if it > 0 and it % STALL_WINDOW == 0:
            if best_res > window_best * (1.0 - STALL_IMPROVEMENT):
                raise InfeasibleError(
                    f"feasibility residual stagnated at {best_res:.3e} "
                    f"(tol {opts.feas_tol:.1e}) after {it} iterations",
                    report=report(it, "stall"),
                )
            window_best = best_res
        y, info = project_affine(x, system, tol=max(LSQR_TOL_FACTOR * tol_w, 1e-15),
                                 max_iter=LSQR_MAX_ITER)
        inner_iterations += info["inner_iterations"]
        if info["stop_reason"] == "least-squares":
            # The recurrence's ||r|| is an estimate; certify with the true one.
            g, tr, vals = system.apply(y)
            ls_res = system.norm(g, 1.0 - tr, system.targets - vals)
            if ls_res > ls_factor * tol_w:
                raise InfeasibleError(
                    f"affine constraints inconsistent: least-squares residual "
                    f"{ls_res:.3e} > {ls_factor * tol_w:.1e} "
                    f"(LSQR, {info['inner_iterations']} iterations) at outer iteration {it}",
                    report=report(it, "least-squares", least_squares_residual=ls_res,
                                  inner_iterations=info["inner_iterations"]),
                )
        z = project_psd(y + p)
        p = y + p - z
        x = z
    raise IterationBudgetError(
        f"no feasible point within {opts.max_iter} iterations "
        f"(best residual {best_res:.3e}); infeasible or slow",
        report=report(opts.max_iter, "budget"),
    )


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    valid = u - css / ks > 0
    k = ks[valid][-1]
    return np.clip(v - css[k - 1] / k, 0.0, None)


def _project_spectrahedron(x: np.ndarray) -> np.ndarray:
    """Nearest trace-one PSD matrix: eigenvalues projected onto the simplex.

    x must be Hermitian (``eigh`` reads one triangle); the result is
    Hermitian up to rounding, and the caller reads its upper triangle.
    """
    vals, vecs = np.linalg.eigh(x)
    return (vecs * _project_simplex(vals)) @ vecs.conj().T


def _least_squares_operator(system: _WhitenedSystem):
    """The least-squares constraints on real Hermitian coordinates v.

    Returns (forward, backward, rows): forward(v) = G(x) and backward(r)
    = G^dag(r), as products with the real matrix of G while
    L^2 <= REAL_MATRIX_MAX and as matrix-free applies above, and the
    coordinate rows of the extra constraints, rows @ v = (Tr(x N_k))_k.
    """
    dim, gen = system.dim, system.generator
    rows = np.array([_real_vector(nmat) for nmat in system.extras]).reshape(-1, dim * dim)
    if dim * dim <= REAL_MATRIX_MAX:
        a = _real_coordinates(gen.superoperator().__getitem__, dim)
        return a.__matmul__, a.T.__matmul__, rows
    return (lambda v: _real_vector(gen.apply(_hermitian_matrix(v, dim))),
            lambda r: _real_vector(gen.adjoint(_hermitian_matrix(r, dim))), rows)


def _descent_constant(forward, backward, rows, dim: int, steps: int = 30) -> float:
    """LIPSCHITZ_MARGIN times a Lanczos estimate of lambda_max(M), M = A^T A + N^T N.

    f(v) = ||A v||^2 + ||N v - t||^2 has the Hessian 2 M, so its gradient
    is Lipschitz with L_f = 2 lambda_max(M), and FISTA's step 1 / (2 lam) is
    safe for lam >= lambda_max(M). The largest Ritz value of ``steps``
    Lanczos steps is a lower bound on lambda_max(M) (Golub & Van Loan,
    Matrix Computations, sec. 10.1), hence the margin.
    """
    rng = np.random.default_rng(0)
    z = rng.normal(size=(dim, dim))
    z = _real_vector(hermitize(z + 1j * rng.normal(size=z.shape)))
    z /= np.linalg.norm(z)
    z_prev, beta = np.zeros_like(z), 0.0
    alphas, betas = [], []
    for _ in range(min(steps, z.size)):
        u = backward(forward(z)) + rows.T @ (rows @ z) - beta * z_prev
        alphas.append(float(z @ u))
        u -= alphas[-1] * z
        beta = float(np.linalg.norm(u))
        betas.append(beta)
        if beta == 0.0:
            break
        z_prev, z = z, u / beta
    off = np.diag(betas[:-1], 1)
    ritz = float(np.linalg.eigvalsh(np.diag(alphas) + off + off.T)[-1])
    return LIPSCHITZ_MARGIN * max(ritz, 1e-30)


def solve_least_squares(problem: FeasibilityProblem) -> BetaMatrix:
    """Accelerated projected gradient on ||G(x)||^2 (+ penalized extra
    constraints) over the spectrahedron; tolerant of noisy, inconsistent
    constraints.

    FISTA (Beck & Teboulle, SIAM J. Imaging Sci. 2, 183, 2009) with
    gradient-based adaptive restart (O'Donoghue & Candes, Found. Comput.
    Math. 15, 715, 2015), in real Hermitian coordinates. The gradient is
    taken at the extrapolated point y = v + b (v - v_prev). The residual
    is affine in v, so r_y = r + b (r - r_prev) needs no product, and an
    iterate costs one forward and one backward product. The objective,
    the stall test and the returned beta belong to the projected iterate
    v; y can leave the spectrahedron. The solve stops when the gradient
    map ||y - v_new|| / step is <= LS_GRAD_TOL (``grad-map``), after 200
    iterates without a 1e-12 relative drop of the best objective
    (``stall``), or after LS_MAX_ITER iterates (``budget``, not converged).
    """
    opts = problem.options
    system, w = whiten(problem)
    dim = system.dim
    forward, backward, rows = _least_squares_operator(system)

    # Every step d = v_new - y obeys the descent bound d^T M d <= lam ||d||^2
    # of a step 1 / (2 lam) (see _descent_constant): A d = r_new - r_y, so it
    # is checked exactly, and a step that breaks it raises lam to
    # LIPSCHITZ_MARGIN times its Rayleigh quotient d^T M d / ||d||^2 and is
    # taken again (Beck & Teboulle's backtracking).
    lam = _descent_constant(forward, backward, rows, dim)

    def residual(v):
        r, e = forward(v), rows @ v - system.targets
        return r, e, float(r @ r + e @ e)

    v = _real_vector(_project_spectrahedron(_initial_point(dim, opts)))
    r, e, obj = residual(v)
    v_prev, r_prev, e_prev = v, r, e
    t, best_obj, stall, stop, it = 1.0, obj, 0, "budget", 0
    while stop == "budget" and it < LS_MAX_ITER:
        it += 1
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        b = (t - 1.0) / t_next
        y, r_y, e_y = v + b * (v - v_prev), r + b * (r - r_prev), e + b * (e - e_prev)
        grad = 2.0 * (backward(r_y) + rows.T @ e_y)
        while True:
            v_new = _real_vector(_project_spectrahedron(
                _hermitian_matrix(y - grad / (2.0 * lam), dim)))
            r_new, e_new, obj_new = residual(v_new)
            d, dr, de = v_new - y, r_new - r_y, e_new - e_y
            d_sq = float(d @ d)
            grad_map = 2.0 * lam * np.sqrt(d_sq)
            curv = float(dr @ dr + de @ de)
            if curv <= lam * d_sq or grad_map <= LS_GRAD_TOL:
                break
            lam = LIPSCHITZ_MARGIN * curv / d_sq
        # Restart the momentum when it points against the gradient-map step.
        t = 1.0 if float(d @ (v_new - v)) < 0.0 else t_next
        v_prev, r_prev, e_prev = v, r, e
        v, r, e, obj = v_new, r_new, e_new, obj_new
        if obj < best_obj * (1.0 - 1e-12):
            best_obj, stall = obj, 0
        else:
            stall += 1
        if grad_map <= LS_GRAD_TOL:
            stop = "grad-map"
        elif stall >= 200:
            stop = "stall"
    return _finalize(problem, system, w, _hermitian_matrix(v, dim), it, "least-squares",
                     stop != "budget", objective=obj, stop_reason=stop)


def solve(problem: FeasibilityProblem) -> BetaMatrix:
    """Mode dispatch: exact assemblies solve for strict feasibility, noisy
    assemblies fall back to the least-squares mode."""
    mode = problem.options.mode
    if mode == "auto":
        mode = "least-squares" if problem.overlaps.shots is not None else "feasibility"
    if mode == "least-squares":
        return solve_least_squares(problem)
    return solve_feasibility(problem)
