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
L^2 x L^2 system is ever materialized. Its least-squares stop certifies
an empty affine set (InfeasibleError); an empty intersection of the
affine set with the PSD cone still shows as a stalled residual.

A secondary least-squares mode minimizes the squared generator residual
over the spectrahedron {PSD, unit trace} by accelerated projected
gradient (FISTA with adaptive restart; its step bound is stated at
``_descent_constant``); it is the fallback when shot noise makes strict
feasibility impossible and reports the honestly achieved residual and
why it stopped. It works in real Hermitian coordinates
(``lindblad._real_coordinates``): G maps Hermitian matrices to Hermitian
matrices, so on the L^2 real coordinates of x it is a real L^2 x L^2
matrix A, and the extra constraints are real rows N. One residual
r = A v per iterate gives both the objective ||r||^2 + pen ||N v - t||^2
and, extrapolated, the next gradient; the Hermitian matrix is formed
only for the spectrahedron projection. A is built once per solve while
L^2 <= REAL_MATRIX_MAX (L <= 24); above that the same loop applies G and
G^dag matrix-free, once each per iterate.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DegenerateAnsatzError,
    InfeasibleError,
    IterationBudgetError,
)
from .lindblad import (
    Lindbladian,
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


@dataclass(frozen=True)
class SolverOptions:
    feas_tol: float = 1e-9
    psd_tol: float = 1e-9
    max_iter: int = 10000
    whiten_cutoff: float = 1e-10        # relative Gram eigenvalue cutoff
    cg_tol_factor: float = 0.02         # LSQR tolerance as fraction of outer
    cg_max_iter: int = 3000             # LSQR iteration budget per projection
    stall_window: int = 500
    stall_improvement: float = 1e-3     # required relative progress per window
    initial: str = "identity"           # "identity" or "random"
    rng_seed: int = 0
    mode: str = "auto"                  # "feasibility", "least-squares", "auto"
    ls_max_iter: int = 60000
    ls_grad_tol: float = 1e-10
    ls_penalty: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(value, _OPTION_TYPES[kind]):
                raise ValueError(f"{f.name} must be {kind.__name__}, got {value!r}")
        for name in ("feas_tol", "psd_tol", "whiten_cutoff", "cg_tol_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("ls_grad_tol", "ls_penalty"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.initial not in ("identity", "random"):
            raise ValueError(f"unknown initial point kind {self.initial!r}")
        if self.mode not in ("feasibility", "least-squares", "auto"):
            raise ValueError(f"unknown solver mode {self.mode!r}")


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

    def as_dict(self) -> dict:
        return {
            "subspace_residual": self.subspace_residual,
            "psd_violation": self.psd_violation,
            "trace_error": self.trace_error,
            "iterations": self.iterations,
            "constraint_errors": list(self.constraint_errors),
            "mode": self.mode,
            "converged": self.converged,
            "whitened_dim": self.whitened_dim,
            "stop_reason": self.stop_reason,
        }


class _WhitenedSystem:
    """Constraint data after the Gram metric has been mapped to identity."""

    def __init__(self, generator: Lindbladian, extras, targets):
        self.generator = generator
        self.extras = extras
        self.targets = np.asarray(targets, dtype=float)
        self.dim = generator.dim
        self.eye = np.eye(self.dim, dtype=complex)

    def apply(self, x: np.ndarray):
        """A(x) = (G(x), Tr x, (Tr(x N_k))_k)."""
        vals = np.array([np.vdot(nmat, x).real for nmat in self.extras])
        return self.generator.apply(x), np.trace(x).real, vals

    def adjoint(self, y: np.ndarray, t: float, vals: np.ndarray) -> np.ndarray:
        out = self.generator.adjoint(y) + t * self.eye
        for v, nmat in zip(vals, self.extras):
            out = out + v * nmat
        return out

    def norm(self, y: np.ndarray, t: float, vals: np.ndarray) -> float:
        """Norm of a constraint-space element, under Re Tr(y^dag y') + t t' + vals . vals'."""
        return float(np.sqrt(np.vdot(y, y).real + t * t + vals @ vals))


def whiten(problem: FeasibilityProblem):
    """Map all constraint matrices into an orthonormalized ansatz basis.

    Returns (system, transform) where transform W satisfies W^dag E W = I
    on the retained subspace and beta = W x W^dag recovers a coefficient
    matrix in the original basis.
    """
    opts = problem.options
    gram = hermitize(problem.overlaps.E)
    vals, vecs = np.linalg.eigh(gram)
    if vals[-1] <= 0:
        raise DegenerateAnsatzError("ansatz Gram matrix is numerically zero")
    keep = vals > opts.whiten_cutoff * vals[-1]
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
    u = tuple(part / beta for part in rhs)
    v = system.adjoint(*u)
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        return dx, beta, 0, "least-squares"
    v /= alpha
    w = v.copy()
    phibar, rhobar, anorm_sq = beta, alpha, 0.0
    for it in range(1, max_iter + 1):
        u = tuple(av - alpha * part for av, part in zip(system.apply(v), u))
        beta = system.norm(*u)
        anorm_sq += alpha * alpha + beta * beta
        if beta > 0.0:
            u = tuple(part / beta for part in u)
            v = system.adjoint(*u) - beta * v
            alpha = float(np.linalg.norm(v))
            if alpha > 0.0:
                v /= alpha
        rho = float(np.hypot(rhobar, beta))
        cs, sn = rhobar / rho, beta / rho
        theta, rhobar = sn * alpha, -cs * alpha
        phi, phibar = cs * phibar, sn * phibar
        dx += (phi / rho) * w
        w = v - (theta / rho) * w
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
    """
    g, tr, vals = system.apply(x)
    rhs = (-g, 1.0 - tr, system.targets - vals)
    dx, res, iterations, stop = _lsqr(system, rhs, tol, max_iter)
    return hermitize(x + dx), {"inner_residual": res, "inner_iterations": iterations,
                               "inner_converged": stop == "converged", "stop_reason": stop}


def residuals(problem: FeasibilityProblem, beta: np.ndarray) -> dict:
    """Original-basis diagnostics for any candidate beta (solver-independent)."""
    beta = np.asarray(beta, dtype=complex)
    ovl = problem.overlaps
    gal = ovl.generator().apply(beta)
    eigs = np.linalg.eigvalsh(hermitize(beta))
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
    x = g @ g.conj().T
    return x / np.trace(x).real


def _finalize(problem, system, w, x, iterations, mode, converged,
              objective=None, stop_reason="converged") -> BetaMatrix:
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

    def report(it, reason, **extra):
        return {"best_residual": best_res, "iterations": it, "tolerance": opts.feas_tol,
                "stop_reason": reason, **extra}

    for it in range(opts.max_iter):
        g, tr, vals = system.apply(x)
        res = max(float(np.linalg.norm(g)), abs(1.0 - tr),
                  float(np.max(np.abs(system.targets - vals), initial=0.0)))
        best_res = min(best_res, res)
        if res <= tol_w:
            candidate = _finalize(problem, system, w, x, it, "feasibility", True)
            ok = (candidate.subspace_residual <= opts.feas_tol
                  and candidate.trace_error <= opts.feas_tol
                  and all(c <= opts.feas_tol for c in candidate.constraint_errors))
            if ok:
                return candidate
            tol_w /= 10.0  # whitened tolerance too loose for the original basis
        if it > 0 and it % opts.stall_window == 0:
            if best_res > window_best * (1.0 - opts.stall_improvement):
                raise InfeasibleError(
                    f"feasibility residual stagnated at {best_res:.3e} "
                    f"(tol {opts.feas_tol:.1e}) after {it} iterations",
                    report=report(it, "stall"),
                )
            window_best = best_res
        y, info = project_affine(x, system, tol=max(opts.cg_tol_factor * tol_w, 1e-15),
                                 max_iter=opts.cg_max_iter)
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
        a = _real_coordinates(gen.superoperator(), dim)
        return a.__matmul__, a.T.__matmul__, rows
    return (lambda v: _real_vector(gen.apply(_hermitian_matrix(v, dim))),
            lambda r: _real_vector(gen.adjoint(_hermitian_matrix(r, dim))), rows)


def _descent_constant(forward, backward, rows, pen: float, dim: int, steps: int = 30) -> float:
    """LIPSCHITZ_MARGIN times a Lanczos estimate of lambda_max(M), M = A^T A + pen N^T N.

    f(v) = ||A v||^2 + pen ||N v - t||^2 has the Hessian 2 M, so its gradient
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
        u = backward(forward(z)) + pen * (rows.T @ (rows @ z)) - beta * z_prev
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
    map ||y - v_new|| / step is <= ls_grad_tol (``grad-map``), after 200
    iterates without a 1e-12 relative drop of the best objective
    (``stall``), or after ls_max_iter iterates (``budget``, not converged).
    """
    opts = problem.options
    system, w = whiten(problem)
    dim, pen = system.dim, opts.ls_penalty
    forward, backward, rows = _least_squares_operator(system)

    # Every step d = v_new - y obeys the descent bound d^T M d <= lam ||d||^2
    # of a step 1 / (2 lam) (see _descent_constant): A d = r_new - r_y, so it
    # is checked exactly, and a step that breaks it raises lam to
    # LIPSCHITZ_MARGIN times its Rayleigh quotient d^T M d / ||d||^2 and is
    # taken again (Beck & Teboulle's backtracking).
    lam = _descent_constant(forward, backward, rows, pen, dim)

    def residual(v):
        r, e = forward(v), rows @ v - system.targets
        return r, e, float(r @ r + pen * (e @ e))

    v = _real_vector(_project_spectrahedron(_initial_point(dim, opts)))
    r, e, obj = residual(v)
    v_prev, r_prev, e_prev = v, r, e
    t, best_obj, stall, stop, it = 1.0, obj, 0, "budget", 0
    while stop == "budget" and it < opts.ls_max_iter:
        it += 1
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        b = (t - 1.0) / t_next
        y, r_y, e_y = v + b * (v - v_prev), r + b * (r - r_prev), e + b * (e - e_prev)
        grad = 2.0 * (backward(r_y) + pen * (rows.T @ e_y))
        while True:
            v_new = _real_vector(_project_spectrahedron(
                _hermitian_matrix(y - grad / (2.0 * lam), dim)))
            r_new, e_new, obj_new = residual(v_new)
            d, dr, de = v_new - y, r_new - r_y, e_new - e_y
            d_sq = float(d @ d)
            grad_map = 2.0 * lam * np.sqrt(d_sq)
            curv = float(dr @ dr + pen * (de @ de))
            if curv <= lam * d_sq or grad_map <= opts.ls_grad_tol:
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
        if grad_map <= opts.ls_grad_tol:
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
