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
affine projection is least-norm and matrix-free: a conjugate-gradient
solve on the normal equations applies the constraint operator and its
adjoint as short sequences of L x L products, so no L^2 x L^2 system is
ever materialized.

A secondary least-squares mode minimizes the squared generator residual
over the spectrahedron {PSD, unit trace} by projected gradient descent;
it is the fallback when shot noise makes strict feasibility impossible
and reports the honestly achieved residual. It works in real Hermitian
coordinates (``lindblad._real_coordinates``): G maps Hermitian matrices
to Hermitian matrices, so on the L^2 real coordinates of x it is a real
L^2 x L^2 matrix A, and the extra constraints are real rows N. One
residual r = A v per iterate gives both the objective
||r||^2 + pen ||N v - t||^2 and the next gradient
2 (A^T r + pen N^T (N v - t)); the Hermitian matrix is formed only for
the spectrahedron projection. A is built once per solve while
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
# and its build raises peak RSS by about 50 MB.
REAL_MATRIX_MAX = 576


@dataclass(frozen=True)
class SolverOptions:
    feas_tol: float = 1e-9
    psd_tol: float = 1e-9
    max_iter: int = 10000
    whiten_cutoff: float = 1e-10        # relative Gram eigenvalue cutoff
    cg_tol_factor: float = 0.02         # inner tolerance as fraction of outer
    cg_max_iter: int = 3000
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

    # Packed real-vector view of the constraint space, for the CG solve.
    def pack(self, y: np.ndarray, t: float, vals: np.ndarray) -> np.ndarray:
        return np.concatenate([y.real.ravel(), y.imag.ravel(), [t], vals])

    def unpack(self, packed: np.ndarray):
        k = self.dim * self.dim
        y = (packed[:k] + 1j * packed[k:2 * k]).reshape(self.dim, self.dim)
        return y, packed[2 * k], packed[2 * k + 1:]

    def normal_matvec(self, packed: np.ndarray) -> np.ndarray:
        y, t, vals = self.unpack(packed)
        return self.pack(*self.apply(self.adjoint(y, t, vals)))


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


def _cg_normal(system: _WhitenedSystem, rhs: np.ndarray, mu0: np.ndarray | None,
               tol: float, max_iter: int):
    """CG on the normal equations AA* mu = rhs; returns the best iterate.

    Handles inconsistent systems (empty affine set) by stopping when the
    residual hits a floor; the caller sees converged=False.
    """
    mu = np.zeros_like(rhs) if mu0 is None else mu0.copy()
    r = rhs - system.normal_matvec(mu) if mu.any() else rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    best_mu, best_res = mu.copy(), np.sqrt(rs)
    if best_res <= tol:
        return best_mu, best_res, True
    floor_counter = 0
    for _ in range(max_iter):
        ap = system.normal_matvec(p)
        denom = float(p @ ap)
        if denom <= 0:
            break  # numerically singular direction
        alpha = rs / denom
        mu = mu + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        res = np.sqrt(rs_new)
        if res < best_res * (1.0 - 1e-4):
            best_mu, best_res = mu.copy(), res
            floor_counter = 0
        else:
            floor_counter += 1
            if floor_counter >= 150:
                break  # residual floor: affine set likely empty
        if res <= tol:
            best_mu, best_res = mu.copy(), res
            return best_mu, best_res, True
        p = r + (rs_new / rs) * p
        rs = rs_new
    return best_mu, best_res, best_res <= tol


def project_affine(x: np.ndarray, system: _WhitenedSystem,
                   tol: float, max_iter: int, mu_warm: np.ndarray | None = None):
    """Least-norm correction of x onto the affine constraint set.

    Returns (projected, mu, info); info carries the inner residual and a
    convergence flag. With an empty affine set the result is the best
    least-squares correction found.
    """
    g, tr, vals = system.apply(x)
    rhs = system.pack(-g, 1.0 - tr, system.targets - vals)
    mu, res, ok = _cg_normal(system, rhs, mu_warm, tol, max_iter)
    correction = system.adjoint(*system.unpack(mu))
    return hermitize(x + correction), mu, {"inner_residual": res, "inner_converged": ok}


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
              objective=None) -> BetaMatrix:
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
    )


def solve_feasibility(problem: FeasibilityProblem) -> BetaMatrix:
    """Dykstra alternating projections between the affine set and the PSD cone.

    Raises InfeasibleError when the residual stagnates above tolerance
    and IterationBudgetError when max_iter runs out while the residual
    is still improving; both carry the best diagnostics found.
    """
    opts = problem.options
    system, w = whiten(problem)
    gram_scale = float(np.linalg.eigvalsh(hermitize(problem.overlaps.E))[-1])
    tol_w = opts.feas_tol / max(1.0, gram_scale)
    x = _initial_point(system.dim, opts)
    p = np.zeros((system.dim, system.dim), dtype=complex)
    mu_warm = None
    best_res = np.inf
    window_best = np.inf
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
                report = {"best_residual": best_res, "iterations": it,
                          "tolerance": opts.feas_tol}
                raise InfeasibleError(
                    f"feasibility residual stagnated at {best_res:.3e} "
                    f"(tol {opts.feas_tol:.1e}) after {it} iterations",
                    report=report,
                )
            window_best = best_res
        y, mu_warm, _ = project_affine(
            x, system,
            tol=max(opts.cg_tol_factor * tol_w, 1e-15),
            max_iter=opts.cg_max_iter,
            mu_warm=mu_warm,
        )
        z = project_psd(y + p)
        p = y + p - z
        x = z
    report = {"best_residual": best_res, "iterations": opts.max_iter,
              "tolerance": opts.feas_tol}
    raise IterationBudgetError(
        f"no feasible point within {opts.max_iter} iterations "
        f"(best residual {best_res:.3e}); infeasible or slow",
        report=report,
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
    """Nearest trace-one PSD matrix: eigenvalues projected onto the simplex."""
    vals, vecs = np.linalg.eigh(hermitize(x))
    return hermitize((vecs * _project_simplex(vals)) @ vecs.conj().T)


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


def solve_least_squares(problem: FeasibilityProblem) -> BetaMatrix:
    """Projected gradient on ||G(x)||^2 (+ penalized extra constraints)
    over the spectrahedron; tolerant of noisy, inconsistent constraints.

    The iterate is held in real Hermitian coordinates v. One residual
    r = G(v) per iterate gives both its objective and the next gradient,
    and the Hermitian matrix is formed only for the spectrahedron
    projection.
    """
    opts = problem.options
    system, w = whiten(problem)
    dim, pen = system.dim, opts.ls_penalty
    forward, backward, rows = _least_squares_operator(system)

    # Lipschitz constant of the gradient via power iteration on the quadratic.
    rng = np.random.default_rng(0)
    z = rng.normal(size=(dim, dim))
    z = _real_vector(hermitize(z + 1j * rng.normal(size=z.shape)))
    z /= np.linalg.norm(z)
    lam = 1.0
    for _ in range(30):
        z_new = backward(forward(z)) + pen * (rows.T @ (rows @ z))
        lam = max(float(np.linalg.norm(z_new)), 1e-30)
        z = z_new / lam
    step = 1.0 / (2.0 * lam)

    def residual(v):
        r, e = forward(v), rows @ v - system.targets
        return r, e, float(r @ r + pen * (e @ e))

    v = _real_vector(_project_spectrahedron(_initial_point(dim, opts)))
    r, e, obj = residual(v)
    best_obj = obj
    stall = 0
    it = 0
    for it in range(opts.ls_max_iter):
        grad = 2.0 * (backward(r) + pen * (rows.T @ e))
        v_new = _real_vector(_project_spectrahedron(_hermitian_matrix(v - step * grad, dim)))
        grad_map = float(np.linalg.norm(v - v_new)) / step
        v = v_new
        r, e, obj = residual(v)
        if obj < best_obj * (1.0 - 1e-12):
            best_obj = obj
            stall = 0
        else:
            stall += 1
        if grad_map <= opts.ls_grad_tol or stall >= 200:
            break
    return _finalize(problem, system, w, _hermitian_matrix(v, dim), it + 1,
                     "least-squares", True, objective=obj)


def solve(problem: FeasibilityProblem) -> BetaMatrix:
    """Mode dispatch: exact assemblies solve for strict feasibility, noisy
    assemblies fall back to the least-squares mode."""
    mode = problem.options.mode
    if mode == "auto":
        mode = "least-squares" if problem.overlaps.shots is not None else "feasibility"
    if mode == "least-squares":
        return solve_least_squares(problem)
    return solve_feasibility(problem)
