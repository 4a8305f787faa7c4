"""Brute-force ground truth: dense Liouvillian, exact steady states, fidelity.

Every path uses the computational-basis generator of ``lindblad``,

    L[rho] = -i (K rho - rho K^dag) + sum_n J_n rho J_n^dag,
    K = H - (i/2) sum_n gamma_n A_n^dag A_n,    J_n = sqrt(gamma_n) A_n,

as the model's compiled table of bit-flip terms (``lindblad.PauliLindbladian``).
The dense oracle takes the null space of the column-stacking superoperator

    L = -i (I kron K - K^* kron I) + sum_n J_n^* kron J_n,

scattered from the table a few rows at a time, in real Hermitian
coordinates: L maps Hermitian matrices to Hermitian matrices, so in the
orthonormal Hermitian basis V = {E_jj, (E_jk + E_kj)/sqrt2,
i(E_jk - E_kj)/sqrt2} the matrix V^dag L V is real, with the singular
values of L, and its real null vectors map back to Hermitian matrices
that are already orthonormal. Its null vectors come from the Gram matrix
C = A^T A of that real matrix A without diagonalizing it. A Cholesky factor
of C bordered by the trace functional certifies and solves a unique steady
state; otherwise, or with a strong symmetry of several sectors, block inverse
iteration on a Cholesky factor of C finds the small cluster of
eigenvectors of C below ``GRAM_SPLIT`` (the near-null cluster), a second
Cholesky factorization certifies that no eigenvalue below the split lies
outside it, and an SVD of A on the cluster only gives the cluster's
singular values and the null vectors (``GRAM_SPLIT`` gives the bounds).
For TFIM n=5 this takes about 0.11 s against 0.15 s for the block
iteration and 0.68 s for the full real SVD; at n=6, 3.8 s and a 0.56 GB
peak against 5.3-6.0 s (one BLAS thread). The rest of the
spectrum, one ``eigvalsh`` of C, is computed when
``NessBasis.singular_values`` is first read. ``steady_states`` memoizes
the result per (model, dense_limit), so repeated oracle calls on one
model, such as the ``oracle-top`` seed and the oracle report of one sweep
point, pay for one decomposition.

The iterative path never materializes that 4^n x 4^n matrix. On Hermitian
x it applies L(x) = H + H^dag with H = -i K x + 1/2 sum_n J_n x J_n^dag,
and L^dag the same way, from the generator's half tables: one weighted
row flip of x per flip mask of K, and one weighted flipped view per mask
pair of each jump on the sub-cube where its weight is nonzero. It runs
the solver's LSQR on A(x) = (L(x), Tr x) from I/d and returns the
trace-one steady state nearest I/d.
"""
from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateSteadySpaceError, DenseLimitError
from .lindblad import PauliLindbladian, _hermitian_matrix, _real_coordinates, hermitize
from .models import OpenSystemModel
from .sdp import _WhitenedSystem, _lsqr
from .states import AnsatzSet, apply_to_columns

DEFAULT_DENSE_LIMIT = 6
NULL_SPACE_RTOL = 1e-10
INVARIANCE_TOL = 1e-10
SPARSE_LIMIT = 10
SPARSE_MAX_ITER = 20000
GRAM_SPLIT = 1e-6
"""Eigenvalues lambda <= GRAM_SPLIT * lambda_max of C = A^T A (singular
values sigma <= 1e-3 sigma_max of A) form the near-null cluster V that
``_near_null_cluster`` finds; ``_hermitian_null_space`` takes its
singular values and the null vectors by an SVD of A V. With
eps = 2.2e-16 and N = 4^n:

- lambda_max is the top Ritz value after six block-power steps from four
  vectors: a lower bound, 0.07-9% below lambda_max on the package's
  models, whose top eigenvalues come in close groups. It sets scales
  only: the split, the shift, the residual stop and the cutoff
  NULL_SPACE_RTOL * sqrt(lambda_max) move with it by that factor.
- The iteration factors C + delta I with delta = N eps lambda_max
  (2.3e-13 lambda_max at n=5). A computed Gram matrix is PSD only up to
  about 1e-16 lambda_max (measured), so the factorization does not break
  down. The shift sets only the speed: per step a null direction gains a
  factor lambda / delta on an eigenvalue lambda outside the block.
- It stops when every Ritz pair (theta, v) of the block with
  theta <= GRAM_SPLIT * lambda_max has ||C v - theta v|| <= 1e-14 lambda_max
  (the rounding floor is 0.3-3.5e-16 lambda_max at n=5). The part e of a
  near-null Ritz vector outside the cluster then has
  ||A e|| <= 1e-14 lambda_max / sqrt(GRAM_SPLIT lambda_max) = 1e-11 sigma_max,
  a tenth of the null cutoff; the null values measured are below
  2e-14 sigma_max.
- The certificate: C + lambda_max V V^T - GRAM_SPLIT lambda_max I has a
  Cholesky factor only if x^T C x > GRAM_SPLIT lambda_max for every unit
  x orthogonal to V, so (Courant-Fischer) no eigenvalue of C below the
  split lies outside span V, up to the factorization's rounding of about
  N eps lambda_max. When it fails the block grows and iterates on.
- The trace border comes first: with t the unit coordinates of I/sqrt d, a
  factor of M = C + lambda_max t t^T - GRAM_SPLIT lambda_max I leaves at most
  one eigenvalue of C below the split, its eigenvector v ~ (C + lambda_max t t^T)^-1 t.
  Refinement by M contracts by GRAM_SPLIT lambda_max / lambda_min(M) (1e-3 per step
  at TFIM n=5) until ||A v|| / ||v|| stops halving; v must meet the residual stop.
- Above the split, sigma = sqrt(lambda) from ``eigvalsh`` (on demand) has
  absolute error at most eps lambda_max / (2 sqrt(GRAM_SPLIT lambda_max))
  = 1.1e-13 sigma_max; the cluster's values from the SVD agree with a
  full SVD to 2e-14 sigma_max (71 models, n <= 5).
"""
_POWER_BLOCK, _POWER_STEPS = 4, 6  # the lambda_max estimate
_FIRST_BLOCK, _GUARDS = 8, 2       # inverse iteration: first width, spare Ritz vectors
_RITZ_TOL = 1e-14                  # Ritz residual stop, relative to lambda_max
_SLOW = 0.5                        # a step that cuts the residual by less is slow
_SOLVE_BLOCK = 128                 # rows per step of the triangular solves
_MEMO_MODELS = 32


def _check_dense_limit(model: OpenSystemModel, dense_limit: int) -> None:
    if model.n_qubits > dense_limit:
        raise DenseLimitError(
            f"dense Liouvillian for n={model.n_qubits} exceeds limit {dense_limit}")


def build_liouvillian(model: OpenSystemModel,
                      dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Dense superoperator of the model in column-stacking convention."""
    _check_dense_limit(model, dense_limit)
    return PauliLindbladian(model).superoperator()


def _real_superoperator(model: OpenSystemModel) -> np.ndarray:
    return _real_coordinates(PauliLindbladian(model).superoperator, 2 ** model.n_qubits)


@dataclass(frozen=True)
class NessBasis:
    """Hermitian basis of the Liouvillian null space.

    The elements are orthonormal and taken along the real-coordinate
    axes (``steady_states``), physical elements first.
    ``physical[k]`` is True when elements[k] admits a trace-one PSD
    representative on its own (it is PSD or NSD with nonzero trace).
    """

    elements: tuple[np.ndarray, ...]
    physical: tuple[bool, ...]
    _spectrum: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def singular_values(self) -> np.ndarray:
        """All 4^n singular values of the Liouvillian, descending and
        read-only; computed on first read (one ``eigvalsh`` of A^T A) and
        kept with the basis."""
        svals = self._spectrum()
        svals.setflags(write=False)
        return svals

    def physical_representative(self, k: int) -> np.ndarray:
        if not self.physical[k]:
            raise ValueError(f"basis element {k} has no trace-one PSD representative")
        elem = self.elements[k]
        return elem / np.trace(elem).real


def _inverse_solver(gram: np.ndarray, shift: float, border: float = 0.0, dim: int = 0):
    """x -> (C + border t t^T + shift I)^-1 x through the Cholesky factor L of that matrix.

    numpy has no triangular solve, so the forward and back substitutions
    run over row blocks of L, each a product with the inverse of one
    diagonal block; t = I/sqrt(dim). C is left bit for bit as it was, also on LinAlgError.
    """
    n = len(gram)
    diag, head = gram.diagonal().copy(), gram[:dim, :dim].copy()
    gram[:dim, :dim] += border / max(dim, 1)
    gram.flat[::n + 1] += shift
    try:
        low = np.linalg.cholesky(gram)
    finally:
        gram[:dim, :dim] = head
        gram.flat[::n + 1] = diag
    cuts = list(range(0, n, _SOLVE_BLOCK)) + [n]
    spans = list(zip(cuts[:-1], cuts[1:]))
    inverses = [np.linalg.inv(low[a:b, a:b]) for a, b in spans]

    def solve(x: np.ndarray) -> np.ndarray:
        y = np.empty_like(x)
        for (a, b), inv in zip(spans, inverses):
            y[a:b] = inv @ (x[a:b] - low[a:b, :a] @ y[:a])
        for (a, b), inv in zip(spans[::-1], inverses[::-1]):
            y[a:b] = inv.T @ (y[a:b] - low[b:, a:b].T @ y[b:])
        return y

    return solve


def _unique_null_vector(real: np.ndarray, gram: np.ndarray, lam_max: float, tau: float, dim: int):
    """The near-null cluster as one column if the trace border certifies
    it, else None; residuals go through A, not the rounded C (``GRAM_SPLIT``)."""
    try:
        solve = _inverse_solver(gram, -tau, lam_max, dim)
    except np.linalg.LinAlgError:  # two eigenvalues below tau, or a traceless null vector
        return None
    t = np.concatenate([np.full(dim, dim ** -0.5), np.zeros(len(gram) - dim)])
    v, last = solve(t), np.inf
    while (now := np.linalg.norm(av := real @ v) / np.linalg.norm(v)) < _SLOW * last:
        best, last = v, now  # refine while a step halves ||A v|| / ||v||
        v = v + solve(t - real.T @ av - (lam_max * (t @ v)) * t)
    v = best / np.linalg.norm(best)
    theta = np.linalg.norm(av := real @ v) ** 2
    ritz = np.linalg.norm(real.T @ av - theta * v)
    return v[:, None] if theta <= tau and ritz <= _RITZ_TOL * lam_max else None


def _near_null_cluster(real: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    """Orthonormal V spanning the eigenvectors of C = A^T A with eigenvalues
    <= tau = GRAM_SPLIT * lambda_max, and that lambda_max (bounds at
    ``GRAM_SPLIT``).

    Block inverse iteration with the Cholesky factor of C + delta I from a
    fixed random block, each step ending in a Rayleigh-Ritz step through
    A Q. The block keeps ``_GUARDS`` Ritz vectors above tau, and doubles
    when the cluster fills it or when a step cuts the Ritz residual by less
    than ``_SLOW``. Once every Ritz pair below tau meets the residual stop,
    a Cholesky factorization of C + lambda_max V V^T - tau I certifies V;
    if it fails, the block grows and the iteration goes on. A block as wide
    as C needs no certificate. At most three N x N arrays are held at a
    time: A, C and one factor or the certificate's outer product.
    With dim > 0 the trace border of d = dim comes first (``_unique_null_vector``).
    """
    n = real.shape[1]
    rng = np.random.default_rng(0)  # a fixed start: the oracle repeats bit for bit
    gram = real.T @ real
    x = rng.standard_normal((n, min(_POWER_BLOCK, n)))
    for _ in range(_POWER_STEPS):
        x = np.linalg.qr(gram @ x)[0]
    lam_max = float(np.linalg.svd(real @ x, compute_uv=False)[0]) ** 2
    if lam_max == 0.0:
        return np.eye(n), 0.0
    tau = GRAM_SPLIT * lam_max
    if dim and (near := _unique_null_vector(real, gram, lam_max, tau, dim)) is not None:
        return near, lam_max
    shift = n * np.finfo(float).eps * lam_max
    solve = _inverse_solver(gram, shift)
    block = rng.standard_normal((n, min(_FIRST_BLOCK, n)))
    last = np.inf
    while True:
        q = np.linalg.qr(solve(block))[0]
        aq = real @ q
        theta, turn = np.linalg.eigh(aq.T @ aq)  # Rayleigh-Ritz through A Q
        block = q @ turn
        size = np.count_nonzero(theta <= tau)
        near = block[:, :size]
        width = block.shape[1]
        if width == n or size + _GUARDS <= width:
            worst = np.linalg.norm(gram @ near - near * theta[:size], axis=0).max(initial=0.0)
            if worst <= _RITZ_TOL * lam_max:
                if width == n:
                    return near, lam_max
                del solve  # frees the factor: C's buffer takes C + lam_max V V^T - tau I
                gram += (lam_max * near) @ near.T
                gram.flat[::n + 1] -= tau
                try:
                    np.linalg.cholesky(gram)
                except np.linalg.LinAlgError:  # an eigenvalue below tau lies outside V
                    np.matmul(real.T, real, out=gram)
                    solve = _inverse_solver(gram, shift)
                else:
                    return near, lam_max
            elif width == n or worst < _SLOW * last:
                last = worst
                continue
        block = np.hstack([block, rng.standard_normal((n, min(n, 2 * width) - width))])
        last = np.inf


def _hermitian_null_space(real: np.ndarray, dim: int,
                          unique: bool = True) -> tuple[np.ndarray, list[np.ndarray]]:
    """Singular values of a real-coordinate superoperator A on its near-null
    cluster (``GRAM_SPLIT``), descending, and its null vectors (relative
    cutoff ``NULL_SPACE_RTOL``) as orthonormal Hermitian matrices.
    ``unique=False`` skips the trace border, which finds one steady state only.

    The SVD of the thin matrix A V on the certified cluster V gives the
    cluster's singular values, to which the cutoff
    ``NULL_SPACE_RTOL * sigma_max`` applies, and its right singular
    vectors, rotated back by V, are the null vectors.
    ``_singular_values`` completes the spectrum.
    If LAPACK's gesdd fails to converge (it did once, on a finite
    1024 x 64 A V), the SVD of the transpose gives the same singular
    values, and its left vectors are the right vectors needed here.
    """
    near, lam_max = _near_null_cluster(real, dim if unique else 0)
    thin = real @ near
    try:
        _, cluster, wh = np.linalg.svd(thin, full_matrices=False)
    except np.linalg.LinAlgError:
        v, cluster, _ = np.linalg.svd(thin.T, full_matrices=False)
        wh = v.T
    null = wh[cluster <= NULL_SPACE_RTOL * max(np.sqrt(lam_max), 1e-300)] @ near.T
    return cluster, list(_hermitian_matrix(_on_axes(null), dim))


def _on_axes(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows with the same span, taken greedily along the
    coordinate axes that the span holds most of (column-pivoted
    Gram-Schmidt). The basis then depends on the span only, and a span that
    holds coordinate axes, such as the diagonal of a dephased qubit, has
    them as elements."""
    cols = rows.copy()
    turn = np.empty((len(rows), len(rows)))
    for k in range(len(rows)):
        j = np.argmax(np.einsum("ij,ij->j", cols, cols))
        turn[:, k] = cols[:, j] / np.linalg.norm(cols[:, j])
        cols -= np.outer(turn[:, k], turn[:, k] @ cols)
    return turn.T @ rows


def _singular_values(real: np.ndarray, cluster: np.ndarray) -> np.ndarray:
    """All singular values of A, descending: sqrt of the eigenvalues of
    A^T A above the cluster (no eigenvectors), then the cluster's own."""
    lam = np.linalg.eigvalsh(real.T @ real)
    return np.concatenate([np.sqrt(lam[len(cluster):][::-1]), cluster])


def _is_physical(elem: np.ndarray) -> bool:
    eigs = np.linalg.eigvalsh(elem)
    scale = max(abs(eigs[0]), abs(eigs[-1]), 1e-300)
    trace = np.trace(elem).real
    psd = eigs[0] >= -1e-10 * scale
    nsd = eigs[-1] <= 1e-10 * scale
    return bool((psd and trace > 1e-10) or (nsd and trace < -1e-10))


def steady_states(model: OpenSystemModel,
                  dense_limit: int = DEFAULT_DENSE_LIMIT) -> NessBasis:
    """Null space of the dense Liouvillian as a Hermitian matrix basis.

    The elements are the null space pivoted onto the real-coordinate
    axes (``_on_axes``), physical elements first. Each one lies in a
    single block of any symmetry generator that is diagonal in the
    computational basis, such as magnetization, whose blocks P_m rho P_m'
    own disjoint sets of axes; so per-sector steady states appear as
    individual (physical-flagged) elements. The result is computed once
    per (model, dense_limit) and its arrays are read-only. Raises
    ``DenseLimitError`` for n > dense_limit.
    """
    return _steady_states(model, dense_limit)


@functools.lru_cache(maxsize=_MEMO_MODELS)
def _steady_states(model: OpenSystemModel, dense_limit: int) -> NessBasis:
    _check_dense_limit(model, dense_limit)
    dim = 2 ** model.n_qubits
    unique = all(spec.n_sectors == 1 for spec in model.symmetries)  # Buca & Prosen 2012
    cluster, basis = _hermitian_null_space(_real_superoperator(model), dim, unique)
    flags = [_is_physical(b) for b in basis]
    order = sorted(range(len(basis)), key=lambda k: not flags[k])  # stable: physical first
    for arr in basis:
        arr.setflags(write=False)
    return NessBasis(
        elements=tuple(basis[k] for k in order),
        physical=tuple(flags[k] for k in order),
        _spectrum=lambda: _singular_values(_real_superoperator(model), cluster),
    )


def exact_ness(model: OpenSystemModel,
               dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Unique trace-one PSD steady state; raises if the null space is degenerate."""
    basis = steady_states(model, dense_limit=dense_limit)
    if basis.dimension != 1:
        raise DegenerateSteadySpaceError(
            f"steady space has dimension {basis.dimension}, expected 1"
        )
    return hermitize(basis.physical_representative(0))


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(hermitize(rho))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped to [0, 1]."""
    s = _sqrtm_psd(rho)
    inner = _sqrtm_psd(s @ sigma @ s)
    f = float(np.trace(inner).real) ** 2
    return min(max(f, 0.0), 1.0)


def true_residual(rho: np.ndarray, model: OpenSystemModel,
                  generator: PauliLindbladian | None = None) -> float:
    """Frobenius norm of L[(rho + rho^dag) / 2]; zero exactly for genuine steady states.

    rho is hermitized first (``hermitize``, the identity on an exactly
    Hermitian rho): the generator takes Hermitian matrices only, and a
    state formed as S beta S^dag (``states.density_from_beta``) is Hermitian
    only up to rounding. ``generator``, the model's ``PauliLindbladian``,
    lets several calls share one compiled table.
    """
    gen = PauliLindbladian(model) if generator is None else generator
    return gen.apply_norm(hermitize(rho))


def dominant_eigenstate(rho: np.ndarray, n_qubits: int) -> tuple[float, AnsatzSet]:
    """Largest-eigenvalue eigenvector of a density matrix, as a one-state set."""
    vals, vecs = np.linalg.eigh(hermitize(rho))
    vec = vecs[:, -1]
    k = np.argmax(np.abs(vec))
    vec = vec * (vec[k].conjugate() / abs(vec[k]))
    return float(vals[-1]), AnsatzSet(n_qubits, np.arange(len(vec)), vec[:, None], ((),))


# ---------------------------------------------------------------------------
# Sector-restricted exact steady states (ground truth for symmetry tests)
# ---------------------------------------------------------------------------

def magnetization_sector_indices(n: int, m: int) -> np.ndarray:
    """Basis indices with total magnetization sum_j <Z_j> equal to m, ascending."""
    ones, odd = divmod(n - m, 2)
    if odd or not 0 <= ones <= n:
        return np.empty(0, dtype=np.int64)
    below = [np.zeros(1, dtype=np.int64)] + [np.empty(0, dtype=np.int64)] * ones
    for b in range(n):  # below[j]: the integers below 2^(b+1) with j one bits, ascending
        below = below[:1] + [np.concatenate([below[j], below[j - 1] + (1 << b)])
                             for j in range(1, ones + 1)]
    return below[ones]


def sector_basis(n: int, m: int) -> np.ndarray:
    """(2^n, k) isometry onto the magnetization-m sector."""
    cols = magnetization_sector_indices(n, m)
    basis = np.zeros((2 ** n, len(cols)), dtype=complex)
    basis[cols, np.arange(len(cols))] = 1.0
    return basis


def restricted_steady_state(model: OpenSystemModel, isometry: np.ndarray) -> np.ndarray:
    """Exact steady state of the generator restricted to an invariant subspace.

    ``isometry`` is a (2^n, k) matrix with orthonormal columns spanning a
    subspace left invariant by K and every jump operator J_n. Returns the
    unique trace-one PSD steady state lifted back to the full space.
    """
    v = np.asarray(isometry, dtype=complex)
    gen = PauliLindbladian(model)
    for name, op in [("K", gen.k_op)] + [(f"J_{n}", j) for n, j in enumerate(gen.jump_ops)]:
        moved = apply_to_columns(op, v)
        leak = np.linalg.norm(moved - v @ (v.conj().T @ moved))
        norm = np.sqrt(sum(np.vdot(u, u).real for _, u in op.flip_weights()))  # ||op||_F
        if leak > INVARIANCE_TOL * max(1.0, norm):
            raise ValueError(f"subspace is not invariant under {name} (leak {leak:.2e})")
    k = v.shape[1]
    real = _real_coordinates(gen.compress(v).superoperator().__getitem__, k)
    _, null = _hermitian_null_space(real, k)
    if len(null) != 1:
        raise DegenerateSteadySpaceError(
            f"restricted steady space has dimension {len(null)}, expected 1"
        )
    rho_r = null[0] / np.trace(null[0]).real
    return v @ rho_r @ v.conj().T


# ---------------------------------------------------------------------------
# Iterative steady state for sizes beyond the dense limit
# ---------------------------------------------------------------------------

def sparse_steady_state(model: OpenSystemModel, tol: float = 1e-8) -> np.ndarray:
    """Steady state without materializing the superoperator (n <= 10).

    Runs the solver's LSQR (``sdp._lsqr``) on the model's constraint
    operator A(x) = (L(x), Tr x) from x0 = I/d. LSQR starts from dx = 0, so
    x0 + dx is the trace-one steady state nearest I/d in Frobenius norm:
    the unique one when the steady space has dimension 1, otherwise
    sum_k Tr(B_k) B_k / sum_k Tr(B_k)^2 over an orthonormal null basis
    {B_k}. LSQR's iterates are Hermitian, and L and L^dag are applied to
    them in the half form of ``PauliLindbladian`` as weighted bit-flip views,
    so a step costs O(terms * 4^n), each jump term only on its sub-cube, and
    no dense K or J_n is formed. Raises ConvergenceError, carrying LSQR's
    stop reason and iteration count, when the true residual ||L rho||
    exceeds tol.
    """
    n = model.n_qubits
    if n > SPARSE_LIMIT:
        raise DenseLimitError(f"sparse steady state supports n <= {SPARSE_LIMIT}")
    system = _WhitenedSystem(PauliLindbladian(model), (), ())
    x0 = np.eye(system.dim, dtype=complex) / system.dim
    g, tr, vals = system.apply(x0)
    dx, _, iterations, stop = _lsqr(system, (-g, 1.0 - tr, -vals), 0.5 * tol,
                                    SPARSE_MAX_ITER)
    rho = hermitize(x0 + dx)
    rho = rho / np.trace(rho).real
    residual = float(np.linalg.norm(system.generator.apply(rho)))
    if residual > tol:
        raise ConvergenceError(
            f"sparse steady state: true residual {residual:.3e} > tol {tol:.1e}; "
            f"LSQR stop {stop!r} (converged | least-squares | budget) after "
            f"{iterations} of {SPARSE_MAX_ITER} iterations",
            residual=residual, stop_reason=stop, iterations=iterations,
        )
    return rho
