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
that are already orthonormal. Where the generator commutes with the site
reversal j <-> n+1-j of the chain (the TFIM and dephasing chains, the
driven chain at mu = 0, and any model file whose operators have it), as
read from its compiled table, x -> R x R is a signed permutation of these
coordinates and A splits exactly into an even and an odd block, each
about half of A; the even block holds I and every unique steady state.
Where H and every jump commute with M = sum_j Z_j (the XXZ chains, and any
model file whose operators do), as read from the operators, L keeps each
P_m x P_m' (Buca & Prosen 2012), and each block splits again by the sector
pair {m(j), m(k)} of its coordinates' entries (j, k): 39 blocks of at most
104 coordinates for the dephasing XXZ chain at n=5 (``_coordinate_blocks``).
A is read only on the first axis of each orbit, one sector pair at a time,
and each block is decomposed on its own with the split of the largest
lambda_max of the blocks, so the near-null cluster is the same set. Other
models keep A as one block. Each block follows one rule. A Cholesky factor
of its Gram matrix C = A^T A bordered by the trace functional certifies
and solves a unique steady state, and one factor of C - tau I certifies
that a block orthogonal to I holds none. Where that factorization fails
(two steady states in the block, a traceless one, or a small gap), the
eigenvectors of ``eigh`` of C below ``GRAM_SPLIT`` are the block's
near-null cluster. An SVD of A on the cluster only gives the cluster's
singular values and the null vectors (``GRAM_SPLIT`` gives the bounds).
For TFIM n=5 this takes 0.037-0.051 s against 0.10-0.13 s on A whole, and
a 53 MB process peak against 74 MB; at n=6, 1.0-1.1 s and a 0.24 GB peak
against 3.8 s and 0.56 GB. The XXZ chains at n=6 take 0.26-0.48 s and a
76-97 MB peak (one BLAS thread). The rest of the spectrum, one
``eigvalsh`` of each block's C, is computed when
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
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DegenerateSteadySpaceError, DenseLimitError
from .lindblad import (
    PauliLindbladian,
    _hermitian_matrix,
    _real_coordinates,
    _real_permutation,
    hermitize,
)
from .models import OpenSystemModel, _frobenius, magnetization_symmetry
from .sdp import _WhitenedSystem, _lsqr
from .states import AnsatzSet, apply_to_columns

DEFAULT_DENSE_LIMIT = 6
NULL_SPACE_RTOL = 1e-10
INVARIANCE_TOL = 1e-10
SPARSE_LIMIT = 10
SPARSE_MAX_ITER = 20000
GRAM_SPLIT = 1e-6
"""Eigenvalues lambda <= tau = GRAM_SPLIT * lambda_max of C = A^T A (singular
values sigma <= 1e-3 sigma_max of A) form a block's near-null cluster V;
``_hermitian_null_space`` takes its singular values and the null vectors
by an SVD of A V. A and C here are one coordinate block's
(``_coordinate_blocks``): with no cross blocks, the eigenvalues of A^T A are
those of the blocks' C together. With eps = 2.2e-16 and N the size of the
block (4^n for A whole; 544 and 480 at n=5 for the TFIM reflection blocks):

- The reflection split is exact up to ``_REFLECT_TOL``: the blocks are
  those of an A' with ||A' - A||_F <= ||S G S - G||_F <= 1e-14 ||A||_F,
  at most 6.4e-13 sigma_max at n=6 (||A||_F <= 2^n sigma_max), below the
  residual stop; the table's sums round by a few eps (6e-17 measured).
- The magnetization split is exact up to ``_REFLECT_TOL`` too. U = exp(i phi M)
  with phi = 2 pi / (2n + 2) moves an entry of an operator that changes M
  by dm != 0 by a factor |1 - exp(i phi dm)| >= 2 sin(pi / (n + 1)) (0.87 at
  n=6), so the parts of H and the jumps that the split drops have norm at
  most 1.2e-14 max(1, ||op||_F) at n <= 6, the reflection's order.
- lambda_max is the largest over the blocks of the top Ritz value after
  six block-power steps from four vectors: a lower bound, 0.07-9% below
  lambda_max on the package's models, whose top eigenvalues come in
  close groups. It sets scales only: the split, the residual stop and the
  cutoff NULL_SPACE_RTOL * sqrt(lambda_max) move with it by that factor,
  and every block uses the same ones.
- The certificate comes first. With t the unit coordinates of I/sqrt d in
  the block (1/sqrt d on a diagonal axis that the reversal fixes, sqrt(2/d)
  on a pair of diagonal axes), a factor of
  M = C + lambda_max t t^T - tau I leaves at most one eigenvalue of C below
  the split, its eigenvector v ~ (C + lambda_max t t^T)^-1 t. Refinement by
  M contracts by tau / lambda_min(M) (1e-3 per step at TFIM n=5) until
  ||A v|| / ||v|| stops halving. v must meet the residual stop
  ||C v - theta v|| <= 1e-14 lambda_max (the rounding floor is 0.3-3.5e-16
  lambda_max at n=5); its part e outside the cluster then has
  ||A e|| <= 1e-14 lambda_max / sqrt(tau) = 1e-11 sigma_max, a tenth of the
  null cutoff. A block orthogonal to I (t = 0) factors C - tau I instead,
  and a factor leaves no eigenvalue below the split.
- Otherwise ``eigh`` gives the eigenvectors of some C + E with
  ||E|| <= p(N) eps lambda_max, p a modest function of N. The null vectors have eigenvalue 0 and the
  eigenvalues outside V lie above tau, so span V holds them to an angle of
  at most ||E|| / tau = p(N) eps / GRAM_SPLIT (2.2e-10 p(N)), and their part
  e outside span V, weighted by those eigenvalues, has
  ||A e|| <= ||E|| / sqrt(tau) = 2.2e-13 p(N) sigma_max. Measured: null
  values and ||L x|| of at most 4.7e-13 sigma_max (the driven XXZ chain at
  n=6, mu = 0), where inverse iteration on the cluster reaches 1.4e-15.
- Above the split, sigma = sqrt(lambda) from ``eigvalsh`` (on demand) has
  absolute error at most eps lambda_max / (2 sqrt(GRAM_SPLIT lambda_max))
  = 1.1e-13 sigma_max; the cluster's values from the SVD agree with a
  full SVD to 2e-14 sigma_max (71 models, n <= 5).
"""
_POWER_BLOCK, _POWER_STEPS = 4, 6  # the lambda_max estimate
_RITZ_TOL = 1e-14                  # Ritz residual stop, relative to lambda_max
_SLOW = 0.5                        # a step that cuts the residual by less is slow
_SOLVE_BLOCK = 128                 # rows per step of the triangular solves and block builds
_REFLECT_TOL = 1e-14               # relative defect that still counts as a symmetry to split by
_PIVOT_TIE = 1e-9                  # column norms this close (relative) tie in ``_on_axes``
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
        read-only; computed on first read (one ``eigvalsh`` of A^T A per
        coordinate block) and kept with the basis."""
        svals = self._spectrum()
        svals.setflags(write=False)
        return svals

    def physical_representative(self, k: int) -> np.ndarray:
        if not self.physical[k]:
            raise ValueError(f"basis element {k} has no trace-one PSD representative")
        elem = self.elements[k]
        return elem / np.trace(elem).real


def _cholesky(gram: np.ndarray, shift: float, border: float = 0.0,
              trace: np.ndarray | int = 0) -> np.ndarray:
    """Cholesky factor of C + border t t^T + shift I; C is left bit for bit as it
    was, also on LinAlgError. ``trace`` holds the weights w of I on C's leading
    coordinates, t = w / ||w|| (an int d: d unit weights, the whole coordinates
    of a d x d matrix)."""
    n = len(gram)
    w = np.ones(trace) if isinstance(trace, int) else trace
    diag, head = gram.diagonal().copy(), gram[:len(w), :len(w)].copy()
    if border:
        gram[:len(w), :len(w)] += np.outer(w, w) * border / (w @ w)
    gram.flat[::n + 1] += shift
    try:
        return np.linalg.cholesky(gram)
    finally:
        gram[:len(w), :len(w)] = head
        gram.flat[::n + 1] = diag


def _inverse_solver(gram: np.ndarray, shift: float, border: float = 0.0,
                    trace: np.ndarray | int = 0):
    """x -> (C + border t t^T + shift I)^-1 x through the Cholesky factor L of
    that matrix (``_cholesky``).

    numpy has no triangular solve, so the forward and back substitutions
    run over row blocks of L, each a product with the inverse of one
    diagonal block.
    """
    low = _cholesky(gram, shift, border, trace)
    n = len(gram)
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


class _Block(NamedTuple):
    """A coordinate block Q^T A Q of the real superoperator A: block coordinate k
    is the unit vector Q e_k = c_lo[k] e_lo[k] + c_hi[k] e_hi[k] of A's
    coordinates (c_hi[k] = 0 for a single axis), lo ascending."""

    real: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    c_lo: np.ndarray
    c_hi: np.ndarray

    @classmethod
    def whole(cls, real: np.ndarray) -> _Block:
        axes = np.arange(real.shape[1])
        return cls(real, axes, axes, np.ones(len(axes)), np.zeros(len(axes)))

    def trace(self, dim: int) -> np.ndarray:
        """Q^T of I's coordinates (ones on the dim diagonal axes) on the block's
        leading coordinates, which hold all of it; all zero in an odd block."""
        lead = np.count_nonzero(self.lo < dim)
        return self.c_lo[:lead] + self.c_hi[:lead] * (self.hi[:lead] < dim)

    def lift(self, rows: np.ndarray, size: int) -> np.ndarray:
        """Rows of block coordinates as rows of A's size coordinates (rows Q^T)."""
        out = np.zeros((len(rows), size))
        out[:, self.lo] = rows * self.c_lo
        out[:, self.hi] += rows * self.c_hi
        return out


def _conserves_magnetization(model: OpenSystemModel) -> bool:
    """H and every jump commute with M = sum_j Z_j, read from the operators:
    ||U op U^dag - op||_F <= ``_REFLECT_TOL`` max(1, ||op||_F) for U = exp(i phi M)
    (``models.magnetization_symmetry``)."""
    spec = magnetization_symmetry(model.n_qubits)
    return all(spec._conjugation_defect(op) <= _REFLECT_TOL * max(1.0, _frobenius(op))
               for op in (model.hamiltonian, *model.jumps))


def _sector_pairs(n: int) -> np.ndarray:
    """The sector pair {m(j), m(k)} of each real coordinate's entry (j, k), as
    min * (n + 1) + max of the popcounts of j and k."""
    pop = np.bitwise_count(np.arange(2 ** n)).astype(np.int64)
    j, k = np.triu_indices(2 ** n, 1)
    upper = np.minimum(pop[j], pop[k]) * (n + 1) + np.maximum(pop[j], pop[k])
    return np.concatenate([pop * (n + 2), upper, upper])


def _coordinate_blocks(model: OpenSystemModel) -> list[_Block]:
    """The model's real superoperator A as its blocks under the site reversal
    j <-> n+1-j, if the generator commutes with it (``PauliLindbladian.reversal_defect``
    at most ``_REFLECT_TOL``), and under the magnetization sector pairs, if H
    and every jump conserve M (``_conserves_magnetization``); else [A].

    x -> R x R, with R the bit reversal of basis states, is a signed
    permutation P of A's coordinates (``lindblad._real_permutation``). Its
    orbits are single axes, P e_i = +-e_i, and pairs, P e_i = s e_j; the
    even block has the +e_i and every (e_i + s e_j)/sqrt2, the odd block
    the -e_i and every (e_i - s e_j)/sqrt2. With P A = A P, row j of A is
    row i with its columns moved by P, so only the rows of the first axis
    i < j of each orbit are read (``_block_matrix``). A conserved M keeps
    each P_m x P_m', so A does not mix the coordinates of the sector pairs
    {m(j), m(k)} of their entries (j, k), which P, keeping popcounts, maps
    into themselves: each pair's rows are read and split on their own.
    """
    gen, n = PauliLindbladian(model), model.n_qubits
    dim = 2 ** n
    reflect, conserve = gen.reversal_defect() <= _REFLECT_TOL, _conserves_magnetization(model)
    if not (reflect or conserve):
        return [_Block.whole(_real_coordinates(gen.superoperator, dim))]
    idx = np.arange(dim)
    order = sum(((idx >> j) & 1) << (n - 1 - j) for j in range(n)) if reflect else idx
    perm, sign = _real_permutation(order)
    lo = np.flatnonzero(perm >= np.arange(len(perm)))  # single axes and the first of each pair
    hi, s = perm[lo], sign[lo]
    pair = hi != lo
    c_lo = np.where(pair, np.sqrt(0.5), 1.0)
    label = _sector_pairs(n)[lo] if conserve else np.zeros(len(lo), int)
    blocks = []
    for sector in np.flatnonzero(np.bincount(label)):
        part = np.flatnonzero(label == sector)
        rows = _real_coordinates(gen.superoperator, dim, lo[part][lo[part] < dim * (dim + 1) // 2])
        for parity in (1.0, -1.0):
            keep = np.flatnonzero((pair | (s == parity))[part])
            at = part[keep]
            axes = lo[at], hi[at], c_lo[at], np.where(pair, parity * np.sqrt(0.5) * s, 0.0)[at]
            if len(keep):
                blocks.append(_Block(_block_matrix(rows, keep, *axes), *axes))
    return blocks


def _block_matrix(rows: np.ndarray, keep: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  c_lo: np.ndarray, c_hi: np.ndarray) -> np.ndarray:
    """Q^T A Q from the rows A[lo] alone (``rows[keep]``), for block
    coordinates (``_Block``) that P maps to +-themselves: then
    Q^T A Q = diag(1 / c_lo) A[lo] Q. Built _SOLVE_BLOCK rows at a time."""
    out = np.empty((len(keep), len(keep)))
    for a in range(0, len(keep), _SOLVE_BLOCK):
        part, at = rows[keep[a:a + _SOLVE_BLOCK]], slice(a, a + _SOLVE_BLOCK)
        np.take(part, lo, axis=1, out=out[at])  # np.take: 4x faster than part[:, lo]
        out[at] *= c_lo
        out[at] += np.take(part, hi, axis=1) * c_hi
        out[at] /= c_lo[at, None]
    return out


def _top_eigenvalue(real: np.ndarray, gram: np.ndarray, rng: np.random.Generator) -> float:
    """A lower bound on lambda_max of C = A^T A: block power steps, then the top
    Ritz value through A (``GRAM_SPLIT``)."""
    x = rng.standard_normal((len(gram), min(_POWER_BLOCK, len(gram))))
    for _ in range(_POWER_STEPS):
        x = np.linalg.qr(gram @ x)[0]
    return float(np.linalg.svd(real @ x, compute_uv=False)[0]) ** 2


def _certified_cluster(real: np.ndarray, gram: np.ndarray, lam_max: float, tau: float,
                       trace: np.ndarray) -> np.ndarray | None:
    """The near-null cluster of a block if one factorization certifies it, else
    None; residuals go through A, not the rounded C (``GRAM_SPLIT``).

    A block that holds I (trace weights w) has at most one eigenvalue of C
    below tau when C + lambda_max t t^T - tau I factors, with t = w / ||w||, and
    the same factor refines its eigenvector; a block orthogonal to I has none
    when C - tau I factors.
    """
    n = len(gram)
    try:
        if not trace.any():
            _cholesky(gram, -tau)
            return np.empty((n, 0))
        solve = _inverse_solver(gram, -tau, lam_max, trace)
    except np.linalg.LinAlgError:  # two eigenvalues below tau, or a traceless null vector
        return None
    t = np.zeros(n)
    t[:len(trace)] = trace * (trace @ trace) ** -0.5
    v, last = solve(t), np.inf
    while (now := np.linalg.norm(av := real @ v) / np.linalg.norm(v)) < _SLOW * last:
        best, last = v, now  # refine while a step halves ||A v|| / ||v||
        v = v + solve(t - real.T @ av - (lam_max * (t @ v)) * t)
    v = best / np.linalg.norm(best)
    theta = np.linalg.norm(av := real @ v) ** 2
    ritz = np.linalg.norm(real.T @ av - theta * v)
    return v[:, None] if theta <= tau and ritz <= _RITZ_TOL * lam_max else None


def _hermitian_null_space(blocks: list[_Block], dim: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Singular values of a real-coordinate superoperator A on its near-null
    cluster (``GRAM_SPLIT``), descending, and its null vectors (relative
    cutoff ``NULL_SPACE_RTOL``) as orthonormal Hermitian matrices.
    ``blocks`` are A's coordinate blocks (``_Block``; A whole is
    ``[_Block.whole(A)]``), each decomposed with the split of the largest lambda_max.

    A block's near-null cluster V, the eigenvectors of its C = A^T A with
    eigenvalues <= tau = GRAM_SPLIT * lambda_max, comes from one Cholesky
    factorization where that certifies it (``_certified_cluster``), else
    from ``eigh`` of C. The SVD of the thin matrix A V gives the cluster's
    singular values, to which the cutoff ``NULL_SPACE_RTOL * sigma_max``
    applies, and its right singular vectors, rotated back by V and lifted
    out of the block, are the null vectors. ``_singular_values`` completes
    the spectrum. If LAPACK's gesdd fails to converge (it did once, on a
    finite 1024 x 64 A V), the SVD of the transpose gives the same singular
    values, and its left vectors are the right vectors needed here.
    """
    size = sum(len(b.lo) for b in blocks)
    grams = [b.real.T @ b.real for b in blocks]
    # a fixed start: the oracle repeats bit for bit
    lam_max = max(_top_eigenvalue(b.real, gram, np.random.default_rng(0))
                  for b, gram in zip(blocks, grams))
    tau, cutoff = GRAM_SPLIT * lam_max, NULL_SPACE_RTOL * max(np.sqrt(lam_max), 1e-300)
    clusters, null = [np.empty(0)], [np.empty((0, size))]
    for k, b in enumerate(blocks):
        gram, grams[k] = grams[k], None  # each block's C is dropped once it is decomposed
        near = _certified_cluster(b.real, gram, lam_max, tau, b.trace(dim))
        if near is None:
            lam, vecs = np.linalg.eigh(gram)
            near = vecs[:, lam <= tau]
        if not near.shape[1]:
            continue
        thin = b.real @ near
        try:
            _, cluster, wh = np.linalg.svd(thin, full_matrices=False)
        except np.linalg.LinAlgError:
            v, cluster, _ = np.linalg.svd(thin.T, full_matrices=False)
            wh = v.T
        clusters.append(cluster)
        null.append(b.lift(wh[cluster <= cutoff] @ near.T, size))
    cluster = np.sort(np.concatenate(clusters))[::-1]
    return cluster, list(_hermitian_matrix(_on_axes(np.concatenate(null)), dim))


def _on_axes(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows with the same span, taken greedily along the
    coordinate axes that the span holds most of (column-pivoted
    Gram-Schmidt). The basis then depends on the span only, and a span that
    holds coordinate axes, such as the diagonal of a dephased qubit, has
    them as elements. Each pivot is the lowest axis within ``_PIVOT_TIE`` (relative)
    of the largest squared column norm, so that rounding, which follows the BLAS
    thread count, does not break the exact ties of a symmetric span."""
    cols = rows.copy()
    turn = np.empty((len(rows), len(rows)))
    for k in range(len(rows)):
        norms = np.einsum("ij,ij->j", cols, cols)
        j = np.argmax(norms >= (1.0 - _PIVOT_TIE) * norms.max())
        turn[:, k] = cols[:, j] / np.linalg.norm(cols[:, j])
        cols -= np.outer(turn[:, k], turn[:, k] @ cols)
    return turn.T @ rows


def _singular_values(blocks: list[_Block], cluster: np.ndarray) -> np.ndarray:
    """All singular values of A, descending: sqrt of the eigenvalues of
    A^T A above the cluster (no eigenvectors), one ``eigvalsh`` per block,
    then the cluster's own."""
    lam = np.sort(np.concatenate([np.linalg.eigvalsh(b.real.T @ b.real) for b in blocks]))
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
    cluster, basis = _hermitian_null_space(_coordinate_blocks(model), 2 ** model.n_qubits)
    flags = [_is_physical(b) for b in basis]
    order = sorted(range(len(basis)), key=lambda k: not flags[k])  # stable: physical first
    for arr in basis:
        arr.setflags(write=False)
    return NessBasis(
        elements=tuple(basis[k] for k in order),
        physical=tuple(flags[k] for k in order),
        _spectrum=lambda: _singular_values(_coordinate_blocks(model), cluster),
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
    # The norm of the formed sum L = H + H^dag, not 2 ||H||^2 + 2 Re Tr(H^2),
    # which near a steady state (||L|| about 1e-9 with ||H|| about 1)
    # cancels to rounding.
    out = (PauliLindbladian(model) if generator is None else generator).apply(hermitize(rho))
    return float(np.sqrt(np.vdot(out, out).real))


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
        if leak > INVARIANCE_TOL * max(1.0, _frobenius(op)):
            raise ValueError(f"subspace is not invariant under {name} (leak {leak:.2e})")
    k = v.shape[1]
    real = _real_coordinates(gen.compress(v).superoperator().__getitem__, k)
    _, null = _hermitian_null_space([_Block.whole(real)], k)
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
