"""The Lindblad generator, in every basis the package uses.

    G(x) = -i (K x M - M x K^dag) + sum_k J_k x J_k^dag,
    K = H - (i/2) sum_k gamma_k F_k,    J_k = sqrt(gamma_k) A_k,

where M is the Hermitian metric of the basis: the identity for
operators in the computational basis (F_k = A_k^dag A_k), or the Gram
matrix E when x is a coefficient matrix beta in the raw ansatz basis
(H, A_k, F_k then stand for the overlap matrices D, R_k, F_k). With
M = I this is the usual L[rho] = -i[H, rho]
+ sum_k gamma_k (A_k rho A_k^dag - 1/2 {A_k^dag A_k, rho}).

Vectorization is column-stacking: vec(x) = x.reshape(-1, order="F"),
so vec(B x C) = (C^T kron B) vec(x).

In the computational basis (``from_model``) G is never applied through
dense products. K and J_k are Pauli sums, and a Pauli word maps |b> to a
phase times |b ^ mask>, so

    G(x)[a, b] = sum_t W_t[a, b] x[a ^ p_t, b ^ q_t]

over a table of terms t, one per distinct pair of bit-flip masks
(p_t, q_t). With x viewed as a (2,)*2n tensor, x[a ^ p, b ^ q] is
``np.flip`` over the qubit axes set in p and q, a view. The adjoint reads
the same table: G^dag(y) = sum_t flip(conj(W_t) y).
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import ConfigError


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Hermitian part (mat + mat^dag) / 2."""
    return (mat + mat.conj().T) / 2


def _sqrt_rates(rates) -> np.ndarray:
    """sqrt(gamma_k); a negative rate has no jump operator J_k = sqrt(gamma_k) A_k."""
    if any(rate < 0 for rate in rates):
        raise ConfigError(f"dissipator rates must be >= 0, got {tuple(rates)}")
    return np.sqrt(np.asarray(rates, dtype=float))


class Lindbladian:
    """G and its adjoint as short sequences of dense matrix products.

    Holds K, K^dag, every J_k and J_k^dag densely: 2(1 + k) matrices of
    the basis dimension, plus the metric when it is not the identity.
    This is the form of the coefficient-basis generators (``from_overlaps``,
    ``compress``); ``from_model`` returns a ``PauliLindbladian``.
    """

    def __init__(self, k: np.ndarray, jumps, metric: np.ndarray | None = None):
        self.k = np.asarray(k, dtype=complex)
        self.k_dag = self.k.conj().T
        self.jumps = [np.asarray(j, dtype=complex) for j in jumps]
        self.jumps_dag = [j.conj().T for j in self.jumps]
        self.metric = metric

    @staticmethod
    def from_model(model) -> "PauliLindbladian":
        """Computational-basis generator of a model, applied from Pauli tables."""
        return PauliLindbladian(model)

    @classmethod
    def from_overlaps(cls, overlaps) -> "Lindbladian":
        """Projected generator on coefficient matrices, with metric E."""
        k = overlaps.D
        for rate, f_n in zip(overlaps.rates, overlaps.F):
            k = k - 0.5j * rate * f_n
        jumps = [root * r_n for root, r_n in zip(_sqrt_rates(overlaps.rates), overlaps.R)]
        return cls(k, jumps, metric=overlaps.E)

    @property
    def dim(self) -> int:
        return self.k.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        kx, xk = self.k @ x, x @ self.k_dag
        if self.metric is not None:
            kx, xk = kx @ self.metric, self.metric @ xk
        out = -1j * (kx - xk)
        for j, j_dag in zip(self.jumps, self.jumps_dag):
            out += j @ x @ j_dag
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """G^dag under the Frobenius inner product: <G x, y> = <x, G^dag y>."""
        ky, yk = self.k_dag @ y, y @ self.k
        if self.metric is not None:
            ky, yk = ky @ self.metric, self.metric @ yk
        out = 1j * (ky - yk)
        for j, j_dag in zip(self.jumps, self.jumps_dag):
            out += j_dag @ y @ j
        return out

    def compress(self, w: np.ndarray) -> "Lindbladian":
        """The generator x -> W^dag G(W x W^dag) W, for any W with W^dag M W = I."""
        w_dag = w.conj().T
        return Lindbladian(w_dag @ self.k @ w, [w_dag @ j @ w for j in self.jumps])

    def superoperator(self) -> np.ndarray:
        """Dense dim^2 x dim^2 matrix of G in column-stacking convention."""
        metric = np.eye(self.dim, dtype=complex) if self.metric is None else self.metric
        out = np.kron(metric.T, self.k)
        out -= np.kron(self.k.conj(), metric)
        out *= -1j
        for j in self.jumps:
            out += np.kron(j.conj(), j)
        return out


# Real Hermitian coordinates. G maps Hermitian matrices to Hermitian
# matrices, so in the orthonormal Hermitian basis
# V = {E_jj, (E_jk + E_kj)/sqrt2, i(E_jk - E_kj)/sqrt2 : j < k} it is a real
# dim^2 x dim^2 matrix V^dag G V with the singular values of G. A Hermitian
# x has the real coordinates (x_jj, sqrt2 Re x_jk, sqrt2 Im x_jk : j < k).

@functools.lru_cache(maxsize=64)
def _vec_indices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-stacking positions of E_jj, and of E_jk and E_kj for j < k (read-only)."""
    j, k = np.triu_indices(dim, 1)
    out = np.arange(dim) * (dim + 1), j + dim * k, k + dim * j
    for arr in out:
        arr.setflags(write=False)
    return out


def _real_coordinates(superop: np.ndarray, dim: int) -> np.ndarray:
    """V^dag L V of a column-stacking superoperator L.

    Real when L maps Hermitian matrices to Hermitian matrices. The
    columns of L V are then vec of Hermitian matrices, so V^dag needs only
    their diagonal rows (real parts) and upper-triangle rows (sqrt2 times
    the real and the imaginary parts). Those rows are read dim at a time,
    so the complex temporaries stay at a few dim^3 entries.
    """
    diag, upper, lower = _vec_indices(dim)
    needed = np.concatenate([diag, upper])
    out = np.empty((dim * dim, dim * dim))
    for start in range(0, len(needed), dim):
        rows = superop[needed[start:start + dim]]
        lv = np.concatenate([rows[:, diag],
                             np.sqrt(0.5) * (rows[:, upper] + rows[:, lower]),
                             1j * np.sqrt(0.5) * (rows[:, upper] - rows[:, lower])], axis=1)
        if start == 0:  # the diagonal rows
            out[:dim] = lv.real
        else:
            imag = start + len(upper)
            out[start:start + len(lv)] = np.sqrt(2) * lv.real
            out[imag:imag + len(lv)] = np.sqrt(2) * lv.imag
    return out


def _real_vector(x: np.ndarray) -> np.ndarray:
    """Real coordinates V^dag vec(x) of a Hermitian matrix (its upper triangle is read)."""
    diag, upper, _ = _vec_indices(x.shape[0])
    vec = x.ravel(order="F")
    return np.concatenate([vec[diag].real, np.sqrt(2) * vec[upper].real,
                           np.sqrt(2) * vec[upper].imag])


def _hermitian_matrix(v: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian matrices V v of real coordinates v, shape (..., dim^2) -> (..., dim, dim)."""
    diag, upper, lower = _vec_indices(dim)
    half = dim + len(upper)
    vecs = np.zeros(v.shape[:-1] + (dim * dim,), dtype=complex)
    vecs[..., diag] = v[..., :dim]
    vecs[..., upper] = np.sqrt(0.5) * (v[..., dim:half] + 1j * v[..., half:])
    vecs[..., lower] = vecs[..., upper].conj()
    return vecs.reshape(v.shape[:-1] + (dim, dim)).swapaxes(-1, -2)


def _flip_axes(p: int, q: int, n: int) -> tuple[int, ...]:
    """Axes of the (2,)*2n view of x that x[a ^ p, b ^ q] flips (site 1 = axis 0)."""
    return tuple(axis for axis in range(2 * n) if ((p << n | q) >> (2 * n - 1 - axis)) & 1)


def _weight_factors(pieces: list[tuple[np.ndarray, ...]], n: int) -> tuple[np.ndarray, ...]:
    """A lone piece stays a product of broadcast factors; several merge into one full weight."""
    if len(pieces) > 1:
        pieces = [(sum(functools.reduce(np.multiply, piece) for piece in pieces),)]
    return tuple(f.reshape([2 if size > 1 else 1 for size in f.shape for _ in range(n)])
                 for f in pieces[0])


class PauliLindbladian(Lindbladian):
    """The computational-basis generator of a model, as one table of flip terms.

    A term (axes, factors) stands for x -> W * flip(x, axes), with W the
    product of its broadcast factors: a column u for a -i K x piece, a row
    for an i x K^dag piece, a column times a row for a J_k x J_k^dag
    piece. A mask pair reached by several pieces, such as the diagonal
    pair (0, 0) of a K with a diagonal part, holds them merged in one full
    2^n x 2^n weight. The dense K
    and J_k that ``superoperator`` and ``compress`` need are expanded only
    on first use, exactly as a dense generator would hold them.
    """

    metric = None

    def __init__(self, model):
        self.model = model
        self.roots = _sqrt_rates(model.rates)
        self.n = model.n_qubits
        self._split: dict[int, list] = {}

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @functools.cached_property
    def terms(self) -> tuple[tuple[tuple[int, ...], tuple[np.ndarray, ...]], ...]:
        """(flip axes, weight factors) per distinct mask pair (p, q)."""
        k_op = self.model.hamiltonian
        for rate, jump in self.model.dissipators:
            k_op = k_op - (0.5j * rate) * (jump.dagger() * jump)
        pieces: dict[tuple[int, int], list[tuple[np.ndarray, ...]]] = {}
        for p, u in k_op.flip_weights():
            pieces.setdefault((p, 0), []).append((-1j * u[:, None],))
            pieces.setdefault((0, p), []).append((1j * u.conj()[None, :],))
        for root, jump in zip(self.roots, self.model.jumps):
            weights = (root * jump).flip_weights()
            for p, u in weights:
                for q, v in weights:
                    pieces.setdefault((p, q), []).append((u[:, None], v.conj()[None, :]))
        return tuple((_flip_axes(p, q, self.n), _weight_factors(parts, self.n))
                     for (p, q), parts in pieces.items())

    @functools.cached_property
    def _dense(self) -> tuple[np.ndarray, list[np.ndarray]]:
        n = self.n
        k = self.model.hamiltonian.to_dense(dense_limit=n)
        jumps = []
        for root, (rate, jump) in zip(self.roots, self.model.dissipators):
            a = jump.to_dense(dense_limit=n)
            k = k - 0.5j * rate * (a.conj().T @ a)
            jumps.append(root * a)
        return k, jumps

    @property
    def k(self) -> np.ndarray:
        return self._dense[0]

    @property
    def jumps(self) -> list[np.ndarray]:
        return self._dense[1]

    def _row_blocks(self, lead: int) -> list:
        """The table split over the 2^lead values of the top ``lead`` row bits.

        Per block: one (source block, remaining flip axes, factors at the
        block's rows) triple per term, the source block being the block's
        bits flipped by the term's row mask. ``lead`` = 0 is the whole table.
        """
        if lead not in self._split:
            blocks = []
            for bits in itertools.product((0, 1), repeat=lead):
                blocks.append([
                    (tuple(bit ^ (axis in axes) for axis, bit in enumerate(bits)),
                     tuple(axis - lead for axis in axes if axis >= lead),
                     tuple(f[tuple(min(bit, f.shape[axis] - 1) for axis, bit in enumerate(bits))]
                           for f in factors))
                    for axes, factors in self.terms])
            self._split[lead] = blocks
        return self._split[lead]

    def _apply_rows(self, x: np.ndarray, lead: int):
        """G(x) one row block at a time, in one buffer that each block reuses."""
        x = np.asarray(x, dtype=complex).reshape((2,) * (2 * self.n))
        out = np.empty(x.shape[lead:], dtype=complex)
        tmp = np.empty_like(out)
        for terms in self._row_blocks(lead):
            out.fill(0)
            for src, axes, (first, *rest) in terms:
                np.multiply(first, np.flip(x[src], axes), out=tmp)
                for factor in rest:
                    tmp *= factor
                out += tmp
            yield out

    def apply(self, x: np.ndarray) -> np.ndarray:
        (out,) = self._apply_rows(x, 0)
        return out.reshape(self.dim, self.dim)

    def apply_norm(self, x: np.ndarray) -> float:
        """||G(x)||_F, summed over 4 row blocks so that G(x) is never held whole."""
        return float(np.sqrt(sum(np.vdot(block, block).real
                                 for block in self._apply_rows(x, min(2, self.n)))))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """G^dag under the Frobenius inner product: <G x, y> = <x, G^dag y>."""
        y = np.asarray(y, dtype=complex).reshape((2,) * (2 * self.n))
        out, tmp = np.zeros_like(y), np.empty_like(y)
        for axes, (first, *rest) in self.terms:
            np.multiply(first.conj(), y, out=tmp)
            for factor in rest:
                tmp *= factor.conj()
            out += np.flip(tmp, axes)
        return out.reshape(self.dim, self.dim)
