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

G maps Hermitian matrices to Hermitian matrices, and the solver applies
the coefficient-basis generators (``Lindbladian``: ``from_overlaps``,
``compress``) to nothing else. For Hermitian x, M x K^dag = (K x M)^dag,
so with

    H = -i K x M + 1/2 sum_k J_k x J_k^dag,    G(x) = H + H^dag,

an apply takes one product with K and one with M, and the mirrored half
H^dag makes G(x) Hermitian bit for bit (entry (j, i) is the conjugate of
entry (i, j)). The jump term goes into H before the mirror: formed by two
products, J_k x J_k^dag is Hermitian only up to rounding. The adjoint is
G^dag(y) = H' + H'^dag with H' = i K^dag y M + 1/2 sum_k J_k^dag y J_k.

In the computational basis (``PauliLindbladian``) no dense K or J_k is
ever formed. K and J_k are Pauli sums, and a Pauli word maps |b> to a phase
times |b ^ mask>, so

    G(x)[a, b] = sum_t W_t[a, b] x[a ^ p_t, b ^ q_t]

over a table of terms t, one per distinct pair of bit-flip masks
(p_t, q_t). With x viewed as a (2,)*2n tensor, x[a ^ p, b ^ q] is
``np.flip`` over the qubit axes set in p and q, a view. The adjoint reads
the same table, G^dag(y) = sum_t flip(conj(W_t) y), and so does the dense
superoperator, into which each term scatters one entry per row.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import ConfigError
from .states import apply_to_columns


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Hermitian part (mat + mat^dag) / 2; entry (j, i) is the exact conjugate of (i, j)."""
    return (mat + mat.conj().T) * 0.5  # exact, and cheaper than a complex division by 2


def _sqrt_rates(rates) -> np.ndarray:
    """sqrt(gamma_k); a negative rate has no jump operator J_k = sqrt(gamma_k) A_k."""
    if any(rate < 0 for rate in rates):
        raise ConfigError(f"dissipator rates must be >= 0, got {tuple(rates)}")
    return np.sqrt(np.asarray(rates, dtype=float))


def _support(mask: np.ndarray):
    """Positions where ``mask`` holds: a full slice, which indexes by view, when it holds everywhere."""
    idx = np.flatnonzero(mask)
    return slice(None) if len(idx) == len(mask) else idx


def _square(idx, dim: int):
    """Flat positions of the square block [idx, idx] of a dim x dim matrix; None for all of it."""
    return None if isinstance(idx, slice) else idx[:, None] * dim + idx


def _block(mat: np.ndarray, square) -> np.ndarray:
    """The block of ``mat`` at ``square`` (from ``_square``): mat itself, or a gather."""
    return mat if square is None else mat.take(square)


def _add_block(mat: np.ndarray, square, block: np.ndarray):
    """Add ``block`` into ``mat`` at ``square``, in place (mat is C-contiguous)."""
    if square is None:
        mat += block
    else:
        mat.reshape(-1)[square] += block


class Lindbladian:
    """G and its adjoint as short sequences of dense matrix products.

    ``apply`` and ``adjoint`` take Hermitian matrices only, and return
    exactly Hermitian ones: they form the half H of G(x) = H + H^dag (see
    the module docstring), with one product by K and one by the metric.
    ``superoperator`` accepts any matrix.

    Holds K and K^dag densely, plus the metric when it is not the
    identity. Each J_k is kept densely in ``jumps`` (for ``superoperator``
    and ``compress``) and, for ``apply`` and ``adjoint``, as its block B_k
    on the rows r and columns c where it has a nonzero entry, so that
    J_k x J_k^dag is B_k x[c, c] B_k^dag added into H[r, r], both blocks
    reached through their flat positions. The support
    comes from exact zeros: on a basis-state ansatz the R_k are nonzero
    only between the states a jump connects, and a product costs the
    block's size, not the basis dimension. A jump with full support takes
    the plain products, on views.
    This is the form of the coefficient-basis generators (``from_overlaps``,
    ``compress``); a model's own generator is a ``PauliLindbladian``.
    """

    def __init__(self, k: np.ndarray, jumps, metric: np.ndarray | None = None):
        self.k = np.asarray(k, dtype=complex)
        self.k_dag = self.k.conj().T
        self.jumps = [np.asarray(j, dtype=complex) for j in jumps]
        self.metric = metric
        self._blocks = []  # (row block, column block, B_k, B_k^dag) per jump
        for j in self.jumps:
            nonzero = j != 0
            rows, cols = _support(nonzero.any(axis=1)), _support(nonzero.any(axis=0))
            block = j[rows][:, cols]
            self._blocks.append((_square(rows, self.dim), _square(cols, self.dim),
                                 block, block.conj().T))

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
        """G(x) = H + H^dag for Hermitian x, formed from 2H: halving 2H + 2H^dag is exact."""
        h = self.k @ x
        if self.metric is not None:
            h = h @ self.metric
        h *= -2j
        return hermitize(self.add_jumps(h, x))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """G^dag(y) = H' + H'^dag for Hermitian y, formed from 2H'.

        The adjoint under the real inner product Re Tr(x^dag y) on Hermitian
        matrices: <G x, y> = <x, G^dag y>.
        """
        h = self.k_dag @ y
        if self.metric is not None:
            h = h @ self.metric
        h *= 2j
        return hermitize(self.add_jumps_adjoint(h, y))

    def add_jumps(self, out: np.ndarray, x: np.ndarray) -> np.ndarray:
        """out += sum_k J_k x J_k^dag, on each jump's support, in place; returns out."""
        for rows, cols, b, b_dag in self._blocks:
            _add_block(out, rows, b @ _block(x, cols) @ b_dag)
        return out

    def add_jumps_adjoint(self, out: np.ndarray, y: np.ndarray) -> np.ndarray:
        """out += sum_k J_k^dag y J_k, on each jump's support, in place; returns out."""
        for rows, cols, b, b_dag in self._blocks:
            _add_block(out, cols, b_dag @ _block(y, rows) @ b)
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


def _real_coordinates(rows_of, dim: int) -> np.ndarray:
    """V^dag L V of a column-stacking superoperator L, read dim rows idx at a
    time as ``rows_of(idx)``: ``m.__getitem__`` of a matrix, or a table's
    ``PauliLindbladian.superoperator``, which never holds L whole.

    Real when L maps Hermitian matrices to Hermitian matrices. The
    columns of L V are then vec of Hermitian matrices, so V^dag needs only
    their diagonal rows (real parts) and upper-triangle rows (sqrt2 times
    the real and the imaginary parts), and the complex temporaries stay at
    a few dim^3 entries.
    """
    diag, upper, lower = _vec_indices(dim)
    needed = np.concatenate([diag, upper])
    out = np.empty((dim * dim, dim * dim))
    for start in range(0, len(needed), dim):
        rows = rows_of(needed[start:start + dim])
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


class PauliLindbladian:
    """The computational-basis generator of a model, as one table of flip terms.

    K and the J_k are held as ``PauliSum``s (``k_op``, ``jump_ops``), and
    every method reads them or their table. A term (axes, factors) stands
    for x -> W * flip(x, axes), with W the product of its broadcast
    factors: a column u for a -i K x piece, a row for an i x K^dag piece,
    a column times a row for a J_k x J_k^dag piece. A mask pair reached by
    several pieces, such as the diagonal pair (0, 0) of a K with a
    diagonal part, holds them merged in one full 2^n x 2^n weight. Unlike
    ``Lindbladian``, ``apply`` and ``adjoint`` accept any matrix.
    """

    def __init__(self, model):
        roots = _sqrt_rates(model.rates)
        self.n = model.n_qubits
        k_op = model.hamiltonian
        for rate, jump in model.dissipators:
            k_op = k_op - (0.5j * rate) * (jump.dagger() * jump)
        self.k_op = k_op
        self.jump_ops = [root * jump for root, jump in zip(roots, model.jumps)]
        self._split: dict[int, list] = {}

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @functools.cached_property
    def terms(self) -> tuple[tuple[tuple[int, ...], tuple[np.ndarray, ...]], ...]:
        """(flip axes, weight factors) per distinct mask pair (p, q)."""
        pieces: dict[tuple[int, int], list[tuple[np.ndarray, ...]]] = {}
        for p, u in self.k_op.flip_weights():
            pieces.setdefault((p, 0), []).append((-1j * u[:, None],))
            pieces.setdefault((0, p), []).append((1j * u.conj()[None, :],))
        for jump in self.jump_ops:
            weights = jump.flip_weights()
            for p, u in weights:
                for q, v in weights:
                    pieces.setdefault((p, q), []).append((u[:, None], v.conj()[None, :]))
        return tuple((_flip_axes(p, q, self.n), _weight_factors(parts, self.n))
                     for (p, q), parts in pieces.items())

    def superoperator(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Rows ``rows`` (all by default) of the column-stacking 4^n x 4^n matrix of G.

        Term t puts W_t[a, b] at row a + 2^n b and column (a ^ p_t) + 2^n (b ^ q_t),
        that is out[pos, flip(pos, axes)] = W_t with pos the vec positions as (2,)*2n.
        """
        dim = self.dim
        pos = np.arange(dim * dim).reshape(dim, dim).T.reshape((2,) * (2 * self.n))
        rows = np.arange(dim * dim) if rows is None else np.asarray(rows)
        at = np.unravel_index(rows % dim * dim + rows // dim, pos.shape)  # (a, b) of each row
        out = np.zeros((len(rows), dim * dim), dtype=complex)
        for axes, factors in self.terms:
            weights = functools.reduce(np.multiply,
                                       [np.broadcast_to(f, pos.shape)[at] for f in factors])
            out[np.arange(len(rows)), np.flip(pos, axes)[at]] = weights
        return out

    def compress(self, w: np.ndarray) -> Lindbladian:
        """The generator x -> W^dag G(W x W^dag) W, for any isometry W."""
        w_dag = w.conj().T
        return Lindbladian(w_dag @ apply_to_columns(self.k_op, w),
                           [w_dag @ apply_to_columns(j, w) for j in self.jump_ops])

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
