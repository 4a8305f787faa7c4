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

G maps Hermitian matrices to Hermitian matrices, and the package applies
it to nothing else: ``apply`` and ``adjoint`` of both generator classes
take Hermitian matrices only. For Hermitian x, M x K^dag = (K x M)^dag,
so with

    H = -i K x M + 1/2 sum_k J_k x J_k^dag,    G(x) = H + H^dag,

an apply takes one product with K and one with M, and the mirrored half
H^dag makes G(x) Hermitian bit for bit (entry (j, i) is the conjugate of
entry (i, j)). The jump term goes into H before the mirror: formed by two
products, J_k x J_k^dag is Hermitian only up to rounding. The adjoint is
G^dag(y) = H' + H'^dag with H' = i K^dag y M + 1/2 sum_k J_k^dag y J_k.

In the computational basis (``PauliLindbladian``) no dense K or J_k is
ever formed. K and J_k are Pauli sums, and a Pauli word maps |b> to a phase
times |b ^ mask>, so the half is

    H[a, b] = sum_t W_t[a, b] x[a ^ p_t, b ^ q_t]

over a table of terms t: one per distinct flip mask p of K (q = 0, W a
column vector), and one per mask pair (p, q) of each jump. With x viewed
as a (2,)*2n tensor, x[a ^ p, b ^ q] is ``np.flip`` over the qubit axes set
in p and q, a view, and a jump term is taken only on the sub-cube of bits
where its weight is nonzero. The adjoint's half H' has its own table,
compiled the same way from -K^dag and the J_k^dag. The dense superoperator
scatters the full table of G on any matrix, one term per mask pair of
-i (K x - x K^dag) + sum_k J_k x J_k^dag, each term one entry per row.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

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


class _JumpGroup(NamedTuple):
    """Jumps B_1, ..., B_m with the same support rows r and columns c, stacked once."""
    rows: np.ndarray | slice        # r (``_support``: a full slice when it is every row)
    row_square: np.ndarray | None   # flat positions of the block [r, r] (``_square``)
    col_square: np.ndarray | None   # flat positions of the block [c, c]
    stacked: np.ndarray             # [B_1; ...; B_m], (m|r|, |c|)
    stacked_dag: np.ndarray         # [B_1^dag; ...; B_m^dag], (m|c|, |r|)

    @property
    def size(self) -> int:
        """m, the number of jumps in the group."""
        return len(self.stacked) // self.stacked_dag.shape[1]


def _side_by_side(t: np.ndarray, m: int) -> np.ndarray:
    """The m row blocks of t = [T_1; ...; T_m] as [T_1, ..., T_m]; t itself when m = 1."""
    rows = len(t) // m
    return t.reshape(m, rows, -1).swapaxes(0, 1).reshape(rows, -1)


def _add_jump_sum(out: np.ndarray, x: np.ndarray, groups) -> np.ndarray:
    """out[r, r] += sum_k B_k x[c, c] B_k^dag per group, two products each; returns out."""
    for group in groups:
        left = group.stacked @ _block(x, group.col_square)  # [B_1 x; ...; B_m x]
        _add_block(out, group.row_square, _side_by_side(left, group.size) @ group.stacked_dag)
    return out


def _add_jump_sum_adjoint(out: np.ndarray, y: np.ndarray, groups) -> np.ndarray:
    """out[c, c] += sum_k B_k^dag y[r, r] B_k per group, two products each; returns out."""
    for group in groups:
        left = group.stacked_dag @ _block(y, group.row_square)  # [B_1^dag y; ...; B_m^dag y]
        _add_block(out, group.col_square, _side_by_side(left, group.size) @ group.stacked)
    return out


class Lindbladian:
    """G and its adjoint as short sequences of dense matrix products.

    ``apply`` and ``adjoint`` take Hermitian matrices only, and return
    exactly Hermitian ones: they form the half H of G(x) = H + H^dag (see
    the module docstring), with one product by K and one by the metric.
    ``superoperator`` accepts any matrix.

    Holds K and K^dag densely, plus the metric when it is not the
    identity. Each J_k is kept densely in ``jumps`` (for ``superoperator``
    and ``compress``) and, for ``apply`` and ``adjoint``, as its block B_k
    on the rows r and columns c where it has a nonzero entry. Jumps with
    the same r and c form one group (``groups``, in order of first
    appearance), stacked once as [B_1; ...; B_m] and
    [B_1^dag; ...; B_m^dag], so that sum_k B_k x[c, c] B_k^dag is two
    products, the second over the side-by-side blocks B_k x[c, c], added
    into H[r, r]; both blocks are reached through their flat positions. A
    group of one jump is the plain b @ x[c, c] @ b^dag. The support comes
    from exact zeros: on a basis-state ansatz the R_k are nonzero only
    between the states a jump connects, and a product costs the block's
    size, not the basis dimension. A zero jump has no group.
    This is the form of the coefficient-basis generators (``from_overlaps``,
    ``compress``); a model's own generator is a ``PauliLindbladian``.
    """

    def __init__(self, k: np.ndarray, jumps, metric: np.ndarray | None = None):
        self.k = np.asarray(k, dtype=complex)
        self.k_dag = self.k.conj().T
        self.jumps = [np.asarray(j, dtype=complex) for j in jumps]
        self.metric = metric
        supports: dict[bytes, tuple] = {}  # (rows, cols, blocks) per support pattern
        for j in self.jumps:
            nonzero = j != 0
            row_mask, col_mask = nonzero.any(axis=1), nonzero.any(axis=0)
            if row_mask.any():
                key = row_mask.tobytes() + col_mask.tobytes()
                rows, cols, blocks = supports.setdefault(
                    key, (_support(row_mask), _support(col_mask), []))
                blocks.append(j[rows][:, cols])
        self.groups = []
        for rows, cols, blocks in supports.values():
            stacked = np.concatenate(blocks)
            self.groups.append(_JumpGroup(rows, _square(rows, self.dim), _square(cols, self.dim),
                                          stacked, _side_by_side(stacked, len(blocks)).conj().T))

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
        return hermitize(_add_jump_sum(h, x, self.groups))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """G^dag(y) = H' + H'^dag for Hermitian y, formed from 2H'.

        The adjoint under the real inner product Re Tr(x^dag y) on Hermitian
        matrices: <G x, y> = <x, G^dag y>.
        """
        h = self.k_dag @ y
        if self.metric is not None:
            h = h @ self.metric
        h *= 2j
        return hermitize(_add_jump_sum_adjoint(h, y, self.groups))

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


def _real_coordinates(rows_of, dim: int, keep: np.ndarray | None = None) -> np.ndarray:
    """V^dag L V of a column-stacking superoperator L, read dim rows idx at a
    time as ``rows_of(idx)``: ``m.__getitem__`` of a matrix, or a table's
    ``PauliLindbladian.superoperator``, which never holds L whole.

    Real when L maps Hermitian matrices to Hermitian matrices. The
    columns of L V are then vec of Hermitian matrices, so V^dag needs only
    their diagonal rows (real parts) and upper-triangle rows (sqrt2 times
    the real and the imaginary parts), and the complex temporaries stay at
    a few dim^3 entries. ``keep``, ascending positions in the list of the
    dim diagonal and then the upper-triangle entries, reads only their rows:
    the real rows ``keep`` and ``keep + dim(dim-1)/2`` of the upper ones'
    imaginary parts, in that order.
    """
    diag, upper, lower = _vec_indices(dim)
    needed = np.concatenate([diag, upper])
    keep = np.arange(len(needed)) if keep is None else keep
    split = np.count_nonzero(keep < dim)
    out = np.empty((2 * len(keep) - split, dim * dim))
    for start, stop in [(0, split)] + [(a, min(a + dim, len(keep)))
                                       for a in range(split, len(keep), dim)]:
        rows = rows_of(needed[keep[start:stop]])
        lv = np.concatenate([rows[:, diag],
                             np.sqrt(0.5) * (rows[:, upper] + rows[:, lower]),
                             1j * np.sqrt(0.5) * (rows[:, upper] - rows[:, lower])], axis=1)
        if start < split:  # the diagonal rows
            out[:split] = lv.real
        else:
            imag = start + len(keep) - split
            out[start:stop] = np.sqrt(2) * lv.real
            out[imag:imag + len(lv)] = np.sqrt(2) * lv.imag
    return out


def _real_permutation(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The map x -> y[j, k] = x[order[j], order[k]] of Hermitian matrices in real
    coordinates, y_c = sign[c] x_perm[c]: a signed permutation (perm, sign).
    An imaginary coordinate changes sign where ``order`` swaps its pair's rows."""
    dim = len(order)
    j, k = np.triu_indices(dim, 1)
    a, b = order[j], order[k]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    pair = dim + lo * (2 * dim - lo - 1) // 2 + hi - lo - 1  # position of (lo, hi) in triu order
    perm = np.concatenate([order, pair, pair + len(j)])
    sign = np.concatenate([np.ones(dim + len(j)), np.where(a < b, 1.0, -1.0)])
    return perm, sign


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


def _cube(weight: np.ndarray, n: int) -> list | None:
    """The sub-cube of the (2,)*n view of ``weight`` that holds its nonzero entries: per
    axis the one bit they all have, or None where they have both; None for a zero weight."""
    on = weight.reshape((2,) * n) != 0
    if not on.any():
        return None
    return [None if held.all() else int(held[1])
            for held in (on.any(axis=tuple(a for a in range(n) if a != axis))
                         for axis in range(n))]


def _half_term(p: int, q: int, u: np.ndarray, v: np.ndarray | None, n: int):
    """The piece u[a] v[b] x[a ^ p, b ^ q] (v None: no column factor) as a half-table
    term (at, src, factors), or None when its weight is zero.

    With x and the output viewed as (2,)*2n, the term adds prod(factors) *
    x[src] into out[at]. ``at`` fixes each axis on which the weight is
    nonzero at one bit only, so the term covers the sub-cube that holds the
    weight (a quarter of the matrix for a sigma_- jump), and ``src`` fixes
    the same axes at that bit flipped by the masks and reverses the free
    axes that the masks flip. A factor constant on the sub-cube becomes a
    scalar, folded into the other factor when there is one.
    """
    rows = _cube(u, n)
    cols = [None] * n if v is None else _cube(v, n)
    if rows is None or cols is None:
        return None
    fixed = rows + cols
    flips = _flip_axes(p, q, n)
    at = tuple(slice(None) if bit is None else bit for bit in fixed) + (...,)  # a view, even 0-d
    src = tuple(slice(None, None, -1 if axis in flips else 1) if bit is None
                else bit ^ (axis in flips) for axis, bit in enumerate(fixed))
    free_rows = sum(bit is None for bit in rows)
    free_cols = sum(bit is None for bit in cols)
    scalar, factors = 1.0, []
    for weight, idx, shape in ((u, at[:n], (2,) * free_rows + (1,) * free_cols),
                               (v, at[n:], (1,) * free_rows + (2,) * free_cols)):
        if weight is None:
            continue
        sub = weight.reshape((2,) * n)[idx]
        if np.all(sub == sub.flat[0]):
            scalar = scalar * sub.flat[0]
        else:
            factors.append(sub.reshape(shape))
    if not factors:
        return at, src, (scalar,)
    return at, src, (scalar * factors[0], *factors[1:])


def _half_table(k_op, jump_ops, n: int) -> tuple:
    """Terms (``_half_term``) of the half H = -i K x + 1/2 sum_k J_k x J_k^dag.

    One term per distinct flip mask p of K, which flips rows only, and one
    per mask pair (p, q) of each jump, on the sub-cube where its weight is
    nonzero. The diagonal pieces, K's mask 0 and each jump's pair (0, 0),
    come first: alone, K's is a column vector; with any jump's, they merge
    into one full 2^n x 2^n weight.
    """
    k_weights = dict(k_op.flip_weights())
    diag = -1j * k_weights.pop(0) if 0 in k_weights else None
    jump_weights = [jump.flip_weights() for jump in jump_ops]
    zero = [u for weights in jump_weights for p, u in weights if p == 0]
    terms = []
    if zero:
        stacked = np.stack(zero, axis=1)
        full = (0.5 * stacked) @ stacked.conj().T
        if diag is not None:
            full += diag[:, None]
        everywhere = (slice(None),) * (2 * n)
        terms.append((everywhere, everywhere, (full.reshape((2,) * (2 * n)),)))
    elif diag is not None:
        terms.append(_half_term(0, 0, diag, None, n))
    terms += [_half_term(p, 0, -1j * u, None, n) for p, u in k_weights.items()]
    terms += [_half_term(p, q, 0.5 * u, v.conj(), n)
              for weights in jump_weights for p, u in weights for q, v in weights if p or q]
    return tuple(term for term in terms if term is not None)


_TILE = 64  # rows and columns of one tile of the in-place mirror


def _mirror(h: np.ndarray) -> np.ndarray:
    """h + h^dag into h itself, one pair of tiles at a time; returns h.

    Entry (j, i) becomes the exact conjugate of entry (i, j), and no
    temporary is larger than one tile.
    """
    dim = len(h)
    for i in range(0, dim, _TILE):
        tile = h[i:i + _TILE, i:i + _TILE]
        tile += tile.conj().T
        for j in range(i + _TILE, dim, _TILE):
            upper, lower = h[i:i + _TILE, j:j + _TILE], h[j:j + _TILE, i:i + _TILE]
            upper += lower.conj().T
            np.conjugate(upper.T, out=lower)
    return h


class PauliLindbladian:
    """The computational-basis generator of a model, from its Pauli sums.

    K and the J_k are held as ``PauliSum``s (``k_op``, ``jump_ops``), and
    every method reads them or a table compiled from them. Like
    ``Lindbladian``, ``apply`` and ``adjoint`` take Hermitian matrices only
    and return exactly Hermitian ones, G(x) = H + H^dag with

        H = -i K x + 1/2 sum_k J_k x J_k^dag,   H' = i K^dag y + 1/2 sum_k J_k^dag y J_k

    for the adjoint. Each half is a table (``_half_table``) compiled on
    first use, the adjoint's from -K^dag and the J_k^dag. A K term flips
    rows only, so with x viewed as (2,)*2n every inner loop runs along a
    contiguous row of 2^n entries, and a jump term covers only the sub-cube
    where its weight is nonzero. H is summed term by term into a fresh
    array, each product going through one scratch buffer that every call
    reuses, and mirrored in place (``_mirror``).

    ``superoperator`` accepts any matrix: it scatters the full two-sided
    table ``terms``, one term (axes, factors) per distinct mask pair (p, q),
    standing for x -> W * flip(x, axes) with W the product of its broadcast
    factors: a column u for a -i K x piece, a row for an i x K^dag piece, a
    column times a row for a J_k x J_k^dag piece. A mask pair reached by
    several pieces holds them merged in one full 2^n x 2^n weight.
    """

    def __init__(self, model):
        roots = _sqrt_rates(model.rates)
        self.n = model.n_qubits
        k_op = model.hamiltonian
        for rate, jump in model.dissipators:
            k_op = k_op - (0.5j * rate) * (jump.dagger() * jump)
        self.k_op = k_op
        self.jump_ops = [root * jump for root, jump in zip(roots, model.jumps)]

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @functools.cached_property
    def terms(self) -> tuple[tuple[tuple[int, ...], tuple[np.ndarray, ...]], ...]:
        """(flip axes, weight factors) per distinct mask pair (p, q) of G."""
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

    def reversal_defect(self) -> float:
        """||S G S - G||_F / ||G||_F (0 for G = 0) for the site reversal
        S(x) = R x R, R|b_1 ... b_n> = |b_n ... b_1>, read from ``terms``: S G S
        has, on the flip axes of term t mirrored, t's weight with both index
        halves reversed, and distinct terms hold disjoint entries of G."""
        n, shape = self.n, (2,) * (2 * self.n)
        mirror = [*range(n - 1, -1, -1), *range(2 * n - 1, n - 1, -1)]
        weights = {axes: functools.reduce(np.multiply, [np.broadcast_to(f, shape) for f in factors])
                   for axes, factors in self.terms}
        squared = defect = 0.0
        for axes, w in weights.items():
            diff = np.transpose(w, mirror) - weights.get(tuple(sorted(mirror[k] for k in axes)), 0.0)
            squared += np.vdot(w, w).real
            defect += np.vdot(diff, diff).real
        return float(np.sqrt(defect / squared)) if squared else 0.0

    @functools.cached_property
    def half_terms(self) -> tuple:
        """The table of H = -i K x + 1/2 sum_k J_k x J_k^dag (``_half_table``)."""
        return _half_table(self.k_op, self.jump_ops, self.n)

    @functools.cached_property
    def adjoint_half_terms(self) -> tuple:
        """The table of H' = i K^dag y + 1/2 sum_k J_k^dag y J_k."""
        return _half_table(-self.k_op.dagger(), [j.dagger() for j in self.jump_ops], self.n)

    @functools.cached_property
    def _scratch(self) -> np.ndarray:
        """The buffer every term's product goes through, reused by each apply and
        adjoint: one generator serves one caller at a time."""
        return np.empty(self.dim * self.dim, dtype=complex)

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

    def _mirrored_half(self, x: np.ndarray, table) -> np.ndarray:
        """H + H^dag, with H summed from ``table`` into a fresh array and mirrored there."""
        x = np.asarray(x, dtype=complex).reshape((2,) * (2 * self.n))
        out = np.zeros_like(x)
        for at, src, (first, *rest) in table:
            target = out[at]
            tmp = self._scratch[:target.size].reshape(target.shape)
            np.multiply(first, x[src], out=tmp)
            for factor in rest:
                tmp *= factor
            target += tmp
        return _mirror(out.reshape(self.dim, self.dim))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """G(x) = H + H^dag for Hermitian x, exactly Hermitian."""
        return self._mirrored_half(x, self.half_terms)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """G^dag(y) = H' + H'^dag for Hermitian y, exactly Hermitian.

        The adjoint under the real inner product Re Tr(x^dag y) on Hermitian
        matrices: <G x, y> = <x, G^dag y>.
        """
        return self._mirrored_half(y, self.adjoint_half_terms)
