"""Statevector engine: ansatz preparation and overlap evaluation.

This module plays the part of the quantum processor. Pauli words act on
amplitudes by a bit-mask permutation plus phases, so a Pauli sum, as one
weight vector per distinct flip mask (``PauliSum.flip_weights``), costs
one multiply and one row gather per mask instead of a dense matrix
product. Every state, a seed included, is an ``AnsatzSet`` held on the
sorted rows where it is nonzero (zero off them): a state grown from a
basis state costs its support, not 2^n.

Moment-state generation follows the cumulative construction: level j
holds states reached by words of exactly j Hamiltonian Pauli strings,
and the cumulative set is the union of levels 0..K. Candidates whose
overlap magnitude with a retained state exceeds 1 - DEDUP_TOL are
duplicates (a global phase on an ansatz state is absorbed by the
coefficient matrix, so phases are irrelevant to the expressible set).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .pauli import PauliSum, string_masks

DEDUP_TOL = 1e-10
_PHASE_EPS = 1e-9
_BATCH_ROWS = 1 << 16   # candidate amplitudes computed together in moment growth


def _gather(rows: np.ndarray, block: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Rows ``src`` of the state(s) held on the sorted ``rows``, zero off them."""
    if not len(rows):
        return np.zeros((len(src),) + block.shape[1:], dtype=complex)
    pos = np.minimum(np.searchsorted(rows, src), len(rows) - 1)
    out = block[pos]
    out[rows[pos] != src] = 0
    return out


def _apply_at(op: PauliSum, rows: np.ndarray, block: np.ndarray, at: np.ndarray) -> np.ndarray:
    """(op S)[at] = sum_p u_p[a] S[a ^ p] along axis 0, for the (p, u_p)
    pairs of ``PauliSum.flip_weights`` at the sorted rows ``at``: one
    multiply per mask, and one row gather per mask other than 0. S is held
    on the sorted ``rows``.
    """
    block = np.asarray(block, dtype=complex)
    shape = (-1,) + (1,) * (block.ndim - 1)
    out = None
    for mask, weights in op.flip_weights(at):
        if mask:
            term = _gather(rows, block, at ^ mask)
            term *= weights.reshape(shape)
        else:
            term = weights.reshape(shape) * (block if rows is at else _gather(rows, block, at))
        if out is None:
            out = term
        else:
            out += term
    return np.zeros((len(at),) + block.shape[1:], dtype=complex) if out is None else out


def apply_to_columns(op: PauliSum, matrix: np.ndarray) -> np.ndarray:
    """Apply a Pauli sum to every column of a (2^n, m) array."""
    rows = np.arange(len(matrix))
    return _apply_at(op, rows, matrix, rows)


def _canonical_phase(amps: np.ndarray) -> np.ndarray:
    """Rescale so the first non-negligible amplitude is real positive."""
    above = np.flatnonzero(np.abs(amps) > _PHASE_EPS)
    if len(above) == 0:
        return amps
    a = amps[above[0]]
    return amps * (a.conjugate() / abs(a))


@dataclass(frozen=True)
class AnsatzSet:
    """Ordered ansatz states held on their support, with the Pauli words
    that produced them.

    ``rows`` are the sorted basis indices where some state is nonzero, and
    ``block`` is the read-only (len(rows), L) array of the states there, one
    column each; rows where every state vanishes are dropped. A bitstring
    ansatz so costs |rows|, never 2^n.

    ``words[i]`` is the sequence of Hamiltonian term indices applied to
    the seed (first applied first); the seed itself has the empty word.
    Together with the seed descriptor and rng seed this is enough to
    regenerate the set bit-identically.
    """

    n_qubits: int
    rows: np.ndarray
    block: np.ndarray
    words: tuple[tuple[int, ...], ...]
    seed_descriptor: str = "custom"
    rng_seed: int | None = None

    def __post_init__(self):
        n = self.n_qubits
        rows = np.asarray(self.rows)
        block = np.array(self.block, dtype=complex, order="C")
        if (not isinstance(n, int) or n < 1 or rows.ndim != 1 or block.ndim != 2
                or block.shape[0] != len(rows)):
            raise DimensionMismatchError(
                f"an ansatz needs n >= 1 and a (len(rows), L) block, got n={n!r}, "
                f"{len(rows) if rows.ndim == 1 else rows.shape} rows, block {block.shape}")
        rows = rows.astype(np.int64)
        if len(rows) and (rows[0] < 0 or rows[-1] >= 2 ** n or (np.diff(rows) <= 0).any()):
            raise DimensionMismatchError(
                f"ansatz rows must be increasing basis indices below 2^{n}")
        if block.shape[1] == 0:
            raise ValueError("empty ansatz")
        kept = (block != 0).any(axis=1)
        if not kept.all():
            rows, block = rows[kept], block[kept]
        rows.flags.writeable = False
        block.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "block", block)

    @property
    def size(self) -> int:
        return self.block.shape[1]

    @property
    def columns(self) -> np.ndarray:
        """The (2^n, L) dense states, scattered from the block on each read."""
        out = np.zeros((2 ** self.n_qubits, self.size), dtype=complex)
        out[self.rows] = self.block
        return out

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.n_qubits).encode())
        h.update(self.rows.tobytes())
        h.update(self.block.tobytes())
        h.update(json.dumps(self.words).encode())
        return h.hexdigest()[:16]

    def to_record(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "seed_descriptor": self.seed_descriptor,
            "rng_seed": self.rng_seed,
            "words": [list(w) for w in self.words],
        }


def basis_state(n_qubits: int, bits: str) -> AnsatzSet:
    """Computational basis state from a bitstring (site 1 = leftmost bit), as
    a one-state set held on its one row."""
    if len(bits) != n_qubits or set(bits) - {"0", "1"}:
        raise DimensionMismatchError(f"need {n_qubits} bits, got {bits!r}")
    return AnsatzSet(n_qubits, [int(bits, 2)], [[1.0]], ((),))


def uniform_state(n_qubits: int) -> AnsatzSet:
    """The equal superposition of all 2^n basis states, as a one-state set."""
    dim = 2 ** n_qubits
    return AnsatzSet(n_qubits, np.arange(dim), np.full((dim, 1), 1.0 / np.sqrt(dim)), ((),))


class _Retained:
    """Phase-canonical retained states on their union support, with their words.

    ``buf`` holds one row per state and one column per support index, in
    the order the indices first appeared. ``index`` holds the support
    indices in increasing order, ending in the sentinel 2^n, over their
    columns, so a lookup of many rows is one ``searchsorted``; ``peak``
    holds the largest magnitude a state has in each column. Each state
    keeps its own sorted rows with their columns, so an extension and a
    candidate's dedup overlap cost the candidate's support: a one-element
    candidate c|b> overlaps a state s by |s_b||c|, so it dedups by a lookup
    of its bitstring.
    """

    def __init__(self, seed: AnsatzSet):
        if seed.size != 1:
            raise ValueError(f"a seed is one state, got {seed.size}")
        self.n = seed.n_qubits
        self.buf = np.zeros((16, max(len(seed.rows), 1)), dtype=complex)
        self.peak = np.zeros(self.buf.shape[1])
        self.index = np.array([[2 ** self.n], [-1]], dtype=np.int64)
        self.states: list[tuple[np.ndarray, np.ndarray]] = []   # (rows, columns) of each state
        self.words: list[tuple[int, ...]] = []
        self.add_if_new(seed.rows, seed.block[:, 0], ())

    def __len__(self) -> int:
        return len(self.words)

    def add_if_new(self, rows: np.ndarray, amps: np.ndarray, word: tuple[int, ...]) -> bool:
        """Keep a candidate held on the sorted ``rows`` unless it duplicates a
        retained state up to phase."""
        canon = _canonical_phase(amps)
        k = len(self.words)
        pos = self.index[0].searchsorted(rows)
        keys, cols = self.index[:, pos]
        new = keys != rows   # rows without a column yet
        overlap = self.buf[:k, cols[~new]] @ canon[~new].conj()
        if k and np.abs(overlap).max() > 1.0 - DEDUP_TOL:
            return False
        if new.any():
            cols[new] = self._add_columns(rows[new], pos[new])
        self.peak[cols] = np.maximum(self.peak[cols], np.abs(canon))
        if k == len(self.buf):
            self.buf = np.concatenate([self.buf, np.zeros_like(self.buf)])
        self.buf[k, cols] = canon
        self.states.append((rows, cols))
        self.words.append(word)
        return True

    def _known(self, row: int, magnitude: float) -> bool:
        """Whether a one-element candidate of this magnitude at ``row``
        duplicates a retained state: a lookup in place of ``add_if_new``'s overlap."""
        keys = self.index[0]
        pos = keys.searchsorted(row)
        return keys[pos] == row and self.peak[self.index[1, pos]] * magnitude > 1.0 - DEDUP_TOL

    def _add_columns(self, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Zero columns for ``rows``, which go in at positions ``pos`` of
        ``index``; returns their numbers."""
        m = self.index.shape[1] - 1
        fresh = np.arange(m, m + len(rows))
        self.index = np.insert(self.index, pos, (rows, fresh), axis=1)
        if m + len(rows) > self.buf.shape[1]:
            width = max(2 * self.buf.shape[1], m + len(rows))
            self.buf = np.concatenate(
                [self.buf[:, :m], np.zeros((len(self.buf), width - m), dtype=complex)], axis=1)
            self.peak = np.concatenate([self.peak[:m], np.zeros(width - m)])
        return fresh

    def extend(self, pairs: list[tuple[int, int]], ops: list[PauliSum]) -> list[int]:
        """Apply Hamiltonian word i (``ops[i]``, a one-term sum) to retained
        state src for each (src, i) in turn, keeping each result that is new;
        returns the indices of the states kept.

        The candidates of a batch of pairs are computed together: word i
        moves row t to a = t ^ p_i with the weight u_{p_i}[a] of
        ``PauliSum.flip_weights``, and the moved rows are sorted within each
        candidate.
        """
        kept = []
        masks = np.array([string_masks(op.terms[0][1].codes)[0] for op in ops])
        lens = [len(self.states[src][0]) for src, _ in pairs]
        ends = np.cumsum(lens)
        most = 1 << max(0, 62 - self.n)   # pairs per batch, so that (seg << n) | row fits in int64
        start = 0
        while start < len(pairs):
            stop = max(start + 1, min(start + most, int(np.searchsorted(
                ends, ends[start] - lens[start] + _BATCH_ROWS, side="right"))))
            batch = pairs[start:stop]
            sizes = lens[start:stop]
            which = np.repeat([i for _, i in batch], sizes)
            seg = np.repeat(np.arange(len(batch)), sizes)
            moved = np.concatenate([self.states[src][0] for src, _ in batch]) ^ masks[which]
            amps = self.buf[np.repeat([src for src, _ in batch], sizes),
                            np.concatenate([self.states[src][1] for src, _ in batch])]
            weights = np.empty(len(moved), dtype=complex)
            for i in sorted({i for _, i in batch}):
                at = np.flatnonzero(which == i)
                ((_, weights[at]),) = ops[i].flip_weights(moved[at])
            amps = amps * weights   # a weight is +-1 or +-i, so exact in any order
            order = np.argsort((seg << self.n) | moved)
            moved, amps = moved[order], amps[order]
            hi = np.cumsum(sizes)
            lo = hi - sizes
            heads, mags = moved[lo].tolist(), np.abs(amps[lo]).tolist()
            for (src, i), a, b, row, mag in zip(batch, lo.tolist(), hi.tolist(), heads, mags):
                if b - a == 1 and self._known(row, mag):
                    continue
                if self.add_if_new(moved[a:b], amps[a:b], self.words[src] + (i,)):
                    kept.append(len(self.words) - 1)
            start = stop
        return kept

    def ansatz(self, seed_descriptor: str, rng_seed: int | None = None) -> AnsatzSet:
        return AnsatzSet(
            n_qubits=self.n,
            rows=self.index[0, :-1],
            block=self.buf[:len(self), self.index[1, :-1]].T,
            words=tuple(self.words),
            seed_descriptor=seed_descriptor,
            rng_seed=rng_seed,
        )


def moment_states(hamiltonian: PauliSum, seed: AnsatzSet, order: int,
                  seed_descriptor: str = "custom") -> AnsatzSet:
    """Cumulative moment states of the given order from a seed state.

    The seed is a one-state ``AnsatzSet`` (``basis_state``,
    ``uniform_state``); a set of more than one state raises ``ValueError``.
    Level 0 is the seed; level j applies every Hamiltonian Pauli word to
    each retained level-(j-1) state. Duplicates (up to global phase) are
    dropped, so the result size is at most 1 + r + ... + r^order.
    """
    return _grow_levels(hamiltonian, seed, order, None, None, seed_descriptor)


def moment_states_random(hamiltonian: PauliSum, seed: AnsatzSet, order: int,
                         q: int, rng_seed: int,
                         seed_descriptor: str = "custom") -> AnsatzSet:
    """Random-subset variant: each level keeps at most q one-step extensions.

    Level j draws q (word, state) extensions uniformly without
    replacement from all extensions of the retained level-(j-1) states.
    Deterministic for a fixed rng_seed; with q at least the number of
    extensions of every level it returns the states and words of
    ``moment_states`` bit for bit.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    return _grow_levels(hamiltonian, seed, order, q, rng_seed, seed_descriptor)


def _grow_levels(hamiltonian: PauliSum, seed: AnsatzSet, order: int, q: int | None,
                 rng_seed: int | None, seed_descriptor: str) -> AnsatzSet:
    """The level loop of both generators; q=None keeps every extension."""
    if order < 0:
        raise ValueError("order must be >= 0")
    rng = None if q is None else np.random.default_rng(rng_seed)
    ops = [PauliSum([(1.0, s)]) for _, s in hamiltonian.terms]
    kept = _Retained(seed)
    frontier = [0]
    for _ in range(order):
        pairs = [(src, i) for src in frontier for i in range(len(ops))]
        if q is not None and len(pairs) > q:
            chosen = rng.choice(len(pairs), size=q, replace=False)
            pairs = [pairs[k] for k in sorted(chosen)]
        next_frontier = kept.extend(pairs, ops)
        if not next_frontier:
            break
        frontier = next_frontier
    return kept.ansatz(seed_descriptor, rng_seed)


def density_from_beta(beta: np.ndarray, ansatz: AnsatzSet) -> np.ndarray:
    """Dense rho = sum_ij beta_ij |chi_i><chi_j| for desk-scale verification."""
    s = ansatz.columns
    return s @ np.asarray(beta, dtype=complex) @ s.conj().T
