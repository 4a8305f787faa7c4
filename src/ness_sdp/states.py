"""Dense statevector engine: ansatz preparation and overlap evaluation.

This module plays the part of the quantum processor. Pauli words act on
2^n amplitude vectors by a bit-mask permutation plus phases, so a Pauli
sum, compiled once to one weight vector per distinct flip mask
(``PauliSum.flip_weights``), costs one multiply and one row gather per
mask instead of a dense matrix product.

Moment-state generation follows the cumulative construction: level j
holds states reached by words of exactly j Hamiltonian Pauli strings,
and the cumulative set is the union of levels 0..K. Candidates whose
overlap magnitude with a retained state exceeds 1 - DEDUP_TOL are
duplicates (a global phase on an ansatz state is absorbed by the
coefficient matrix, so phases are irrelevant to the expressible set).
"""
from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .pauli import PauliSum

DEDUP_TOL = 1e-10
_PHASE_EPS = 1e-9


def _apply_flips(flips, amps: np.ndarray) -> np.ndarray:
    """sum_p u_p[a] amps[a ^ p] along axis 0, for the (p, u_p) pairs of
    ``PauliSum.flip_weights``: one multiply per mask, and one row gather
    per mask other than 0."""
    amps = np.asarray(amps, dtype=complex)
    idx = np.arange(amps.shape[0])
    shape = (-1,) + (1,) * (amps.ndim - 1)
    out = None
    for mask, weights in flips:
        if mask:
            term = amps[idx ^ mask]
            term *= weights.reshape(shape)
        else:
            term = weights.reshape(shape) * amps
        if out is None:
            out = term
        else:
            out += term
    return np.zeros(amps.shape, dtype=complex) if out is None else out


def apply_to_columns(op: PauliSum, matrix: np.ndarray) -> np.ndarray:
    """Apply a Pauli sum to every column of a (2^n, m) array."""
    return _apply_flips(op.flip_weights(), matrix)


def _support(mask: np.ndarray):
    """Positions where ``mask`` holds: a full slice, which indexes by view, when it holds everywhere."""
    idx = np.flatnonzero(mask)
    return slice(None) if len(idx) == len(mask) else idx


@dataclass(frozen=True)
class StateVector:
    """Dense n-qubit state; amplitudes indexed with site 1 as the MSB."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** self.n_qubits,):
            raise DimensionMismatchError(
                f"expected {2 ** self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n_qubits: int, bits: str) -> "StateVector":
        """Computational basis state from a bitstring (site 1 = leftmost bit)."""
        if len(bits) != n_qubits or set(bits) - {"0", "1"}:
            raise DimensionMismatchError(f"need {n_qubits} bits, got {bits!r}")
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def uniform(cls, n_qubits: int) -> "StateVector":
        dim = 2 ** n_qubits
        return cls(n_qubits, np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))


def basis_state(n_qubits: int, bits: str) -> StateVector:
    return StateVector.basis(n_qubits, bits)


def _canonical_phase(amps: np.ndarray) -> np.ndarray:
    """Rescale so the first non-negligible amplitude is real positive."""
    above = np.flatnonzero(np.abs(amps) > _PHASE_EPS)
    if len(above) == 0:
        return amps
    a = amps[above[0]]
    return amps * (a.conjugate() / abs(a))


@dataclass(frozen=True)
class AnsatzSet:
    """Ordered ansatz states, the columns of one read-only (2^n, L) block,
    with the Pauli words that produced them.

    ``words[i]`` is the sequence of Hamiltonian term indices applied to
    the seed (first applied first); the seed itself has the empty word.
    Together with the seed descriptor and rng seed this is enough to
    regenerate the set bit-identically.
    """

    columns: np.ndarray
    words: tuple[tuple[int, ...], ...]
    seed_descriptor: str = "custom"
    rng_seed: int | None = None

    def __post_init__(self):
        cols = np.array(self.columns, dtype=complex, order="C")
        if cols.ndim != 2 or cols.shape[0] < 2 or cols.shape[0] & (cols.shape[0] - 1):
            raise DimensionMismatchError(
                f"ansatz columns must be a (2^n, L) array with n >= 1, got shape {cols.shape}")
        if cols.shape[1] == 0:
            raise ValueError("empty ansatz")
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def n_qubits(self) -> int:
        return self.columns.shape[0].bit_length() - 1

    @property
    def size(self) -> int:
        return self.columns.shape[1]

    @functools.cached_property
    def support(self):
        """Rows where some column is nonzero (``_support``): the only rows an overlap sums over."""
        return _support((self.columns != 0).any(axis=1))

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.columns.tobytes())
        h.update(json.dumps(self.words).encode())
        return h.hexdigest()[:16]

    def to_record(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "seed_descriptor": self.seed_descriptor,
            "rng_seed": self.rng_seed,
            "words": [list(w) for w in self.words],
        }


class _Retained:
    """Phase-canonical retained states as rows of one growing buffer, with their words."""

    def __init__(self, seed: StateVector):
        self.rows = np.empty((16, 2 ** seed.n_qubits), dtype=complex)
        self.words: list[tuple[int, ...]] = []
        self.add_if_new(seed.amplitudes.astype(complex), ())

    def __len__(self) -> int:
        return len(self.words)

    def add_if_new(self, amps: np.ndarray, word: tuple[int, ...]) -> bool:
        """Keep a candidate unless it duplicates a retained state up to phase."""
        canon = _canonical_phase(amps)
        k = len(self.words)
        if k and np.abs(self.rows[:k] @ canon.conj()).max() > 1.0 - DEDUP_TOL:
            return False
        if k == len(self.rows):
            self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])
        self.rows[k] = canon
        self.words.append(word)
        return True

    def extend(self, src: int, op: PauliSum, i: int) -> bool:
        """Apply Hamiltonian word i (``op``, a one-term sum) to retained state src; keep it if new."""
        return self.add_if_new(_apply_flips(op.flip_weights(), self.rows[src]),
                               self.words[src] + (i,))

    def ansatz(self, seed_descriptor: str, rng_seed: int | None = None) -> AnsatzSet:
        return AnsatzSet(
            columns=self.rows[:len(self)].T,
            words=tuple(self.words),
            seed_descriptor=seed_descriptor,
            rng_seed=rng_seed,
        )


def moment_states(hamiltonian: PauliSum, seed: StateVector, order: int,
                  seed_descriptor: str = "custom") -> AnsatzSet:
    """Cumulative moment states of the given order from a seed state.

    Level 0 is the seed; level j applies every Hamiltonian Pauli word to
    each retained level-(j-1) state. Duplicates (up to global phase) are
    dropped, so the result size is at most 1 + r + ... + r^order.
    """
    return _grow_levels(hamiltonian, seed, order, None, None, seed_descriptor)


def moment_states_random(hamiltonian: PauliSum, seed: StateVector, order: int,
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


def _grow_levels(hamiltonian: PauliSum, seed: StateVector, order: int, q: int | None,
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
        next_frontier = []
        for src, i in pairs:
            if kept.extend(src, ops[i], i):
                next_frontier.append(len(kept) - 1)
        if not next_frontier:
            break
        frontier = next_frontier
    return kept.ansatz(seed_descriptor, rng_seed)


def density_from_beta(beta: np.ndarray, ansatz: AnsatzSet) -> np.ndarray:
    """Dense rho = sum_ij beta_ij |chi_i><chi_j| for desk-scale verification."""
    s = ansatz.columns
    return s @ np.asarray(beta, dtype=complex) @ s.conj().T
