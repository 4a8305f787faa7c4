"""Galerkin overlap matrices E, D, R_n, F_n and observable matrices.

Assembly evaluates every matrix element exactly through the statevector
engine; an optional Gaussian perturbation of the entries emulates
finite-shot estimation on hardware. Hermiticity of E, D, F_n (and of
observable matrices for Hermitian observables) is enforced by
symmetrization so downstream solver assumptions hold exactly.

The projected generator used everywhere downstream is

    G(beta) = -i (K beta E - E beta K^dag) + sum_n gamma_n R_n beta R_n^dag,
    K = D - (i/2) sum_n gamma_n F_n,

which equals the matrix [<chi_i| L[rho] |chi_j>] for
rho = sum_ij beta_ij |chi_i><chi_j|. ``OverlapSet.generator()`` returns
it as a ``lindblad.Lindbladian`` with metric E.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError
from .lindblad import Lindbladian, hermitize
from .models import OpenSystemModel
from .pauli import PauliSum, string_masks
from .states import AnsatzSet, _apply_at


@dataclass(frozen=True)
class OverlapSet:
    """Galerkin matrices of one (model, ansatz) pair, all L x L complex."""

    E: np.ndarray
    D: np.ndarray
    R: tuple[np.ndarray, ...]
    F: tuple[np.ndarray, ...]
    rates: tuple[float, ...]
    shots: int | None = None

    @property
    def size(self) -> int:
        return self.E.shape[0]

    def generator(self) -> Lindbladian:
        """The projected generator G(beta), built from the current E, D, R, F."""
        return Lindbladian.from_overlaps(self)


def assemble(model: OpenSystemModel, ansatz: AnsatzSet) -> OverlapSet:
    """Exact overlap matrices for a model/ansatz pair.

    Every S^dag X sums over the ansatz's support T, so X is evaluated at T
    only; F_n = X_n^dag X_n sums over the rows where X_n = A_n S has a
    nonzero, all of them in T ^ (the flip masks of A_n). A basis-state
    ansatz so pays for its support, not for 2^n. With a single nonzero per
    column the sums have one term, so they are exact in any order.
    """
    if model.n_qubits != ansatz.n_qubits:
        raise DimensionMismatchError(
            f"model on {model.n_qubits} qubits, ansatz on {ansatz.n_qubits}"
        )
    rows, block = ansatz.rows, ansatz.block
    sdag = block.conj().T
    gram = hermitize(sdag @ block)
    ham = hermitize(sdag @ _apply_at(model.hamiltonian, rows, block, rows))
    r_mats = []
    f_mats = []
    for _, jump in model.dissipators:
        at = _reach(jump, rows)
        x_n = _apply_at(jump, rows, block, at)
        r_mats.append(sdag @ (x_n if at is rows else x_n[np.searchsorted(at, rows)]))
        x_n = x_n[(x_n != 0).any(axis=1)]
        f_mats.append(hermitize(x_n.conj().T @ x_n))
    return OverlapSet(
        E=gram,
        D=ham,
        R=tuple(r_mats),
        F=tuple(f_mats),
        rates=model.rates,
    )


def _reach(op: PauliSum, rows: np.ndarray) -> np.ndarray:
    """The sorted rows that S and op S live on, for S held on ``rows``:
    ``rows`` itself when op moves no row outside them."""
    masks = sorted({string_masks(string.codes)[0] for _, string in op.terms})
    at = np.sort(np.concatenate([rows] + [rows ^ p for p in masks]))
    at = at[np.append(True, at[1:] != at[:-1])]   # np.unique would import numpy.ma
    return rows if len(at) == len(rows) else at


def observable_matrix(obs: PauliSum, ansatz: AnsatzSet) -> np.ndarray:
    """Ansatz-projected observable: entries <chi_i| O |chi_j>, summed over the ansatz's support."""
    if obs.n_qubits != ansatz.n_qubits:
        raise DimensionMismatchError(
            f"observable on {obs.n_qubits} qubits, ansatz on {ansatz.n_qubits}"
        )
    rows, block = ansatz.rows, ansatz.block
    mat = block.conj().T @ _apply_at(obs, rows, block, rows)
    return hermitize(mat) if obs.is_hermitian() else mat


def _perturb_hermitian(mat: np.ndarray, std: float, rng) -> np.ndarray:
    """Noise on the upper triangle (diagonal real), mirrored to stay Hermitian."""
    size = mat.shape[0]
    noise = rng.normal(0.0, std, (size, size)) + 1j * rng.normal(0.0, std, (size, size))
    upper = np.triu(noise, 1)
    diag = np.diag(rng.normal(0.0, std, size))
    return mat + upper + upper.conj().T + diag


def add_shot_noise(overlaps: OverlapSet, shots: int, rng_seed: int) -> OverlapSet:
    """Gaussian perturbation with std 1/sqrt(shots) per quadrature and entry."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(rng_seed)
    std = 1.0 / np.sqrt(shots)
    gram = _perturb_hermitian(overlaps.E, std, rng)
    ham = _perturb_hermitian(overlaps.D, std, rng)
    r_mats = tuple(
        m + rng.normal(0.0, std, m.shape) + 1j * rng.normal(0.0, std, m.shape)
        for m in overlaps.R
    )
    f_mats = tuple(_perturb_hermitian(m, std, rng) for m in overlaps.F)
    return replace(overlaps, E=gram, D=ham, R=r_mats, F=f_mats, shots=shots)


def expectation(beta: np.ndarray, obs: np.ndarray) -> complex:
    """Tr(beta O~) = Tr(rho O) for the reconstructed density matrix, O~ from ``observable_matrix``."""
    return complex(np.trace(np.asarray(beta) @ obs))

