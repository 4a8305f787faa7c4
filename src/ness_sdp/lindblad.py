"""The Lindblad generator in one form, for every basis the package uses.

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
"""
from __future__ import annotations

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
    """G and its adjoint as short sequences of matrix products.

    Holds K, K^dag, every J_k and J_k^dag densely: 2(1 + k) matrices of
    the basis dimension, plus the metric when it is not the identity.
    """

    def __init__(self, k: np.ndarray, jumps, metric: np.ndarray | None = None):
        self.k = np.asarray(k, dtype=complex)
        self.k_dag = self.k.conj().T
        self.jumps = [np.asarray(j, dtype=complex) for j in jumps]
        self.jumps_dag = [j.conj().T for j in self.jumps]
        self.metric = metric

    @classmethod
    def from_model(cls, model) -> "Lindbladian":
        """Computational-basis generator from dense Pauli-sum expansions."""
        n = model.n_qubits
        k = model.hamiltonian.to_dense(dense_limit=n)
        jumps = []
        for root, (rate, jump) in zip(_sqrt_rates(model.rates), model.dissipators):
            a = jump.to_dense(dense_limit=n)
            k = k - 0.5j * rate * (a.conj().T @ a)
            jumps.append(root * a)
        return cls(k, jumps)

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
