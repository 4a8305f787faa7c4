"""Shared test helpers.

The dense helpers here are intentionally independent of the package's
own dense paths (plain numpy kron products built from a local Pauli
table), so they can serve as oracles for the algebra they check.
"""
import numpy as np
import pytest

from ness_sdp.models import OpenSystemModel
from ness_sdp.pauli import PauliString, PauliSum, sigma_minus
from ness_sdp.states import AnsatzSet, StateVector

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_string(codes: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for ch in codes:
        out = np.kron(out, PAULI_1Q[ch])
    return out


def dense_sum(op: PauliSum) -> np.ndarray:
    dim = 2 ** op.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, string in op.terms:
        out += coeff * dense_string(string.codes)
    return out


def dense_exchange_parity(n: int) -> np.ndarray:
    """S = P * prod_j X_j from index arithmetic: flip every bit, then reverse
    the bit order (site j <-> site n+1-j)."""
    dim = 2 ** n
    idx = np.arange(dim)
    flipped = idx ^ (dim - 1)
    rev = np.zeros(dim, dtype=int)
    for b in range(n):
        rev |= ((flipped >> b) & 1) << (n - 1 - b)
    s = np.zeros((dim, dim), dtype=complex)
    s[rev, idx] = 1.0
    return s


def dense_symmetry(spec) -> np.ndarray:
    """U from the definition U|b> = exp(i phase m(c)) |c>, one basis state at a
    time: site j's bit of b goes to site permutation[j-1], then the flip sites
    toggle, and m(c) counts +1 per 0 bit and -1 per 1 bit."""
    n = len(spec.permutation)
    flip = [int(ch) for ch in spec.flip]
    u = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for b in range(2 ** n):
        bits = [int(ch) for ch in format(b, f"0{n}b")]
        moved = [0] * n
        for j, site in enumerate(spec.permutation):
            moved[site - 1] = bits[j]
        c = [bit ^ f for bit, f in zip(moved, flip)]
        m = sum(1 - 2 * bit for bit in c)
        u[int("".join(map(str, c)), 2), b] = np.exp(1j * spec.phase * m)
    return u


def dense_lindblad(model: OpenSystemModel, rho: np.ndarray) -> np.ndarray:
    """L[rho] assembled from scratch with the local dense table."""
    h = dense_sum(model.hamiltonian)
    out = -1j * (h @ rho - rho @ h)
    for rate, jump in model.dissipators:
        a = dense_sum(jump)
        ada = a.conj().T @ a
        out += rate * (a @ rho @ a.conj().T - 0.5 * (ada @ rho + rho @ ada))
    return out


def dense_lindblad_adjoint(model: OpenSystemModel, y: np.ndarray) -> np.ndarray:
    """L^dag[y] under the Frobenius inner product, from the local dense table."""
    h = dense_sum(model.hamiltonian)
    out = 1j * (h @ y - y @ h)
    for rate, jump in model.dissipators:
        a = dense_sum(jump)
        ada = a.conj().T @ a
        out += rate * (a.conj().T @ y @ a - 0.5 * (ada @ y + y @ ada))
    return out


def random_pauli_string(rng, n: int) -> PauliString:
    return PauliString("".join(rng.choice(list("IXYZ"), size=n)))


def random_pauli_sum(rng, n: int, n_terms: int, hermitian: bool = False) -> PauliSum:
    terms = []
    for _ in range(n_terms):
        coeff = rng.normal() + (0 if hermitian else 1j * rng.normal())
        terms.append((coeff, random_pauli_string(rng, n)))
    out = PauliSum(terms, n_qubits=n)
    if out.n_terms == 0:
        out = PauliSum.identity(n)
    return out


def random_model(rng, n: int, n_diss: int = 2) -> OpenSystemModel:
    ham = random_pauli_sum(rng, n, n_terms=3, hermitian=True)
    dissipators = tuple(
        (float(rng.uniform(0.2, 1.5)), random_pauli_sum(rng, n, n_terms=2))
        for _ in range(n_diss)
    )
    return OpenSystemModel(n_qubits=n, hamiltonian=ham, dissipators=dissipators,
                           label="random")


def shared_mask_model(rng, n: int) -> OpenSystemModel:
    """Words sharing one flip mask: X1 with Y1 Z2 in a non-Hermitian jump,
    X and Y in sigma_- on the last site, X..X with Y..Y in H; plus a random
    non-Hermitian three-word jump."""
    ham = (PauliSum([(0.7, "X" * n), (0.4, "Y" * n), (-0.3, "Z" + "I" * (n - 1))])
           + random_pauli_sum(rng, n, n_terms=3, hermitian=True))
    shared = PauliSum([(1.0, "X" + "I" * (n - 1)),
                       (0.4j, ("YZ" + "I" * (n - 2)) if n > 1 else "Y"),
                       (0.2 - 0.1j, "I" * (n - 1) + "Z")])
    return OpenSystemModel(n, ham, ((0.8, shared), (0.5, sigma_minus(n, n)),
                                    (1.1, random_pauli_sum(rng, n, n_terms=3))),
                           label="shared-mask")


def random_state(rng, n: int) -> StateVector:
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_ansatz(rng, n: int, size: int) -> AnsatzSet:
    return AnsatzSet(
        columns=np.column_stack([random_state(rng, n).amplitudes for _ in range(size)]),
        words=tuple((k,) for k in range(size)),
        seed_descriptor="random-test",
    )


def random_hermitian(rng, dim: int) -> np.ndarray:
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (mat + mat.conj().T) / 2


def random_density(rng, dim: int) -> np.ndarray:
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
