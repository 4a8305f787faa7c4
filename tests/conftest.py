"""Shared test helpers.

The dense helpers here are intentionally independent of the package's
own dense paths (plain numpy kron products built from a local Pauli
table), so they can serve as oracles for the algebra they check.
"""
import numpy as np
import pytest

from ness_sdp import oracle
from ness_sdp.models import OpenSystemModel
from ness_sdp.pauli import PauliString, PauliSum, sigma_minus, sigma_plus, single_site, two_site
from ness_sdp.states import AnsatzSet

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
        out = PauliSum.from_label("I" * n)
    return out


def random_model(rng, n: int, n_diss: int = 2) -> OpenSystemModel:
    ham = random_pauli_sum(rng, n, n_terms=3, hermitian=True)
    dissipators = tuple(
        (float(rng.uniform(0.2, 1.5)), random_pauli_sum(rng, n, n_terms=2))
        for _ in range(n_diss)
    )
    return OpenSystemModel(n_qubits=n, hamiltonian=ham, dissipators=dissipators,
                           label="random")


def reflected(op: PauliSum) -> PauliSum:
    """op with its sites reversed, j <-> n+1-j."""
    return PauliSum([(c, PauliString(s.codes[::-1])) for c, s in op.terms],
                    n_qubits=op.n_qubits)


def reflection_symmetric_model(rng, n: int, n_diss: int = 2) -> OpenSystemModel:
    """A random model whose H, and set of jumps with their rates, are
    invariant under the site reversal j <-> n+1-j."""
    ham = random_pauli_sum(rng, n, n_terms=3, hermitian=True)
    dissipators = []
    for _ in range(n_diss):
        rate, jump = float(rng.uniform(0.2, 1.5)), random_pauli_sum(rng, n, n_terms=2)
        dissipators += [(rate, jump), (rate, reflected(jump))]
    return OpenSystemModel(n_qubits=n, hamiltonian=ham + reflected(ham),
                           dissipators=tuple(dissipators), label="reflected")


def magnetization_conserving_model(rng, n: int, reflect: bool = False) -> OpenSystemModel:
    """A random model whose H and jumps all commute with M = sum_j Z_j:
    XX + YY and ZZ couplings and Z fields in H, Z_j dephasing and
    sigma+_i sigma-_j jumps; with ``reflect``, H and the set of jumps with
    their rates are also invariant under the site reversal."""
    def site():
        return int(rng.integers(1, n + 1))

    ham = PauliSum.zero(n)
    for _ in range(n):
        i, j = site(), site()
        if i != j:
            coupling = rng.normal()
            ham = (ham + two_site(n, i, "X", j, "X", coupling) + two_site(n, i, "Y", j, "Y", coupling)
                   + two_site(n, i, "Z", j, "Z", rng.normal()))
        ham = ham + single_site(n, site(), "Z", rng.normal())
    dissipators = [(float(rng.uniform(0.2, 1.5)), jump) for jump in
                   (single_site(n, site(), "Z"), sigma_plus(n, site()) * sigma_minus(n, site()))]
    if reflect:
        ham = ham + reflected(ham)
        dissipators += [(rate, reflected(jump)) for rate, jump in dissipators]
    return OpenSystemModel(n_qubits=n, hamiltonian=ham, dissipators=tuple(dissipators),
                           label="conserving")


def complex_svd_null_space(model: OpenSystemModel) -> np.ndarray:
    """The null space of the complex column-stacking superoperator
    (``oracle.build_liouvillian``) from its full SVD, with the oracle's
    relative cutoff, as orthonormal rows of real Hermitian coordinates
    (x_jj, sqrt2 Re x_jk, sqrt2 Im x_jk : j < k), one row per null vector."""
    dim = 2 ** model.n_qubits
    _, svals, vh = np.linalg.svd(oracle.build_liouvillian(model))
    null = vh[svals <= oracle.NULL_SPACE_RTOL * max(svals[0], 1e-300)].conj()
    if not len(null):
        return np.empty((0, dim * dim))
    j, k = np.triu_indices(dim, 1)
    coords = []
    for vec in null:  # the Hermitian and anti-Hermitian parts span the same space
        x = vec.reshape(dim, dim, order="F")
        for h in ((x + x.conj().T) / 2, (x - x.conj().T) / 2j):
            coords.append(np.concatenate([h.diagonal().real, np.sqrt(2) * h[j, k].real,
                                          np.sqrt(2) * h[j, k].imag]))
    return np.linalg.svd(np.array(coords), full_matrices=False)[2][:len(null)]


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


def random_state(rng, n: int) -> AnsatzSet:
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return dense_ansatz((amps / np.linalg.norm(amps))[:, None], [()])


def dense_ansatz(columns, words, seed_descriptor: str = "custom") -> AnsatzSet:
    """An ansatz from its dense (2^n, L) columns; it keeps their nonzero rows."""
    cols = np.asarray(columns, dtype=complex)
    return AnsatzSet(n_qubits=cols.shape[0].bit_length() - 1, rows=np.arange(cols.shape[0]),
                     block=cols, words=tuple(words), seed_descriptor=seed_descriptor)


def random_ansatz(rng, n: int, size: int) -> AnsatzSet:
    return dense_ansatz(
        np.column_stack([random_state(rng, n).columns[:, 0] for _ in range(size)]),
        tuple((k,) for k in range(size)),
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


# -- the dense ansatz path, kept as the reference for the support-held one ----

def reference_apply(op: PauliSum, amps: np.ndarray) -> np.ndarray:
    """sum_p u_p[a] amps[a ^ p] over all 2^n rows a, one gather per flip mask."""
    amps = np.asarray(amps, dtype=complex)
    idx = np.arange(amps.shape[0])
    shape = (-1,) + (1,) * (amps.ndim - 1)
    out = np.zeros(amps.shape, dtype=complex)
    for k, (mask, weights) in enumerate(op.flip_weights()):
        if mask:
            term = amps[idx ^ mask]
            term *= weights.reshape(shape)
        else:
            term = weights.reshape(shape) * amps
        out = term if k == 0 else out + term
    return out


def reference_moment_states(hamiltonian: PauliSum, seed: AnsatzSet, order: int,
                            q: int | None = None, rng_seed: int | None = None):
    """(columns, words) of the moment states grown as 2^n-long rows, every
    candidate deduped against every retained row."""
    from ness_sdp.states import DEDUP_TOL, _canonical_phase

    rng = None if q is None else np.random.default_rng(rng_seed)
    ops = [PauliSum([(1.0, s)]) for _, s in hamiltonian.terms]
    rows, words, frontier = [_canonical_phase(seed.columns[:, 0])], [()], [0]
    for _ in range(order):
        pairs = [(src, i) for src in frontier for i in range(len(ops))]
        if q is not None and len(pairs) > q:
            chosen = rng.choice(len(pairs), size=q, replace=False)
            pairs = [pairs[k] for k in sorted(chosen)]
        frontier = []
        for src, i in pairs:
            canon = _canonical_phase(reference_apply(ops[i], rows[src]))
            if np.abs(np.array(rows) @ canon.conj()).max() > 1.0 - DEDUP_TOL:
                continue
            rows.append(canon)
            words.append(words[src] + (i,))
            frontier.append(len(rows) - 1)
        if not frontier:
            break
    return np.array(rows).T, tuple(words)


def reference_overlaps(model: OpenSystemModel, columns: np.ndarray, observables=()):
    """E, D, (R_n, F_n) per jump, then each observable's projection, from the
    dense columns: every S^dag X summed over S's nonzero rows."""
    from ness_sdp.lindblad import _support, hermitize

    s = np.asarray(columns, dtype=complex)
    rows = _support((s != 0).any(axis=1))
    sdag = s[rows].conj().T
    mats = [hermitize(sdag @ s[rows]),
            hermitize(sdag @ reference_apply(model.hamiltonian, s)[rows])]
    for _, jump in model.dissipators:
        x_n = reference_apply(jump, s)
        mats.append(sdag @ x_n[rows])
        x_n = x_n[_support((x_n != 0).any(axis=1))]
        mats.append(hermitize(x_n.conj().T @ x_n))
    for obs in observables:
        mat = sdag @ reference_apply(obs, s)[rows]
        mats.append(hermitize(mat) if obs.is_hermitian() else mat)
    return mats


# -- the affine step's LSQR as it allocated every iterate, kept as the reference
#    for the kept-buffer loop of sdp._lsqr ---------------------------------------

def reference_lsqr(system, rhs: tuple, tol: float, max_iter: int):
    """LSQR on ``system`` with fresh arrays for u, dx and the w step in every
    iteration; (dx, ||r||, iterations, stop) as ``sdp._lsqr`` returns them."""
    from ness_sdp.sdp import LSQR_ATOL

    def divided(parts, beta):
        y, t, vals = parts
        return y * (1.0 / beta), t / beta, vals / beta

    dx = np.zeros((system.dim, system.dim), dtype=complex)
    beta = system.norm(*rhs)
    if beta <= tol:
        return dx, beta, 0, "converged"
    u = divided(rhs, beta)
    v = system.adjoint(*u)
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        return dx, beta, 0, "least-squares"
    v *= 1.0 / alpha
    w = v.copy()
    phibar, rhobar, anorm_sq = beta, alpha, 0.0
    for it in range(1, max_iter + 1):
        u = tuple(av - alpha * part for av, part in zip(system.apply(v), u))
        beta = system.norm(*u)
        anorm_sq += alpha * alpha + beta * beta
        if beta > 0.0:
            u = divided(u, beta)
            v *= -beta
            v += system.adjoint(*u)
            alpha = float(np.linalg.norm(v))
            if alpha > 0.0:
                v *= 1.0 / alpha
        rho = float(np.hypot(rhobar, beta))
        cs, sn = rhobar / rho, beta / rho
        theta, rhobar = sn * alpha, -cs * alpha
        phi, phibar = cs * phibar, sn * phibar
        dx += (phi / rho) * w
        w *= -(theta / rho)
        w += v
        if phibar <= tol:
            return dx, phibar, it, "converged"
        if alpha * abs(cs) <= LSQR_ATOL * np.sqrt(anorm_sq):
            return dx, phibar, it, "least-squares"
    return dx, phibar, max_iter, "budget"
