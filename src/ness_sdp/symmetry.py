"""Multiple steady states under strong symmetries.

A strong symmetry is an operator U commuting with the Hamiltonian and all
jump operators; the operator space splits into blocks B_ab between
U-eigenspaces and each diagonal block carries a physical steady state.
This module implements the three tools that recover them:

* sector constraints Tr(beta N~) = n_k added to the feasibility SDP,
* twirl elimination rho -> rho - (rho - U rho U^dag)/(1 - u_m conj(u_n)),
  which annihilates the B_mn component exactly and leaves diagonal
  blocks untouched,
* Vandermonde extraction, solving the invertible system that maps
  {U^k rho_phys} onto the per-sector components c_a rho_aa.

Combinations of U^k rho (U^dag)^k' are tracked symbolically on the
solver's factor rho = S beta S^dag. U is never dense: U^p S is a row
scatter of S with phases (``SymmetrySpec.apply``). Each found sector
state is realized densely once, as sum c (U^p S) beta (U^q S)^dag, so
extraction stops at ``pauli.DEFAULT_DENSE_LIMIT`` qubits.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DenseLimitError
from .lindblad import PauliLindbladian, hermitize
from .models import OpenSystemModel, SymmetrySpec
from .overlaps import assemble, observable_matrix
from .pauli import DEFAULT_DENSE_LIMIT, PauliSum
from .sdp import BetaMatrix, FeasibilityProblem, SolverOptions, solve_feasibility
from .states import AnsatzSet
from . import oracle

TRACE_FLOOR = 1e-8
MAX_RETRIES = 2


# ---------------------------------------------------------------------------
# Sector constraints (method one)
# ---------------------------------------------------------------------------

def sector_constraint(generator: PauliSum, target: float,
                      ansatz: AnsatzSet) -> tuple[np.ndarray, float]:
    """Linear constraint Tr(beta N~) = target selecting a symmetry sector."""
    if not generator.is_hermitian():
        raise ValueError("sector generator must be Hermitian")
    return observable_matrix(generator, ansatz), target


def sector_basis_ansatz(n: int, m: int) -> AnsatzSet:
    """Ansatz of all computational basis states with magnetization m.

    The span equals the full magnetization sector, so the projected
    constraints coincide with the exact steady-state condition there.
    """
    rows = oracle.magnetization_sector_indices(n, m)
    if len(rows) == 0:
        raise ConfigError(f"magnetization {m} is empty for {n} qubits")
    return AnsatzSet(
        n_qubits=n,
        rows=rows,
        block=np.eye(len(rows), dtype=complex),
        words=tuple(() for _ in rows),
        seed_descriptor=f"sector-basis:m={m}",
    )


# ---------------------------------------------------------------------------
# Twirl elimination and Vandermonde extraction (method two)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhoCombination:
    """Formal combination sum_{p,q} c_pq U^p rho1 (U^dag)^q of a factored
    rho1 = S beta S^dag.

    ``dense`` evaluates it as sum c_pq (U^p S) beta (U^q S)^dag, with U^p S
    from U scattering the rows of the 2^n x L factor S with phases: one
    2^n x 2^n product, and no dense rho1, U or power of U.
    """

    weights: dict[tuple[int, int], complex]
    factor: np.ndarray
    beta: np.ndarray
    spec: SymmetrySpec
    # U^p S for p = 0, 1, ...: filled on first use and shared by every
    # combination derived from this one.
    powers: list = field(default_factory=list, repr=False, compare=False)

    @classmethod
    def initial(cls, beta: np.ndarray, spec: SymmetrySpec,
                factor: np.ndarray | None = None) -> "RhoCombination":
        """rho1 = factor beta factor^dag; without a factor, beta is rho1 itself."""
        beta = np.asarray(beta, dtype=complex)
        if factor is None:
            factor = np.eye(beta.shape[0], dtype=complex)
        return cls(weights={(0, 0): 1.0 + 0j}, factor=factor, beta=beta, spec=spec)

    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """[U^p S for the powers p in use] side by side, and the matrix
        (c_pq beta) of blocks that it sandwiches."""
        used = sorted({p for key in self.weights for p in key})
        while len(self.powers) <= used[-1]:
            self.powers.append(self.spec.apply(self.powers[-1]) if self.powers else self.factor)
        pos = {p: i for i, p in enumerate(used)}
        coeffs = np.zeros((len(used), len(used)), dtype=complex)
        for (p, q), c in self.weights.items():
            coeffs[pos[p], pos[q]] += c
        return np.concatenate([self.powers[p] for p in used], axis=1), np.kron(coeffs, self.beta)

    def trace(self) -> complex:
        """Tr of the combination, from the Gram matrix of the stacked columns."""
        left, mid = self._stacked()
        return complex(np.sum(mid * (left.conj().T @ left).T))

    def dense(self) -> np.ndarray:
        """Evaluate the formal expansion explicitly."""
        left, mid = self._stacked()
        return (left @ mid) @ left.conj().T

    def left_multiplied(self, k: int) -> "RhoCombination":
        """Formal U^k * self (left only), as used by the Vandermonde stage."""
        weights = {(kk + k, kp): c for (kk, kp), c in self.weights.items()}
        return replace(self, weights=weights)

    def scaled(self, factor: complex) -> "RhoCombination":
        return replace(self, weights={kk: factor * c for kk, c in self.weights.items()})

    def added(self, other: "RhoCombination") -> "RhoCombination":
        weights = dict(self.weights)
        for key, c in other.weights.items():
            weights[key] = weights.get(key, 0j) + c
        return replace(self, weights=weights)


def twirl_eliminate(rc: RhoCombination, spec: SymmetrySpec,
                    pair: tuple[int, int]) -> RhoCombination:
    """Annihilate the B_{m,n} component: rho <- rho - (rho - U rho U^dag)/(1 - u_m conj(u_n)).

    Diagonal-block components are unchanged; the sector pair is given as
    0-based indices into the spec's eigenvalues, which are distinct, so the
    divisor is nonzero for m != n.
    """
    m, n = pair
    if m == n:
        raise ValueError("twirl pair must reference two different sectors")
    weight = 1.0 / (1.0 - spec.eigenvalues[m] * np.conj(spec.eigenvalues[n]))
    # rho' = (1 - w) rho + w U rho U^dag
    shifted = {(k + 1, kp + 1): weight * c for (k, kp), c in rc.weights.items()}
    return rc.scaled(1.0 - weight).added(replace(rc, weights=shifted))


def twirl_eliminate_all(rc: RhoCombination, spec: SymmetrySpec) -> RhoCombination:
    """Eliminate every off-diagonal sector pair, in lexicographic order."""
    pairs = [(m, n) for m in range(spec.n_sectors) for n in range(spec.n_sectors) if m != n]
    # Pairs sharing an eigenvalue-phase difference are annihilated together;
    # re-processing such a pair is a harmless no-op on the zero component.
    seen_ratios: list[complex] = []
    for m, n in pairs:
        ratio = spec.eigenvalues[m] * np.conj(spec.eigenvalues[n])
        if any(abs(ratio - r) < 1e-12 for r in seen_ratios):
            continue
        seen_ratios.append(complex(ratio))
        rc = twirl_eliminate(rc, spec, (m, n))
    return rc


@dataclass(frozen=True)
class ExtractedState:
    """One recovered per-sector physical steady state."""

    sector: int
    eigenvalue: complex
    trace_weight: complex
    state: np.ndarray | None
    combination: RhoCombination | None
    missing: bool = False
    residual: float | None = None
    psd_violation: float | None = None


def vandermonde_extract(rho_phys: RhoCombination, spec: SymmetrySpec,
                        trace_floor: float = TRACE_FLOOR) -> list[ExtractedState]:
    """Separate a diagonal-blocks-only combination into per-sector states.

    Solves V (c_a rho_aa) = (U^k rho_phys), k = 0..n_U-1, with
    V_{ka} = u_a^k, formally: each sector's combination
    sum_k (V^-1)_{ak} U^k rho_phys gets its trace from the factor's Gram
    matrix and is realized densely only when it is not missing.
    Components with |trace| <= trace_floor are reported missing (the
    feasibility program should be re-run from a different start to
    populate them).
    """
    n_u = spec.n_sectors
    eigs = np.array(spec.eigenvalues)
    vmat = np.vander(eigs, N=n_u, increasing=True).T  # V[k, a] = u_a^k
    v_inv = np.linalg.inv(vmat)
    results = []
    for a in range(n_u):
        component = rho_phys.scaled(v_inv[a, 0])
        for k in range(1, n_u):
            component = component.added(rho_phys.left_multiplied(k).scaled(v_inv[a, k]))
        trace = component.trace()
        if abs(trace) <= trace_floor:
            results.append(ExtractedState(
                sector=a, eigenvalue=spec.eigenvalues[a], trace_weight=trace,
                state=None, combination=None, missing=True,
            ))
            continue
        combination = component.scaled(1.0 / trace)
        state = hermitize(combination.dense())
        results.append(ExtractedState(
            sector=a, eigenvalue=spec.eigenvalues[a], trace_weight=trace,
            state=state, combination=combination,
            psd_violation=float(np.linalg.eigvalsh(state)[0]),
        ))
    return results


# ---------------------------------------------------------------------------
# Full pipeline (Appendix-style three stage extraction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtractionResult:
    states: tuple[ExtractedState, ...]
    beta: BetaMatrix
    attempts: int

    @property
    def found(self) -> list[ExtractedState]:
        return [s for s in self.states if not s.missing]


def extract_all_ness(model: OpenSystemModel, spec: SymmetrySpec, ansatz: AnsatzSet,
                     options: SolverOptions | None = None,
                     extra_constraints: tuple = ()) -> ExtractionResult:
    """Solve, twirl away off-diagonal blocks, and Vandermonde-extract all sectors.

    When a sector component is missing (zero weight in the solver output)
    the feasibility program is re-run from a seeded random start, per the
    documented remedy, up to ``MAX_RETRIES`` times. A spec that fails
    ``validate`` raises ``ConfigError``. The sector states are dense, so
    above ``pauli.DEFAULT_DENSE_LIMIT`` qubits this raises
    ``DenseLimitError`` before any work.
    """
    if model.n_qubits > DEFAULT_DENSE_LIMIT:
        raise DenseLimitError(f"sector states of {model.n_qubits} qubits are dense; "
                              f"the limit is {DEFAULT_DENSE_LIMIT}")
    options = options or SolverOptions()
    violations = spec.validate(model)
    if violations:
        raise ConfigError(f"invalid strong symmetry {spec.label!r}: {violations}")
    overlaps = assemble(model, ansatz)
    generator = PauliLindbladian(model)  # compiled once for every residual
    attempts = 0
    states: list[ExtractedState] = []
    beta = None
    while attempts <= MAX_RETRIES:
        opts = options if attempts == 0 else replace(
            options, initial="random", rng_seed=options.rng_seed + attempts)
        problem = FeasibilityProblem(
            overlaps=overlaps, extra_constraints=tuple(extra_constraints), options=opts)
        beta = solve_feasibility(problem)
        rc = RhoCombination.initial(beta.matrix, spec, factor=ansatz.columns)
        rc = twirl_eliminate_all(rc, spec)
        states = vandermonde_extract(rc, spec)
        states = [
            replace(s, residual=oracle.true_residual(s.state, model, generator))
            if s.state is not None else s
            for s in states
        ]
        attempts += 1
        if all(not s.missing for s in states):
            break
    return ExtractionResult(states=tuple(states), beta=beta, attempts=attempts)
