"""Multiple steady states under strong symmetries.

A strong symmetry U commutes with the Hamiltonian and every jump. With its
distinct eigenvalues u_a and V[k, a] = u_a^k, P_a = sum_k (V^-1)_{ak} U^k
projects onto u_a and commutes with the Lindbladian, so each sector a has
its own steady state (Buca & Prosen, New J. Phys. 14, 073007, 2012).
``extract_all_ness`` solves one feasibility problem per sector, on the
projected ansatz S_a = P_a S. U is never dense: U^k S is a row scatter of
S with phases (``SymmetrySpec.apply``). The sector states are dense, so
extraction stops at ``pauli.DEFAULT_DENSE_LIMIT`` qubits. Also here: the
sector constraints Tr(beta N~) = n_k, and the paper's route, kept as the
reference for the sector solves: one solve over span(S), twirl elimination
rho -> rho - (rho - U rho U^dag)/(1 - u_m conj(u_n)), which annihilates
the B_mn block and leaves diagonal blocks untouched, then Vandermonde
extraction of the components c_a rho_aa from {U^k rho_phys}, tracked
symbolically on the factor rho = S beta S^dag (``RhoCombination``).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DenseLimitError, InfeasibleError
from .lindblad import PauliLindbladian, hermitize
from .models import OpenSystemModel, SymmetrySpec
from .overlaps import assemble, observable_matrix
from .pauli import DEFAULT_DENSE_LIMIT, PauliSum
from .sdp import (WHITEN_CUTOFF, BetaMatrix, FeasibilityProblem, SolverOptions,
                  solve_feasibility)
from .states import AnsatzSet
from . import oracle

TRACE_FLOOR = 1e-8


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
# Twirl elimination and Vandermonde extraction (the reference for method two)
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
    psd_violation: float | None = None


def _vandermonde_inverse(spec: SymmetrySpec) -> np.ndarray:
    """V^-1 for V[k, a] = u_a^k: row a maps (U^k X)_k onto X's component P_a X."""
    return np.linalg.inv(np.vander(np.array(spec.eigenvalues), increasing=True).T)


def vandermonde_extract(rho_phys: RhoCombination, spec: SymmetrySpec,
                        trace_floor: float = TRACE_FLOOR) -> list[ExtractedState]:
    """Separate a diagonal-blocks-only combination into per-sector states.

    Solves V (c_a rho_aa) = (U^k rho_phys), k = 0..n_U-1, with
    V_{ka} = u_a^k, formally: each sector's combination
    sum_k (V^-1)_{ak} U^k rho_phys gets its trace from the factor's Gram
    matrix and is realized densely only when it is not missing, that is
    when |trace| > trace_floor.
    """
    v_inv = _vandermonde_inverse(spec)
    results = []
    for a in range(spec.n_sectors):
        component = rho_phys.scaled(v_inv[a, 0])
        for k in range(1, spec.n_sectors):
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
# One feasibility solve per sector (method two)
# ---------------------------------------------------------------------------

# A NamedTuple: building a frozen dataclass of these nine fields takes
# about 1.2 ms of every import of the package (CPython 3.11).
class SectorState(NamedTuple):
    """Sector ``sector``'s state rho_a = S_a beta_a S_a^dag on S_a = P_a S
    (``ansatz``, None when empty). ``diagnostics`` is ``beta.as_dict()``, or
    the solver's report when LSQR certified the sector infeasible, and then
    ``residual`` is that certificate rather than ||L[rho_a]||_F."""

    sector: int
    eigenvalue: complex
    ansatz: AnsatzSet | None
    beta: BetaMatrix | None = None
    state: np.ndarray | None = None
    residual: float | None = None
    psd_violation: float | None = None
    diagnostics: dict | None = None
    missing: bool = False


@dataclass(frozen=True)
class ExtractionResult:
    states: tuple[SectorState, ...]

    @property
    def found(self) -> list[SectorState]:
        return [s for s in self.states if not s.missing]


def extract_all_ness(model: OpenSystemModel, spec: SymmetrySpec, ansatz: AnsatzSet,
                     options: SolverOptions | None = None,
                     extra_constraints: tuple[tuple[PauliSum, float], ...] = ()
                     ) -> ExtractionResult:
    """One feasibility solve per sector of U, on S_a = sum_k (V^-1)_{ak} U^k S.

    S_a is held on its own rows (U can move rows off those of S), and each
    ``(operator, target)`` constraint is projected onto it. A sector is
    missing when no Gram eigenvalue of S_a exceeds ``sdp.WHITEN_CUTOFF``
    times the largest of S, or when LSQR certifies its solve infeasible;
    if that holds for every non-empty sector, the first InfeasibleError
    propagates, as does any other solver error. A spec that fails
    ``validate`` raises ConfigError, and above ``pauli.DEFAULT_DENSE_LIMIT``
    qubits this raises DenseLimitError before any work.
    """
    if model.n_qubits > DEFAULT_DENSE_LIMIT:
        raise DenseLimitError(f"sector states of {model.n_qubits} qubits are dense; "
                              f"the limit is {DEFAULT_DENSE_LIMIT}")
    violations = spec.validate(model)
    if violations:
        raise ConfigError(f"invalid strong symmetry {spec.label!r}: {violations}")
    generator = PauliLindbladian(model)  # compiled once for every residual
    powers = [ansatz.columns]  # U^k S, k = 0..n_U-1
    while len(powers) < spec.n_sectors:
        powers.append(spec.apply(powers[-1]))
    sectors = [AnsatzSet(ansatz.n_qubits, np.arange(len(powers[0])),
                         sum(c * power for c, power in zip(row, powers)), ansatz.words,
                         f"{ansatz.seed_descriptor} sector {a}", ansatz.rng_seed)
               for a, row in enumerate(_vandermonde_inverse(spec))]
    del powers  # dense; freed before any solve
    floor = WHITEN_CUTOFF * np.linalg.norm(ansatz.block, 2) ** 2  # of the Gram eigenvalues
    states, infeasible = [], []
    for a, (sector, u_a) in enumerate(zip(sectors, spec.eigenvalues)):
        if np.linalg.norm(sector.block, 2) ** 2 <= floor:
            states.append(SectorState(a, u_a, None, missing=True))
            continue
        try:
            beta = solve_feasibility(FeasibilityProblem(
                assemble(model, sector), options=options or SolverOptions(),
                extra_constraints=tuple(sector_constraint(op, target, sector)
                                        for op, target in extra_constraints)))
        except InfeasibleError as exc:
            if exc.report["stop_reason"] != "least-squares":
                raise
            infeasible.append(exc)
            states.append(SectorState(a, u_a, sector, diagnostics=exc.report, missing=True,
                                      residual=exc.report["least_squares_residual"]))
            continue
        rho = hermitize(sector.block @ beta.matrix @ sector.block.conj().T)  # on S_a's rows
        state = np.zeros((2 ** model.n_qubits,) * 2, dtype=complex)
        state[np.ix_(sector.rows, sector.rows)] = rho
        low = float(np.linalg.eigvalsh(rho)[0])  # the other eigenvalues of the state are 0
        states.append(SectorState(a, u_a, sector, beta, state,
                                  oracle.true_residual(state, model, generator),
                                  low if len(rho) == len(state) else min(low, 0.0),
                                  beta.as_dict()))
    result = ExtractionResult(tuple(states))
    if infeasible and not result.found:
        raise infeasible[0]
    return result
