"""One verified solve: overlaps, the feasibility SDP, then the oracle's check
of rho = S beta S^dag. ``ness-sdp solve`` and ``sweep`` serialize its ``Run``."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle, overlaps, sdp, states
from .errors import DegenerateSteadySpaceError
from .models import OpenSystemModel
from .pauli import PauliSum, single_site, two_site


@dataclass(frozen=True)
class Run:
    """A solved ansatz, its observables and its verification."""

    ansatz: states.AnsatzSet
    beta: sdp.BetaMatrix
    observables: dict[str, float]
    fidelity: float | None
    true_residual: float | None
    skipped: str | None    # why no fidelity was computed

    def verification(self) -> dict:
        """The ``oracle`` section of ``solution.json``."""
        section = {"fidelity": self.fidelity} if self.skipped is None else {"skipped": self.skipped}
        if self.true_residual is not None:
            section["true_residual"] = self.true_residual
        return section


def _site_observables(n: int) -> dict[str, PauliSum]:
    """Site-averaged <X>, <Z> and bond-averaged <ZZ>."""
    def mean(ops):
        return (1.0 / len(ops)) * sum(ops[1:], ops[0])

    obs = {"avg_X": mean([single_site(n, j, "X") for j in range(1, n + 1)]),
           "avg_Z": mean([single_site(n, j, "Z") for j in range(1, n + 1)])}
    if n > 1:
        obs["avg_ZZ"] = mean([two_site(n, j, "Z", j + 1, "Z") for j in range(1, n)])
    return obs


def run(model: OpenSystemModel, ansatz: states.AnsatzSet, *,
        constraints: tuple[tuple[np.ndarray, float], ...] = (),
        shots: int | None = None, noise_rng_seed: int = 0,
        options: sdp.SolverOptions | None = None,
        dense_limit: int = oracle.DEFAULT_DENSE_LIMIT) -> Run:
    """Solve for beta on ``ansatz`` (least squares when ``shots`` is set) and
    verify rho: up to ``dense_limit`` qubits its fidelity with the exact state
    (None for a degenerate steady space) and ||L[rho]||_F; above, ``skipped``
    and, up to ``oracle.SPARSE_LIMIT``, ||L[rho]||_F alone. rho is formed only
    for these checks. ``constraints`` are projected ``(N~, target)`` pairs, as
    ``symmetry.sector_constraint`` makes them; solver errors propagate.
    """
    ovl = overlaps.assemble(model, ansatz)
    if shots is not None:
        ovl = overlaps.add_shot_noise(ovl, shots, noise_rng_seed)
    beta = sdp.solve(sdp.FeasibilityProblem(
        overlaps=ovl, extra_constraints=tuple(constraints),
        options=sdp.SolverOptions() if options is None else options))
    n = model.n_qubits
    observables = {name: overlaps.expectation(beta.matrix,
                                              overlaps.observable_matrix(op, ansatz)).real
                   for name, op in _site_observables(n).items()}
    fidelity = residual = skipped = None
    if n > dense_limit:
        skipped = f"n={n} above dense limit {dense_limit}"
    if n <= max(dense_limit, oracle.SPARSE_LIMIT):
        rho = states.density_from_beta(beta.matrix, ansatz)
        if skipped is None:
            try:
                fidelity = oracle.fidelity(rho, oracle.exact_ness(model, dense_limit=dense_limit))
            except DegenerateSteadySpaceError:
                pass
        residual = oracle.true_residual(rho, model)
    return Run(ansatz, beta, observables, fidelity, residual, skipped)


def exact_state(model: OpenSystemModel, dense_limit: int) -> np.ndarray:
    """The exact steady state: dense up to dense_limit qubits, else matrix-free."""
    if model.n_qubits <= dense_limit:
        return oracle.exact_ness(model, dense_limit=dense_limit)
    return oracle.sparse_steady_state(model)


def seed_overlap(model: OpenSystemModel, dense_limit: int) -> tuple[float, float]:
    """The largest eigenvalue of the exact steady state (the weight of the
    ``oracle-top`` seed) and that state's ||L[rho]||_F."""
    rho = exact_state(model, dense_limit)
    weight, _ = oracle.dominant_eigenstate(rho, model.n_qubits)
    return weight, oracle.true_residual(rho, model)
