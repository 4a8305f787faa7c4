"""Steady states of Lindblad open systems via a Hermitian feasibility SDP.

The pipeline: build an open-system model (Pauli sums), generate
moment-state ansatz sets from a seed, assemble the projected overlap
matrices, solve the feasibility program over the PSD cone, and verify
against the dense Liouvillian oracle. Strong symmetries are handled by
sector constraints or twirl + Vandermonde extraction.
"""
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateAnsatzError,
    DegenerateSteadySpaceError,
    DenseLimitError,
    DimensionMismatchError,
    InfeasibleError,
    IterationBudgetError,
    NessSdpError,
)
from .models import (
    OpenSystemModel,
    magnetization,
    tfim_chain,
    xxz_boundary_driven,
    xxz_dephasing,
)
from .overlaps import OverlapSet, add_shot_noise, assemble, observable_matrix
from .pauli import PauliString, PauliSum, pauli_mul
from .sdp import (
    BetaMatrix,
    FeasibilityProblem,
    SolverOptions,
    project_psd,
    solve,
    solve_feasibility,
    solve_least_squares,
    whiten,
)
from .states import AnsatzSet, basis_state, density_from_beta
from .states import moment_states, moment_states_random
from .symmetry import (
    RhoCombination,
    SymmetrySpec,
    exchange_parity_symmetry,
    extract_all_ness,
    magnetization_symmetry,
    sector_constraint,
    twirl_eliminate,
    vandermonde_extract,
)

__version__ = "0.1.0"
