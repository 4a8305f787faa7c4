"""Steady states of Lindblad open systems via a Hermitian feasibility SDP.

The pipeline: build an open-system model (Pauli sums), generate
moment-state ansatz sets from a seed, assemble the projected overlap
matrices, solve the feasibility program over the PSD cone, and verify
against the Liouvillian oracle; ``run`` does the last three steps. Strong
symmetries are handled by sector constraints or one solve per symmetry
sector (``ness_sdp.symmetry``).
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
from .models import tfim_chain, xxz_boundary_driven, xxz_dephasing
from .pipeline import Run, run
from .sdp import SolverOptions
from .states import basis_state, moment_states, moment_states_random, uniform_state
