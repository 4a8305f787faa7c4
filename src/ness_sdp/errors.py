"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so solver outcomes
(infeasible vs. out of iterations) stay distinguishable from plain
usage errors.
"""


class NessSdpError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(NessSdpError, ValueError):
    """Operands act on different qubit counts or incompatible shapes."""


class DenseLimitError(NessSdpError, ValueError):
    """A dense construction was requested above the configured qubit limit."""


class DegenerateAnsatzError(NessSdpError, ValueError):
    """The ansatz Gram matrix is numerically zero; no state content to whiten."""


class DegenerateSteadySpaceError(NessSdpError, ValueError):
    """A unique steady state was requested but the null space has dimension > 1."""


class SolverError(NessSdpError):
    """Base class for solver failures; carries the diagnostics report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InfeasibleError(SolverError):
    """No feasible point: LSQR certified inconsistent affine constraints, or the
    residual stagnated above tolerance."""


class IterationBudgetError(SolverError):
    """The iteration budget ran out while the residual was still improving."""


class ConvergenceError(NessSdpError):
    """The sparse oracle failed to reach its tolerance; carries the true
    residual and LSQR's stop reason (``converged``, ``least-squares`` or
    ``budget``) and iteration count."""

    def __init__(self, message, residual=None, stop_reason=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.stop_reason = stop_reason
        self.iterations = iterations


class ConfigError(NessSdpError, ValueError):
    """A run configuration is malformed or references missing files."""
