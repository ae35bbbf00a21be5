"""Exception hierarchy shared by all modules.

Two broad families matter for the CLI exit-code mapping: input/validation
problems (exit 2) and solver/numerics failures (exit 3).
"""


class AymError(Exception):
    """Base class for all package errors."""


class ValidationError(AymError):
    """Invalid input data or parameters (CLI exit code 2)."""


class SolverError(AymError):
    """A numerical routine failed to produce a result (CLI exit code 3)."""


class InfeasibleDemand(ValidationError):
    """Aggregate demand lies outside (or on a forbidden boundary of) the feasible hull."""


class EmptyLadder(ValidationError):
    """No productivity sectors were given."""


class NonMonotoneLevels(ValidationError):
    """Productivity levels are not strictly increasing."""


class DomainError(ValidationError):
    """An argument lies outside the mathematical domain of an operation."""


class InstanceTooLarge(ValidationError):
    """Exhaustive enumeration would exceed the configured cap."""


class NoFeasibleState(ValidationError):
    """The integer constraint set is empty; nothing to sample."""


class DegenerateFit(ValidationError):
    """The tail data cannot determine a decay scale."""


class EmptyDataset(ValidationError):
    """A data file contained no usable rows."""


class ParseError(ValidationError):
    """A data file row could not be parsed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MonotonicityError(ParseError):
    """A data file violates the required cut/tail ordering."""


class NoConvergence(SolverError):
    """Iteration budget exhausted before reaching the requested tolerance."""

    def __init__(self, iterations: int, message: str = ""):
        detail = message or "no convergence"
        super().__init__(f"{detail} after {iterations} iterations")
        self.iterations = iterations


class DomainViolation(SolverError):
    """A generalized (c < 0) equilibrium provably has no solution.

    Occupations are capped at 1/|c|, so n must not exceed g/|c| and D must
    lie between the bottom-up and the top-down fill of the sectors.
    """


class QuadratureFailure(SolverError):
    """Adaptive quadrature could not reach the requested tolerance."""
