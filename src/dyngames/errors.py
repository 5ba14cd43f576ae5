"""Exception types raised by the game model and solvers."""


class DynGameError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DynGameError):
    """Shape of user-supplied data does not match the game definition."""

    def __init__(self, what, expected, actual, stage=None):
        self.what = what
        self.expected = expected
        self.actual = actual
        self.stage = stage
        loc = f" at stage {stage}" if stage is not None else ""
        super().__init__(f"{what}{loc}: expected {expected}, got {actual}")


class NonFiniteStateError(DynGameError):
    """Dynamics produced a NaN or infinite state.

    ``run`` is the run index within a batch of rollouts; ``mode`` names the
    group of runs it counts within when a batch holds several.
    """

    def __init__(self, stage, run=None, mode=None):
        self.stage = stage
        self.run = run
        self.mode = mode
        where = f" in run {run}" if run is not None else ""
        where += f" ({mode})" if mode is not None else ""
        super().__init__(f"non-finite state produced by dynamics at stage {stage}{where}")


class NonFiniteDerivativeError(DynGameError):
    """Finite-difference probes returned non-finite values."""

    def __init__(self, what, stage):
        self.what = what
        self.stage = stage
        super().__init__(f"non-finite {what} derivative at stage {stage}; "
                         "the map may not be differentiable here")


class InfeasibleTrajectoryError(DynGameError):
    """Trajectory violates the dynamics beyond the accepted tolerance."""

    def __init__(self, stage, residual, tol):
        self.stage = stage
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"trajectory is dynamically infeasible at stage {stage}: "
            f"residual {residual:.3e} exceeds tolerance {tol:.3e}")


class InfeasibleConstraintsError(DynGameError):
    """A projection or best-response subproblem has no feasible point."""

    def __init__(self, message, max_violation=None):
        self.max_violation = max_violation
        if max_violation is not None:
            message = f"{message} (max violation {max_violation:.3e})"
        super().__init__(message)


class UnsupportedConstraintError(DynGameError):
    """Constraint class not handled by the requested operation."""


class StageSingularityError(DynGameError):
    """A per-stage linear solve is singular or rank deficient."""

    def __init__(self, stage, what):
        self.stage = stage
        self.what = what
        super().__init__(f"{what} at stage {stage}")


class SubproblemError(DynGameError):
    """An inner solve failed to converge or returned an inconsistent answer."""


class EnumerationCapError(DynGameError):
    """Active-set enumeration would exceed the configured subset cap."""

    def __init__(self, n_constraints, cap):
        self.n_constraints = n_constraints
        self.cap = cap
        super().__init__(
            f"refusing to enumerate 2^{n_constraints} active sets "
            f"(cap is 2^{cap}); problem is beyond desk scale")
