"""Exception types shared across the package."""


class CurvewaveError(Exception):
    """Base class for all errors raised by curvewave."""


class DomainError(CurvewaveError, ValueError):
    """Input outside the mathematical domain of an operation."""


class RangeError(CurvewaveError, ValueError):
    """Input inside the domain but outside the representable/supported range."""


class SingularArgumentError(DomainError):
    """Evaluation requested exactly at a singular point."""


class ConvergenceError(CurvewaveError, RuntimeError):
    """An iterative method failed to converge."""


class AccuracyError(CurvewaveError, RuntimeError):
    """A self-check (grid doubling, Richardson) exceeded its tolerance."""


class CoverageError(CurvewaveError, ValueError):
    """A mode table does not extend far enough for the requested expansion."""


class NearDefectiveModeError(CurvewaveError, ValueError):
    """Mode norm too close to zero for a stable biorthogonal expansion."""


class FitQualityError(CurvewaveError, RuntimeError):
    """Trajectory samples ill-conditioned for the requested fit.

    ``data`` holds what the failed fit was computed from, when the raiser
    has it, so that it can be written out and inspected.
    """

    def __init__(self, message, data=None):
        super().__init__(message)
        self.data = data


class UndefinedCentroidError(CurvewaveError, ValueError):
    """Region mask carries too little probability to define a centroid."""


class UnwrapError(CurvewaveError, RuntimeError):
    """Phase curve has a branch jump inside a differentiation stencil."""
