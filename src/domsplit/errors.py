"""Exception types shared across the package."""


class DomsplitError(Exception):
    """Base class for package-specific failures."""


class NumericalError(DomsplitError):
    """A numerical routine failed to converge or produced invalid output."""


class SingularMatrixError(DomsplitError, ValueError):
    """Input matrix is singular, or numerically indistinguishable from singular."""


class IllDefinedSplittingError(DomsplitError):
    """The singular-value gap is too degenerate to define the requested splitting."""


class ConditioningError(DomsplitError):
    """A constructed basis is too ill-conditioned to trust."""


class MulticoneConstructionError(DomsplitError):
    """Multicone construction yielded no certificate: no attractor sample,
    or the best radius has no positive closed-form bound, or fails the
    chart test or the invariance check.  This says nothing about the family being dominated.
    Carries the best radius and the parts of its margin bound by name
    (radius, u, g, spread, chart_slack), or no parts when there was no
    sample to search."""

    def __init__(self, message: str, parts: dict[str, float]):
        super().__init__(message)
        self.parts = parts
