"""Exception types shared across the package."""


class SimpartError(Exception):
    """Base class for all simpart errors."""


class DimensionMismatch(SimpartError):
    """Points of inconsistent dimension were combined."""


class InvalidPoint(SimpartError):
    """A coordinate is NaN, infinite, or too large for a simplex's h^d to be finite."""


class DegenerateSimplex(SimpartError):
    """Simplex volume is at or below the degeneracy threshold."""


class UnsupportedDimension(SimpartError):
    """Requested ambient dimension is below 2."""


class PointOutsideSimplex(SimpartError):
    """Query point fails the barycentric membership test."""


class PointOutsideDomain(SimpartError):
    """Query point lies outside the union of root simplices."""


class InvalidEta(SimpartError):
    """Regularity constant must be strictly positive."""


class EmptyPartition(SimpartError):
    """Operation requires a partition with at least one leaf."""


class ArityError(SimpartError):
    """Wrong number of vertex values for the ambient dimension."""


class BudgetTooSmall(SimpartError):
    """Evaluation budget cannot cover the initial vertex sweep."""
