"""Exception types shared across the package."""


class ObspartError(Exception):
    """Base class for all errors raised by obspart."""


class MalformedInputError(ObspartError):
    """A system description (pattern entries, file contents) is invalid."""


class ParameterError(ObspartError):
    """A numeric or CLI parameter is out of its valid range."""


class PreconditionError(ObspartError):
    """An operation was called on inputs that violate its stated precondition."""


class InconsistencyError(ObspartError):
    """Two structures that must agree (e.g. a matching and its graph) do not."""


class DegenerateStructureError(ObspartError):
    """The sparsity structure falls outside the partition theory's domain.

    Raised when the alternating searches of two unmatched seeds reach a
    common state: some deficient component is short by two or more nodes.
    ``overlaps`` holds the sorted (seed_a, seed_b) pairs of 1-based seeds,
    seed_a < seed_b, whose searches met, at least one pair per degenerate
    component; the message counts them and names the first three.
    """

    def __init__(self, message, overlaps=()):
        super().__init__(message)
        self.overlaps = tuple(overlaps)


class InfeasiblePlacementError(ObspartError):
    """A placement constraint (e.g. forbidden states) emptied a class."""

    def __init__(self, message, empty_class=()):
        super().__init__(message)
        self.empty_class = tuple(empty_class)


class NumericError(ObspartError):
    """A numeric routine (eigensolver, SVD) failed on a realization."""
