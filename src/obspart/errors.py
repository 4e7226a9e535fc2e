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
    """The sparsity structure falls outside the partition theory's domain:
    some connected part of the Dulmage-Mendelsohn horizontal block is short
    by k >= 2 nodes.  ``components`` holds every part's (lowest state, k),
    ascending; they and the message are the same for every maximum matching.
    """

    def __init__(self, message, components=()):
        super().__init__(message)
        self.components = tuple(components)


class InfeasiblePlacementError(ObspartError):
    """A placement constraint (e.g. forbidden states) emptied a class."""

    def __init__(self, message, empty_class=()):
        super().__init__(message)
        self.empty_class = tuple(empty_class)


class NumericError(ObspartError):
    """A numeric routine (eigensolver, SVD) failed on a realization."""
