"""Exception hierarchy shared across the package."""


class CycgraphError(Exception):
    """Base class for all cycgraph errors."""


class GroupValidationError(CycgraphError):
    """A candidate multiplication table failed a group axiom."""


class NotLatinSquare(GroupValidationError):
    pass


class NoIdentity(GroupValidationError):
    pass


class NoInverse(GroupValidationError):
    pass


class NotAssociative(GroupValidationError):
    pass


class OrderCapExceeded(CycgraphError):
    """A construction would produce a group larger than the configured cap."""


class InvalidPermutation(CycgraphError):
    pass


class VertexCapExceeded(CycgraphError):
    """Graph construction would exceed the vertex cap; erroring beats truncating."""


class SkippedSizeCap(CycgraphError):
    """An exact solver gave up: a size cap or node budget was hit, or the
    certificate the solver relies on does not exist for this graph."""


class EmptyGraphError(CycgraphError):
    """The invariant is undefined on the 0-vertex graph."""


class SpecParseError(CycgraphError):
    """A group-spec string or file could not be parsed."""


class UnknownTheoremId(CycgraphError):
    pass
