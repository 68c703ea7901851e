"""Exception types shared across the package."""


class TangleKitError(Exception):
    """Base class for all tanglekit errors."""


class ParseError(TangleKitError):
    """Input text could not be tokenized/parsed."""


class MalformedDiagram(TangleKitError):
    """PD data violates a structural invariant (arc counts, arity, ...)."""


class InvalidModulus(TangleKitError):
    """Coloring modulus must be an integer >= 2."""


class NotAGroup(TangleKitError):
    """A multiplication table failed the group axioms."""


class UnsupportedStrandCount(TangleKitError):
    """Operation is only defined for 3-strand braids."""


class EnumerationFailure(TangleKitError):
    """An enumeration failed: coset enumeration exceeded its capacity, or a
    completed Kei table failed its certificate."""


class InvalidMoveSite(TangleKitError):
    """Tangle move applied at a site that is not a 0-tangle leaf."""


class TooLarge(TangleKitError):
    """Diagram exceeds the frontier-width cap of the bracket contraction."""


class CorpusError(TangleKitError):
    """Embedded corpus is missing or malformed."""
