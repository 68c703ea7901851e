"""Exception types shared across the package."""


class TangleKitError(Exception):
    """Base class for all tanglekit errors."""


class ParseError(TangleKitError, ValueError):
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
    """A completed Kei table failed its certificate."""


class InvalidMoveSite(TangleKitError):
    """Tangle move applied at a site that is not a 0-tangle leaf."""


class TooLarge(TangleKitError):
    """A limit on work or memory refused the input: a diagram wider than
    the bracket contraction's frontier-width cap, or a Kei table that
    would outgrow the compiled kernel's TANGLEKIT_MAX_TABLE_BYTES."""


class CorpusError(TangleKitError):
    """Embedded corpus is missing or malformed."""
