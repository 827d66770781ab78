"""Exception types shared across the package.

Every domain error derives from :class:`NtkError` so callers (the CLI in
particular) can map failures onto exit codes without enumerating modules.
"""


class NtkError(Exception):
    """Base class for all errors raised by this package."""


class NotLatin(NtkError):
    """A table row or column repeats a value (or the table is malformed)."""


class NotAssociative(NtkError):
    """A multiplication table fails the associativity check."""


class NoIdentity(NtkError):
    """A multiplication table has no two-sided identity element."""


class InvalidAction(NtkError):
    """A twisted-product action is not a homomorphism into automorphisms."""


class NotPermutation(NtkError):
    """A sequence expected to be a permutation of 0..n-1 is not."""


class OrderTooLarge(NtkError):
    """An oracle's exhaustive search was requested beyond its guard, or
    ``near_transversal`` met a group above its search order that has no
    closed form (its message names the oracle call that searches)."""


class TooLarge(NtkError):
    """An exact graph solver was requested beyond its vertex guard."""


class InvalidInput(NtkError):
    """A cell collection violates the preconditions of an operation."""


class DuplicateCell(NtkError):
    """A cell set contains the same cell twice."""


class ParseError(NtkError):
    """A group spec string could not be parsed.

    ``position`` is the character offset of the offending token.
    """

    def __init__(self, message, position=0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotApplicable(NtkError):
    """The requested construction does not apply to this group class."""


class StructureViolation(NtkError):
    """An internal structural invariant failed; indicates a bug."""


class InvalidOrdering(NtkError):
    """A user-supplied element ordering is not harmonious for the subgroup."""


class OddOrderRequired(NtkError):
    """A harmonious ordering was requested for an even-order (sub)group."""


class SearchExhausted(NtkError):
    """A search guaranteed to succeed came up empty; indicates a bug."""
