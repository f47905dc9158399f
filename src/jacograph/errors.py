"""Exception types shared across the package."""


class JacoError(Exception):
    """Base class for all library-specific errors."""


class PolynomialParseError(JacoError, ValueError):
    """Malformed incidence-polynomial text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ArithmeticOverflowError(JacoError, OverflowError):
    """A computed value left the checked 64-bit range."""


class InvalidOrderError(JacoError, ValueError):
    """Requested graph order is outside the admissible range (n >= 1)."""


class ArcBudgetExceededError(JacoError):
    """Materializing the arc list would exceed the caller's budget."""


class HopeNotCompleteError(JacoError):
    """The vertices above the prime Jaconian vertex do not induce a complete
    subgraph.  This cannot happen for quadratic incidence; it signals either
    a constant-incidence graph with several components or a bug."""


class SearchBudgetExceededError(JacoError):
    """An oracle search ran out: ``oracle.partition_min_sum`` spent its node
    budget or went past the recursion limit, or
    ``oracle.sweep_smallest_max_degree`` did not reach its target degree."""


class InvalidBraidError(JacoError, ValueError):
    """Braided-string description violates an overlap constraint."""


class OrderTooLargeError(JacoError, ValueError):
    """Instance too large for a brute-force oracle."""
