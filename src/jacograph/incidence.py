"""Polynomial incidence functions f(x) = a*x^2 + b*x + c.

The coefficient triple decides the family of the induced Jaco graph:
a >= 1 gives quadratic incidence, a = 0 with b >= 1 linear incidence, and
a = b = 0 constant incidence.  One type covers all three so that results
stated uniformly over the families can be checked uniformly.  The zero
polynomial is admitted and yields edgeless graphs.

All arithmetic is checked against the signed 64-bit range: values are
computed exactly and an :class:`ArithmeticOverflowError` is raised instead
of ever returning a value beyond ``2**63 - 1``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .errors import ArithmeticOverflowError, PolynomialParseError

INT64_MAX = 2**63 - 1


class FamilyClass(enum.Enum):
    """Graph family induced by an incidence polynomial."""

    CONSTANT = "constant"
    LINEAR = "linear"
    QUADRATIC = "quadratic"


@dataclass(frozen=True)
class IncidencePolynomial:
    """Coefficients of f(x) = a*x^2 + b*x + c, all non-negative integers."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(
                    f"coefficient {name} must be a non-negative integer, got {value!r}"
                )


def evaluate(p: IncidencePolynomial, x: int) -> int:
    """Return f(x) = a*x^2 + b*x + c for x >= 1, checked against int64."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    value = p.a * x * x + p.b * x + p.c
    if value > INT64_MAX:
        raise ArithmeticOverflowError(
            f"f({x}) = {value} exceeds the 64-bit range; reduce the order"
        )
    return value


def classify(p: IncidencePolynomial) -> FamilyClass:
    """Classify the polynomial: quadratic iff a >= 1, linear iff a = 0 and
    b >= 1, constant iff a = b = 0.  Total and exclusive."""
    if p.a >= 1:
        return FamilyClass.QUADRATIC
    if p.b >= 1:
        return FamilyClass.LINEAR
    return FamilyClass.CONSTANT


def forward_difference_bound(p: IncidencePolynomial, i: int) -> int:
    """Return a*(2i - 1) + b, the exact forward difference f(i) - f(i-1).

    This bounds the jump between consecutive underlying degrees in any
    graph built from ``p``.  Requires i >= 2.
    """
    if i < 2:
        raise ValueError(f"i must be >= 2, got {i}")
    value = p.a * (2 * i - 1) + p.b
    if value > INT64_MAX:
        raise ArithmeticOverflowError(f"difference bound at i={i} exceeds the 64-bit range")
    return value


def format_polynomial(p: IncidencePolynomial) -> str:
    """Canonical text form ``a*x^2+b*x+c`` with zero terms elided and the
    coefficient 1 dropped; the zero polynomial prints as ``0``."""
    terms = []
    if p.a:
        terms.append("x^2" if p.a == 1 else f"{p.a}*x^2")
    if p.b:
        terms.append("x" if p.b == 1 else f"{p.b}*x")
    if p.c:
        terms.append(str(p.c))
    return "+".join(terms) if terms else "0"


_TERM_PATTERNS = (
    (re.compile(r"(?:(\d+)\*)?x\^2\Z"), "a"),
    (re.compile(r"(?:(\d+)\*)?x\Z"), "b"),
    (re.compile(r"(\d+)\Z"), "c"),
)


def parse(text: str) -> IncidencePolynomial:
    """Parse ``a*x^2+b*x+c`` text into a coefficient triple.

    Terms may appear in any order, each kind at most once; absent terms are
    zero; ``x^2`` and ``x`` stand for coefficient 1; whitespace is ignored.
    A single ``0`` denotes the zero polynomial.  Malformed input raises
    :class:`PolynomialParseError` carrying the byte offset of the offending
    term.
    """
    coeffs: dict[str, int] = {}
    pos = 0
    length = len(text)
    while True:
        end = text.find("+", pos)
        if end < 0:
            end = length
        term = text[pos:end].lstrip()
        start = end - len(term)
        compact = "".join(term.split())  # split() and lstrip() drop what \s matches
        if not compact:
            raise PolynomialParseError("empty term", start)
        for pattern, key in _TERM_PATTERNS:
            m = pattern.match(compact)
            if m:
                if key in coeffs:
                    raise PolynomialParseError(f"duplicate {key!r} term", start)
                digits = m.group(1)
                try:
                    coeffs[key] = int(digits) if digits is not None else 1
                except ValueError:  # more digits than int() converts
                    raise PolynomialParseError(
                        f"coefficient too long: {len(digits)} digits", start
                    ) from None
                break
        else:
            raise PolynomialParseError(f"unrecognized term {compact!r}", start)
        if end == length:
            break
        pos = end + 1  # skip '+'
    return IncidencePolynomial(coeffs.get("a", 0), coeffs.get("b", 0), coeffs.get("c", 0))
