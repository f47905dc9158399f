import re

import pytest
from hypothesis import example, given, strategies as st

from jacograph import (
    ArithmeticOverflowError,
    FamilyClass,
    IncidencePolynomial,
    PolynomialParseError,
    classify,
    evaluate,
    format_polynomial,
    forward_difference_bound,
    parse,
)
from conftest import polynomials


def test_evaluate_examples():
    assert evaluate(IncidencePolynomial(1, 0, 0), 1) == 1
    assert evaluate(IncidencePolynomial(0, 0, 0), 7) == 0
    assert evaluate(IncidencePolynomial(2, 3, 1), 2) == 15


def test_evaluate_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        evaluate(IncidencePolynomial(1, 0, 0), 0)


def test_evaluate_overflow_boundary():
    p = IncidencePolynomial(1, 0, 0)
    assert evaluate(p, 3037000499) == 3037000499**2  # last square below 2**63
    with pytest.raises(ArithmeticOverflowError):
        evaluate(p, 3037000500)


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        IncidencePolynomial(1, -1, 0)


def test_classify_examples():
    assert classify(IncidencePolynomial(0, 0, 3)) is FamilyClass.CONSTANT
    assert classify(IncidencePolynomial(0, 2, 1)) is FamilyClass.LINEAR
    assert classify(IncidencePolynomial(1, 0, 0)) is FamilyClass.QUADRATIC
    assert classify(IncidencePolynomial(0, 0, 0)) is FamilyClass.CONSTANT


@given(polynomials())
def test_classification_total_and_exclusive(p):
    cls = classify(p)
    assert (cls is FamilyClass.QUADRATIC) == (p.a >= 1)
    assert (cls is FamilyClass.LINEAR) == (p.a == 0 and p.b >= 1)
    assert (cls is FamilyClass.CONSTANT) == (p.a == 0 and p.b == 0)


def test_parse_examples():
    assert parse("x^2") == IncidencePolynomial(1, 0, 0)
    assert parse("2*x^2 + 3*x + 1") == IncidencePolynomial(2, 3, 1)
    assert parse("5") == IncidencePolynomial(0, 0, 5)
    assert parse("0") == IncidencePolynomial(0, 0, 0)
    assert parse(" x ") == IncidencePolynomial(0, 1, 0)
    assert parse("3*x+x^2") == IncidencePolynomial(1, 3, 0)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("x^3", 0),
        ("2x^2", 0),
        ("", 0),
        ("x^2+", 4),
        ("x^2+x^2", 4),
        ("x + bogus", 4),
        ("-3", 0),
        pytest.param("9" * 5000, 0, id="5000-digit-c"),
        pytest.param("x^2+" + "9" * 5000 + "*x", 4, id="5000-digit-b"),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(PolynomialParseError) as err:
        parse(text)
    assert err.value.offset == offset


_REFERENCE_TERMS = (
    (re.compile(r"(?:(\d+)\*)?x\^2\Z"), "a"),
    (re.compile(r"(?:(\d+)\*)?x\Z"), "b"),
    (re.compile(r"(\d+)\Z"), "c"),
)


def reference_parse(text):
    """The character-walking parser that ``parse`` replaced, kept verbatim."""
    coeffs = {}
    pos = 0
    length = len(text)
    while True:
        while pos < length and text[pos].isspace():
            pos += 1
        start = pos
        while pos < length and text[pos] != "+":
            pos += 1
        compact = re.sub(r"\s+", "", text[start:pos])
        if not compact:
            raise PolynomialParseError("empty term", start)
        for pattern, key in _REFERENCE_TERMS:
            m = pattern.match(compact)
            if m:
                if key in coeffs:
                    raise PolynomialParseError(f"duplicate {key!r} term", start)
                coeffs[key] = int(m.group(1)) if m.group(1) is not None else 1
                break
        else:
            raise PolynomialParseError(f"unrecognized term {compact!r}", start)
        if pos >= length:
            break
        pos += 1  # skip '+'
    return IncidencePolynomial(coeffs.get("a", 0), coeffs.get("b", 0), coeffs.get("c", 0))


def _outcome(parser, text):
    try:
        return parser(text)
    except PolynomialParseError as exc:
        return type(exc), str(exc), exc.offset


@given(st.text(alphabet="x^*+0123456789 \t\n\r\x0b\x0c\xa0\u2003\x1c", max_size=16))
@example(" \xa0x^2 +\u20033 * x+ 1\x1c")
@example("x^2+\u2003+x")
@example("+")
def test_parse_matches_the_reference_parser(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


def test_format_examples():
    assert format_polynomial(IncidencePolynomial(1, 0, 0)) == "x^2"
    assert format_polynomial(IncidencePolynomial(2, 3, 1)) == "2*x^2+3*x+1"
    assert format_polynomial(IncidencePolynomial(0, 0, 0)) == "0"
    assert format_polynomial(IncidencePolynomial(0, 1, 5)) == "x+5"


@given(polynomials(max_a=50, max_b=50, max_c=50))
def test_parse_format_roundtrip(p):
    assert parse(format_polynomial(p)) == p


def test_forward_difference_bound_examples():
    assert forward_difference_bound(IncidencePolynomial(1, 0, 0), 2) == 3
    assert forward_difference_bound(IncidencePolynomial(0, 0, 5), 10) == 0
    assert forward_difference_bound(IncidencePolynomial(2, 3, 0), 3) == 13
    with pytest.raises(ValueError):
        forward_difference_bound(IncidencePolynomial(1, 0, 0), 1)
    with pytest.raises(ArithmeticOverflowError, match="difference bound at i=2 exceeds the 64-bit range"):
        forward_difference_bound(IncidencePolynomial(2**62, 0, 0), 2)


@given(polynomials(max_a=10, max_b=10, max_c=10), st.integers(1, 10_000))
def test_forward_difference_is_exact(p, x):
    diff = evaluate(p, x + 1) - evaluate(p, x)
    assert diff == p.a * (2 * x + 1) + p.b
    assert forward_difference_bound(p, x + 1) == diff
